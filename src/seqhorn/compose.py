"""Sequential composition of Horn programs.

``compose(P, R)`` resolves every body atom of each rule of P against the
head of a freshly renamed rule of R, simultaneously, and emits the
instantiated rule.  Facts pass through unchanged.  The result is the
canonical, deduplicated set of all rules obtained this way, so composition
respects program equality up to alpha-renaming.
"""

from __future__ import annotations

from .programs import CompositionBudgetError, Program, Rule, canonicalize, rename_fresh, rule_key
from .terms import FreshVars, subst_atom, unify_pairs

_ASSIGNMENT_CAP = 10**6  # candidate tries one rule's composition may make


def compose(p: Program, r: Program) -> Program:
    """Sequential composition P o R.

    Each proper rule h <- B of P is one SLD macro step against R that
    resolves every atom of B, each with its own fresh variant of a
    candidate rule, even when the same rule is chosen twice.  Each
    resolvent is an emitted rule h <- union of the variants' bodies, under
    the mgu of B against the variants' heads; the result may be empty.  A
    candidate is a rule of R whose head has the atom's predicate and arity
    and no clashing first-argument symbol.  Atoms with exactly one
    candidate are unified at once; the SLD engine backtracks over the
    others, left to right.  ``_ASSIGNMENT_CAP`` caps the candidate tries
    for one rule, one for each atom with one candidate.
    """
    # Imported at the first call, which keeps the order seqhorn loads its modules in.
    from .sld import _RuleIndex, _search

    index, pool = _RuleIndex(r), FreshVars()
    out: list[Rule] = []
    for rule in p:
        if rule.is_fact:
            out.append(rule)
            continue
        # Each list of tries ends with a sentinel, so one candidate makes length 2.
        candidates = [index.tries(b) for b in rule.body]
        if any(len(cs) == 1 for cs in candidates):
            continue
        forced = [(b, rename_fresh(cs[0][1], pool))
                  for b, cs in zip(rule.body, candidates) if len(cs) == 2]
        if len(forced) > _ASSIGNMENT_CAP:
            raise CompositionBudgetError(f"over {_ASSIGNMENT_CAP} candidate tries for one rule")
        theta = unify_pairs((b, v.head) for b, v in forced)
        if theta is None:
            continue
        rest = [subst_atom(b, theta) for b, cs in zip(rule.body, candidates) if len(cs) > 2]
        goals = (*rest, *(subst_atom(a, theta) for _, v in forced for a in v.body),
                 subst_atom(rule.head, theta))
        for leaf, _ in _search([index], False, pool, goals, len(rest), 1,
                               len(forced), _ASSIGNMENT_CAP):
            out.append(canonicalize(Rule(leaf[-1], leaf[:-1])))
    return Program._of_canonical(sorted(set(out), key=rule_key))


def compose_ground(p: Program, r: Program) -> Program:
    """``compose`` on ground programs; raises ValueError on any other."""
    if not p.is_ground or not r.is_ground:
        raise ValueError("compose_ground requires ground programs")
    return compose(p, r)

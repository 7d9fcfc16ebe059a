"""Sequential composition of Horn programs.

``compose(P, R)`` resolves every body atom of each rule of P against the
head of a freshly renamed rule of R, simultaneously, and emits the
instantiated rule.  Facts pass through unchanged.  The result is the
canonical, deduplicated set of all rules obtained this way, so composition
respects program equality up to alpha-renaming.
"""

from __future__ import annotations

from .programs import Program, Rule, canonicalize, rename_fresh, rule_key
from .terms import FreshVars, subst_atom, unify, unify_pairs

_ASSIGNMENT_CAP = 10**6  # candidate tries one rule's composition may make


class CompositionBudgetError(Exception):
    """Composing one rule tried more candidates than ``_ASSIGNMENT_CAP``.
    A try unifies a body atom with a candidate head; tries grow
    exponentially in body size.  The cap does not bound one try's work:
    unification copies the substitution at each binding, so a long body of
    deeply nested bindings can still be slow."""


def compose(p: Program, r: Program) -> Program:
    """Sequential composition P o R.

    For each proper rule of P, every total mapping from its body atoms to
    rules of R is tried; each selected occurrence gets an independent fresh
    variant, even when the same rule is chosen twice.  The simultaneous mgu
    of body atoms against the variants' heads instantiates the emitted rule
    head(r) <- union of the variants' bodies; the result may be empty.
    ``_ASSIGNMENT_CAP`` caps the candidate tries for one rule, one for
    each forced atom.
    """
    by_head: dict[tuple[str, int], list[Rule]] = {}
    for c in r:
        by_head.setdefault((c.head.pred, len(c.head.args)), []).append(c)
    out: list[Rule] = []
    for rule in p:
        if rule.is_fact:
            out.append(rule)
            continue
        body = rule.body
        candidates = [by_head.get((b.pred, len(b.args))) for b in body]
        if not all(candidates):
            continue
        pool = FreshVars()
        variants = [[rename_fresh(c, pool) for c in cs] for cs in candidates]
        # Atoms with one candidate are forced and unified at once; the others
        # go left to right with backtracking.  thetas[d] unifies the forced
        # atoms and the first d branching ones, or is None once they clash or
        # branch[d] has nothing left; picks[d] is the next try at branch[d].
        branch = [i for i, vs in enumerate(variants) if len(vs) > 1]
        tries = len(body) - len(branch)
        thetas = [unify_pairs((b, vs[0].head) for b, vs in zip(body, variants) if len(vs) == 1)]
        picks = [0]
        while picks:
            if tries > _ASSIGNMENT_CAP:
                raise CompositionBudgetError(
                    f"over {_ASSIGNMENT_CAP} candidate tries for one rule")
            d = len(picks) - 1
            theta = thetas[d]
            if theta is not None and d < len(branch):
                i, j = branch[d], picks[d]
                picks[d] = j + 1
                tries += 1
                if j + 1 == len(variants[i]):
                    thetas[d] = None
                theta = unify(body[i], variants[i][j].head, theta)
                if theta is not None:
                    thetas.append(theta)
                    picks.append(0)
                continue
            if theta is not None:
                # head(S theta) = body(r theta) holds pairwise by construction.
                chosen = dict(zip(branch, (k - 1 for k in picks)))
                new_body = [subst_atom(b, theta) for i, vs in enumerate(variants)
                            for b in vs[chosen.get(i, 0)].body]
                out.append(canonicalize(Rule(subst_atom(rule.head, theta), tuple(new_body))))
            picks.pop()
            thetas.pop()
    return Program._of_canonical(sorted(set(out), key=rule_key))


def compose_ground(p: Program, r: Program) -> Program:
    """``compose`` on ground programs; raises ValueError on any other."""
    if not p.is_ground or not r.is_ground:
        raise ValueError("compose_ground requires ground programs")
    return compose(p, r)

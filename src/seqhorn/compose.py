"""Sequential composition of Horn programs.

``compose(P, R)`` resolves every body atom of each rule of P against the
head of a freshly renamed rule of R, simultaneously, and emits the
instantiated rule.  Facts pass through unchanged.  The result is the
canonical, deduplicated set of all rules obtained this way, so composition
respects program equality up to alpha-renaming.

``compose_ground`` is the unification-free fast path for ground programs,
implemented by indexing the right program's rules by head atom.  It agrees
with ``compose`` on all ground inputs.
"""

from __future__ import annotations

from itertools import product

from .programs import Program, Rule, canonicalize, make_rule, rename_fresh, rule_key
from .terms import FreshVars, subst_atom, unify_pairs

DEFAULT_ASSIGNMENT_CAP = 10**6


class CompositionBudgetError(Exception):
    """Raised when a single rule's body-to-rule assignment count exceeds the cap.

    The operator is exponential in body size (|R| ** sz(r) assignments per
    rule), so a visible resource error beats an open-ended hang.
    """


def compose(p: Program, r: Program, *,
            max_assignments: int = DEFAULT_ASSIGNMENT_CAP) -> Program:
    """Sequential composition P o R.

    For each proper rule of P, every total mapping from its body atoms to
    rules of R is tried; each selected occurrence gets an independent fresh
    variant, even when the same rule is chosen twice.  The simultaneous mgu
    of body atoms against the variants' heads instantiates the emitted rule
    head(r) <- union of the variants' bodies.  An empty result is valid.
    """
    out: list[Rule] = []
    rules_r = r.rules
    for rule in p:
        if rule.is_fact:
            out.append(rule)
            continue
        k = rule.size
        if rules_r and len(rules_r) ** k > max_assignments:
            raise CompositionBudgetError(
                f"{len(rules_r)}^{k} assignments for one rule exceeds the cap "
                f"of {max_assignments}"
            )
        pool = FreshVars()
        for choice in product(rules_r, repeat=k):
            variants = [rename_fresh(c, pool) for c in choice]
            theta = unify_pairs(zip(rule.body, (v.head for v in variants)))
            if theta is None:
                continue
            # head(S theta) = body(r theta) holds pairwise by construction.
            new_head = subst_atom(rule.head, theta)
            new_body = [subst_atom(b, theta) for v in variants for b in v.body]
            out.append(canonicalize(make_rule(new_head, new_body)))
    return Program._of_canonical(sorted(set(out), key=rule_key))


def compose_ground(p: Program, r: Program, *,
                   max_assignments: int = DEFAULT_ASSIGNMENT_CAP) -> Program:
    """Ground composition via head indexing; no unification involved."""
    if not p.is_ground or not r.is_ground:
        raise ValueError("compose_ground requires ground programs")
    by_head: dict = {}
    for rule in r:
        by_head.setdefault(rule.head, []).append(rule)
    out: list[Rule] = []
    for rule in p:
        if rule.is_fact:
            out.append(rule)
            continue
        candidate_lists = [by_head.get(b) for b in rule.body]
        if any(c is None for c in candidate_lists):
            continue
        n = 1
        for c in candidate_lists:
            n *= len(c)
        if n > max_assignments:
            raise CompositionBudgetError(
                f"{n} assignments for one rule exceeds the cap of {max_assignments}"
            )
        for combo in product(*candidate_lists):
            body = [a for c in combo for a in c.body]
            out.append(make_rule(rule.head, body))
    return Program(sorted(set(out), key=rule_key))

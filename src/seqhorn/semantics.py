"""Model-theoretic semantics: entailment, the immediate-consequence
operator, least models and logical equivalence.

All queries here are about ground programs; non-ground programs must be
grounded (depth-bounded) first.
"""

from __future__ import annotations

from typing import Iterable, Union

from .programs import Program, Rule, _require_ground
from .terms import Atom

Entailable = Union[Atom, Rule, Program, frozenset, set, tuple, list]


def entails(i: Iterable[Atom], x: Entailable) -> bool:
    """I |= x for a ground atom, atom set, rule, or program.

    A rule holds when its body holding implies its head; a program holds
    when every rule does.
    """
    iset = frozenset(i)
    _require_ground("entails", atoms=iset)
    if isinstance(x, Atom):
        _require_ground("entails", atoms=[x])
        return x in iset
    if isinstance(x, Rule):
        return _holds(iset, x)
    if isinstance(x, Program):
        return all(_holds(iset, r) for r in x)
    atoms = frozenset(x)
    _require_ground("entails", atoms=atoms)
    return atoms <= iset


def _holds(iset: frozenset[Atom], r: Rule) -> bool:
    _require_ground("entails", atoms=[r.head, *r.body])
    return not set(r.body) <= iset or r.head in iset


def tp(p: Program, i: Iterable[Atom]) -> frozenset[Atom]:
    """One application of the immediate-consequence operator: heads of
    rules whose body the interpretation satisfies.  Both must be ground."""
    iset = frozenset(i)
    _require_ground("tp", p, iset)
    return frozenset(r.head for r in p if set(r.body) <= iset)


def least_model(p: Program) -> frozenset[Atom]:
    """Least fixed point of tp, by counter-based unit propagation (Dowling
    and Gallier, 1984): each rule counts its body atoms not yet derived
    (a program's rule bodies hold no repeats), and each atom lists the
    rules whose body holds it.  The facts are derived first; deriving an
    atom counts it off those rules, and a rule left with no count derives
    its head.  Work is linear in the size of the program."""
    _require_ground("least_model", p)
    heads: list[Atom] = []
    missing: list[int] = []
    watch: dict[Atom, list[int]] = {}
    todo: list[Atom] = []
    for r in p:
        if not r.body:
            todo.append(r.head)
            continue
        k = len(heads)
        heads.append(r.head)
        missing.append(len(r.body))
        for a in r.body:
            watch.setdefault(a, []).append(k)
    model: set[Atom] = set()
    while todo:
        a = todo.pop()
        if a in model:
            continue
        model.add(a)
        for k in watch.pop(a, ()):
            missing[k] -= 1
            if not missing[k]:
                todo.append(heads[k])
    return frozenset(model)


def logically_equivalent(p: Program, r: Program) -> bool:
    """True when the least models coincide."""
    return least_model(p) == least_model(r)

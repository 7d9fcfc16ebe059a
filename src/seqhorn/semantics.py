"""Model-theoretic semantics: entailment, the immediate-consequence
operator, least models and logical equivalence.

All queries here are about ground programs; non-ground programs must be
grounded (depth-bounded) first.
"""

from __future__ import annotations

from typing import Iterable, Union

from .programs import Program, Rule, head_of
from .terms import Atom, atom_is_ground

Entailable = Union[Atom, Rule, Program, frozenset, set, tuple, list]


def _check_ground_atoms(atoms: Iterable[Atom]) -> None:
    for a in atoms:
        if not atom_is_ground(a):
            raise ValueError(f"expected ground atoms only, got {a}")


def entails(i: Iterable[Atom], x: Entailable) -> bool:
    """I |= x for a ground atom, atom set, rule, or program.

    A rule holds when its body holding implies its head; a program holds
    when every rule does.
    """
    iset = frozenset(i)
    _check_ground_atoms(iset)
    if isinstance(x, Atom):
        _check_ground_atoms([x])
        return x in iset
    if isinstance(x, Rule):
        _check_ground_atoms([x.head, *x.body])
        return not set(x.body) <= iset or x.head in iset
    if isinstance(x, Program):
        return all(entails(iset, r) for r in x)
    atoms = frozenset(x)
    _check_ground_atoms(atoms)
    return atoms <= iset


def tp(p: Program, i: Iterable[Atom]) -> frozenset[Atom]:
    """One application of the immediate-consequence operator: heads of
    rules whose body the interpretation satisfies.  Both must be ground."""
    if not p.is_ground:
        raise ValueError("tp requires a ground program")
    iset = frozenset(i)
    _check_ground_atoms(iset)
    return _tp(p, iset)


def _tp(p: Program, iset: frozenset[Atom]) -> frozenset[Atom]:
    return frozenset(r.head for r in p if set(r.body) <= iset)


def least_model(p: Program) -> frozenset[Atom]:
    """Least fixed point of tp, reached by iteration from the empty
    interpretation; terminates within |head_of(p)| rounds."""
    if not p.is_ground:
        raise ValueError("least_model requires a ground program")
    current: frozenset[Atom] = frozenset()
    for _ in range(len(head_of(p)) + 1):
        nxt = _tp(p, current)
        if nxt == current:
            return current
        current = nxt
    return current


def logically_equivalent(p: Program, r: Program) -> bool:
    """True when the least models coincide."""
    return least_model(p) == least_model(r)

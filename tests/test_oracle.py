"""Differential tests of ``compose`` against the benchmark's independent
reference (the ``reference`` fixture in conftest)."""

import random

from seqhorn import (
    Atom,
    Compound,
    Const,
    Program,
    Var,
    compose,
    make_rule,
    parse_program,
)
from conftest import assert_reference_compose, random_fo_program


# Few predicates and variables, so that bodies often hold atoms of the same
# shape, variables are shared between atoms, and a body atom often has
# several candidates.
_PREDS = (("p", 1), ("r", 2), ("e", 0))
_VARS = tuple(Var(n) for n in "XYZ")
_CONSTS = (Const("a"), Const("b"), Const("[]"))


def _term(rng: random.Random, depth: int):
    roll = rng.random()
    if depth and roll < 0.15:
        return Compound("f", (_term(rng, depth - 1),))
    if depth and roll < 0.3:
        return Compound(".", (_term(rng, depth - 1), _term(rng, depth - 1)))
    if roll < 0.75:
        return rng.choice(_VARS)
    return rng.choice(_CONSTS)


def _atom(rng: random.Random) -> Atom:
    pred, arity = rng.choice(_PREDS)
    return Atom(pred, tuple(_term(rng, 2) for _ in range(arity)))


def _program(rng: random.Random) -> Program:
    return Program(make_rule(_atom(rng), [_atom(rng) for _ in range(rng.randint(0, 3))])
                   for _ in range(rng.randint(1, 5)))


def _agree(reference, p: Program, r: Program) -> None:
    assert_reference_compose(reference, compose(p, r), p, r)


def test_compose_nested_terms(reference):
    rng = random.Random(61)
    for _ in range(600):
        _agree(reference, _program(rng), _program(rng))


def test_compose_flat_ensemble(reference):
    rng = random.Random(62)
    for _ in range(1000):
        _agree(reference, random_fo_program(rng), random_fo_program(rng))


def test_compose_pinned_pairs(reference):
    # One rule of R picked at two body positions needs two variants; an
    # occurs check refuses X = f(X).
    for left, right in [("h(X, Y) :- p(X), p(Y).", "p(Z) :- q(Z)."),
                        ("h(X) :- r(X, f(X)).", "r(Y, Y)."),
                        ("h(X) :- r(X, Y), r(Y, X).", "r(a, Z).\nr(Z, [Z])."),
                        ("h :- e, e2.", "e.")]:
        _agree(reference, parse_program(left), parse_program(right))

"""Laws of the composition algebra, as they hold and where they fail.

Each law that holds is a seeded property over random programs; each
unconditional form that is false is refuted on a pinned counterexample.
"""

import random

from seqhorn import Atom, FreshVars, Program, Rule, Var, compose, dual, parse_program, tp
from seqhorn.sld import _RuleIndex, _search
from conftest import PROP_ATOMS, random_fo_program, random_interpretation, random_prop_program


def random_krom_program(rng: random.Random, max_rules: int = 4) -> Program:
    """A proper Krom program: every rule has exactly one body atom."""
    return Program(Rule(rng.choice(PROP_ATOMS), (rng.choice(PROP_ATOMS),))
                   for _ in range(rng.randint(0, max_rules)))


def test_tp_homomorphism():
    # T_{P o R} = T_P . T_R on ground programs
    rng = random.Random(81)
    for _ in range(2000):
        p, r = random_prop_program(rng), random_prop_program(rng)
        i = random_interpretation(rng)
        assert tp(compose(p, r), i) == tp(p, tp(r, i))


def test_krom_duality():
    # the dual reverses composition on proper Krom programs
    rng = random.Random(82)
    for _ in range(6000):
        p, r = random_krom_program(rng), random_krom_program(rng)
        assert dual(compose(p, r)) == compose(dual(r), dual(p))


def test_duality_fails_beyond_krom():
    # P o R is empty, as no rule of R has head d; the dual splits a :- b,d
    # into b :- a. and d :- a., and R's dual rewrites the first on its own.
    p = parse_program("a :- b, d.")
    r = parse_program("b :- b.")
    assert dual(compose(p, r)) == Program()
    assert compose(dual(r), dual(p)) == parse_program("b :- a.")


def test_associativity_refuted():
    # P o Q's rule b :- b,d merges the two copies of b, so R rewrites them
    # once; in P o (Q o R), c and d rewrite their copies of b independently.
    p = parse_program("b :- c, d.\nc.")
    q = parse_program("a :- b, d.\nb.\nc :- b, d.\nd :- b, d.")
    r = parse_program("b :- d.\nb :- b, c.\nd.")
    left = compose(compose(p, q), r)
    right = compose(p, compose(q, r))
    extra = parse_program("b :- b, c, d.").rules[0]
    assert extra in right and extra not in left
    assert frozenset(left) < frozenset(right)


def resultants(q: Program, r: Program, s: Program, pred: str, arity: int) -> Program:
    """The rules g :- G read off the leaves of one translated macro step
    from g = pred(X0, ..., X(arity-1)): the goals (g, g) resolve the first
    g through Q, then R, then S, and the second g carries the answer."""
    g = Atom(pred, tuple(Var(f"X{i}") for i in range(arity)))
    indexes = [_RuleIndex(q), _RuleIndex(r), _RuleIndex(s)]
    leaves = _search(indexes, True, FreshVars(), (g, g), 1, 1)
    return Program(Rule(goals[-1], goals[:-1]) for goals, _ in leaves)


def test_resultant_law():
    # One macro step of translated SLD through Q, R, S applies exactly the
    # rules of (Q o R) o S (Lloyd & Shepherdson's resultants), on
    # first-order programs
    rng = random.Random(83)
    for _ in range(2000):
        q, r, s = (random_fo_program(rng) for _ in range(3))
        composed = compose(compose(q, r), s)
        for pred, arity in {(rule.head.pred, len(rule.head.args)) for rule in q}:
            want = Program(rule for rule in composed
                           if (rule.head.pred, len(rule.head.args)) == (pred, arity))
            assert resultants(q, r, s, pred, arity) == want

"""Laws of the composition algebra, as they hold and where they fail.

Each law that holds is a seeded property over random programs; each
unconditional form that is false is refuted on a pinned counterexample.
"""

import random

from seqhorn import (
    Atom,
    FreshVars,
    Program,
    Query,
    Rule,
    Var,
    compose,
    dual,
    least_model,
    make_rule,
    parse_program,
    sld,
    tp,
    translated_sld,
)
from seqhorn.sld import DEPTH_EXCEEDED, _RuleIndex, _search
from conftest import (
    PROP_ATOMS,
    random_fo_atom,
    random_fo_program,
    random_interpretation,
    random_prop_program,
)


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


def test_sld_agrees_with_least_model():
    # On propositional programs an atom has an SLD refutation exactly when
    # it is in the least model; a search the depth limit stops claims nothing
    rng = random.Random(84)
    decided = 0
    for _ in range(400):
        p = random_prop_program(rng)
        model = least_model(p)
        for a in PROP_ATOMS:
            d = sld(p, Query((a,)), depth_limit=8)
            if d.outcome != DEPTH_EXCEEDED:
                decided += 1
                assert d.is_refutation == (a in model), (p, a)
    assert decided > 1200


def test_translated_sld_agrees_with_recomposition():
    # A query answered through Q, R and S has the outcome of the same
    # query on (Q o R) o S, one macro step for each step, on first-order
    # programs and ground queries
    rng = random.Random(85)
    refuted = 0
    for _ in range(300):
        q, r, s = (random_fo_program(rng) for _ in range(3))
        composed = compose(compose(q, r), s)
        for _ in range(3):
            goal = Query((random_fo_atom(rng, ground=True),))
            d = translated_sld(q, r, s, goal, depth_limit=5)
            assert d.outcome == sld(composed, goal, depth_limit=5).outcome, (q, r, s, goal)
            refuted += d.is_refutation
    assert refuted > 60


def random_two_level_triple(rng: random.Random) -> tuple[Program, Program, Program]:
    """P of one or two rules with two-atom bodies; Q with one rule for
    each atom, whose body draws on a and b only; R with two one-atom rules
    for each of a and b.  Middle bodies then often share an atom that R
    rewrites two ways, which is where the two sides of associativity
    differ."""
    middle = PROP_ATOMS[:2]
    p = Program(make_rule(rng.choice(PROP_ATOMS), rng.sample(PROP_ATOMS, k=2))
                for _ in range(rng.randint(1, 2)))
    q = Program(make_rule(h, rng.sample(middle, k=rng.randint(1, 2))) for h in PROP_ATOMS)
    r = Program(make_rule(h, (rng.choice(PROP_ATOMS),)) for h in middle for _ in range(2))
    return p, q, r


def test_associativity_inclusion():
    # (P o Q) o R is included in P o (Q o R) on propositional programs.  A
    # rule of the left side starts from a rule h :- B of P, picks a Q rule
    # q_b for each b in B, and then one R rule r_m for each atom m of the
    # middle body, the union of the q_b's bodies.  The right side can pick
    # the same q_b and, under each of them, the same r_m for every m of
    # q_b's body, which gives the same rule.  The converse fails because
    # the right side may pick different R rules for an atom that two q_b
    # share (test_associativity_refuted).
    rng = random.Random(86)
    differ = 0
    for _ in range(600):
        p, q, r = random_two_level_triple(rng)
        left = compose(compose(p, q), r)
        right = compose(p, compose(q, r))
        assert frozenset(left) <= frozenset(right), (p, q, r)
        differ += left != right
    assert differ > 200


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

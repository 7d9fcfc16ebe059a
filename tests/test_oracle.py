"""Differential tests of ``compose``, ``gnd``, ``least_model``, ``tp`` and
the certificates of ``search_reduction`` against the benchmark's independent reference (the ``reference`` fixture
in conftest)."""

import random

from seqhorn import (
    Atom,
    Compound,
    Const,
    Program,
    SearchBounds,
    Var,
    certificate_to_text,
    compose,
    gnd,
    interpretation,
    least_model,
    make_rule,
    parse_program,
    program_to_text,
    search_reduction,
    signature_of,
    tp,
)
from conftest import (
    assert_reference_compose,
    random_fo_atom,
    random_fo_program,
    random_prop_program,
)


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


def _ground_rules(reference, p: Program) -> set:
    return reference.as_ground(reference.parse_rules(program_to_text(p)))


def _heads(reference, atoms) -> set:
    return {h for h, _ in _ground_rules(reference, interpretation(atoms))}


def _agree_ground(reference, p: Program, i: Program, depth: int) -> None:
    """The grounding of ``p`` and its least model match the reference, and so
    does ``tp`` of the facts ``i`` on the grounding that spans their symbols
    too, as ``seqhorn tp`` grounds it."""
    rules = reference.parse_rules(program_to_text(p))
    i_atoms = [r.head for r in i]
    grounded = gnd(p, signature_of(p), depth)
    want = reference.ground(rules, depth)
    context = f"P:\n{program_to_text(p)}I:\n{program_to_text(i)}"
    assert _ground_rules(reference, grounded) == want, context
    assert _heads(reference, least_model(grounded)) == reference.least_model(want), context
    ref_i = _heads(reference, i_atoms)
    want_tp = reference.tp(reference.ground(rules, depth, ref_i), ref_i)
    assert _heads(reference, tp(gnd(p, signature_of(p, i), depth), i_atoms)) == want_tp, context


def test_ground_function_free(reference):
    # The facts may hold a constant the program lacks, which widens the
    # ground universe tp works on.
    rng = random.Random(63)
    for _ in range(300):
        i = Program(make_rule(random_fo_atom(rng, ground=True)) for _ in range(rng.randint(0, 4)))
        if rng.random() < 0.3:
            i = i | parse_program("q(c).")
        _agree_ground(reference, random_fo_program(rng, max_rules=5), i, 0)


def test_ground_depth_one_function_symbol(reference):
    # nat-like programs over a, b and f/1: depth 1 adds f(a) and f(b).  The
    # fact p(a) keeps a constant in every signature that has f.
    rng = random.Random(64)
    X, a = Var("X"), Const("a")
    preds = (("p", 1), ("r", 2))

    def program(pool):
        def atom():
            pred, arity = rng.choice(preds)
            return Atom(pred, tuple(rng.choice(pool) for _ in range(arity)))

        return Program(make_rule(atom(), [atom() for _ in range(rng.randint(0, 2))])
                       for _ in range(rng.randint(1, 4)))

    for _ in range(60):
        p = program((a, Const("b"), X, Var("Y"), Compound("f", (X,))))
        p = p | parse_program("p(a).")
        i = parse_program("p(f(a)).\nr(b, f(b)).") if rng.random() < 0.5 else Program()
        _agree_ground(reference, p, i, 1)
    # Depths 2 and 3 over a, f/1 and g/2, whose universes hold 13 and 183
    # terms; one variable per rule keeps each grounding small.
    pool = (a, X, Compound("f", (X,)), Compound("g", (X, a)), Compound("g", (a, X)))
    for depth, samples in ((2, 10), (3, 4)):
        for _ in range(samples):
            p = program(pool) | parse_program("p(g(f(a), a)).")
            i = Program()
            if rng.random() < 0.5:
                i = parse_program("p(f(f(a))).\nr(a, g(a, f(a))).")
            _agree_ground(reference, p, i, depth)


def test_search_certificates_compose_to_the_target(reference, counting_clock):
    # Search returns the certificate its assembly built without composing
    # it.  The reference reads each one found on pairs not planted, over 4
    # to 6 atoms on a budget of 50 checks, and composes it on its own sets.
    rng = random.Random(65)
    found = 0
    for _ in range(320):
        universe = tuple(Atom(c) for c in "abcdef"[:rng.randint(4, 6)])
        p, r = random_prop_program(rng, universe), random_prop_program(rng, universe)
        result = search_reduction(p, r, SearchBounds(time_budget=50))
        if result.found:
            cert = reference.parse_certificate(certificate_to_text(result.certificate))
            context = certificate_to_text(result.certificate)
            assert cert["TARGET"] == _ground_rules(reference, p), context
            assert cert["BASE"] == _ground_rules(reference, r), context
            composed = reference.prop_compose(
                reference.prop_compose(cert["PREFIX"], cert["BASE"]), cert["SUFFIX"])
            assert composed == cert["TARGET"], context
            found += 1
    assert found > 100, found

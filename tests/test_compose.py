"""The sequential composition operator."""

import random
import sys

import pytest

from seqhorn import (
    CompositionBudgetError,
    Program,
    compose,
    compose_ground,
    facts,
    interpretation,
    parse_program,
    signature_of,
    unit_program,
    width,
)
from conftest import (
    PROP_ATOMS,
    assert_reference_compose,
    random_fo_program,
    random_interpretation,
    random_prop_program,
)


class TestWorkedExamples:
    def test_even_from_nat(self):
        step = parse_program("nat(s(X)) :- nat(X).")
        assert compose(step, step) == parse_program("nat(s(s(X))) :- nat(X).")

    def test_left_distributivity_fails(self):
        p = parse_program("a :- b, c.")
        assert compose(p, parse_program("b.\nc.")) == parse_program("a.")
        assert compose(p, parse_program("b.")) | compose(p, parse_program("c.")) == Program()

    def test_bound_variable_loss(self):
        left = compose(parse_program("p(X,Y) :- p(X)."), parse_program("p(X) :- p(X)."))
        out = compose(left, parse_program("p(X) :- p(X,Y)."))
        assert out == parse_program("p(X,Y) :- p(X,Z).")

    def test_append_is_bridged_plus(self, plus, append, q_plus_append, s_plus_append):
        assert compose(compose(q_plus_append, plus), s_plus_append) == append

    def test_member_is_bridged_append(self, member, append, q_member_append,
                                      s_member_append):
        assert compose(compose(q_member_append, append), s_member_append) == member

    def test_empty_right_keeps_facts(self):
        p = parse_program("a.\nb :- a.")
        assert compose(p, Program()) == facts(p)

    def test_empty_left_zero(self):
        assert compose(Program(), parse_program("a.\nb :- a.")) == Program()

    def test_interpretation_absorbs(self):
        i = interpretation((PROP_ATOMS[0], PROP_ATOMS[1]))
        rng = random.Random(9)
        for _ in range(50):
            assert compose(i, random_prop_program(rng)) == i

    def test_swap_absorbed_by_collapsed(self):
        pi = parse_program("a :- b.\nb :- a.")
        r = parse_program("a :- b.\nb :- b.")
        assert compose(pi, r) == r
        assert compose(pi, pi) == parse_program("a :- a.\nb :- b.")


class TestAlgebraicLaws:
    def test_right_distributivity_propositional(self):
        rng = random.Random(10)
        for _ in range(150):
            p, q, r = (random_prop_program(rng) for _ in range(3))
            assert compose(p | q, r) == compose(p, r) | compose(q, r)

    def test_right_distributivity_nonground(self):
        rng = random.Random(11)
        for _ in range(100):
            p, q, r = (random_fo_program(rng, max_rules=3) for _ in range(3))
            assert compose(p | q, r) == compose(p, r) | compose(q, r)

    def test_union_decomposition(self):
        rng = random.Random(12)
        for _ in range(80):
            p = random_fo_program(rng, max_rules=3)
            r = random_fo_program(rng, max_rules=3)
            whole = compose(p, r)
            parts = Program()
            for rule in p:
                parts = parts | compose(Program([rule]), r)
            assert whole == parts

    def test_facts_preserved(self):
        rng = random.Random(13)
        for _ in range(80):
            p = random_prop_program(rng)
            r = random_prop_program(rng)
            assert frozenset(facts(p)) <= frozenset(facts(compose(p, r)))

    def test_unit_neutrality(self):
        rng = random.Random(14)
        for _ in range(60):
            p = random_fo_program(rng)
            one = unit_program(signature_of(p))
            assert compose(p, one) == p
            assert compose(one, p) == p

    def test_width_never_increases(self):
        rng = random.Random(15)
        for _ in range(100):
            p = random_fo_program(rng, max_rules=3)
            r = random_fo_program(rng, max_rules=3)
            assert width(compose(p, r)) <= min(width(p), width(r))

    def test_insensitive_to_rule_order(self):
        rng = random.Random(19)
        for _ in range(60):
            p = random_fo_program(rng, max_rules=4)
            r = random_fo_program(rng, max_rules=4)
            p_rev = Program(reversed(p.rules))
            r_rev = Program(reversed(r.rules))
            assert compose(p_rev, r_rev) == compose(p, r)


class TestCanonicalizeOnce:
    def test_one_canonicalize_per_emitted_rule(self, monkeypatch):
        import sys

        import seqhorn.programs

        left = parse_program("p(X) :- q(X, Y), q(Y, Z).\nf(a).")
        right = parse_program("q(a, b).\nq(b, c).\nq(X, X).")
        calls = []
        original = seqhorn.programs.canonicalize

        def counting(rule):
            calls.append(rule)
            return original(rule)

        monkeypatch.setattr(sys.modules["seqhorn.compose"], "canonicalize", counting)
        monkeypatch.setattr(seqhorn.programs, "canonicalize", counting)
        out = compose(left, right)
        # 6 of the 9 assignments unify, giving p(a) three times, p(b) twice
        # and p(X); the fact f(a) passes through as it is
        assert len(calls) == 6
        assert out == parse_program("p(a).\np(b).\np(X).\nf(a).")


class TestGroundFastPath:
    """``compose_ground`` on ground programs, checked against the reference's
    general composer."""

    def test_single_chain(self):
        assert compose_ground(
            parse_program("a :- b."), parse_program("b :- c, d.")
        ) == parse_program("a :- c, d.")

    def test_matches_general_composer(self, reference):
        rng = random.Random(16)
        for _ in range(1000):
            p = random_prop_program(rng)
            r = random_prop_program(rng)
            assert_reference_compose(reference, compose_ground(p, r), p, r)

    def test_matches_on_structured_ground(self, reference):
        rng = random.Random(17)
        for _ in range(200):
            p = random_fo_program(rng, ground=True)
            r = random_fo_program(rng, ground=True)
            assert_reference_compose(reference, compose_ground(p, r), p, r)

    def test_rejects_nonground(self):
        with pytest.raises(ValueError):
            compose_ground(parse_program("p(X)."), Program())


def _set_cap(monkeypatch, cap):
    # ``seqhorn.compose`` is the re-exported function, so look the module up.
    monkeypatch.setattr(sys.modules["seqhorn.compose"], "_ASSIGNMENT_CAP", cap)


class TestResourceGuard:
    def test_assignment_cap(self, monkeypatch):
        p = parse_program("a :- b, c.")
        r = parse_program("b.\nc.\nb :- c.\nc :- b.")
        _set_cap(monkeypatch, 3)
        with pytest.raises(CompositionBudgetError):
            compose(p, r)

    @pytest.mark.parametrize("left, right, tries", [
        # q(a) has no candidate after p(a); q(b) has one after p(b)
        ("h :- p(X), q(X).", "p(a).\np(b).\nq(b).\nq(c).", 3),
        # q(c, b) has one candidate and clashes with it, so no p is tried
        ("h :- p(X), p(Y), q(c, b).", "".join(f"p(c{i}).\n" for i in range(30)) + "q(c, a).",
         1),
        # one candidate for each of 500 body atoms
        ("a :- " + ", ".join(f"p{i}" for i in range(500)) + ".",
         "".join(f"p{i}.\n" for i in range(500)), 500),
    ], ids=["two-clashes", "forced-clash", "wide-500"])
    def test_cap_counts_candidate_tries(self, monkeypatch, left, right, tries):
        p, r = parse_program(left), parse_program(right)
        uncapped = compose(p, r)
        _set_cap(monkeypatch, tries)
        assert compose(p, r) == uncapped
        _set_cap(monkeypatch, tries - 1)
        with pytest.raises(CompositionBudgetError):
            compose(p, r)

    @pytest.mark.parametrize("unrelated", [30, 40])
    def test_unrelated_rules_cost_nothing(self, monkeypatch, unrelated):
        # |R|^4 total assignments (2.8 million at 40 unrelated facts), but
        # only one candidate per body atom
        p = parse_program("h :- p(X), p(Y), p(Z), p(W).")
        r = parse_program("".join(f"q{i}(c{i}).\n" for i in range(unrelated)) + "p(a).")
        _set_cap(monkeypatch, 4)
        assert compose(p, r) == parse_program("h.")

    def test_wide_body_is_not_recursive(self):
        n = 2000
        p = parse_program("a(X) :- " + ", ".join(f"p{i}(X)" for i in range(n)) + ".")
        r = parse_program("".join(f"p{i}(Y) :- q(Y).\n" for i in range(n)))
        assert compose(p, r) == parse_program("a(X) :- q(X).")

    def test_tp_simulation(self):
        rng = random.Random(18)
        from seqhorn import tp

        for _ in range(200):
            p = random_prop_program(rng)
            i = random_interpretation(rng)
            composed = compose_ground(p, interpretation(i))
            assert composed == interpretation(tp(p, i))

"""Entailment, consequence operator, least models."""

import random
from itertools import chain, combinations

import pytest

from seqhorn import (
    Atom,
    Program,
    Var,
    entails,
    least_model,
    logically_equivalent,
    parse_program,
    tp,
)
from conftest import PROP_ATOMS, random_interpretation, random_prop_program


def atoms(*names):
    return frozenset(Atom(n) for n in names)


class TestEntails:
    def test_atom(self):
        assert entails(atoms("a"), Atom("a"))
        assert not entails(atoms("a"), Atom("b"))

    def test_atom_set(self):
        assert entails(atoms("a", "b"), atoms("a"))
        assert not entails(atoms("a"), atoms("a", "b"))

    def test_rule(self):
        (rule,) = parse_program("a :- b.").rules
        assert not entails(atoms("b"), rule)
        assert entails(atoms("a", "b"), rule)
        assert entails(atoms(), rule)  # body unsatisfied

    def test_fact_free_program_vacuous(self):
        p = parse_program("a :- b.\nc :- d, e.")
        assert entails(frozenset(), p)

    def test_rejects_nonground(self):
        p = parse_program("p(X) :- q(X).")
        with pytest.raises(ValueError):
            entails(frozenset(), p)

    def test_prefixed_point_characterization(self):
        rng = random.Random(21)
        for _ in range(300):
            p = random_prop_program(rng)
            i = random_interpretation(rng)
            assert entails(i, p) == (tp(p, i) <= i)


class TestTp:
    def test_fact_fires(self):
        p = parse_program("a.\nb :- a.")
        assert tp(p, frozenset()) == atoms("a")
        assert tp(p, atoms("a")) == atoms("a", "b")

    def test_empty_program(self):
        assert tp(Program(), atoms("a")) == frozenset()

    def test_rejects_nonground(self):
        with pytest.raises(ValueError):
            tp(parse_program("p(X)."), frozenset())

    def test_rejects_nonground_interpretation(self):
        # q(X) is no ground atom, so it cannot stand for its instances
        p = parse_program("r(a) :- q(a).")
        with pytest.raises(ValueError):
            tp(p, frozenset({Atom("q", (Var("X"),))}))


def _all_subsets(universe):
    return chain.from_iterable(combinations(universe, k) for k in range(len(universe) + 1))


class TestLeastModel:
    def test_two_step(self):
        p = parse_program("a.\nb :- a.\nc :- d.")
        assert least_model(p) == atoms("a", "b")

    def test_empty(self):
        assert least_model(Program()) == frozenset()

    def test_self_loop_is_empty(self):
        assert least_model(parse_program("a :- a.")) == frozenset()

    def test_groundness_checked_once(self, monkeypatch):
        # a 20-rule chain takes 21 rounds; only the first pays a scan
        p = parse_program("a0.\n" + "".join(f"a{i + 1} :- a{i}.\n" for i in range(20)))
        checks = []
        is_ground = Program.is_ground.fget
        monkeypatch.setattr(Program, "is_ground",
                            property(lambda self: checks.append(1) or is_ground(self)))
        assert least_model(p) == atoms(*(f"a{i}" for i in range(21)))
        assert len(checks) == 1

    def test_minimality_by_exhaustive_model_search(self):
        rng = random.Random(22)
        for _ in range(120):
            p = random_prop_program(rng)
            lm = least_model(p)
            assert entails(lm, p)
            for subset in _all_subsets(PROP_ATOMS):
                i = frozenset(subset)
                if entails(i, p):
                    assert lm <= i


class TestLogicalEquivalence:
    def test_empty_vs_self_loop(self):
        assert logically_equivalent(Program(), parse_program("a :- a."))

    def test_body_extension_changes_model(self):
        p = parse_program("a.\nb :- a.")
        r = parse_program("a.\nb :- a, b.")
        assert not logically_equivalent(p, r)
        assert least_model(p) == atoms("a", "b")
        assert least_model(r) == atoms("a")

    def test_reflexive(self):
        p = parse_program("a.\nb :- a.")
        assert logically_equivalent(p, p)

"""Entailment, consequence operator, least models."""

import random
from itertools import chain, combinations

import pytest

import seqhorn.programs
from seqhorn import (
    Atom,
    Program,
    Signature,
    Var,
    entails,
    gnd,
    least_model,
    logically_equivalent,
    parse_program,
    signature_of,
    tp,
)
from conftest import PROP_ATOMS, random_fo_program, random_interpretation, random_prop_program


def atoms(*names):
    return frozenset(Atom(n) for n in names)


def reversed_chain(n):
    """a0 and a(i+1) :- a(i) for i < n, the rules listed last first."""
    return parse_program("".join(f"a{i + 1} :- a{i}.\n" for i in reversed(range(n))) + "a0.\n")


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

    def test_interpretation_groundness_checked_once(self, monkeypatch):
        # each atom of the model and of the program is checked once
        p = reversed_chain(200)
        m = least_model(p)
        checks = []
        is_ground = seqhorn.programs.atom_is_ground
        monkeypatch.setattr(seqhorn.programs, "atom_is_ground",
                            lambda a: checks.append(a) or is_ground(a))
        assert entails(m, p)
        assert len(checks) == len(m) + sum(1 + len(r.body) for r in p)


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

    def test_linear_work_on_reversed_chain(self, monkeypatch):
        # naive iteration of tp from the empty set takes n rounds of n rules
        p = reversed_chain(2000)
        size = sum(1 + len(r.body) for r in p)
        hashes = []
        atom_hash = Atom.__hash__
        monkeypatch.setattr(Atom, "__hash__", lambda a: hashes.append(1) or atom_hash(a))
        m = least_model(p)
        monkeypatch.undo()
        assert m == atoms(*(f"a{i}" for i in range(2001)))
        assert len(hashes) <= 4 * size

    @pytest.mark.parametrize("text, model", [
        ("b :- a.\nc :- b.\nd :- c.\na.", "abcd"),  # a chain listed last first
        ("a.\nb :- a, b.\nc :- a, c.\nc.", "ac"),  # bodies holding their own heads
        ("a.\nb :- a, a.\nc :- b, a, b.", "abc"),  # repeated body atoms
    ])
    def test_pinned(self, text, model):
        assert least_model(parse_program(text)) == atoms(*model)

    def test_matches_naive_tp(self):
        def naive(p):
            i = frozenset()
            while (nxt := tp(p, i)) != i:
                i = nxt
            return i

        rng = random.Random(23)
        f = Signature(frozenset(), frozenset({("f", 1)}), frozenset())
        for _ in range(300):
            p = random_prop_program(rng)
            assert least_model(p) == naive(p)
            q = random_fo_program(rng)
            for d in (0, 1):
                g = gnd(q, signature_of(q, extra_constants=("a",)) | f, d)
                assert least_model(g) == naive(g)

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

"""Structural program operators: duals, widths, groundings, reducts."""

import random
from itertools import product

import pytest

from seqhorn import (
    Atom,
    Compound,
    Const,
    GroundingBudgetError,
    Program,
    Rule,
    Signature,
    Var,
    body_minus,
    body_of,
    body_plus,
    canonicalize,
    compose,
    compose_ground,
    dual,
    facts,
    gnd,
    head_of,
    herbrand_base,
    interpretation,
    left_reduct,
    parse_program,
    proper,
    right_reduct,
    signature_of,
    unit_program,
    unit_restricted,
    width,
)
from seqhorn.programs import herbrand_terms, program_atoms, rule_vars, subst_rule
from conftest import PROP_ATOMS, random_fo_program, random_prop_program, random_interpretation


def atoms(*names: str) -> frozenset[Atom]:
    return frozenset(Atom(n) for n in names)


class TestHeadBodyFactsProper:
    def test_nat_split(self, nat):
        assert facts(nat) == parse_program("nat(0).")
        assert proper(nat) == parse_program("nat(s(X)) :- nat(X).")

    def test_empty(self):
        assert head_of(Program()) == frozenset()

    def test_body(self):
        p = parse_program("a :- b, c.")
        assert body_of(p) == atoms("b", "c")


class TestConstruction:
    def test_body_order_and_repeats_do_not_matter(self):
        p = parse_program("p(X) :- r(X), q(X), r(X).")
        assert p == parse_program("p(Y) :- q(Y), r(Y).")
        assert p.rules == parse_program("p(X) :- q(X), r(X).").rules

    def test_each_rule_hashed_once(self, monkeypatch):
        rules = [Rule(Atom("p", (Const(f"c{i}"),)), (Atom("q"),)) for i in range(100)]
        calls = []
        rule_hash = Rule.__hash__

        def counted(r):
            calls.append(r)
            return rule_hash(r)

        monkeypatch.setattr(Rule, "__hash__", counted)
        p = Program._of_canonical(rules)
        assert len(calls) == 100
        assert p.rules == tuple(rules)

    def test_not_equal_to_other_values(self):
        assert (Program() == 1) is False
        assert Program() != frozenset() and Program() != ()


    def test_canonical_rules_not_canonicalized_again(self, monkeypatch):
        # Subsets and unions of programs' rules, ground facts and units, and
        # the unit program's rules are canonical as built.
        import seqhorn.programs

        rng = random.Random(42)
        cases = []
        for _ in range(200):
            p, q = random_fo_program(rng), random_fo_program(rng)
            g = random_fo_program(rng, ground=True)
            cases.append((p, q, g, program_atoms(g), signature_of(p, q)))
        for _ in range(200):
            p, q = random_prop_program(rng), random_prop_program(rng)
            cases.append((p, q, p, random_interpretation(rng), signature_of(p, q)))
        calls = []
        canonical = seqhorn.programs.canonicalize
        monkeypatch.setattr(seqhorn.programs, "canonicalize",
                            lambda r: calls.append(r) or canonical(r))
        results = []
        for p, q, g, i, sig in cases:
            results += [p | q, facts(p), proper(p), left_reduct(g, i), right_reduct(g, i),
                        interpretation(i), unit_restricted(i), unit_program(sig)]
        assert calls == []
        monkeypatch.undo()
        for result in results:
            assert Program(result.rules).rules == result.rules

    def test_variable_free_rules_not_renamed(self, monkeypatch):
        # Canonicalizing this chain rule by rule as if it had variables
        # called _rename_first_occurrence 401 and atom_var_order 801 times.
        import seqhorn.programs

        calls = []
        for name in ("_rename_first_occurrence", "atom_var_order"):
            def counting(*args, name=name, f=getattr(seqhorn.programs, name)):
                calls.append(name)
                return f(*args)
            monkeypatch.setattr(seqhorn.programs, name, counting)
        p = parse_program("c(n0).\n" + "".join(f"c(n{i + 1}) :- c(n{i}).\n" for i in range(400)))
        assert calls == []
        assert len(p) == 401 and p.rules[1] == Rule(Atom("c", (Const("n1"),)),
                                                    (Atom("c", (Const("n0"),)),))


class TestDual:
    def test_single_rule(self):
        assert dual(parse_program("a :- b, c.")) == parse_program("b :- a.\nc :- a.")

    def test_plus_append_bridge(self, plus, append, q_plus_append, s_plus_append):
        dq = dual(q_plus_append)
        expected = parse_program(
            "plus(0,Y,Y) :- append([],Y,Y).\n"
            "plus(s(X),Y,s(Z)) :- append([U|X],Y,[V|Z])."
        )
        assert dq == expected
        assert compose(compose(dq, append), dual(s_plus_append)) == plus

    def test_interpretation_fixed(self):
        i = interpretation(atoms("a", "b"))
        assert dual(i) == i

    def test_involution_on_singleton_bodies(self):
        p = parse_program("a :- b.\nc :- d.\ne.")
        assert dual(dual(p)) == p


class TestWidth:
    def test_member(self, member):
        assert width(member) == 2

    def test_append(self, append):
        assert width(append) == 3

    def test_ground_program(self):
        assert width(parse_program("a :- b.\nc.")) == 0


class TestHerbrandBase:
    def _sig(self):
        return Signature(
            predicates=frozenset({("nat", 1)}),
            functions=frozenset({("s", 1)}),
            constants=frozenset({"0"}),
        )

    def test_depth_zero(self):
        assert herbrand_base(self._sig(), 0) == frozenset({parse_program("nat(0).").rules[0].head})

    def test_depth_two(self):
        hb = herbrand_base(self._sig(), 2)
        expected = parse_program("nat(0).\nnat(s(0)).\nnat(s(s(0))).")
        assert hb == head_of(expected)

    def test_function_free_depth_irrelevant(self):
        sig = Signature(frozenset({("p", 1)}), frozenset(), frozenset({"a"}))
        assert herbrand_base(sig, 0) == herbrand_base(sig, 3)

    def test_negative_depth(self):
        with pytest.raises(ValueError, match="depth"):
            herbrand_terms(self._sig(), -1)

    def test_propositional_predicate(self):
        sig = Signature(frozenset({("e", 0), ("p", 1)}), frozenset(), frozenset({"a"}))
        assert herbrand_base(sig, 1) == {Atom("e"), Atom("p", (Const("a"),))}

    def test_error_without_constants(self):
        sig = Signature(frozenset({("p", 1)}), frozenset({("f", 1)}), frozenset())
        with pytest.raises(ValueError):
            herbrand_base(sig, 1)

    def test_monotone_in_depth(self):
        for d in range(3):
            assert herbrand_base(self._sig(), d) <= herbrand_base(self._sig(), d + 1)

    def test_each_term_built_once(self, monkeypatch):
        # Building each level from all the terms before it built 2,001,000
        # compounds for these 2,000.
        import seqhorn.programs

        built = []
        compound = seqhorn.programs.Compound

        def counting(functor, args):
            built.append(functor)
            return compound(functor, args)

        monkeypatch.setattr(seqhorn.programs, "Compound", counting)
        terms = herbrand_terms(self._sig(), 2000)
        assert len(terms) == 2001
        assert len(built) == 2000
        assert terms[:3] == [Const("0"), compound("s", (Const("0"),)),
                             compound("s", (compound("s", (Const("0"),)),))]


class TestGnd:
    def test_two_constants(self):
        p = parse_program("p(X) :- q(X).")
        sig = signature_of(p, extra_constants=("a", "b"))
        assert gnd(p, sig, 0) == parse_program("p(a) :- q(a).\np(b) :- q(b).")

    def test_ground_fixpoint(self):
        p = parse_program("a :- b.\nc.")
        assert gnd(p, signature_of(p), 0) == p

    def test_nat_depth_two(self, nat):
        got = gnd(nat, signature_of(nat), 2)
        expected = parse_program(
            "nat(0).\n"
            "nat(s(0)) :- nat(0).\n"
            "nat(s(s(0))) :- nat(s(0)).\n"
            "nat(s(s(s(0)))) :- nat(s(s(0)))."
        )
        assert got == expected

    def test_emits_canonical_rules(self):
        # gnd keeps the instances it builds from variable positions, unchecked
        rng = random.Random(41)
        f = Signature(frozenset(), frozenset({("f", 1)}), frozenset())
        for _ in range(150):
            p = random_fo_program(rng)
            for d in (0, 1):
                g = gnd(p, signature_of(p, extra_constants=("a",)) | f, d)
                for r in g:
                    c = canonicalize(r)
                    assert c == r and c.body == r.body
                assert tuple(g) == Program(g.rules).rules
                assert g == Program(list(g))

    @staticmethod
    def _substituted(p, sig, depth):
        """The grounding as substitution builds it: ``subst_rule`` binds each
        rule's variables to every tuple of universe terms."""
        terms = herbrand_terms(sig, depth)
        return Program._of_canonical(
            subst_rule(r, dict(zip(names, combo)))
            for r in p for names in [sorted(rule_vars(r))]
            for combo in product(terms, repeat=len(names)))

    @staticmethod
    def _random_program(rng):
        """Rules over p/0, q/1, q/2 and r/2 whose arguments are X, Y, Z, a,
        b and f(...) of those: head-only and repeated variables, constants
        in bodies and atoms that coincide under an instance all occur."""
        def term(nest):
            x = rng.random()
            if nest and x < 0.25:
                return Compound("f", (term(nest - 1),))
            return Var(rng.choice("XYZ")) if x < 0.7 else Const(rng.choice("ab"))

        def atom():
            pred, n = rng.choice((("p", 0), ("q", 1), ("q", 2), ("r", 2)))
            return Atom(pred, tuple(term(1) for _ in range(n)))

        return Program(Rule(atom(), tuple(atom() for _ in range(rng.randint(0, 3))))
                       for _ in range(rng.randint(1, 3)))

    def test_matches_substitution(self):
        rng = random.Random(27)
        f = Signature(frozenset(), frozenset({("f", 1)}), frozenset())
        fixed = [parse_program(text) for text in (
            "p :- q(X), q(Y).", "p(X) :- q(X), q(a).", "r(X, Y) :- r(Y, X), r(X, X).",
            "q(f(X)) :- q(X), q(f(a)), p.", "r(X, Z) :- q(X).")]
        for i in range(330):
            p = fixed[i] if i < len(fixed) else self._random_program(rng)
            sig = signature_of(p, extra_constants=("a",)) | f
            assert gnd(p, sig, i % 3).rules == self._substituted(p, sig, i % 3).rules, p

    def test_instances_built_from_variable_positions(self, monkeypatch):
        # Substituting and sorting each instance atom by atom called
        # subst_atom 3,072 and atom_key 2,016 times here.
        import seqhorn.programs

        p = parse_program("r(X,Y) :- e(X,Y), e(Y,X).")
        sig = signature_of(p, extra_constants=[f"c{i}" for i in range(32)])
        calls = dict.fromkeys(("subst_atom", "atom_key", "term_key"), 0)
        for name in calls:
            def counting(*args, name=name, f=getattr(seqhorn.programs, name)):
                calls[name] += 1
                return f(*args)
            monkeypatch.setattr(seqhorn.programs, name, counting)
        assert len(gnd(p, sig)) == 32 * 32
        assert calls["subst_atom"] == calls["atom_key"] == 0
        # the universe is sorted by term_key, and each term keyed once more
        assert calls["term_key"] <= 2 * 32


class TestGroundingCap:
    @pytest.fixture
    def set_cap(self, monkeypatch):
        import seqhorn.programs

        return lambda cap: monkeypatch.setattr(seqhorn.programs, "_GROUND_CAP", cap)

    def test_counts_instances(self, set_cap):
        # 3 * 3 instances of the rule, and one of each fact
        p = parse_program("p(X, Y) :- q(X), q(Y).\nq(a).\nq(b).\nq(c).")
        set_cap(12)
        assert len(gnd(p)) == 12
        set_cap(11)
        with pytest.raises(GroundingBudgetError, match="grounding"):
            gnd(p)

    def test_counts_terms_per_level(self, set_cap):
        # depth 1 builds f(a,a) and depth 2 the 2 * 2 terms over {a, f(a,a)}
        p = parse_program("p(f(a, a)).")
        set_cap(4)
        assert len(herbrand_terms(signature_of(p), 2)) == 5
        set_cap(3)
        with pytest.raises(GroundingBudgetError, match="grounding"):
            herbrand_terms(signature_of(p), 2)


class TestUnitProgram:
    def test_unary_predicate(self):
        sig = Signature(frozenset({("p", 1)}), frozenset(), frozenset())
        assert unit_program(sig) == parse_program("p(V1) :- p(V1).")

    def test_empty_signature(self):
        assert unit_program(Signature(frozenset(), frozenset(), frozenset())) == Program()

    def test_neutrality_random(self):
        rng = random.Random(3)
        from conftest import random_fo_program

        for _ in range(60):
            p = random_fo_program(rng)
            one = unit_program(signature_of(p))
            assert compose(p, one) == p
            assert compose(one, p) == p


class TestUnitRestricted:
    def test_two_atoms(self):
        assert unit_restricted(atoms("a", "b")) == parse_program("a :- a.\nb :- b.")

    def test_empty(self):
        assert unit_restricted(frozenset()) == Program()

    def test_left_reduct_via_composition(self):
        rng = random.Random(4)
        for _ in range(80):
            p = random_prop_program(rng)
            i = random_interpretation(rng)
            assert compose(unit_restricted(i), p) == left_reduct(p, i)
            assert compose(p, unit_restricted(i)) == right_reduct(p, i)


class TestBodyMinus:
    def test_removes_from_bodies(self):
        p = parse_program("a.\nb :- a, b.")
        hb = atoms("a", "b")
        assert compose(p, body_minus(atoms("b"), hb)) == parse_program("a.\nb :- a.")

    def test_remove_nothing(self):
        p = parse_program("a.\nb :- a.")
        assert compose(p, body_minus(frozenset(), atoms("a", "b"))) == p

    def test_swap_example(self):
        p = parse_program("c.\na :- b, c.\nb :- a, c.")
        hb = atoms("a", "b", "c")
        mid = compose(unit_restricted(atoms("a", "b")), p)
        assert compose(mid, body_minus(atoms("c"), hb)) == parse_program("a :- b.\nb :- a.")

    def test_subset_check(self):
        with pytest.raises(ValueError):
            body_minus(atoms("z"), atoms("a"))

    def test_atoms_outside_base_printed_as_text(self):
        deep = "s(" * 5000 + "0" + ")" * 5000
        (fact,) = parse_program(f"p({deep}).")
        with pytest.raises(ValueError) as err:
            body_minus(atoms("z") | {fact.head}, atoms("a"))
        assert str(err.value) == f"atoms outside the Herbrand base: p({deep}), z"


class TestBodyPlus:
    def test_adds_to_proper_bodies(self):
        p = parse_program("a.\nb :- a.")
        hb = atoms("a", "b")
        assert compose(p, body_plus(atoms("b"), hb)) == parse_program("a.\nb :- a, b.")

    def test_add_nothing(self):
        p = parse_program("a.\nb :- a.")
        assert compose(p, body_plus(frozenset(), atoms("a", "b"))) == p

    def test_insert_then_delete_when_disjoint(self):
        # adding atoms disjoint from the bodies and deleting them restores P
        p = parse_program("a.\nb :- a.")
        hb = atoms("a", "b", "c")
        i = atoms("c")
        extended = compose(p, body_plus(i, hb))
        assert compose(extended, body_minus(i, hb)) == p


class TestReducts:
    def test_left(self):
        p = parse_program("a :- b.\nc :- d.")
        assert left_reduct(p, atoms("a")) == parse_program("a :- b.")

    def test_right(self):
        p = parse_program("a :- b.\nc :- d.")
        assert right_reduct(p, atoms("b")) == parse_program("a :- b.")

    def test_ground_required(self):
        p = parse_program("p(X) :- q(X).")
        with pytest.raises(ValueError):
            left_reduct(p, frozenset())


class TestGroundIdentities:
    def test_heads_and_bodies_via_composition(self):
        rng = random.Random(5)
        hb = interpretation(PROP_ATOMS)
        for _ in range(100):
            p = random_prop_program(rng)
            assert compose(p, hb) == interpretation(head_of(p))
            assert compose(dual(proper(p)), hb) == interpretation(body_of(p))

    def test_head_body_shrink_under_composition(self):
        rng = random.Random(6)
        for _ in range(100):
            p = random_prop_program(rng)
            r = random_prop_program(rng)
            pr = compose_ground(p, r)
            assert head_of(pr) <= head_of(p)
            assert body_of(pr) <= body_of(r)

    def test_grounding_via_unit_sandwich(self):
        rng = random.Random(7)
        from conftest import random_fo_program

        for _ in range(60):
            p = random_fo_program(rng)
            sig = signature_of(p, extra_constants=("a", "b"))
            gu = gnd(unit_program(sig), sig, 0)
            assert gnd(p, sig, 0) == compose(compose(gu, p), gu)

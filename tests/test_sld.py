"""SLD resolution and translated derivations."""

import random
import sys

import pytest

from seqhorn import (
    Program,
    Query,
    ReductionCertificate,
    compose,
    gnd,
    least_model,
    parse_program,
    parse_query,
    render_derivation,
    resolve,
    signature_of,
    sld,
    translated_sld,
    unit_program,
    verify,
)
from seqhorn.sld import DEPTH_EXCEEDED, FAILED, REFUTATION, macro_step_count
from seqhorn.syntax import goals_to_text, rule_to_text
from seqhorn.terms import atom_key, subst_atom, unify
from conftest import (
    FIXTURES,
    random_interpretation,
    random_prop_program,
)


class TestResolve:
    def test_plus_step(self, plus):
        q = parse_query("?- plus(s([]),[b,c],s([b,c])).")
        rule = plus.rules[1]  # plus(s(X),Y,s(Z)) :- plus(X,Y,Z)
        out = resolve(q, rule)
        assert out is not None
        resolvent, _ = out
        assert resolvent == parse_query("?- plus([],[b,c],[b,c]).")

    def test_fact_closes_goal(self):
        out = resolve(parse_query("?- a."), parse_program("a.").rules[0])
        assert out is not None
        assert out[0].is_empty

    def test_mismatch(self):
        assert resolve(parse_query("?- a."), parse_program("b :- c.").rules[0]) is None

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            resolve(Query(), parse_program("a.").rules[0])


class TestSld:
    def test_append_two_steps(self, append):
        d = sld(append, parse_query("?- append([a],[b,c],[a,b,c])."))
        assert d.outcome == REFUTATION
        assert len(d.steps) == 2

    def test_nat(self, nat):
        d = sld(nat, parse_query("?- nat(s(0))."))
        assert d.outcome == REFUTATION
        assert len(d.steps) == 2

    def test_self_loop_exceeds_depth(self):
        d = sld(parse_program("a :- a."), parse_query("?- a."), depth_limit=50)
        assert d.outcome == DEPTH_EXCEEDED

    def test_failure_is_reported(self):
        d = sld(parse_program("a."), parse_query("?- b."))
        assert d.outcome == FAILED

    def test_multi_goal_query(self, nat):
        d = sld(nat, parse_query("?- nat(s(0)), nat(0)."))
        assert d.outcome == REFUTATION
        assert len(d.steps) == 3
        d2 = sld(nat, parse_query("?- nat(s(0)), nat(s(s(zero)))."))
        assert d2.outcome == FAILED

    def test_nonground_query_binds_variables(self, nat):
        d = sld(nat, parse_query("?- nat(X)."))
        assert d.outcome == REFUTATION
        assert len(d.steps) == 1  # first rule in program order is the fact

    def test_soundness_on_function_free_programs(self):
        rng = random.Random(31)
        from conftest import random_fo_program

        for _ in range(60):
            p = random_fo_program(rng, ground=True)
            grounded = gnd(p, signature_of(p, extra_constants=("a", "b")), 0)
            lm = least_model(grounded)
            for atom in list(lm)[:3]:
                d = sld(p, Query((atom,)), depth_limit=60)
                if d.outcome == REFUTATION:
                    assert atom in lm

    def test_refutations_agree_with_least_model(self):
        rng = random.Random(32)
        for _ in range(80):
            p = random_prop_program(rng)
            lm = least_model(p)
            for atom in random_interpretation(rng):
                d = sld(p, Query((atom,)), depth_limit=40, shortest=True)
                assert (d.outcome == REFUTATION) == (atom in lm)


class TestDepthLimit:
    def test_depth_beyond_python_stack(self):
        p, q = parse_program("a :- a."), parse_query("?- a.")
        assert sld(p, q, depth_limit=200_000).outcome == DEPTH_EXCEEDED
        assert translated_sld(p, p, p, q, depth_limit=200_000).outcome == DEPTH_EXCEEDED

    def test_growing_terms_beyond_python_stack(self, nat):
        # every step nests a goal's argument one level deeper, so the terms
        # outgrow Python's default recursion limit long before the bound
        loop, q = parse_program("loop(X) :- loop(s(X))."), parse_query("?- loop(0).")
        assert sld(loop, q, depth_limit=1000).outcome == DEPTH_EXCEEDED
        assert translated_sld(loop, loop, loop, q, depth_limit=1000).outcome == DEPTH_EXCEEDED
        d = sld(nat, parse_query("?- nat(X), p(X)."), depth_limit=1000)
        assert d.outcome == DEPTH_EXCEEDED

    def test_deep_refutation_trace(self):
        # exp(N, Y) makes Y the numeral 2^N: 11 exp steps and 2^k + 1 twice
        # steps for each k < 10, on terms up to 2^9 levels deep
        p = parse_program("""
            twice(0, 0).
            twice(s(X), s(s(Y))) :- twice(X, Y).
            exp(0, s(0)).
            exp(s(N), Y) :- exp(N, X), twice(X, Y).
        """)
        ten = "s(" * 10 + "0" + ")" * 10
        d = sld(p, parse_query(f"?- exp({ten}, Y)."), depth_limit=2000)
        assert d.outcome == REFUTATION and len(d.steps) == 11 + 1023 + 10
        assert "twice(" + "s(" * 512 + "0" + ")" * 512 + "," in render_derivation(d)

    def test_zero_depth(self, nat):
        assert sld(nat, Query()).outcome == REFUTATION
        assert sld(nat, Query(), depth_limit=0).outcome == REFUTATION
        assert sld(nat, parse_query("?- nat(0)."), depth_limit=0).outcome == DEPTH_EXCEEDED
        assert sld(nat, parse_query("?- nat(0)."), depth_limit=1).outcome == REFUTATION

    def test_negative_depth_rejected(self, nat):
        q = parse_query("?- nat(0).")
        with pytest.raises(ValueError):
            sld(nat, q, depth_limit=-1)
        with pytest.raises(ValueError):
            translated_sld(nat, nat, nat, q, depth_limit=-1, shortest=True)


# Plain derivations on append.lp plus member.lp whose fresh variable names
# record every rename in order: those of failed branches and of earlier
# iterative-deepening passes included.  Each step is (variant, resolvent).
_PINNED_TRACES = {
    ("?- append(X,Y,[a,b]), member(b,Y).", False): [
        ("append([],_G1,_G1).", "member(b,[a,b])"),
        ("member(_G10,[_G11|_G12]) :- member(_G10,_G12).", "member(b,[b])"),
        ("member(_G19,[_G19|_G20]).", ""),
    ],
    ("?- append(X,Y,[a,b]), member(b,Y).", True): [
        ("append([],_G45,_G45).", "member(b,[a,b])"),
        ("member(_G54,[_G55|_G56]) :- member(_G54,_G56).", "member(b,[b])"),
        ("member(_G63,[_G63|_G64]).", ""),
    ],
    ("?- append(X,Y,[a,b,c]), member(a,X).", False): [
        ("append([_G13|_G14],_G15,[_G16|_G17]) :- append(_G14,_G15,_G17).",
         "append(_G14,_G15,[b,c]), member(a,[_G13|_G14])"),
        ("append([],_G18,_G18).", "member(a,[_G13])"),
        ("member(_G25,[_G25|_G26]).", ""),
    ],
    ("?- append(X,Y,[a,b,c]), member(a,X).", True): [
        ("append([_G57|_G58],_G59,[_G60|_G61]) :- append(_G58,_G59,_G61).",
         "append(_G58,_G59,[b,c]), member(a,[_G57|_G58])"),
        ("append([],_G62,_G62).", "member(a,[_G57])"),
        ("member(_G69,[_G69|_G70]).", ""),
    ],
    ("?- member(X,[a,b,c]), append(P,[X],[a,b]).", False): [
        ("member(_G42,[_G43|_G44]) :- member(_G42,_G44).",
         "member(_G42,[b,c]), append(P,[_G42],[a,b])"),
        ("member(_G51,[_G51|_G52]).", "append(P,[b],[a,b])"),
        ("append([_G54|_G55],_G56,[_G57|_G58]) :- append(_G55,_G56,_G58).",
         "append(_G55,[b],[b])"),
        ("append([],_G59,_G59).", ""),
    ],
    ("?- member(X,[a,b,c]), append(P,[X],[a,b]).", True): [
        ("member(_G152,[_G153|_G154]) :- member(_G152,_G154).",
         "member(_G152,[b,c]), append(P,[_G152],[a,b])"),
        ("member(_G161,[_G161|_G162]).", "append(P,[b],[a,b])"),
        ("append([_G164|_G165],_G166,[_G167|_G168]) :- append(_G165,_G166,_G168).",
         "append(_G165,[b],[b])"),
        ("append([],_G169,_G169).", ""),
    ],
}


@pytest.mark.parametrize("query, shortest", list(_PINNED_TRACES),
                         ids=[f"query{i // 2}-{'shortest' if s else 'first'}"
                              for i, (_, s) in enumerate(_PINNED_TRACES)])
def test_pinned_trace(append, member, query, shortest):
    p = Program(list(append) + list(member))
    d = sld(p, parse_query(query), shortest=shortest)
    assert d.outcome == REFUTATION
    steps = [(rule_to_text(s.variant), goals_to_text(s.query_after.goals)) for s in d.steps]
    assert steps == _PINNED_TRACES[query, shortest]


# Traces whose fresh names depend on how many rules each step passes over:
# predicates interleaved in program order, goals whose first argument clashes
# with some heads' (nat(0) against nat(s(_)), [] against [H|T]), and a query
# whose own variables are named like the pool's, so that the pool skips them.
_INTERLEAVED = """
    p(X) :- q(X), r(X).
    q(a).
    r(X) :- s(X, Y), t(Y).
    p(Y) :- q(Y), s(Y, Y).
    q(b) :- r(b).
    s(X, b) :- t(X).
    t(a).
    s(a, c).
    t(b).
"""

_PINNED_PROGRAM_TRACES = {
    ("interleaved", "?- p(Z), s(Z, W).", False): [
        ("p(_G1) :- q(_G1), r(_G1).", "q(_G1), r(_G1), s(_G1,W)"),
        ("q(a).", "r(a), s(a,W)"),
        ("r(_G4) :- s(_G4,_G5), t(_G5).", "s(a,_G5), t(_G5), s(a,W)"),
        ("s(_G10,b) :- t(_G10).", "t(a), t(b), s(a,W)"),
        ("t(a).", "t(b), s(a,W)"),
        ("t(b).", "s(a,W)"),
        ("s(_G25,b) :- t(_G25).", "t(a)"),
        ("t(a).", ""),
    ],
    ("interleaved", "?- p(Z), s(Z, W).", True): [
        ("p(_G261) :- q(_G261), r(_G261).", "q(_G261), r(_G261), s(_G261,W)"),
        ("q(a).", "r(a), s(a,W)"),
        ("r(_G264) :- s(_G264,_G265), t(_G265).", "s(a,_G265), t(_G265), s(a,W)"),
        ("s(_G270,b) :- t(_G270).", "t(a), t(b), s(a,W)"),
        ("t(a).", "t(b), s(a,W)"),
        ("t(b).", "s(a,W)"),
        ("s(a,c).", ""),
    ],
    ("nat+append", "?- append(X,[c],[a,b,c]), nat(s(s(0))), append([a],Y,[a|X]).", False): [
        ("append([_G3|_G4],_G5,[_G6|_G7]) :- append(_G4,_G5,_G7).",
         "append(_G4,[c],[b,c]), nat(s(s(0))), append([a],Y,[a,_G3|_G4])"),
        ("append([_G10|_G11],_G12,[_G13|_G14]) :- append(_G11,_G12,_G14).",
         "append(_G11,[c],[c]), nat(s(s(0))), append([a],Y,[a,_G3,_G10|_G11])"),
        ("append([],_G16,_G16).", "nat(s(s(0))), append([a],Y,[a,_G3,_G10])"),
        ("nat(s(_G17)) :- nat(_G17).", "nat(s(0)), append([a],Y,[a,_G3,_G10])"),
        ("nat(s(_G18)) :- nat(_G18).", "nat(0), append([a],Y,[a,_G3,_G10])"),
        ("nat(0).", "append([a],Y,[a,_G3,_G10])"),
        ("append([_G21|_G22],_G23,[_G24|_G25]) :- append(_G22,_G23,_G25).",
         "append([],_G23,[_G3,_G10])"),
        ("append([],_G27,_G27).", ""),
    ],
    ("nat+append", "?- nat(s(N)), append(L,[N],[a,s(0)]).", True): [
        ("nat(s(_G99)) :- nat(_G99).", "nat(_G99), append(L,[_G99],[a,s(0)])"),
        ("nat(s(_G121)) :- nat(_G121).", "nat(_G121), append(L,[s(_G121)],[a,s(0)])"),
        ("nat(0).", "append(L,[s(0)],[a,s(0)])"),
        ("append([_G124|_G125],_G126,[_G127|_G128]) :- append(_G125,_G126,_G128).",
         "append(_G125,[s(0)],[s(0)])"),
        ("append([],_G130,_G130).", ""),
    ],
    ("append+member", "?- append(_G2,_G5,[a,b]), member(b,_G5).", False): [
        ("append([],_G1,_G1).", "member(b,[a,b])"),
        ("member(_G12,[_G13|_G14]) :- member(_G12,_G14).", "member(b,[b])"),
        ("member(_G21,[_G21|_G22]).", ""),
    ],
    ("append+member", "?- append(_G2,_G5,[a,b]), member(b,_G5).", True): [
        ("append([],_G47,_G47).", "member(b,[a,b])"),
        ("member(_G56,[_G57|_G58]) :- member(_G56,_G58).", "member(b,[b])"),
        ("member(_G65,[_G65|_G66]).", ""),
    ],
}


@pytest.mark.parametrize("name, query, shortest", list(_PINNED_PROGRAM_TRACES),
                         ids=[f"{name}-{'shortest' if s else 'first'}"
                              for name, _, s in _PINNED_PROGRAM_TRACES])
def test_pinned_trace_by_program(append, member, nat, name, query, shortest):
    programs = {"interleaved": parse_program(_INTERLEAVED),
                "nat+append": Program(list(nat) + list(append)),
                "append+member": Program(list(append) + list(member))}
    d = sld(programs[name], parse_query(query), shortest=shortest)
    assert d.outcome == REFUTATION
    steps = [(rule_to_text(s.variant), goals_to_text(s.query_after.goals)) for s in d.steps]
    assert steps == _PINNED_PROGRAM_TRACES[name, query, shortest]


def test_pinned_translated_trace(append, q_member_append, s_member_append):
    # the prefix's member fact clashes with c at every macro step but the last
    d = translated_sld(q_member_append, append, s_member_append,
                       parse_query("?- member(c,[a,b,c])."))
    assert d.outcome == REFUTATION
    steps = [(s.phase, rule_to_text(s.variant), goals_to_text(s.query_after.goals))
             for s in d.steps]
    assert steps == [
        ("Q", "member(_G3,[_G4|_G5]) :- append([_G4|_G5],_G3,[_G4|_G5]).",
         "append([a,b,c],c,[a,b,c])"),
        ("R", "append([_G7|_G8],_G9,[_G10|_G11]) :- append(_G8,_G9,_G11).",
         "append([b,c],c,[b,c])"),
        ("S", "append(_G12,_G13,_G14) :- member(_G13,_G12).", "member(c,[b,c])"),
        ("Q", "member(_G17,[_G18|_G19]) :- append([_G18|_G19],_G17,[_G18|_G19]).",
         "append([b,c],c,[b,c])"),
        ("R", "append([_G21|_G22],_G23,[_G24|_G25]) :- append(_G22,_G23,_G25).",
         "append([c],c,[c])"),
        ("S", "append(_G26,_G27,_G28) :- member(_G27,_G26).", "member(c,[c])"),
        ("Q", "member(_G29,[_G29|_G30]).", ""),
    ]


@pytest.mark.parametrize("unrelated", [0, 200, 400])
def test_only_candidate_rules_are_renamed(append, monkeypatch, unrelated):
    # each of the 151 steps renames the one append rule whose first argument
    # fits the goal's, whatever rules come before it
    module = sys.modules["seqhorn.sld"]  # the package's name sld is the function
    renamed = []
    rename = module.rename_fresh
    monkeypatch.setattr(module, "rename_fresh",
                        lambda r, pool: renamed.append(r) or rename(r, pool))
    noise = "".join(f"u{i}(X) :- v{i}(X).\n" for i in range(unrelated))
    p = Program(list(parse_program(noise)) + list(append))
    xs = ",".join(f"k{i}" for i in range(150))
    d = sld(p, parse_query(f"?- append([{xs}],[m1,m2],[{xs},m1,m2])."))
    assert d.outcome == REFUTATION and len(d.steps) == 151
    assert len(renamed) == 151


class TestTranslatedSld:
    def test_append_via_plus_matches_golden(self, plus, q_plus_append, s_plus_append):
        query = parse_query("?- append([a],[b,c],[a,b,c]).")
        d = translated_sld(q_plus_append, plus, s_plus_append, query)
        assert d.outcome == REFUTATION
        rendered = render_derivation(d, labels={"R": "Plus"})
        golden = (FIXTURES / "append_via_plus_trace.golden").read_text()
        assert rendered == golden
        goals = [step.query_after.goals for step in d.steps]
        flat = ["" if not g else _text(g[0]) for g in goals]
        assert flat[0] == "plus(s([]),[b,c],s([b,c]))"
        assert flat[3] == "plus(0,[b,c],[b,c])"
        assert [s.phase for s in d.steps] == ["Q", "R", "S", "Q", "R"]

    def test_member_via_append(self, member, append, q_member_append, s_member_append):
        query = parse_query("?- member(b,[a,b]).")
        d = translated_sld(q_member_append, append, s_member_append, query)
        assert d.outcome == REFUTATION
        native = sld(member, query)
        assert native.outcome == REFUTATION

    def test_macro_steps_of_plain_and_empty_derivations(self, nat):
        # a plain derivation's macro steps are its steps; one with no steps has none
        d = sld(nat, parse_query("?- nat(s(s(0)))."))
        assert d.is_refutation and macro_step_count(d) == len(d.steps) == 3
        assert macro_step_count(sld(nat, parse_query("?- nat(a)."))) == 0
        empty = sld(nat, Query())
        assert empty.is_refutation and macro_step_count(empty) == 0

    def test_multi_goal_translated(self, plus, q_plus_append, s_plus_append):
        query = parse_query("?- append([],[b],[b]), append([a],[],[a]).")
        d = translated_sld(q_plus_append, plus, s_plus_append, query)
        assert d.outcome == REFUTATION
        assert macro_step_count(d) == 3

    def test_wide_prefix_rule_expands_stagewise(self):
        # a prefix rule with a two-atom body takes two base steps and two
        # suffix steps inside a single macro step, left to right
        prefix = parse_program("h :- m1, m2.\nx.\ny.")
        base = parse_program("m1 :- x.\nm2 :- y.")
        suffix = parse_program("x :- x.\ny :- y.")
        target = compose(compose(prefix, base), suffix)
        assert target == parse_program("h :- x, y.\nx.\ny.")
        q = parse_query("?- h.")
        d = translated_sld(prefix, base, suffix, q)
        assert d.outcome == REFUTATION
        assert [s.phase for s in d.steps] == ["Q", "R", "R", "S", "S", "Q", "Q"]
        native = sld(target, q, shortest=True)
        routed = translated_sld(prefix, base, suffix, q, shortest=True)
        assert len(native.steps) == macro_step_count(routed) == 3

    def test_unit_bridging_reproduces_plain_sld(self):
        rng = random.Random(33)
        for _ in range(60):
            p = random_prop_program(rng)
            if not len(p):
                continue
            sig = signature_of(p)
            one = unit_program(sig)
            model = sorted(least_model(p), key=atom_key)
            if not model:
                continue
            atom = rng.choice(model)
            q = Query((atom,))
            plain = sld(p, q, depth_limit=50, shortest=True)
            bridged = translated_sld(one, p, one, q, depth_limit=50, shortest=True)
            assert plain.outcome == bridged.outcome == REFUTATION
            assert len(plain.steps) == macro_step_count(bridged)
            # step for step modulo the unit steps: the base-phase rules are
            # exactly the plain derivation's rules, in order
            base_rules = [s.rule for s in bridged.steps if s.phase == "R"]
            assert base_rules == [s.rule for s in plain.steps]

    def test_simulation_property(self):
        # 200 pairs with a verified decomposition; translated success and
        # minimal macro-step count match the native engine exactly.
        rng = random.Random(34)
        pairs = 0
        while pairs < 200:
            base = random_prop_program(rng, max_rules=3)
            prefix = random_prop_program(rng, max_rules=3)
            suffix = random_prop_program(rng, max_rules=2)
            target = compose(compose(prefix, base), suffix)
            if not len(target):
                continue
            cert = ReductionCertificate(target, base, prefix, suffix)
            assert verify(cert)
            pairs += 1
            lm = least_model(target)
            query_atoms = (sorted(lm, key=atom_key)[:1]
                           + sorted(random_interpretation(rng), key=atom_key)[:1])
            queries = [Query((a,)) for a in query_atoms]
            if len(query_atoms) == 2:
                queries.append(Query(tuple(query_atoms)))
            for q in queries:
                native = sld(target, q, depth_limit=30, shortest=True)
                routed = translated_sld(prefix, base, suffix, q,
                                        depth_limit=30, shortest=True)
                assert (native.outcome == REFUTATION) == (routed.outcome == REFUTATION)
                if native.outcome == REFUTATION:
                    assert len(native.steps) == macro_step_count(routed)

    def test_depth_counts_macro_steps(self, plus, q_plus_append, s_plus_append):
        # the golden refutation: five steps in two macro steps
        query = parse_query("?- append([a],[b,c],[a,b,c]).")
        d = translated_sld(q_plus_append, plus, s_plus_append, query, depth_limit=2)
        assert d.outcome == REFUTATION and len(d.steps) == 5
        d = translated_sld(q_plus_append, plus, s_plus_append, query, depth_limit=1)
        assert d.outcome == DEPTH_EXCEEDED

    def test_resolvent_shown_before_deduplication(self):
        prefix = parse_program("p(X,Y) :- m(X), m(Y).")
        base = parse_program("m(X) :- n(X).")
        suffix = parse_program("n(a).")
        d = translated_sld(prefix, base, suffix, parse_query("?- p(a,a)."))
        assert d.outcome == REFUTATION
        shown = [(s.phase, goals_to_text(s.query_before.goals), goals_to_text(s.query_after.goals))
                 for s in d.steps]
        assert shown == [("Q", "p(a,a)", "m(a), m(a)"), ("R", "m(a)", "n(a)"), ("S", "n(a)", "")]

    def test_trace_well_formedness(self, plus, q_plus_append, s_plus_append):
        query = parse_query("?- append([a],[b,c],[a,b,c]).")
        d = translated_sld(q_plus_append, plus, s_plus_append, query)
        for step in d.steps:
            before = step.query_before.goals
            theta = unify(before[step.index], step.variant.head)
            assert theta is not None
            rebuilt = tuple(
                subst_atom(a, theta)
                for a in before[:step.index] + step.variant.body + before[step.index + 1:]
            )
            assert rebuilt == step.query_after.goals


def _text(atom):
    from seqhorn.syntax import atom_to_text

    return atom_to_text(atom)

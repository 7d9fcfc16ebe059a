"""Acceptance criteria, one test per criterion (sub-lettered where a
criterion bundles independent claims).

Each test prints a single pass/fail line.  Criteria 7b and 7c concern the
two body-editing similarity laws, whose unconditional forms are false:
each test checks the part of its law that holds on its whole sample
(verified certificates, exhaustive search verdicts) and refutes the
unconditional form on a pinned counterexample whose search must end in
an exhaustive not-found.
"""

import contextlib
import random
import time
from itertools import combinations

from seqhorn import (
    Atom,
    Program,
    ReductionCertificate,
    body_minus,
    body_of,
    body_plus,
    compose,
    compose_ground,
    dual,
    facts,
    gnd,
    head_of,
    interpretation,
    least_model,
    left_reduct,
    logically_equivalent,
    make_rule,
    parse_program,
    proper,
    right_reduct,
    search_reduction,
    signature_of,
    similar,
    tp,
    unit_program,
    unit_restricted,
    verify,
    width,
    width_blocks,
)
from seqhorn.decompose import FOUND, NOT_FOUND, SIMILAR
from seqhorn.programs import is_interpretation
from seqhorn.witnesses import (
    bodies_reduce,
    body_deletion_reduces,
    body_extension_similarity,
    facts_reduce,
    grounding_reduces,
    heads_reduce,
    interpretation_reduces,
    interpretations_similar,
    left_reduct_reduces,
    program_reduces_to_unit_with_facts,
    right_reduct_reduces,
    tp_image_reduces,
    union_with_interpretation_reduces,
)
from conftest import (
    FIXTURES,
    PROP_ATOMS,
    random_fo_program,
    random_interpretation,
    random_prop_program,
    run_seqhorn,
)


@contextlib.contextmanager
def criterion(tag: str, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance {tag}] {name}: FAIL", flush=True)
        raise
    print(f"[acceptance {tag}] {name}: PASS", flush=True)


def atoms(*names):
    return frozenset(Atom(n) for n in names)


# ---------------------------------------------------------------------------


def test_criterion_1_even_numbers_composition():
    with criterion("1", "even-numbers composition"):
        start = time.monotonic()
        step = parse_program("nat(s(X)) :- nat(X).")
        assert compose(step, step) == parse_program("nat(s(s(X))) :- nat(X).")
        assert time.monotonic() - start < 1.0


def test_criterion_2_plus_append_similarity(plus, append, q_plus_append,
                                            s_plus_append):
    with criterion("2", "plus/append similarity via shipped fixtures"):
        start = time.monotonic()
        assert verify(ReductionCertificate(append, plus, q_plus_append,
                                           s_plus_append))
        assert time.monotonic() - start < 1.0
        start = time.monotonic()
        assert verify(ReductionCertificate(plus, append, dual(q_plus_append),
                                           dual(s_plus_append)))
        assert time.monotonic() - start < 1.0


def test_criterion_3_entangled_term_trace():
    with criterion("3", "entangled-term golden trace"):
        out = run_seqhorn(
            "xsld",
            "--prefix", "q_plus_append.lp",
            "--base", "plus.lp",
            "--suffix", "s_plus_append.lp",
            "?- append([a],[b,c],[a,b,c]).",
            "--trace",
        )
        assert out.returncode == 0
        golden = (FIXTURES / "append_via_plus_trace.golden").read_text()
        assert out.stdout == golden
        lines = out.stdout.splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("? ")
        assert [l.split()[0] for l in lines[1:]] == ["Q", "Plus", "S", "Q", "Plus"]
        assert lines[1].endswith("plus(s([]),[b,c],s([b,c]))")
        assert lines[4].endswith("plus(0,[b,c],[b,c])")
        assert lines[5].endswith("□")


def test_criterion_4_member_reduction(member, append, q_member_append,
                                      s_member_append):
    with criterion("4", "member reduction and width obstruction"):
        assert verify(ReductionCertificate(member, append, q_member_append,
                                           s_member_append))
        assert width(member) == 2
        assert width(append) == 3
        assert width_blocks(append, member)


def test_criterion_5_propositional_searches():
    with criterion("5", "propositional search examples"):
        start = time.monotonic()
        p = parse_program("c.\na :- b, c.\nb :- a, c.")
        pi = parse_program("a :- b.\nb :- a.")
        forward = search_reduction(p, pi)
        assert forward.status == FOUND and verify(forward.certificate)
        backward = search_reduction(pi, p)
        assert backward.status == FOUND and verify(backward.certificate)

        r = parse_program("a :- b.\nb :- b.")
        blocked = search_reduction(pi, r)
        assert blocked.status == NOT_FOUND and blocked.exhaustive
        certified = search_reduction(r, pi)
        assert certified.status == FOUND and verify(certified.certificate)
        assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# Criterion 6: identity property suite, 1000 random programs per identity.


def _prop_samples(seed, n=1000):
    rng = random.Random(seed)
    return [(random_prop_program(rng), random_prop_program(rng),
             random_interpretation(rng)) for _ in range(n)]


def _fo_samples(seed, n=1000):
    rng = random.Random(seed)
    return [(random_fo_program(rng, max_rules=3), random_fo_program(rng, max_rules=3))
            for _ in range(n)]


def test_criterion_6_identity_property_suite():
    with criterion("6", "identity property suite (1000 samples per law)"):
        suite_start = time.monotonic()
        hb = frozenset(PROP_ATOMS)
        hb_prog = interpretation(hb)

        for p, r, i in _prop_samples(601):
            assert compose(p | r, hb_prog) == compose(p, hb_prog) | compose(r, hb_prog)
            assert compose(p | r, r) == compose(p, r) | compose(r, r)

        for p, r, i in _prop_samples(602):
            assert compose(Program(), p) == Program()
            assert compose(interpretation(i), p) == interpretation(i)

        for p, r, i in _prop_samples(603):
            one = unit_program(signature_of(p))
            assert compose(p, one) == p
            assert compose(one, p) == p

        for p, r, i in _prop_samples(604):
            assert interpretation(tp(p, i)) == compose_ground(p, interpretation(i))

        for p, r, i in _prop_samples(605):
            assert compose(p, hb_prog) == interpretation(head_of(p))
            assert compose(dual(proper(p)), hb_prog) == interpretation(body_of(p))

        for p, r, i in _prop_samples(606):
            pr = compose_ground(p, r)
            assert head_of(pr) <= head_of(p)
            assert body_of(pr) <= body_of(r)

        for p, r, i in _prop_samples(607):
            deleted = compose(p, body_minus(i, hb))
            assert deleted == Program(
                make_rule(rl.head, set(rl.body) - i) for rl in p
            )
            extended = compose(p, body_plus(i, hb))
            assert extended == facts(p) | Program(
                make_rule(rl.head, set(rl.body) | i) for rl in proper(p)
            )

        for p, r, i in _prop_samples(608):
            assert left_reduct(p, i) == compose(unit_restricted(i), p)
            assert right_reduct(p, i) == compose(p, unit_restricted(i))

        for p, r in _fo_samples(609, n=1000):
            sig = signature_of(p, extra_constants=("a", "b"))
            gu = gnd(unit_program(sig), sig, 0)
            assert gnd(p, sig, 0) == compose(compose(gu, p), gu)

        for p, r in _fo_samples(610, n=1000):
            assert width(compose(p, r)) <= min(width(p), width(r))
            assert compose(p | r, r) == compose(p, r) | compose(r, r)

        elapsed = time.monotonic() - suite_start
        assert elapsed < 60.0, f"identity suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 7: proposition suites and biconditionals.


def test_criterion_7a_proposition_suites_certificates():
    with criterion("7a", "proposition suites realized as verified certificates"):
        rng = random.Random(701)
        for _ in range(1000):
            p = random_prop_program(rng)
            i = random_interpretation(rng)
            j = random_interpretation(rng)
            assert verify(grounding_reduces(p))
            assert verify(tp_image_reduces(p, i))
            assert verify(interpretation_reduces(i, p))
            assert verify(union_with_interpretation_reduces(p, i))
            fwd, bwd = interpretations_similar(i, j)
            assert verify(fwd) and verify(bwd)

            assert verify(heads_reduce(p, PROP_ATOMS))
            assert verify(bodies_reduce(p, PROP_ATOMS))
            assert verify(facts_reduce(p))
            assert verify(program_reduces_to_unit_with_facts(p))
            extension_fwd, _ = body_extension_similarity(p, i, PROP_ATOMS)
            assert verify(extension_fwd)
            assert verify(body_deletion_reduces(p, i, PROP_ATOMS))
            assert verify(left_reduct_reduces(p, i))
            assert verify(right_reduct_reduces(p, i))


def _assert_exhaustively_refuted(p, r):
    result = search_reduction(p, r)
    assert result.status == NOT_FOUND and result.exhaustive, (
        f"expected an exhaustive not-found for P={sorted(str(x) for x in p)} "
        f"reduced to R={sorted(str(x) for x in r)}, got {result.status} "
        f"(exhaustive={result.exhaustive})"
    )


def test_criterion_7b_body_extension_similarity_as_stated():
    # Claimed: P o I-plus is similar to P for every ground P and I.  The
    # forward direction always holds; the claimed converse fails, e.g. for
    # P = {a<-x, b<-y}, I = {x,y}: any suffix must rewrite the inserted
    # body {x,y} to {x} under head a but to {y} under head b with the same
    # suffix rules, and composition emits every combination.
    # Checked: the forward certificate verifies on every sample; the
    # reverse insert-then-delete certificate verifies exactly when no
    # proper-rule body of P meets I; the counterexample's search is an
    # exhaustive not-found.
    with criterion("7b", "body-extension similarity (as stated)"):
        rng = random.Random(702)
        hb = frozenset(PROP_ATOMS)
        for _ in range(200):
            p = random_prop_program(rng)
            i = random_interpretation(rng)
            forward, reverse = body_extension_similarity(p, i, hb)
            assert verify(forward)
            body_meets_i = any(set(rl.body) & i for rl in proper(p))
            assert bool(verify(reverse)) == (not body_meets_i), (
                f"reverse certificate for P={sorted(str(r) for r in p)}, "
                f"I={sorted(a.pred for a in i)}: body meets I is {body_meets_i}"
            )

        p = parse_program("a :- x.\nb :- y.")
        i = atoms("x", "y")
        forward, _ = body_extension_similarity(p, i, atoms("a", "b", "x", "y"))
        assert verify(forward)
        assert forward.target == parse_program("a :- x, y.\nb :- x, y.")
        _assert_exhaustively_refuted(p, forward.target)


def _all_programs(universe, max_rules, max_body=2):
    rules = []
    pool = sorted(universe, key=lambda a: a.pred)
    bodies = [frozenset()]
    bodies += [frozenset(c) for k in range(1, max_body + 1)
               for c in combinations(pool, k)]
    for head in pool:
        for body in bodies:
            rules.append(make_rule(head, body))
    for k in range(max_rules + 1):
        for combo in combinations(rules, k):
            yield Program(combo)


def test_criterion_7c_body_deletion_biconditional_as_stated():
    # Claimed: P is similar to P o I-minus exactly when deleting I creates
    # no new facts.  The forward implication holds; the converse fails,
    # e.g. P = {a<-b,c; b<-a,c}, I = {a,b}: facts are preserved (none
    # exist), yet no prefix/suffix reproduces P from {a<-c, b<-c}; and
    # P = {a, a<-a}, I = {a}: facts are preserved ({a}), yet no
    # prefix/suffix reproduces the rule a<-a from the interpretation {a}.
    # Checked on every program of <= 2 rules over {a,b,c} and every I:
    # the deletion certificate verifies, every search verdict is a verified
    # certificate or an exhaustive not-found, and similarity implies that
    # facts are preserved; both counterexamples are exhaustive not-founds.
    with criterion("7c", "body-deletion similarity biconditional (as stated)"):
        universe = atoms("a", "b", "c")
        subsets = [frozenset(c) for k in range(len(universe) + 1)
                   for c in combinations(sorted(universe, key=lambda a: a.pred), k)]
        decided: dict = {}
        for p in _all_programs(universe, max_rules=2):
            for i in subsets:
                deletion = body_deletion_reduces(p, i, universe)
                assert verify(deletion)
                deleted = deletion.target
                key = (p, deleted)
                if key not in decided:
                    if p == deleted:
                        decided[key] = True
                    else:
                        result = search_reduction(p, deleted)
                        if result.status == FOUND:
                            assert verify(result.certificate)
                        else:
                            assert result.status == NOT_FOUND and result.exhaustive
                        decided[key] = result.status == FOUND
                if decided[key]:
                    assert facts(p) == facts(deleted), (
                        f"similar yet facts changed for "
                        f"P={sorted(str(r) for r in p)}, "
                        f"I={sorted(a.pred for a in i)}"
                    )

        for text, i in (("a :- b, c.\nb :- a, c.", atoms("a", "b")),
                        ("a.\na :- a.", atoms("a"))):
            p = parse_program(text)
            deleted = compose(p, body_minus(i, universe))
            assert facts(p) == facts(deleted)
            _assert_exhaustively_refuted(p, deleted)


def test_criterion_7d_facts_biconditional():
    with criterion("7d", "similarity to own facts iff already facts-only"):
        universe = atoms("a", "b", "c")
        for p in _all_programs(universe, max_rules=3):
            f = facts(p)
            forward = search_reduction(p, f)
            backward = search_reduction(f, p)
            both = forward.status == FOUND and backward.status == FOUND
            assert both == (p == f)
            if not both:
                assert forward.status == NOT_FOUND and forward.exhaustive


def test_criterion_7e_interpretation_similarity_biconditional():
    with criterion("7e", "similar to an interpretation iff interpretation"):
        universe = atoms("a", "b")
        subsets = [frozenset(c) for k in range(3)
                   for c in combinations(sorted(universe, key=lambda a: a.pred), k)]
        for p in _all_programs(universe, max_rules=2):
            for i in subsets:
                outcome = similar(p, interpretation(i)).outcome
                assert (outcome == SIMILAR) == is_interpretation(p)


# ---------------------------------------------------------------------------


def test_criterion_8_orthogonality_regressions():
    with criterion("8", "similarity and logical equivalence are orthogonal"):
        p = parse_program("a.\nb :- a.")
        r = parse_program("a.\nb :- a, b.")
        result = similar(p, r)
        assert result.outcome == SIMILAR
        assert verify(result.forward.certificate)
        assert verify(result.backward.certificate)
        assert not logically_equivalent(p, r)

        loop = parse_program("a :- a.")
        assert logically_equivalent(Program(), loop)
        unobtainable = search_reduction(loop, Program())
        assert unobtainable.status == NOT_FOUND and unobtainable.exhaustive
        assert least_model(loop) == frozenset()

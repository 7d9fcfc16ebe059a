"""Reduction certificates, bounded search and similarity."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqhorn import (
    Atom,
    Program,
    ReductionCertificate,
    SearchBounds,
    body_minus,
    body_plus,
    certificate_from_text,
    certificate_to_text,
    compose,
    dual,
    make_rule,
    parse_program,
    search_reduction,
    similar,
    unit_restricted,
    verify,
    width_blocks,
)
from seqhorn.decompose import (
    BUDGET_EXCEEDED,
    FOUND,
    INCOMPARABLE,
    LEFT_BELOW,
    NOT_FOUND,
    RIGHT_BELOW,
    SIMILAR,
)
from conftest import random_prop_program


def atoms(*names):
    return frozenset(Atom(n) for n in names)


PI = parse_program("a :- b.\nb :- a.")
# similar-self-14 of the benchmark's search workload, seed 1
_SELF_14 = "a42 :- a36, a42.\na42 :- a58.\na9 :- a9, a42.\na58 :- a58, a36."
P_SWAP = parse_program("c.\na :- b, c.\nb :- a, c.")


class TestVerify:
    def test_append_from_plus(self, plus, append, q_plus_append, s_plus_append):
        cert = ReductionCertificate(append, plus, q_plus_append, s_plus_append)
        assert verify(cert)

    def test_plus_from_append_via_duals(self, plus, append, q_plus_append,
                                        s_plus_append):
        cert = ReductionCertificate(plus, append, dual(q_plus_append),
                                    dual(s_plus_append))
        assert verify(cert)

    def test_member_from_append(self, member, append, q_member_append,
                                s_member_append):
        cert = ReductionCertificate(member, append, q_member_append,
                                    s_member_append)
        assert verify(cert)

    def test_swap_example_from_construction(self):
        hb = atoms("a", "b", "c")
        prefix = unit_restricted(atoms("a", "b")) | parse_program("c.")
        suffix = Program(
            r for r in body_plus(atoms("c"), hb)
            if r not in unit_restricted(atoms("c"))
        )
        cert = ReductionCertificate(P_SWAP, PI, prefix, suffix)
        assert verify(cert)

    def test_swap_base_recovered(self):
        hb = atoms("a", "b", "c")
        cert = ReductionCertificate(
            PI, P_SWAP, unit_restricted(atoms("a", "b")), body_minus(atoms("c"), hb)
        )
        assert verify(cert)

    def test_collapsed_program_through_swap_base(self):
        # the swap program absorbs into R, so routing R's rules through the
        # swap base and suffixing with R itself restores R
        r = parse_program("a :- b.\nb :- b.")
        cert = ReductionCertificate(r, PI, PI, r)
        assert verify(cert)

    def test_shuffled_eight_atom_compositions(self):
        # each composition has 8 same-shape g/2 body atoms (8! orderings);
        # the target is an alpha-renamed copy with its body shuffled
        base = parse_program("e(X, Y) :- f(X, Z), f(Z, Y).")
        suffix = parse_program("f(X, Y) :- g(X, Y).")
        rng = random.Random(8)
        for _ in range(10):
            vs = [f"X{i}" for i in range(5)]
            edges = rng.sample([f"e({a}, {b})" for a in vs for b in vs], 4)
            prefix = parse_program(f"h(X0, X1) :- {', '.join(edges)}.")
            (rule,) = compose(compose(prefix, base), suffix)
            assert len(rule.body) == 8
            names = sorted({t.name for a in (rule.head, *rule.body) for t in a.args})
            ren = dict(zip(names, (f"W{i}" for i in rng.sample(range(100), len(names)))))
            body = [a.pred + "(" + ", ".join(ren[t.name] for t in a.args) + ")"
                    for a in rule.body]
            rng.shuffle(body)
            head = "h(" + ", ".join(ren[t.name] for t in rule.head.args) + ")"
            target = parse_program(f"{head} :- {', '.join(body)}.")
            assert verify(ReductionCertificate(target, base, prefix, suffix))

    def test_wrong_suffix_diagnosed(self, plus, append, q_plus_append):
        bad = ReductionCertificate(append, plus, q_plus_append,
                                   parse_program("plus(X,Y,Z) :- plus(X,Y,Z)."))
        result = verify(bad)
        assert not result
        assert result.missing or result.extra


class TestWidthBlocks:
    def test_append_cannot_reduce_to_member(self, member, append):
        assert width_blocks(append, member)

    def test_member_may_reduce_to_append(self, member, append):
        assert not width_blocks(member, append)

    def test_reflexive_never_blocks(self, append):
        assert not width_blocks(append, append)


class TestSearchReduction:
    def test_swap_target_found(self):
        result = search_reduction(P_SWAP, PI)
        assert result.status == FOUND
        assert verify(result.certificate)

    def test_swap_base_found(self):
        result = search_reduction(PI, P_SWAP)
        assert result.status == FOUND
        assert verify(result.certificate)

    def test_pi_not_reducible_to_collapsed(self):
        r = parse_program("a :- b.\nb :- b.")
        result = search_reduction(PI, r)
        assert result.status == NOT_FOUND
        assert result.exhaustive

    def test_collapsed_reduces_to_pi(self):
        r = parse_program("a :- b.\nb :- b.")
        result = search_reduction(r, PI)
        assert result.status == FOUND
        assert verify(result.certificate)

    def test_reflexive(self):
        result = search_reduction(P_SWAP, P_SWAP)
        assert result.status == FOUND
        assert verify(result.certificate)

    def test_empty_target(self):
        result = search_reduction(Program(), PI)
        assert result.status == FOUND
        assert verify(result.certificate)

    def test_width_short_circuit_first_order(self, member, append):
        result = search_reduction(append, member)
        assert result.status == NOT_FOUND
        assert result.exhaustive

    def test_nonground_rejected_without_width_block(self, member, append):
        with pytest.raises(ValueError):
            search_reduction(member, append)

    def test_budget_exceeded_reported(self):
        rng = random.Random(41)
        p = random_prop_program(rng, max_rules=4)
        r = random_prop_program(rng, max_rules=4)
        result = search_reduction(p, r, SearchBounds(time_budget=0.0))
        assert result.status == BUDGET_EXCEEDED

    def test_max_body_clips_target_body(self):
        # A suffix body holds at most max_body atoms, so at max_body 1 the
        # 3-atom target body is out of reach: not found, but not
        # exhaustively, because without the bound a reduction exists.
        p = parse_program("a :- x, y, z.")
        r = parse_program("b :- c.")
        assert search_reduction(p, r).status == FOUND
        result = search_reduction(p, r, SearchBounds(max_body=1))
        assert (result.status, result.exhaustive) == (NOT_FOUND, False)

    def test_max_body_clips_assembly(self):
        # Every rule has an option at max_body 2, but no assembly of them
        # works; the reduction found without the bound needs the suffix
        # rule c :- a, c, d.
        p = parse_program("a :- b.\na :- a, c, d.")
        r = parse_program("a :- a, c.\na :- b, c.")
        assert search_reduction(p, r).status == FOUND
        result = search_reduction(p, r, SearchBounds(max_body=2))
        assert (result.status, result.exhaustive) == (NOT_FOUND, False)

    def test_large_fact_target(self):
        # one assembly node per target rule, 1200 deep
        p = Program(make_rule(Atom(f"a{i}"), ()) for i in range(1200))
        result = search_reduction(p, parse_program("b :- c."))
        assert result.status == FOUND
        assert result.certificate.prefix == p
        assert result.certificate.suffix == Program()

    def test_fact_target_grows_linearly(self):
        # Copying the assembly's mid rules at every node made this family
        # quadratic: 6000 facts took over 20 times as long as 1500.
        r = parse_program("b :- c.")

        def best_of_3(n):
            p = Program(make_rule(Atom(f"a{i}"), ()) for i in range(n))
            times = []
            for _ in range(3):
                start = time.perf_counter()
                search_reduction(p, r)
                times.append(time.perf_counter() - start)
            return min(times)

        assert best_of_3(6000) < 8 * best_of_3(1500)

    @pytest.mark.parametrize("max_body,time_budget", [(-1, 1.0), (1, -1.0), (1, float("nan"))],
                             ids=["negative-max-body", "negative-budget", "nan-budget"])
    def test_invalid_bounds_rejected(self, max_body, time_budget):
        with pytest.raises(ValueError):
            SearchBounds(max_body=max_body, time_budget=time_budget)

    def test_determinism(self):
        first = search_reduction(P_SWAP, PI)
        second = search_reduction(P_SWAP, PI)
        assert first.certificate.prefix == second.certificate.prefix
        assert first.certificate.suffix == second.certificate.suffix

    def test_random_found_certificates_verify(self, request):
        from seqhorn import width

        rng = random.Random(42)
        found = 0
        for _ in range(60):
            base = random_prop_program(rng, max_rules=3)
            prefix = random_prop_program(rng, max_rules=2)
            suffix = random_prop_program(rng, max_rules=2)
            target = compose(compose(prefix, base), suffix)
            result = search_reduction(target, base)
            assert result.status == FOUND  # constructed to be reducible
            assert verify(result.certificate)
            assert width(target) <= width(base)  # necessary condition, post hoc
            found += 1
        assert found == 60
        # Pairs not planted, over 4 to 6 atoms, on a budget of 50 checks:
        # search returns its assembly's certificate unchecked, so each one
        # found is checked here.
        request.getfixturevalue("counting_clock")
        outcomes = {FOUND: 0, NOT_FOUND: 0, BUDGET_EXCEEDED: 0}
        for _ in range(400):
            universe = tuple(Atom(c) for c in "abcdef"[:rng.randint(4, 6)])
            p = random_prop_program(rng, universe)
            r = random_prop_program(rng, universe)
            result = search_reduction(p, r, SearchBounds(time_budget=50))
            outcomes[result.status] += 1
            if result.found:
                assert verify(result.certificate), (p, r)
        assert min(outcomes.values()) > 0 and outcomes[FOUND] > 100, outcomes

    def test_search_does_not_recompose(self, monkeypatch):
        # The assembly's leak test decides a search, so neither a search nor
        # similar composes, verifies or canonicalizes its certificate.
        import seqhorn.decompose
        import seqhorn.programs

        def refuse(*args, **kwargs):
            raise AssertionError("the search recomposed its certificate")

        def answers():
            found, sim = search_reduction(P_SWAP, PI), similar(P_SWAP, PI)
            return (found.status, sim.outcome,
                    *(certificate_to_text(x.certificate) for x in (found, sim.forward, sim.backward)))

        canonicalize = seqhorn.programs.canonicalize
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return canonicalize(*args, **kwargs)

        want = answers()
        assert want[:2] == (FOUND, SIMILAR)
        monkeypatch.setattr(seqhorn.decompose, "compose", refuse)
        monkeypatch.setattr(seqhorn.decompose, "verify", refuse)
        monkeypatch.setattr(seqhorn.programs, "canonicalize", counted)
        assert answers() == want
        assert calls == []

    def test_least_beta_of_a_class(self):
        # For h :- x, y the prefix bodies {c} and {a, b} give the same mid
        # bodies, {x, y}.  {c} is generated first, but the class's options
        # use its least beta, {a, b}, which the option order puts first.
        p = parse_program("g :- x.\nh :- x, y.\nk :- y.")
        r = parse_program("a :- x.\nb :- y.\nc :- x, y.")
        result = search_reduction(p, r)
        assert result.status == FOUND
        assert result.certificate.prefix == parse_program("g :- a.\nh :- a, b.\nk :- b.")
        assert result.certificate.suffix == parse_program("x :- x.\ny :- y.")
        assert verify(result.certificate)


class _CountingClock:
    """Stands in for ``seqhorn.decompose._Clock``: a budget of B allows B
    budget checks, and ``checks`` counts them, so an outcome does not hang
    on the machine's speed."""

    instances: list = []

    def __init__(self, budget: float) -> None:
        self.checks = 0
        self.limit = budget
        _CountingClock.instances.append(self)

    @property
    def elapsed(self) -> float:
        return float(self.checks)

    def expired(self) -> bool:
        self.checks += 1
        return self.checks > self.limit


@pytest.fixture
def counting_clock(monkeypatch):
    """Puts searches on ``_CountingClock``; returns the list its instances
    are appended to."""
    import seqhorn.decompose

    monkeypatch.setattr(seqhorn.decompose, "_Clock", _CountingClock)
    monkeypatch.setattr(_CountingClock, "instances", [])
    return _CountingClock.instances


def _pinned_pair(seed):
    # Even seeds: two random 4-rule programs; odd seeds: a target planted
    # as (Q o R) o S with at least two rules.
    rng = random.Random(seed)
    universe = tuple(Atom(c) for c in "abcdef"[:rng.choice((4, 5, 6))])

    def prog(n):
        return Program(make_rule(rng.choice(universe),
                                 rng.sample(universe, rng.randint(0, 2)))
                       for _ in range(n))

    if seed % 2 == 0:
        return prog(4), prog(4)
    while True:
        base = prog(3)
        target = compose(compose(prog(2), base), prog(3))
        if len(target) >= 2:
            return target, base


# (seed, status, exhaustive, budget checks, certificate from "% PREFIX" on)
# under a budget of 200 checks.  The benchmark runs searches on a step clock
# like _CountingClock, so these counts decide its verdicts.  Seeds 22 to 114
# are here because a leak test that skips the old mid rules reached by a new
# suffix rule gets them wrong.  Seeds 116 to 508 reject over 90% of the
# options the assembly tries.
_PINNED_SEARCHES = [
    (0, FOUND, False, 13, '% PREFIX\nc :- a.\nd.\ne.\n\n% SUFFIX\nb.\nc :- c.\nc :- d, e.\n'),
    (1, FOUND, False, 21, '% PREFIX\na.\na :- a.\nd.\nd :- a.\n\n% SUFFIX\na :- a.\n'),
    (2, FOUND, False, 23, '% PREFIX\na.\na :- d.\nc.\nc :- a.\n\n% SUFFIX\na.\nc :- b, d.\nd :- b.\n'),
    (3, FOUND, False, 11, '% PREFIX\na.\nd.\n\n% SUFFIX\n'),
    (4, NOT_FOUND, True, 164, None),
    (5, FOUND, False, 11, '% PREFIX\nd.\nd :- b.\n\n% SUFFIX\nc :- d.\n'),
    (6, FOUND, False, 37, '% PREFIX\na.\na :- a.\nb :- e.\nf :- a.\n\n% SUFFIX\na.\nb :- d, e.\nd :- c.\n'),
    (7, FOUND, False, 11, '% PREFIX\na.\ne.\n\n% SUFFIX\n'),
    (8, NOT_FOUND, True, 8, None),
    (9, FOUND, False, 7, '% PREFIX\na.\nb.\n\n% SUFFIX\n'),
    (10, FOUND, False, 21, '% PREFIX\na :- e.\nb :- e.\nc :- f.\ne.\n\n% SUFFIX\na :- a, b.\nc :- d.\n'),
    (11, FOUND, False, 11, '% PREFIX\nd.\nd :- a.\n\n% SUFFIX\na :- c.\n'),
    (12, NOT_FOUND, True, 10, None),
    (13, FOUND, False, 7, '% PREFIX\nc.\ne.\n\n% SUFFIX\n'),
    (14, NOT_FOUND, True, 2, None),
    (15, FOUND, False, 11, '% PREFIX\nc.\nc :- c.\n\n% SUFFIX\nc :- b.\n'),
    (22, FOUND, False, 30, '% PREFIX\na :- a.\nb.\nb :- d.\nd.\n\n% SUFFIX\na.\nb :- c.\nc :- a.\n'),
    (54, NOT_FOUND, True, 29, None),
    (66, NOT_FOUND, True, 127, None),
    (70, NOT_FOUND, True, 32, None),
    (72, FOUND, False, 21, '% PREFIX\nb :- a.\nc.\nc :- c.\nd.\n\n% SUFFIX\na :- c.\nb :- b.\n'),
    (114, BUDGET_EXCEEDED, False, 201, None),
    (116, NOT_FOUND, True, 120, None),
    (196, NOT_FOUND, True, 46, None),
    (496, FOUND, False, 38, '% PREFIX\nc :- e.\nd :- c.\ne :- d.\nf.\n\n% SUFFIX\na :- b, f.\nb :- a.\nd :- b, e.\nf.\n'),
    (508, FOUND, False, 75, '% PREFIX\na.\na :- a.\nc :- c.\nf :- e.\n\n% SUFFIX\nc :- d.\nd :- f.\ne.\nf :- e.\n'),
]


class TestPinnedSearches:
    @pytest.mark.parametrize("seed,status,exhaustive,checks,cert", _PINNED_SEARCHES,
                             ids=[f"seed{c[0]}" for c in _PINNED_SEARCHES])
    def test_outcome_and_budget_checks(self, counting_clock, seed, status, exhaustive,
                                       checks, cert):
        p, r = _pinned_pair(seed)
        result = search_reduction(p, r, SearchBounds(time_budget=200))
        assert (result.status, result.exhaustive) == (status, exhaustive)
        (clock,) = counting_clock
        assert clock.checks == checks
        if cert is None:
            assert result.certificate is None
        else:
            text = certificate_to_text(result.certificate)
            assert text[text.index("% PREFIX"):] == cert
            assert verify(result.certificate)

    @pytest.mark.parametrize("n", [4, 8, 12, 16, 20])
    def test_self_reduction_of_facts(self, counting_clock, n):
        # P = {f0. ... f(n-1). b :- c.} against itself.  The base facts are
        # interchangeable in every prefix body, so each of the n + 1 target
        # rules tries two sets of base heads, the empty one and {b}, and the
        # assembly enters one node per target rule and the finished one.
        # Trying every set of base facts took 4,618 checks at n = 8 and
        # over 100,000 at n = 12.
        p = parse_program("".join(f"f{i}.\n" for i in range(n)) + "b :- c.")
        result = search_reduction(p, p, SearchBounds(time_budget=200))
        assert result.status == FOUND
        (clock,) = counting_clock
        assert clock.checks == 3 * n + 4
        assert verify(result.certificate)

    def test_self_reduction_with_many_rejections(self, counting_clock):
        # Every depth after the first has 396 options; the assembly tries
        # about 4,400 of them to enter 48 nodes.
        p = parse_program(_SELF_14)
        result = search_reduction(p, p, SearchBounds(time_budget=200))
        assert result.status == FOUND
        (clock,) = counting_clock
        assert clock.checks == 48
        text = certificate_to_text(result.certificate)
        assert text[text.index("% PREFIX"):] == (
            "% PREFIX\na42 :- a42.\na58 :- a58.\na9 :- a9.\n\n"
            "% SUFFIX\na36 :- a36.\na42 :- a42.\na58 :- a58.\na9 :- a9.\n")
        assert verify(result.certificate)

    def test_all_outcomes_pinned(self):
        outcomes = {(status, exhaustive) for _, status, exhaustive, _, _ in _PINNED_SEARCHES}
        assert outcomes == {(FOUND, False), (NOT_FOUND, True), (BUDGET_EXCEEDED, False)}

    def test_body_extension_counterexample_exhaustive(self):
        # P against its body extension by I = {a, c}, a seed-702 sample of
        # criterion 7b: no reduction exists, and the search must say so
        # exhaustively.
        p = parse_program("a :- b.\na :- d.\nb.\nc :- a, c.")
        extended = compose(p, body_plus(atoms("a", "c"), atoms("a", "b", "c", "d")))
        assert extended == parse_program("a :- a, b, c.\na :- a, c, d.\nb.\nc :- a, c.")
        result = search_reduction(p, extended)
        assert result.status == NOT_FOUND
        assert result.exhaustive


class TestMaskPipeline:
    # dense masks, and sparse ones whose few set bits lie anywhere in 5000
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.integers(min_value=0, max_value=(1 << 5000) - 1),
        st.sets(st.integers(min_value=0, max_value=4999), max_size=60)
        .map(lambda indices: sum(1 << i for i in indices))))
    def test_bits_are_the_set_bit_indices(self, mask):
        from seqhorn.decompose import _bits

        want = [i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]
        assert list(_bits(mask)) == want

    def test_leak_test_matches_composition(self):
        # _unions must build the bodies that composing the ground programs
        # its masks stand for emits: those of a mid rule under a suffix,
        # which the leak test compares with the targets, and the mid bodies
        # of a prefix rule h :- beta under a base R.
        from seqhorn.decompose import _bits, _unions

        def body(mask):
            return [Atom(f"x{c}") for c in _bits(mask)]

        def emitted(mask, by_head):
            rules = Program(make_rule(Atom(f"x{c}"), body(w))
                            for c, ws in by_head.items() for w in ws)
            composed = compose(Program([make_rule(Atom("h"), body(mask))]), rules)
            return {sum(1 << int(a.pred[1:]) for a in rule.body) for rule in composed}

        rng = random.Random(45)
        rng_r = random.Random(46)
        verdicts = set()
        for _ in range(2000):
            mid = rng.randrange(64)
            by_head = {}
            for _ in range(rng.randint(0, 10)):
                by_head.setdefault(rng.randrange(6), []).append(rng.randrange(16))
            targets = {rng.randrange(16) for _ in range(rng.randint(0, 14))}
            unions = _unions(mid, {c: tuple(ws) for c, ws in by_head.items()})
            assert unions == emitted(mid, by_head)
            verdicts.add((not unions <= targets, bool(unions)))
            # a random propositional R over x0..x5, and beta a set of its heads
            by_head_r = {}
            for _ in range(rng_r.randint(1, 8)):
                by_head_r.setdefault(rng_r.randrange(6), []).append(rng_r.randrange(64))
            beta = sum(1 << c for c in by_head_r if rng_r.random() < 0.6)
            assert _unions(beta, by_head_r) == emitted(beta, by_head_r)
        assert verdicts == {(True, True), (False, True), (False, False)}


class TestSimilar:
    def test_body_edit_pair(self):
        p = parse_program("a.\nb :- a.")
        r = parse_program("a.\nb :- a, b.")
        result = similar(p, r)
        assert result.outcome == SIMILAR
        assert verify(result.forward.certificate)
        assert verify(result.backward.certificate)

    def test_interpretations_always_similar(self):
        rng = random.Random(43)
        from seqhorn import interpretation
        from conftest import random_interpretation

        for _ in range(20):
            i = interpretation(random_interpretation(rng))
            j = interpretation(random_interpretation(rng))
            assert similar(i, j).outcome == SIMILAR

    def test_strict_direction(self):
        result = similar(PI, parse_program("a :- b.\nb :- b."))
        assert result.outcome == RIGHT_BELOW

    def test_left_below(self):
        result = similar(parse_program("a :- b.\nb :- b."), PI)
        assert result.outcome == LEFT_BELOW

    def test_max_body_clip_not_strict(self):
        # Forward, the 3-atom body is out of reach at max_body 1, but not
        # definitively, so the found backward direction gives no R<P.
        p = parse_program("a :- x, y, z.")
        r = parse_program("b :- c.")
        assert similar(p, r).outcome == SIMILAR
        assert similar(p, r, SearchBounds(max_body=1)).outcome == INCOMPARABLE

    def test_equal_programs_searched_once(self, counting_clock):
        p, r = parse_program(_SELF_14), parse_program(_SELF_14)
        result = similar(p, r, SearchBounds(time_budget=200))
        assert result.outcome == SIMILAR
        assert len(counting_clock) == 1
        assert result.backward.certificate.target is r
        assert result.backward.certificate.base is p
        assert verify(result.forward.certificate)
        assert verify(result.backward.certificate)

    def test_incomparable_under_tight_bounds(self):
        p = parse_program("a :- b, c.\nd :- b.")
        r = parse_program("a :- c.\nq :- c.")
        bounds = SearchBounds(max_body=0, time_budget=5.0)
        result = similar(p, r, bounds)
        assert result.outcome == INCOMPARABLE


class TestSerialization:
    def test_round_trip(self, plus, append, q_plus_append, s_plus_append):
        cert = ReductionCertificate(append, plus, q_plus_append, s_plus_append)
        text = certificate_to_text(cert)
        back = certificate_from_text(text)
        assert back == cert

    def test_search_output_parses_and_verifies(self, tmp_path):
        import subprocess
        import sys

        target = tmp_path / "t.lp"
        base = tmp_path / "b.lp"
        target.write_text("c.\na :- b, c.\nb :- a, c.\n")
        base.write_text("a :- b.\nb :- a.\n")
        out = subprocess.run(
            [sys.executable, "-m", "seqhorn", "search",
             "--target", str(target), "--base", str(base)],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        cert = certificate_from_text(out.stdout)
        assert cert.target == P_SWAP
        assert cert.base == PI
        assert verify(cert)

    def test_parse_error_line_counts_from_file_start(self):
        from seqhorn import ParseError

        text = "% TARGET\na.\n% BASE\nb.\n% PREFIX\nc.\n% SUFFIX\nd :- e\n"
        with pytest.raises(ParseError) as err:
            certificate_from_text(text, "cert.txt")
        assert str(err.value).startswith("cert.txt:8:7: ")

    @pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028", "\r"])
    def test_only_newlines_end_lines(self, sep):
        from seqhorn import ParseError

        text = f"% TARGET\na.{sep}b.\n% BASE\nb.\n% PREFIX\nc.\n% SUFFIX\nd :- e\n"
        with pytest.raises(ParseError) as err:
            certificate_from_text(text, "c.txt")
        assert str(err.value).startswith("c.txt:8:7: ")

    def test_missing_section_rejected(self):
        from seqhorn import ParseError

        with pytest.raises(ParseError):
            certificate_from_text("% TARGET\na.\n% BASE\nb.\n")

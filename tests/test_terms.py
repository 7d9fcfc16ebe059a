"""Unification, substitution application and canonical forms."""

import random
from itertools import permutations, product
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import seqhorn.programs
from seqhorn import (
    Atom,
    CanonicalFormBudgetError,
    Compound,
    Const,
    Rule,
    Var,
    canonicalize,
    make_rule,
    parse_program,
    rename_fresh,
    unify,
    unify_pairs,
)
from seqhorn.syntax import term_to_text
from seqhorn.programs import subst_rule
from seqhorn.terms import (
    FreshVars,
    atom_is_ground,
    subst_atom,
    subst_term,
    term_is_ground,
    term_key,
    term_var_order,
    term_vars,
)


def pa(text: str) -> Atom:
    """Parse a single atom via a one-fact program."""
    prog = parse_program(text + ".")
    (rule,) = prog.rules
    return rule.head


def _raw_atom(text: str) -> Atom:
    # parse without canonical renaming: wrap as query goal
    from seqhorn import parse_query

    (goal,) = parse_query("?- " + text + ".").goals
    return goal


class TestUnify:
    def test_identity(self):
        a = _raw_atom("p(X)")
        assert unify(a, a) == {}

    def test_entangled_plus(self):
        a = _raw_atom("plus(s(X),Y,s(Z))")
        b = _raw_atom("plus(s([]),[b,c],s([b,c]))")
        theta = unify(a, b)
        bc = Compound(".", (Const("b"), Compound(".", (Const("c"), Const("[]")))))
        assert theta == {"X": Const("[]"), "Y": bc, "Z": bc}

    def test_predicate_mismatch(self):
        assert unify(_raw_atom("p(X)"), _raw_atom("q(X)")) is None

    def test_occurs_check(self):
        assert unify(_raw_atom("p(X)"), _raw_atom("p(f(X))")) is None

    def test_arity_mismatch(self):
        assert unify(_raw_atom("p(X)"), _raw_atom("p(X,Y)")) is None

    def test_soundness_and_idempotence(self):
        rng = random.Random(7)
        cases = 0
        for _ in range(500):
            a = _random_atom(rng)
            b = _random_atom(rng)
            theta = unify(a, b)
            if theta is None:
                continue
            cases += 1
            assert subst_atom(a, theta) == subst_atom(b, theta)
            again = {k: subst_term(v, theta) for k, v in theta.items()}
            assert again == theta
        assert cases > 50

    @pytest.mark.parametrize("a,b,want", [
        ("p(X, Y)", "p(Z, g(W))", {"X": "f(g(W))", "Y": "g(W)", "Z": "f(g(W))"}),
        ("p(Y, Z, X)", "p(a, b, f(c))", None),  # clash after two bindings
        ("p(Z, Y)", "p(a, g(X))", None),  # occurs check after a binding: Y = g(f(Y))
    ])
    def test_caller_substitution_unchanged(self, a, b, want):
        # compose extends a stack of substitutions and backtracks into them
        s = {"X": Compound("f", (Var("Y"),))}
        theta = unify(_raw_atom(a), _raw_atom(b), s)
        assert s == {"X": Compound("f", (Var("Y"),))}
        if want is None:
            assert theta is None
        else:
            assert {k: term_to_text(v) for k, v in theta.items()} == want


class TestUnifyPairs:
    def test_empty(self):
        assert unify_pairs([]) == {}

    def test_shared_variable(self):
        # Martelli-Montanari by hand: x=a from the first pair, then q(a)=q(y)
        # forces y=a.
        pairs = [(_raw_atom("p(X)"), _raw_atom("p(a)")),
                 (_raw_atom("q(X)"), _raw_atom("q(Y)"))]
        assert unify_pairs(pairs) == {"X": Const("a"), "Y": Const("a")}

    def test_conflict(self):
        pairs = [(_raw_atom("p(X)"), _raw_atom("p(a)")),
                 (_raw_atom("p(X)"), _raw_atom("p(b)"))]
        assert unify_pairs(pairs) is None


def _random_term(rng, depth=2):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return rng.choice([Const("k"), Const("m"), Var("X"), Var("Y")])
    functor = rng.choice(["f", "g"])
    arity = rng.randint(1, 2)
    return Compound(functor, tuple(_random_term(rng, depth - 1) for _ in range(arity)))


def _random_atom(rng, depth=2):
    return Atom("p", tuple(_random_term(rng, depth) for _ in range(rng.randint(0, 2))))


def _enumerate_ground_terms(max_depth):
    # universe over constants {k,m} and unary f, binary g, nesting <= max_depth
    level = [Const("k"), Const("m")]
    out = list(level)
    for _ in range(max_depth):
        nxt = []
        for t in out:
            nxt.append(Compound("f", (t,)))
        for a, b in product(out, repeat=2):
            nxt.append(Compound("g", (a, b)))
        out = list(dict.fromkeys(out + nxt))
    return out


def test_mgu_generality_against_instance_enumeration():
    # whenever two atoms have a common ground instance in a small universe,
    # unify must succeed
    rng = random.Random(11)
    universe = _enumerate_ground_terms(1)
    hits = 0
    for _ in range(800):
        a = _random_atom(rng, depth=1)
        b = _random_atom(rng, depth=1)
        if atom_is_ground(a) and atom_is_ground(b):
            continue
        common = _has_common_instance(a, b, universe)
        if common:
            hits += 1
            assert unify(a, b) is not None
    assert hits > 20


def _has_common_instance(a, b, universe):
    names = sorted(set().union(*[_names(x) for x in (a, b)]))
    if len(names) > 3:
        return False
    for combo in product(universe, repeat=len(names)):
        s = dict(zip(names, combo))
        if subst_atom(a, s) == subst_atom(b, s):
            return True
    return False


def _names(a):
    from seqhorn.terms import atom_vars

    return atom_vars(a)


class TestSubstitution:
    def test_simple(self):
        a = _raw_atom("p(X,Y)")
        assert subst_atom(a, {"X": Const("a")}) == _raw_atom("p(a,Y)")

    def test_empty_identity(self):
        r = make_rule(_raw_atom("p(X)"), [_raw_atom("q(X)")])
        assert subst_rule(r, {}) == r

    def test_structural(self):
        a = _raw_atom("nat(s(X))")
        out = subst_atom(a, {"X": Compound("s", (Var("Y"),))})
        assert out == _raw_atom("nat(s(s(Y)))")

    def test_term(self):
        t = Compound("s", (Var("X"),))
        assert subst_term(t, {"X": Const("0")}) == Compound("s", (Const("0"),))
        assert subst_term(Var("Y"), {"X": Const("0")}) == Var("Y")

    def test_rule_resorts_body(self):
        r = make_rule(_raw_atom("p(X)"), [_raw_atom("q(X)"), _raw_atom("q(b)")])
        out = subst_rule(r, {"X": Const("a")})
        assert out == make_rule(_raw_atom("p(a)"), [_raw_atom("q(a)"), _raw_atom("q(b)")])


class TestRenameFresh:
    def test_alpha_variant(self):
        r = make_rule(_raw_atom("nat(s(X))"), [_raw_atom("nat(X)")])
        pool = FreshVars()
        variant = rename_fresh(r, pool)
        assert variant != r
        assert canonicalize(variant) == canonicalize(r)

    def test_successive_calls_disjoint(self):
        from seqhorn.programs import rule_vars

        r = make_rule(_raw_atom("p(X,Y)"), [_raw_atom("q(X)")])
        pool = FreshVars()
        v1, v2 = rename_fresh(r, pool), rename_fresh(r, pool)
        assert not rule_vars(v1) & rule_vars(v2)

    def test_ground_rule_unchanged(self):
        r = make_rule(_raw_atom("p(a)"), [_raw_atom("q(b)")])
        assert rename_fresh(r, FreshVars()) == r


class TestCanonicalize:
    def test_shared_variable_rule(self):
        r = make_rule(_raw_atom("p(Y)"), [_raw_atom("q(Y)"), _raw_atom("r(Y)")])
        c = canonicalize(r)
        v1 = Var("v1")
        assert c == Rule(Atom("p", (v1,)),
                         (Atom("q", (v1,)), Atom("r", (v1,))))

    def test_alpha_variants_coincide(self):
        r1 = make_rule(_raw_atom("p(X,Y)"), [_raw_atom("q(Y,X)")])
        r2 = make_rule(_raw_atom("p(U,W)"), [_raw_atom("q(W,U)")])
        assert canonicalize(r1) == canonicalize(r2)

    def test_append_rule_stable(self):
        r = make_rule(_raw_atom("append([U|X],Y,[U|Z])"), [_raw_atom("append(X,Y,Z)")])
        once = canonicalize(r)
        assert canonicalize(once) == once

    def test_large_same_shape_group_stays_idempotent(self):
        # 9 atoms of one shape have 9! body orderings; the search that
        # branches only on ties must still reach a fixpoint
        names = [f"X{i}" for i in range(9)]
        body = [Atom("q", (Var(a), Var(b)))
                for a, b in zip(names, names[1:] + names[:1])]
        rule = make_rule(Atom("p"), body)
        once = canonicalize(rule)
        assert canonicalize(once) == once

    def test_matches_enumeration_beyond_seven_factorial(self):
        # 8 atoms of one shape: all 8! = 40320 orderings enumerated
        rng = random.Random(808)
        vs = [Var(f"X{i}") for i in range(6)]
        body = set()
        while len(body) < 8:
            body.add(Atom("e", (rng.choice(vs), rng.choice(vs))))
        rule = make_rule(Atom("h", (vs[0],)), body)
        assert canonicalize(rule) == _canonicalize_by_enumeration(rule, cap=None)

    def test_alpha_variants_of_large_groups_coincide(self):
        # 8-10 same-shape e(X,Y) atoms: beyond 7! orderings per group
        rng = random.Random(2021)
        for _ in range(200):
            vs = [f"X{i}" for i in range(rng.randint(3, 8))]
            body = [Atom("e", (Var(rng.choice(vs)), Var(rng.choice(vs))))
                    for _ in range(rng.randint(8, 10))]
            rule = make_rule(Atom("h", (Var(vs[0]), Var(vs[1]))), body)
            variant = _renamed_shuffled(rule, rng)
            assert canonicalize(variant) == canonicalize(rule)

    @pytest.mark.parametrize("body,cap", [
        ([(f"X{i}", f"Y{i}") for i in range(20)], 5_000),  # pairwise disjoint
        ([(f"X{i}", f"X{(i + 1) % 40}") for i in range(40)], 7_000),  # one cycle
        ([(f"A{i}_{j}", f"A{i}_{(j + 1) % 3}") for i in range(20) for j in range(3)],
         20_000),
        ([(f"K{i}_{a}", f"K{i}_{b}") for i in range(8)
          for a in range(4) for b in range(4) if a != b], 100_000),
    ], ids=["disjoint-20", "cycle-40", "triangles-20", "complete-4-8"])
    def test_symmetric_worst_cases(self, body, cap, monkeypatch):
        # Each cap is 1.5-5 times the work the search needs.  Pruning by
        # swapping two atoms' fresh variables alone misses the cycle's
        # rotations (9k work) and moves between components: m disjoint
        # triangles or complete digraphs then leave 2^m sets to place.
        monkeypatch.setattr(seqhorn.programs, "_CANON_WORK_CAP", cap)
        rule = make_rule(Atom("p"), [Atom("e", (Var(x), Var(y))) for x, y in body])
        once = canonicalize(rule)
        assert canonicalize(once) == once
        assert canonicalize(_renamed_shuffled(rule, random.Random(40))) == once

    def test_work_cap_raises_resource_error(self, monkeypatch):
        monkeypatch.setattr(seqhorn.programs, "_CANON_WORK_CAP", 5)
        cycle = [Atom("e", (Var(f"X{i}"), Var(f"X{(i + 1) % 6}"))) for i in range(6)]
        with pytest.raises(CanonicalFormBudgetError):
            canonicalize(make_rule(Atom("p"), cycle))


def _renamed_shuffled(rule: Rule, rng: random.Random) -> Rule:
    """An alpha-variant of ``rule`` with fresh names and a shuffled body."""
    from seqhorn.programs import rule_vars

    names = sorted(rule_vars(rule))
    fresh = rng.sample(range(1000), len(names))
    ren = {n: Var(f"W{f}") for n, f in zip(names, fresh)}
    body = [subst_atom(a, ren) for a in rule.body]
    rng.shuffle(body)
    return Rule(subst_atom(rule.head, ren), tuple(body))


def _canonicalize_by_enumeration(rule: Rule, cap: int | None = 5040) -> Rule | None:
    """The canonical form by brute force: every ordering of each same-shape
    body group is renamed in first-occurrence order and the least
    ``rule_key`` wins.  None when the orderings number more than ``cap``."""
    from seqhorn.programs import rule_key
    from seqhorn.terms import atom_key

    def first_occurrence(t, seen):
        if isinstance(t, Var):
            seen.setdefault(t.name)
        elif isinstance(t, Compound):
            for arg in t.args:
                first_occurrence(arg, seen)

    groups: dict = {}
    for a in sorted(set(rule.body), key=atom_key):
        groups.setdefault(atom_key(a, named_vars=False), []).append(a)
    groups = [groups[k] for k in sorted(groups)]
    if cap is not None and prod(factorial(len(g)) for g in groups) > cap:
        return None
    best = None
    for arrangement in product(*(permutations(g) for g in groups)):
        body = tuple(a for g in arrangement for a in g)
        seen: dict = {}
        for a in (rule.head, *body):
            for t in a.args:
                first_occurrence(t, seen)
        ren = {n: Var(f"v{i}") for i, n in enumerate(seen, start=1)}
        cand = Rule(subst_atom(rule.head, ren), tuple(subst_atom(a, ren) for a in body))
        if best is None or rule_key(cand) < rule_key(best):
            best = cand
    return best


_term_strategy = st.deferred(
    lambda: st.one_of(
        st.sampled_from([Const("k"), Const("m")]),
        st.sampled_from([Var("X"), Var("Y"), Var("Z")]),
        st.builds(lambda *a: Compound("f", a),
                  _term_strategy),
        st.builds(lambda *a: Compound("g", a),
                  _term_strategy, _term_strategy),
    )
)

_atom_strategy = st.builds(
    lambda pred, args: Atom(pred, tuple(args)),
    st.sampled_from(["p", "q"]),
    st.lists(_term_strategy, max_size=2),
)

_rule_strategy = st.builds(
    lambda head, body: make_rule(head, body),
    _atom_strategy,
    st.lists(_atom_strategy, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(_rule_strategy)
def test_canonicalize_idempotent(rule):
    once = canonicalize(rule)
    assert canonicalize(once) == once


@settings(max_examples=200, deadline=None)
@given(_rule_strategy, st.permutations(["X", "Y", "Z"]))
def test_canonicalize_alpha_invariant(rule, perm):
    mapping = dict(zip(["X", "Y", "Z"], perm))
    renamed = subst_rule(rule, {k: Var("tmp_" + v) for k, v in mapping.items()})
    renamed = subst_rule(renamed, {"tmp_" + v: Var(v) for v in mapping.values()})
    assert canonicalize(renamed) == canonicalize(rule)


_tied_atom_strategy = st.builds(
    lambda pred, args: Atom(pred, tuple(args)),
    st.sampled_from(["e", "p"]),
    st.lists(st.one_of(st.sampled_from([Var(f"X{i}") for i in range(12)]),
                       st.just(Const("k"))),
             min_size=1, max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([Var(f"X{i}") for i in range(12)]), max_size=2),
       st.lists(_tied_atom_strategy, max_size=8))
def test_canonicalize_matches_enumeration(head_vars, body):
    # same-shape groups of at most 7! orderings, where brute force is cheap
    rule = make_rule(Atom("h", tuple(head_vars)), body)
    want = _canonicalize_by_enumeration(rule)
    assume(want is not None)
    assert canonicalize(rule) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_atom_strategy, _atom_strategy), max_size=4))
def test_unify_pairs_is_a_fold_of_unify(pairs):
    want: dict | None = {}
    for a, b in pairs:
        want = unify(a, b, want)
        if want is None:
            break
    assert unify_pairs(pairs) == want


@settings(max_examples=150, deadline=None)
@given(_atom_strategy, _atom_strategy)
def test_unify_produces_idempotent_unifier(a, b):
    theta = unify(a, b)
    if theta is not None:
        assert subst_atom(a, theta) == subst_atom(b, theta)
        assert subst_atom(subst_atom(a, theta), theta) == subst_atom(a, theta)


class TestDeepTerms:
    # 100,000 levels: every operation must work without recursion
    N = 100_000

    def chain(self, leaf):
        for _ in range(self.N):
            leaf = Compound("s", (leaf,))
        return leaf

    def test_equality_and_hash(self):
        x, y = self.chain(Const("0")), self.chain(Const("0"))
        assert x == y and hash(x) == hash(y)
        assert x != self.chain(Const("1"))

    def test_substitution_and_unification(self):
        x, y = self.chain(Var("X")), self.chain(Const("0"))
        assert unify(Atom("p", (x,)), Atom("p", (y,))) == {"X": Const("0")}
        assert subst_term(x, {"X": Const("0")}) == y
        assert unify(Atom("p", (Var("X"),)), Atom("p", (x,))) is None  # occurs check

    def test_printing(self):
        assert term_to_text(self.chain(Const("0"))) == "s(" * self.N + "0" + ")" * self.N

    def test_variables_groundness_and_keys(self):
        x, y = self.chain(Var("X")), self.chain(Const("0"))
        order: dict[str, None] = {}
        term_var_order(Compound("f", (Var("Y"), x, Var("Z"), x)), order)
        assert list(order) == ["Y", "X", "Z"] and term_vars(x) == {"X"}
        assert not term_is_ground(x) and term_is_ground(y)
        assert term_key(x) < term_key(y) == term_key(self.chain(Const("0")))

    def test_canonical_form_of_deep_same_shape_atoms(self):
        # swapping X and Y maps each body atom to the other, so the search
        # matches the 5000-deep terms to prune the second choice
        def deep(v):
            for _ in range(5000):
                v = Compound("s", (v,))
            return v

        x, y, v1, v2 = Var("X"), Var("Y"), Var("v1"), Var("v2")
        rule = make_rule(Atom("h"), [Atom("p", (x, deep(y))), Atom("p", (y, deep(x)))])
        want = Rule(Atom("h"), (Atom("p", (v1, deep(v2))), Atom("p", (v2, deep(v1)))))
        assert canonicalize(rule) == want


def _nested_term_key(t, named_vars=True):
    """The key ``term_key`` computed before its keys were flat: a compound
    term's key nests its arguments' keys."""
    if isinstance(t, Var):
        return (0, t.name if named_vars else "")
    if isinstance(t, Const):
        return (1, t.name)
    return (2, t.functor, len(t.args), tuple(_nested_term_key(a, named_vars) for a in t.args))


# The functors f and g each with arity 1 and 2, so that keys differ in the
# functor, in the arity and in the arguments.
_keyed_term_strategy = st.recursive(
    st.sampled_from([Const("k"), Const("m"), Var("X"), Var("Y")]),
    lambda sub: st.builds(Compound, st.sampled_from(["f", "g"]),
                          st.lists(sub, min_size=1, max_size=2).map(tuple)),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_keyed_term_strategy, min_size=2, max_size=6), st.booleans())
def test_flat_term_key_orders_as_nested_key(terms, named_vars):
    for a in terms:
        for b in terms:
            ka, kb = term_key(a, named_vars), term_key(b, named_vars)
            na, nb = _nested_term_key(a, named_vars), _nested_term_key(b, named_vars)
            assert (ka > kb) - (ka < kb) == (na > nb) - (na < nb)


def test_subst_term_shares_unchanged_subterms():
    ground = Compound("g", (Const("a"),))
    t = Compound("f", (ground, Var("X")))
    out = subst_term(t, {"X": Const("b")})
    assert out == Compound("f", (ground, Const("b"))) and out.args[0] is ground
    assert subst_term(t, {"Y": Const("b")}) is t


def test_compound_requires_args():
    with pytest.raises(ValueError):
        Compound("f", ())

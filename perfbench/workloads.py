"""Seeded job lists for the four workloads.

Each workload is a fixed list of seqhorn CLI invocations over input files
generated from the seed.  The job list's length and the sizes of its scaling
families do not depend on the seed, nor do the kinds and sizes of the small
jobs or the shapes of the graphs; list elements, symbol names, the order of
graph nodes and random programs do.  Every job carries a checker built from
``reference`` alone, so seqhorn never produces an expected output.

The inputs that hit a known defect come from a generator with a fixed seed
instead: the alpha-renamed verify jobs of ``compose`` and the random pairs and
self-similarity jobs of ``search``.  How many of them fail differs from one
draw to the next, so drawing them from ``--seed`` would make the failure
count of a set of runs depend on which seeds it used.  Every seed fails on
the same jobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import reference as ref
from reference import CONS, NIL, make_list, numeral, rule

WORKLOADS = ("resolve", "compose", "ground", "search")

# Budgets of the search and similar jobs.  The benchmark runs searches on a
# step clock (``run.StepClock``): each budget check a search makes counts as
# one millisecond, so a budget of 0.05 allows 50 checks whatever the speed of
# the machine.  The random pairs and the self-similarity jobs get
# PAIR_BUDGET; about 45% of them run past it.  The planted and facts searches
# and the similar jobs on facts, whose answers are known, get KNOWN_BUDGET;
# on seeds 1-30 none needed more than 52 checks.
PAIR_BUDGET = "0.05"
KNOWN_BUDGET = "1"

# A known defect a job may hit.  Such a job's wrong answer counts as failed
# and is attributed here instead of making the run incorrect.
CANON_FALLBACK = "canon-fallback"
SEARCH_BUDGET_HIT = "search-budget"
DEFECTS = {
    CANON_FALLBACK: "verify compares best-effort canonical forms of rules with "
                    "over 7! same-shape body orderings (ROADMAP item 4)",
    SEARCH_BUDGET_HIT: "search or similar undecided within its budget (ROADMAP item 5)",
}


@dataclass
class Job:
    name: str
    argv: list[str]  # arguments starting with "@" name a generated file
    check: Callable[[int, str], str | None]
    family: str | None = None
    size: int | None = None
    defect: str | None = None


@dataclass
class Workload:
    name: str
    files: dict[str, str] = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)

    def file(self, name: str, rules) -> str:
        self.files[name] = ref.program_text(rules)
        return "@" + name

    def add(self, name, argv, check, **kw) -> None:
        self.jobs.append(Job(name, argv, check, **kw))


def generate(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    wl = Workload(name)
    _GENERATORS[name](wl, random.Random(f"{name}:{seed}"))
    return wl


# ---------------------------------------------------------------------------
# Programs shared by several workloads

APPEND = [
    rule(("append", NIL, "Y", "Y")),
    rule(("append", (CONS, "H", "T"), "Y", (CONS, "H", "Z")), [("append", "T", "Y", "Z")]),
]
MEMBER = [
    rule(("member", "U", (CONS, "U", "X"))),
    rule(("member", "U", (CONS, "V", "X")), [("member", "U", "X")]),
]
NAT = [rule(("nat", "0")), rule(("nat", ("s", "X")), [("nat", "X")])]
LOOP = [rule(("loop", "X"), [("loop", ("s", "X"))])]
PLUS = [
    rule(("plus", "0", "Y", "Y")),
    rule(("plus", ("s", "X"), "Y", ("s", "Z")), [("plus", "X", "Y", "Z")]),
]
# Append as produced by routing plus through the bridges: list elements are
# not compared, only lengths and the shared tail.
LEN_APPEND = [
    rule(("append", NIL, "Y", "Y")),
    rule(("append", (CONS, "U", "X"), "Y", (CONS, "V", "Z")), [("append", "X", "Y", "Z")]),
]
Q_PLUS_APPEND = [
    rule(("append", NIL, "Y", "Y"), [("plus", "0", "Y", "Y")]),
    rule(("append", (CONS, "U", "X"), "Y", (CONS, "V", "Z")),
         [("plus", ("s", "X"), "Y", ("s", "Z"))]),
]
S_PLUS_APPEND = [rule(("plus", "X", "Y", "Z"), [("append", "X", "Y", "Z")])]
Q_MEMBER_APPEND = [
    rule(("member", "U", (CONS, "U", "X"))),
    rule(("member", "U", (CONS, "V", "X")), [("append", (CONS, "V", "X"), "U", (CONS, "V", "X"))]),
]
S_MEMBER_APPEND = [rule(("append", "X", "Y", "Z"), [("member", "Y", "X")])]


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in rng.sample(range(10 * n + 10), n)]


# ---------------------------------------------------------------------------
# resolve: sld and xsld


def _outcome(outcome: str):
    return partial(ref.check_text, want_rc=ref.OUTCOME_RC[outcome], want=outcome + "\n")


def _resolve(wl: Workload, rng: random.Random) -> None:
    app = wl.file("append.lp", APPEND)
    mem = wl.file("member.lp", MEMBER)
    nat = wl.file("nat.lp", NAT)
    loop = wl.file("loop.lp", LOOP)
    # Unrelated rules come first, so every resolution step tries them all.
    noise = [rule((f"u{i}", "X"), [(f"v{i}", "X")]) for i in rng.sample(range(1000), 200)]
    app_noise = wl.file("append_noise.lp", noise + APPEND)
    prefix = wl.file("q_plus_append.lp", Q_PLUS_APPEND)
    base = wl.file("plus.lp", PLUS)
    suffix = wl.file("s_plus_append.lp", S_PLUS_APPEND)

    def append_query(n: int, true: bool):
        xs, ys = _names(rng, "k", n), _names(rng, "m", 3)
        zs = xs + ys if true else xs + ys[:-1] + ["zz"]
        return ("append", make_list(xs), make_list(ys), make_list(zs))

    def member_query(n: int, true: bool):
        xs = _names(rng, "k", n)
        return ("member", xs[-1] if true else "zz", make_list(xs))

    def nat_query(n: int, true: bool):
        return ("nat", numeral(n, "0" if true else rng.choice(["a", "b", "c"])))

    def sld_job(tag, program, goal, true, **kw):
        wl.add(tag, ["sld", program, ref.query_text([goal])],
               _outcome("refutation" if true else "failed"), **kw)

    for n in (25, 50, 100):
        for true in (True, False):
            t = "true" if true else "false"
            sld_job(f"append-{t}-{n}", app, append_query(n, true), true,
                    **({"family": "sld.append", "size": n} if true else {}))
            sld_job(f"member-{t}-{n}", mem, member_query(n, true), true)
            sld_job(f"nat-{t}-{n}", nat, nat_query(n, true), true)
    for d in (50, 100, 200):
        wl.add(f"loop-{d}", ["sld", loop, "?- loop(0).", "--depth", str(d)],
               _outcome("depth-exceeded"), family="sld.loop", size=d)
    for n in (10, 20, 40):
        sld_job(f"append-noise-{n}", app_noise, append_query(n, True), True)
    for n in (10, 20, 40):
        for true in (True, False):
            xs, ys = _names(rng, "k", n), _names(rng, "m", 3)
            zs = _names(rng, "j", n) + ys
            if not true:
                zs[-1] = "zz"
            goal = ("append", make_list(xs), make_list(ys), make_list(zs))
            wl.add(f"xsld-{'true' if true else 'false'}-{n}",
                   ["xsld", ref.query_text([goal]), "--prefix", prefix, "--base", base,
                    "--suffix", suffix],
                   _outcome("refutation" if true else "failed"),
                   **({"family": "sld.xsld", "size": n} if true else {}))
    traced = [(APPEND, app, "Append", append_query(rng.randint(2, 5), True)) for _ in range(3)]
    traced += [(MEMBER, mem, "Member", member_query(rng.randint(2, 6), True)),
               (NAT, nat, "Nat", nat_query(rng.randint(2, 6), True))]
    for i, (program, path, label, goal) in enumerate(traced):
        wl.add(f"trace-{i}", ["sld", path, ref.query_text([goal]), "--trace"],
               partial(ref.check_trace, program=program, label=label, goals=[goal]))
    makers = {"append": (app, append_query), "member": (mem, member_query), "nat": (nat, nat_query)}
    # The seed picks the elements of the small jobs, not their kinds, sizes or
    # truth, so that every seed asks for about the same work.
    for i in range(75):
        kind = sorted(makers)[i % 3]
        path, make = makers[kind]
        true = i % 2 == 0
        sld_job(f"small-{i}-{kind}", path, make(4 + i % 5, true), true)


# ---------------------------------------------------------------------------
# compose: compose, verify, dual and width on first-order programs


def _renamed_shuffled(r, rng: random.Random):
    names = ref.rule_vars(r)
    fresh = [f"W{i}" for i in rng.sample(range(100), len(names))]
    head, body = ref.rename_rule(r, dict(zip(names, fresh)))
    body = list(body)
    rng.shuffle(body)
    return rule(head, body)


_FO_PREDS = (("p", 1), ("q", 1), ("r", 2), ("e", 0))
_FO_TERMS = ("a", "b", "X", "Y")


def _random_fo_program(rng: random.Random, n_rules: int = 3, max_body: int = 2):
    def atom():
        pred, arity = rng.choice(_FO_PREDS)
        return (pred, *(rng.choice(_FO_TERMS) for _ in range(arity)))
    return [rule(atom(), [atom() for _ in range(rng.randint(0, max_body))])
            for _ in range(n_rules)]


def _compose_job(wl, tag, left, right, left_rules, right_rules, **kw):
    wl.add(tag, ["compose", left, right],
           lambda rc, out: ref.check_program(rc, out, ref.compose(left_rules, right_rules)), **kw)


def _verify_job(wl, tag, files, rules, **kw):
    target, base, prefix, suffix = files
    wl.add(tag, ["verify", "--target", target, "--base", base, "--prefix", prefix,
                 "--suffix", suffix],
           partial(ref.check_verify, target=rules[0], base=rules[1], prefix=rules[2],
                   suffix=rules[3]), **kw)


def _compose(wl: Workload, rng: random.Random) -> None:
    powers = range(4, 41, 4)  # the seed pairs them up
    for i, (a, b) in enumerate(zip(rng.sample(powers, 10), rng.sample(powers, 10))):
        left = [rule(("nat", numeral(a, "X")), [("nat", "X")])]
        right = [rule(("nat", numeral(b, "X")), [("nat", "X")])]
        _compose_job(wl, f"nat-power-{i}", wl.file(f"nat_a{i}.lp", left),
                     wl.file(f"nat_b{i}.lp", right), left, right)

    edge = [rule(("e", "X", "Y"), [("f", "X", "Y")])]
    edge_file = wl.file("edge.lp", edge)
    for k in range(2, 10):
        body = [("e", f"X{i}", f"X{i + 1}") for i in range(k)]
        rng.shuffle(body)
        path = [rule(("path", "X0", f"X{k}"), body)]
        _compose_job(wl, f"path-edge-{k}", wl.file(f"path{k}.lp", path), edge_file, path, edge)

    wide = [rule(("h", "X1", "X2", "X3"), [("p", "X1"), ("p", "X2"), ("p", "X3")])]
    wide_file = wl.file("wide.lp", wide)
    for m in (8, 16, 32):
        facts = [rule((f"q{i}", f"c{j}")) for i, j in zip(_names(rng, "", m), _names(rng, "", m))]
        facts.insert(rng.randrange(m + 1), rule(("p", "a")))
        _compose_job(wl, f"wide-body-{m}", wide_file, wl.file(f"facts{m}.lp", facts), wide,
                     facts, family="compose.wide_body", size=m)

    progs = {"plus": PLUS, "append": LEN_APPEND, "member": MEMBER,
             "q_plus_append": Q_PLUS_APPEND, "s_plus_append": S_PLUS_APPEND,
             "q_member_append": Q_MEMBER_APPEND, "s_member_append": S_MEMBER_APPEND}
    for bridge in ("q_plus_append", "s_plus_append", "q_member_append", "s_member_append"):
        progs["dual_" + bridge] = ref.dual(progs[bridge])
    files = {k: wl.file(k + ".lp", v) for k, v in progs.items()}
    certificates = [("append", "plus", "q_plus_append", "s_plus_append"),
                    ("plus", "append", "dual_q_plus_append", "dual_s_plus_append"),
                    ("member", "append", "q_member_append", "s_member_append"),
                    ("append", "member", "dual_q_member_append", "dual_s_member_append")]
    for target, base, prefix, suffix in certificates:
        names = (target, base, prefix, suffix)
        _verify_job(wl, f"verify-{target}-from-{base}", [files[n] for n in names],
                    [progs[n] for n in names])
        _compose_job(wl, f"compose-{prefix}-{base}", files[prefix], files[base],
                     progs[prefix], progs[base])
    for bridge in ("q_plus_append", "s_plus_append", "q_member_append", "s_member_append"):
        wl.add(f"dual-{bridge}", ["dual", files[bridge]],
               partial(ref.check_program, want_rules=progs["dual_" + bridge]))
    for prog in ("plus", "append", "member", "q_member_append"):
        wl.add(f"width-{prog}", ["width", files[prog]],
               partial(ref.check_text, want_rc=0, want=f"{ref.width(progs[prog])}\n"))

    # Verify jobs whose composition has 8 same-shape body atoms: the target is
    # an alpha-renamed, body-shuffled copy of that composition, so the
    # certificate holds, but program equality relies on the best-effort
    # canonical form beyond 7! body orderings.
    doubling = [rule(("e", "X", "Y"), [("f", "X", "Z"), ("f", "Z", "Y")])]
    relabel = [rule(("f", "X", "Y"), [("g", "X", "Y")])]
    doubling_file, relabel_file = wl.file("doubling.lp", doubling), wl.file("relabel.lp", relabel)
    fixed = random.Random("compose:defects")
    for i in range(20):
        vs = [f"X{j}" for j in range(5)]
        edges: list = []
        while len(edges) < 4:
            e = ("e", fixed.choice(vs), fixed.choice(vs))
            if e not in edges:
                edges.append(e)
        prefix = [rule(("h", vs[0], vs[1]), edges)]
        (composed,) = ref.compose(ref.compose(prefix, doubling), relabel)
        target = [_renamed_shuffled(composed, fixed)]
        rules = (target, doubling, prefix, relabel)
        _verify_job(wl, f"verify-shuffled-{i}",
                    [wl.file(f"shuffled_t{i}.lp", target), doubling_file,
                     wl.file(f"shuffled_q{i}.lp", prefix), relabel_file], rules,
                    defect=CANON_FALLBACK if ref.same_shape_permutations(composed) > 5040 else None)

    for i in range(50):
        left, right = _random_fo_program(rng), _random_fo_program(rng)
        _compose_job(wl, f"random-compose-{i}", wl.file(f"rl{i}.lp", left),
                     wl.file(f"rr{i}.lp", right), left, right)
    for i in range(15):
        p = _random_fo_program(rng)
        wl.add(f"random-dual-{i}", ["dual", wl.file(f"rd{i}.lp", p)],
               partial(ref.check_program, want_rules=ref.dual(p)))
        p = _random_fo_program(rng)
        wl.add(f"random-width-{i}", ["width", wl.file(f"rw{i}.lp", p)],
               partial(ref.check_text, want_rc=0, want=f"{ref.width(p)}\n"))


# ---------------------------------------------------------------------------
# ground: gnd, lm and tp


def _ground_jobs(wl, tag, rules, facts, depth=0, which=("gnd", "lm", "tp"), **kw) -> None:
    """``facts`` is the interpretation handed to tp; the checks ground with
    the reference grounder and run the reference least model."""
    path = wl.file(tag + ".lp", rules)
    dflag = ["--depth", str(depth)] if depth else []

    def grounded():
        return ref.ground(rules, depth)

    if "gnd" in which:
        wl.add(f"gnd-{tag}", ["gnd", path, *dflag],
               lambda rc, out: ref.check_ground_program(rc, out, grounded()),
               **kw.get("gnd", {}))
    if "lm" in which:
        wl.add(f"lm-{tag}", ["lm", path, *dflag],
               lambda rc, out: ref.check_atoms(rc, out, ref.least_model(grounded())),
               **kw.get("lm", {}))
    if "tp" in which:
        fpath = wl.file(tag + "_facts.lp", [rule(a) for a in facts])
        wl.add(f"tp-{tag}", ["tp", path, "--facts", fpath, *dflag],
               lambda rc, out: ref.check_atoms(
                   rc, out, ref.tp(ref.ground(rules, depth, facts), set(facts))))


def _ground(wl: Workload, rng: random.Random) -> None:
    for n in (100, 200, 400):
        names = [(a,) for a in _names(rng, "p", n + 1)]
        chain = [rule(names[0])] + [rule(names[i + 1], [names[i]]) for i in range(n)]
        facts = sorted(rng.sample(names, (n + 1) // 2))
        _ground_jobs(wl, f"chain{n}", chain, facts,
                     lm={"family": "semantics.chain", "size": n})
    nat_even = NAT + [rule(("even", "0")),
                      rule(("even", ("s", ("s", "X"))), [("even", "X")])]
    for d in (20, 40):
        facts = [(p, numeral(k)) for p in ("nat", "even")
                 for k in sorted(rng.sample(range(d + 1), d // 2))]
        _ground_jobs(wl, f"nat_even{d}", nat_even, facts, depth=d)
    # Graphs have a fixed shape; the seed only names and orders their nodes.
    for k in (8, 16, 32):
        consts = _names(rng, "c", k)
        edges = [("e", consts[i], consts[(i + j) % k]) for i in range(k) for j in (1, 3)]
        sym = [rule(("r", "X", "Y"), [("e", "X", "Y"), ("e", "Y", "X")])] + [rule(e) for e in edges]
        facts = [("e", consts[i], consts[(i + j) % k]) for i in range(k) for j in (1, k - 1)]
        _ground_jobs(wl, f"symmetric{k}", sym, facts,
                     gnd={"family": "programs.gnd", "size": k})
    for k in (4, 6, 8):
        consts = _names(rng, "c", k)
        edges = [("e", consts[i], consts[(i + 1) % k]) for i in range(k)]
        closure = [rule(("path", "X", "Y"), [("e", "X", "Y")]),
                   rule(("path", "X", "Z"), [("e", "X", "Y"), ("path", "Y", "Z")])]
        _ground_jobs(wl, f"closure{k}", closure + [rule(e) for e in edges], [], which=("lm",))
    for i in range(80):
        atoms = [(a,) for a in _names(rng, "a", 12)]
        prog = [rule(rng.choice(atoms), rng.sample(atoms, rng.randint(0, 3)))
                for _ in range(20)]
        facts = sorted(rng.sample(atoms, 4))
        _ground_jobs(wl, f"random{i}", prog, facts, which=(("gnd", "lm", "tp")[i % 3],))


# ---------------------------------------------------------------------------
# search: search and similar on propositional pairs


def _random_prop(rng, atoms, n_rules, max_body=2):
    return [rule(rng.choice(atoms), rng.sample(atoms, rng.randint(0, max_body)))
            for _ in range(n_rules)]


def _search_job(wl, tag, target, base, must, budget=KNOWN_BUDGET):
    t, b = ref.as_ground(target), ref.as_ground(base)
    wl.add(tag, ["search", "--target", wl.file(tag + "_target.lp", target),
                 "--base", wl.file(tag + "_base.lp", base), "--budget", budget],
           partial(ref.check_search, target=t, base=b, must=must), defect=SEARCH_BUDGET_HIT)


def _similar_job(wl, tag, left, right, want, budget=KNOWN_BUDGET):
    wl.add(tag, ["similar", wl.file(tag + "_left.lp", left), wl.file(tag + "_right.lp", right),
                 "--budget", budget],
           partial(ref.check_similar, want=want), defect=SEARCH_BUDGET_HIT)


def _search(wl: Workload, rng: random.Random) -> None:
    fixed = random.Random("search:defects")

    def atoms(n, gen=rng):
        return [(a,) for a in _names(gen, "a", n)]

    def proper_program(universe, gen=rng):
        while True:
            p = _random_prop(gen, universe, 4)
            if any(body for _, body in p):
                return p

    # Planted pairs are sized like the test suite's reducible ensembles.
    for i in range(120):
        universe = atoms(4)
        base = _random_prop(rng, universe, rng.randint(2, 3))
        prefix = _random_prop(rng, universe, rng.randint(1, 2))
        suffix = _random_prop(rng, universe, rng.randint(1, 2))
        target = ref.prop_compose(ref.prop_compose(ref.as_ground(prefix), ref.as_ground(base)),
                                  ref.as_ground(suffix))
        target = sorted((h, tuple(sorted(b))) for h, b in target)
        _search_job(wl, f"planted-{i}", target, base, "found")
    for i in range(20):
        universe = atoms(5)
        facts = [rule(a) for a in rng.sample(universe, 3)]
        _search_job(wl, f"facts-target-{i}", facts, proper_program(universe), "found")
        _search_job(wl, f"facts-base-{i}", proper_program(universe), facts, "not-found")
    for i in range(20):
        universe = atoms(5)
        i_facts = [rule(a) for a in rng.sample(universe, 3)]
        j_facts = [rule(a) for a in rng.sample(universe, 2)]
        p = proper_program(universe)
        _similar_job(wl, f"similar-facts-{i}", i_facts, j_facts, "similar")
        _similar_job(wl, f"similar-proper-facts-{i}", p, i_facts, "R<P")
        _similar_job(wl, f"similar-facts-proper-{i}", j_facts, p, "P<R")
    # The heavy tail: random pairs and programs compared with themselves.
    for n in (4, 5, 6):
        for i in range(20):
            universe = atoms(n, fixed)
            target = _random_prop(fixed, universe, 4)
            base = _random_prop(fixed, universe, 4)
            must = None
            if not any(body for _, body in target):
                must = "found"
            elif not any(body for _, body in base):
                must = "not-found"
            _search_job(wl, f"random{n}-{i}", target, base, must, PAIR_BUDGET)
    for i in range(20):
        p = proper_program(atoms(5, fixed), fixed)
        _similar_job(wl, f"similar-self-{i}", p, p, "similar", PAIR_BUDGET)


_GENERATORS = {"resolve": _resolve, "compose": _compose, "ground": _ground, "search": _search}

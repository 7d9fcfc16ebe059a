"""Rules and Horn programs as first-class values, plus structural operators.

A rule is a head atom with a set of body atoms (stored as a deduplicated,
canonically ordered tuple); a program is a set of rules compared up to
alpha-equivalence.  Program construction canonicalizes every rule, so two
programs are equal exactly when their canonical rule sets coincide, while
iteration preserves first-insertion ("textual") order for deterministic
derivations.

Everything here is immutable and safe to share across threads; the only
stateful facility is the fresh-name pool, which is always per-computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, groupby, product
from operator import itemgetter
from typing import Iterable, Iterator

from .terms import (
    Atom,
    Compound,
    Const,
    FreshVars,
    Subst,
    Term,
    Var,
    atom_is_ground,
    atom_key,
    atom_var_order,
    atom_vars,
    subst_atom,
    subst_term,
    term_key,
    var_names,
)


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[Atom, ...] = ()

    @property
    def is_fact(self) -> bool:
        return not self.body

    def __str__(self) -> str:
        from .syntax import rule_to_text

        return rule_to_text(self)


def make_rule(head: Atom, body: Iterable[Atom] = ()) -> Rule:
    """Rule with its body deduplicated and sorted under the fixed atom order."""
    uniq = sorted(set(body), key=atom_key)
    return Rule(head, tuple(uniq))


def rule_vars(r: Rule) -> set[str]:
    acc = atom_vars(r.head)
    for a in r.body:
        atom_vars(a, acc)
    return acc


def subst_rule(r: Rule, s: Subst) -> Rule:
    return make_rule(subst_atom(r.head, s), (subst_atom(a, s) for a in r.body))


def rename_fresh(r: Rule, pool: FreshVars) -> Rule:
    """Variant of ``r`` with variables drawn from ``pool`` (alpha-equivalent,
    disjoint from every name the pool has issued or will issue again)."""
    names = sorted(rule_vars(r))
    if not names:
        return r
    ren: Subst = {n: Var(next(pool)) for n in names}
    return Rule(subst_atom(r.head, ren), tuple(subst_atom(a, ren) for a in r.body))


def rule_key(r: Rule):
    return (atom_key(r.head), len(r.body), tuple(atom_key(a) for a in r.body))


# ---------------------------------------------------------------------------
# Canonical forms

_CANON_WORK_CAP = 100_000  # atoms one canonical-form search may rename or match
_first = itemgetter(0)


class CanonicalFormBudgetError(Exception):
    """The canonical-form search for one rule renamed and matched more
    atoms than ``_CANON_WORK_CAP`` (a resource error, like the composition
    cap: the CLI reports it with exit status 3)."""


class CompositionBudgetError(Exception):
    """Composing one rule tried more candidates than the composition's
    ``_ASSIGNMENT_CAP`` (a resource error: the CLI reports it with exit
    status 3).  A try unifies a goal with a candidate head, either a body
    atom with its only candidate or, in the SLD macro step that resolves
    the other atoms, any candidate; tries grow exponentially in body size.
    The cap does not bound one try's work: unification rewrites every
    bound value at each binding, so a long body of deeply nested bindings
    can still be slow."""


def _spend(budget: list[int], work: int) -> None:
    budget[0] -= work
    if budget[0] < 0:
        raise CanonicalFormBudgetError(
            f"canonical form needs over {_CANON_WORK_CAP} atom renamings and matches")


def _rename_first_occurrence(head: Atom, body: tuple[Atom, ...]) -> Rule:
    seen: dict[str, None] = {}
    atom_var_order(head, seen)
    for a in body:
        atom_var_order(a, seen)
    ren: Subst = {n: Var(f"v{i}") for i, n in enumerate(seen, start=1)}
    return Rule(subst_atom(head, ren), tuple(subst_atom(a, ren) for a in body))


def canonicalize(r: Rule) -> Rule:
    """Canonical representative of the rule's alpha-equivalence class.

    The body is deduplicated and split into same-shape groups (atoms equal
    up to variable names), laid out in the fixed order of their shapes.
    Among all orderings of the atoms inside each group, the canonical rule
    is the one whose ``rule_key`` is least after renaming its variables v1,
    v2, ... in order of first occurrence in (head, body).  The result is
    exact, idempotent, and invariant under alpha-renaming.

    The body is sorted by one shape key per atom; full ``atom_key``s are
    computed, and equal atoms dropped, only inside runs of one shape, each
    of which becomes a group in full-key order.  The least ordering is
    found by filling body positions left to right and branching only on
    atoms tied for the least renaming (see ``_least_body``); rules without
    same-shape groups take no search.  The search is exponential in the
    worst case: past ``_CANON_WORK_CAP`` atoms renamed and matched it raises
    ``CanonicalFormBudgetError``.  The work pruning takes can depend on
    variable names and body order, so a rule near the cap may raise for one
    alpha-variant and not for another.

    A variable-free rule has nothing to rename and no two body atoms of one
    shape: it is its head and its deduplicated body in ``atom_key`` order.
    """
    if atom_is_ground(r.head) and all(map(atom_is_ground, r.body)):
        return make_rule(r.head, r.body) if r.body else r
    body: list[Atom] = []
    groups: list[list[int]] = []  # the positions in ``body`` of each group
    for _, run in groupby(sorted(((atom_key(a, named_vars=False), a) for a in r.body),
                                 key=_first), key=_first):
        run = [a for _, a in run]
        if len(run) > 1:
            keyed = sorted(((atom_key(a), a) for a in run), key=_first)
            run = [a for i, (k, a) in enumerate(keyed) if not i or k != keyed[i - 1][0]]
        groups.append(list(range(len(body), len(body) + len(run))))
        body += run
    if len(groups) == len(body):  # no two atoms of one shape
        return _rename_first_occurrence(r.head, tuple(body))
    head_vars: dict[str, None] = {}
    atom_var_order(r.head, head_vars)
    numbering: Subst = {n: Var(f"v{i}") for i, n in enumerate(head_vars, start=1)}
    head = subst_atom(r.head, numbering)
    return Rule(head, _least_body(body, groups, {n: v.name for n, v in numbering.items()}))


def _match_args(cs: tuple, ds: tuple, f: dict[str, str], used: set[str],
                ext: dict[str, str]) -> bool:
    """Extend ``ext`` so that the variable map ``f`` + ``ext`` takes the
    terms ``cs`` to ``ds``, keeping the map injective; False if it cannot.
    Pairs are matched left to right, those still to match kept on a stack."""
    pairs = list(zip(cs[::-1], ds[::-1]))
    while pairs:
        s, t = pairs.pop()
        if isinstance(s, Var):
            if not isinstance(t, Var):
                return False
            y = f.get(s.name) or ext.get(s.name)
            if y is None:
                if t.name in used or t.name in ext.values():
                    return False
                ext[s.name] = t.name
            elif y != t.name:
                return False
        elif isinstance(s, Compound):
            if not (isinstance(t, Compound) and s.functor == t.functor
                    and len(s.args) == len(t.args)):
                return False
            pairs += zip(s.args[::-1], t.args[::-1])
        elif s != t:
            return False
    return True


def _automorphism(f: dict[str, str], todo: list[str], atoms: list[Atom], left: set[Atom],
                  occurs: dict[str, list[int]], steps: list[int]) -> Subst | None:
    """A permutation of variable names that extends the injective map
    ``f`` and maps the atoms ``left`` onto themselves, or None.
    ``occurs`` lists the positions in ``atoms`` of the atoms of ``left``
    that hold each variable.

    The atoms holding a newly mapped variable (``todo``) are matched
    against the atoms holding its image: an atom with one possible image
    extends the map; with none, this map has no extension.  When no atom
    is forced, the images of the first open atom are tried in turn, each
    try costing an eighth of the atoms in steps (at most 64 tries).  The
    finished map is closed into a permutation (each path of it turned into
    a cycle) and checked on the atoms it moves.  ``steps`` bounds the atoms
    matched and checked; running out answers None, which only costs the
    caller a pruning.
    """
    f = dict(f)
    used = set(f.values())
    opened: list[Atom] = []
    while todo:
        x = todo.pop()
        for c in map(atoms.__getitem__, occurs.get(x, ())):
            steps[0] -= 1
            if steps[0] < 0:
                return None
            exts = []
            for d in map(atoms.__getitem__, occurs.get(f[x], ())):
                ext: dict[str, str] = {}
                if (d.pred == c.pred and len(d.args) == len(c.args)
                        and _match_args(c.args, d.args, f, used, ext)):
                    exts.append(ext)
                    if len(exts) > 1:
                        break
            if not exts:
                return None
            if len(exts) > 1:
                opened.append(c)
            for y, z in exts[0].items() if len(exts) == 1 else ():
                f[y] = z
                used.add(z)
                todo.append(y)
    for c in opened:
        names = atom_vars(c)
        if names <= f.keys():
            continue
        x = next(n for n in names if n in f)
        for d in map(atoms.__getitem__, occurs.get(f[x], ())):
            ext = {}
            steps[0] -= len(left) // 8 + 1
            if steps[0] < 0:
                return None
            if (d.pred == c.pred and len(d.args) == len(c.args)
                    and _match_args(c.args, d.args, f, used, ext)):
                perm = _automorphism({**f, **ext}, list(ext), atoms, left, occurs, steps)
                if perm is not None:
                    return perm
        return None
    perm: Subst = {x: Var(y) for x, y in f.items() if x != y}
    for y in set(f.values()) - f.keys():  # the end of a path: back to its start
        x = y
        while x in used:
            x = next(k for k, v in f.items() if v == x)
        perm[y] = Var(x)
    moved = {b for x in perm for b in occurs[x]}
    steps[0] -= len(moved)
    if steps[0] >= 0 and all(subst_atom(atoms[b], perm) in left for b in moved):
        return perm
    return None


def _orbit_representatives(tied: list[tuple], left: list[int], numbering: dict[str, str],
                           atoms: list[Atom], names: list[tuple[str, ...]],
                           budget: list[int]) -> list[tuple]:
    """The tied candidates less those an already kept one is taken to by a
    permutation of the unnumbered variables that maps the atoms at the
    positions ``left`` onto themselves (orbit pruning): such a choice leads
    to a renaming of what the kept one leads to.  ``names`` holds the
    variables of each of the ``atoms``; the atoms indexed and matched are
    taken from ``budget``."""
    _spend(budget, len(left))
    occurs: dict[str, list[int]] = {}
    for b in left:
        for n in names[b]:
            occurs.setdefault(n, []).append(b)
    left_set: set[Atom] = set()  # filled at the first match: hashing an atom walks its terms
    fixed = {n: n for n in occurs if n in numbering}
    # Such a permutation keeps each variable's distance from the numbered
    # ones (through shared atoms), so only candidates whose fresh variables
    # lie at equal distances are matched.
    dist = dict.fromkeys(fixed, 0)
    queue = list(fixed)
    for x in queue:
        for b in occurs[x]:
            for y in names[b]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
    kept: list[tuple] = []
    for c in tied:
        new = list(c[2])
        at = [dist.get(x) for x in new]
        for k, k_at in kept:
            if k_at != at:
                continue
            left_set = left_set or set(map(atoms.__getitem__, left))
            steps = [8 * len(left)]
            perm = _automorphism({**fixed, **dict(zip(k[2], new))}, list(k[2]), atoms,
                                 left_set, occurs, steps)
            _spend(budget, 8 * len(left) - steps[0])
            if perm is not None:
                break
        else:
            kept.append((c, at))
    return [c for c, _ in kept]


def _least_body(atoms: list[Atom], groups: list[list[int]],
                numbering: dict[str, str]) -> tuple[Atom, ...]:
    """The least renaming of the body ``atoms``: its same-shape ``groups``
    of positions in order, the atoms inside each ordered freely,
    ``numbering`` naming the head's variables.

    Positions are filled left to right.  The frontier holds every distinct
    search state whose renamed prefix is the least so far: the atoms left
    in the current group, and the numbering met so far.  Each position
    takes the least renaming that any state can place next, and the new
    frontier is the states that place it, one per tied atom outside the
    orbits already taken (``_orbit_representatives``); states with the same
    atoms left, the same numbering of their variables and the same next
    number are merged.  Atoms with no numbered variable and the same
    pattern of variables rename alike, so a state renames one of them.
    ``_CANON_WORK_CAP`` bounds the atoms renamed by states beyond the first
    and the atoms indexed and matched in pruning.

    Each atom's variable names are listed once, in preorder (``pre``) and
    in first-occurrence order.  The atoms of one group differ only in the
    names at their variable positions, so a candidate is ranked by the
    tuple of its renamed names in preorder, which orders as its renamed
    ``atom_key`` would; only the atom placed at each position is renamed.
    """
    pre = [tuple(var_names(a.args)) for a in atoms]
    order = [tuple(dict.fromkeys(p)) for p in pre]
    pattern = [tuple(map(o.index, p)) for p, o in zip(pre, order)]

    def ranked(a: int, num: dict[str, str]) -> tuple:
        """(a, key, fresh): the atom at ``a`` ranked under ``num``, its
        unnumbered variables taking the next numbers, as ``fresh`` maps."""
        fresh = {}
        for n in order[a]:
            if n not in num:
                fresh[n] = f"v{len(num) + len(fresh) + 1}"
        return a, tuple([num.get(n) or fresh[n] for n in pre[a]]), fresh

    body: list[Atom] = []
    frontier: list[tuple[list[int], dict[str, str]]] = [(groups[0], numbering)]
    gi = 0
    budget = [_CANON_WORK_CAP]
    while True:
        if not frontier[0][0]:  # every state is at the same position
            gi += 1
            if gi == len(groups):
                return tuple(body)
            frontier = [(groups[gi], num) for _, num in frontier]
        least = None  # the candidate placed next
        options: list[tuple] = []
        for i, (rest, num) in enumerate(frontier):
            cands = []
            alike: dict = {}  # pattern -> atoms of ``rest`` with no numbered variable
            for a in rest:
                if num.keys().isdisjoint(order[a]):
                    same = alike.setdefault(pattern[a], [])
                    same.append(a)
                    if len(same) > 1:
                        continue
                cands.append(ranked(a, num))
            if i:
                _spend(budget, len(cands))
            low = min(cands, key=lambda c: c[1])
            if least is None or low[1] < least[1]:
                least, options = low, []
            if low[1] == least[1]:
                tied = []
                for c in cands:
                    if c[1] == low[1]:
                        tied.append(c)
                        same = alike.get(pattern[c[0]], ())
                        if same and same[0] == c[0]:  # c stands for the atoms alike
                            tied.extend(ranked(b, num) for b in same[1:])
                options.append((rest, num, tied))
        at, key = least[:2]
        body.append(subst_atom(atoms[at], {n: Var(v) for n, v in zip(pre[at], key)}))
        later = [a for g in groups[gi + 1:] for a in g]
        succ = []
        for rest, num, tied in options:
            if len(tied) > 1:
                tied = _orbit_representatives(tied, rest + later, num, atoms, order, budget)
            succ.extend(([b for b in rest if b != a], {**num, **fresh}) for a, _, fresh in tied)
        if len(succ) == 1:
            frontier = succ
            continue
        later_names = frozenset().union(*(order[a] for a in later))
        merged: dict = {}
        for rest, num in succ:
            live = later_names.union(*(order[a] for a in rest))
            key = (frozenset(rest), frozenset(kv for kv in num.items() if kv[0] in live),
                   len(num))
            merged.setdefault(key, (rest, num))
        frontier = list(merged.values())


# ---------------------------------------------------------------------------
# Programs


class Program:
    """A finite set of canonicalized rules.

    Equality and hashing use the canonical rule set (duplicates up to
    alpha-equivalence collapse); iteration follows first-insertion order so
    rule choice in derivations is deterministic.
    """

    __slots__ = ("_rules", "_ruleset")

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self._keep(canonicalize(r) for r in rules)

    @classmethod
    def _of_canonical(cls, rules: Iterable[Rule]) -> "Program":
        """Program of rules that are already canonical, kept as they are:
        rules of other programs, facts and units of ground atoms, or units
        whose variables are v1, ..., vn in order."""
        prog = cls.__new__(cls)
        prog._keep(rules)
        return prog

    def _keep(self, canonical: Iterable[Rule]) -> None:
        # The set is built from the dict, which reuses its stored hashes.
        ordered = dict.fromkeys(canonical)
        self._rules: tuple[Rule, ...] = tuple(ordered)
        self._ruleset: frozenset[Rule] = frozenset(ordered)

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, r: Rule) -> bool:
        return canonicalize(r) in self._ruleset

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self._ruleset == other._ruleset

    def __hash__(self) -> int:
        return hash(self._ruleset)

    def __or__(self, other: "Program") -> "Program":
        return Program._of_canonical(self._rules + other._rules)

    def __repr__(self) -> str:
        from .syntax import program_to_text

        return f"Program({program_to_text(self)!r})"

    @property
    def is_ground(self) -> bool:
        return all(t.ground for r in self._rules for a in (r.head, *r.body) for t in a.args)

    def sorted_rules(self) -> list[Rule]:
        return sorted(self._rules, key=rule_key)


EMPTY = Program()


def _require_ground(op: str, p: Program = EMPTY, atoms: Iterable[Atom] = ()) -> None:
    """Raise ValueError, naming the operation ``op``, unless the program
    ``p`` and the ``atoms`` are ground."""
    if not p.is_ground:
        raise ValueError(f"{op} requires a ground program")
    for a in atoms:
        if not atom_is_ground(a):
            raise ValueError(f"{op} requires ground atoms, got {a}")


def interpretation(atoms: Iterable[Atom]) -> Program:
    """The set of ground atoms viewed as a program of facts."""
    atoms = list(atoms)
    _require_ground("interpretation", atoms=atoms)
    return Program._of_canonical(Rule(a) for a in sorted(set(atoms), key=atom_key))


def is_interpretation(p: Program) -> bool:
    return p.is_ground and all(r.is_fact for r in p)


def program_atoms(p: Program) -> frozenset[Atom]:
    out: set[Atom] = set()
    for r in p:
        out.add(r.head)
        out.update(r.body)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Structural operators


def head_of(p: Program) -> frozenset[Atom]:
    return frozenset(r.head for r in p)


def body_of(p: Program) -> frozenset[Atom]:
    out: set[Atom] = set()
    for r in p:
        out.update(r.body)
    return frozenset(out)


def facts(p: Program) -> Program:
    return Program._of_canonical(r for r in p if r.is_fact)


def proper(p: Program) -> Program:
    return Program._of_canonical(r for r in p if not r.is_fact)


def dual(p: Program) -> Program:
    """Facts unchanged; every proper rule's arrows reversed, one rule per
    body atom.  Not an involution in general (only when proper rules have
    singleton bodies)."""
    out = [r for r in p if r.is_fact]
    for r in p:
        for a in r.body:
            out.append(Rule(a, (r.head,)))
    return Program(out)


def rule_width(r: Rule) -> int:
    """Number of bound variables: those occurring in both head and body."""
    if r.is_fact:
        return 0
    hv = atom_vars(r.head)
    bv: set[str] = set()
    for a in r.body:
        atom_vars(a, bv)
    return len(hv & bv)


def width(p: Program) -> int:
    return max((rule_width(r) for r in p), default=0)


# ---------------------------------------------------------------------------
# Signatures, Herbrand bases, grounding


@dataclass(frozen=True)
class Signature:
    predicates: frozenset[tuple[str, int]]
    functions: frozenset[tuple[str, int]]
    constants: frozenset[str]

    def __or__(self, other: "Signature") -> "Signature":
        return Signature(
            self.predicates | other.predicates,
            self.functions | other.functions,
            self.constants | other.constants,
        )


def _collect_term_symbols(t: Term, fns: set[tuple[str, int]], consts: set[str]) -> None:
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Const):
            consts.add(t.name)
        elif isinstance(t, Compound):
            fns.add((t.functor, len(t.args)))
            todo += t.args


def signature_of(*programs: Program, extra_constants: Iterable[str] = ()) -> Signature:
    """Exactly the symbols occurring in the given programs, plus optional
    user-declared constants."""
    preds: set[tuple[str, int]] = set()
    fns: set[tuple[str, int]] = set()
    consts: set[str] = set(extra_constants)

    def see(a: Atom) -> None:
        preds.add((a.pred, len(a.args)))
        for t in a.args:
            _collect_term_symbols(t, fns, consts)

    for p in programs:
        for r in p:
            see(r.head)
            for a in r.body:
                see(a)
    return Signature(frozenset(preds), frozenset(fns), frozenset(consts))


_GROUND_CAP = 100_000  # terms one universe level, or instances one grounding, may build


class GroundingBudgetError(Exception):
    """A grounding would build more than ``_GROUND_CAP`` terms in one level
    of its universe, or more than ``_GROUND_CAP`` rule instances (a
    resource error, like the composition cap: the CLI reports it with exit
    status 3)."""


def herbrand_terms(sig: Signature, depth: int) -> list[Term]:
    """All ground terms of nesting depth <= depth, monotone in depth.

    Level k is built from the argument tuples whose first term of level
    k - 1 is at position i, older terms before it and any after: each such
    tuple is new and none repeats, so each term is built once.  Raises
    ``GroundingBudgetError`` before a level when the argument tuples over
    the universe built so far number more than ``_GROUND_CAP``."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if sig.functions and not sig.constants:
        raise ValueError(
            "empty ground term universe: function symbols without constants"
        )
    all_terms: list[Term] = [Const(c) for c in sorted(sig.constants)]
    start = 0  # all_terms[start:] is the last level built
    for _ in range(depth):
        if sum(len(all_terms) ** n for _, n in sig.functions) > _GROUND_CAP:
            raise GroundingBudgetError(
                f"grounding needs over {_GROUND_CAP} terms in one level of its universe")
        older, last = all_terms[:start], all_terms[start:]
        new = [Compound(f, args) for f, n in sorted(sig.functions) for i in range(n)
               for args in product(*[older] * i, last, *[all_terms] * (n - 1 - i))]
        if not new:
            break
        start = len(all_terms)
        all_terms += new
    return sorted(all_terms, key=term_key)


def herbrand_base(sig: Signature, depth: int) -> frozenset[Atom]:
    """Ground atoms whose argument terms have nesting depth <= depth."""
    terms = herbrand_terms(sig, depth)
    out: set[Atom] = set()
    for pred, n in sorted(sig.predicates):
        if n == 0:
            out.add(Atom(pred))
        else:
            for args in product(terms, repeat=n):
                out.add(Atom(pred, args))
    return frozenset(out)


def gnd(p: Program, sig: Signature | None = None, depth: int = 0) -> Program:
    """All ground instances of the rules of ``p`` with variables drawn from
    the depth-bounded term universe.  Exact for function-free signatures.

    A ground rule has no variables to rename, so an instance is canonical
    once its body is deduplicated and in ``atom_key`` order; ``_instances``
    builds it so, and the rules of ``p`` without variables are kept as they
    are.  Raises ``GroundingBudgetError``, before it builds any instance,
    when there would be more than ``_GROUND_CAP`` of them."""
    if sig is None:
        sig = signature_of(p)
    terms = herbrand_terms(sig, depth)
    rule_names = [(r, sorted(rule_vars(r))) for r in p]
    if sum(len(terms) ** len(names) for _, names in rule_names) > _GROUND_CAP:
        raise GroundingBudgetError(f"grounding needs over {_GROUND_CAP} rule instances")
    keys = [term_key(t) for t in terms]
    out: list[Rule] = []
    for r, names in rule_names:
        if names:
            out += _instances(r, names, terms, keys)
        else:
            out.append(r)
    return Program._of_canonical(out)


def _instances(r: Rule, names: list[str], terms: list[Term],
               keys: list[tuple]) -> Iterator[Rule]:
    """The instances of ``r`` that bind its variables ``names`` to the
    ``terms`` (whose ``term_key``s are ``keys``), in ``product`` order.

    Each argument of ``r`` has a position in a row that holds an
    instance's terms: a variable's slot in ``names``, then the ground
    arguments, then the substituted compound arguments that hold variables.
    An atom is built from its positions.  A body atom's sort key is its
    predicate, its arity and the term keys at the same positions in the row
    of keys, which orders and equates atoms as ``atom_key`` does.  The body
    is sorted by key, and an atom whose key equals the one before it is
    dropped: ground atoms are equal exactly when their keys are."""
    atoms = (r.head, *r.body)
    args = [t for a in atoms for t in a.args]
    fixed = tuple(t for t in args if t.ground)
    opened = [t for t in args if not t.ground and not isinstance(t, Var)]
    slot = {n: i for i, n in enumerate(names)}
    ground_at, open_at = count(len(names)), count(len(names) + len(fixed))
    plans = [(a.pred, len(a.args),
              tuple(slot[t.name] if isinstance(t, Var)
                    else next(ground_at if t.ground else open_at) for t in a.args))
             for a in atoms]
    (pred, _, head_pos), *body_plans = plans
    fixed_keys = tuple(map(term_key, fixed)) if len(body_plans) > 1 else ()
    for row, key_row in zip(product(terms, repeat=len(names)),
                            product(keys, repeat=len(names))):
        row += fixed
        if opened:
            s: Subst = dict(zip(names, row))
            done = tuple(subst_term(t, s) for t in opened)
            row += done
        head = Atom(pred, tuple(map(row.__getitem__, head_pos)))
        if len(body_plans) < 2:
            yield Rule(head, tuple(Atom(q, tuple(map(row.__getitem__, pos)))
                                   for q, _, pos in body_plans))
            continue
        key_row += fixed_keys
        if opened:
            key_row += tuple(map(term_key, done))
        keyed = sorted((((q, n, *map(key_row.__getitem__, pos)),
                         Atom(q, tuple(map(row.__getitem__, pos))))
                        for q, n, pos in body_plans), key=_first)
        body = [keyed[0][1]]
        for (last, _), (k, b) in zip(keyed, keyed[1:]):
            if k != last:
                body.append(b)
        yield Rule(head, tuple(body))


# ---------------------------------------------------------------------------
# Unit programs, reducts and body-editing programs


def unit_program(sig: Signature) -> Program:
    """One rule p(v1,...,vn) <- p(v1,...,vn) per predicate in scope; the
    neutral element of composition restricted to the working signature."""
    out: list[Rule] = []
    for pred, n in sorted(sig.predicates):
        args = tuple(Var(f"v{i}") for i in range(1, n + 1))
        a = Atom(pred, args)
        out.append(Rule(a, (a,)))
    return Program._of_canonical(out)


def unit_restricted(atoms: Iterable[Atom]) -> Program:
    """The ground unit slice {A <- A | A in I}."""
    atoms = list(atoms)
    _require_ground("unit_restricted", atoms=atoms)
    return Program._of_canonical(Rule(a, (a,)) for a in sorted(set(atoms), key=atom_key))


def _check_subset(i: Iterable[Atom], hb: Iterable[Atom]) -> tuple[frozenset[Atom], frozenset[Atom]]:
    iset, hbset = frozenset(i), frozenset(hb)
    if not iset <= hbset:
        missing = sorted(iset - hbset, key=atom_key)
        raise ValueError("atoms outside the Herbrand base: " + ", ".join(map(str, missing)))
    return iset, hbset


def body_minus(i: Iterable[Atom], hb: Iterable[Atom]) -> Program:
    """Right-composition program deleting the atoms of ``i`` from rule
    bodies: the ground unit over HB-I together with ``i`` as facts."""
    iset, hbset = _check_subset(i, hb)
    return unit_restricted(hbset - iset) | interpretation(iset)


def body_plus(i: Iterable[Atom], hb: Iterable[Atom]) -> Program:
    """Right-composition program inserting the atoms of ``i`` into proper
    rule bodies: {A <- {A} u I | A in HB}."""
    iset, hbset = _check_subset(i, hb)
    return Program(Rule(a, (a, *iset)) for a in sorted(hbset, key=atom_key))


def left_reduct(p: Program, i: Iterable[Atom]) -> Program:
    """Rules whose head the interpretation satisfies."""
    _require_ground("left_reduct", p)
    iset = frozenset(i)
    return Program._of_canonical(r for r in p if r.head in iset)


def right_reduct(p: Program, i: Iterable[Atom]) -> Program:
    """Rules whose body the interpretation satisfies."""
    _require_ground("right_reduct", p)
    iset = frozenset(i)
    return Program._of_canonical(r for r in p if set(r.body) <= iset)

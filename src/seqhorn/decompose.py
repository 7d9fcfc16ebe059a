"""One-step reductions: certificate verification and bounded search.

A reduction certificate claims ``target = (prefix o base) o suffix``.
``verify`` decides it by composing and comparing canonical programs.
``search_reduction`` looks for prefix/suffix pairs for ground (typically
propositional) programs, rule by rule: a prefix rule keeps the target
rule's head and rewrites its body into base-rule heads; suffix rules map
the chosen base rules' body atoms back to the target rule's body.  Options
that survive the per-rule filters are combined; the assembly's leak test
is the decision, so a completed assembly is the certificate, and the
procedure is complete within exhaustive bounds while staying deterministic.

First-order decomposition search is out of scope: for non-ground inputs
only the width necessary condition is consulted (verification itself works
on any programs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import combinations, product

from .compose import compose
from .programs import (
    Program,
    Rule,
    program_atoms,
    rule_key,
    width,
)
from .terms import Atom, atom_key

FOUND = "found"
NOT_FOUND = "not-found"
BUDGET_EXCEEDED = "budget-exceeded"

SIMILAR = "similar"
LEFT_BELOW = "P<R"
RIGHT_BELOW = "R<P"
INCOMPARABLE = "incomparable-within-bounds"


@dataclass(frozen=True)
class ReductionCertificate:
    """Witness for target = (prefix o base) o suffix."""

    target: Program
    base: Program
    prefix: Program
    suffix: Program


@dataclass
class VerifyResult:
    ok: bool
    composed: Program
    missing: tuple[Rule, ...]
    extra: tuple[Rule, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify(cert: ReductionCertificate) -> VerifyResult:
    """Check the certificate by actually composing; the diagnostic lists
    target rules the composition missed and composed rules not in the
    target."""
    composed = compose(compose(cert.prefix, cert.base), cert.suffix)
    target_set = frozenset(cert.target)
    composed_set = frozenset(composed)
    missing = tuple(sorted(target_set - composed_set, key=rule_key))
    extra = tuple(sorted(composed_set - target_set, key=rule_key))
    return VerifyResult(not missing and not extra, composed, missing, extra)


def width_blocks(p: Program, r: Program) -> bool:
    """True when the width necessary condition already rules out a
    reduction of ``p`` to ``r`` (bound variables cannot increase)."""
    return width(p) > width(r)


# ---------------------------------------------------------------------------
# Bounded search


@dataclass(frozen=True)
class SearchBounds:
    """``max_body`` bounds the atoms of a prefix or suffix body (None: no
    bound); ``time_budget`` is in seconds."""

    max_body: int | None = None
    time_budget: float = 60.0

    def __post_init__(self) -> None:
        if self.max_body is not None and self.max_body < 0:
            raise ValueError(f"max_body must be non-negative, got {self.max_body}")
        if not self.time_budget >= 0:  # also rejects NaN, which never expires
            raise ValueError(f"time budget must be non-negative, got {self.time_budget}")


@dataclass
class SearchResult:
    status: str
    certificate: ReductionCertificate | None = None
    exhaustive: bool = False
    elapsed: float = 0.0

    @property
    def found(self) -> bool:
        return self.status == FOUND


def _bits(mask: int):
    """The indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Clock:
    def __init__(self, budget: float) -> None:
        self.start = time.monotonic()
        self.deadline = self.start + budget

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def expired(self) -> bool:
        return time.monotonic() > self.deadline


def search_reduction(p: Program, r: Program,
                     bounds: SearchBounds = SearchBounds()) -> SearchResult:
    """Search prefixes and suffixes witnessing ``p`` one-step reduced to
    ``r`` for ground programs.

    Returns the first certificate the assembly completes in a deterministic
    order (small prefixes and suffixes first), as built, since its leak
    test decides it; else a definitive or bounded not-found, or a distinct
    budget-exceeded outcome.  ``exhaustive`` is
    only claimed for propositional inputs whose candidate spaces
    ``max_body`` does not clip: every base head fits in a prefix body, and
    the target bodies the verdict rests on (the one with no option, or all
    of them) fit in a suffix body.

    Leaks are tested incrementally.  A prefix rule ``q`` composed with the
    base gives mid rules ``q o R``, built once, by the option loop; each mid
    rule, composed with the suffix, emits one body per choice of a suffix
    rule for each of its body atoms.  ``_unions`` builds both the mid bodies
    and the emitted ones.  Emissions are monotone in both the prefix and
    the suffix, so a rule's option is tested only on the bodies it emits
    with its own suffix, and a step of the assembly only on the mid rules
    that step adds and on the old ones whose body meets the head of a
    suffix rule it adds; everything else was inside the target at the step
    before.  The assembly is one mutable state, its mid rules, suffix
    bodies by head and an index from each atom to the mid rules whose body
    holds it; a step records what it added on a trail, and backtracking
    removes exactly that.  Each node keeps a memo of the rejections it
    decided: a prefix rule whose new mid rules leak with the node's suffix,
    or a suffix rule that leaks on one new mid rule, rejects every later
    option holding it, because a leak of part of an option is a leak of the
    option.  The test gives the verdict of composing the whole assembly,
    so the options, the order of the depth-first assembly and the points
    where the budget is checked (once per combination of base heads, the
    empty one included, and once per assembly node entered) are those of a
    full recomposition.

    Options that give the same mid rules with the same suffix are
    interchangeable: the assembly grows the same subtree from each.  Only
    the first of each class in the assembly's order is generated, so the
    first certificate found is the one the full order gives, and the
    combinations of base heads leave out heads that cannot change the mid
    rules (base facts, and repeats of a head's only body).
    """
    if width_blocks(p, r):
        return SearchResult(NOT_FOUND, exhaustive=True)
    if not p.is_ground or not r.is_ground:
        raise ValueError("reduction search handles ground programs only")
    clock = _Clock(bounds.time_budget)

    atoms = sorted(program_atoms(p) | program_atoms(r), key=atom_key)
    index = {a: i for i, a in enumerate(atoms)}
    # No body, and no set of base heads, holds more than every atom.
    max_body = len(atoms) if bounds.max_body is None else bounds.max_body

    p_rules = [(index[rl.head], _mask(rl, index)) for rl in p.sorted_rules()]
    by_head_r: dict[int, list[int]] = {}
    for rl in r.sorted_rules():
        by_head_r.setdefault(index[rl.head], []).append(_mask(rl, index))
    targets_by_head: dict[int, set[int]] = {}
    for h, m in p_rules:
        targets_by_head.setdefault(h, set()).add(m)
    r_heads = sorted(by_head_r)
    exhaustive = max_body >= len(r_heads) and all(not a.args for a in atoms)
    clipped = {bmask for _, bmask in p_rules if bmask.bit_count() > max_body}

    # A base head whose only body is w adds w to every union, so a second
    # head with the same only body adds nothing more, and neither does a
    # base fact (w = 0).  The least beta of each class below holds none of
    # them, so beta ranges over the other heads.
    singles = {0}
    free_heads = []
    for c in r_heads:
        bodies = by_head_r[c]
        if len(bodies) == 1:
            if bodies[0] in singles:
                continue
            singles.add(bodies[0])
        free_heads.append(c)

    # Per-rule options: (prefix_rule, tuple of suffix rules) pairs that
    # can reproduce the rule and leak nothing with this head, in the order
    # the assembly tries them.  mid_rules holds the rules q o R, as (head,
    # body) pairs, for each prefix rule q of an option.
    all_options: list[list[tuple[tuple[int, int], tuple[tuple[int, int], ...]]]] = []
    mid_rules: dict[tuple[int, int], frozenset[tuple[int, int]]] = {}
    for h, bmask in p_rules:
        targets = targets_by_head[h]
        body_atoms = list(_bits(bmask))
        allowed_w = [sum(1 << c for c in ws)
                     for size in range(min(max_body, len(body_atoms)) + 1)
                     for ws in combinations(body_atoms, size)]
        # The prefix rules h :- beta with the same mid bodies form one class
        # of interchangeable values (Freuder, AAAI 1991): its suffixes are
        # found once, and its options use its least beta, the one the sort
        # below puts first.  The empty beta gives the fact option (h, 0) of
        # a fact h.
        classes: dict[frozenset[int], list] = {}
        for size in range(min(max_body, len(free_heads)) + 1):
            for beta in combinations(free_heads, size):
                beta_mask = sum(1 << b for b in beta)
                mids = frozenset(_unions(beta_mask, by_head_r))
                cls = classes.get(mids)
                if cls is None:
                    classes[mids] = [beta_mask, _suffixes(mids, allowed_w, bmask, targets)]
                elif beta_mask < cls[0]:
                    cls[0] = beta_mask
                if clock.expired():
                    return SearchResult(BUDGET_EXCEEDED, elapsed=clock.elapsed)
        options: list[tuple[tuple[int, int], tuple[tuple[int, int], ...]]] = []
        for mids, (beta_mask, suffixes) in classes.items():
            if suffixes:
                mid_rules[h, beta_mask] = frozenset((h, m) for m in mids)
                options += [((h, beta_mask), suffix) for suffix in suffixes]
        if not options:
            return SearchResult(NOT_FOUND, exhaustive=exhaustive and bmask not in clipped,
                                elapsed=clock.elapsed)
        # The key is unique per option, so the order does not depend on the
        # order the options were generated in.
        options.sort(key=lambda o: (len(o[1]), o[0], o[1]))
        all_options.append(options)

    # Combine one option per rule by depth-first assembly.  Emissions are
    # monotone in both the prefix and the suffix (more rules only add
    # emissions), so a partial assembly that already leaks outside P prunes
    # its whole subtree, and a completed assembly that never leaked
    # reproduces every rule by construction.  mids, by_head_s and by_atom
    # hold the current node; trail[i] is what _step added to make the node
    # at depth i + 1 (the WAM's trail, Ait-Kaci 1991), and each frame of the
    # stack holds its node's untried options and rejection memo.
    mids: set[tuple[int, int]] = set()
    by_head_s: dict[int, list[int]] = {}
    by_atom: dict[int, list[tuple[int, int]]] = {}
    stack = []
    trail = []
    entered = True
    while entered:
        if clock.expired():
            return SearchResult(BUDGET_EXCEEDED, elapsed=clock.elapsed)
        if len(stack) == len(all_options):
            break
        stack.append((iter(all_options[len(stack)]), {}))
        entered = False
        # the next child that does not leak, backtracking past exhausted nodes
        while not entered and stack:
            untried, memo = stack[-1]
            for option in untried:
                step = _step(option, memo, mids, by_head_s, by_atom, mid_rules,
                             targets_by_head)
                if step is not None:
                    trail.append(step)
                    entered = True
                    break
            else:
                stack.pop()
                if trail:
                    _, new, added = trail.pop()
                    for gm in new:
                        mids.remove(gm)
                        for c in _bits(gm[1]):
                            by_atom[c].pop()
                    for c, _ in added:
                        by_head_s[c].pop()
    if not entered:
        return SearchResult(NOT_FOUND, exhaustive=exhaustive and not clipped,
                            elapsed=clock.elapsed)
    prefix = _program_from_masks({q for (q, _), _, _ in trail}, atoms)
    suffix = _program_from_masks({sr for (_, s), _, _ in trail for sr in s}, atoms)
    cert = ReductionCertificate(p, r, prefix, suffix)
    return SearchResult(FOUND, cert, elapsed=clock.elapsed)


def _suffixes(mids, allowed_w, bmask, targets):
    """The suffixes, as tuples of (head, body) pairs in head order, with
    which a prefix rule whose mid bodies are ``mids`` emits the target body
    ``bmask`` and no body outside ``targets``; each suffix body is one of
    ``allowed_w``."""
    out = []
    for mid in mids:
        mid_atoms = list(_bits(mid))
        # With one suffix rule (c, w_c) per c in mid, the candidate emits
        # (h, union of w_c for c in m) for each m <= mid in mids: (h, bmask)
        # itself for m = mid, and possible leaks for the smaller ones.  A mid
        # of 0 is a fact: a suffix with no rule, when h is one.
        inner = [m for m in mids if m & mid == m and m != mid]
        for ws in product(allowed_w, repeat=len(mid_atoms)):
            u = 0
            for w in ws:
                u |= w
            if u != bmask:
                continue
            suffix = tuple(zip(mid_atoms, ws))
            if inner:
                by_head_s = {c: (w,) for c, w in suffix}
                if any(not _unions(m, by_head_s) <= targets for m in inner):
                    continue
            out.append(suffix)
    return out


def _step(option, memo, mids, by_head_s, by_atom, mid_rules, targets_by_head):
    """Add ``option`` to the assembly in ``mids``, ``by_head_s`` and
    ``by_atom`` and return what it added, (option, new mid rules, new suffix
    rules), or return None, changing nothing, when that leaks a body outside
    the target.  ``memo`` is the current node's: for each prefix rule, its
    new mid rules and whether they leak with the node's suffix, and for
    each new mid rule g :- m and new suffix rule (c, w) with c in m, whether
    the node's suffix with (c, w) added leaks on it."""
    q, suffix = option
    known = memo.get(q)
    if known is None:
        new = [gm for gm in mid_rules[q] if gm not in mids]
        known = memo[q] = new, any(not _unions(m, by_head_s) <= targets_by_head[g]
                                   for g, m in new)
    new, leaks = known
    if leaks:
        return None
    added = [(c, w) for c, w in suffix if w not in by_head_s.get(c, ())]
    for c, w in added:
        ws = by_head_s.setdefault(c, [])
        for g, m in new:
            if m >> c & 1:
                key = g, m, c, w
                leaks = memo.get(key)
                if leaks is None:
                    ws.append(w)
                    leaks = memo[key] = not _unions(m, by_head_s) <= targets_by_head[g]
                    ws.pop()
                if leaks:
                    return None
    if added:
        heads = 0
        for c, w in added:
            by_head_s[c].append(w)
            heads |= 1 << c
        met = [gm for gm in new if gm[1] & heads]
        for c, _ in added:
            met += by_atom.get(c, ())
        if any(not _unions(m, by_head_s) <= targets_by_head[g] for g, m in met):
            for c, _ in added:
                by_head_s[c].pop()
            return None
    for gm in new:
        mids.add(gm)
        for c in _bits(gm[1]):
            by_atom.setdefault(c, []).append(gm)
    return option, new, added


def _mask(rule: Rule, index: dict[Atom, int]) -> int:
    m = 0
    for a in rule.body:
        m |= 1 << index[a]
    return m


def _unions(mask: int, by_head) -> set[int]:
    """The unions of one body ``by_head[c]`` per atom ``c`` of ``mask``: the
    bodies a rule with body ``mask`` emits when composed with the rules whose
    bodies ``by_head`` indexes by head.  Built atom by atom; empty as soon as
    an atom has no body."""
    unions = {0}
    for c in _bits(mask):
        unions = {u | w for u in unions for w in by_head.get(c, ())}
        if not unions:
            break
    return unions


def _program_from_masks(rules, atoms: list[Atom]) -> Program:
    """The (head, body mask) pairs ``rules`` as a program; ground, with bodies
    in bit order, which is ``atom_key`` order, they are canonical as built."""
    return Program._of_canonical(Rule(atoms[h], tuple(atoms[c] for c in _bits(m)))
                                 for h, m in sorted(rules))


# ---------------------------------------------------------------------------
# Similarity


@dataclass
class SimilarityResult:
    outcome: str
    forward: SearchResult  # evidence for P one-step reduced to R
    backward: SearchResult  # evidence for R one-step reduced to P

    @property
    def is_similar(self) -> bool:
        return self.outcome == SIMILAR


def similar(p: Program, r: Program,
            bounds: SearchBounds = SearchBounds()) -> SimilarityResult:
    """Decide similarity by searching both directions; each direction's
    evidence is attached.  Strict outcomes require the failing direction to
    be definitive (exhaustive bounds or the width obstruction).  Equal
    programs are searched once: the search reads only their sorted rules
    and atoms, so the backward search would repeat the forward one."""
    fwd = search_reduction(p, r, bounds)
    if p == r:
        cert = (None if fwd.certificate is None
                else replace(fwd.certificate, target=r, base=p))
        bwd = SearchResult(fwd.status, cert, fwd.exhaustive, fwd.elapsed)
    else:
        bwd = search_reduction(r, p, bounds)
    if fwd.found and bwd.found:
        outcome = SIMILAR
    elif fwd.found and bwd.status == NOT_FOUND and bwd.exhaustive:
        outcome = LEFT_BELOW
    elif bwd.found and fwd.status == NOT_FOUND and fwd.exhaustive:
        outcome = RIGHT_BELOW
    else:
        outcome = INCOMPARABLE
    return SimilarityResult(outcome, fwd, bwd)


# ---------------------------------------------------------------------------
# Certificate serialization (four-section program document)

_SECTIONS = ("TARGET", "BASE", "PREFIX", "SUFFIX")


def certificate_to_text(cert: ReductionCertificate) -> str:
    from .syntax import program_to_text

    parts = []
    for name, prog in zip(_SECTIONS, (cert.target, cert.base, cert.prefix,
                                      cert.suffix)):
        parts.append(f"% {name}\n" + program_to_text(prog))
    return "\n".join(parts)


def certificate_from_text(text: str, path: str = "<string>") -> ReductionCertificate:
    from .syntax import ParseError, parse_program

    chunks: dict[str, list[str]] = {}
    current: str | None = None
    # Lines end at "\n" only, as ParseError counts them.
    for n, line in enumerate(text.removesuffix("\n").split("\n"), start=1):
        stripped = line.strip()
        name = stripped[1:].strip() if stripped.startswith("%") else None
        if name in _SECTIONS:
            current = name
            # Blank lines up to the header keep the file's line numbers.
            chunks[current] = [""] * n
        elif current is not None:
            chunks[current].append(line)
    missing = [s for s in _SECTIONS if s not in chunks]
    if missing:
        raise ParseError(1, 1, f"missing certificate sections: {missing}", path)
    progs = {s: parse_program("\n".join(chunks[s]), path) for s in _SECTIONS}
    return ReductionCertificate(progs["TARGET"], progs["BASE"],
                                progs["PREFIX"], progs["SUFFIX"])

"""One-step reductions: certificate verification and bounded search.

A reduction certificate claims ``target = (prefix o base) o suffix``.
``verify`` decides it by composing and comparing canonical programs.
``search_reduction`` looks for prefix/suffix pairs for ground (typically
propositional) programs, rule by rule: a prefix rule keeps the target
rule's head and rewrites its body into base-rule heads; suffix rules map
the chosen base rules' body atoms back to the target rule's body.  Options
that survive the per-rule filters are combined and the assembled pair is
accepted only if full verification passes, which makes the procedure
complete within exhaustive bounds while staying deterministic.

First-order decomposition search is out of scope: for non-ground inputs
only the width necessary condition is consulted (verification itself works
on any programs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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

    Returns the first verified certificate in a deterministic enumeration
    order (small prefixes and suffixes first), a definitive or bounded
    not-found, or a distinct budget-exceeded outcome.  ``exhaustive`` is
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
    before.  The test gives the verdict of composing the whole assembly,
    so the options, the order of the depth-first assembly and the points
    where the budget is checked (once per combination of base heads, the
    empty one included, and once per assembly node entered) are those of a
    full recomposition.
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

    # Per-rule options: (prefix_rule, frozenset of suffix rules) pairs that
    # can reproduce the rule and leak nothing with this head, in the order
    # the assembly tries them.  mid_rules holds the rules q o R, as (head,
    # body) pairs, for each prefix rule q of an option.
    all_options: list[list[tuple[tuple[int, int], frozenset[tuple[int, int]]]]] = []
    mid_rules: dict[tuple[int, int], frozenset[tuple[int, int]]] = {}
    for h, bmask in p_rules:
        targets = targets_by_head[h]
        options: list[tuple[tuple[int, int], frozenset[tuple[int, int]]]] = []
        body_atoms = list(_bits(bmask))
        allowed_w = [sum(1 << c for c in ws)
                     for size in range(min(max_body, len(body_atoms)) + 1)
                     for ws in combinations(body_atoms, size)]
        # The empty beta gives the fact option (h, 0) of a fact h.
        for size in range(min(max_body, len(r_heads)) + 1):
            for beta in combinations(r_heads, size):
                beta_mask = sum(1 << b for b in beta)
                mids = _unions(beta_mask, by_head_r)
                n_options = len(options)
                for mid in mids:
                    mid_atoms = list(_bits(mid))
                    # With one suffix rule (c, w_c) per c in mid, the
                    # candidate emits (h, union of w_c for c in m) for each
                    # m <= mid in mids: (h, bmask) itself for m = mid, and
                    # possible leaks for the smaller ones.  A mid of 0 is a
                    # fact: an option, with no suffix rule, when h is one.
                    inner = [m for m in mids if m & mid == m and m != mid]
                    for ws in product(allowed_w, repeat=len(mid_atoms)):
                        u = 0
                        for w in ws:
                            u |= w
                        if u != bmask:
                            continue
                        suffix = frozenset(zip(mid_atoms, ws))
                        if inner:
                            by_head_s = {c: (w,) for c, w in suffix}
                            if any(not _unions(m, by_head_s) <= targets for m in inner):
                                continue
                        options.append(((h, beta_mask), suffix))
                if len(options) > n_options:
                    mid_rules[h, beta_mask] = frozenset((h, m) for m in mids)
                if clock.expired():
                    return SearchResult(BUDGET_EXCEEDED, elapsed=clock.elapsed)
        if not options:
            return SearchResult(NOT_FOUND, exhaustive=exhaustive and bmask not in clipped,
                                elapsed=clock.elapsed)
        # The key is unique per option, so the order does not depend on the
        # order the options were generated in.
        options.sort(key=lambda o: (len(o[1]), o[0], tuple(sorted(o[1]))))
        all_options.append(options)

    # Combine one option per rule by depth-first assembly, on an explicit
    # stack of (node, untried options); chosen[i] is the option that made
    # the node at depth i + 1.  A node is (mid rules of prefix o R, suffix
    # bodies by head).  Emissions are monotone in both the prefix and the
    # suffix (more rules only add emissions), so a partial assembly that
    # already leaks outside P prunes its whole subtree, and a completed
    # assembly that never leaked reproduces every rule by construction.
    # Every emission of a node is in P, so _extend tests only the mid rules
    # a child adds and the old ones whose body meets the head of a suffix
    # rule it adds.  The verdict is that of composing the whole trial
    # assembly, so the nodes visited and the budget checks made (one per
    # node entered) are too.
    node = (frozenset(), {})
    stack = []
    chosen = []
    while node is not None:
        if clock.expired():
            return SearchResult(BUDGET_EXCEEDED, elapsed=clock.elapsed)
        if len(stack) == len(all_options):
            break
        stack.append((node, iter(all_options[len(stack)])))
        node = None
        # the next child that does not leak, backtracking past exhausted nodes
        while node is None and stack:
            parent, untried = stack[-1]
            for option in untried:
                node = _extend(parent, option, mid_rules, targets_by_head)
                if node is not None:
                    chosen[len(stack) - 1:] = [option]
                    break
            else:
                stack.pop()
    if node is not None:
        cert = ReductionCertificate(
            target=p,
            base=r,
            prefix=_program_from_masks({q for q, _ in chosen}, atoms),
            suffix=_program_from_masks(set().union(*(s for _, s in chosen)), atoms),
        )
        if verify(cert):
            return SearchResult(FOUND, cert, exhaustive=False,
                                elapsed=clock.elapsed)
    return SearchResult(NOT_FOUND, exhaustive=exhaustive and not clipped,
                        elapsed=clock.elapsed)


def _extend(node, option, mid_rules, targets_by_head):
    """The assembly ``node`` with ``option`` added, or None when that leaks
    a body outside the target."""
    mids, by_head_s = node
    q_rule, suffix = option
    new_mids = mid_rules[q_rule] - mids
    added = [(c, w) for c, w in suffix if w not in by_head_s.get(c, ())]
    nby = by_head_s
    new_heads = 0
    if added:
        nby = dict(by_head_s)
        for c, w in added:
            nby[c] = nby.get(c, ()) + (w,)
            new_heads |= 1 << c
    if any(not _unions(m, nby) <= targets_by_head[g] for g, m in new_mids):
        return None
    if new_heads and any(not _unions(m, nby) <= targets_by_head[g]
                         for g, m in mids if m & new_heads):
        return None
    return mids | new_mids, nby


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
    out = []
    for h, m in sorted(rules):
        out.append(Rule(atoms[h], tuple(atoms[c] for c in _bits(m))))
    return Program(out)


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
    be definitive (exhaustive bounds or the width obstruction)."""
    fwd = search_reduction(p, r, bounds)
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

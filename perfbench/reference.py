"""Independent reference for checking seqhorn's CLI output.

Nothing here imports seqhorn.  Inputs and expected outputs are built from
this module's own representation:

* a variable is a ``str`` starting with an upper-case letter or ``_``;
* a constant is any other ``str`` (``[]`` is the empty list);
* a compound term or an atom is a tuple ``(functor, arg1, ..., argn)``, so a
  propositional atom is ``(pred,)`` and a list cell is ``(".", head, tail)``;
* a rule is ``(head, body)`` with ``body`` a tuple of distinct atoms.

It holds a parser and printer for the surface syntax, unification, a
first-order composer, a propositional composer, a grounder, a least-model
routine, an alpha-equivalence matcher and the per-command checkers.
"""

from __future__ import annotations

import re
from itertools import product

NIL = "[]"
CONS = "."


def is_var(t) -> bool:
    return isinstance(t, str) and (t[0].isupper() or t[0] == "_")


def rule(head, body=()) -> tuple:
    """Rule with its body deduplicated, first occurrence kept."""
    return (head, tuple(dict.fromkeys(body)))


def make_list(elems, tail=NIL):
    for e in reversed(elems):
        tail = (CONS, e, tail)
    return tail


def numeral(k: int, zero="0"):
    t = zero
    for _ in range(k):
        t = ("s", t)
    return t


# ---------------------------------------------------------------------------
# Printing (the input files are written with this)


def term_text(t) -> str:
    if isinstance(t, str):
        return t
    if len(t) == 1:  # propositional atom
        return t[0]
    if t[0] == CONS and len(t) == 3:
        elems = []
        while isinstance(t, tuple) and t[0] == CONS and len(t) == 3:
            elems.append(term_text(t[1]))
            t = t[2]
        tail = "" if t == NIL else "|" + term_text(t)
        return "[" + ",".join(elems) + tail + "]"
    return t[0] + "(" + ",".join(term_text(a) for a in t[1:]) + ")"


atom_text = term_text


def rule_text(r) -> str:
    head, body = r
    if not body:
        return atom_text(head) + "."
    return atom_text(head) + " :- " + ", ".join(atom_text(a) for a in body) + "."


def program_text(rules) -> str:
    return "".join(rule_text(r) + "\n" for r in rules)


def query_text(goals) -> str:
    return "?- " + ", ".join(atom_text(a) for a in goals) + "."


# ---------------------------------------------------------------------------
# Parsing (seqhorn's output is read back with this)

_TOKEN = re.compile(r"\s*(?:(%[^\n]*)|(:-)|(\?-)|([A-Za-z0-9_]+)|([()\[\],|.]))")


class SyntaxProblem(ValueError):
    pass


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise SyntaxProblem(f"bad character at {pos}: {text[pos:pos + 10]!r}")
        pos = m.end()
        if m.group(1) is None:
            out.append(m.group(m.lastindex))
    return out


class _Reader:
    def __init__(self, text: str) -> None:
        self.toks = _tokens(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise SyntaxProblem(f"expected {want!r}, found {tok!r}")
        self.i += 1
        return tok

    def term(self):
        tok = self.take()
        if tok == "[":
            if self.peek() == "]":
                self.take()
                return NIL
            elems = [self.term()]
            while self.peek() == ",":
                self.take()
                elems.append(self.term())
            tail = NIL
            if self.peek() == "|":
                self.take()
                tail = self.term()
            self.take("]")
            return make_list(elems, tail)
        if not re.fullmatch(r"[A-Za-z0-9_]+", tok):
            raise SyntaxProblem(f"expected a term, found {tok!r}")
        if self.peek() == "(" and not is_var(tok):
            self.take()
            args = [self.term()]
            while self.peek() == ",":
                self.take()
                args.append(self.term())
            self.take(")")
            return (tok, *args)
        return tok

    def atom(self):
        t = self.term()
        if is_var(t) or t == NIL or (isinstance(t, tuple) and t[0] == CONS):
            raise SyntaxProblem(f"not an atom: {t!r}")
        return t if isinstance(t, tuple) else (t,)

    def atoms(self):
        out = [self.atom()]
        while self.peek() == ",":
            self.take()
            out.append(self.atom())
        return out


def parse_rules(text: str) -> list:
    rd = _Reader(text)
    out = []
    while rd.peek() is not None:
        head = rd.atom()
        body = []
        if rd.peek() == ":-":
            rd.take()
            body = rd.atoms()
        rd.take(".")
        out.append(rule(head, body))
    return out


def parse_goals(text: str) -> list:
    rd = _Reader(text)
    goals = rd.atoms()
    if rd.peek() is not None:
        raise SyntaxProblem(f"trailing text after goals: {rd.peek()!r}")
    return goals


# ---------------------------------------------------------------------------
# Unification (occurs check on) and renaming


def walk(t, s):
    while is_var(t) and t in s:
        t = s[t]
    return t


def _occurs(v, t, s) -> bool:
    stack = [t]
    while stack:
        t = walk(stack.pop(), s)
        if t == v:
            return True
        if isinstance(t, tuple):
            stack.extend(t[1:])
    return False


def unify(a, b, s=None):
    """Most general unifier extending ``s`` (triangular), or None."""
    s = {} if s is None else dict(s)
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x, y = walk(x, s), walk(y, s)
        if x == y:
            continue
        if is_var(x) or is_var(y):
            v, t = (x, y) if is_var(x) else (y, x)
            if _occurs(v, t, s):
                return None
            s[v] = t
        elif (isinstance(x, tuple) and isinstance(y, tuple)
              and len(x) == len(y) and x[0] == y[0]):
            stack.extend(zip(x[1:], y[1:]))
        else:
            return None
    return s


def resolve(t, s):
    t = walk(t, s)
    if isinstance(t, tuple):
        return (t[0], *(resolve(a, s) for a in t[1:]))
    return t


def term_vars(t, acc: dict) -> dict:
    if is_var(t):
        acc.setdefault(t)
    elif isinstance(t, tuple):
        for a in t[1:]:
            term_vars(a, acc)
    return acc


def rule_vars(r) -> list:
    acc: dict = {}
    term_vars(r[0], acc)
    for a in r[1]:
        term_vars(a, acc)
    return list(acc)


def rename_vars(t, ren: dict):
    """Replace variables by ``ren`` in one step (no chains, unlike resolve)."""
    if is_var(t):
        return ren.get(t, t)
    if isinstance(t, tuple):
        return (t[0], *(rename_vars(a, ren) for a in t[1:]))
    return t


def rename_rule(r, ren: dict):
    return (rename_vars(r[0], ren), tuple(rename_vars(a, ren) for a in r[1]))


def rename(r, tag: str):
    return rename_rule(r, {v: f"{v}#{tag}" for v in rule_vars(r)})


def standardize(r):
    """Variant of ``r`` whose variables ``P1, P2, ...`` contain no ``#``, so
    they never meet a name ``rename`` makes."""
    return rename_rule(r, {v: f"P{i}" for i, v in enumerate(rule_vars(r), start=1)})


# ---------------------------------------------------------------------------
# First-order composition P o R


def compose(p, r) -> list:
    """Every rule of P with each body atom resolved against an independent
    variant of a rule of R whose head it unifies with; facts pass through."""
    by_key: dict = {}
    for rr in r:
        by_key.setdefault((rr[0][0], len(rr[0])), []).append(rr)
    out = []
    for head, body in map(standardize, p):
        if not body:
            out.append((head, ()))
            continue
        pools = [by_key.get((b[0], len(b)), []) for b in body]
        for choice in product(*pools):
            s: dict | None = {}
            variants = [rename(c, str(i)) for i, c in enumerate(choice)]
            for b, v in zip(body, variants):
                s = unify(b, v[0], s)
                if s is None:
                    break
            if s is None:
                continue
            out.append(rule(resolve(head, s),
                            (resolve(a, s) for v in variants for a in v[1])))
    return out


def dual(p) -> list:
    out = [r for r in p if not r[1]]
    out.extend((a, (head,)) for head, body in p for a in body)
    return out


def width(p) -> int:
    best = 0
    for head, body in p:
        if body:
            hv = set(term_vars(head, {}))
            bv: dict = {}
            for a in body:
                term_vars(a, bv)
            best = max(best, len(hv & set(bv)))
    return best


# ---------------------------------------------------------------------------
# Alpha-equivalence


def _shape(t):
    if is_var(t):
        return "_"
    if isinstance(t, tuple):
        return (t[0], *(_shape(a) for a in t[1:]))
    return t


def rule_shape(r):
    """Alpha-invariant bucket key: the rule with every variable blanked."""
    return (_shape(r[0]), tuple(sorted(map(repr, (_shape(a) for a in r[1])))))


def _match(x, y, fwd: dict, bwd: dict) -> bool:
    stack = [(x, y)]
    while stack:
        x, y = stack.pop()
        if is_var(x) or is_var(y):
            if not (is_var(x) and is_var(y)):
                return False
            if fwd.get(x, y) != y or bwd.get(y, x) != x:
                return False
            fwd[x], bwd[y] = y, x
        elif isinstance(x, tuple):
            if not isinstance(y, tuple) or len(x) != len(y) or x[0] != y[0]:
                return False
            stack.extend(zip(x[1:], y[1:]))
        elif x != y:
            return False
    return True


def rules_alpha_equal(a, b) -> bool:
    """A variable bijection maps a's head to b's and a's body set onto b's."""
    if len(a[1]) != len(b[1]) or rule_shape(a) != rule_shape(b):
        return False
    fwd: dict = {}
    bwd: dict = {}
    if not _match(a[0], b[0], fwd, bwd):
        return False

    def place(i: int, fwd: dict, bwd: dict, used: frozenset) -> bool:
        if i == len(a[1]):
            return True
        for j, cand in enumerate(b[1]):
            if j in used:
                continue
            f, w = dict(fwd), dict(bwd)
            if _match(a[1][i], cand, f, w) and place(i + 1, f, w, used | {j}):
                return True
        return False

    return place(0, fwd, bwd, frozenset())


def alpha_distinct(rules) -> list:
    buckets: dict = {}
    out = []
    for r in rules:
        same = buckets.setdefault(rule_shape(r), [])
        if not any(rules_alpha_equal(r, o) for o in same):
            same.append(r)
            out.append(r)
    return out


def alpha_difference(a, b) -> list:
    """Rules of ``a`` (up to alpha) with no alpha-variant in ``b``."""
    buckets: dict = {}
    for r in b:
        buckets.setdefault(rule_shape(r), []).append(r)
    return [r for r in alpha_distinct(a)
            if not any(rules_alpha_equal(r, o) for o in buckets.get(rule_shape(r), ()))]


def programs_alpha_equal(a, b) -> bool:
    return not alpha_difference(a, b) and not alpha_difference(b, a)


def same_shape_permutations(r) -> int:
    """Product over groups of body atoms equal up to variable names of the
    group size factorial: the orderings a brute-force canonicalizer tries."""
    counts: dict = {}
    for a in r[1]:
        k = repr(_shape(a))
        counts[k] = counts.get(k, 0) + 1
    n = 1
    for c in counts.values():
        for i in range(2, c + 1):
            n *= i
    return n


# ---------------------------------------------------------------------------
# Ground programs: grounding, least model, one consequence step


def _symbols(t, fns: set, consts: set) -> None:
    if is_var(t):
        return
    if isinstance(t, tuple):
        fns.add((t[0], len(t) - 1))
        for a in t[1:]:
            _symbols(a, fns, consts)
    else:
        consts.add(t)


def ground_terms(rules, depth: int, atoms=()) -> list:
    fns: set = set()
    consts: set = set()
    for a in [x for r in rules for x in (r[0], *r[1])] + list(atoms):
        for t in a[1:]:
            _symbols(t, fns, consts)
    terms = sorted(consts)
    for _ in range(depth):
        prev = list(terms)
        known = set(terms)
        new = [t for f, n in sorted(fns) for t in ((f, *args) for args in product(prev, repeat=n))
               if t not in known]
        if not new:
            break
        terms.extend(new)
    return terms


def ground(rules, depth: int = 0, atoms=()) -> set:
    """All ground instances over terms of nesting depth <= depth, as
    (head, frozenset(body)) pairs."""
    terms = ground_terms(rules, depth, atoms)
    out = set()
    for r in rules:
        names = rule_vars(r)
        for combo in product(terms, repeat=len(names)):
            s = dict(zip(names, combo))
            out.add((resolve(r[0], s), frozenset(resolve(a, s) for a in r[1])))
    return out


def least_model(ground_rules) -> set:
    """Counter-based forward chaining (linear in the program size)."""
    waiting: dict = {}
    missing = []
    agenda = []
    heads = []
    for i, (head, body) in enumerate(ground_rules):
        heads.append(head)
        missing.append(len(body))
        for a in body:
            waiting.setdefault(a, []).append(i)
        if not body:
            agenda.append(head)
    model: set = set()
    while agenda:
        a = agenda.pop()
        if a in model:
            continue
        model.add(a)
        for i in waiting.get(a, ()):
            missing[i] -= 1
            if missing[i] == 0:
                agenda.append(heads[i])
    return model


def tp(ground_rules, interp) -> set:
    return {h for h, body in ground_rules if body <= interp}


def prop_compose(p, r) -> set:
    """Ground composition on (head, frozenset(body)) pairs."""
    by_head: dict = {}
    for h, body in r:
        by_head.setdefault(h, []).append(body)
    out = set()
    for h, body in p:
        unions = {frozenset()}
        for b in body:
            unions = {u | w for u in unions for w in by_head.get(b, ())}
        out.update((h, u) for u in unions)
    return out


def as_ground(rules) -> set:
    return {(h, frozenset(body)) for h, body in rules}


# ---------------------------------------------------------------------------
# Checkers: each returns None when the output is right, else a reason.

OUTCOME_RC = {"refutation": 0, "failed": 1, "depth-exceeded": 1}


def check_text(rc: int, out: str, want_rc: int, want: str):
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    if out != want:
        return f"stdout {out[:60]!r}, expected {want[:60]!r}"
    return None


def check_program(rc: int, out: str, want_rules):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    try:
        got = parse_rules(out)
    except SyntaxProblem as exc:
        return f"unparsable output: {exc}"
    if len(got) != len(alpha_distinct(got)):
        return "output repeats a rule up to renaming"
    if not programs_alpha_equal(got, want_rules):
        return "printed program differs from the reference up to renaming"
    return None


def check_ground_program(rc: int, out: str, want: set):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    try:
        got = as_ground(parse_rules(out))
    except SyntaxProblem as exc:
        return f"unparsable output: {exc}"
    if got != want:
        return f"{len(got ^ want)} ground rules differ from the reference"
    return None


def check_atoms(rc: int, out: str, want: set):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    try:
        rules = parse_rules(out)
    except SyntaxProblem as exc:
        return f"unparsable output: {exc}"
    if any(body for _, body in rules):
        return "atom listing holds a rule"
    got = {h for h, _ in rules}
    if got != want or len(rules) != len(want):
        return f"{len(got ^ want)} atoms differ from the reference"
    return None


def check_verify(rc: int, out: str, target, base, prefix, suffix):
    composed = compose(compose(prefix, base), suffix)
    missing = alpha_difference(target, composed)
    extra = alpha_difference(composed, target)
    if not missing and not extra:
        return check_text(rc, out, 0, "verified\n")
    if rc != 1:
        return f"exit code {rc}, expected 1"
    lines = out.splitlines()
    if not lines or lines[0] != "not equal":
        return "first line is not 'not equal'"
    def listed(tag: str) -> list:
        return parse_rules("".join(l[len(tag):] for l in lines if l.startswith(tag)))

    try:
        got_m, got_e = listed("missing: "), listed("extra: ")
    except SyntaxProblem as exc:
        return f"unparsable diagnostic: {exc}"
    if len(got_m) + len(got_e) != len(lines) - 1:
        return "unexpected diagnostic lines"
    if not programs_alpha_equal(got_m, missing) or not programs_alpha_equal(got_e, extra):
        return "missing/extra rules differ from the reference"
    return None


def check_trace(rc: int, out: str, program, label: str, goals):
    """Replay a printed SLD refutation: every step must resolve the leftmost
    goal with a variant of a program rule and print the exact resolvent."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    lines = out.splitlines()
    try:
        if not lines or lines[0] != "? " + ", ".join(atom_text(a) for a in goals):
            return "trace does not start with the query"
        current = list(goals)
        for n, line in enumerate(lines[1:], start=1):
            lab, _, rest = line.partition(" ")
            rule_part, sep, after = rest.partition(" ⊢ ")
            if lab != label or not sep:
                return f"step {n}: malformed line"
            (used,) = parse_rules(rule_part)
            if not any(rules_alpha_equal(used, r) for r in program):
                return f"step {n}: rule not in the program"
            if not current:
                return f"step {n}: resolving the empty query"
            head, body = rename(used, str(n))
            s = unify(current[0], head)
            if s is None:
                return f"step {n}: rule head does not unify with the goal"
            current = [resolve(a, s) for a in (*body, *current[1:])]
            printed = [] if after == "□" else parse_goals(after)
            if not rules_alpha_equal((("?", *printed), ()), (("?", *current), ())):
                return f"step {n}: printed resolvent differs"
            current = printed
    except ValueError as exc:  # SyntaxProblem, or a step line holding no single rule
        return f"unparsable trace: {exc}"
    if current:
        return "trace does not end in the empty query"
    return None


SECTIONS = ("TARGET", "BASE", "PREFIX", "SUFFIX")


def parse_certificate(out: str) -> dict:
    parts: dict = {}
    current = None
    for line in out.splitlines():
        if line.startswith("% ") and line[2:] in SECTIONS:
            current = line[2:]
            parts[current] = []
        elif current is None:
            raise SyntaxProblem("text before the first section")
        else:
            parts[current].append(line + "\n")
    if tuple(parts) != SECTIONS:
        raise SyntaxProblem(f"sections {tuple(parts)}")
    return {k: as_ground(parse_rules("".join(v))) for k, v in parts.items()}


UNDECIDED = "undecided"


def check_search(rc: int, out: str, target: set, base: set, must: str | None):
    """``must`` is "found", "not-found" or None (verdict not known in
    advance).  Any printed certificate is composed and compared."""
    if rc == 3 and out == "time budget exceeded\n":
        return UNDECIDED
    if rc == 1 and out in ("not found (exhaustive bounds)\n", "not found (within bounds)\n"):
        return "not found, but a reduction exists" if must == "found" else None
    if rc != 0:
        return f"exit code {rc} with stdout {out[:60]!r}"
    if must == "not-found":
        return "found a reduction that cannot exist"
    try:
        cert = parse_certificate(out)
    except SyntaxProblem as exc:
        return f"unparsable certificate: {exc}"
    if cert["TARGET"] != target or cert["BASE"] != base:
        return "certificate names other programs"
    if prop_compose(prop_compose(cert["PREFIX"], base), cert["SUFFIX"]) != target:
        return "certificate does not compose to the target"
    return None


SIMILAR_RC = {"similar": 0, "P<R": 1, "R<P": 1, "incomparable-within-bounds": 1}


def check_similar(rc: int, out: str, want: str):
    if rc == 3:
        return UNDECIDED
    return check_text(rc, out, SIMILAR_RC[want], want + "\n")

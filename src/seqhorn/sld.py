"""SLD resolution with leftmost selection, plus translated derivations.

One depth-first engine runs both kinds of derivation, and ``compose`` too;
they differ only in the phase schedule it follows.  Each macro step
resolves the leftmost goal with a rule of the schedule's first program;
every later stage then resolves, left to right, each goal the stage before
it introduced, with a rule of its own program.  The engine keeps its choice
points on an explicit stack, backtracks over rules in program order, and
yields the leaves of its search: refutations, and resolvents at the depth
limit.  ``compose`` runs it for one macro step whose first stage resolves
a whole rule body, and reads a composed rule off each leaf.  The engine
tries, and renames apart, only the candidate rules for a goal: those whose
head has the goal's predicate and arity and whose first argument does not
clash with the goal's, looked up in an index built once per search.  Fresh
names are still drawn as if every rule had been renamed in program order,
so a trace names its variables exactly as a search that renamed every rule
would.  The depth limit counts macro steps and does not depend on Python's
recursion limit.  With ``shortest=True`` the search runs iterative
deepening and returns a refutation with the fewest macro steps instead of
the first one in search order.

``sld`` is textbook SLD: the schedule is one phase (P) over one program.

``translated_sld`` answers a query of one program through another with the
schedule prefix (Q), base (R), suffix (S): each macro step resolves the
selected goal with a prefix rule, each atom that introduces with a base
rule, and each atom those introduce with a suffix rule, backtracking across
all three choice points; a stage that introduces nothing ends the macro
step early.  One macro step realizes one application of a composed
(prefix o base) o suffix rule; to keep that exact, every stage's freshly
introduced block of goals is deduplicated (rule bodies are sets).  When the
decomposition identity holds for the query's native program, a refutation
here certifies the native consequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

from .programs import CompositionBudgetError, Program, Rule, rename_fresh, rule_vars
from .terms import Atom, Const, FreshVars, Subst, Var, atom_vars, subst_atom, unify

REFUTATION = "refutation"
FAILED = "failed"
DEPTH_EXCEEDED = "depth-exceeded"

DEFAULT_DEPTH_LIMIT = 1000


@dataclass(frozen=True)
class Query:
    goals: tuple[Atom, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.goals


@dataclass
class DerivationStep:
    query_before: Query
    index: int  # position of the selected atom
    phase: str  # one of "P", "Q", "R", "S"
    rule: Rule  # the program rule, as stored (for display)
    variant: Rule  # the renamed-apart copy actually resolved with
    unifier: Subst
    query_after: Query


@dataclass
class Derivation:
    query: Query
    steps: list[DerivationStep] = field(default_factory=list)
    outcome: str = FAILED

    @property
    def is_refutation(self) -> bool:
        return self.outcome == REFUTATION


def _resolvent(goals: tuple[Atom, ...], index: int, body: tuple[Atom, ...],
               theta: Subst) -> tuple[Atom, ...]:
    """``goals`` with the one at ``index`` replaced by ``body``, under ``theta``."""
    goals = goals[:index] + body + goals[index + 1:]
    return tuple(subst_atom(a, theta) for a in goals) if theta else goals


def resolve(q: Query, r: Rule):
    """Resolvent of a nonempty query and a rule already renamed apart.

    Unifies the leftmost goal with the rule head, replaces it by the rule
    body (in its canonical order) and applies the mgu to the whole
    resolvent.  Returns (Query, unifier) or None.
    """
    if q.is_empty:
        raise ValueError("cannot resolve the empty query")
    theta = unify(q.goals[0], r.head)
    if theta is None:
        return None
    return Query(_resolvent(q.goals, 0, r.body, theta)), theta


def sld(p: Program, q: Query, depth_limit: int = DEFAULT_DEPTH_LIMIT,
        shortest: bool = False) -> Derivation:
    """First refutation by depth-first search, or an explicit non-success.

    Outcomes: ``refutation`` (steps hold the successful derivation),
    ``failed`` (search space exhausted below the bound), or
    ``depth-exceeded`` (some branch hit the bound, so nothing is claimed).
    """
    return _run_search(q, [(p, "P")], False, depth_limit, shortest)


def translated_sld(prefix: Program, base: Program, suffix: Program, q: Query,
                   depth_limit: int = DEFAULT_DEPTH_LIMIT,
                   shortest: bool = False) -> Derivation:
    """Answer a query by routing every derivation step through another
    program: prefix step (Q), one base step per introduced atom (R), one
    suffix step per atom the base steps introduced (S, skipped when nothing
    was introduced).  Backtracks across all three choice points; the depth
    limit counts macro steps.
    """
    schedule = [(prefix, "Q"), (base, "R"), (suffix, "S")]
    return _run_search(q, schedule, True, depth_limit, shortest)


def _run_search(q: Query, schedule, dedup: bool, depth_limit: int,
                shortest: bool) -> Derivation:
    if depth_limit < 0:
        raise ValueError(f"depth limit must be at least 0, not {depth_limit}")
    pool = FreshVars(avoid=[n for a in q.goals for n in atom_vars(a)])
    indexes = [_RuleIndex(prog) for prog, _ in schedule]
    for bound in range(depth_limit + 1) if shortest else (depth_limit,):
        exceeded = False
        for goals, path in _search(indexes, dedup, pool, q.goals, 1, bound):
            if not goals:
                return Derivation(q, [DerivationStep(Query(g), i, schedule[s][1], r, v, th,
                                                     Query(after))
                                      for g, i, s, r, v, th, after in path], REFUTATION)
            exceeded = True
        if not exceeded:
            return Derivation(q, [], FAILED)
    return Derivation(q, [], DEPTH_EXCEEDED)


def _first_symbol(a: Atom):
    """The symbol of ``a``'s first argument: a constant's name, or a
    compound's functor and arity; None for a variable or no argument."""
    if not a.args or isinstance(a.args[0], Var):
        return None
    t = a.args[0]
    return t.name if isinstance(t, Const) else (t.functor, len(t.args))


class _RuleIndex:
    """The rules of one program that can resolve a goal: those whose head
    has the goal's predicate and arity and, unless one of the two is a
    variable or absent, the same first-argument symbol."""

    def __init__(self, program: Program) -> None:
        self._rules = program.rules
        # _ends[i] is the number of fresh names renaming rules[:i] takes.
        self._ends = list(accumulate((len(rule_vars(r)) for r in self._rules), initial=0))
        self._by_pred: dict[tuple[str, int], list[int]] = {}
        for i, r in enumerate(self._rules):
            self._by_pred.setdefault((r.head.pred, len(r.head.args)), []).append(i)
        self._memo: dict[tuple, tuple] = {}

    def tries(self, goal: Atom) -> tuple:
        """The candidate rules for ``goal`` in program order, each paired
        with the number of fresh names that renaming the rules passed over
        since the one before would have taken; then the number for the
        rules after the last candidate, paired with None.  Memoized per
        (predicate, arity, first-argument symbol)."""
        key = (goal.pred, len(goal.args), _first_symbol(goal))
        found = self._memo.get(key)
        if found is None:
            symbol, rules, ends = key[2], self._rules, self._ends
            found, done = [], 0
            for i in self._by_pred.get(key[:2], ()):
                if symbol is None or _first_symbol(rules[i].head) in (None, symbol):
                    found.append((ends[i] - ends[done], rules[i]))
                    done = i + 1
            found.append((ends[-1] - ends[done], None))
            found = self._memo[key] = tuple(found)
        return found


def _dedup_block(goals: tuple[Atom, ...], end: int) -> tuple[tuple[Atom, ...], int]:
    uniq = tuple(dict.fromkeys(goals[:end]))  # first occurrences, in order
    return uniq + goals[end:], len(uniq)


def _search(indexes: list[_RuleIndex], dedup: bool, pool: FreshVars,
            query: tuple[Atom, ...], n: int, depth_limit: int,
            tries: int = 0, cap: float = math.inf):
    """The leaves of the depth-first search from ``query`` within
    ``depth_limit`` macro steps, in search order: each refutation, and each
    resolvent that the limit stops, with the path of steps to it.  The
    path is reused as the search goes on; copy it to keep it.

    The first macro step resolves the query's first ``n`` goals (with
    ``n`` = 0 the query is the one leaf); every later one, the leftmost
    goal.  Each stage after the first resolves, left to right, the block
    of goals the stage before it introduced, with a rule of its own index.
    With ``dedup`` set, each stage's block is deduplicated when the stage
    ends.  A macro step ends after the last stage, or early when a stage
    introduces no goals.  Every candidate tried adds one to ``tries``;
    past ``cap`` the search raises ``CompositionBudgetError``.
    """
    if not query or not n or not depth_limit:
        yield query, []
        return
    last = len(indexes) - 1
    # A frame: goals, stage, position of the next goal to resolve, goals
    # left in the stage, macro steps left, the goal's untried candidates.
    stack = [(query, 0, 0, n, depth_limit, iter(indexes[0].tries(query[0])))]
    path = []  # the resolution that led to each frame above the first
    while stack:
        goals, stage, pos, left, depth, candidates = stack[-1]
        # Fresh names are drawn as if every rule were renamed in turn.
        for skipped, rule in candidates:
            if skipped:
                pool.skip(skipped)
            if rule is None:
                break
            tries += 1
            if tries > cap:
                raise CompositionBudgetError(f"over {cap} candidate tries for one rule")
            variant = rename_fresh(rule, pool)
            theta = unify(goals[pos], variant.head)
            if theta is not None:
                break
        if rule is None:  # the goal's candidates are spent
            stack.pop()
            if path:
                path.pop()
            continue
        new_goals = _resolvent(goals, pos, variant.body, theta)
        path.append((goals, pos, stage, rule, variant, theta, new_goals))
        end = pos + len(variant.body)
        if left > 1:
            stack.append((new_goals, stage, end, left - 1, depth,
                          iter(indexes[stage].tries(new_goals[end]))))
            continue
        new_goals, block = _dedup_block(new_goals, end) if dedup else (new_goals, end)
        if block and stage < last:
            stack.append((new_goals, stage + 1, 0, block, depth,
                          iter(indexes[stage + 1].tries(new_goals[0]))))
        elif not new_goals or depth == 1:
            yield new_goals, path
            path.pop()
        else:
            stack.append((new_goals, 0, 0, 1, depth - 1, iter(indexes[0].tries(new_goals[0]))))


def macro_step_count(d: Derivation) -> int:
    """Number of macro steps in a translated refutation (Q-steps start one
    each); for plain derivations this is just the step count."""
    if not d.steps:
        return 0
    if all(s.phase == "P" for s in d.steps):
        return len(d.steps)
    return sum(1 for s in d.steps if s.phase == "Q")


# ---------------------------------------------------------------------------
# Trace rendering


def render_derivation(d: Derivation, labels: dict[str, str] | None = None) -> str:
    """One line per step: ``<phase> <rule> ⊢ <resolvent>``, preceded by the
    initial query line and with ``□`` for the empty query."""
    from .syntax import goals_to_text, rule_to_text

    shown = dict(labels or {})
    lines = ["? " + goals_to_text(d.query.goals)]
    for step in d.steps:
        label = shown.get(step.phase, step.phase)
        after = goals_to_text(step.query_after.goals) if step.query_after.goals else "□"
        lines.append(f"{label} {rule_to_text(step.rule)} ⊢ {after}")
    return "\n".join(lines) + "\n"

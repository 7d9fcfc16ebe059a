"""First-order terms, atoms and substitutions over an unranked language.

Terms are immutable trees: variables, constants, and compound terms with
at least one argument (a zero-argument compound is a constant).  The same
functor symbol may occur with several arities.  Atoms carry a predicate
symbol and a possibly empty argument tuple; an atom with no arguments is
propositional.

A substitution is a plain ``dict`` from variable names to terms.  The
unifiers produced here are idempotent: no binding's value mentions a bound
variable, so applying a unifier twice equals applying it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from operator import is_
from typing import Iterable, Iterator, Union


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Compound:
    functor: str
    args: "tuple[Term, ...]"

    # Equality and hashing walk the term with an explicit stack, so they work
    # at any depth.  The hash equals the one dataclass would generate; it is
    # computed once per term and cached here.
    _hash = None

    def __post_init__(self) -> None:
        if not self.args:
            raise ValueError("compound terms need at least one argument; use Const")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Compound:
            return NotImplemented
        return _compounds_equal(self, other)

    def __hash__(self) -> int:
        h = self._hash
        return _cache_hashes(self) if h is None else h


Term = Union[Var, Const, Compound]


def _compounds_equal(x: Compound, y: Compound) -> bool:
    pairs = []
    while True:
        if x.functor != y.functor or len(x.args) != len(y.args):
            return False
        for a, b in zip(x.args, y.args):
            if a is b:
                continue
            if a.__class__ is Compound and b.__class__ is Compound:
                pairs.append((a, b))
            elif a != b:
                return False
        if not pairs:
            return True
        x, y = pairs.pop()


def _cache_hashes(t: Compound) -> int:
    # Cache the hash of every uncached compound subterm, children first, so
    # that hashing a node only looks up its children's cached hashes.
    stack = [t]
    while stack:
        node = stack[-1]
        height = len(stack)
        for a in node.args:
            if a.__class__ is Compound and a._hash is None:
                stack.append(a)
        if len(stack) == height:
            stack.pop()
            node.__dict__["_hash"] = hash((node.functor, node.args))
    return t._hash


Subst = dict[str, Term]


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        from .syntax import atom_to_text

        return atom_to_text(self)


def compound(functor: str, *args: Term) -> Compound:
    return Compound(functor, tuple(args))


def atom(pred: str, *args: Term) -> Atom:
    return Atom(pred, tuple(args))


# ---------------------------------------------------------------------------
# Variables and groundness


def _var_names(terms: tuple[Term, ...]) -> list[str]:
    """Names of the variables in ``terms``, left to right, repeats included.
    Compound terms are walked on an explicit stack, so any depth works."""
    names = []
    for t in terms:
        if isinstance(t, Var):
            names.append(t.name)
        elif isinstance(t, Compound):
            todo = [t]
            while todo:
                t = todo.pop()
                if isinstance(t, Var):
                    names.append(t.name)
                elif isinstance(t, Compound):
                    todo += t.args[::-1]
    return names


def term_vars(t: Term, acc: set[str] | None = None) -> set[str]:
    """Set of variable names occurring in ``t``."""
    if acc is None:
        acc = set()
    acc.update(_var_names((t,)))
    return acc


def atom_vars(a: Atom, acc: set[str] | None = None) -> set[str]:
    if acc is None:
        acc = set()
    for t in a.args:
        if isinstance(t, Var):
            acc.add(t.name)
        elif isinstance(t, Compound):
            acc.update(_var_names(t.args))
    return acc


def term_var_order(t: Term, seen: dict[str, None]) -> None:
    """Add variable names to the insertion-ordered ``seen`` in
    first-occurrence order."""
    for name in _var_names((t,)):
        seen.setdefault(name)


def atom_var_order(a: Atom, seen: dict[str, None]) -> None:
    for t in a.args:
        if isinstance(t, Var):
            seen.setdefault(t.name)
        elif isinstance(t, Compound):
            for name in _var_names(t.args):
                seen.setdefault(name)


def term_is_ground(t: Term) -> bool:
    return not _var_names((t,))


def atom_is_ground(a: Atom) -> bool:
    return not _var_names(a.args)


# ---------------------------------------------------------------------------
# Substitution application


def subst_term(t: Term, s: Subst) -> Term:
    """``t`` with every variable bound in ``s`` replaced by its value.

    Subterms that ``s`` leaves unchanged are shared with ``t``, not copied.
    The walk keeps its own stack, so terms of any depth work.
    """
    if isinstance(t, Var):
        return s.get(t.name, t)
    if not s or not isinstance(t, Compound):
        return t
    stack = []  # (compound, index of its next argument, arguments done)
    node, i, done = t, 0, []
    while True:
        args = node.args
        while i < len(args):
            a = args[i]
            i += 1
            if isinstance(a, Var):
                done.append(s.get(a.name, a))
            elif isinstance(a, Compound):
                stack.append((node, i, done))
                node, i, done, args = a, 0, [], a.args
            else:
                done.append(a)
        if not all(map(is_, done, args)):
            node = Compound(node.functor, tuple(done))
        if not stack:
            return node
        parent, i, done = stack.pop()
        done.append(node)
        node = parent


def subst_atom(a: Atom, s: Subst) -> Atom:
    if not a.args:
        return a
    return Atom(a.pred, tuple(subst_term(t, s) for t in a.args))


# ---------------------------------------------------------------------------
# Unification (occurs check always on)


def _occurs(name: str, t: Term) -> bool:
    return isinstance(t, Compound) and name in _var_names(t.args)


def _unify_args(xs: tuple[Term, ...], ys: tuple[Term, ...], s: Subst) -> bool:
    # Extends the idempotent ``s`` in place to unify each x with its y, or
    # returns False.  Pairs are unified depth first, left to right, each
    # under the bindings made before it; the pending pairs are kept on a
    # stack.  Since ``s`` is idempotent, one lookup resolves a variable, and
    # a term is substituted in full only when a variable is bound to it;
    # binding then rewrites the old values, so ``s`` stays idempotent.
    pairs = list(zip(xs, ys))
    pairs.reverse()
    while pairs:
        x, y = pairs.pop()
        if isinstance(x, Var):
            x = s.get(x.name, x)
        if isinstance(y, Var):
            y = s.get(y.name, y)
        if isinstance(x, Var):
            v, t = x.name, subst_term(y, s)
        elif isinstance(y, Var):
            v, t = y.name, subst_term(x, s)
        else:
            if (isinstance(x, Compound) and isinstance(y, Compound)
                    and x.functor == y.functor and len(x.args) == len(y.args)):
                if x is not y:
                    pairs.extend(reversed(tuple(zip(x.args, y.args))))
            elif x != y:
                return False
            continue
        if isinstance(t, Var) and t.name == v:
            continue
        if _occurs(v, t):
            return False
        one: Subst = {v: t}
        for k, u in s.items():
            s[k] = subst_term(u, one)
        s[v] = t
    return True


def unify(a: Atom, b: Atom, s: Subst | None = None) -> Subst | None:
    """Most general unifier of two atoms, or None.

    The result is idempotent and satisfies ``subst_atom(a, s) ==
    subst_atom(b, s)``; ``s`` itself is left unchanged.  Failure (predicate
    or arity mismatch, clash, occurs check) is a None return, not an
    exception.
    """
    if a.pred != b.pred or len(a.args) != len(b.args):
        return None
    s = {} if s is None else dict(s)
    return s if not a.args or _unify_args(a.args, b.args, s) else None


def unify_pairs(pairs: Iterable[tuple[Atom, Atom]]) -> Subst | None:
    """Single substitution unifying every pair simultaneously, or None."""
    s: Subst = {}
    for a, b in pairs:
        if (a.pred != b.pred or len(a.args) != len(b.args)
                or not _unify_args(a.args, b.args, s)):
            return None
    return s


# ---------------------------------------------------------------------------
# Fresh variable names

class FreshVars:
    """Per-computation source of variable names unused anywhere else.

    Issued names start with ``_G`` and therefore never collide with
    canonical names (``v1``, ``v2``, ...).  ``avoid`` guards against user
    supplied names, e.g. from a query.
    """

    def __init__(self, avoid: Iterable[str] = ()) -> None:
        self._avoid = set(avoid)
        self._counter = count(1)

    def __iter__(self) -> Iterator[str]:
        return self

    def __next__(self) -> str:
        while True:
            name = f"_G{next(self._counter)}"
            if name not in self._avoid:
                return name


# ---------------------------------------------------------------------------
# Structural total order used for canonical forms

_VAR, _CONST, _COMPOUND = 0, 1, 2


def term_key(t: Term, named_vars: bool = True) -> tuple:
    """Sort key realizing a fixed total order on terms: the symbols of ``t``
    in preorder, each as ``_VAR, name``, ``_CONST, name`` or ``_COMPOUND,
    functor, arity``.  Arities delimit the subterms, so flat keys compare as
    nested ones (symbol, then the arguments' keys) would.

    With ``named_vars=False`` all variables compare equal (the first-pass
    order used before canonical renaming).
    """
    if isinstance(t, Var):
        return (_VAR, t.name if named_vars else "")
    if isinstance(t, Const):
        return (_CONST, t.name)
    key: list = []
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Var):
            key += (_VAR, t.name if named_vars else "")
        elif isinstance(t, Const):
            key += (_CONST, t.name)
        else:
            key += (_COMPOUND, t.functor, len(t.args))
            todo += t.args[::-1]
    return tuple(key)


def atom_key(a: Atom, named_vars: bool = True):
    """Predicate name, arity, then structural order on arguments."""
    return (a.pred, len(a.args), tuple(term_key(t, named_vars) for t in a.args))

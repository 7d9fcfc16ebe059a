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

import re
from bisect import bisect_left
from dataclasses import FrozenInstanceError, dataclass
from operator import is_
from typing import Iterable, Iterator, Union


# Every term knows whether it is ground: variables never are, constants
# always are, and a compound is when all its arguments are.


@dataclass(frozen=True)
class Var:
    name: str

    ground = False


@dataclass(frozen=True)
class Const:
    name: str

    ground = True


class Compound:
    """An immutable compound term ``functor(args...)``.

    Equality and hashing walk the term with an explicit stack, so they work
    at any depth; the hash is the one a frozen dataclass of the two fields
    would have, computed once per term and cached.  ``ground`` is computed
    from the arguments' flags when the term is built, so building a deep
    term bottom-up never recurses.  The cached fields are slots: a compound
    has no per-instance ``__dict__``.
    """

    __slots__ = ("functor", "args", "ground", "_hash")
    __match_args__ = ("functor", "args")

    def __init__(self, functor: str, args: "tuple[Term, ...]") -> None:
        if not args:
            raise ValueError("compound terms need at least one argument; use Const")
        ground = True
        for a in args:
            if not a.ground:
                ground = False
                break
        _set_functor(self, functor)
        _set_args(self, args)
        _set_ground(self, ground)
        _set_hash(self, None)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Compound, (self.functor, self.args)

    def __repr__(self) -> str:
        return f"Compound(functor={self.functor!r}, args={self.args!r})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Compound:
            return NotImplemented
        return _compounds_equal(self, other)

    def __hash__(self) -> int:
        h = self._hash
        return _cache_hashes(self) if h is None else h


# The slots' own setters, which bypass the frozen ``__setattr__``.
_set_functor = Compound.functor.__set__
_set_args = Compound.args.__set__
_set_ground = Compound.ground.__set__
_set_hash = Compound._hash.__set__


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
            _set_hash(node, hash((node.functor, node.args)))
    return t._hash


Subst = dict[str, Term]


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        from .syntax import atom_to_text

        return atom_to_text(self)


# ---------------------------------------------------------------------------
# Variables and groundness


def var_names(terms: tuple[Term, ...]) -> list[str]:
    """Names of the variables in ``terms``, left to right, repeats included.
    Ground subterms are skipped; the others are walked on an explicit
    stack, so any depth works."""
    names = []
    for t in terms:
        if isinstance(t, Var):
            names.append(t.name)
        elif not t.ground:
            todo = [t]
            while todo:
                t = todo.pop()
                if isinstance(t, Var):
                    names.append(t.name)
                elif not t.ground:
                    todo += t.args[::-1]
    return names


def atom_vars(a: Atom, acc: set[str] | None = None) -> set[str]:
    if acc is None:
        acc = set()
    for t in a.args:
        if isinstance(t, Var):
            acc.add(t.name)
        elif not t.ground:
            acc.update(var_names(t.args))
    return acc


def atom_var_order(a: Atom, seen: dict[str, None]) -> None:
    """Add the names of ``a``'s variables to the insertion-ordered ``seen``
    in first-occurrence order."""
    for t in a.args:
        if isinstance(t, Var):
            seen.setdefault(t.name)
        elif not t.ground:
            for name in var_names(t.args):
                seen.setdefault(name)


def atom_is_ground(a: Atom) -> bool:
    return all(t.ground for t in a.args)


# ---------------------------------------------------------------------------
# Substitution application


def subst_term(t: Term, s: Subst) -> Term:
    """``t`` with every variable bound in ``s`` replaced by its value.

    Subterms that ``s`` leaves unchanged, ground ones among them, are shared
    with ``t``, not copied or walked.  The walk keeps its own stack, so
    terms of any depth work.
    """
    if isinstance(t, Var):
        return s.get(t.name, t)
    if not s or t.ground:
        return t
    stack = []  # (compound, index of its next argument, arguments done)
    node, i, done = t, 0, []
    while True:
        args = node.args
        while i < len(args):
            a = args[i]
            i += 1
            if a.ground:
                done.append(a)
            elif isinstance(a, Var):
                done.append(s.get(a.name, a))
            else:
                stack.append((node, i, done))
                node, i, done, args = a, 0, [], a.args
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
    return isinstance(t, Compound) and not t.ground and name in var_names(t.args)


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

_POOL_NAME = re.compile(r"_G[1-9][0-9]*")  # the names a pool hands out


class FreshVars:
    """Per-computation source of variable names unused anywhere else.

    Issued names start with ``_G`` and therefore never collide with
    canonical names (``v1``, ``v2``, ...).  ``avoid`` guards against user
    supplied names, e.g. from a query.
    """

    def __init__(self, avoid: Iterable[str] = ()) -> None:
        # The numbers n whose name _Gn is avoided, in increasing order.
        self._taken = sorted(int(name[2:]) for name in set(avoid) if _POOL_NAME.fullmatch(name))
        self._next = 1

    def __iter__(self) -> Iterator[str]:
        return self

    def __next__(self) -> str:
        self.skip(1)
        return f"_G{self._next - 1}"

    def skip(self, k: int) -> None:
        """Pass over ``k`` names, exactly as ``k`` calls of ``next`` would."""
        lo, hi = self._next, self._next + k
        taken = self._taken
        while taken:
            # Each avoided number in [lo, hi) pushes the end one further.
            extra = bisect_left(taken, hi) - bisect_left(taken, lo)
            if not extra:
                break
            lo, hi = hi, hi + extra
        self._next = hi


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

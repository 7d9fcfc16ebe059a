"""Surface syntax: parsing and printing of programs and queries.

Grammar:

    rule   :  Head :- B1, ..., Bk.    |   Head.
    query  :  ?- A1, ..., Ak.
    term   :  variable | constant | functor(t1,...,tn) | [] | [a,b] | [H|T]

Variables start with an uppercase letter or ``_``; constants and functors
start with a lowercase letter or a digit.  Numerals are plain constants
(``0``, ``s(0)``), never machine integers, so mixed terms like ``s([])``
parse and print without any typing involved.  ``%`` starts a comment that
runs to the end of the line.

Printing canonical programs renames nothing: canonical variables ``v1``,
``v2``, ... are displayed as ``V1``, ``V2``, ... so that printed text
re-parses to an equal program.
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import NamedTuple

from .programs import Program, Rule
from .terms import Atom, Compound, Const, Term, Var, atom_key

NIL = Const("[]")
CONS = "."


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str, path: str = "<string>"):
        self.line = line
        self.column = column
        self.message = message
        self.path = path
        super().__init__(f"{path}:{line}:{column}: {message}")


class Token(NamedTuple):
    kind: str
    text: str
    offset: int


# Whitespace and comments are unnamed, so they yield no token; ``bad``
# catches every other character.
_TOKEN_RE = re.compile(
    r"""
    \s+
  | %[^\n]*
  | (?P<arrow>:-)
  | (?P<qmark>\?-)
  | (?P<var>[A-Z_][A-Za-z0-9_]*)
  | (?P<ident>[a-z0-9][A-Za-z0-9_]*)
  | (?P<punct>[()\[\],|.])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Parser:
    def __init__(self, text: str, path: str):
        self.text = text
        self.path = path
        # ``tuple.__new__`` skips ``Token.__new__``, which is Python code run per token.
        self.tokens = [tuple.__new__(Token, (m.lastgroup, m.group(), m.start()))
                       for m in _TOKEN_RE.finditer(text) if m.lastgroup]
        self.tokens.append(Token("eof", "", len(text)))
        self.i = 0
        for tok in self.tokens:
            if tok.kind == "bad":
                raise self.error(f"unexpected character {tok.text!r}", tok)

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        """The error at ``tok``, or at the current token; its line and
        column are worked out from the token's offset only here."""
        offset = (tok or self.tokens[self.i]).offset
        line = self.text.count("\n", 0, offset) + 1
        column = offset - self.text.rfind("\n", 0, offset)
        return ParseError(line, column, message, self.path)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text or "end of input"
            raise self.error(f"expected {want!r}, found {got!r}")
        self.i += 1
        return tok

    def at(self, text: str) -> bool:
        # Punctuation text is never the text of a token of another kind.
        return self.tokens[self.i].text == text

    # terms ---------------------------------------------------------------

    def term(self) -> Term:
        """Read one term, keeping the compounds and lists still open on a
        stack, so that terms of any depth parse.  An entry is (kind, functor,
        items read so far), its kind "(" for a compound, "[" for a list
        before its "|" and "|" after it."""
        tokens = self.tokens
        stack: list[tuple[str, str, list[Term]]] = []
        while True:
            tok = tokens[self.i]
            self.i += 1
            if tok.kind == "var":
                t: Term = Var(tok.text)
            elif tok.kind == "ident" and tokens[self.i].text != "(":
                t = Const(tok.text)
            elif tok.kind == "ident":
                self.i += 1
                stack.append(("(", tok.text, []))
                continue
            elif tok.text == "[" and tokens[self.i].text == "]":
                self.i += 1
                t = NIL
            elif tok.text == "[":
                stack.append(("[", "", []))
                continue
            else:
                raise self.error(f"expected a term, found {tok.text or 'end of input'!r}", tok)
            # ``t`` is complete: add it to the open terms, closing those it ends.
            while stack:
                kind, functor, items = stack[-1]
                items.append(t)
                sep = tokens[self.i].text
                if sep == "," and kind != "|":
                    self.i += 1
                    break
                if sep == "|" and kind == "[":
                    self.i += 1
                    stack[-1] = ("|", functor, items)
                    break
                stack.pop()
                if kind == "(":
                    self.expect("punct", ")")
                    t = Compound(functor, tuple(items))
                else:
                    self.expect("punct", "]")
                    t = items.pop() if kind == "|" else NIL
                    for e in reversed(items):
                        t = Compound(CONS, (e, t))
            else:
                return t

    # atoms and rules -------------------------------------------------------

    def atom(self) -> Atom:
        tok = self.expect("ident")
        if not self.at("("):
            return Atom(tok.text)
        self.i -= 1  # read the identifier again, as the functor of a compound term
        return Atom(tok.text, self.term().args)

    def atoms(self) -> list[Atom]:
        out = [self.atom()]
        while self.at(","):
            self.i += 1
            out.append(self.atom())
        return out

    def rule(self) -> Rule:
        """One rule as written; ``Program`` puts its body in canonical order."""
        head = self.atom()
        body: list[Atom] = []
        if self.tokens[self.i].kind == "arrow":
            self.i += 1
            body = self.atoms()
        self.expect("punct", ".")
        return Rule(head, tuple(body))

    def program(self) -> Program:
        rules: list[Rule] = []
        while (kind := self.tokens[self.i].kind) != "eof":
            if kind == "qmark":
                raise self.error("queries are not allowed in a program")
            rules.append(self.rule())
        return Program(rules)

    def query(self) -> list[Atom]:
        self.expect("qmark")
        goals = self.atoms()
        self.expect("punct", ".")
        self.expect("eof")
        return goals


def parse_program(text: str, path: str = "<string>") -> Program:
    """Parse program text; duplicate rules collapse under set semantics."""
    return _Parser(text, path).program()


def parse_query(text: str, path: str = "<string>"):
    """Parse a single query of the form ``?- A1, ..., Ak.``"""
    from .sld import Query

    return Query(tuple(_Parser(text, path).query()))


# ---------------------------------------------------------------------------
# Printing


def _display_var(name: str) -> str:
    if name[0].isupper() or name[0] == "_":
        return name
    return name[0].upper() + name[1:]


def _is_cons(t: Term) -> bool:
    return isinstance(t, Compound) and t.functor == CONS and len(t.args) == 2


def term_to_text(t: Term) -> str:
    return _term_text(t, {})


def _term_text(t: Term, memo: dict[Term, str]) -> str:
    """The text of ``t``, which is added to ``memo``.  ``memo`` maps the
    terms printed before in the same output to their texts, and each
    compound subterm found there is printed from it.  Terms are looked up
    by value, with their cached hashes: the atoms of a grounding share
    their numerals, or build each one over the one a level down, so each
    numeral is walked once per output."""
    text = memo.get(t)
    if text is not None:
        return text
    top = t
    # Pieces still to print, last first: literal strings and terms.  The
    # stack replaces recursion, so terms of any depth print.
    todo: list = [t]
    out: list[str] = []
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Var):
            out.append(_display_var(t.name))
        elif isinstance(t, Const):
            out.append(t.name)
        elif (text := memo.get(t)) is not None:
            out.append(text)
        else:
            if _is_cons(t):
                elems: list[Term] = []
                while _is_cons(t):
                    elems.append(t.args[0])
                    t = t.args[1]
                close = ["]"] if t == NIL else ["|", t, "]"]
                pieces = ["["] + _separated(elems) + close
            else:
                pieces = [t.functor + "("] + _separated(t.args) + [")"]
            todo.extend(reversed(pieces))
    text = memo[top] = "".join(out)
    return text


def _separated(terms) -> list:
    pieces: list = []
    for a in terms:
        pieces += [",", a] if pieces else [a]
    return pieces


def atom_to_text(a: Atom) -> str:
    return _atom_text(a, {})


def _atom_text(a: Atom, memo: dict[Term, str]) -> str:
    """The text of ``a``, its arguments printed through ``memo`` (see
    ``_term_text``)."""
    if not a.args:
        return a.pred
    return a.pred + "(" + ",".join(t.name if isinstance(t, Const) else _term_text(t, memo)
                                   for t in a.args) + ")"


def atoms_to_text(atoms) -> str:
    """The ``atoms`` in ``atom_key`` order, one fact per line; all of them
    share one memo."""
    memo: dict[Term, str] = {}
    return "".join(_atom_text(a, memo) + ".\n" for a in sorted(atoms, key=atom_key))


def rule_to_text(r: Rule) -> str:
    return _rule_text(r, {})


def _rule_text(r: Rule, memo: dict[Term, str]) -> str:
    if r.is_fact:
        return _atom_text(r.head, memo) + "."
    return (_atom_text(r.head, memo) + " :- "
            + ", ".join(map(_atom_text, r.body, repeat(memo))) + ".")


def program_to_text(p: Program) -> str:
    """Deterministic canonical rendering, one rule per line; all rules
    share one memo."""
    memo: dict[Term, str] = {}
    return "".join(_rule_text(r, memo) + "\n" for r in p.sorted_rules())


def goals_to_text(goals) -> str:
    return ", ".join(atom_to_text(a) for a in goals)


def query_to_text(q) -> str:
    return "?- " + goals_to_text(q.goals) + "."

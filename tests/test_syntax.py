"""Parsing and printing round-trips."""

import random

import pytest

from seqhorn import (
    Atom,
    Compound,
    Const,
    ParseError,
    Program,
    Rule,
    Var,
    gnd,
    parse_program,
    parse_query,
    program_to_text,
    query_to_text,
    rule_to_text,
)
from conftest import random_fo_program, random_prop_program


class TestParse:
    def test_plus_fact(self, plus):
        assert parse_program("plus(0,Y,Y).") == Program([plus.rules[0]])

    def test_nat_rule(self, nat):
        assert parse_program("nat(s(X)) :- nat(X).") == Program([nat.rules[1]])

    def test_unclosed_paren_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(X")
        assert err.value.line == 1
        assert err.value.column == 4

    def test_error_carries_path(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(X", path="bad.lp")
        assert "bad.lp:1:4" in str(err.value)

    def test_duplicates_collapse(self):
        assert parse_program("a :- b.\na :- b.") == parse_program("a :- b.")

    def test_alpha_variant_duplicates_collapse(self):
        assert parse_program("p(X) :- q(X).\np(Y) :- q(Y).") == parse_program(
            "p(X) :- q(X)."
        )

    def test_comments_ignored(self):
        assert parse_program("% a comment\na. % trailing\n") == parse_program("a.")

    def test_lists(self):
        p = parse_program("p([a,b|T]).")
        assert program_to_text(p) == "p([a,b|V1]).\n"

    def test_numerals_are_terms(self):
        p = parse_program("p(0, s(0), 12).")
        assert program_to_text(p) == "p(0,s(0),12).\n"

    def test_query(self):
        q = parse_query("?- append([a],[b,c],[a,b,c]).")
        assert query_to_text(q) == "?- append([a],[b,c],[a,b,c])."

    def test_query_rejected_in_program(self):
        with pytest.raises(ParseError):
            parse_program("?- a.")

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_program("a :- b")

    @pytest.mark.parametrize("text,where", [
        ("p(a", "1:4: expected ')', found 'end of input'"),
        ("p([a|b c]).", "1:8: expected ']', found 'c'"),
        ("p(]).", "1:3: expected a term, found ']'"),
        ("p(a,).", "1:5: expected a term, found ')'"),
        ("p([a|]).", "1:6: expected a term, found ']'"),
        ("p(f()).", "1:5: expected a term, found ')'"),
        ("p :- .", "1:6: expected 'ident', found '.'"),
        ("p([a,b|c,d]).", "1:9: expected ']', found ','"),
        ("p([a|b|c]).", "1:7: expected ']', found '|'"),
        ("p([|a]).", "1:4: expected a term, found '|'"),
        ("p(a b).", "1:5: expected ')', found 'b'"),
        ("p(f(g(h(", "1:9: expected a term, found 'end of input'"),
        ("p(X(a)).", "1:4: expected ')', found '('"),
        ("p([]([])).", "1:5: expected ')', found '('"),
        ("p([a,b,c]", "1:10: expected ')', found 'end of input'"),
        ("X.", "1:1: expected 'ident', found 'X'"),
        ("p(a).\nq(b", "2:4: expected ')', found 'end of input'"),
        ("p(a) q.", "1:6: expected '.', found 'q'"),
        # positions after comments, tabs and CRLF line ends
        ("p.\n% note\n  q(#).", "3:5: unexpected character '#'"),
        ("p :- q.\r\nr(&).", "2:3: unexpected character '&'"),
        ("p.\n\tq(a", "2:5: expected ')', found 'end of input'"),
        ("p :- q,\n  r(X) s.", "2:8: expected '.', found 's'"),
        # an unexpected character is reported before an earlier syntax error
        ("p q(a) ;", "1:8: unexpected character ';'"),
    ])
    def test_error_messages(self, text, where):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert str(err.value) == "<string>:" + where

    @pytest.mark.parametrize("text,where", [
        ("?- p(X), q(Y)", "1:14: expected '.', found 'end of input'"),
        ("p(X).", "1:1: expected 'qmark', found 'p'"),
        ("?- p(X). q.", "1:10: expected 'eof', found 'q'"),
        ("?- p(X),\n   q(Y)$.", "2:8: unexpected character '$'"),
    ])
    def test_query_error_messages(self, text, where):
        with pytest.raises(ParseError) as err:
            parse_query(text)
        assert str(err.value) == "<string>:" + where


class TestRoundTrip:
    def test_fixture_files(self, plus, append, member, nat, q_plus_append,
                           s_plus_append, q_member_append, s_member_append):
        for p in (plus, append, member, nat, q_plus_append, s_plus_append,
                  q_member_append, s_member_append):
            assert parse_program(program_to_text(p)) == p

    def test_random_programs(self):
        rng = random.Random(71)
        for _ in range(200):
            p = random_fo_program(rng)
            assert parse_program(program_to_text(p)) == p

    def test_random_propositional(self):
        rng = random.Random(72)
        for _ in range(200):
            p = random_prop_program(rng)
            assert parse_program(program_to_text(p)) == p

    def test_matches_reference_parser(self, reference):
        # nested lists, [H|T] tails and compounds, printed by the reference
        rng = random.Random(74)

        def term(depth):
            roll = rng.random()
            if depth and roll < 0.3:
                elems = [term(depth - 1) for _ in range(rng.randint(1, 3))]
                tail = term(depth - 1) if rng.random() < 0.4 else reference.NIL
                return reference.make_list(elems, tail)
            if depth and roll < 0.55:
                return (rng.choice("fg"), *(term(depth - 1) for _ in range(rng.randint(1, 3))))
            return rng.choice(["X", "Y", "_Z", "a", "0", "s1", reference.NIL])

        def atom():
            return (rng.choice("pq"), *(term(3) for _ in range(rng.randint(0, 2))))

        for _ in range(300):
            rules = [reference.rule(atom(), [atom() for _ in range(rng.randint(0, 2))])
                     for _ in range(rng.randint(1, 4))]
            text = reference.program_text(rules)
            printed = program_to_text(parse_program(text))
            assert reference.programs_alpha_equal(reference.parse_rules(printed),
                                                  reference.parse_rules(text)), text

    def test_shared_terms_print_once(self, monkeypatch):
        # A grounding shares each numeral among the atoms that hold it.
        # Printing walked every numeral again for each atom: 3,403
        # compound visits for these 84 rules of 166 atoms.
        import seqhorn.syntax

        p = gnd(parse_program("nat(0). nat(s(X)) :- nat(X). even(0). "
                              "even(s(s(X))) :- even(X)."), depth=40)
        visits = []
        is_cons = seqhorn.syntax._is_cons

        def counting(t):
            visits.append(t)
            return is_cons(t)

        monkeypatch.setattr(seqhorn.syntax, "_is_cons", counting)
        text = program_to_text(p)
        assert len(visits) <= sum(1 + len(r.body) for r in p)
        monkeypatch.undo()
        assert text == "".join(rule_to_text(r) + "\n" for r in p.sorted_rules())

    def test_shared_lists_and_compounds_print_alike(self):
        # one list and one compound object at several depths and positions
        ab = Compound(".", (Const("a"), Compound(".", (Const("b"), Const("[]")))))
        f = Compound("f", (ab, Var("X")))
        g = Compound("g", (f, Compound("h", (f, ab)), Compound(".", (f, ab))))
        rules = [Rule(Atom("p", (g, f)), (Atom("q", (ab,)), Atom("r", (Compound("k", (g,)), f)))),
                 Rule(Atom("q", (f, ab, g)))]
        p = Program._of_canonical(rules)
        assert program_to_text(p) == "".join(rule_to_text(r) + "\n" for r in p.sorted_rules())
        assert program_to_text(p).splitlines()[1] == (
            "q(f([a,b],X),[a,b],g(f([a,b],X),h(f([a,b],X),[a,b]),[f([a,b],X),a,b])).")

    def test_printing_is_deterministic(self):
        rng = random.Random(73)
        for _ in range(50):
            p = random_fo_program(rng)
            assert program_to_text(p) == program_to_text(Program(p.rules))

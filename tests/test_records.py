"""The value classes' constructors, repr, equality, hashes and
immutability, pinned so that any reimplementation keeps them."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from seqhorn import Atom, Compound, Const, Program, Rule, Var, parse_program
from seqhorn.decompose import (
    ReductionCertificate,
    SearchBounds,
    SearchResult,
    SimilarityResult,
    VerifyResult,
)
from seqhorn.programs import Signature
from seqhorn.sld import Derivation, DerivationStep, Query

P = parse_program("p :- q.")
RULE = Rule(Atom("p"), (Atom("q"),))
FOUND_RESULT = SearchResult("found", None, True, 0.5)

# (value, its repr, its fields in order, frozen)
RECORDS = [
    (Var("X"), "Var(name='X')", ("X",), True),
    (Const("a"), "Const(name='a')", ("a",), True),
    (Atom("p", (Var("X"), Const("a"))),
     "Atom(pred='p', args=(Var(name='X'), Const(name='a')))",
     ("p", (Var("X"), Const("a"))), True),
    (RULE, "Rule(head=Atom(pred='p', args=()), body=(Atom(pred='q', args=()),))",
     (Atom("p"), (Atom("q"),)), True),
    (Signature(frozenset({("p", 1)}), frozenset(), frozenset({"a"})),
     "Signature(predicates=frozenset({('p', 1)}), functions=frozenset(), "
     "constants=frozenset({'a'}))",
     (frozenset({("p", 1)}), frozenset(), frozenset({"a"})), True),
    (ReductionCertificate(P, P, Program(), P),
     "ReductionCertificate(target=Program('p :- q.\\n'), base=Program('p :- q.\\n'), "
     "prefix=Program(''), suffix=Program('p :- q.\\n'))",
     (P, P, Program(), P), True),
    (VerifyResult(False, P, (RULE,), ()),
     "VerifyResult(ok=False, composed=Program('p :- q.\\n'), missing=(Rule(head=Atom("
     "pred='p', args=()), body=(Atom(pred='q', args=()),)),), extra=())",
     (False, P, (RULE,), ()), False),
    (SearchBounds(2, 1.5), "SearchBounds(max_body=2, time_budget=1.5)", (2, 1.5), True),
    (FOUND_RESULT,
     "SearchResult(status='found', certificate=None, exhaustive=True, elapsed=0.5)",
     ("found", None, True, 0.5), False),
    (SimilarityResult("similar", FOUND_RESULT, FOUND_RESULT),
     "SimilarityResult(outcome='similar', forward=SearchResult(status='found', "
     "certificate=None, exhaustive=True, elapsed=0.5), backward=SearchResult("
     "status='found', certificate=None, exhaustive=True, elapsed=0.5))",
     ("similar", FOUND_RESULT, FOUND_RESULT), False),
    (Query((Atom("q"),)), "Query(goals=(Atom(pred='q', args=()),))", ((Atom("q"),),), True),
    (DerivationStep(Query((Atom("p"),)), 0, "P", RULE, RULE, {}, Query((Atom("q"),))),
     "DerivationStep(query_before=Query(goals=(Atom(pred='p', args=()),)), index=0, "
     "phase='P', rule=Rule(head=Atom(pred='p', args=()), body=(Atom(pred='q', "
     "args=()),)), variant=Rule(head=Atom(pred='p', args=()), body=(Atom(pred='q', "
     "args=()),)), unifier={}, query_after=Query(goals=(Atom(pred='q', args=()),)))",
     (Query((Atom("p"),)), 0, "P", RULE, RULE, {}, Query((Atom("q"),))), False),
    (Derivation(Query(), [], "refutation"),
     "Derivation(query=Query(goals=()), steps=[], outcome='refutation')",
     (Query(), [], "refutation"), False),
]
IDS = [type(r[0]).__name__ for r in RECORDS]


@pytest.mark.parametrize("value,text,fields,frozen", RECORDS, ids=IDS)
class TestRecords:
    def test_repr(self, value, text, fields, frozen):
        assert repr(value) == text

    def test_fields_and_keywords(self, value, text, fields, frozen):
        cls = type(value)
        names = cls.__match_args__
        assert tuple(getattr(value, n) for n in names) == fields
        assert list(inspect.signature(cls).parameters) == list(names)
        assert cls(**dict(zip(names, fields))) == value

    def test_equality_and_hash(self, value, text, fields, frozen):
        cls = type(value)
        twin = cls(*fields)
        assert twin == value and not twin != value
        assert value != fields
        if frozen:
            assert hash(twin) == hash(value) == hash(fields)
        else:
            with pytest.raises(TypeError):
                hash(value)

    def test_assignment(self, value, text, fields, frozen):
        name = type(value).__match_args__[0]
        if frozen:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, fields[0])
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        else:
            changed = type(value)(*fields)
            setattr(changed, name, "other")
            assert getattr(changed, name) == "other" and changed != value


def test_other_classes_never_equal():
    assert Var("a") != Const("a") and Const("a") != Var("a")
    assert Atom("p") != Rule(Atom("p"))
    assert SearchResult("found") != SimilarityResult("found", None, None)


def test_defaults():
    assert Atom("p").args == ()
    assert Rule(Atom("p")).body == ()
    assert SearchBounds() == SearchBounds(None, 60.0)
    assert SearchResult("not-found") == SearchResult("not-found", None, False, 0.0)
    assert Query().goals == ()
    first, second = Derivation(Query()), Derivation(Query())
    assert first.steps == [] and first.outcome == "failed"
    first.steps.append(None)
    assert second.steps == []  # each derivation gets its own list


def test_atom_and_rule_copy_and_pickle():
    atom = Atom("p", (Compound("f", (Var("X"), Const("a"))), Var("Y")))
    rule = Rule(atom, (Atom("q", (Var("X"),)), Atom("r")))
    for value in (atom, rule):
        hash(value)  # before copying, so that a cached hash would be copied too
        for clone in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert clone == value and hash(clone) == hash(value)
            assert type(clone) is type(value)


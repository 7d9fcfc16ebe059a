"""Shared fixtures and random program generators."""

from __future__ import annotations

import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import seqhorn
from seqhorn import Atom, Const, Program, Var, make_rule, parse_program, program_to_text

FIXTURES = Path(__file__).parent / "fixtures"

# The benchmark's independent implementation of the operators.
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"

# The directory holding the ``seqhorn`` package this test run imported.
PACKAGE_ROOT = Path(seqhorn.__file__).resolve().parents[1]


def run_seqhorn(*args, cwd=FIXTURES, env=None) -> subprocess.CompletedProcess:
    """Run ``python -m seqhorn *args`` in a child process from ``cwd``.

    The child imports the same ``seqhorn`` as this process, whatever
    ``cwd`` is: its ``PYTHONPATH`` starts with the package's absolute root,
    followed by this process's own entries made absolute.  ``env`` adds or
    overrides other environment variables of the child.
    """
    paths = [str(PACKAGE_ROOT)]
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if entry:
            paths.append(os.path.abspath(entry))
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, "-m", "seqhorn", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture(autouse=True)
def recursion_limit_unchanged():
    """No library call may change interpreter-global state such as the
    recursion limit.  A changed limit is put back, so that every test that
    changes it fails, not only the first."""
    before = sys.getrecursionlimit()
    yield
    after = sys.getrecursionlimit()
    sys.setrecursionlimit(before)
    assert after == before, f"the recursion limit changed from {before} to {after}"


PROP_ATOMS = tuple(Atom(name) for name in "abcd")


def load_fixture(name: str) -> Program:
    path = FIXTURES / name
    return parse_program(path.read_text(), str(path))


@pytest.fixture(scope="session")
def plus() -> Program:
    return load_fixture("plus.lp")


@pytest.fixture(scope="session")
def append() -> Program:
    return load_fixture("append.lp")


@pytest.fixture(scope="session")
def q_plus_append() -> Program:
    return load_fixture("q_plus_append.lp")


@pytest.fixture(scope="session")
def s_plus_append() -> Program:
    return load_fixture("s_plus_append.lp")


@pytest.fixture(scope="session")
def member() -> Program:
    return load_fixture("member.lp")


@pytest.fixture(scope="session")
def q_member_append() -> Program:
    return load_fixture("q_member_append.lp")


@pytest.fixture(scope="session")
def s_member_append() -> Program:
    return load_fixture("s_member_append.lp")


@pytest.fixture(scope="session")
def nat() -> Program:
    return load_fixture("nat.lp")


# ---------------------------------------------------------------------------
# Random ensembles (seeded; universes <= 4 atoms, <= 4 rules, bodies <= 2)


def random_prop_program(rng: random.Random, atoms=PROP_ATOMS,
                        max_rules: int = 4, max_body: int = 2) -> Program:
    rules = []
    for _ in range(rng.randint(0, max_rules)):
        head = rng.choice(atoms)
        body = rng.sample(atoms, k=rng.randint(0, max_body))
        rules.append(make_rule(head, body))
    return Program(rules)


def random_interpretation(rng: random.Random, atoms=PROP_ATOMS) -> frozenset[Atom]:
    return frozenset(a for a in atoms if rng.random() < 0.4)


_FO_PREDS = (("p", 1), ("q", 1), ("r", 2), ("e", 0))
_FO_TERMS = (Const("a"), Const("b"), Var("x"), Var("y"))


def random_fo_atom(rng: random.Random, ground: bool = False) -> Atom:
    pred, arity = rng.choice(_FO_PREDS)
    pool = _FO_TERMS[:2] if ground else _FO_TERMS
    return Atom(pred, tuple(rng.choice(pool) for _ in range(arity)))


def random_fo_program(rng: random.Random, max_rules: int = 4, max_body: int = 2,
                      ground: bool = False) -> Program:
    rules = []
    for _ in range(rng.randint(0, max_rules)):
        head = random_fo_atom(rng, ground)
        body = [random_fo_atom(rng, ground) for _ in range(rng.randint(0, max_body))]
        rules.append(make_rule(head, body))
    return Program(rules)


# ---------------------------------------------------------------------------
# Differential checks against the independent reference


@pytest.fixture(scope="session")
def reference():
    """``perfbench/reference.py``, loaded by path.  It implements the
    operators on its own term representation and imports nothing from
    seqhorn; programs cross over as text."""
    spec = importlib.util.spec_from_file_location("seqhorn_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_reference_compose(reference, composed: Program, p: Program, r: Program) -> None:
    """``composed`` is the reference's P o R up to alpha-renaming of each rule."""
    want = reference.compose(reference.parse_rules(program_to_text(p)),
                             reference.parse_rules(program_to_text(r)))
    got = reference.parse_rules(program_to_text(composed))
    assert reference.programs_alpha_equal(got, want), (
        f"P:\n{program_to_text(p)}R:\n{program_to_text(r)}")

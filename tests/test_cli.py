"""Command-line interface: subcommands, exit codes, deterministic output."""

import argparse
import contextlib
import io
import random
import time

import pytest

from conftest import FIXTURES, run_seqhorn
from seqhorn.cli import main


run_cli = run_seqhorn


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCompose:
    def test_even_numbers(self, tmp_path):
        step = write(tmp_path, "step.lp", "nat(s(X)) :- nat(X).\n")
        out = run_cli("compose", step, step)
        assert out.returncode == 0
        assert out.stdout == "nat(s(s(V1))) :- nat(V1).\n"

    def test_left_zero_prints_empty(self, tmp_path):
        empty = write(tmp_path, "empty.lp", "% nothing\n")
        p = write(tmp_path, "p.lp", "a.\nb :- a.\n")
        out = run_cli("compose", empty, p)
        assert out.returncode == 0
        assert out.stdout == ""


class TestSimpleCommands:
    def test_dual(self, tmp_path):
        p = write(tmp_path, "p.lp", "a :- b, c.\n")
        out = run_cli("dual", p)
        assert out.returncode == 0
        assert out.stdout == "b :- a.\nc :- a.\n"

    def test_width(self):
        out = run_cli("width", "append.lp")
        assert out.returncode == 0
        assert out.stdout == "3\n"
        out = run_cli("width", "member.lp")
        assert out.stdout == "2\n"

    def test_gnd(self, tmp_path):
        p = write(tmp_path, "p.lp", "p(a).\np(b).\nq(X) :- p(X).\n")
        out = run_cli("gnd", p, "--depth", "0")
        assert out.returncode == 0
        assert out.stdout == "p(a).\np(b).\nq(a) :- p(a).\nq(b) :- p(b).\n"

    def test_lm(self, tmp_path):
        p = write(tmp_path, "p.lp", "a.\nb :- a.\nc :- d.\n")
        out = run_cli("lm", p)
        assert out.returncode == 0
        assert out.stdout == "a.\nb.\n"

    def test_tp(self, tmp_path):
        p = write(tmp_path, "p.lp", "a.\nb :- a.\nc :- b.\n")
        facts = write(tmp_path, "i.lp", "a.\n")
        out = run_cli("tp", p, "--facts", facts)
        assert out.returncode == 0
        assert out.stdout == "a.\nb.\n"

    def test_gnd_negative_depth_exit_two(self, tmp_path):
        p = write(tmp_path, "p.lp", "p(a).\n")
        out = run_cli("gnd", p, "--depth", "-1")
        assert out.returncode == 2
        assert out.stdout == "" and "depth" in out.stderr and "Traceback" not in out.stderr

    def test_tp_nonground_facts_exit_two(self, tmp_path):
        # q(X) would otherwise pass as an opaque atom: q(a) printed, r(a) missed
        p = write(tmp_path, "p.lp", "r(X) :- q(X).\nq(a).\n")
        facts = write(tmp_path, "i.lp", "q(X).\n")
        out = run_cli("tp", p, "--facts", facts)
        assert out.returncode == 2
        assert out.stdout == "" and "Traceback" not in out.stderr


class TestSld:
    def test_refutation_exit_zero(self):
        out = run_cli("sld", "append.lp", "?- append([a],[b,c],[a,b,c]).")
        assert out.returncode == 0
        assert out.stdout == "refutation\n"

    def test_failed_exit_one(self):
        out = run_cli("sld", "append.lp", "?- append([a],[b],[zzz]).")
        assert out.returncode == 1
        assert out.stdout == "failed\n"

    def test_trace(self):
        out = run_cli("sld", "nat.lp", "?- nat(s(0)).", "--trace")
        assert out.returncode == 0
        assert out.stdout.splitlines()[0] == "? nat(s(0))"
        assert out.stdout.splitlines()[-1].endswith("□")

    def test_depth_beyond_python_stack(self, tmp_path):
        loop = write(tmp_path, "a.lp", "a :- a.\n")
        out = run_cli("sld", loop, "?- a.", "--depth", "60000")
        assert out.returncode == 1
        assert out.stdout == "depth-exceeded\n"

    def test_growing_terms_at_default_depth(self, tmp_path):
        loop = write(tmp_path, "loop.lp", "loop(X) :- loop(s(X)).\n")
        out = run_cli("sld", loop, "?- loop(0).")
        assert out.returncode == 1
        assert out.stdout == "depth-exceeded\n"
        out = run_cli("xsld", "--prefix", loop, "--base", loop, "--suffix", loop, "?- loop(0).")
        assert out.returncode == 1
        assert out.stdout == "depth-exceeded\n"

    def test_negative_depth_exit_two(self):
        out = run_cli("sld", "nat.lp", "?- nat(0).", "--depth", "-1")
        assert out.returncode == 2
        assert "depth limit" in out.stderr


class TestXsld:
    def test_golden_trace(self):
        out = run_cli(
            "xsld",
            "--prefix", "q_plus_append.lp",
            "--base", "plus.lp",
            "--suffix", "s_plus_append.lp",
            "?- append([a],[b,c],[a,b,c]).",
            "--trace",
        )
        assert out.returncode == 0
        golden = (FIXTURES / "append_via_plus_trace.golden").read_text()
        assert out.stdout == golden

    def test_failure_exit_one(self):
        out = run_cli(
            "xsld",
            "--prefix", "q_plus_append.lp",
            "--base", "plus.lp",
            "--suffix", "s_plus_append.lp",
            "?- append([a],[b],[c]).",
            "--depth", "20",
        )
        assert out.returncode == 1
        assert out.stdout == "failed\n"


class TestVerify:
    def test_true_certificate(self):
        out = run_cli(
            "verify",
            "--target", "append.lp",
            "--base", "plus.lp",
            "--prefix", "q_plus_append.lp",
            "--suffix", "s_plus_append.lp",
        )
        assert out.returncode == 0
        assert out.stdout == "verified\n"

    def test_false_certificate(self, tmp_path):
        bad = write(tmp_path, "bad.lp", "plus(X,Y,Z) :- plus(X,Y,Z).\n")
        out = run_cli(
            "verify",
            "--target", "append.lp",
            "--base", "plus.lp",
            "--prefix", "q_plus_append.lp",
            "--suffix", bad,
        )
        assert out.returncode == 1
        assert "missing" in out.stdout or "extra" in out.stdout


class TestSearchAndSimilar:
    def test_search_found(self, tmp_path):
        target = write(tmp_path, "t.lp", "c.\na :- b, c.\nb :- a, c.\n")
        base = write(tmp_path, "b.lp", "a :- b.\nb :- a.\n")
        out = run_cli("search", "--target", target, "--base", base)
        assert out.returncode == 0
        assert "% PREFIX" in out.stdout

    def test_search_not_found(self, tmp_path):
        target = write(tmp_path, "t.lp", "a :- b.\nb :- a.\n")
        base = write(tmp_path, "b.lp", "a :- b.\nb :- b.\n")
        out = run_cli("search", "--target", target, "--base", base)
        assert out.returncode == 1
        assert out.stdout == "not found (exhaustive bounds)\n"

    def test_similar(self, tmp_path):
        left = write(tmp_path, "l.lp", "a.\nb :- a.\n")
        right = write(tmp_path, "r.lp", "a.\nb :- a, b.\n")
        out = run_cli("similar", left, right)
        assert out.returncode == 0
        assert out.stdout == "similar\n"

    def test_not_similar_exit_one(self, tmp_path):
        left = write(tmp_path, "l.lp", "a :- b.\nb :- a.\n")
        right = write(tmp_path, "r.lp", "a :- b.\nb :- b.\n")
        out = run_cli("similar", left, right)
        assert out.returncode == 1
        assert out.stdout == "R<P\n"

    def test_max_body_clip_not_exhaustive(self, tmp_path):
        # at --max-body 1 no suffix body holds the 3 target atoms; without
        # the bound, a :- b. and c :- x, y, z. reduce the target
        target = write(tmp_path, "t.lp", "a :- x, y, z.\n")
        base = write(tmp_path, "b.lp", "b :- c.\n")
        out = run_cli("search", "--target", target, "--base", base, "--max-body", "1")
        assert out.returncode == 1
        assert out.stdout == "not found (within bounds)\n"
        out = run_cli("similar", target, base, "--max-body", "1")
        assert out.returncode == 1
        assert out.stdout == "incomparable-within-bounds\n"

    def test_large_fact_target(self, tmp_path):
        target = write(tmp_path, "t.lp", "".join(f"a{i}.\n" for i in range(1200)))
        base = write(tmp_path, "b.lp", "b :- c.\n")
        out = run_cli("search", "--target", target, "--base", base)
        assert out.returncode == 0
        assert "% PREFIX\na0.\n" in out.stdout

    @pytest.mark.parametrize("command", ["search", "similar"])
    @pytest.mark.parametrize("bound", [("--max-body", "-1"), ("--budget", "-1"),
                                       ("--budget", "nan")],
                             ids=["negative-max-body", "negative-budget", "nan-budget"])
    def test_invalid_bounds_exit_two(self, tmp_path, command, bound):
        left = write(tmp_path, "l.lp", "a.\nb :- a.\n")
        right = write(tmp_path, "r.lp", "a.\nb :- a, b.\n")
        files = ["--target", left, "--base", right] if command == "search" else [left, right]
        out = run_cli(command, *files, *bound)
        assert out.returncode == 2
        assert out.stdout == "" and "Traceback" not in out.stderr


class TestErrors:
    def test_parse_error_exit_two(self, tmp_path):
        bad = write(tmp_path, "bad.lp", "p(X")
        out = run_cli("width", bad)
        assert out.returncode == 2
        assert "bad.lp:1:4" in out.stderr

    def test_missing_file_exit_two(self):
        out = run_cli("width", "no_such_file.lp")
        assert out.returncode == 2

    def test_first_order_search_rejected(self):
        out = run_cli("search", "--target", "member.lp", "--base", "append.lp")
        assert out.returncode == 2
        assert "ground" in out.stderr

    def test_usage_error_exit_two(self):
        out = run_cli("compose")
        assert out.returncode == 2

    def test_resource_cap_exit_three(self, tmp_path):
        # Each of p0..p6 has 8 candidates, so 8^7 partial assignments reach
        # p7(X, b), and each tries 8 candidates that clash on the second
        # argument: far over the cap of 10^6 tries, though no assignment is
        # ever complete.
        body = ", ".join(f"p{i}" for i in range(7))
        left = write(tmp_path, "l.lp", f"a :- {body}, p7(X, b).\n")
        right = write(tmp_path, "r.lp",
                      "".join(f"p{i} :- q{j}.\n" for i in range(7) for j in range(8))
                      + "".join(f"p7(c{j}, c{j}).\n" for j in range(8)))
        out = run_cli("compose", left, right)
        assert out.returncode == 3
        assert "resource cap" in out.stderr

    @pytest.mark.parametrize("program, args", [
        # 10^7 instances of the rule over the 10 constants
        ("p(X1,X2,X3,X4,X5,X6,X7) :- q(X1,X2,X3,X4,X5,X6,X7).\n"
         + "".join(f"q(c{i}).\n" for i in range(10)), ["lm"]),
        # the fifth level of the universe would hold 677^2 terms
        ("p(f(a,a)).\nq(X) :- p(X).\n", ["gnd", "--depth", "5"]),
    ], ids=["lm-seven-variables", "gnd-depth-five"])
    def test_grounding_cap_exit_three(self, tmp_path, program, args):
        path = write(tmp_path, "p.lp", program)
        start = time.perf_counter()
        code, out, err = call_main(args[0], path, *args[1:])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "resource cap" in err and "grounding" in err

    def test_canonical_form_cap_exit_three(self, tmp_path, monkeypatch, capsys):
        # in process, so that the work cap can be lowered to fit a 6-cycle
        import seqhorn.programs
        from seqhorn.cli import main

        monkeypatch.setattr(seqhorn.programs, "_CANON_WORK_CAP", 5)
        cycle = write(tmp_path, "cycle.lp",
                      "p :- " + ", ".join(f"e(X{i}, X{(i + 1) % 6})" for i in range(6)) + ".\n")
        assert main(["width", cycle]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "resource cap" in err


# Terms 5000 deep, far past Python's recursion limit: a list of 5000
# numerals and a numeral with 5000 successors.
DEEP_TERMS = {
    "list": "[" + ",".join(str(i) for i in range(5000)) + "]",
    "numeral": "s(" * 5000 + "0" + ")" * 5000,
}

# Each program command on a fact p(T): its arguments and its stdout, with
# T printed in place of {}.
DEEP_CALLS = {
    "width": (["p.lp"], "0\n"),
    "dual": (["p.lp"], "p({}).\n"),
    "gnd": (["p.lp"], "p({}).\n"),
    "lm": (["p.lp"], "p({}).\n"),
    "tp": (["p.lp", "--facts", "p.lp"], "p({}).\n"),
    "compose": (["q.lp", "p.lp"], "q({}).\n"),
    "sld": (["p.lp", "?- p(X)."], "refutation\n"),
    "verify": (["--target", "qt.lp", "--base", "p.lp", "--prefix", "q.lp",
                "--suffix", "empty.lp"], "verified\n"),
    "similar": (["p.lp", "p.lp"], "similar\n"),
}


class TestDeepInput:
    """Every program command answers on a fact holding a deep term."""

    @pytest.mark.parametrize("shape", DEEP_TERMS)
    @pytest.mark.parametrize("command", DEEP_CALLS)
    def test_answers(self, tmp_path, command, shape):
        args, stdout = DEEP_CALLS[command]
        deep = DEEP_TERMS[shape]
        write(tmp_path, "p.lp", f"p({deep}).\n")
        write(tmp_path, "qt.lp", f"q({deep}).\n")
        write(tmp_path, "q.lp", "q(X) :- p(X).\n")
        write(tmp_path, "empty.lp", "")
        out = run_cli(command, *args, cwd=tmp_path)
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout == stdout.format(deep)


# One call of every kind whose output could depend on hashing or on state
# left behind by an earlier call; each exits 0 on the fixtures.
DETERMINISM_ARGS = pytest.mark.parametrize("args", [
    ("compose", "q_plus_append.lp", "plus.lp"),
    # bodies of same-shape atoms, so the canonical-form search runs too
    ("compose", "paths.lp", "e_reversed.lp"),
    ("sld", "member.lp", "?- member(X,[a,b,c]), member(X,[c,b]).", "--trace"),
    ("xsld", "--prefix", "q_member_append.lp", "--base", "append.lp",
     "--suffix", "s_member_append.lp", "?- member(X,[a,b]), member(X,[b]).", "--trace"),
    ("search", "--target", "ground_target.lp", "--base", "ground_base.lp"),
    ("similar", "ground_target.lp", "ground_base.lp"),
    ("gnd", "nat.lp", "--depth", "3"),
    ("lm", "nat.lp", "--depth", "3"),
], ids=["compose", "compose-same-shape", "sld", "xsld", "search", "similar", "gnd", "lm"])


class TestDeterminism:
    @DETERMINISM_ARGS
    def test_identical_runs_identical_stdout(self, args):
        # different hash seeds, so that no output follows set iteration order
        first = run_cli(*args, env={"PYTHONHASHSEED": "1"})
        second = run_cli(*args, env={"PYTHONHASHSEED": "2"})
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0


def call_main(*args):
    """``seqhorn.cli.main(args)`` in this process, with stdout and stderr
    redirected for this call only; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


class TestInProcess:
    """``main`` called many times in one process behaves as a new process
    each time: the parser it reuses keeps no flag, default or error text."""

    @pytest.fixture(autouse=True)
    def in_fixtures(self, monkeypatch):
        monkeypatch.chdir(FIXTURES)
        # argparse wraps usage and help to the terminal width; fix it, for
        # this process and its children alike.
        monkeypatch.setenv("COLUMNS", "80")

    @DETERMINISM_ARGS
    def test_repeated_calls_match_new_process(self, args):
        child = run_cli(*args)
        for _ in range(2):
            code, out, err = call_main(*args)
            assert (code, out, err) == (child.returncode, child.stdout, child.stderr)

    def test_usage_error_then_valid_call(self):
        code, out, err = call_main("compose")
        assert (code, out, err) == (2, "", run_cli("compose").stderr)
        assert err.startswith("usage: seqhorn compose")
        code, out, err = call_main("compose", "q_plus_append.lp", "plus.lp")
        assert (code, err) == (0, "")
        assert out == run_cli("compose", "q_plus_append.lp", "plus.lp").stdout

    def test_trace_flag_does_not_stick(self):
        query = ("sld", "member.lp", "?- member(X,[a,b,c]), member(X,[c,b]).")
        code, traced, _ = call_main(*query, "--trace")
        assert code == 0 and traced.count("\n") > 1
        assert call_main(*query) == (0, "refutation\n", "")

    def test_help_twice(self):
        child = run_cli("--help")
        first = call_main("--help")
        assert first == call_main("--help") == (0, child.stdout, "")
        assert child.returncode == 0

    def test_parser_built_once(self, monkeypatch):
        call_main("width", "member.lp")  # builds the parser, if no test has yet
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        codes = [call_main(*args)[0] for args in [
            ("compose", "q_plus_append.lp", "plus.lp"),
            ("width", "member.lp"),
            ("gnd", "nat.lp", "--depth", "2"),
            ("sld", "nat.lp", "?- nat(s(0)).", "--trace"),
            ("similar", "ground_target.lp", "ground_base.lp"),
            ("compose",),
            ("--help",),
        ]]
        assert codes == [0, 0, 0, 0, 0, 2, 0]
        assert built == []


# Each command's arguments: "@" stands for a mutated fixture file, "g" for
# a mutated ground one, "!" for the mutated facts of a fixture and "?" for
# a mutated query.  The bounds keep every call small.
FUZZ_ARGS = {
    "compose": "@ @", "dual": "@", "width": "@",
    "gnd": "@ --depth 50", "lm": "@ --depth 50", "tp": "@ --facts ! --depth 50",
    "sld": "@ ? --depth 50 --trace", "xsld": "? --prefix @ --base @ --suffix @ --depth 50",
    "verify": "--target @ --base @ --prefix @ --suffix @",
    "search": "--target g --base g --budget 0.05", "similar": "g g --budget 0.05",
}
FUZZ_QUERIES = ("?- append(X,Y,[a,b]).", "?- member(X,[a,b]), member(X,[b]).",
                "?- nat(s(X)).", "?- plus(s(0),X,s(s(0))).", "?- c.")
FUZZ_CHARS = "(),.:-|[]% \nXYZ_abs0?"


def mutate(text, rng):
    """``text`` after up to three character deletions, insertions or swaps."""
    chars = list(text)
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 and i < len(chars):
            del chars[i]
        elif op == 1:
            chars.insert(i, rng.choice(FUZZ_CHARS))
        elif i + 1 < len(chars):
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
    return "".join(chars)


def test_mutated_inputs_keep_the_exit_codes(tmp_path):
    # Every command on mutated fixtures and queries answers with an exit
    # code of 0-3 and no traceback.
    rng = random.Random(91)
    paths = sorted(FIXTURES.glob("*.lp"))
    texts = {"@": [path.read_text() for path in paths],
             "g": [path.read_text() for path in paths if path.stem.startswith("ground")]}
    texts["!"] = ["".join(line for line in text.splitlines(True) if ":-" not in line)
                  for text in texts["@"]]
    for case in range(330):
        command = sorted(FUZZ_ARGS)[case % len(FUZZ_ARGS)]
        argv = [command]
        for i, arg in enumerate(FUZZ_ARGS[command].split()):
            if arg in texts:
                arg = write(tmp_path, f"{i}.lp", mutate(rng.choice(texts[arg]), rng))
            elif arg == "?":
                arg = mutate(rng.choice(FUZZ_QUERIES), rng)
            argv.append(arg)
        code, _, err = call_main(*argv)
        assert code in (0, 1, 2, 3) and "Traceback" not in err, argv

"""Command-line interface: subcommands, exit codes, deterministic output."""

import pytest

from conftest import FIXTURES, run_seqhorn


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
        # p7(b), and each tries 8 clashing candidates: far over the cap of
        # 10^6 tries, though no assignment is ever complete.
        body = ", ".join(f"p{i}" for i in range(7))
        left = write(tmp_path, "l.lp", f"a :- {body}, p7(b).\n")
        right = write(tmp_path, "r.lp",
                      "".join(f"p{i} :- q{j}.\n" for i in range(7) for j in range(8))
                      + "".join(f"p7(c{j}).\n" for j in range(8)))
        out = run_cli("compose", left, right)
        assert out.returncode == 3
        assert "resource cap" in out.stderr

    @pytest.mark.parametrize("command", ["width", "dual"])
    def test_deep_term_exit_three(self, tmp_path, command):
        # a 1500-element list nests deeper than Python's recursion limit
        deep = write(tmp_path, "deep.lp",
                     "p([" + ",".join(str(i) for i in range(1500)) + "]).\n")
        out = run_cli(command, deep)
        assert out.returncode == 3
        assert "Traceback" not in out.stderr
        assert out.stderr.count("\n") == 1 and "resource cap" in out.stderr

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


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("compose", "q_plus_append.lp", "plus.lp"),
        ("sld", "member.lp", "?- member(X,[a,b,c]), member(X,[c,b]).", "--trace"),
        ("xsld", "--prefix", "q_member_append.lp", "--base", "append.lp",
         "--suffix", "s_member_append.lp", "?- member(X,[a,b]), member(X,[b]).", "--trace"),
        ("search", "--target", "ground_target.lp", "--base", "ground_base.lp"),
        ("similar", "ground_target.lp", "ground_base.lp"),
    ], ids=["compose", "sld", "xsld", "search", "similar"])
    def test_identical_runs_identical_stdout(self, args):
        # different hash seeds, so that no output follows set iteration order
        first = run_cli(*args, env={"PYTHONHASHSEED": "1"})
        second = run_cli(*args, env={"PYTHONHASHSEED": "2"})
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

"""Self-tests of the benchmark: seeded inputs, the reference checker and the
tracer's clean-up.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics, wrapped_attributes  # noqa: E402

DIGEST = """
import hashlib, sys, workloads
h = hashlib.sha256()
for name in workloads.WORKLOADS:
    wl = workloads.generate(name, int(sys.argv[1]))
    for f in sorted(wl.files):
        h.update(f.encode() + b"\\0" + wl.files[f].encode() + b"\\0")
    for job in wl.jobs:
        h.update("\\0".join([job.name, *job.argv]).encode() + b"\\1")
print(h.hexdigest())
"""


def _digest(seed: int, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", DIGEST, str(seed)], cwd=HERE, env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_same_seed_gives_byte_identical_inputs():
    assert _digest(7, "1") == _digest(7, "2")
    assert _digest(7, "1") != _digest(8, "1")


def _run(job, workdir: Path, wl):
    import seqhorn.cli

    argvs = run.write_inputs(wl, workdir)
    return run.run_job(seqhorn.cli, argvs[wl.jobs.index(job)])


def _job(wl, name):
    (job,) = [j for j in wl.jobs if j.name == name]
    return job


@pytest.fixture(scope="module")
def compose_wl():
    return workloads.generate("compose", 3)


def test_checker_accepts_seqhorn_and_rejects_mutated_stdout(tmp_path, compose_wl):
    job = _job(compose_wl, "path-edge-4")
    rc, out = _run(job, tmp_path, compose_wl)
    assert job.check(rc, out) is None
    mutated = out.replace("f(", "e(", 1)
    assert job.check(rc, mutated) is not None
    assert job.check(rc, out + out.splitlines()[0].replace("V1", "V9") + "\n") is not None


def test_checker_rejects_wrong_exit_code(tmp_path, compose_wl):
    job = _job(compose_wl, "verify-plus-from-append")
    rc, out = _run(job, tmp_path, compose_wl)
    assert (rc, out) == (0, "verified\n")
    assert job.check(rc, out) is None
    assert job.check(1, out) is not None
    resolve_wl = workloads.generate("resolve", 3)
    job = _job(resolve_wl, "append-false-25")
    assert job.check(1, "failed\n") is None
    assert job.check(0, "failed\n") is not None
    assert job.check(1, "refutation\n") is not None


def test_checker_rejects_wrong_search_verdict(tmp_path):
    wl = workloads.generate("search", 3)
    planted = _job(wl, "planted-0")
    rc, out = _run(planted, tmp_path, wl)
    assert planted.check(rc, out) in (None, ref.UNDECIDED)
    assert planted.check(1, "not found (exhaustive bounds)\n") is not None
    impossible = _job(wl, "facts-base-0")
    assert impossible.check(1, "not found (exhaustive bounds)\n") is None
    if rc == 0:  # a real certificate for another pair is a wrong verdict here
        assert impossible.check(0, out) is not None
        broken = out.replace("% PREFIX\n", "% PREFIX\nzz.\n")
        assert planted.check(0, broken) is not None
    similar = _job(wl, "similar-proper-facts-0")
    assert similar.check(1, "R<P\n") is None
    assert similar.check(0, "similar\n") is not None


def test_trace_checker_replays_derivations(tmp_path):
    wl = workloads.generate("resolve", 5)
    job = _job(wl, "trace-0")
    rc, out = _run(job, tmp_path, wl)
    assert job.check(rc, out) is None
    lines = out.splitlines()
    assert job.check(rc, "\n".join(lines[:-1]) + "\n") is not None
    assert job.check(rc, "\n".join([lines[0], lines[2], lines[1], *lines[3:]]) + "\n") is not None


def test_traced_run_restores_every_substituted_name(tmp_path, compose_wl):
    import seqhorn.cli  # noqa: F401  (loads every module the tracer wraps)
    from seqhorn import programs

    modules = {n: m for n, m in sys.modules.items() if n.startswith("seqhorn")}
    before = {(n, a): v for n, m in modules.items() for a, v in vars(m).items()}
    init = programs.Program.__init__
    tracer = Tracer()
    tracer.install()
    try:
        assert wrapped_attributes()
        for name in ("path-edge-3", "verify-plus-from-append", "random-width-0"):
            job = _job(compose_wl, name)
            rc, out = _run(job, tmp_path, compose_wl)
            assert job.check(rc, out) is None
    finally:
        tracer.restore()
    assert wrapped_attributes() == []
    assert programs.Program.__init__ is init
    after = {(n, a): v for n, m in modules.items() for a, v in vars(m).items()}
    assert after == before
    metrics = layer_metrics(tracer)
    assert metrics["compose.assignments"] > 0
    assert metrics["programs.canonicalize.calls"] > 0
    assert metrics["cli.main.self_s"] > 0


def test_only_known_defects_are_attributed(compose_wl):
    jobs = [_job(compose_wl, "verify-shuffled-0"), _job(compose_wl, "verify-plus-from-append")]
    assert jobs[0].defect == workloads.CANON_FALLBACK
    ledger = run.Ledger(jobs)
    ledger.record([(0, 1, "not equal\nmissing: h(V1,V2).\n"), (1, 0, "verified\n")])
    assert (ledger.attempted, ledger.failed, ledger.correct) == (2, 1, True)
    assert ledger.attributed == {workloads.CANON_FALLBACK: 1}
    ledger.record([(0, 1, "not equal\nmissing: h(V1,V2).\n"), (1, 0, "verified\n")])
    assert (ledger.attempted, ledger.failed) == (2, 1)  # counted per job, not per run
    ledger.record([(0, 0, "verified\n"), (1, 2, "")])  # a crash is not the known defect
    assert ledger.failed == 2 and not ledger.correct

    search_job = _job(workloads.generate("search", 3), "random4-0")
    ledger = run.Ledger([search_job])
    ledger.record([(0, 3, "time budget exceeded\n")])
    assert ledger.correct and ledger.attributed == {workloads.SEARCH_BUDGET_HIT: 1}
    ledger.record([(0, 2, "")])
    assert not ledger.correct


def test_step_clock_counts_checks_not_seconds():
    clock = run.StepClock(0.003)
    assert [clock.expired() for _ in range(4)] == [False, False, False, True]
    assert clock.elapsed == pytest.approx(4 * run.STEP_S)

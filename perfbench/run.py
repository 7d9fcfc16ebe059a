"""Benchmark of the seqhorn command line, end to end and per layer.

    python3 perfbench/run.py --workload {resolve,compose,ground,search,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the benchmark imports seqhorn from
``src/`` there and writes its input files under ``.perfbench/``.

Every job is one CLI invocation, run in this process through
``seqhorn.cli.main(argv)`` with stdout captured.  The load is a closed loop:
one client, jobs one after another, no threads.  A run sets up the workload
several times (import, generate, write files), runs every second job once
with ``tracemalloc`` on, then repeats timed passes over the fixed job list
for ``--seconds``.  Every output is checked against the independent
reference in ``reference.py``.  ``attempted`` is the number of jobs in the
list and ``failed`` the number of jobs with a wrong answer, an exception or
an undecided search in any run, so neither depends on how many passes fit
into a run; the lines above the result attribute them to known defects.

Searches run on a step clock (``StepClock``): their budget is a number of
budget checks, not of seconds, so whether a search finishes, and how much
work it does, is the same on every run.

Times are in reference seconds.  The speed of this kind of shared machine
swings by up to 1.8x for seconds or minutes at a time, which moved raw
timings of whole runs by a third.  So a fixed piece of pure Python is timed
before every job and after the last, and each time is scaled by
``REFERENCE_LOOP_S`` over the median time of the nine nearest of those
loops: it is the time the job would take on a machine where the loop takes
``REFERENCE_LOOP_S``.  Raw times are printed beside the result.

- ``setup_s``: median of the scaled set-ups.
- ``wall_s``: sum over the job list of each job's median scaled time.
- ``job_p50_ms``, ``job_p90_ms``: median and 90th percentile of those (every
  workload has at least 100 jobs, so at least ten lie beyond the 90th).
- ``job_mem_mb``: mean over every second job of its peak rise in traced
  memory.  It is seqhorn's own allocation; peak RSS, printed beside it, also
  holds the benchmark's set-ups, checkers and tracemalloc's own records.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from one traced pass that follows
untraced passes for half the time, and writes the spans to ``.perfbench/``.
``--workload all`` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

import reference as ref
import workloads
from spans import Tracer, layer_metrics, wrapped_attributes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 10
MIN_PASSES = 5
# tracemalloc makes jobs 5 to 13 times slower, so it measures every
# MEMORY_STRIDE-th job only.
MEMORY_STRIDE = 2
CALIBRATION_ENTRIES = 1000
REFERENCE_LOOP_S = 0.0002
# One budget check of a search on the step clock counts as this many seconds.
STEP_S = 0.001
GUARD_S = 5.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
                    "job_mem_mb": "MB"}
FAMILIES = ("sld.append", "sld.loop", "sld.xsld", "compose.wide_body", "semantics.chain",
            "programs.gnd")


def _unit(name: str) -> str:
    for suffix, unit in (("self_s", "s"), ("_ratio", "ratio"), ("growth_exp", "exponent"),
                         ("bytes", "bytes"), ("per_step", "1/step")):
        if name.endswith(suffix):
            return unit
    return "count"


def load_seqhorn():
    """Import seqhorn afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "seqhorn" or m.startswith("seqhorn.")]:
        del sys.modules[name]
    cli = importlib.import_module("seqhorn.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"seqhorn was imported from {cli.__file__}, not from {SRC}")
    return cli


class StepClock:
    """Stands in for the clock of seqhorn's reduction search.  Each budget
    check advances it by ``STEP_S``, so a budget of B seconds allows
    B / ``STEP_S`` checks whatever the speed of the machine.  As a safety net
    that these inputs do not reach, a search also stops after ``GUARD_S``
    real seconds; ``guarded`` counts how often that happened."""

    guarded = 0

    def __init__(self, budget: float) -> None:
        self.checks = 0
        self.limit = round(budget / STEP_S)
        self.guard = perf_counter() + GUARD_S

    @property
    def elapsed(self) -> float:
        return self.checks * STEP_S

    def expired(self) -> bool:
        self.checks += 1
        if perf_counter() > self.guard:
            StepClock.guarded += 1
            return True
        return self.checks > self.limit


def install_step_clock() -> None:
    decompose = sys.modules["seqhorn.decompose"]
    if not isinstance(getattr(decompose, "_Clock", None), type):
        raise RuntimeError("seqhorn.decompose._Clock not found: the search budget "
                           "cannot be put on the step clock")
    decompose._Clock = StepClock


def write_inputs(wl, workdir: Path) -> list[list[str]]:
    """Write the workload's files into ``workdir``; returns each job's argv
    with its "@" arguments replaced by file paths."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in wl.files.items():
        # Truncating a file first frees its blocks; on an ext4 disk mounted
        # with discard, writing the next files then took up to 20 times as long.
        with open(os.open(workdir / name, os.O_WRONLY | os.O_CREAT, 0o644), "w") as fh:
            fh.write(text)
            fh.truncate()
    return [[str(workdir / a[1:]) if a.startswith("@") else a for a in job.argv]
            for job in wl.jobs]


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes at this moment.  It fills a dict
    with tuples and lists: on a shared 2-vCPU virtual machine, through slow
    spells of several minutes, that tracked the jobs' times better than an
    arithmetic loop did."""
    start = perf_counter()
    table = {}
    for i in range(CALIBRATION_ENTRIES):
        table[(i, "x")] = [i, (i, i + 1)]
    return perf_counter() - start


def setup(workload: str, seed: int, workdir: Path):
    """Import seqhorn, generate the inputs and write them into ``workdir``;
    returns the scaled seconds that took, the CLI module, the workload and
    the jobs' argvs."""
    before = calibrate()
    start = perf_counter()
    cli = load_seqhorn()
    install_step_clock()
    wl = workloads.generate(workload, seed)
    argvs = write_inputs(wl, workdir)
    elapsed = perf_counter() - start
    return elapsed * REFERENCE_LOOP_S / statistics.median([before, calibrate()]), cli, wl, argvs


def run_job(cli, argv) -> tuple[int | None, str]:
    """One CLI invocation; returns (exit code, stdout), or (None, traceback)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except Exception:  # a traceback is a wrong answer, not a benchmark crash
        return None, traceback.format_exc()
    return rc, buf.getvalue()


def run_pass(cli, argvs, tracer: Tracer | None = None, peaks: list | None = None,
             scales: dict | None = None, only=None):
    """Run every job, or the jobs whose index is in ``only``, once; returns
    ({job: seconds}, [(job, rc, stdout)]).  With
    ``tracemalloc`` on, ``peaks`` receives each job's peak traced memory
    above what was traced when it started.  ``scales`` receives each job's
    factor from seconds to reference seconds."""
    times, outs, loops = {}, [], []
    for i in (range(len(argvs)) if only is None else only):
        if tracer is not None:
            tracer.job = i
        if peaks is not None:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
        # Every job starts from the same collector state, as in a new process.
        gc.collect()
        if scales is not None:
            loops.append(calibrate())
        start = perf_counter()
        rc, text = run_job(cli, argvs[i])
        times[i] = perf_counter() - start
        outs.append((i, rc, text))
        if peaks is not None:
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    if scales is not None:
        loops.append(calibrate())
        for p, i in enumerate(times):
            scales[i] = REFERENCE_LOOP_S / statistics.median(loops[max(0, p - 4):p + 5])
    return times, outs


class Ledger:
    """Checks outputs, caching each distinct (job, rc, stdout) verdict.  A job
    has failed if any of its runs gave a wrong answer; one whose wrong answer
    is a known defect is attributed to it, any other is wrong."""

    def __init__(self, jobs) -> None:
        self.jobs = jobs
        self.verdicts: dict = {}
        self.causes: dict[int, str | None] = {}  # failed job -> known defect
        self.wrong: dict[str, str] = {}

    def record(self, outs) -> None:
        for i, rc, text in outs:
            job = self.jobs[i]
            key = (i, rc, text)
            if key not in self.verdicts:
                self.verdicts[key] = (f"raised: {text.strip().splitlines()[-1]}" if rc is None
                                      else job.check(rc, text))
            verdict = self.verdicts[key]
            if verdict is None:
                continue
            if verdict == ref.UNDECIDED and job.defect == workloads.SEARCH_BUDGET_HIT:
                cause = workloads.SEARCH_BUDGET_HIT
            elif (job.defect == workloads.CANON_FALLBACK and rc == 1
                  and text.startswith("not equal\n")):
                cause = workloads.CANON_FALLBACK
            else:
                cause = None
                self.wrong[job.name] = verdict
            self.causes.setdefault(i, cause)

    @property
    def attempted(self) -> int:
        return len(self.jobs)

    @property
    def failed(self) -> int:
        return len(self.causes)

    @property
    def attributed(self) -> dict[str, int]:
        return dict(Counter(c for c in self.causes.values() if c is not None))

    @property
    def correct(self) -> bool:
        return not self.wrong


def growth_exponent(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def timed_passes(cli, argvs, ledger: Ledger, seconds: float):
    """Timed passes until the next one would end after ``seconds``, and at
    least ``MIN_PASSES``.  Returns the number of passes, the summed job
    seconds of the first pass, each job's median scaled time and each job's
    fastest raw time."""
    samples: list[list[float]] = [[] for _ in argvs]
    fastest = [math.inf] * len(argvs)
    start = perf_counter()
    k = 0
    while True:
        scales: dict[int, float] = {}
        times, outs = run_pass(cli, argvs, scales=scales)
        ledger.record(outs)
        if k == 0:
            first_pass = math.fsum(times.values())
        for i, t in times.items():
            fastest[i] = min(fastest[i], t)
            samples[i].append(t * scales[i])
        k += 1
        if k >= MIN_PASSES and perf_counter() - start + math.fsum(fastest) > seconds:
            return k, first_pass, [statistics.median(x) for x in samples], fastest


def run_workload(args) -> dict:
    # File names do not depend on the seed, so every set-up overwrites the
    # files of the run before it.
    work = OUT / f"work-{args.workload}"
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, cli, wl, argvs = setup(args.workload, args.seed, work)
        setups.append(elapsed)
    jobs = wl.jobs
    if len(jobs) < 100:
        raise RuntimeError(f"{len(jobs)} jobs: p90 needs at least ten jobs beyond it")
    ledger = Ledger(jobs)
    gc.collect()
    gc.freeze()  # the benchmark's own objects stay out of the collector's way
    harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Memory, checked but not timed.
    peaks: list[int] = []
    tracemalloc.start()
    try:
        outs = run_pass(cli, argvs, peaks=peaks, only=range(0, len(argvs), MEMORY_STRIDE))[1]
    finally:
        tracemalloc.stop()
    ledger.record(outs)
    mem_mb = [peak / 2**20 for peak in peaks]
    seconds = args.seconds / 2 if args.trace else args.seconds
    n_passes, first_pass, per_job, raw = timed_passes(cli, argvs, ledger, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, outs = run_pass(cli, argvs, tracer)
        finally:
            tracer.restore()
        leftover = wrapped_attributes()
        if leftover:
            raise RuntimeError(f"tracing wrappers left in place: {leftover}")
        ledger.record(outs)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.tsv.gz")
        metrics = layer_metrics(tracer)
        for family in FAMILIES:
            points = [(j.size, per_job[i]) for i, j in enumerate(jobs) if j.family == family]
            metrics[f"{family}.growth_exp"] = growth_exponent(points) if points else 0.0
        # One traced pass over every job against the first untraced one,
        # both raw.
        metrics["trace.overhead_ratio"] = math.fsum(traced.values()) / first_pass
        units = {k: _unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": math.fsum(per_job),
            "job_p50_ms": statistics.median(per_job) * 1000,
            "job_p90_ms": statistics.quantiles(per_job, n=10)[-1] * 1000,
            # The mean, unlike the largest peak, does not hang on one input.
            "job_mem_mb": statistics.fmean(mem_mb),
        }
        units = END_TO_END_UNITS

    print(f"{args.workload}: {len(jobs)} jobs per pass, {n_passes} timed passes, "
          f"seed {args.seed}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")
    print(f"  {'failed_ratio':32s} {ledger.failed / len(jobs):14.6f} ratio "
          f"({ledger.failed} of {len(jobs)} jobs)")
    for cause, n in sorted(ledger.attributed.items()):
        print(f"    {n} attributed to {cause}: {workloads.DEFECTS[cause]}")
    for name, why in sorted(ledger.wrong.items()):
        print(f"    WRONG {name}: {why}")
    print(f"  {'raw wall_s, p50, p90':32s} {math.fsum(raw):14.6f} s, "
          f"{statistics.median(raw) * 1000:.6f} ms, "
          f"{statistics.quantiles(raw, n=10)[-1] * 1000:.6f} ms (fastest unscaled runs)")
    print(f"  {'job_mem_max_mb':32s} {max(mem_mb):14.6f} MB (largest job)")
    if StepClock.guarded:
        print(f"  {StepClock.guarded} searches stopped by the {GUARD_S} s real-time guard: "
              f"their verdicts depend on the machine's speed")
    print(f"  {'peak_rss_mb':32s} {peak_rss_mb:14.6f} MB (whole process; "
          f"{harness_rss_mb:.1f} MB before the first job)")
    return {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """One process per workload, so recursion limits and memory peaks stay
    with the workload that caused them."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "seqhorn" / "cli.py").is_file():
        print(f"seqhorn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the orderflow command line.

    python3 bench/run.py --workload patterns --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --seed 1 --seconds 45      # both workloads

One workload per process.  The run generates its inputs from ``--seed``
(files under ``.bench_work/``, outside any timing), times the set-up in
fresh interpreters, then calls ``orderflow.cli.main(argv)`` in-process, one
job at a time, for whole job cycles until ``--seconds`` have passed.  The
orderflow caches are cleared before every job, so each job costs what one
CLI invocation costs.  Every output is checked after the timed phase (see
``check.py``).  The last line of stdout is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

End-to-end times are reference seconds (see ``calibrate.py``): each job's
and each set-up probe's seconds scaled by the speed the host showed in a
fixed calibration sample taken right before and right after it, so that
the host's swings in speed do not show as changes of the program.  The raw
seconds are printed on the line before the result.

With ``--trace 1`` a fixed job list of about ``--seconds / 3`` estimated
seconds runs twice per job, untraced and traced in alternating order; the
traced runs must write byte-identical artifacts and stdout lines, and the
spans go to ``.bench_work/trace-<workload>-seed<seed>.jsonl``.

Without ``--workload`` each workload runs in its own child process and a
table of all end-to-end metrics is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import gen  # noqa: E402

SETUP_REPEATS = 7
# p95 is left out: a workload's job count then stays inside one band
# (40-100 jobs: p75, 100-1000: p90) when machine speed moves it by a third,
# so the reported percentile does not flip from run to run.
TAIL_PERCENTILES = (99.9, 99, 90, 75, 50)
END_TO_END = ("setup_s", "jobs_per_s", "job_p50_s", "job_tail_s", "peak_rss_mib")
UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s", "peak_rss_mib": "MiB"}

# Runs in a fresh interpreter: import the CLI, run the warm-up job, report
# the elapsed time on the last stdout line.
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import orderflow.cli
code = orderflow.cli.main(sys.argv[2:])
print(time.perf_counter() - t0, code)
"""


@dataclass
class Record:
    job: gen.Job
    seconds: float
    code: int | None
    stdout: str
    error: str | None = None


def run_job(cli, clear_caches, job: gen.Job, outdir: Path) -> Record:
    """One in-process CLI call with stdout captured; exceptions become failures."""
    for clear in clear_caches:
        clear()
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(job.argv(outdir))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        code, error = None, f"{type(exc).__name__}: {exc}"
    return Record(job, time.perf_counter() - t0, code, buf.getvalue(), error)


def orderflow_caches() -> list:
    """cache_clear of every functools cache in the orderflow package."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if name == "orderflow" or name.startswith("orderflow."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear) and getattr(value, "__module__", None) == name:
                    out.append(clear)
    return out


def check_all(records: list[Record], outdir: Path) -> list[str]:
    """Failure reasons, one per failed job; checks run in job order."""
    from check import Checker

    checker = Checker(outdir)
    failures = []
    for rec in records:
        if rec.code != 0:
            failures.append(f"{rec.job.key} {rec.job.kind}: exit {rec.code} {rec.error or ''}".rstrip())
            continue
        try:
            checker(rec.job, rec.stdout)
        except Exception as exc:  # any error while checking fails this job, not the run
            failures.append(f"{rec.job.key} {rec.job.kind}: {type(exc).__name__}: {exc}")
    return failures


def setup_seconds(warmup: gen.Job, outdir: Path) -> tuple[list[float], list[float]]:
    """Import plus warm-up job, each time in a fresh interpreter.

    Returns the raw seconds and the reference seconds; each probe is scaled
    by the calibration samples taken right before and right after it.
    """
    times, cals = [], [calibrate.sample()]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), *warmup.argv(outdir)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        elapsed, code = proc.stdout.strip().splitlines()[-1].split()
        if proc.returncode != 0 or code != "0":
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(elapsed))
        cals.append(calibrate.sample())
    return times, [t * calibrate.scale(cals, i) for i, t in enumerate(times)]


def tail(durations: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with ten jobs beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    p = next((p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= 10), 50)
    return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    try:
        plan = gen.plan(workload, seed, work / "inputs", seconds)
        plain, with_trace = work / "plain", work / "traced"
        plain.mkdir()
        with_trace.mkdir()
        setup_raw, setup = ([], []) if traced else setup_seconds(plan.warmup, work)
        sys.path.insert(0, str(SRC))
        import orderflow.cli as cli

        caches = orderflow_caches()
        warm = run_job(cli, caches, plan.warmup, plain)
        failures = [f"warm-up: {f}" for f in check_all([warm], plain)]
        print(f"workload {workload} seed {seed}: {len(plan.jobs)} jobs generated")
        if traced:
            return _traced(workload, seed, seconds, plan, cli, caches, plain, with_trace, failures)
        records, cals = [], [calibrate.sample()]
        start = time.perf_counter()
        for job in plan.jobs:
            if records and job.cycle != records[-1].job.cycle and time.perf_counter() - start >= seconds:
                break
            records.append(run_job(cli, caches, job, plain))
            cals.append(calibrate.sample())
        elapsed = time.perf_counter() - start
        factors = [calibrate.scale(cals, i) for i in range(len(records))]
        if elapsed < seconds:
            print(f"warning: plan exhausted after {elapsed:.1f} s")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        job_failures = check_all(records, plain)
        for line in failures + job_failures:
            print(f"FAILED {line}")
        raw = [r.seconds for r in records]
        durations = [r.seconds * f for r, f in zip(records, factors)]
        p, tail_s = tail(durations)
        good = len(records) - len(job_failures)
        print(f"{len(records)} jobs in {elapsed:.2f} s over {records[-1].job.cycle + 1} cycles; "
              f"failed {len(job_failures)} (failed_frac {len(job_failures) / len(records):.4f})")
        print(f"job_tail_s is p{p:g} of {len(records)} jobs; setup_s samples {[round(s, 4) for s in setup]}")
        print(f"calibration: median {statistics.median(cals):.6f} s (reference {calibrate.REFERENCE_S} s), "
              f"scale factors {min(factors):.3f}-{max(factors):.3f}; raw seconds: setup {statistics.median(setup_raw):.4f}, "
              f"jobs_per_s {good / sum(raw):.4f}, p50 {statistics.median(raw):.4f}, tail {tail(raw)[1]:.4f}")
        for kind in sorted({r.job.kind for r in records}):
            times = [d for r, d in zip(records, durations) if r.job.kind == kind]
            print(f"  {kind:<18} {len(times):>4} jobs, median {statistics.median(times):.4f} s, max {max(times):.4f} s")
        metrics = {
            "setup_s": statistics.median(setup),
            "jobs_per_s": good / sum(durations),
            "job_p50_s": statistics.median(durations),
            "job_tail_s": tail_s,
            "peak_rss_mib": peak,
        }
        print(result_line(not failures and not job_failures, len(records), len(job_failures),
                          {k: (metrics[k], UNITS[k]) for k in END_TO_END}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _traced(workload, seed, seconds, plan, cli, caches, plain, with_trace, failures) -> int:
    from spans import Tracer

    jobs = plan.upto(seconds / 3)
    tracer = Tracer()
    untraced, traced = [], []
    for i, job in enumerate(jobs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            if side == 0:
                untraced.append(run_job(cli, caches, job, plain))
            else:
                for clear in caches:  # before install, which reads the cache statistics
                    clear()
                tracer.job = job.key
                tracer.install()
                try:
                    traced.append(run_job(cli, (), job, with_trace))
                finally:
                    tracer.uninstall()
    job_failures = check_all(untraced, plain)
    failed_keys = {line.split()[0] for line in job_failures}
    for a, b in zip(untraced, traced):
        same = a.stdout == b.stdout and _artifact_bytes(a.job, plain) == _artifact_bytes(b.job, with_trace)
        if not same:
            job_failures.append(f"{a.job.key} {a.job.kind}: traced output differs from untraced")
            failed_keys.add(a.job.key)
    for line in failures + job_failures:
        print(f"FAILED {line}")
    trace_file = WORK / f"trace-{workload}-seed{seed}.jsonl"
    tracer.dump(trace_file)
    plain_s, traced_s = sum(r.seconds for r in untraced), sum(r.seconds for r in traced)
    print(f"{len(jobs)} jobs traced; untraced {plain_s:.2f} s, traced {traced_s:.2f} s; "
          f"{len(tracer.spans)} spans in {trace_file.relative_to(ROOT)}")
    metrics = tracer.metrics()
    metrics["trace_overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    documented = {m for layer in json.loads((HERE / "layers.json").read_text())["layers"].values() for m in layer["metrics"]}
    if documented != set(metrics):
        raise RuntimeError(f"layers.json and the tracer disagree on {sorted(documented ^ set(metrics))}")
    print(result_line(not failures and not failed_keys, len(jobs), len(failed_keys), metrics))
    return 0


def _artifact_bytes(job: gen.Job, outdir: Path) -> bytes | None:
    path = job.artifact(outdir)
    return path.read_bytes() if path.is_file() else None


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in its own fresh process, then one table."""
    rows = {}
    for workload in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        rows[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print(f"\n{'metric':<44}" + "".join(f"{w:>12}" for w in rows))
    for name in names + ["failed_frac"]:
        cells = []
        for r in rows.values():
            value = r["failed"] / r["attempted"] if name == "failed_frac" else r["metrics"][name]["value"]
            cells.append(f"{value:>12.4g}")
        print(f"{name:<44}" + "".join(cells))
    metrics = {f"{w}.{k}": (m["value"], m["unit"]) for w, r in rows.items() for k, m in r["metrics"].items()}
    print(result_line(all(r["correct"] for r in rows.values()), sum(r["attempted"] for r in rows.values()),
                      sum(r["failed"] for r in rows.values()), metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), help="omit to run every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orderflow" / "cli.py").is_file():
        print(f"no orderflow sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

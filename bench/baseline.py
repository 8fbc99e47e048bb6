"""Measure a baseline: ten (or more) seeds per workload, then one traced run each.

    python3 bench/baseline.py --seeds 301-310 --seeds 401-410 --seconds 45 \
        --trace-seed 301 --out bench/baseline.json

Each run is ``run.py`` in its own process, one after another.  For every
set of seeds, workload and end-to-end metric the median, quartiles and
spread ((q3 - q1) / median, as ``statistics.quantiles(values, n=4)`` gives
the quartiles) are printed and written to ``--out`` with the per-layer
values of the traced runs.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402


def result(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n{proc.stdout}")
    return out


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "spread": round((q3 - q1) / median, 3), "values": [round(v, 6) for v in values]}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", action="append", type=seed_range, required=True, help="e.g. 301-310; repeatable")
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    sets = {}
    for seeds in args.seeds:
        label = f"seeds {seeds[0]}-{seeds[-1]}"
        sets[label] = {}
        for workload in gen.WORKLOADS:
            runs = [result(workload, seed, args.seconds, 0)["metrics"] for seed in seeds]
            sets[label][workload] = {name: summary([r[name]["value"] for r in runs]) for name in runs[0]}
            for name, s in sets[label][workload].items():
                print(f"{label} {workload:<9} {name:<14} median {s['median']:<10.6g} spread {s['spread']:.3f}", flush=True)
    traced = {}
    if args.trace_seed is not None:
        traced[f"seed {args.trace_seed}"] = {
            w: {k: round(m["value"], 6) for k, m in result(w, args.trace_seed, args.seconds, 1)["metrics"].items()}
            for w in gen.WORKLOADS
        }
    if args.out:
        args.out.write_text(json.dumps({
            "about": f"Measured with run_seconds {args.seconds:g}. Each end-to-end set is one --trace 0 run per "
                     "workload and seed; spread is (q3 - q1) / median. Per-layer values come from one --trace 1 "
                     "run per workload.",
            "machine": f"{platform.machine()}, {platform.system()}, Python {platform.python_version()}",
            "end_to_end": sets,
            "per_layer": traced,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

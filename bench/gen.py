"""Seeded inputs for the two benchmark workloads, ``patterns`` and ``flows``.

``plan(workload, seed, inputs, seconds)`` writes every input file under
``inputs`` and returns the jobs; the same seed gives the same files and jobs.
Jobs are grouped into cycles that repeat one fixed mix of job classes with
fresh parameters, so every seed runs the same mix and the timed phase can
stop on a cycle boundary.  No job repeats within a plan.  Nothing here
imports ``orderflow``: drift and realizability of generated inputs are
decided by :mod:`reference`.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference as ref

OUT = "{out}"


@dataclass(frozen=True)
class Job:
    """One CLI call: ``args`` with ``{out}`` standing for the artifact path."""

    key: str
    kind: str
    cycle: int
    args: tuple[str, ...]
    suffix: str
    est_s: float
    info: dict = field(default_factory=dict, compare=False)

    def artifact(self, outdir: Path) -> Path:
        return outdir / f"{self.key}{self.suffix}"

    def argv(self, outdir: Path) -> list[str]:
        out = str(self.artifact(outdir))
        return [out if a == OUT else a for a in self.args]


@dataclass
class Plan:
    warmup: Job
    jobs: list[Job]

    def upto(self, seconds: float) -> list[Job]:
        """Whole cycles whose estimated cost first reaches ``seconds``."""
        total, last = 0.0, None
        for i, job in enumerate(self.jobs):
            if job.cycle != last and total >= seconds:
                return self.jobs[:i]
            total += job.est_s
            last = job.cycle
        return list(self.jobs)


_G3 = ref.digraph_edges(3)
_LOOPS = ref.simple_cycles(_G3)
_EXACT_COST = {8: 0.12, 9: 0.27, 10: 0.5}
_BLOCK_COST = {8: 0.22, 10: 0.9}
_SUBGRAPH_COST = {0.4: 0.02, 0.6: 0.07, 0.8: 0.14}
_REALIZE_COST = {1: 0.03, 2: 0.08, 3: 0.17, 4: 0.3}
SAMPLES = 8_000
CANTOR_SAMPLES = 30_000
TOL = "0.05"


class _Builder:
    """Appends jobs with fresh parameters; each parameter set is used once."""

    def __init__(self, seed: int | str, inputs: Path | None):
        self.rng = random.Random(seed)
        self.inputs = inputs
        self.jobs: list[Job] = []
        self.cost = 0.0
        self.seen: set = set()
        self._shadow: _Builder | None = None

    @property
    def shadow(self) -> _Builder:
        """A builder with one fixed seed, run alongside: it sets the size of each graph input.

        The cost of a drift or realize job grows steeply with the number of
        edges, so each such input is drawn from ``--seed`` until its size
        matches the size the shadow drew by the same process.  Every seed
        then runs the same sizes in the same order, and the seed chooses
        which subgraph or flow of each size.  The shadow never repeats a
        value either, so enough distinct inputs of each requested size exist.
        """
        if self._shadow is None:
            self._shadow = _Builder("drift sizes", None)
        return self._shadow

    def job(self, kind, cycle, args, suffix, est_s, **info) -> Job:
        job = Job(f"j{len(self.jobs):04d}", kind, cycle, tuple(args), suffix, est_s, info)
        self.jobs.append(job)
        self.cost += est_s
        return job

    def write(self, payload) -> str:
        path = self.inputs / f"in{len(self.jobs):04d}.json"
        path.write_text(json.dumps(payload, sort_keys=True) + "\n")
        return str(path)

    def fresh(self, draw):
        """draw() until it gives a value not used before."""
        value = draw()
        while value in self.seen:
            value = draw()
        self.seen.add(value)
        return value

    def fraction(self, lo_den: int, hi_den: int) -> Fraction:
        while True:
            q = self.rng.randint(lo_den, hi_den)
            p = self.rng.randint(1, q - 1)
            if math.gcd(p, q) == 1:
                return Fraction(p, q)

    # -- exact -----------------------------------------------------------------

    def exact_map(self, name: str, n: int, cycle: int) -> None:
        self.job("exact.map", cycle, ["exact", "--map", name, "--n", str(n), "--out", OUT], ".csv", _EXACT_COST[n],
                 n=n, map=name)

    def exact_block(self, n: int, cycle: int) -> None:
        t = self.fresh(lambda: ("block", n, self.fraction(13, 31)))[2]
        path = self.write(_block_map(t))
        self.job("exact.block", cycle, ["exact", "--map", path, "--n", str(n), "--out", OUT], ".csv", _BLOCK_COST[n],
                 n=n, t=str(t))

    def exact_rotation(self, n: int, cycle: int) -> None:
        alpha = self.fresh(lambda: ("rotation", n, self.fraction(n + 1, 40)))[2]
        self.job("exact.rotation", cycle, ["exact", "--map", f"rotation:{alpha}", "--n", str(n), "--out", OUT], ".csv",
                 0.01, n=n, alpha=str(alpha))

    # -- sampler ---------------------------------------------------------------

    def seed(self) -> str:
        return str(self.fresh(lambda: self.rng.randrange(1, 2**31)))

    def simulate(self, name: str, n: int, cycle: int) -> None:
        spec, info = name, {"map": name, "n": n, "samples": SAMPLES}
        if name == "rotation":
            alpha = self.fraction(n + 1, 40)
            spec, info["alpha"] = f"rotation:{alpha}", str(alpha)
        self.job("sample.simulate", cycle,
                 ["simulate", "--map", spec, "--n", str(n), "--samples", str(SAMPLES), "--seed", self.seed(), "--out", OUT],
                 ".csv", 0.09, **info)

    def cantor(self, cycle: int) -> None:
        self.job("sample.cantor", cycle,
                 ["cantor", "verify", "--uniform", "3", "--samples", str(CANTOR_SAMPLES), "--seed", self.seed()], "", 0.3,
                 samples=CANTOR_SAMPLES)

    # -- drift -----------------------------------------------------------------

    def face_subgraph(self, p: float, size: int | None = None) -> frozenset:
        """Random edges of G_3 kept with probability p, trimmed to those on loops.

        With ``size``, draws until the trimmed subgraph has that many edges.
        """
        while True:
            kept = [e for e in _G3 if self.rng.random() < p]
            edges = frozenset().union(*ref.components(kept))
            if edges and (size is None or len(edges) == size):
                return edges

    def driftless_component(self, p: float, size: int | None = None) -> frozenset:
        """A driftless component, not drawn before, of a random face subgraph (of ``size`` edges if given)."""
        while True:
            comps = [c for c in ref.components(self.face_subgraph(p))
                     if (size is None or len(c) == size) and ("comp", c) not in self.seen and ref.drift_witness(c) is None]
            if comps:
                comp = self.rng.choice(comps)
                self.seen.add(("comp", comp))
                return comp

    def drift_subgraph(self, p: float, cycle: int) -> None:
        size = len(self.shadow.fresh(lambda: self.shadow.face_subgraph(p)))
        edges = self.fresh(lambda: self.face_subgraph(p, size))
        path = self.write(_subgraph_json(edges))
        self.job("drift.subgraph", cycle, ["drift", "subgraph", "--edges", path, "--out", OUT], ".json",
                 _SUBGRAPH_COST[p], edges=sorted(edges))

    def drift_synthesize(self, p: float, cycle: int) -> None:
        """Synthesis on a driftless component, not synthesized before, of a random face subgraph."""
        comp = self.driftless_component(p, len(self.shadow.driftless_component(p)))
        path = self.write(_subgraph_json(comp))
        self.job("drift.synthesize", cycle, ["drift", "synthesize", "--edges", path, "--out", OUT], ".json", 0.1,
                 edges=sorted(comp))

    # -- realize ---------------------------------------------------------------

    def random_flow(self, k: int, size: int | None = None) -> dict[tuple, Fraction]:
        """Integer-weighted sum of k distinct embedded loops, normalized, with a realizable support.

        Loops are drawn one at a time and kept only while the support stays
        realizable, since k random loops together almost always drift.  With
        ``size``, a loop is kept only while the support stays within ``size``
        edges, and the last one must bring it to exactly ``size``.
        """
        while True:
            loops: list[tuple] = []
            support: frozenset = frozenset()
            for loop in self.rng.sample(_LOOPS, len(_LOOPS)):
                grown = support.union(loop)
                if size is not None and (len(grown) > size or (len(loops) == k - 1 and len(grown) != size)):
                    continue
                if _driftless(grown):
                    loops.append(loop)
                    support = grown
                    if len(loops) == k:
                        break
            if len(loops) == k:
                break
        mult: dict[tuple, int] = {}
        for loop in loops:
            w = self.rng.randint(1, 4)
            for e in loop:
                mult[e] = mult.get(e, 0) + w
        total = sum(mult.values())
        return {e: Fraction(m, total) for e, m in mult.items()}

    def realize(self, k: int, cycle: int) -> None:
        """Realization of a flow of k loops; its support has as many edges as the shadow's flow."""
        size = len(self.shadow.fresh(lambda: frozenset(self.shadow.random_flow(k).items())))
        flow = dict(self.fresh(lambda: frozenset(self.random_flow(k, size).items())))
        path = self.write({"n": 4, "weights": {ref.text(e): str(m) for e, m in sorted(flow.items())}})
        self.job("realize", cycle, ["realize", "--flow", path, "--tol", TOL, "--out", OUT], ".json", _REALIZE_COST[k],
                 flow=flow, tol=TOL)


@functools.cache
def _driftless(edges: frozenset) -> bool:
    return ref.drift_witness(edges) is None


def _block_map(t: Fraction) -> dict:
    """Map JSON of doubling on [0, t) and tent on [t, 1), each rescaled into its block."""
    s = 1 - t
    pieces = [
        (0, t / 2, 2, 0),
        (t / 2, t, 2, -t),
        (t, t + s / 2, 2, -t),
        (t + s / 2, 1, -2, t + 2),
    ]
    return {
        "name": f"block_sum(doubling, tent, {t})",
        "measure_preserving": True,
        "almost_aperiodic": True,
        "pieces": [
            {"lo": str(Fraction(lo)), "hi": str(Fraction(hi)), "a": str(Fraction(a)), "b": str(Fraction(b))}
            for lo, hi, a, b in pieces
        ],
    }


def _subgraph_json(edges) -> dict:
    return {"n": 3, "edges": [ref.text(e) for e in sorted(edges)]}


def _patterns(b: _Builder, budget: float) -> None:
    """Pattern statistics by both routes: exact subdivision and sampling.

    Doubling and tent at n = 8-10 open the plan.  Every cycle then runs three
    rotations (n = 10-12), four simulations (doubling, tent, logistic, a
    rotation; n rotating through 4-7), one cantor verify and block sums at
    n = 8 once and n = 10 twice.  The job classes differ in cost by more than
    machine noise, so the median falls inside the simulations and the p90
    tail inside the n = 10 block sums instead of on a class boundary.
    """
    for name in ("doubling", "tent"):
        for n in (8, 9, 10):
            b.exact_map(name, n, 0)
    cycle = 1
    while b.cost < budget:
        for n in (10, 11, 12):
            b.exact_rotation(n, cycle)
        for k, name in enumerate(("doubling", "tent", "logistic", "rotation")):
            b.simulate(name, 4 + (cycle + k) % 4, cycle)
        b.cantor(cycle)
        for n in (8, 10, 10):
            b.exact_block(n, cycle)
        cycle += 1


def _flows(b: _Builder, budget: float) -> None:
    """Drift decisions, loop synthesis, the census and realization of flows.

    Both census jobs and ten single-loop flows (only 30 loops of G_3 are
    realizable on their own) open the plan.  Every cycle then decides one
    face subgraph each for p = 0.4, 0.6 and 0.8, synthesizes one driftless
    component, and realizes one flow each of 2, 3 and 4 loops.
    """
    b.job("drift.census3", 0, ["census", "--n", "3", "--out", OUT], ".csv", 0.1)
    b.job("drift.census4", 0, ["census", "--n", "4", "--dimensions", "0", "--out", OUT], ".csv", 0.4)
    for _ in range(10):
        b.realize(1, 0)
    cycle = 1
    while b.cost < budget:
        for p in (0.4, 0.6, 0.8):
            b.drift_subgraph(p, cycle)
        b.drift_synthesize((0.4, 0.6, 0.8)[cycle % 3], cycle)
        for k in (2, 3, 4):
            b.realize(k, cycle)
        cycle += 1


WORKLOADS = {"patterns": _patterns, "flows": _flows}
WARMUPS = {
    "patterns": Job("warmup", "exact.map", -1, ("exact", "--map", "doubling", "--n", "6", "--out", OUT), ".csv", 0.0,
                    {"n": 6}),
    "flows": Job("warmup", "drift.census2", -1, ("census", "--n", "2", "--out", OUT), ".csv", 0.0),
}


def plan(workload: str, seed: int, inputs: Path, seconds: float) -> Plan:
    """Inputs for about three times ``seconds`` of estimated work, written to ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    b = _Builder(seed, inputs)
    WORKLOADS[workload](b, 3 * seconds)
    return Plan(WARMUPS[workload], b.jobs)

"""Output checks, run after the timed phase.

Each check reaches its verdict by a route other than the code that produced
the output: the convex-combination identity of block sums, arc counting for
rotations, state reachability for drift (:mod:`reference`), the path-poset
drift oracle, exact recomputation of realized maps, and binomial bounds
against exact distributions for the sampler.  None relies on the program's
own ``assert`` statements, which ``python -O`` removes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import reference as ref
from gen import Job

CENSUS2 = [[0, 2, 0], [1, 1, 1]]
CENSUS3 = [[0, 6, 0], [1, 13, 2], [2, 13, 9], [3, 6, 6], [4, 1, 1]]
FALSE_ALARM = 1e-6


class CheckFailed(Exception):
    pass


def expect(ok: bool, why: str) -> None:
    if not ok:
        raise CheckFailed(why)


def _read_csv(path: Path, exact: bool) -> dict[tuple[int, ...], object]:
    rows = list(csv.reader(io.StringIO(path.read_text())))
    expect(rows[0] == ["perm", "mass"], f"bad CSV header {rows[0]}")
    parse = Fraction if exact else float
    return {ref.word(r[0]): parse(r[1]) for r in rows[1:]}


class Checker:
    """Checks one pass of jobs; keeps references shared between jobs."""

    def __init__(self, outdir: Path):
        from orderflow import analysis, drift, maps, paths

        self.analysis, self.drift, self.maps, self.paths = analysis, drift, maps, paths
        self.outdir = outdir
        self.exact_out: dict[tuple[str, int], dict] = {}
        self.exact_dist: dict[tuple[str, int], dict] = {}
        self.poset_sign: dict[tuple, str] = {}

    def __call__(self, job: Job, stdout: str) -> None:
        payload = json.loads(stdout.strip().splitlines()[-1])
        getattr(self, job.kind.replace(".", "_"))(job, payload, job.artifact(self.outdir))

    # -- exact -------------------------------------------------------------------

    def _exact_common(self, job: Job, payload: dict, path: Path) -> dict:
        dist = _read_csv(path, exact=True)
        n = job.info["n"]
        expect(payload["n"] == n and payload["samples"] == "exact", "stdout payload mismatch")
        expect({ref.text(s): str(m) for s, m in dist.items()} == payload["mass"], "stdout masses differ from the CSV")
        expect(all(len(s) == n and sorted(s) == list(range(1, n + 1)) for s in dist), "CSV row is not a pattern of length n")
        expect(all(m > 0 for m in dist.values()), "non-positive mass")
        expect(sum(dist.values()) == 1, f"masses sum to {sum(dist.values())}")
        return dist

    def exact_map(self, job, payload, path):
        dist = self._exact_common(job, payload, path)
        if "map" in job.info:
            self.exact_out[(job.info["map"], job.info["n"])] = dist

    def exact_block(self, job, payload, path):
        dist = self._exact_common(job, payload, path)
        n, t = job.info["n"], Fraction(job.info["t"])
        mu_d, mu_t = self.exact_out.get(("doubling", n)), self.exact_out.get(("tent", n))
        expect(mu_d is not None and mu_t is not None, f"no checked doubling/tent output at n={n}")
        combo = {}
        for s in set(mu_d) | set(mu_t):
            combo[s] = t * mu_d.get(s, 0) + (1 - t) * mu_t.get(s, 0)
        expect(dist == combo, "block sum is not t*doubling + (1-t)*tent")

    def exact_rotation(self, job, payload, path):
        dist = self._exact_common(job, payload, path)
        expect(dist == ref.rotation_distribution(Fraction(job.info["alpha"]), job.info["n"]),
               "rotation differs from its arc count")

    # -- drift -------------------------------------------------------------------

    def _loop_sign(self, loop: tuple, j: int) -> str:
        key = (loop, j)
        if key not in self.poset_sign:
            gamma = self.paths.path(3, [ref.text(e) for e in loop])
            self.poset_sign[key] = self.drift.loop_drift(gamma, method="poset").at(j, j)
        return self.poset_sign[key]

    def drift_subgraph(self, job, payload, path):
        edges = [tuple(e) for e in job.info["edges"]]
        written = json.loads(path.read_text())
        expect(written["verdict"] == payload["verdict"], "artifact verdict differs from stdout")
        witness = ref.drift_witness(edges)
        if witness is None:
            expect(payload["verdict"] == "driftless", "reachability finds no drift")
            return
        v, j, sign = witness
        expect(payload["verdict"] == "drifts", "reachability finds drift")
        expect(payload["witness"] == {"vertex": ref.text(v), "index": j, "sign": sign},
               f"witness {payload['witness']} is not the first forced sign {witness}")
        expect(written["witness"] == payload["witness"], "artifact witness differs from stdout")
        through_v = 0
        for loop in ref.simple_cycles(edges):
            heads = [ref.head(e) for e in loop]
            if v in heads:
                k = heads.index(v)
                expect(self._loop_sign(loop[k:] + loop[:k], j) == sign,
                       f"a loop at {ref.text(v)} breaks witness sign {sign}")
                through_v += 1
        expect(through_v > 0, "witness vertex lies on no loop")

    def drift_synthesize(self, job, payload, path):
        loop = json.loads(path.read_text())["edges"]
        gamma = self.paths.path(3, loop)
        expect(gamma.is_loop, "synthesized path is not closed")
        expect({ref.word(e) for e in loop} == {tuple(e) for e in job.info["edges"]}, "loop does not cover the component")
        expect(self.drift.classify_loop(gamma, method="poset") == self.drift.TOTALLY_DRIFTLESS,
               "poset oracle says the loop is not totally driftless")
        expect(payload["classification"] == "totally_driftless" and payload["length"] == len(loop),
               "stdout payload mismatch")

    def drift_census2(self, job, payload, path):
        expect(payload["rows"] == CENSUS2, f"census(2) = {payload['rows']}")
        expect(_census_csv(path) == CENSUS2, "census CSV differs from stdout")

    def drift_census3(self, job, payload, path):
        expect(payload["rows"] == CENSUS3, f"census(3) = {payload['rows']}")
        expect(_census_csv(path) == CENSUS3, "census CSV differs from stdout")

    def drift_census4(self, job, payload, path):
        loops = ref.simple_cycles(ref.digraph_edges(3))
        realizable = sum(ref.drift_witness(loop) is None for loop in loops)
        expected = [[0, len(loops), realizable]]
        expect(payload["rows"] == expected, f"census(4, [0]) = {payload['rows']}, expected {expected}")
        expect(_census_csv(path) == expected, "census CSV differs from stdout")

    # -- realize -----------------------------------------------------------------

    def realize(self, job, payload, path):
        f = self.maps.map_from_json(path.read_text())
        expect(payload["n"] == 4 and payload["pieces"] == len(f.pieces), "stdout payload mismatch")
        expect(self.maps.preserves_measure(f.pieces) is True, "realized map does not preserve measure")
        achieved = {s.word: m for s, m in self.analysis.exact_distribution(f, 4).distribution.mass.items()}
        flow = job.info["flow"]
        gap = max(abs(achieved.get(s, 0) - flow.get(s, 0)) for s in set(achieved) | set(flow))
        expect(gap <= Fraction(job.info["tol"]), f"sup gap {float(gap)} exceeds tol {job.info['tol']}")

    # -- sample ------------------------------------------------------------------

    def _exact_ref(self, name: str, n: int) -> dict:
        key = (name, n)
        if key not in self.exact_dist:
            f = self.maps.builtin(name)
            mass = self.analysis.exact_distribution(f, n).distribution.mass
            self.exact_dist[key] = {s.word: m for s, m in mass.items()}
        return self.exact_dist[key]

    def sample_simulate(self, job, payload, path):
        name, n = job.info["map"], job.info["n"]
        expect(payload["n"] == n and payload["samples"] == job.info["samples"], "stdout payload mismatch")
        kept = job.info["samples"] - payload["discards"]
        emp = _read_csv(path, exact=False)
        expect(all(len(s) == n for s in emp), "CSV row is not a pattern of length n")
        if name == "logistic":
            support = self._exact_ref("tent", n)
            expect(set(emp) <= set(support), "logistic pattern outside tent's exact support")
            return
        if name == "rotation":
            exact = ref.rotation_distribution(Fraction(job.info["alpha"]), n)
        else:
            exact = self._exact_ref(name, n)
        # Bernstein's inequality per pattern, union bound over all n! patterns.
        L = math.log(2 * math.factorial(n) / FALSE_ALARM)
        for s in set(emp) | set(exact):
            p, phat = float(exact.get(s, 0)), emp.get(s, 0.0)
            eps = (2 * L / 3 + math.sqrt(4 * L * L / 9 + 8 * kept * p * (1 - p) * L)) / (2 * kept)
            expect(abs(phat - p) <= eps, f"pattern {ref.text(s)}: {phat} vs exact {p} beyond {eps}")

    def sample_cantor(self, job, payload, path):
        expect(payload["passed"] is True, "cantor verify did not pass")
        expect(len(payload["rows"]) == 3 and payload["excluded"] < job.info["samples"], "stdout payload mismatch")


def _census_csv(path: Path) -> list[list[int]]:
    rows = list(csv.reader(io.StringIO(path.read_text())))
    expect(rows[0] == ["dimension", "total", "realizable"], "bad census CSV header")
    return [[int(c) for c in r] for r in rows[1:]]

"""Spans and counters recorded around the calls into each orderflow layer.

``Tracer.install()`` replaces each traced public function with a timing
wrapper in every ``orderflow`` module namespace that binds it (``maps``
imports ``subgraph_drifts`` by name, ``digraph`` imports ``restrict``, ...),
and ``uninstall()`` puts the originals back.  Nothing in the package is
edited.  Spans live in memory as (id, name, start, end, parent id, job id)
and are written out by ``dump``.  Hot leaf functions are folded: their calls
and time are summed per (job, parent span) instead of kept one by one, so a
sampler job does not leave a million records behind.

A layer's self time is its span time minus the time of the spans directly
inside it.  Stages without a public boundary (the subdivision's refine,
crossing and readout steps, the Euler walk) stay inside their caller's self
time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import reference as ref

# (module, function, folded).  Folded functions are called per sample or per
# profile composition.
TRACED = [
    ("cli", "main", False),
    ("perms", "order_pattern", True),
    ("perms", "restrict", True),
    ("digraph", "strongly_connected_components", False),
    ("digraph", "is_face_subgraph", False),
    ("digraph", "embedded_loops", False),
    ("drift", "subgraph_drifts", False),
    ("drift", "synthesize_totally_driftless_loop", False),
    ("drift", "loop_drift", False),
    ("drift", "compose", True),
    ("flows", "census", False),
    ("flows", "face_realizable", False),
    ("flows", "as_flow", False),
    ("flows", "support_face", False),
    ("maps", "realize_flow", False),
    ("maps", "cyclic_lift", False),
    ("maps", "permutation_map", False),
    ("maps", "block_sum", False),
    ("analysis", "exact_distribution", False),
    ("analysis", "empirical_distribution", False),
    ("cantor", "build_interval_tree", False),
    ("cantor", "assemble_truncated_map", False),
    ("cantor", "verify_construction", False),
]

# Caps whose headroom the run reports: (metric stem, name in orderflow.caps).
CAPS = [
    ("saturation_profile", "SATURATION_PROFILE_MAX"),
    ("cyclic_lift", "CYCLIC_LIFT_MAX"),
    ("loop_enum_vertex", "LOOP_ENUM_VERTEX_MAX"),
    ("subdivision", "SUBDIVISION_MAX"),
]


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.job: str | None = None
        self.spans: list[tuple] = []
        self.folded: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.stack: list[list] = []  # [span id or None, start, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(float)
        self.reached: dict[str, int] = defaultdict(int)
        self.next_id = 0
        self._patches: list[tuple] = []
        self._adjacency = None

    # -- spans -------------------------------------------------------------------

    def wrap(self, name: str, fn, folded: bool = False, after=None):
        stack, calls, self_s, spans, fold = self.stack, self.calls, self.self_s, self.spans, self.folded
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if folded:
                frame = [None, 0.0, 0.0]
            else:
                self.next_id += 1
                frame = [self.next_id, 0.0, 0.0]
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                calls[name] += 1
                self_s[name] += dur - frame[2]
                parent = None
                if stack:
                    stack[-1][2] += dur
                    parent = stack[-1][0]
                if folded:
                    agg = fold[(self.job, parent, name)]
                    agg[0] += 1
                    agg[1] += dur
                else:
                    spans.append((frame[0], name, frame[1], end, parent, self.job))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function in every orderflow namespace binding it."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "orderflow" or k.startswith("orderflow.")]
        hooks = {
            "digraph.embedded_loops": self._after_loops,
            "drift.synthesize_totally_driftless_loop": self._after_synthesis,
            "maps.cyclic_lift": self._after_lift,
            "maps.realize_flow": lambda args, f: self._add("maps.pieces", len(f.pieces)),
            "analysis.empirical_distribution": self._after_sampling,
            "cantor.verify_construction": self._after_verify,
        }
        for mod, fn, folded in TRACED:
            owner = sys.modules.get(f"orderflow.{mod}")
            original = getattr(owner, fn, None)
            if original is None:
                continue
            name = f"{mod}.{fn}"
            if name == "analysis.exact_distribution":
                wrapper = self._wrap_exact(original)
            else:
                wrapper = self.wrap(name, original, folded, hooks.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)
        perm = sys.modules["orderflow.perms"].Perm
        post_init = getattr(perm, "__post_init__", None)
        if post_init is not None:

            def counted_post_init(obj):
                self.count["perms.Perm.constructed"] += 1
                post_init(obj)

            self._patch(perm, "__post_init__", counted_post_init)
        saturation = getattr(sys.modules["orderflow.drift"], "ProfileSaturation", None)
        if saturation is not None:
            self._patch(saturation, "__init__", self.wrap("drift.ProfileSaturation", saturation.__init__,
                                                          after=self._after_saturation))
        adjacency = getattr(sys.modules["orderflow.digraph"], "adjacency", None)
        if hasattr(adjacency, "cache_info"):
            self._adjacency = (adjacency, adjacency.cache_info())

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._adjacency is not None:
            fn, before = self._adjacency
            after = fn.cache_info()
            self.count["digraph.adjacency.hits"] += after.hits - before.hits
            self.count["digraph.adjacency.misses"] += after.misses - before.misses

    # -- counters ----------------------------------------------------------------

    def _add(self, key: str, value) -> None:
        self.count[key] += value

    def _reach(self, cap: str, value: int) -> None:
        self.reached[cap] = max(self.reached[cap], value)

    def _wrap_exact(self, original):
        """Exact subdivision: cells are the order_pattern calls made inside it."""
        inner = self.wrap("analysis.exact_distribution", original)

        def exact_distribution(*args, **kwargs):
            before = self.calls["perms.order_pattern"]
            report = inner(*args, **kwargs)
            cells = self.calls["perms.order_pattern"] - before
            self._add("analysis.exact.cells", cells)
            self._add("analysis.exact.patterns", len(report.distribution.mass))
            self._reach("subdivision", cells)
            return report

        return exact_distribution

    def _after_loops(self, args, loops) -> None:
        self._add("digraph.embedded_loops.loops", len(loops))
        words = [e.word for e in args[0].edges]
        self._reach("loop_enum_vertex", len({ref.head(w) for w in words} | {ref.tail(w) for w in words}))

    def _after_synthesis(self, args, gamma) -> None:
        self._add("drift.synth_loop_edges", gamma.length)

    def _after_lift(self, args, ranking) -> None:
        self._add("maps.cyclic_lift.loop_edges", ranking.length)
        self._reach("cyclic_lift", ranking.length)

    def _after_saturation(self, args, _none) -> None:
        sizes = [len(bucket) for bucket in args[0].profiles.values()]
        self._add("drift.saturation_profiles", sum(sizes))
        self._reach("saturation_profile", max(sizes, default=0))

    def _after_sampling(self, args, report) -> None:
        self._add("analysis.samples", report.samples)
        self._add("analysis.kept", report.samples - report.discards)

    def _after_verify(self, args, report) -> None:
        self._add("cantor.drawn", report.samples)
        self._add("cantor.included", report.samples - report.excluded)

    # -- output ------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}

        def calls(name):
            out[f"{name}.calls"] = (self.calls[name], "count")

        def self_s(name):
            out[f"{name}.self_s"] = (self.self_s[name], "s")

        def ratio(key, num, den):
            out[key] = (self.count[num] / self.count[den] if self.count[den] else 0.0, "ratio")

        for name in ("perms.order_pattern", "perms.restrict"):
            calls(name)
            self_s(name)
        out["perms.Perm.constructed"] = (self.count["perms.Perm.constructed"], "count")
        for name in ("digraph.strongly_connected_components", "digraph.is_face_subgraph"):
            calls(name)
            self_s(name)
        self_s("digraph.embedded_loops")
        out["digraph.embedded_loops.loops"] = (self.count["digraph.embedded_loops.loops"], "count")
        hits, misses = self.count["digraph.adjacency.hits"], self.count["digraph.adjacency.misses"]
        out["digraph.adjacency.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        for name in ("drift.subgraph_drifts", "drift.synthesize_totally_driftless_loop"):
            calls(name)
            self_s(name)
        out["drift.synth_loop_edges"] = (self.count["drift.synth_loop_edges"], "count")
        calls("drift.ProfileSaturation")
        self_s("drift.ProfileSaturation")
        out["drift.saturation_profiles"] = (self.count["drift.saturation_profiles"], "count")
        calls("drift.compose")
        calls("drift.loop_drift")
        self_s("drift.loop_drift")
        self_s("flows.census")
        calls("flows.face_realizable")
        self_s("flows.as_flow")
        self_s("flows.support_face")
        self_s("maps.realize_flow")
        calls("maps.cyclic_lift")
        self_s("maps.cyclic_lift")
        out["maps.cyclic_lift.loop_edges"] = (self.count["maps.cyclic_lift.loop_edges"], "count")
        self_s("maps.permutation_map")
        self_s("maps.block_sum")
        out["maps.pieces"] = (self.count["maps.pieces"], "count")
        calls("analysis.exact_distribution")
        self_s("analysis.exact_distribution")
        out["analysis.exact.cells"] = (self.count["analysis.exact.cells"], "count")
        out["analysis.exact.patterns"] = (self.count["analysis.exact.patterns"], "count")
        calls("analysis.empirical_distribution")
        self_s("analysis.empirical_distribution")
        out["analysis.samples"] = (self.count["analysis.samples"], "count")
        ratio("analysis.kept_ratio", "analysis.kept", "analysis.samples")
        for name in ("cantor.build_interval_tree", "cantor.assemble_truncated_map", "cantor.verify_construction"):
            self_s(name)
        ratio("cantor.included_ratio", "cantor.included", "cantor.drawn")
        self_s("cli.main")
        caps = sys.modules["orderflow.caps"]
        for stem, const in CAPS:
            cap = getattr(caps, const, None)
            reached = self.reached[stem]
            out[f"caps.{stem}.reached"] = (reached, "count")
            out[f"caps.{stem}.used_frac"] = (reached / cap if cap else 0.0, "ratio")
        return out

    def dump(self, path: Path) -> None:
        """Write spans and folded aggregates as JSON lines, times relative to the tracer's start."""
        with path.open("w") as fh:
            for sid, name, start, end, parent, job in self.spans:
                rec = {"id": sid, "name": name, "start": start - self.origin, "end": end - self.origin,
                       "parent": parent, "job": job}
                fh.write(json.dumps(rec) + "\n")
            for (job, parent, name), (n, seconds) in self.folded.items():
                fh.write(json.dumps({"folded": name, "calls": n, "seconds": seconds, "parent": parent, "job": job}) + "\n")

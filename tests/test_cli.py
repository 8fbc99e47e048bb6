import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_path
from flow_oracle import flow_to_json, interior_flow
from isometries import lattice_maps
import readout_oracle
from orderflow import analysis, cli, maps
from orderflow.analysis import PatternReport
from orderflow.cli import build_parser, main
from orderflow.digraph import build, subgraph, subgraph_from_json, subgraph_to_json
from orderflow.maps import builtin, map_from_json, map_to_json
from orderflow.paths import path, path_to_json
from orderflow.exactnum import exact
from orderflow.perms import PatternDistribution, distribution_from_csv, distribution_to_csv, perm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCensus:
    def test_table_and_determinism(self, tmp_path, capsys):
        out = tmp_path / "census.csv"
        code, stdout, _ = run(capsys, "census", "--n", "3", "--out", str(out))
        assert code == 0
        first = out.read_bytes()
        assert first.splitlines()[1] == b"0,6,0"
        payload = json.loads(stdout)
        assert payload["rows"] == [[0, 6, 0], [1, 13, 2], [2, 13, 9], [3, 6, 6], [4, 1, 1]]
        run(capsys, "census", "--n", "3", "--out", str(out))
        assert out.read_bytes() == first

    def test_dimensions_filter(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "census", "--n", "3", "--dimensions", "0,4", "--out", str(tmp_path / "c.csv"))
        assert code == 0 and json.loads(stdout)["rows"] == [[0, 6, 0], [4, 1, 1]]

    def test_repeated_vertex_dimension_lists_loops(self, tmp_path, capsys):
        # The set {0} picks the embedded-loop route, however the list spells it.
        code, stdout, _ = run(capsys, "census", "--n", "4", "--dimensions", "0,0", "--out", str(tmp_path / "c.csv"))
        assert code == 0 and json.loads(stdout)["rows"] == [[0, 160, 30]]


class TestDrift:
    def test_loop_verdict(self, tmp_path, capsys, figure_loop):
        f = tmp_path / "loop.json"
        f.write_text(path_to_json(figure_loop))
        code, stdout, _ = run(capsys, "drift", "loop", "--path", str(f))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["classification"] == "partially_driftless"
        assert payload["diagonal"] == ["+", "0", "+"]

    def test_subgraph_and_synthesize(self, tmp_path, capsys, driftless_triple):
        sub = tmp_path / "sub.json"
        sub.write_text(subgraph_to_json(driftless_triple))
        code, stdout, _ = run(capsys, "drift", "subgraph", "--edges", str(sub))
        assert code == 0 and json.loads(stdout)["verdict"] == "driftless"

        out = tmp_path / "loop.json"
        code, stdout, _ = run(capsys, "drift", "synthesize", "--edges", str(sub), "--out", str(out))
        assert code == 0
        assert json.loads(stdout)["classification"] == "totally_driftless"

    def test_domain_error_exit_code(self, tmp_path, capsys):
        sub = tmp_path / "sub.json"
        sub.write_text('{"n": 2, "edges": ["132", "213"]}')
        code, _, stderr = run(capsys, "drift", "synthesize", "--edges", str(sub))
        assert code == 1
        assert json.loads(stderr)["error"] == "DriftObstruction"


class TestRankedOutputPins:
    """Byte pins of the outputs whose order follows the sorted vertex ranking of a subgraph."""

    # Two-component faces of G_3: the second component drifts (least vertex 321), and neither does.
    DRIFTS = "1243 1324 1423 2143 2314 2413 3124 4231 4321"
    DRIFTLESS = "1324 1342 2413 2431 3124 3142 3214 4123 4213 4231 4321"
    # A strongly connected driftless face of G_3; the other component synthesized is all of G_3.
    ONE_FACE = "1234 1324 1342 1423 1432 3124 3142 3214 3241 3421 4132 4213 4231 4312"

    @staticmethod
    def _spec(tmp_path, edges):
        spec = tmp_path / "sub.json"
        H = build(3).full_subgraph() if edges is None else subgraph(3, edges.split())
        spec.write_text(subgraph_to_json(H))
        return str(spec)

    @staticmethod
    def _assert_pinned(capsys, tmp_path, argv, stdout_sha, out_sha):
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, *argv, "--out", str(out))
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha
        assert hashlib.sha256(out.read_bytes()).hexdigest() == out_sha

    @pytest.mark.parametrize(
        "action, edges, stdout_sha, out_sha",
        [
            ("subgraph", DRIFTS, "04f817dc00bc56d53b610c5338063743583903a256a64d90a7a56bcae605f785",
             "f848af730910d3839c5c9402f8d4794454fa448c0bfd05dd11771a21b5689cc3"),
            ("subgraph", DRIFTLESS, "623390d396853e58a50944e60d4a6f4b69068416eea57496372d0048abfb1466",
             "f3a90b8a7f4a8080d390e620f71462f52c44bcaf3cf96f36a43980c85d162cec"),
            ("synthesize", ONE_FACE, "39e35d802a040ae1cd059e509a692f271516f81367d8301d4ad05d5a61d89641",
             "d6814f6c6e1d1fef2c5b7d5cd10ff82d02e0b3d69edf4903b59bca2446769001"),
            ("synthesize", None, "b5a7f167f8407a5819c3ee1bdedecea5f5d99bd8f2b4875e071b3eabf74ddf00",
             "10a4a83700144653618c18cd46b662e6becf25dc24c0fd52450c587774bfeb9b"),
        ],
        ids=["drifts", "driftless", "synthesize_face", "synthesize_g3"],
    )
    def test_drift(self, tmp_path, capsys, action, edges, stdout_sha, out_sha):
        argv = ("drift", action, "--edges", self._spec(tmp_path, edges))
        self._assert_pinned(capsys, tmp_path, argv, stdout_sha, out_sha)

    def test_census(self, tmp_path, capsys):
        self._assert_pinned(
            capsys, tmp_path, ("census", "--n", "3"),
            "93d69a7f0c950f2d68789b93d7cb07a2305685daa8abf5898bde5b4d71c36d5a",
            "7a896cfc78a9f96a4f64e9d0c0e820343e83df94f8d2aafd4b7968964e19d53f",
        )

    def test_dot(self, tmp_path, capsys):
        self._assert_pinned(
            capsys, tmp_path, ("digraph", "--edges", self._spec(tmp_path, self.DRIFTS), "--format", "dot"),
            "4933910b01119e4d9977ce4211ff0c18c7c51a93be0d7f390d2ecfa5c044016d",
            "9aceabd5b3812903a92b9c12b68248409fd61040444abb9523e844e641de9577",
        )


class TestDistributions:
    def test_exact_doubling(self, tmp_path, capsys):
        out = tmp_path / "d3.csv"
        code, stdout, _ = run(capsys, "exact", "--map", "doubling", "--n", "3", "--out", str(out))
        assert code == 0
        mu = distribution_from_csv(out.read_text())
        assert str(sorted(mu.mass)[0]) == "123"
        assert json.loads(stdout)["mass"]["213"] == "1/12"

    def test_exact_rotation_spec_string(self, tmp_path, capsys):
        out = tmp_path / "r3.csv"
        code, stdout, _ = run(capsys, "exact", "--map", "rotation:3/10", "--n", "3", "--out", str(out))
        assert code == 0
        assert json.loads(stdout)["mass"] == {"123": "2/5", "231": "3/10", "312": "3/10"}

    def test_simulate_requires_seed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "simulate", "--map", "doubling", "--n", "2", "--out", str(tmp_path / "x.csv"))
        assert err.value.code == 2

    def test_simulate_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "simulate", "--map", "doubling", "--n", "2", "--samples", "2000", "--seed", "9", "--out", str(a))
        run(capsys, "simulate", "--map", "doubling", "--n", "2", "--samples", "2000", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestPosetLifts:
    def test_poset_query(self, tmp_path, capsys, figure_loop):
        f = tmp_path / "p.json"
        f.write_text(path_to_json(figure_loop))
        code, stdout, _ = run(capsys, "poset", "--path", str(f), "--query", "2", "7", "--oracle")
        assert code == 0
        assert json.loads(stdout)["query"]["relation"] == "incomparable"

    def test_lifts_count_and_enumerate(self, tmp_path, capsys, loop_132_321_213):
        f = tmp_path / "p.json"
        f.write_text(path_to_json(loop_132_321_213))
        code, stdout, _ = run(capsys, "lifts", "--path", str(f), "--mode", "count")
        assert json.loads(stdout)["count"] == 4
        out = tmp_path / "lifts.json"
        code, stdout, _ = run(capsys, "lifts", "--path", str(f), "--out", str(out))
        assert "25314" in json.loads(out.read_text())["lifts"]


class TestRealizeAndRoundTrips:
    def test_realize_uniform(self, tmp_path, capsys):
        flow = tmp_path / "flow.json"
        flow.write_text(
            json.dumps({"n": 3, "weights": {s: "1/6" for s in ["123", "132", "213", "231", "312", "321"]}})
        )
        out = tmp_path / "map.json"
        code, stdout, _ = run(capsys, "realize", "--flow", str(flow), "--tol", "0.05", "--out", str(out))
        assert code == 0
        f = map_from_json(out.read_text())
        assert f.measure_preserving and json.loads(out.read_text())["measure_preserving"] is True

    @pytest.mark.parametrize(
        "pieces, claim, preserving, mass",
        [
            # x -> x/2 squashes [0, 1) onto [0, 1/2), whatever the file says.
            ([("0", "1", "1/2", "0")], True, False, {"21": "1"}),
            # Doubling preserves measure; the string "false" is not read as a flag.
            ([("0", "1/2", "2", "0"), ("1/2", "1", "2", "-1")], "false", True, {"12": "1/2", "21": "1/2"}),
        ],
    )
    def test_loaded_map_works_out_measure_preserving(self, tmp_path, capsys, monkeypatch, pieces, claim, preserving, mass):
        loaded = []
        load = maps.map_from_json
        monkeypatch.setattr(maps, "map_from_json", lambda text: loaded.append(load(text)) or loaded[-1])
        spec = tmp_path / "map.json"
        records = [{"lo": lo, "hi": hi, "a": a, "b": b} for lo, hi, a, b in pieces]
        spec.write_text(json.dumps({"name": "m", "measure_preserving": claim, "pieces": records}))
        code, stdout, _ = run(capsys, "exact", "--map", str(spec), "--n", "2", "--out", str(tmp_path / "d.csv"))
        assert code == 0 and json.loads(stdout)["mass"] == mass
        assert len(loaded) == 1 and loaded[0].measure_preserving is preserving

    # Four embedded loops of G_3, weighted 1 to 4: one strongly connected, driftless support whose
    # realization at tolerance 1/40 is a loop of 109 edges.
    FOUR_LOOPS = ["1432 3214 2134 2341 3412 4132", "1432 3214 2143", "1342 2314 2143 1423 4123", "2431 4312 4132"]

    @pytest.mark.parametrize(
        "flow, tol, stdout_sha, map_sha",
        [
            ("uniform", "0.05", "e80840fde5fe24c85d4fadda0679f77cd5fc83486fb4d326491bd49dfa207bb5",
             "47f42958adc65a3a285892224fe064aa11dc3bac21db6853bfcfdd1655543e90"),
            ("triple", "1/50", "5c7dde65c459ac19baf5d49423ba80f1b322da311d9c2e55628f8fbd70ad0152",
             "b7894154f6e8cdc2c93a441e95a76510a166b879e32310c8aa0ead045eac576b"),
            ("four_loops", "1/40", "88b00262c5d88a5d9688b5b444019553122cc4ae5613f6ce46fc20baa166e6d3",
             "6b3533484a3f28cbd5ad52c47463bead971fe85207776eba70595b9e5b630e8e"),
        ],
    )
    def test_realize_bytes_pinned(self, tmp_path, capsys, driftless_triple, flow, tol, stdout_sha, map_sha):
        # The stdout line and the map file of three fixed realizations, byte for byte.
        if flow == "uniform":
            mu = PatternDistribution.uniform(3)
        elif flow == "triple":
            mu = interior_flow(driftless_triple)
        else:
            mult = {}
            for w, loop in enumerate(self.FOUR_LOOPS, 1):
                for e in loop.split():
                    mult[perm(e)] = mult.get(perm(e), 0) + w
            total = sum(mult.values())
            mu = PatternDistribution(4, {e: Fraction(m, total) for e, m in mult.items()})
        spec, out = tmp_path / "flow.json", tmp_path / "map.json"
        spec.write_text(flow_to_json(mu))
        code, stdout, _ = run(capsys, "realize", "--flow", str(spec), "--tol", tol, "--out", str(out))
        assert code == 0
        if flow == "four_loops":
            # One component: 109 translated pieces, one of them split by the rotation.
            assert json.loads(stdout)["pieces"] == 110
        assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha
        assert hashlib.sha256(out.read_bytes()).hexdigest() == map_sha

    def test_vertex_flow_rejected(self, tmp_path, capsys):
        flow = tmp_path / "flow.json"
        flow.write_text('{"n": 3, "weights": {"123": "1"}}')
        code, _, stderr = run(capsys, "realize", "--flow", str(flow), "--tol", "0.05", "--out", str(tmp_path / "m.json"))
        assert code == 1
        assert json.loads(stderr)["error"] == "NotRealizable"

    def test_digraph_round_trip(self, tmp_path, capsys, G2_full):
        out = tmp_path / "g.json"
        code, _, _ = run(capsys, "digraph", "--n", "2", "--format", "json", "--out", str(out))
        assert code == 0
        assert subgraph_from_json(out.read_text()) == G2_full

    def test_dot_output(self, tmp_path, capsys):
        out = tmp_path / "g.dot"
        run(capsys, "digraph", "--n", "2", "--out", str(out))
        assert out.read_text().count("->") == 6


class TestCantorCli:
    def test_verify_uniform(self, capsys):
        code, stdout, _ = run(
            capsys,
            "cantor",
            "verify",
            "--uniform",
            "3",
            "--scale-depth",
            "16",
            "--samples",
            "20000",
            "--seed",
            "4",
        )
        assert code == 0
        assert json.loads(stdout)["passed"]

    def test_build_writes_map(self, tmp_path, capsys):
        out = tmp_path / "cantor.json"
        code, stdout, _ = run(capsys, "cantor", "build", "--uniform", "2", "--scale-depth", "10", "--out", str(out))
        assert code == 0
        map_from_json(out.read_text())


class TestValidate:
    def test_flow_ok(self, tmp_path, capsys, driftless_triple):
        f = tmp_path / "flow.json"
        f.write_text(flow_to_json(interior_flow(driftless_triple)))
        code, stdout, _ = run(capsys, "validate", "--kind", "flow", str(f))
        assert code == 0 and json.loads(stdout)["ok"]

    def test_flow_negative_weight_names_edge(self, tmp_path, capsys):
        f = tmp_path / "flow.json"
        f.write_text('{"n": 2, "weights": {"12": "3/2", "21": "-1/2"}}')
        code, stdout, _ = run(capsys, "validate", "--kind", "flow", str(f))
        payload = json.loads(stdout)
        assert code == 0 and not payload["ok"]
        assert any("negative" in d for d in payload["diagnostics"])

    def test_path_window_mismatch_cites_edges(self, tmp_path, capsys):
        f = tmp_path / "p.json"
        f.write_text('{"n": 2, "edges": ["132", "132"]}')
        code, stdout, _ = run(capsys, "validate", "--kind", "path", str(f))
        payload = json.loads(stdout)
        assert not payload["ok"]
        assert any("132" in d for d in payload["diagnostics"])

    def test_map_leaving_the_interval(self, tmp_path, capsys):
        # Every piece whose exact image leaves [0, 1] is named; the vertex of a degree-2 piece counts.
        f = tmp_path / "m.json"
        f.write_text('{"pieces": [{"lo": "0", "hi": "1", "a": "2", "b": "0"}]}')
        code, stdout, _ = run(capsys, "validate", "--kind", "map", str(f))
        assert code == 0 and json.loads(stdout) == {
            "command": "validate", "kind": "map", "ok": False,
            "diagnostics": ["piece 0 maps [0, 1) onto [0, 2], outside [0, 1]"],
        }
        f.write_text(
            '{"pieces": [{"lo": "0", "hi": "1/4", "a": "1", "b": "-1/4"},'
            ' {"lo": "1/4", "hi": "3/4", "c": "-5", "a": "5", "b": "0"},'
            ' {"lo": "3/4", "hi": "1", "a": "1", "b": "0"}]}'
        )
        code, stdout, _ = run(capsys, "validate", "--kind", "map", str(f))
        assert json.loads(stdout)["diagnostics"] == [
            "piece 0 maps [0, 1/4) onto [-1/4, 0], outside [0, 1]",
            "piece 1 maps [1/4, 3/4) onto [15/16, 5/4], outside [0, 1]",
        ]
        f.write_text(map_to_json(builtin("logistic")))
        code, stdout, _ = run(capsys, "validate", "--kind", "map", str(f))
        assert json.loads(stdout)["ok"]

    def test_entropy_and_forbidden_and_exclusion(self, tmp_path, capsys):
        out = tmp_path / "e.txt"
        code, stdout, _ = run(capsys, "entropy", "--map", "rotation:3/10", "--n-max", "4", "--out", str(out))
        assert code == 0 and "patterns" in out.read_text()

        code, stdout, _ = run(capsys, "forbidden", "--map", "rotation:3/10", "--n", "3")
        assert json.loads(stdout)["forbidden"] == ["132", "213", "321"]

        code, stdout, _ = run(capsys, "exclusion", "--map", "doubling", "--n", "2", "--m-max", "4")
        rows = json.loads(stdout)["rows"]
        assert rows[0]["equal"] and not rows[1]["equal"]

    def test_exclusion_past_s9(self, capsys):
        # The lift preimage is counted, not listed, so no cap bounds m beyond the realized side's.
        code, stdout, _ = run(capsys, "exclusion", "--map", "rotation:3/10", "--n", "2", "--m-max", "10")
        assert code == 0
        assert [row["m"] for row in json.loads(stdout)["rows"]] == list(range(3, 11))

    def test_exclusion_doubling_past_s10(self, capsys):
        # Doubling realizes all of S_3, so A_m is all of S_m and every realized pattern lies in it.
        code, stdout, _ = run(capsys, "exclusion", "--map", "doubling", "--n", "2", "--m-max", "11")
        rows = json.loads(stdout)["rows"]
        assert code == 0 and len(stdout.splitlines()) == 1
        assert [row["m"] for row in rows] == list(range(3, 12))
        assert rows[0]["equal"] and all(row["extra"] == 0 for row in rows)


def run_error(capsys, *argv):
    """Run a command that must fail; return its exit code and its one JSON error line."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1
    return code, json.loads(lines[0])


class TestBoundary:
    """Malformed input ends in one JSON error line: exit 2 for usage, 1 for domain."""

    def test_realize_zero_tolerance(self, tmp_path, capsys):
        flow = tmp_path / "flow.json"
        flow.write_text(flow_to_json(PatternDistribution.uniform(3)))
        code, err = run_error(capsys, "realize", "--flow", str(flow), "--tol", "0", "--out", str(tmp_path / "m.json"))
        assert code == 2 and err["error"] == "UsageError" and "--tol" in err["detail"]

    def test_exact_zero_length(self, tmp_path, capsys):
        code, err = run_error(capsys, "exact", "--map", "doubling", "--n", "0", "--out", str(tmp_path / "x.csv"))
        assert code == 2 and err["error"] == "UsageError" and "--n" in err["detail"]

    @pytest.mark.parametrize("raw", ["abc", "0", "5"])
    def test_cap_setting_is_ignored(self, raw, tmp_path, monkeypatch, capsys):
        # No cap is read from the environment: a length past the cap on listing S_n runs.
        monkeypatch.setenv("ORDERFLOW_CAP", raw)
        out = tmp_path / "out.csv"
        code, stdout, _ = run(capsys, "exact", "--map", "rotation:-1+1*sqrt2", "--n", "13", "--out", str(out))
        assert code == 0 and len(json.loads(stdout)["mass"]) == 13 and out.exists()

    def test_exact_malformed_rotation(self, tmp_path, capsys):
        code, err = run_error(capsys, "exact", "--map", "rotation:abc", "--n", "3", "--out", str(tmp_path / "x.csv"))
        assert code == 1 and err["error"] == "FormatError" and "rotation:abc" in err["detail"]

    def test_subgraph_string_length(self, tmp_path, capsys):
        sub = tmp_path / "sub.json"
        sub.write_text('{"n": "3", "edges": ["1234"]}')
        code, err = run_error(capsys, "drift", "subgraph", "--edges", str(sub))
        assert code == 1 and err["error"] == "FormatError" and "'n'" in err["detail"]

    def test_realize_non_numeric_weight(self, tmp_path, capsys):
        flow = tmp_path / "flow.json"
        flow.write_text('{"n": 3, "weights": {"123": "abc"}}')
        code, err = run_error(capsys, "realize", "--flow", str(flow), "--out", str(tmp_path / "m.json"))
        assert code == 1 and err["error"] == "FormatError" and "'abc'" in err["detail"]

    def test_realize_large_denominators_refused_by_the_cap(self, tmp_path, capsys):
        # A 174-byte flow whose multiplicities need a loop of six million edges is refused from them alone.
        flow = tmp_path / "flow.json"
        heavy, light = "1876543/6000000", "123457/6000000"
        weights = {s: heavy if s in ("132", "321", "213") else light for s in ("123", "132", "213", "231", "312", "321")}
        flow.write_text(json.dumps({"n": 3, "weights": weights}, sort_keys=True))
        assert len(flow.read_bytes()) == 174
        out = tmp_path / "m.json"
        code, err = run_error(capsys, "realize", "--flow", str(flow), "--tol", "0.05", "--out", str(out))
        detail = "reaching tolerance 0.05 needs a loop of 6000008 edges, cap 4096"
        assert code == 1 and err == {"error": "CapExceeded", "detail": detail}
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("realize", "--flow", "in.json", "--out", "m.json"),
            ("exact", "--map", "in.json", "--n", "3", "--out", "x.csv"),
            ("drift", "subgraph", "--edges", "in.json"),
            ("poset", "--path", "in.json"),
            ("lifts", "--path", "in.json"),
            ("cantor", "build", "--dists", "in.json", "--out", "c.json"),
            ("validate", "--kind", "flow", "in.json"),
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_input_not_utf8(self, argv, tmp_path, monkeypatch, capsys):
        # Every reader decodes its file as UTF-8; other bytes are a FormatError naming the file, not a traceback.
        monkeypatch.chdir(tmp_path)
        Path("in.json").write_bytes(b'\xff\xfe{"n": 3}')
        code, err = run_error(capsys, *argv)
        detail = "input file in.json is not UTF-8 text: invalid start byte at byte 0"
        assert code == 1 and err == {"error": "FormatError", "detail": detail}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]

    # Every JSON reader goes through perms.load_json, which refuses text nested past the parser's recursion limit.
    @pytest.mark.parametrize(
        "argv",
        [
            ("realize", "--flow", "in.json", "--out", "m.json"),
            ("drift", "subgraph", "--edges", "in.json"),
            ("lifts", "--path", "in.json"),
            ("exact", "--map", "in.json", "--n", "3", "--out", "x.csv"),
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_deeply_nested_json(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("in.json").write_text("[" * 2000)
        code, err = run_error(capsys, *argv)
        assert code == 1 and err == {"error": "FormatError", "detail": "invalid JSON: nested too deeply to parse"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]

    @pytest.mark.parametrize("kind", ["flow", "path", "subgraph", "map"])
    def test_validate_deeply_nested_json(self, kind, tmp_path, capsys):
        f = tmp_path / "in.json"
        f.write_text('{"n": ' + "[" * 2000)
        code, stdout, _ = run(capsys, "validate", "--kind", kind, str(f))
        assert code == 0 and json.loads(stdout)["diagnostics"] == ["invalid JSON: nested too deeply to parse"]

    def test_json_integer_past_the_digit_limit(self, tmp_path, capsys):
        # json.loads reads a number token with int(), which refuses more digits than Python's limit.
        f = tmp_path / "sub.json"
        f.write_text('{"n": 3, "edges": [' + "1" * 5000 + "]}")
        detail = f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits, Python's limit"
        code, err = run_error(capsys, "drift", "subgraph", "--edges", str(f))
        assert code == 1 and err == {"error": "FormatError", "detail": detail}
        code, stdout, _ = run(capsys, "validate", "--kind", "subgraph", str(f))
        assert code == 0 and json.loads(stdout)["diagnostics"] == [detail]

    def test_weight_past_the_digit_limit(self, tmp_path, capsys):
        # Not "mass '111...' is not a number": the weight is a number, too long to read.
        flow = tmp_path / "flow.json"
        flow.write_text(json.dumps({"n": 3, "weights": {"123": "1" * 5000}}))
        limit = sys.get_int_max_str_digits()
        detail = f"weight of 123: mass has more than {limit} digits in a row, Python's limit"
        code, err = run_error(capsys, "realize", "--flow", str(flow), "--out", str(tmp_path / "m.json"))
        assert code == 1 and err == {"error": "FormatError", "detail": detail}
        code, stdout, _ = run(capsys, "validate", "--kind", "flow", str(flow))
        assert code == 0 and json.loads(stdout)["diagnostics"] == [detail]

    def test_distribution_csv_without_rows(self, tmp_path, capsys):
        dist = tmp_path / "d.csv"
        dist.write_text("perm,mass\n")
        code, stdout, _ = run(capsys, "validate", "--kind", "dist", str(dist))
        assert code == 0 and json.loads(stdout) == {
            "command": "validate", "diagnostics": ["distribution CSV has no rows"], "kind": "dist", "ok": False,
        }

    def test_boolean_weight(self, tmp_path, capsys):
        # float(True) is 1.0, so a JSON true would otherwise read as a mass of 1.
        flow = tmp_path / "flow.json"
        flow.write_text('{"n": 3, "weights": {"123": true}}')
        detail = "weight of 123: mass True is not a number"
        code, stdout, _ = run(capsys, "validate", "--kind", "flow", str(flow))
        assert code == 0 and json.loads(stdout)["diagnostics"] == [detail]
        code, err = run_error(capsys, "realize", "--flow", str(flow), "--out", str(tmp_path / "m.json"))
        assert code == 1 and err == {"error": "FormatError", "detail": detail}

    @pytest.mark.parametrize("name", ["5", "[1]"])
    def test_map_name_not_a_string(self, name, tmp_path, capsys):
        f = tmp_path / "map.json"
        f.write_text(f'{{"name": {name}, "pieces": [{{"lo": "0", "hi": "1", "a": "1", "b": "0"}}]}}')
        code, err = run_error(capsys, "exact", "--map", str(f), "--n", "3", "--out", str(tmp_path / "x.csv"))
        assert code == 1 and err == {"error": "FormatError", "detail": f"map JSON 'name' must be a string, got {name}"}

    @pytest.mark.parametrize("spec", ["doubling:5", "tent:1/2"])
    def test_parameter_on_a_map_without_one(self, spec, tmp_path, capsys):
        code, err = run_error(capsys, "exact", "--map", spec, "--n", "3", "--out", str(tmp_path / "x.csv"))
        name = spec.partition(":")[0]
        assert code == 1 and err == {"error": "FormatError", "detail": f"map spec {spec!r}: {name} takes no parameter"}

    # The sampler runs on floats, so a coefficient with no finite float is a schema error.
    @pytest.mark.parametrize(
        "field, value, argv",
        [
            ("a", "1e400", ("simulate", "--n", "3", "--seed", "1", "--out", "o.csv")),
            ("a", "1e400", ("forbidden", "--n", "3", "--mode", "empirical", "--seed", "1")),
            ("a", "1e400", ("exclusion", "--n", "2", "--m-max", "3", "--mode", "empirical", "--seed", "1")),
            ("c", "1e999999", ("entropy", "--n-max", "3", "--mode", "empirical", "--seed", "1", "--out", "e.txt")),
        ],
    )
    def test_sampled_coefficient_beyond_float_range(self, field, value, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        big = {"lo": "0", "hi": "1/2", "a": "0", "b": "0", field: value}
        Path("map.json").write_text(json.dumps({"pieces": [big, {"lo": "1/2", "hi": "1", "a": "1", "b": "-1/2"}]}))
        code, err = run_error(capsys, argv[0], "--map", "map.json", *argv[1:])
        detail = f"map piece 0: coefficient {field} is beyond float range"
        assert code == 1 and err == {"error": "FormatError", "detail": detail}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["map.json"]

    @pytest.mark.parametrize("query", [("0", "9"), ("1", "6"), ("-1", "2")])
    def test_poset_query_outside_the_path(self, query, tmp_path, capsys, loop_132_321_213):
        f = tmp_path / "p.json"
        f.write_text(path_to_json(loop_132_321_213))
        code, err = run_error(capsys, "poset", "--path", str(f), "--query", *query)
        detail = f"indices must lie in 1..5, got {query[0]} and {query[1]}"
        assert code == 1 and err == {"error": "LengthMismatch", "detail": detail}

    def test_lifts_target_length_is_not_an_option(self, tmp_path, capsys, loop_132_321_213):
        f = tmp_path / "p.json"
        f.write_text(path_to_json(loop_132_321_213))
        code, err = run_error(capsys, "lifts", "--path", str(f), "--m", "7")
        assert code == 2 and err == {"error": "UsageError", "detail": "orderflow: unrecognized arguments: --m 7"}

    def test_flag_prefix_is_not_an_abbreviation(self, tmp_path, capsys, loop_132_321_213):
        # With argparse's prefix matching, --m count would run as --mode count.
        f = tmp_path / "p.json"
        f.write_text(path_to_json(loop_132_321_213))
        code, err = run_error(capsys, "lifts", "--path", str(f), "--m", "count")
        assert code == 2 and err == {"error": "UsageError", "detail": "orderflow: unrecognized arguments: --m count"}
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["lifts", "--path", "p.json", "--m", "count"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [json.dumps(err)]

    # census is exhaustive through n = 4, so --samples and --seed are gone: each
    # former misuse is now refused as unrecognized arguments, not by its old message.
    @pytest.mark.parametrize(
        "argv, old_detail",
        [
            (["--n", "4", "--samples", "300"], "--seed is required for census --samples"),
            (["--n", "3", "--samples", "300", "--seed", "1"], "census --samples needs --n 4, got 3; smaller censuses are exhaustive"),
            (
                ["--n", "4", "--dimensions", "0", "--samples", "300", "--seed", "1"],
                "census --samples does not apply to --dimensions 0, which is exhaustive",
            ),
        ],
    )
    def test_census_samples_misused(self, argv, old_detail, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, err = run_error(capsys, "census", *argv, "--out", str(out))
        unrecognized = " ".join(argv[argv.index("--samples") :])
        assert code == 2
        assert err == {"error": "UsageError", "detail": f"orderflow: unrecognized arguments: {unrecognized}"}
        assert old_detail not in err["detail"]
        assert not out.exists()

    def test_poset_oracle_disagreement(self, tmp_path, capsys, figure_loop, monkeypatch):
        f = tmp_path / "p.json"
        f.write_text(path_to_json(figure_loop))
        monkeypatch.setattr("orderflow.paths.lifts", lambda p: [])  # no lifts: every relation holds vacuously
        code, err = run_error(capsys, "poset", "--path", str(f), "--query", "2", "7", "--oracle")
        assert code == 1
        assert err == {"error": "InvariantViolation", "detail": "poset says incomparable, lift oracle says equal"}

    def test_path_string_length(self, tmp_path, capsys):
        f = tmp_path / "path.json"
        f.write_text('{"n": "2", "edges": ["132", "321", "213"]}')
        code, err = run_error(capsys, "poset", "--path", str(f))
        assert code == 1 and err["error"] == "FormatError" and "'n'" in err["detail"]
        # validate reports the same problem as a diagnostic of a failed check.
        code, stdout, _ = run(capsys, "validate", "--kind", "path", str(f))
        payload = json.loads(stdout)
        assert code == 0 and not payload["ok"] and "'n'" in payload["diagnostics"][0]

    def test_cantor_non_numeric_mass(self, tmp_path, capsys):
        d1, d2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        d1.write_text("perm,mass\n1,abc\n")
        d2.write_text("perm,mass\n12,1/2\n21,1/2\n")
        code, err = run_error(capsys, "cantor", "build", "--dists", str(d1), str(d2), "--out", str(tmp_path / "c.json"))
        assert code == 1 and err["error"] == "FormatError" and "line 2" in err["detail"]

    def test_simulate_zero_samples(self, tmp_path, capsys):
        argv = ["simulate", "--map", "doubling", "--n", "3", "--samples", "0", "--seed", "1"]
        code, err = run_error(capsys, *argv, "--out", str(tmp_path / "s.csv"))
        assert code == 2 and err["error"] == "UsageError" and "--samples" in err["detail"]

    def test_census_length_one(self, tmp_path, capsys):
        code, err = run_error(capsys, "census", "--n", "1", "--out", str(tmp_path / "c.csv"))
        assert code == 2 and err["error"] == "UsageError" and "--n" in err["detail"]

    def test_realize_overflowing_tolerance(self, tmp_path, capsys):
        flow = tmp_path / "flow.json"
        flow.write_text(flow_to_json(PatternDistribution.uniform(3)))
        code, err = run_error(capsys, "realize", "--flow", str(flow), "--tol", "1e400", "--out", str(tmp_path / "m.json"))
        assert code == 2 and err["error"] == "UsageError" and "--tol" in err["detail"]

    @pytest.mark.parametrize("dims", ["abc", "1,x", "", "0,-1"])
    def test_census_bad_dimensions(self, dims, tmp_path, capsys):
        code, err = run_error(capsys, "census", "--n", "3", "--dimensions", dims, "--out", str(tmp_path / "c.csv"))
        assert code == 2 and err["error"] == "UsageError" and "--dimensions" in err["detail"]

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["entropy", "--map", "doubling", "--n-max", "0", "--out", "OUT"], "--n-max"),
            (["entropy", "--map", "doubling", "--n-max", "-3", "--out", "OUT"], "--n-max"),
            (["entropy", "--map", "doubling", "--n-max", "1", "--out", "OUT"], "--n-max"),
            (["exclusion", "--map", "doubling", "--n", "2", "--m-max", "0"], "--m-max"),
            (["exclusion", "--map", "doubling", "--n", "2", "--m-max", "2"], "--m-max"),
            (["exclusion", "--map", "doubling", "--n", "3", "--m-max", "2"], "--m-max"),
            (["cantor", "verify", "--uniform", "2", "--scale-depth", "0", "--seed", "1"], "--scale-depth"),
            (["cantor", "verify", "--uniform", "2", "--scale-depth", "-2", "--seed", "1"], "--scale-depth"),
            (["cantor", "build", "--uniform", "-1", "--out", "OUT"], "--uniform"),
        ],
    )
    def test_nonsense_integer_options(self, argv, option, tmp_path, capsys):
        argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
        code, err = run_error(capsys, *argv)
        assert code == 2 and err["error"] == "UsageError" and option in err["detail"]

    def test_exact_escaping_map(self, tmp_path, capsys):
        f = tmp_path / "map.json"
        pieces = [{"lo": "0", "hi": "1/2", "a": "3", "b": "0"}, {"lo": "1/2", "hi": "1", "a": "1", "b": "-1/2"}]
        f.write_text(json.dumps({"pieces": pieces}))
        code, err = run_error(capsys, "exact", "--map", str(f), "--n", "3", "--out", str(tmp_path / "x.csv"))
        assert code == 1 and err["error"] == "EscapesInterval" and "[0, 1)" in err["detail"]

    def test_irrational_flow_weight(self, tmp_path, capsys):
        flow = tmp_path / "flow.json"
        flow.write_text('{"n": 2, "weights": {"12": "2-1*sqrt2", "21": "-1+1*sqrt2"}}')
        code, err = run_error(capsys, "realize", "--flow", str(flow), "--out", str(tmp_path / "m.json"))
        assert code == 1 and err["error"] == "FormatError" and "irrational" in err["detail"]

    @pytest.mark.parametrize(
        "argv, option",
        [(["drift", "loop"], "--path"), (["drift", "subgraph"], "--edges"), (["drift", "synthesize"], "--edges")],
    )
    def test_drift_without_its_input(self, argv, option, capsys):
        code, err = run_error(capsys, *argv)
        assert code == 2 and err == {"error": "UsageError", "detail": f"orderflow: {option} is required for {' '.join(argv)}"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["poset", "--path", "DIR"],
            ["drift", "subgraph", "--edges", "DIR"],
            ["realize", "--flow", "DIR", "--out", "m.json"],
            ["validate", "--kind", "map", "DIR"],
            ["cantor", "build", "--dists", "DIR", "--out", "m.json"],
        ],
    )
    def test_directory_as_input_file(self, argv, tmp_path, capsys):
        argv = [str(tmp_path) if a == "DIR" else a for a in argv]
        code, err = run_error(capsys, *argv)
        assert code == 1 and err["error"] == "FileNotFound" and "Is a directory" in err["detail"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "--n", "3", "--out", "o.csv"],
            ["simulate", "--n", "3", "--seed", "1", "--out", "o.csv"],
            ["entropy", "--out", "o.txt"],
            ["forbidden", "--n", "3"],
            ["exclusion", "--n", "2", "--m-max", "3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_map_file(self, argv, tmp_path, monkeypatch, capsys):
        # A .json map spec is a file to read, present or not; it is never looked up as a builtin name.
        monkeypatch.chdir(tmp_path)
        code, err = run_error(capsys, *argv, "--map", "missing.json")
        detail = "[Errno 2] No such file or directory: 'missing.json'"
        assert code == 1 and err == {"error": "FileNotFound", "detail": detail}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["o.csv", "-"], ids=["artifact-to-file", "artifact-to-stdout"])
    def test_closed_stdout(self, out, tmp_path):
        # A reader that closes stdout early, as ``| head -c 300`` does, gets one JSON error line and exit 1.
        read, write = os.pipe()
        os.close(read)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "orderflow.cli", "exact", "--map", "doubling", "--n", "10", "--out", out],
                cwd=tmp_path, env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write)
        lines = proc.stderr.splitlines()
        assert proc.returncode == 1 and len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "BrokenPipe",
            "detail": "stdout was closed before all output was written: [Errno 32] Broken pipe",
        }
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

    def test_full_digraph_cap(self, tmp_path, capsys):
        code, err = run_error(capsys, "digraph", "--n", "8", "--out", str(tmp_path / "g.dot"))
        assert code == 1 and err == {"error": "CapExceeded", "detail": "full digraph reached n = 8, cap 7"}
        assert not (tmp_path / "g.dot").exists()

    def test_exclusion_level_cap(self, capsys, monkeypatch):
        # The count of S_m holds m (m - 1) states for doubling at n = 2: 90 at m = 10, 110 at m = 11.
        monkeypatch.setattr("orderflow.paths.LIFT_LEVEL_MAX", 100)
        code, err = run_error(capsys, "exclusion", "--map", "doubling", "--n", "2", "--m-max", "11")
        detail = "window count in S_11 reached 110 states, cap 100"
        assert code == 1 and err == {"error": "CapExceeded", "detail": detail}

    # Every orbit of a period-3 rotation repeats before length 4.
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "6", "--out", "OUT"],
            ["entropy", "--n-max", "6", "--mode", "empirical", "--out", "OUT"],
            ["forbidden", "--n", "6", "--mode", "empirical"],
            ["exclusion", "--n", "5", "--m-max", "6", "--mode", "empirical"],
        ],
    )
    def test_all_samples_discarded(self, argv, tmp_path, capsys):
        argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
        code, err = run_error(capsys, *argv, "--map", "rotation:1/3", "--samples", "100", "--seed", "1")
        assert code == 1 and err == {"error": "SamplesDiscarded", "detail": "all samples were discarded"}


class TestSqrt2Masses:
    """Masses in Q(sqrt2) are written as 'a+b*sqrt2' and read back exactly."""

    def test_exact_csv_validates_and_reads_back(self, tmp_path, capsys):
        out = tmp_path / "r2.csv"
        code, stdout, _ = run(capsys, "exact", "--map", "rotation:-1+1*sqrt2", "--n", "2", "--out", str(out))
        assert code == 0
        assert json.loads(stdout)["mass"] == {"12": "2-1*sqrt2", "21": "-1+1*sqrt2"}
        assert out.read_text() == "perm,mass\n12,2-1*sqrt2\n21,-1+1*sqrt2\n"
        code, stdout, _ = run(capsys, "validate", "--kind", "dist", str(out))
        assert code == 0 and json.loads(stdout) == {"command": "validate", "diagnostics": [], "kind": "dist", "ok": True}
        mu = distribution_from_csv(out.read_text())
        assert mu.exact and mu(perm("21")) == exact(-1, 1)

    def test_cantor_build_on_sqrt2_tower(self, tmp_path, capsys):
        files = []
        for n in (1, 2):
            files.append(str(tmp_path / f"d{n}.csv"))
            run(capsys, "exact", "--map", "rotation:-1+1*sqrt2", "--n", str(n), "--out", files[-1])
        code = main(["cantor", "build", "--dists", *files, "--out", str(tmp_path / "c.json")])
        out = capsys.readouterr()
        assert code in (0, 1)
        payload = json.loads(out.out if code == 0 else out.err)
        assert payload.get("command") == "cantor" or "error" in payload


@st.composite
def pattern_reports(draw):
    """A report of a drawn table on S_n, n in 1..11: Fraction, Q(sqrt2) or float masses, and the readout flags.

    Returns (report, command, as_float): an exact table as ``exact`` reads it out with or without
    ``--float``, a float one as ``simulate`` does.  Weights from 1 to 10^9 give float masses whose
    ``repr`` takes an exponent.
    """
    n = draw(st.integers(1, 11))
    words = draw(st.lists(st.permutations(range(1, n + 1)).map(tuple), min_size=1, max_size=24, unique=True))
    weights = draw(st.lists(st.integers(1, 10**9), min_size=len(words), max_size=len(words)))
    total = sum(weights)
    kind = draw(st.sampled_from(["fraction", "sqrt2", "float"]))
    if kind == "float":
        counts = {perm(w): c for w, c in zip(words, weights)}
        samples = total + draw(st.integers(0, 50))
        dist = PatternDistribution(n, {s: c / total for s, c in counts.items()})
        return PatternReport(dist, samples, counts), "simulate", True
    masses = [Fraction(w, total) for w in weights]
    if kind == "sqrt2" and len(masses) > 1:
        # Move eps * (sqrt2 - 1) of mass from the last pattern to the first; both stay positive.
        eps = min(masses) / 4
        masses[0] += exact(-eps, eps)
        masses[-1] -= exact(-eps, eps)
    dist = PatternDistribution(n, {perm(w): m for w, m in zip(words, masses)})
    return PatternReport(dist, None), "exact", draw(st.booleans())


class TestReadout:
    """``exact`` and ``simulate`` read a table out once; the two-pass readout of ``readout_oracle`` is the reference."""

    @settings(max_examples=200, deadline=None)
    @given(pattern_reports())
    def test_same_bytes_as_the_two_pass_readout(self, drawn):
        report, command, as_float = drawn
        text, payload = cli._readout(report, as_float)
        line = json.dumps({"command": command, **payload}, sort_keys=True)
        assert (text, line) == readout_oracle.readout(report, command, as_float)
        assert text == distribution_to_csv(report.distribution)

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.sampled_from(["doubling", "tent"]), st.integers(1, 7)),
            st.tuples(st.just("rotation:-1+1*sqrt2"), st.integers(1, 11)),
            st.tuples(st.just("rotation:3/10"), st.integers(1, 10)),
        ),
        st.booleans(),
    )
    def test_exact_command_output(self, tmp_path_factory, case, as_float):
        spec, n = case
        out = tmp_path_factory.mktemp("exact") / "out.csv"
        argv = ["exact", "--map", spec, "--n", str(n), "--out", str(out)] + ["--float"] * as_float
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
        report = analysis.exact_distribution(maps.parse_map_spec(spec), n)
        text, line = readout_oracle.readout(report, "exact", as_float)
        assert (out.read_text(), stdout.getvalue()) == (text, line + "\n")

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["doubling", "tent", "logistic", "rotation:3/10"]), st.integers(1, 11), st.integers(0, 99))
    def test_simulate_command_output(self, tmp_path_factory, spec, n, seed):
        out = tmp_path_factory.mktemp("simulate") / "out.csv"
        argv = ["simulate", "--map", spec, "--n", str(n), "--samples", "300", "--seed", str(seed), "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        if code == 1:  # every orbit of a periodic rotation repeats within its period
            assert json.loads(stderr.getvalue())["error"] == "SamplesDiscarded"
            return
        report = analysis.empirical_distribution(maps.parse_map_spec(spec), n, 300, seed)
        text, line = readout_oracle.readout(report, "simulate", True)
        assert (out.read_text(), stdout.getvalue()) == (text, line + "\n")

    def test_long_patterns_are_quoted_in_word_order(self, tmp_path, capsys):
        # Past length 9 a pattern is written with commas, so the CSV quotes it; rows follow the words, not the text.
        out = tmp_path / "r.csv"
        code, stdout, _ = run(capsys, "exact", "--map", "rotation:-1+1*sqrt2", "--n", "10", "--out", str(out))
        rows = out.read_text().splitlines()
        assert code == 0 and rows[0] == "perm,mass" and len(rows) == 11
        words = [tuple(map(int, row.split('"')[1].split(","))) for row in rows[1:]]
        assert words == sorted(words) and all(row.startswith('"') for row in rows[1:])
        assert list(json.loads(stdout)["mass"]) == sorted(",".join(map(str, w)) for w in words)


COMMANDS = [
    "digraph", "poset", "lifts", "drift", "census", "realize", "simulate",
    "exact", "entropy", "forbidden", "exclusion", "cantor", "validate",
]


def parse_outcome(parse, argv, capsys):
    """What ``parse(argv)`` returns or exits with, and what it prints."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    out = capsys.readouterr()
    return result, out.out, out.err


# Well-formed command lines of every subcommand, both nargs forms among them.
NAMESPACE_ARGV = [
    ["digraph"],
    ["digraph", "--n", "3", "--format", "json", "--out", "g.json"],
    ["poset", "--path", "p.json", "--query", "2", "7", "--oracle"],
    ["lifts", "--path", "p.json", "--mode", "count"],
    ["drift", "subgraph", "--edges", "s.json", "--out", "v.json"],
    ["drift", "loop", "--path", "p.json", "--method", "poset"],
    ["census", "--n", "4", "--dimensions", "0", "--out", "c.csv"],
    ["realize", "--flow", "f.json", "--out", "m.json"],
    ["realize", "--flow", "f.json", "--tol", "1/40", "--out", "m.json"],
    ["simulate", "--map", "doubling", "--n", "3", "--seed", "1", "--out", "d.csv"],
    ["exact", "--map", "rotation:3/10", "--n", "4", "--float", "--out", "d.csv"],
    ["entropy", "--map", "tent", "--n-max", "5", "--mode", "empirical", "--seed", "2", "--out", "e.txt"],
    ["forbidden", "--map", "doubling", "--n", "3"],
    ["exclusion", "--map", "doubling", "--n", "2", "--m-max", "4", "--samples", "10"],
    ["cantor", "verify", "--uniform", "3", "--scale-depth", "12", "--seed", "4"],
    ["cantor", "build", "--dists", "a.csv", "b.csv", "--out", "c.json"],
    ["validate", "--kind", "map", "m.json"],
]


class TestOneCommandParser:
    """``parse_args`` must behave as the full parser: the same namespaces, help texts and usage errors."""

    def test_top_level_help_lists_every_command(self, capsys):
        full = build_parser().format_help()
        for flag in ("-h", "--help"):
            with pytest.raises(SystemExit) as err:
                main([flag])
            assert err.value.code == 0
            assert capsys.readouterr().out == full
        assert all(name in full for name in COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_help_identical(self, command, capsys):
        argv = [command, "--help"]
        full = parse_outcome(build_parser().parse_args, argv, capsys)
        assert full[0] == ("exit", 0) and full[1].startswith(f"usage: orderflow {command} ")
        assert parse_outcome(cli.parse_args, argv, capsys) == full

    @pytest.mark.parametrize("argv", NAMESPACE_ARGV)
    def test_namespaces_equal(self, argv):
        assert vars(cli.parse_args(argv)) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv, detail",
        [
            ([], "orderflow: the following arguments are required: command"),
            (
                ["bogus"],
                "orderflow: argument command: invalid choice: 'bogus' (choose from 'digraph', 'poset', 'lifts', "
                "'drift', 'census', 'realize', 'simulate', 'exact', 'entropy', 'forbidden', 'exclusion', 'cantor', "
                "'validate')",
            ),
            (["--bogus"], "orderflow: the following arguments are required: command"),
            (["drift"], "orderflow drift: the following arguments are required: action"),
            (
                ["drift", "bogus"],
                "orderflow drift: argument action: invalid choice: 'bogus' (choose from 'loop', 'subgraph', "
                "'synthesize')",
            ),
            (["drift", "subgraph", "--bogus"], "orderflow: unrecognized arguments: --bogus"),
            (["drift", "subgraph", "extra", "--edges", "x"], "orderflow: unrecognized arguments: extra"),
            (["census"], "orderflow census: the following arguments are required: --n, --out"),
            (["census", "--n", "x"], "orderflow census: argument --n: invalid _positive_int value: 'x'"),
            (["census", "--n", "1", "--out", "x"], "orderflow: census needs --n at least 2, got 1"),
            (["cantor", "verify", "--uniform", "2"], "orderflow: --seed is required for cantor verify"),
            (["cantor", "build"], "orderflow: cantor needs --uniform N or --dists files"),
            (
                ["entropy", "--map", "doubling", "--mode", "empirical", "--out", "x"],
                "orderflow: --seed is required for empirical mode",
            ),
            (
                ["validate", "--kind", "bad", "f"],
                "orderflow validate: argument --kind: invalid choice: 'bad' (choose from 'flow', 'path', "
                "'subgraph', 'map', 'dist')",
            ),
            (["poset", "--path", "p", "--query", "1"], "orderflow poset: argument --query: expected 2 arguments"),
        ],
    )
    def test_usage_errors_unchanged(self, argv, detail, capsys):
        code, err = run_error(capsys, *argv)
        assert code == 2 and err == {"error": "UsageError", "detail": detail}

    def test_builds_the_full_parser_only_when_malformed(self, tmp_path, capsys, monkeypatch, driftless_triple):
        # A well-formed command builds no parser; a malformed one the full parser, with every subcommand.
        built = []
        init = argparse.ArgumentParser.__init__

        def recording(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            built.append(parser.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
        sub = tmp_path / "sub.json"
        sub.write_text(subgraph_to_json(driftless_triple))
        code, stdout, _ = run(capsys, "drift", "subgraph", "--edges", str(sub))
        assert code == 0 and json.loads(stdout)["verdict"] == "driftless"
        assert built == []

        everything = ["orderflow"] + [f"orderflow {name}" for name in COMMANDS]
        code, err = run_error(capsys, "drift", "subgraph", "--edges", str(sub), "--bogus")
        assert code == 2 and err["detail"] == "orderflow: unrecognized arguments: --bogus"
        assert built == everything

        built.clear()
        with pytest.raises(SystemExit):
            main(["--help"])
        assert built == everything


def _declared(name: str) -> tuple[dict, list]:
    """A subcommand's flags (flag -> keywords) and positionals (keywords, in order), as ``_COMMANDS`` declares them."""
    arguments = cli._COMMANDS[name][2].items()
    return {a: kw for a, kw in arguments if a.startswith("-")}, [kw for a, kw in arguments if not a.startswith("-")]


# A value that each type accepts, and values that one or another type, choice or flag reader refuses.
VALID = {cli._positive_int: "3", int: "7", cli._tolerance: "1/40", cli._dimensions: "0,2", None: "in.json"}
ODD = ["0", "-1", "-5", "x", "", "-", "1/0", "0,-1", "1e999", " 4", "--", "-h", "--n", "count"]


def _outcome(parse, argv):
    """What ``parse(argv)`` returns or exits with, and what it prints, without a pytest fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@st.composite
def command_lines(draw):
    """A subcommand's argv drawn from its declared flags: well formed, or bent in one of the ways argparse reads."""
    name = draw(st.sampled_from(COMMANDS))
    flags, positionals = _declared(name)

    def value(spec):
        good = [str(c) for c in spec.get("choices", ())] or [VALID[spec.get("type")]]
        return draw(st.sampled_from(ODD) if draw(st.integers(0, 5)) == 0 else st.sampled_from(good))

    tokens = []
    for spec in positionals:
        tokens.append([value(spec)])
    for flag, spec in flags.items():
        if spec.get("required") or draw(st.booleans()):
            if spec.get("action") == "store_true":
                tokens.append([flag])
            elif "nargs" in spec:
                count = spec["nargs"] if isinstance(spec["nargs"], int) else draw(st.integers(0, 2))
                tokens.append([flag, *(value(spec) for _ in range(count))])
            elif draw(st.integers(0, 9)) == 0:
                tokens.append([f"{flag}={value(spec)}"])
            else:
                tokens.append([flag, value(spec)])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        bent = draw(st.sampled_from(["repeat", "prefix", "unknown", "drop", "extra", "dashdash", "help"]))
        if bent == "repeat":
            flag = draw(st.sampled_from(list(flags)))
            tokens.append([flag] if flags[flag].get("action") else [flag, value(flags[flag])])
        elif bent == "prefix":
            flag = draw(st.sampled_from(list(flags)))
            tokens.append([flag[: draw(st.integers(1, len(flag) - 1))], "1"])
        elif bent == "unknown":
            tokens.append(["--bogus"])
        elif bent == "drop" and tokens:
            tokens.pop(draw(st.integers(0, len(tokens) - 1)))
        elif bent == "extra":
            tokens.append(["extra"])
        elif bent == "dashdash":
            tokens.append(["--"])
        elif bent == "help":
            tokens.append([draw(st.sampled_from(["-h", "--help"]))])
    order = draw(st.permutations(range(len(tokens))))
    return [name, *(token for k in order for token in tokens[k])]


def _no_parser(*args, **kwargs):
    raise AssertionError("an argparse parser was built")


SRC = Path(__file__).resolve().parent.parent / "src"
README_ARGV = [
    shlex.split(line)[1:]
    for line in (SRC.parent / "README.md").read_text().splitlines()
    if line.startswith("orderflow ")
]

# One small run of every subcommand; validate once per branch that loads a module.
COLD_RUNS = {
    "digraph": ["digraph", "--n", "2", "--out", "g.dot"],
    "poset": ["poset", "--path", "loop.json", "--query", "1", "2"],
    "lifts": ["lifts", "--path", "loop.json", "--mode", "count"],
    "drift": ["drift", "subgraph", "--edges", "sub.json"],
    "census": ["census", "--n", "2", "--out", "c.csv"],
    "realize": ["realize", "--flow", "flow.json", "--out", "m.json"],
    "simulate": ["simulate", "--map", "doubling", "--n", "3", "--samples", "1000", "--seed", "1", "--out", "s.csv"],
    "exact": ["exact", "--map", "doubling", "--n", "3", "--out", "d.csv"],
    "entropy": ["entropy", "--map", "tent", "--n-max", "3", "--out", "e.txt"],
    "forbidden": ["forbidden", "--map", "doubling", "--n", "3"],
    "exclusion": ["exclusion", "--map", "doubling", "--n", "2", "--m-max", "3"],
    "cantor": ["cantor", "verify", "--uniform", "2", "--scale-depth", "8", "--samples", "1000", "--seed", "1"],
    "validate-flow": ["validate", "--kind", "flow", "flow.json"],
    "validate-map": ["validate", "--kind", "map", "map.json"],
}


class TestArgvReader:
    """``parse_args`` reads well-formed argv without argparse; every argv parses as the full parser parses it."""

    @settings(max_examples=400, deadline=None)
    @given(command_lines())
    def test_same_as_the_full_parser(self, argv):
        assert _outcome(cli.parse_args, argv) == _outcome(build_parser().parse_args, argv)

    @pytest.mark.parametrize("name", COMMANDS)
    def test_required_arguments_alone_build_no_parser(self, name, monkeypatch):
        flags, positionals = _declared(name)
        argv = [name]
        for spec in positionals:
            argv.append(str(spec["choices"][0]) if "choices" in spec else VALID[None])
        for flag, spec in flags.items():
            if spec.get("required"):
                argv += [flag, str(spec["choices"][0]) if "choices" in spec else VALID[spec.get("type")]]
        expected = vars(build_parser().parse_args(argv))
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", _no_parser)
        assert vars(cli.parse_args(argv)) == expected

    @pytest.mark.parametrize("argv", README_ARGV + list(COLD_RUNS.values()) + NAMESPACE_ARGV)
    def test_documented_and_pinned_argv_build_no_parser(self, argv, monkeypatch):
        # Both nargs forms among them: poset --query I J, cantor build --dists FILES.
        expected = vars(build_parser().parse_args(argv))
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", _no_parser)
        assert vars(cli.parse_args(argv)) == expected

    def test_benchmark_jobs_build_no_parser(self, tmp_path, monkeypatch):
        # Read bench/gen.py as tests/test_tooling.py does; every job the two seed-777 plans run is well formed.
        monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
        gen = importlib.import_module("gen")
        jobs = [*gen.WARMUPS.values()]
        for workload, seconds in (("patterns", 3), ("flows", 0.5)):
            jobs += gen.plan(workload, 777, tmp_path / workload, seconds).jobs
        expected = [vars(build_parser().parse_args(job.argv(tmp_path))) for job in jobs]
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", _no_parser)
        assert [vars(cli.parse_args(job.argv(tmp_path))) for job in jobs] == expected


class TestColdStart:
    """Each subcommand in a fresh interpreter, which has loaded only what the CLI imports.

    In this process every module is loaded already, in the order the test
    modules import them, so a deferred import that fails or cycles when it
    runs first would pass every in-process test.
    """

    def test_every_command_runs(self):
        assert {argv[0] for argv in COLD_RUNS.values()} == set(COMMANDS)

    @pytest.mark.parametrize("name", COLD_RUNS)
    def test_one_json_line(self, name, tmp_path, loop_132_321_213, driftless_triple):
        (tmp_path / "loop.json").write_text(path_to_json(loop_132_321_213))
        (tmp_path / "sub.json").write_text(subgraph_to_json(driftless_triple))
        (tmp_path / "flow.json").write_text(flow_to_json(interior_flow(driftless_triple)))
        (tmp_path / "map.json").write_text(map_to_json(builtin("tent")))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "orderflow.cli", *COLD_RUNS[name]],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["command"] == COLD_RUNS[name][0]


# Random JSON: arbitrary values, and objects with the artifacts' keys whose
# values are short pattern words, exact-number text or arbitrary leaves.
json_leaves = (
    st.none() | st.booleans() | st.integers(-3, 20) | st.floats() | st.text(max_size=8)
    | st.sampled_from(["12", "21", "132", "1/2", "-1/3", "1/0", "1+1*sqrt2", "0", "1", "abc", ""])
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
field = json_leaves | json_values
artifacts = st.one_of(
    json_values,
    st.fixed_dictionaries({"n": field, "weights": st.dictionaries(st.text("123", max_size=4), field) | field}),
    st.fixed_dictionaries({"n": field, "edges": st.lists(json_leaves, max_size=4) | field}, optional={"start": field}),
    st.fixed_dictionaries(
        {"pieces": st.lists(st.fixed_dictionaries({k: json_leaves for k in "lo hi a b".split()}), max_size=3) | field},
        optional={"tail": st.fixed_dictionaries({"piece": field}) | field, "name": field},
    ),
).map(json.dumps)
csv_text = st.lists(
    st.tuples(st.text("0123456789", max_size=5), st.sampled_from(["1", "1/2", "0.5", "-1", "nan", "x", "1-1*sqrt2"])),
    max_size=4,
).map(lambda rows: "perm,mass\n" + "".join(f"{p},{m}\n" for p, m in rows))


def one_json_line(argv):
    """Run the CLI on argv; it must exit 0, 1 or 2 and print exactly one JSON line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    lines = (out.getvalue() + err.getvalue()).splitlines()
    assert len(lines) == 1
    return code, json.loads(lines[0])


class TestValidateFuzz:
    """validate prints one JSON line and exits 0, 1 or 2 on any file content."""

    @settings(max_examples=300)
    @given(
        kind=st.sampled_from(["flow", "path", "subgraph", "map", "dist"]),
        text=st.text(max_size=40) | artifacts | csv_text,
    )
    def test_one_json_line(self, tmp_path_factory, kind, text):
        f = tmp_path_factory.mktemp("fuzz") / "artifact"
        f.write_text(text)
        code, payload = one_json_line(["validate", "--kind", kind, str(f)])
        assert payload.get("command") == "validate" or "error" in payload


@st.composite
def isometry_json(draw):
    """A slope +-1 map as JSON, often with one piece field replaced or dropped."""
    payload = json.loads(map_to_json(draw(lattice_maps)))
    pieces = payload["pieces"]
    for _ in range(draw(st.integers(0, 2))):
        rec = pieces[draw(st.integers(0, len(pieces) - 1))]
        key = draw(st.sampled_from(["lo", "hi", "a", "b", "c"]))
        if draw(st.booleans()):
            rec.pop(key, None)
        else:
            rec[key] = draw(json_leaves | st.sampled_from(["-1", "1/3", "2", "1-1*sqrt2", "1/2+1/2*sqrt2"]))
    return json.dumps(payload)


class TestExactMapFuzz:
    """exact --map file.json prints one JSON line and exits 0, 1 or 2 on any slope +-1 map or broken piece."""

    @settings(max_examples=150, deadline=None)
    @given(text=isometry_json(), n=st.integers(1, 5))
    def test_one_json_line(self, tmp_path_factory, text, n):
        tmp = tmp_path_factory.mktemp("fuzz")
        f = tmp / "map.json"
        f.write_text(text)
        code, payload = one_json_line(["exact", "--map", str(f), "--n", str(n), "--out", str(tmp / "x.csv")])
        assert payload.get("command") == "exact" if code == 0 else "error" in payload


def _put(f: Path, content: str | bytes) -> None:
    """Write text as UTF-8, or raw bytes as they are."""
    if isinstance(content, bytes):
        f.write_bytes(content)
    else:
        f.write_text(content, encoding="utf-8")


# Raw bytes, most of them not UTF-8.
raw_bytes = st.binary(max_size=40) | st.just(b'\xff\xfe{"n": 3}')
# JSON nested past the parser's recursion limit, alone or as a value inside an artifact's object.
deep_json = st.builds(
    lambda depth, opener, prefix: prefix + opener * depth,
    st.integers(1_000, 5_000),
    st.sampled_from(["[", '{"a": ']),
    st.sampled_from(["", '{"n": 3, "weights": ', '{"n": ']),
)


class TestLoaderFuzz:
    """Each command that loads a flow, a subgraph or distribution CSVs prints one JSON line on any file content.

    The content includes bytes that are not UTF-8 and JSON nested past the parser's recursion limit.
    """

    @settings(max_examples=150, deadline=None)
    @given(text=st.text(max_size=40) | artifacts | raw_bytes | deep_json)
    def test_realize_flow(self, tmp_path_factory, text):
        tmp = tmp_path_factory.mktemp("fuzz")
        _put(tmp / "flow.json", text)
        code, payload = one_json_line(["realize", "--flow", str(tmp / "flow.json"), "--out", str(tmp / "m.json")])
        assert payload.get("command") == "realize" if code == 0 else "error" in payload

    @settings(max_examples=150, deadline=None)
    @given(text=st.text(max_size=40) | artifacts | raw_bytes | deep_json)
    def test_drift_subgraph_edges(self, tmp_path_factory, text):
        f = tmp_path_factory.mktemp("fuzz") / "sub.json"
        _put(f, text)
        code, payload = one_json_line(["drift", "subgraph", "--edges", str(f)])
        assert payload.get("command") == "drift" if code == 0 else "error" in payload

    @settings(max_examples=150, deadline=None)
    @given(texts=st.lists(st.text(max_size=40) | csv_text | raw_bytes, min_size=1, max_size=3))
    def test_cantor_verify_dists(self, tmp_path_factory, texts):
        tmp = tmp_path_factory.mktemp("fuzz")
        files = []
        for k, text in enumerate(texts):
            files.append(str(tmp / f"d{k}.csv"))
            _put(Path(files[-1]), text)
        argv = ["cantor", "verify", "--dists", *files, "--scale-depth", "4", "--samples", "200", "--seed", "1"]
        code, payload = one_json_line(argv)
        assert payload.get("command") == "cantor" if code == 0 else "error" in payload


@st.composite
def path_json(draw):
    """A path of G_1..G_3 with 1 to 5 edges as JSON, with up to two fields replaced or edges dropped."""
    n = draw(st.integers(1, 3))
    payload = json.loads(path_to_json(random_path(draw(st.randoms(use_true_random=False)), n, draw(st.integers(1, 5)))))
    edges = payload["edges"]
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(["n", "edges", "start", "edge", "drop"]))
        if key in ("edge", "drop"):
            k = draw(st.integers(0, len(edges) - 1)) if edges else None
            if k is not None and key == "drop":
                edges.pop(k)
            elif k is not None:
                edges[k] = draw(json_leaves)
        else:
            payload[key] = draw(field)
    return json.dumps(payload)


path_texts = st.text(max_size=40) | artifacts | path_json()
index_flags = st.integers(-3, 12).map(str) | st.sampled_from(["x", "1.5", "", "-0", "99999999999999999999999"])


class TestPathFuzz:
    """Each command that reads a path prints one JSON line, whatever the file and the numeric flags."""

    @settings(max_examples=150, deadline=None)
    @given(text=path_texts, mode=st.sampled_from(["count", "enumerate"]))
    def test_lifts(self, tmp_path_factory, text, mode):
        tmp = tmp_path_factory.mktemp("fuzz")
        (tmp / "path.json").write_text(text)
        code, payload = one_json_line(["lifts", "--path", str(tmp / "path.json"), "--mode", mode, "--out", str(tmp / "l.json")])
        assert payload.get("command") == "lifts" if code == 0 else "error" in payload

    @settings(max_examples=150, deadline=None)
    @given(text=path_texts, query=st.none() | st.tuples(index_flags, index_flags), oracle=st.booleans())
    def test_poset(self, tmp_path_factory, text, query, oracle):
        f = tmp_path_factory.mktemp("fuzz") / "path.json"
        f.write_text(text)
        argv = ["poset", "--path", str(f), *(["--query", *query] if query else []), *(["--oracle"] if oracle else [])]
        code, payload = one_json_line(argv)
        assert payload.get("command") == "poset" if code == 0 else "error" in payload

    @settings(max_examples=150, deadline=None)
    @given(text=path_texts, method=st.sampled_from(["profile", "poset"]))
    def test_drift_loop(self, tmp_path_factory, text, method):
        f = tmp_path_factory.mktemp("fuzz") / "path.json"
        f.write_text(text)
        code, payload = one_json_line(["drift", "loop", "--path", str(f), "--method", method])
        assert payload.get("command") == "drift" if code == 0 else "error" in payload



small_flags = st.integers(-2, 6).map(str) | st.sampled_from(["x", "", "1.5", "-0", "99999999999999999999999"])
map_specs = st.sampled_from(
    ["doubling", "tent", "logistic", "rotation:3/10", "rotation:1/3", "rotation:-1+1*sqrt2", "rotation:2", "bogus"]
)
modes = st.sampled_from(["exact", "empirical"])
sample_flags = st.sampled_from(["1", "7", "40", "0", "-3", "x", "99999999999999999999999"])
tolerances = st.sampled_from(["0", "-1", "1/0", "x", "1e400", "1/40", "2", "0.5", "1e-9", "inf", "nan"])


class TestCommandFuzz:
    """The remaining subcommands print one JSON line and exit 0, 1 or 2, whatever their files and numeric flags."""

    @settings(max_examples=60, deadline=None)
    @given(text=st.text(max_size=40) | artifacts, fmt=st.sampled_from(["dot", "json"]))
    def test_digraph_edges(self, tmp_path_factory, text, fmt):
        tmp = tmp_path_factory.mktemp("fuzz")
        (tmp / "sub.json").write_text(text)
        argv = ["digraph", "--edges", str(tmp / "sub.json"), "--format", fmt, "--out", str(tmp / "g")]
        code, payload = one_json_line(argv)
        assert payload.get("command") == "digraph" if code == 0 else "error" in payload

    @settings(max_examples=40, deadline=None)
    @given(tol=tolerances)
    def test_realize_tol(self, tmp_path_factory, driftless_triple, tol):
        tmp = tmp_path_factory.mktemp("fuzz")
        (tmp / "flow.json").write_text(flow_to_json(interior_flow(driftless_triple)))
        code, payload = one_json_line(["realize", "--flow", str(tmp / "flow.json"), "--tol", tol, "--out", str(tmp / "m")])
        assert payload.get("command") == "realize" if code == 0 else "error" in payload

    @settings(max_examples=80, deadline=None)
    @given(spec=map_specs, n=small_flags, samples=sample_flags, seed=small_flags)
    def test_simulate(self, tmp_path_factory, spec, n, samples, seed):
        out = tmp_path_factory.mktemp("fuzz") / "s.csv"
        argv = ["simulate", "--map", spec, "--n", n, "--samples", samples, "--seed", seed, "--out", str(out)]
        code, payload = one_json_line(argv)
        assert payload.get("command") == "simulate" if code == 0 else "error" in payload

    @settings(max_examples=80, deadline=None)
    @given(spec=map_specs, n=small_flags, mode=modes, samples=sample_flags, seed=st.none() | small_flags)
    def test_entropy(self, tmp_path_factory, spec, n, mode, samples, seed):
        out = tmp_path_factory.mktemp("fuzz") / "e.txt"
        argv = ["entropy", "--map", spec, "--n-max", n, "--mode", mode, "--samples", samples, "--out", str(out)]
        code, payload = one_json_line(argv + (["--seed", seed] if seed is not None else []))
        assert payload.get("command") == "entropy" if code == 0 else "error" in payload

    @settings(max_examples=80, deadline=None)
    @given(spec=map_specs, n=small_flags, mode=modes, samples=sample_flags, seed=st.none() | small_flags)
    def test_forbidden(self, spec, n, mode, samples, seed):
        argv = ["forbidden", "--map", spec, "--n", n, "--mode", mode, "--samples", samples]
        code, payload = one_json_line(argv + (["--seed", seed] if seed is not None else []))
        assert payload.get("command") == "forbidden" if code == 0 else "error" in payload

    @settings(max_examples=80, deadline=None)
    @given(spec=map_specs, n=small_flags, m=small_flags, mode=modes, samples=sample_flags)
    def test_exclusion(self, spec, n, m, mode, samples):
        argv = ["exclusion", "--map", spec, "--n", n, "--m-max", m, "--mode", mode, "--samples", samples, "--seed", "1"]
        code, payload = one_json_line(argv)
        assert payload.get("command") == "exclusion" if code == 0 else "error" in payload

    @settings(max_examples=60, deadline=None)
    @given(
        uniform=st.none() | st.integers(-1, 4).map(str) | st.just("99999999999999999999999"),
        depth=small_flags | st.just("24"),
        texts=st.lists(st.text(max_size=40) | csv_text, max_size=3),
    )
    def test_cantor_build(self, tmp_path_factory, uniform, depth, texts):
        tmp = tmp_path_factory.mktemp("fuzz")
        files = []
        for k, text in enumerate(texts):
            files.append(str(tmp / f"d{k}.csv"))
            Path(files[-1]).write_text(text)
        argv = ["cantor", "build", "--scale-depth", depth, "--out", str(tmp / "c.json")]
        argv += ["--uniform", uniform] if uniform is not None else ["--dists", *files]
        code, payload = one_json_line(argv)
        assert payload.get("command") == "cantor" if code == 0 else "error" in payload


HUGE = "1000000000"


class TestResourceRefusals:
    """Inputs past a route's work cap are refused with one CapExceeded line, in a process of bounded memory.

    Each runs in a fresh interpreter limited to 1 GiB of address space and
    30 s; the detail names the quantity, the value reached and the cap.
    """

    REFUSALS = {
        "exact-deep": (["exact", "--map", "rotation:-1+1*sqrt2", "--n", "2000", "--out", "x.csv"],
                       r"exact subdivision reached \d+ entries at iterate 1999, cap 3000000"),
        "exact-huge-n": (["exact", "--map", "rotation:-1+1*sqrt2", "--n", "1000000", "--out", "x.csv"],
                         r"exact subdivision of length 1000000 needs at least 500000500000 entries, cap 3000000"),
        "exact-wide": (["exact", "--map", "doubling", "--n", "100", "--out", "x.csv"],
                       r"exact subdivision reached \d+ entries at iterate 99, cap 3000000"),
        "simulate-huge-samples": (
            ["simulate", "--map", "doubling", "--n", "5", "--samples", HUGE, "--seed", "1", "--out", "x.csv"],
            r"sampling needs 5000000000 orbit values \(1000000000 samples, lengths 5 to 5\), cap 6000000"),
        "simulate-huge-n": (["simulate", "--map", "logistic", "--n", HUGE, "--seed", "1", "--out", "x.csv"],
                            r"sampling needs \d+ orbit values \(100000 samples, lengths 1000000000 to 1000000000\), "
                            r"cap 6000000"),
        "entropy-huge-n-max": (["entropy", "--map", "doubling", "--n-max", HUGE, "--out", "e.txt"],
                               r"exact subdivision of length 1000000000 needs at least \d+ entries, cap 3000000"),
        "entropy-sampled-huge-n-max": (
            ["entropy", "--map", "logistic", "--n-max", HUGE, "--mode", "empirical", "--seed", "1", "--out", "e.txt"],
            r"sampling needs \d+ orbit values \(100000 samples, lengths 2 to 1000000000\), cap 6000000"),
        "forbidden-past-s12": (["forbidden", "--map", "doubling", "--n", "13"], r"S_13 enumeration exceeds cap 12"),
        "forbidden-past-lift-level": (["forbidden", "--map", "doubling", "--n", "10"],
                                      r"forbidden-pattern scan of S_10 needs 3628800 patterns, cap 362880"),
        "forbidden-sampled-past-lift-level": (
            ["forbidden", "--map", "doubling", "--n", "10", "--mode", "empirical", "--seed", "1"],
            r"forbidden-pattern scan of S_10 needs 3628800 patterns, cap 362880"),
        "exclusion-huge-m-max": (["exclusion", "--map", "doubling", "--n", "2", "--m-max", HUGE],
                                 r"exact subdivision of length 1000000000 needs at least \d+ entries, cap 3000000"),
        "exclusion-sampled-huge": (
            ["exclusion", "--map", "tent", "--n", "2", "--m-max", HUGE, "--mode", "empirical", "--samples", HUGE,
             "--seed", "1"],
            r"sampling needs \d+ orbit values \(1000000000 samples, lengths 3 to 1000000000\), cap 6000000"),
        "cantor-huge-uniform": (["cantor", "build", "--uniform", HUGE, "--out", "c.json"],
                                r"separator tree reached depth 1000000000, cap 6"),
        "digraph-huge-n": (["digraph", "--n", HUGE], r"full digraph reached n = 1000000000, cap 7"),
        # A zig-zag path pins one lift of ~1000 values; each branching edge after it then allows
        # hundreds of ranks for the new value, so the next step's whole patterns pass the cap at once.
        "lifts-long-then-branching": (["lifts", "--path", "long.json"],
                                      r"lift level in S_1005 reached \d+ ranks \(\d+ patterns\), cap 725760"),
        "poset-oracle-then-branching": (["poset", "--path", "mid.json", "--query", "1", "2", "--oracle"],
                                        r"lift level in S_126 reached \d+ ranks \(\d+ patterns\), cap 725760"),
        # The window count keeps few states after the zig-zag, but each allows hundreds of ranks:
        # its work passes the bound on transitions while its states stay under theirs.
        "lifts-count-long-then-branching": (["lifts", "--path", "long.json", "--mode", "count"],
                                            r"window count in S_1006 reached \d+ states, cap 362880"),
        "lifts-count-then-branching": (["lifts", "--path", "wide.json", "--mode", "count"],
                                       r"window count in S_606 reached \d+ transitions \(states x allowed ranks\), "
                                       r"cap 3628800"),
    }

    # zig-zag (132, 312)^k 132, then (321, 213, 132)^3
    PATHS = {"long.json": 500, "wide.json": 300, "mid.json": 60}

    @pytest.mark.parametrize("case", REFUSALS)
    def test_refused_within_bounds(self, case, tmp_path):
        argv, detail = self.REFUSALS[case]
        for name, k in self.PATHS.items():
            (tmp_path / name).write_text(path_to_json(path(2, ["132", "312"] * k + ["132"] + ["321", "213", "132"] * 3)))
        limit = 1 << 30
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "orderflow.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=30, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 1 and proc.stdout == "", proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "CapExceeded" and re.fullmatch(detail, err["detail"])

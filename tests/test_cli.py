import json

import pytest

from orderflow.cli import main
from orderflow.digraph import subgraph_from_json, subgraph_to_json
from orderflow.flows import flow_to_json, interior_flow
from orderflow.maps import map_from_json
from orderflow.paths import path, path_to_json
from orderflow.exactnum import exact
from orderflow.perms import PatternDistribution, distribution_from_csv, perm


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
        assert f.measure_preserving

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

    def test_entropy_and_forbidden_and_exclusion(self, tmp_path, capsys):
        out = tmp_path / "e.txt"
        code, stdout, _ = run(capsys, "entropy", "--map", "rotation:3/10", "--n-max", "4", "--out", str(out))
        assert code == 0 and "patterns" in out.read_text()

        code, stdout, _ = run(capsys, "forbidden", "--map", "rotation:3/10", "--n", "3")
        assert json.loads(stdout)["forbidden"] == ["132", "213", "321"]

        code, stdout, _ = run(capsys, "exclusion", "--map", "doubling", "--n", "2", "--m-max", "4")
        rows = json.loads(stdout)["rows"]
        assert rows[0]["equal"] and not rows[1]["equal"]


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

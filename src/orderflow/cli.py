"""Command-line surface.

One subcommand per workflow; every run prints a single machine-readable JSON
line to stdout and writes any artifacts to the requested paths.  Numeric
output is exact rational strings unless ``--float`` is given.  Exit codes:
0 ok, 1 domain error, 2 usage error; an error prints one JSON line
``{"error": ..., "detail": ...}`` to stderr instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis, cantor, digraph, drift, flows, maps, paths, perms
from .errors import FormatError, OrderflowError
from .exactnum import exact_str


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _error(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as the one-line JSON error, exit code 2."""

    def error(self, message):
        _error("UsageError", f"{self.prog}: {message}")
        raise SystemExit(2)


# argparse reports a ValueError raised by these as an invalid value (exit 2).
def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _tolerance(text: str) -> float:
    """A positive decimal or 'p/q' tolerance."""
    try:
        value = float(Fraction(text))
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _load_map(spec: str) -> maps.IntervalMap:
    p = Path(spec)
    if p.suffix == ".json" and p.exists():
        return maps.map_from_json(p.read_text())
    return maps.parse_map_spec(spec)


def _load_path(file: str) -> paths.DiPath:
    return paths.path_from_json(Path(file).read_text())


def _load_subgraph(file: str) -> digraph.Subgraph:
    return digraph.subgraph_from_json(Path(file).read_text())


def _dist_payload(report: analysis.PatternReport, as_float: bool) -> dict:
    dist = report.distribution
    if as_float or not dist.exact:
        masses = {str(s): float(m) for s, m in sorted(dist.mass.items())}
    else:
        masses = {str(s): exact_str(m) for s, m in sorted(dist.mass.items())}
    out = {"n": report.n, "mass": masses, "discards": report.discards}
    out["samples"] = "exact" if report.exact else report.samples
    return out


def cmd_digraph(args) -> dict:
    H = _load_subgraph(args.edges) if args.edges else digraph.build(args.n).full_subgraph()
    if args.format == "dot":
        _write(args.out, digraph.export_dot(H))
    else:
        _write(args.out, digraph.subgraph_to_json(H) + "\n")
    return {
        "command": "digraph",
        "n": H.n,
        "vertices": len(H.vertices()),
        "edges": len(H.edges),
        "face_subgraph": digraph.is_face_subgraph(H),
    }


def cmd_poset(args) -> dict:
    p = _load_path(args.path)
    P = paths.build_poset(p)
    if args.out:
        _write(args.out, paths.poset_to_json(P) + "\n")
    result = {"command": "poset", "m": P.m, "covers": len(P.covers())}
    if args.query:
        i, j = args.query
        result["query"] = {"i": i, "j": j, "relation": paths.comparability(p, i, j, oracle=args.oracle)}
    return result


def cmd_lifts(args) -> dict:
    p = _load_path(args.path)
    m = args.m if args.m is not None else p.length + p.n
    if args.mode == "count":
        count = paths.linear_extensions(paths.build_poset(p), "count")
        return {"command": "lifts", "m": m, "count": count}
    found = paths.lifts(p, m)
    if args.out:
        payload = json.dumps({"m": m, "lifts": [str(s) for s in sorted(found)]}, sort_keys=True)
        _write(args.out, payload + "\n")
    return {"command": "lifts", "m": m, "count": len(found)}


def cmd_drift(args) -> dict:
    if args.action == "loop":
        gamma = _load_path(args.path)
        mat = drift.loop_drift(gamma, method=args.method)
        return {
            "command": "drift",
            "action": "loop",
            "classification": drift.classify_loop(gamma),
            "diagonal": list(mat.diagonal()),
            "matrix": [list(row) for row in mat.entries],
        }
    H = _load_subgraph(args.edges)
    if args.action == "subgraph":
        verdict = drift.subgraph_drifts(H)
        if args.out:
            _write(args.out, drift.verdict_to_json(verdict) + "\n")
        return {"command": "drift", "action": "subgraph", **drift.verdict_payload(verdict)}
    gamma = drift.synthesize_totally_driftless_loop(H)
    if args.out:
        _write(args.out, paths.path_to_json(gamma) + "\n")
    return {
        "command": "drift",
        "action": "synthesize",
        "length": gamma.length,
        "classification": drift.classify_loop(gamma),
    }


def cmd_census(args) -> dict:
    dims = [int(d) for d in args.dimensions.split(",")] if args.dimensions else None
    rows = flows.census(args.n, dimensions=dims, samples=args.samples, seed=args.seed)
    _write(args.out, flows.census_to_csv(rows))
    return {
        "command": "census",
        "n": args.n,
        "rows": [[r.dimension, r.total, r.realizable] for r in rows],
    }


def cmd_realize(args) -> dict:
    mu = flows.flow_from_json(Path(args.flow).read_text())
    f = maps.realize_flow(mu, args.tol)
    _write(args.out, maps.map_to_json(f) + "\n")
    return {"command": "realize", "n": mu.n, "pieces": len(f.pieces), "tol": args.tol}


def cmd_simulate(args) -> dict:
    f = _load_map(args.map)
    report = analysis.empirical_distribution(f, args.n, args.samples, args.seed)
    _write(args.out, perms.distribution_to_csv(report.distribution))
    return {"command": "simulate", **_dist_payload(report, as_float=True)}


def cmd_exact(args) -> dict:
    f = _load_map(args.map)
    report = analysis.exact_distribution(f, args.n)
    _write(args.out, perms.distribution_to_csv(report.distribution))
    return {"command": "exact", **_dist_payload(report, args.float)}


def cmd_entropy(args) -> dict:
    f = _load_map(args.map)
    rows = analysis.entropy_estimate(
        f, args.n_max, mode=args.mode, samples=args.samples, seed=args.seed or 0
    )
    lines = [f"{'n':>3} {'patterns':>10} {'estimate':>12}"]
    lines += [f"{n:>3} {count:>10} {est:>12.6f}" for n, count, est in rows]
    _write(args.out, "\n".join(lines) + "\n")
    return {"command": "entropy", "rows": [[n, c, e] for n, c, e in rows]}


def cmd_forbidden(args) -> dict:
    f = _load_map(args.map)
    forbidden, basic = analysis.forbidden_patterns(
        f, args.n, mode=args.mode, samples=args.samples, seed=args.seed or 0
    )
    payload = {
        "n": args.n,
        "forbidden": sorted(str(s) for s in forbidden),
        "basic": sorted(str(s) for s in basic),
    }
    if args.out:
        _write(args.out, json.dumps(payload, sort_keys=True) + "\n")
    return {"command": "forbidden", **payload}


def cmd_exclusion(args) -> dict:
    f = _load_map(args.map)
    rows = analysis.exclusion_type_test(
        f, args.n, args.m_max, mode=args.mode, samples=args.samples, seed=args.seed or 0
    )
    return {
        "command": "exclusion",
        "n": args.n,
        "note": "verdicts are partial: exclusion type quantifies over all m",
        "rows": [
            {"m": r.m, "equal": r.equal, "missing": len(r.missing), "extra": len(r.extra)}
            for r in rows
        ],
    }


def _load_tower(args) -> list[perms.PatternDistribution]:
    if args.uniform:
        return cantor.uniform_tower(args.uniform)
    return [perms.distribution_from_csv(Path(f).read_text()) for f in args.dists]


def cmd_cantor(args) -> dict:
    tower = _load_tower(args)
    tree = cantor.build_interval_tree(tower)
    sep = cantor.build_separator_tree(tree.depth)
    f = cantor.assemble_truncated_map(tree, sep, args.scale_depth)
    if args.action == "build":
        _write(args.out, maps.map_to_json(f) + "\n")
        return {"command": "cantor", "action": "build", "depth": tree.depth, "pieces": len(f.pieces)}
    report = cantor.verify_construction(f, tower, args.samples, args.seed, args.scale_depth)
    return {
        "command": "cantor",
        "action": "verify",
        "passed": report.passed,
        "excluded": report.excluded,
        "rows": [
            {"n": r.n, "deviation": r.deviation, "bound": r.bound, "passed": r.passed}
            for r in report.rows
        ],
    }


def cmd_validate(args) -> dict:
    text = Path(args.file).read_text()
    diagnostics: list[str] = []
    try:
        if args.kind == "flow":
            mu = flows.flow_from_json(text)
            residual = flows.flow_residual(mu)
            if residual != 0:
                for e in sorted(mu.mass):
                    diagnostics.append(f"edge {e}: weight {mu.mass[e]}")
                diagnostics.insert(0, f"conservation residual {residual}")
        elif args.kind == "path":
            paths.path_from_json(text)
        elif args.kind == "subgraph":
            digraph.subgraph_from_json(text)
        elif args.kind == "map":
            maps.map_from_json(text)
        elif args.kind == "dist":
            perms.distribution_from_csv(text)
    except (FormatError, OrderflowError, ValueError) as exc:
        diagnostics.append(str(exc))
    return {"command": "validate", "kind": args.kind, "ok": not diagnostics, "diagnostics": diagnostics}


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="orderflow",
        description="Order patterns of interval maps: digraphs, drift, flow polytopes, realization.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("digraph", help="build or export a permutation digraph / subgraph")
    p.add_argument("--n", type=_positive_int, default=2, help="ambient level (vertices are length-n patterns)")
    p.add_argument("--edges", help="subgraph JSON file; omit for the full digraph")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_digraph)

    p = sub.add_parser("poset", help="build the poset of a path; optionally query one pair")
    p.add_argument("--path", required=True, help="path JSON file")
    p.add_argument("--query", nargs=2, type=int, metavar=("I", "J"))
    p.add_argument("--oracle", action="store_true", help="cross-check the query by lift enumeration")
    p.add_argument("--out", help="write covering pairs JSON here")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("lifts", help="enumerate or count the permutations projecting onto a path")
    p.add_argument("--path", required=True)
    p.add_argument("--mode", choices=["enumerate", "count"], default="enumerate")
    p.add_argument("--m", type=int, help="target length (default: full collapse)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lifts)

    p = sub.add_parser("drift", help="classify a loop, decide a subgraph, or synthesize a loop")
    p.add_argument("action", choices=["loop", "subgraph", "synthesize"])
    p.add_argument("--path", help="loop JSON (action=loop)")
    p.add_argument("--edges", help="subgraph JSON (action=subgraph|synthesize)")
    p.add_argument("--method", choices=["profile", "poset"], default="profile")
    p.add_argument("--out")
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("census", help="face census of the flow polytope")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--dimensions", help="comma-separated dimensions to restrict to (n=4)")
    p.add_argument("--samples", type=_positive_int, help="random subsets for the sampled n=4 census")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="census CSV path")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("realize", help="measure-preserving map realizing a flow within tolerance")
    p.add_argument("--flow", required=True, help="flow JSON file")
    p.add_argument("--tol", type=_tolerance, default="0.05")
    p.add_argument("--out", required=True, help="map JSON path")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("simulate", help="empirical pattern distribution of a map")
    p.add_argument("--map", required=True, help="builtin name, 'rotation:3/10', or map JSON file")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="distribution CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("exact", help="exact pattern distribution of a piecewise-affine map")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--float", action="store_true", help="emit decimal masses instead of rationals")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("entropy", help="realized-pattern counts and normalized log-counts")
    p.add_argument("--map", required=True)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--mode", choices=["exact", "empirical"], default="exact")
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, help="required for empirical mode")
    p.add_argument("--out", required=True, help="plain-text table path")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("forbidden", help="forbidden patterns and the basic subset")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--mode", choices=["exact", "empirical"], default="exact")
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_forbidden)

    p = sub.add_parser("exclusion", help="compare realized patterns against level-n path lifts")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "empirical"], default="exact")
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_exclusion)

    p = sub.add_parser("cantor", help="build or verify a finite-depth arbitrary-tower map")
    p.add_argument("action", choices=["build", "verify"])
    p.add_argument("--uniform", type=int, help="uniform tower of this depth")
    p.add_argument("--dists", nargs="*", default=[], help="distribution CSVs for lengths 1..N")
    p.add_argument("--scale-depth", type=int, default=16)
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, help="required for verify")
    p.add_argument("--out", help="map JSON path (action=build)")
    p.set_defaults(func=cmd_cantor)

    p = sub.add_parser("validate", help="schema-check a serialized artifact")
    p.add_argument("--kind", choices=["flow", "path", "subgraph", "map", "dist"], required=True)
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "cantor" and args.action == "verify" and args.seed is None:
        parser.error("--seed is required for cantor verify")
    if getattr(args, "mode", "exact") == "empirical" and args.seed is None:
        parser.error("--seed is required for empirical mode")
    if args.command == "cantor" and not args.uniform and not args.dists:
        parser.error("cantor needs --uniform N or --dists files")
    if args.command == "census" and args.n < 2:
        parser.error(f"census needs --n at least 2, got {args.n}")
    try:
        payload = args.func(args)
    except OrderflowError as exc:
        _error(type(exc).__name__, str(exc))
        return 1
    except FileNotFoundError as exc:
        _error("FileNotFound", str(exc))
        return 1
    _emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

One subcommand per workflow; every run prints a single machine-readable JSON
line to stdout and writes any artifacts to the requested paths.  Numeric
output is exact rational strings unless ``--float`` is given.  Exit codes:
0 ok, 1 domain error, 2 usage error; an error prints one JSON line
``{"error": ..., "detail": ...}`` to stderr instead.

Each subcommand's arguments are declared once, in ``_COMMANDS``, as a
function that calls ``add_argument`` on whatever it is given.  ``main``
reads its arguments through ``parse_args``, which has two paths:

- A well-formed command line for a named subcommand is read by ``_read``,
  straight from that subcommand's declarations, which it records afresh on
  each call: every token is a declared flag or a value for it or a declared
  positional, each flag at most once and with no ``nargs``, no value starts
  with ``-``, every type and choice check passes and every required argument
  is there.  It builds no parser and returns an ``_Args``, equal to the
  ``argparse.Namespace`` argparse would return.
- Anything else goes to argparse, unchanged: a named subcommand is parsed by
  its own parser alone, help, no command or an unknown one by the full
  parser of ``build_parser``.  Either way the namespace, the help text and
  every usage error are the full parser's.

``argparse`` (with ``gettext``, which it loads) is imported only on the
second path and in the type functions' error branches, so a well-formed
command never loads it.

Importing this module loads ``perms`` and ``drift``, which hold the
package's process-wide ``functools`` caches, and what they import
(``digraph``, ``paths``, ``caps``, ``errors``, ``exactnum``).  ``digraph``
holds none, since each subgraph ranks its own vertices there; it loads
because ``drift`` and the subgraph commands need it.  The handlers import
``flows``, ``maps``, ``analysis`` and ``cantor`` when they run.  An
in-process caller (a benchmark, a notebook) clears those caches right after
importing the CLI, so that each call costs what a fresh process pays; a
cache holder loaded later would keep its cache from call to call.

No layer imports ``dataclasses`` (which loads ``inspect``, ``ast`` and
``dis``) or compiles methods through ``exec``: the value classes are plain
classes on ``perms._Record``.  Without a bytecode cache of the package,
importing the CLI and running ``census --n 2`` takes about 39 ms in a fresh
interpreter (54 ms with dataclasses), and the whole process about 87 ms
(103 ms); medians of 21 interleaved runs, 2-vCPU VM, Python 3.11.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn

# The cache holders and digraph load with the CLI, the other layers in their
# handlers (see the module docstring).
from . import digraph, drift, paths, perms
from .errors import FormatError, OrderflowError
from .exactnum import exact_str

if TYPE_CHECKING:
    import argparse

    from .analysis import PatternReport
    from .maps import IntervalMap


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _error(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


def _usage_error(message: str, prog: str = "orderflow") -> NoReturn:
    """Report a usage error as the one-line JSON error and exit with code 2."""
    _error("UsageError", f"{prog}: {message}")
    raise SystemExit(2)


def _parser(**kwargs) -> argparse.ArgumentParser:
    """An argparse parser that reports usage errors as the one-line JSON error, exit code 2.

    Its subparsers are of its class too.  argparse loads here, when a help
    text or a usage error needs it.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            _usage_error(message, self.prog)

    return Parser(allow_abbrev=False, **kwargs)


def _type_error(message: str) -> Exception:
    """The error a type function raises for argparse to report as ``message`` (exit 2)."""
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


# argparse reports a ValueError raised by these as an invalid value (exit 2).
def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise _type_error(f"must be a positive integer, got {value}")
    return value


def _tolerance(text: str) -> float:
    """A positive decimal or 'p/q' tolerance."""
    try:
        value = float(Fraction(text))
    except ZeroDivisionError:
        raise _type_error(f"zero denominator in {text}") from None
    except OverflowError:
        raise _type_error(f"out of float range: {text}") from None
    if not value > 0:
        raise _type_error(f"must be positive, got {text}")
    return value


def _dimensions(text: str) -> list[int]:
    """Comma-separated non-negative integers."""
    dims = [int(d) for d in text.split(",")]
    if min(dims) < 0:
        raise _type_error(f"dimensions must be non-negative, got {text}")
    return dims


def _load_map(spec: str) -> IntervalMap:
    from . import maps

    p = Path(spec)
    if p.suffix == ".json" and p.exists():
        return maps.map_from_json(p.read_text())
    return maps.parse_map_spec(spec)


def _load_path(file: str) -> paths.DiPath:
    return paths.path_from_json(Path(file).read_text())


def _load_subgraph(file: str) -> digraph.Subgraph:
    return digraph.subgraph_from_json(Path(file).read_text())


def _dist_payload(report: PatternReport, as_float: bool) -> dict:
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
    m = p.length + p.n
    if args.mode == "count":
        return {"command": "lifts", "m": m, "count": paths.lift_count(p)}
    found = paths.lifts(p)
    if args.out:
        payload = json.dumps({"m": m, "lifts": [str(s) for s in found]}, sort_keys=True)
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
    gamma = drift.synthesize_totally_driftless_loop(H)  # raises unless the loop is totally driftless
    if args.out:
        _write(args.out, paths.path_to_json(gamma) + "\n")
    return {
        "command": "drift",
        "action": "synthesize",
        "length": gamma.length,
        "classification": drift.TOTALLY_DRIFTLESS,
    }


def cmd_census(args) -> dict:
    from . import flows

    rows = flows.census(args.n, dimensions=args.dimensions)
    _write(args.out, flows.census_to_csv(rows))
    return {
        "command": "census",
        "n": args.n,
        "rows": [[r.dimension, r.total, r.realizable] for r in rows],
    }


def cmd_realize(args) -> dict:
    from . import flows, maps

    mu = flows.flow_from_json(Path(args.flow).read_text())
    f = maps.realize_flow(mu, args.tol)
    _write(args.out, maps.map_to_json(f) + "\n")
    return {"command": "realize", "n": mu.n, "pieces": len(f.frame[1]), "tol": args.tol}


def cmd_simulate(args) -> dict:
    from . import analysis

    f = _load_map(args.map)
    report = analysis.empirical_distribution(f, args.n, args.samples, args.seed)
    _write(args.out, perms.distribution_to_csv(report.distribution))
    return {"command": "simulate", **_dist_payload(report, as_float=True)}


def cmd_exact(args) -> dict:
    from . import analysis

    f = _load_map(args.map)
    report = analysis.exact_distribution(f, args.n)
    _write(args.out, perms.distribution_to_csv(report.distribution))
    return {"command": "exact", **_dist_payload(report, args.float)}


def cmd_entropy(args) -> dict:
    from . import analysis

    f = _load_map(args.map)
    rows = analysis.entropy_estimate(
        f, args.n_max, mode=args.mode, samples=args.samples, seed=args.seed or 0
    )
    lines = [f"{'n':>3} {'patterns':>10} {'estimate':>12}"]
    lines += [f"{n:>3} {count:>10} {est:>12.6f}" for n, count, est in rows]
    _write(args.out, "\n".join(lines) + "\n")
    return {"command": "entropy", "rows": [[n, c, e] for n, c, e in rows]}


def cmd_forbidden(args) -> dict:
    from . import analysis

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
    from . import analysis

    f = _load_map(args.map)
    rows = analysis.exclusion_type_test(
        f, args.n, args.m_max, mode=args.mode, samples=args.samples, seed=args.seed or 0
    )
    return {
        "command": "exclusion",
        "n": args.n,
        "note": "verdicts are partial: exclusion type quantifies over all m",
        "rows": [{"m": r.m, "equal": r.equal, "missing": r.missing, "extra": r.extra} for r in rows],
    }


def _load_tower(args) -> list[perms.PatternDistribution]:
    from . import cantor

    if args.uniform:
        return cantor.uniform_tower(args.uniform)
    return [perms.distribution_from_csv(Path(f).read_text()) for f in args.dists]


def cmd_cantor(args) -> dict:
    from . import cantor, maps

    tower = _load_tower(args)
    tree = cantor.build_interval_tree(tower)
    f = cantor.assemble_truncated_map(tree, args.scale_depth)
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
            from . import flows

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
            from . import maps

            diagnostics += maps.escaping_pieces(maps.map_from_json(text))
        elif args.kind == "dist":
            perms.distribution_from_csv(text)
    except (FormatError, OrderflowError, ValueError) as exc:
        diagnostics.append(str(exc))
    return {"command": "validate", "kind": args.kind, "ok": not diagnostics, "diagnostics": diagnostics}


def _digraph_args(p):
    p.add_argument("--n", type=_positive_int, default=2, help="ambient level (vertices are length-n patterns)")
    p.add_argument("--edges", help="subgraph JSON file; omit for the full digraph")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out", help="output file (default stdout)")


def _poset_args(p):
    p.add_argument("--path", required=True, help="path JSON file")
    p.add_argument("--query", nargs=2, type=int, metavar=("I", "J"))
    p.add_argument("--oracle", action="store_true", help="cross-check the query by lift enumeration")
    p.add_argument("--out", help="write covering pairs JSON here")


def _lifts_args(p):
    p.add_argument("--path", required=True)
    p.add_argument("--mode", choices=["enumerate", "count"], default="enumerate")
    p.add_argument("--out")


def _drift_args(p):
    p.add_argument("action", choices=["loop", "subgraph", "synthesize"])
    p.add_argument("--path", help="loop JSON (action=loop)")
    p.add_argument("--edges", help="subgraph JSON (action=subgraph|synthesize)")
    p.add_argument("--method", choices=["profile", "poset"], default="profile")
    p.add_argument("--out")


def _census_args(p):
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--dimensions", type=_dimensions, help="comma-separated dimensions to restrict to")
    p.add_argument("--out", required=True, help="census CSV path")


def _realize_args(p):
    p.add_argument("--flow", required=True, help="flow JSON file")
    p.add_argument("--tol", type=_tolerance, default="0.05")
    p.add_argument("--out", required=True, help="map JSON path")


def _simulate_args(p):
    p.add_argument("--map", required=True, help="builtin name, 'rotation:3/10', or map JSON file")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="distribution CSV path")


def _exact_args(p):
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--float", action="store_true", help="emit decimal masses instead of rationals")
    p.add_argument("--out", required=True)


def _entropy_args(p):
    p.add_argument("--map", required=True)
    p.add_argument("--n-max", type=_positive_int, default=8)
    p.add_argument("--mode", choices=["exact", "empirical"], default="exact")
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, help="required for empirical mode")
    p.add_argument("--out", required=True, help="plain-text table path")


def _forbidden_args(p):
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--mode", choices=["exact", "empirical"], default="exact")
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")


def _exclusion_args(p):
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m-max", type=_positive_int, required=True)
    p.add_argument("--mode", choices=["exact", "empirical"], default="exact")
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int)


def _cantor_args(p):
    p.add_argument("action", choices=["build", "verify"])
    p.add_argument("--uniform", type=_positive_int, help="uniform tower of this depth")
    p.add_argument("--dists", nargs="*", default=[], help="distribution CSVs for lengths 1..N")
    p.add_argument("--scale-depth", type=_positive_int, default=16)
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, help="required for verify")
    p.add_argument("--out", help="map JSON path (action=build)")


def _validate_args(p):
    p.add_argument("--kind", choices=["flow", "path", "subgraph", "map", "dist"], required=True)
    p.add_argument("file")


# Every subcommand once: name -> (help line, handler, argument declarations),
# in the order the top-level help lists them.
_COMMANDS = {
    "digraph": ("build or export a permutation digraph / subgraph", cmd_digraph, _digraph_args),
    "poset": ("build the poset of a path; optionally query one pair", cmd_poset, _poset_args),
    "lifts": ("enumerate or count the permutations projecting onto a path", cmd_lifts, _lifts_args),
    "drift": ("classify a loop, decide a subgraph, or synthesize a loop", cmd_drift, _drift_args),
    "census": ("face census of the flow polytope", cmd_census, _census_args),
    "realize": ("measure-preserving map realizing a flow within tolerance", cmd_realize, _realize_args),
    "simulate": ("empirical pattern distribution of a map", cmd_simulate, _simulate_args),
    "exact": ("exact pattern distribution of a piecewise-affine map", cmd_exact, _exact_args),
    "entropy": ("realized-pattern counts and normalized log-counts", cmd_entropy, _entropy_args),
    "forbidden": ("forbidden patterns and the basic subset", cmd_forbidden, _forbidden_args),
    "exclusion": ("compare realized patterns against level-n path lifts", cmd_exclusion, _exclusion_args),
    "cantor": ("build or verify a finite-depth arbitrary-tower map", cmd_cantor, _cantor_args),
    "validate": ("schema-check a serialized artifact", cmd_validate, _validate_args),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser with every subcommand."""
    # allow_abbrev=False: a flag prefix such as --m must not silently mean --mode.
    top = _parser(
        prog="orderflow",
        description="Order patterns of interval maps: digraphs, drift, flow polytopes, realization.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (summary, handler, declare) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        declare(p)
        p.set_defaults(func=handler)
    return top


class _Args(SimpleNamespace):
    """The arguments ``_read`` found; equal to the ``argparse.Namespace`` of the same attributes."""

    def __eq__(self, other):
        argparse = sys.modules.get("argparse")  # an argparse.Namespace exists only once argparse has loaded
        if isinstance(other, SimpleNamespace) or (argparse and isinstance(other, argparse.Namespace)):
            return vars(self) == vars(other)
        return NotImplemented


class _Declared:
    """The arguments one ``_<name>_args`` declares, recorded as plain specs: flag -> spec, and positionals in order."""

    def __init__(self):
        self.flags: dict[str, dict] = {}
        self.positionals: list[dict] = []

    def add_argument(self, name: str, **spec) -> None:
        if name.startswith("-"):
            self.flags[name] = {"dest": name.lstrip("-").replace("-", "_"), **spec}
        else:
            self.positionals.append({"dest": name, "required": True, **spec})


def _read(name: str, argv: list[str]) -> _Args | None:
    """The arguments of a well-formed ``argv`` for subcommand ``name``, or None to leave it to argparse.

    Reads the subset argparse reads the same way (see the module docstring)
    and converts defaults as argparse does: a string default through its
    flag's type, ``store_true`` to False, anything else as declared.
    """
    _, handler, declare = _COMMANDS[name]
    declared = _Declared()
    declare(declared)
    found = {}
    positionals = iter(declared.positionals)
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("-"):
            spec = declared.flags.get(token)
            if spec is None or spec["dest"] in found or "nargs" in spec:
                return None
            if spec.get("action") == "store_true":
                found[spec["dest"]] = True
                continue
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
        else:
            spec, value = next(positionals, None), token
            if spec is None:
                return None
        try:
            value = spec["type"](value) if "type" in spec else value
        except Exception:  # argparse reports it, or raises what the type function raised
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        found[spec["dest"]] = value
    for spec in [*declared.flags.values(), *declared.positionals]:
        if spec["dest"] in found:
            continue
        if spec.get("required"):
            return None
        default = spec.get("default", False if spec.get("action") == "store_true" else None)
        if isinstance(default, str) and "type" in spec:
            try:
                default = spec["type"](default)
            except Exception:
                return None
        found[spec["dest"]] = default
    return _Args(**found, command=name, func=handler)


def parse_args(argv: list[str]) -> argparse.Namespace | _Args:
    """What ``build_parser().parse_args(argv)`` returns, or the same usage error.

    A well-formed command line for a named subcommand is read by ``_read``
    without argparse.  Otherwise a named subcommand is parsed by its own
    parser alone, which is the parser the full one hands its arguments to;
    what that parser leaves over is reported under the top-level prog, as
    the full parser reports it.  Anything else (help, no command, a typo)
    gets the full parser, whose help and errors list every subcommand.
    """
    if not argv or argv[0] not in _COMMANDS:
        return build_parser().parse_args(argv)
    name = argv[0]
    args = _read(name, argv[1:])
    if args is not None:
        return args
    _, handler, declare = _COMMANDS[name]
    p = _parser(prog=f"orderflow {name}")
    declare(p)
    p.set_defaults(command=name, func=handler)
    args, rest = p.parse_known_args(argv[1:])
    if rest:
        _usage_error(f"unrecognized arguments: {' '.join(rest)}")
    return args


def main(argv=None) -> int:
    # A loaded job takes 1-3 ms, of which building even one subcommand's
    # argparse parser took about 0.25 ms, so a well-formed command line is
    # read without one (see the module docstring).
    args = parse_args(list(sys.argv[1:] if argv is None else argv))
    if args.command == "cantor" and args.action == "verify" and args.seed is None:
        _usage_error("--seed is required for cantor verify")
    if getattr(args, "mode", "exact") == "empirical" and args.seed is None:
        _usage_error("--seed is required for empirical mode")
    if args.command == "cantor" and not args.uniform and not args.dists:
        _usage_error("cantor needs --uniform N or --dists files")
    if args.command == "drift" and args.action == "loop" and not args.path:
        _usage_error("--path is required for drift loop")
    if args.command == "drift" and args.action != "loop" and not args.edges:
        _usage_error(f"--edges is required for drift {args.action}")
    if args.command == "census" and args.n < 2:
        _usage_error(f"census needs --n at least 2, got {args.n}")
    if args.command == "entropy" and args.n_max < 2:
        _usage_error(f"entropy needs --n-max at least 2, got {args.n_max}")
    if args.command == "exclusion" and args.m_max <= args.n:
        _usage_error(f"exclusion needs --m-max greater than --n, got {args.m_max} <= {args.n}")
    try:
        payload = args.func(args)
    except OrderflowError as exc:
        _error(type(exc).__name__, str(exc))
        return 1
    except OSError as exc:  # a missing file, a directory, no permission
        _error("FileNotFound", str(exc))
        return 1
    _emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())

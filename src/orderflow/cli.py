"""Command-line surface.

One subcommand per workflow; every run prints a single machine-readable JSON
line to stdout and writes any artifacts to the requested paths.  Numeric
output is exact rational strings unless ``--float`` is given.  Exit codes:
0 ok, 1 domain error, 2 usage error; an error prints one JSON line
``{"error": ..., "detail": ...}`` to stderr instead.

Each subcommand's arguments are declared once, as data: ``_COMMANDS`` maps
each argument to its ``add_argument`` keywords.  ``parse_args`` reads a
command line on one of two paths, both from that table:

- ``_read`` reads a well-formed command line for a named subcommand: every
  token is a declared flag, one of its values or a declared positional,
  each flag at most once, no value starts with ``-``, every type and choice
  check passes and every required argument is there.  It builds no parser
  and returns a ``SimpleNamespace`` with the attributes of the namespace
  argparse would return.
- Anything else (help, no command or an unknown one, a usage error) goes to
  the full parser of ``build_parser``, so help texts and usage errors are
  argparse's.

``argparse`` (with ``gettext``, which it loads) is imported only in
``build_parser`` and in the type functions' error branches, so a
well-formed command never loads it.

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

if TYPE_CHECKING:
    import argparse

    from .analysis import PatternReport
    from .maps import IntervalMap


def _input_text(file: str) -> str:
    """The text of an input file, decoded as UTF-8; any other bytes are a FormatError naming the file."""
    try:
        return Path(file).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"input file {file} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _emit(payload: dict) -> None:
    # Flushed here, so that a stdout closed by its reader fails inside ``main``, not at exit.
    print(json.dumps(payload, sort_keys=True), flush=True)


def _error(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


def _usage_error(message: str, prog: str = "orderflow") -> NoReturn:
    """Report a usage error as the one-line JSON error and exit with code 2."""
    _error("UsageError", f"{prog}: {message}")
    raise SystemExit(2)


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

    if Path(spec).suffix == ".json":
        return maps.map_from_json(_input_text(spec))
    return maps.parse_map_spec(spec)


def _load_path(file: str) -> paths.DiPath:
    return paths.path_from_json(_input_text(file))


def _load_subgraph(file: str) -> digraph.Subgraph:
    return digraph.subgraph_from_json(_input_text(file))


def _readout(report: PatternReport, as_float: bool) -> tuple[str, dict]:
    """A report's distribution CSV and JSON payload, both from one list of rows in pattern-word order.

    The JSON ``mass`` object holds each row's mass text, or the mass as a
    float when ``as_float`` or the table is a float one.  It needs no order
    of its own: ``_emit`` sorts keys.
    """
    dist = report.distribution
    rows = perms.distribution_rows(dist)
    if not dist.exact:  # a float's repr reads back as the same float
        mass = {p: float(t) for p, t in rows}
    elif as_float:
        mass = {str(s): float(m) for s, m in dist.mass.items()}
    else:
        mass = dict(rows)
    payload = {
        "n": report.n,
        "mass": mass,
        "discards": report.discards,
        "samples": "exact" if report.exact else report.samples,
    }
    return perms.rows_to_csv(rows), payload


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

    mu = flows.flow_from_json(_input_text(args.flow))
    f = maps.realize_flow(mu, args.tol)
    _write(args.out, maps.map_to_json(f) + "\n")
    return {"command": "realize", "n": mu.n, "pieces": len(f.frame[1]), "tol": args.tol}


def cmd_simulate(args) -> dict:
    from . import analysis

    f = _load_map(args.map)
    report = analysis.empirical_distribution(f, args.n, args.samples, args.seed)
    text, payload = _readout(report, as_float=True)
    _write(args.out, text)
    return {"command": "simulate", **payload}


def cmd_exact(args) -> dict:
    from . import analysis

    f = _load_map(args.map)
    report = analysis.exact_distribution(f, args.n)
    text, payload = _readout(report, args.float)
    _write(args.out, text)
    return {"command": "exact", **payload}


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
    return [perms.distribution_from_csv(_input_text(f)) for f in args.dists]


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
    text = _input_text(args.file)
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


# Every subcommand once: name -> (help line, handler, {argument: its
# ``add_argument`` keywords}), in the order the top-level help lists them.
# ``build_parser`` and ``_read`` both read this table.
_COMMANDS = {
    "digraph": ("build or export a permutation digraph / subgraph", cmd_digraph, {
        "--n": {"type": _positive_int, "default": 2, "help": "ambient level (vertices are length-n patterns)"},
        "--edges": {"help": "subgraph JSON file; omit for the full digraph"},
        "--format": {"choices": ["dot", "json"], "default": "dot"},
        "--out": {"help": "output file (default stdout)"},
    }),
    "poset": ("build the poset of a path; optionally query one pair", cmd_poset, {
        "--path": {"required": True, "help": "path JSON file"},
        "--query": {"nargs": 2, "type": int, "metavar": ("I", "J")},
        "--oracle": {"action": "store_true", "help": "cross-check the query by lift enumeration"},
        "--out": {"help": "write covering pairs JSON here"},
    }),
    "lifts": ("enumerate or count the permutations projecting onto a path", cmd_lifts, {
        "--path": {"required": True},
        "--mode": {"choices": ["enumerate", "count"], "default": "enumerate"},
        "--out": {},
    }),
    "drift": ("classify a loop, decide a subgraph, or synthesize a loop", cmd_drift, {
        "action": {"choices": ["loop", "subgraph", "synthesize"]},
        "--path": {"help": "loop JSON (action=loop)"},
        "--edges": {"help": "subgraph JSON (action=subgraph|synthesize)"},
        "--method": {"choices": ["profile", "poset"], "default": "profile"},
        "--out": {},
    }),
    "census": ("face census of the flow polytope", cmd_census, {
        "--n": {"type": _positive_int, "required": True},
        "--dimensions": {"type": _dimensions, "help": "comma-separated dimensions to restrict to"},
        "--out": {"required": True, "help": "census CSV path"},
    }),
    "realize": ("measure-preserving map realizing a flow within tolerance", cmd_realize, {
        "--flow": {"required": True, "help": "flow JSON file"},
        "--tol": {"type": _tolerance, "default": 0.05},
        "--out": {"required": True, "help": "map JSON path"},
    }),
    "simulate": ("empirical pattern distribution of a map", cmd_simulate, {
        "--map": {"required": True, "help": "builtin name, 'rotation:3/10', or map JSON file"},
        "--n": {"type": _positive_int, "required": True},
        "--samples": {"type": _positive_int, "default": 100_000},
        "--seed": {"type": int, "required": True},
        "--out": {"required": True, "help": "distribution CSV path"},
    }),
    "exact": ("exact pattern distribution of a piecewise-affine map", cmd_exact, {
        "--map": {"required": True},
        "--n": {"type": _positive_int, "required": True},
        "--float": {"action": "store_true", "help": "emit decimal masses instead of rationals"},
        "--out": {"required": True},
    }),
    "entropy": ("realized-pattern counts and normalized log-counts", cmd_entropy, {
        "--map": {"required": True},
        "--n-max": {"type": _positive_int, "default": 8},
        "--mode": {"choices": ["exact", "empirical"], "default": "exact"},
        "--samples": {"type": _positive_int, "default": 100_000},
        "--seed": {"type": int, "help": "required for empirical mode"},
        "--out": {"required": True, "help": "plain-text table path"},
    }),
    "forbidden": ("forbidden patterns and the basic subset", cmd_forbidden, {
        "--map": {"required": True},
        "--n": {"type": _positive_int, "required": True},
        "--mode": {"choices": ["exact", "empirical"], "default": "exact"},
        "--samples": {"type": _positive_int, "default": 100_000},
        "--seed": {"type": int},
        "--out": {},
    }),
    "exclusion": ("compare realized patterns against level-n path lifts", cmd_exclusion, {
        "--map": {"required": True},
        "--n": {"type": _positive_int, "required": True},
        "--m-max": {"type": _positive_int, "required": True},
        "--mode": {"choices": ["exact", "empirical"], "default": "exact"},
        "--samples": {"type": _positive_int, "default": 100_000},
        "--seed": {"type": int},
    }),
    "cantor": ("build or verify a finite-depth arbitrary-tower map", cmd_cantor, {
        "action": {"choices": ["build", "verify"]},
        "--uniform": {"type": _positive_int, "help": "uniform tower of this depth"},
        "--dists": {"nargs": "*", "default": [], "help": "distribution CSVs for lengths 1..N"},
        "--scale-depth": {"type": _positive_int, "default": 16},
        "--samples": {"type": _positive_int, "default": 100_000},
        "--seed": {"type": int, "help": "required for verify"},
        "--out": {"help": "map JSON path (action=build)"},
    }),
    "validate": ("schema-check a serialized artifact", cmd_validate, {
        "--kind": {"choices": ["flow", "path", "subgraph", "map", "dist"], "required": True},
        "file": {},
    }),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser with every subcommand, the only argparse parser the CLI builds.

    Its usage errors are the one-line JSON error, exit code 2; argparse
    loads here, when a help text or a usage error needs it.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            _usage_error(message, self.prog)

    # allow_abbrev=False: a flag prefix such as --m must not silently mean --mode.
    top = Parser(
        prog="orderflow",
        description="Order patterns of interval maps: digraphs, drift, flow polytopes, realization.",
        allow_abbrev=False,
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (summary, handler, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for argument, keywords in arguments.items():
            p.add_argument(argument, **keywords)
        p.set_defaults(func=handler)
    return top


def _reading(name: str, handler, arguments: dict) -> tuple:
    """What ``_read`` needs of one subcommand, worked out once.

    Each argument as (dest, store_true, nargs, type, choices): the flags by
    flag, the positionals in order.  Then the namespace of a command line
    that gives no optional argument, ``command`` and ``func`` included, and
    the dests a command line must give.
    """
    flags, positionals, defaults, required = {}, [], {"command": name, "func": handler}, set()
    for argument, kw in arguments.items():
        dest = argument.lstrip("-").replace("-", "_")
        store_true = kw.get("action") == "store_true"
        spec = dest, store_true, kw.get("nargs"), kw.get("type", str), kw.get("choices")
        if argument.startswith("-"):
            flags[argument] = spec
        else:
            positionals.append(spec)
        if kw.get("required") or not argument.startswith("-"):
            required.add(dest)
        else:
            defaults[dest] = kw.get("default", False if store_true else None)
    return flags, positionals, defaults, required


_READING = {name: _reading(name, handler, arguments) for name, (_, handler, arguments) in _COMMANDS.items()}


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a well-formed ``argv`` for a named subcommand, or None to leave it to argparse.

    Reads the subset argparse reads the same way (see the module docstring).
    """
    reading = _READING.get(argv[0]) if argv else None
    if reading is None:
        return None
    flags, positionals, defaults, required = reading
    found = {}
    positional = iter(positionals)
    i, end = 1, len(argv)
    while i < end:
        token = argv[i]
        i += 1
        flag = token.startswith("-")
        spec = flags.get(token) if flag else next(positional, None)
        if spec is None or spec[0] in found:
            return None
        dest, store_true, nargs, convert, choices = spec
        if store_true:
            found[dest] = True
            continue
        texts = [token]
        if flag:
            start = i
            if nargs == "*":
                while i < end and not argv[i].startswith("-"):
                    i += 1
            else:
                i += nargs or 1
            if i > end:
                return None
            texts = argv[start:i]
        values = []
        for text in texts:
            if text.startswith("-"):
                return None
            try:
                value = convert(text)
            except Exception:  # argparse reports it, or raises what the type function raised
                return None
            if choices is not None and value not in choices:
                return None
            values.append(value)
        found[dest] = values if nargs is not None else values[0]
    if not required <= found.keys():
        return None
    return SimpleNamespace(**{**defaults, **found})


def parse_args(argv: list[str]) -> argparse.Namespace | SimpleNamespace:
    """What ``build_parser().parse_args(argv)`` returns, or the same usage error.

    ``_read`` reads a well-formed command line, the full parser anything else.
    """
    return _read(argv) or build_parser().parse_args(argv)


def main(argv=None) -> int:
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
        _emit(args.func(args))
    except OrderflowError as exc:
        _error(type(exc).__name__, str(exc))
        return 1
    except BrokenPipeError as exc:  # stdout closed by its reader (``| head``)
        _error("BrokenPipe", f"stdout was closed before all output was written: {exc}")
        _drop_stdout()
        return 1
    except OSError as exc:  # a missing file, a directory, no permission
        _error("FileNotFound", str(exc))
        return 1
    return 0


def _drop_stdout() -> None:
    """Close a stdout whose reader has gone, dropping the output it still buffers, so that exit does not flush it again.

    An in-process caller's stdout without a file descriptor (a ``StringIO``) is left alone.
    """
    try:
        sys.stdout.fileno()
    except (AttributeError, ValueError):  # io.UnsupportedOperation is a ValueError
        return
    try:
        sys.stdout.close()
    except BrokenPipeError:  # the close flushes first; the stream is closed all the same
        pass


if __name__ == "__main__":
    sys.exit(main())

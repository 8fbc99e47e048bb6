"""Checks on the package source itself and on the commands its README shows."""

import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from orderflow.cli import _COMMANDS, build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "orderflow"
BENCH = ROOT / "bench"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
README_COMMANDS = [line for line in (ROOT / "README.md").read_text().splitlines() if line.startswith("orderflow ")]
# Modules the CLI loads only inside the command that needs them; argparse only for help and usage errors.
DEFERRED = {"orderflow.flows", "orderflow.maps", "orderflow.analysis", "orderflow.cantor", "hashlib", "argparse"}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / module).read_text(), module)


def _raises_assertion_error(node: ast.AST) -> bool:
    exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements(module):
    # python -O strips assert statements, so a guard written as one vanishes.
    # A hand-raised AssertionError escapes the CLI's OrderflowError handler
    # as a traceback instead of the one-line JSON error.
    lines = [
        node.lineno
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert lines == [], f"{module} asserts at lines {lines}; raise an explicit error instead"


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_stdlib(module):
    # pyproject.toml declares dependencies = []: the package imports itself
    # (relatively) and the standard library, nothing else.
    foreign = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == [], f"{module} imports {foreign}, which are neither relative nor in the standard library"


@pytest.mark.parametrize("module", MODULES)
def test_no_dataclasses(module):
    # dataclasses loads inspect, ast and dis, and compiles each class's methods
    # through exec at import, about a third of a small command's cold start.
    # The value classes are plain classes on perms._Record instead.
    imports = [
        node.lineno
        for node in ast.walk(_tree(module))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert imports == [], f"{module} imports dataclasses at lines {imports}"


def _enclosing(tree: ast.Module, lineno: int) -> str:
    scopes = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.lineno <= lineno <= node.end_lineno
    ]
    return ".".join(scopes) or "<module>"


def _imported(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The modules an import statement loads, package modules named as ``orderflow.<name>``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        return [node.module]
    names = [node.module] if node.module else [alias.name for alias in node.names]
    return [f"orderflow.{name}" for name in names]


@pytest.mark.parametrize("module", MODULES)
def test_imports_inside_functions_only_defer_layers(module):
    # An import inside a function is there to defer a layer the CLI loads on
    # demand; any other import belongs at the top of its module.
    tree = _tree(module)
    inner = {
        f"{_enclosing(tree, node.lineno)} imports {name}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _imported(node)
        if name not in DEFERRED
    }
    assert inner == set(), f"{module}: {sorted(inner)}; move these imports to module top"


def test_files_are_read_only_by_the_input_helper():
    # Every input file is decoded by cli._input_text, which turns bytes that
    # are not UTF-8 into a FormatError; cli._write writes the artifacts.
    reads = []
    for module in MODULES:
        tree = _tree(module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("open", "read_text", "read_bytes"):
                    reads.append((module, _enclosing(tree, node.lineno)))
    assert [r for r in reads if r != ("cli.py", "_write")] == [("cli.py", "_input_text")]


def test_json_is_parsed_only_by_the_loader():
    # perms.load_json turns every way JSON text can fail to parse (malformed,
    # nested past the recursion limit, an integer past the digit limit) into
    # a FormatError, so every JSON reader must parse through it.
    parses = []
    for module in MODULES:
        tree = _tree(module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("loads", "load", "JSONDecoder", "raw_decode"):
                    parses.append((module, _enclosing(tree, node.lineno)))
    assert parses == [("perms.py", "load_json")]


def test_permutations_only_in_all_perms():
    # A scan of all of S_m goes through perms.all_perms, which checks the
    # pattern-length cap; lifts grow window by window, and exclusion preimages are counted.
    uses = []
    for module in MODULES:
        tree = _tree(module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "permutations":
                named = isinstance(node.value, ast.Name) and node.value.id == "itertools"
            elif isinstance(node, ast.ImportFrom) and node.module == "itertools":
                named = any(alias.name == "permutations" for alias in node.names)
            else:
                continue
            if named:
                uses.append((module, _enclosing(tree, node.lineno)))
    assert uses == [("perms.py", "all_perms")]


def test_perm_cap_read_only_in_all_perms():
    # Only listing S_n is bounded by the pattern length; every other route is
    # bounded by its own work (cell entries, states, orbit values).
    reads = []
    for module in MODULES:
        tree = _tree(module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "PERM_CAP" and isinstance(node.ctx, ast.Load):
                reads.append((module, _enclosing(tree, node.lineno)))
            elif isinstance(node, ast.Attribute) and node.attr == "PERM_CAP":
                reads.append((module, _enclosing(tree, node.lineno)))
    assert sorted(set(reads)) == [("perms.py", "all_perms")]


def test_caps_are_constants():
    # caps.py imports nothing, so no cap is read from the environment; it holds
    # its docstring and one constant per assignment.  Nothing in src/ reads the
    # environment either.
    tree = _tree("caps.py")
    assert all(isinstance(node, (ast.Expr, ast.Assign)) for node in tree.body)
    assert all(isinstance(node.value, ast.Constant) for node in tree.body)
    for module in MODULES:
        for node in ast.walk(_tree(module)):
            named = {node.id} if isinstance(node, ast.Name) else {node.attr} if isinstance(node, ast.Attribute) else set()
            assert not named & {"environ", "getenv", "environb"}, f"{module} reads the environment"


def _bound_at_module_level(tree: ast.Module) -> set[str]:
    """Names a module's own top-level statements define: functions, classes and assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _references(tree: ast.AST) -> set[str]:
    """Every name a syntax tree reads: loaded names, attributes, imported names and identifier strings.

    A string counts when it is an identifier or a dotted path of them, the
    way tests patch a module constant and the benchmark names what it wraps.
    """
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                refs |= set(parts)
    return refs


def test_every_module_level_name_is_used():
    # A name defined at the top of a src module and read nowhere (not in src,
    # tests, bench or the README) is dead code or an alias nothing needs.
    files = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *BENCH.glob("*.py")]
    refs = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for file in files:
        refs |= _references(ast.parse(file.read_text(), file.name))
    unused = sorted(
        f"{module[:-3]}.{name}"
        for module in MODULES
        for name in _bound_at_module_level(_tree(module)) - refs
        if not (name.startswith("__") and name.endswith("__"))
    )
    assert unused == [], f"{unused} are defined but never referenced"


def test_every_cap_bounds_src_code():
    # A cap outlives the code it bounded when only its own assignment, the
    # tests or the benchmark name it: some src code must read it.
    tree = _tree("caps.py")
    caps = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
    }
    read = set()
    for module in MODULES:
        for node in ast.walk(_tree(module)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert "LIFT_LEVEL_MAX" in caps and "PERM_CAP" in caps
    assert sorted(caps - read) == [], f"caps {sorted(caps - read)} bound no src code"


def test_readme_shows_every_command():
    assert {line.split()[1] for line in README_COMMANDS} == set(_COMMANDS)


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_parses(line):
    # A flag removed from the CLI must not stay in the docs: parsing exits 2 on it.
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert args.command == shlex.split(line)[1]


def _traced_names() -> list[tuple[str, str]]:
    """(module, function) of every entry of ``TRACED`` in bench/spans.py, read without importing it."""
    tree = ast.parse((BENCH / "spans.py").read_text(), "spans.py")
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return [(mod, fn) for mod, fn, _folded in ast.literal_eval(node.value)]
    raise LookupError("bench/spans.py assigns no TRACED list")


def _checker_names() -> list[tuple[str, str]]:
    """(module, name) of every ``self.<module>.<name>`` bench/check.py reads from an imported orderflow module."""
    tree = ast.parse((BENCH / "check.py").read_text(), "check.py")
    modules = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "orderflow"
        for alias in node.names
    }
    return sorted(
        {
            (node.value.attr, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "self"
            and node.value.attr in modules
        }
    )


def test_benchmark_names_stay_in_their_modules():
    # The benchmark wraps TRACED functions by (module, name) and skips a name
    # its module lacks, so a moved function would silently drop its spans;
    # the output checks call the package by module attribute.
    traced, checked = _traced_names(), _checker_names()
    assert len(traced) > 20 and ("drift", "compose") in traced and ("maps", "cyclic_lift") in traced
    assert ("analysis", "exact_distribution") in checked and ("drift", "loop_drift") in checked
    missing = [
        f"{mod}.{name}"
        for mod, name in traced + checked
        if not hasattr(importlib.import_module(f"orderflow.{mod}"), name)
    ]
    assert missing == [], f"bench names {missing} are gone from their orderflow modules"
    assert all(callable(getattr(importlib.import_module(f"orderflow.{mod}"), fn)) for mod, fn in traced)


def _checked_kinds() -> set[str]:
    """Job kinds bench/check.py has a check for: its public ``Checker`` methods, read without importing it."""
    tree = ast.parse((BENCH / "check.py").read_text(), "check.py")
    checker = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Checker")
    return {
        node.name.replace("_", ".", 1)
        for node in checker.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def test_benchmark_commands_parse(tmp_path, monkeypatch):
    # The benchmark drives the CLI with these argument lists; a flag it passes
    # must not disappear from the parser.  The budgets are just large enough
    # for every job kind to appear.
    monkeypatch.syspath_prepend(str(BENCH))
    gen = importlib.import_module("gen")
    jobs = [*gen.WARMUPS.values()]
    for workload, seconds in (("patterns", 3), ("flows", 0.5)):
        jobs += gen.plan(workload, 777, tmp_path / workload, seconds).jobs
    assert {job.kind for job in jobs} == _checked_kinds()
    for job in jobs:
        args = build_parser().parse_args(job.argv(tmp_path))
        assert args.command == job.args[0]


def _fresh(code: str):
    """What ``code`` prints as JSON when run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded_after(statement: str) -> set[str]:
    return set(_fresh(f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"))


def _module_caches() -> set[str]:
    """Module-level functools caches, as module.name, found as bench/run.py finds the caches it clears."""
    caches = set()
    for module in MODULES:
        name = "orderflow" if module == "__init__.py" else f"orderflow.{module[:-3]}"
        for attr, value in vars(importlib.import_module(name)).items():
            if callable(getattr(value, "cache_clear", None)) and getattr(value, "__module__", None) == name:
                caches.add(f"{name}.{attr}")
    return caches


def test_cli_loads_the_cache_holders_and_defers_the_rest():
    # An in-process caller clears the caches it finds right after importing
    # the CLI; a cache holder loaded later would keep its cache across calls.
    # The set is pinned, so a new process-wide cache is a reviewed change.
    caches = _module_caches()
    assert caches == {"orderflow.perms.restrict", "orderflow.drift._edge_tables"}
    loaded = _loaded_after("import orderflow.cli")
    assert {name.rsplit(".", 1)[0] for name in caches} <= loaded
    assert DEFERRED & loaded == set()


WARMUPS = [["census", "--n", "2"], ["exact", "--map", "doubling", "--n", "6"]]


def _warmup_loads(argv: list[str], tmp_path: Path, names: set[str]) -> list:
    """The exit code of one of the benchmark's warm-up jobs, a whole command in a fresh process, and which of ``names`` it loaded."""
    code = f"""
import contextlib, io, json, sys
import orderflow.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = orderflow.cli.main({argv + ["--out", str(tmp_path / "out")]!r})
print(json.dumps([code, sorted(set({sorted(names)!r}).intersection(sys.modules))]))
"""
    return _fresh(code)


@pytest.mark.parametrize("argv", WARMUPS)
def test_benchmark_warmups_load_no_code_generation(argv, tmp_path):
    # dataclasses loads inspect; neither is needed by a whole command.
    assert _warmup_loads(argv, tmp_path, {"dataclasses", "inspect"}) == [0, []]


@pytest.mark.parametrize("argv", WARMUPS)
def test_benchmark_warmups_load_no_argparse(argv, tmp_path):
    # A well-formed command is read without argparse, which also loads gettext.
    assert _warmup_loads(argv, tmp_path, {"argparse", "gettext"}) == [0, []]


def test_package_import_loads_no_module():
    assert {name for name in _loaded_after("import orderflow") if name.startswith("orderflow.")} == set()


def test_exports_are_their_modules_objects():
    # Each name resolves on first access; it must be its module's own object.
    code = """
import importlib, json, orderflow
print(json.dumps({name: getattr(orderflow, name) is getattr(importlib.import_module("orderflow." + home), name)
                  for name, home in orderflow._HOME.items()}))
"""
    served = _fresh(code)
    assert len(served) == 64, "every name `from orderflow import X` serves"
    assert all(served.values()), [name for name, same in served.items() if not same]


def test_unknown_export_is_an_attribute_error():
    import orderflow

    assert set(orderflow.__all__) <= set(dir(orderflow))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        orderflow.no_such_name
    with pytest.raises(ImportError):
        from orderflow import no_such_name  # noqa: F401

"""Static checks on the package source."""

import ast
import importlib
import json
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "littlewood"


def test_no_assert_in_package():
    # `python -O` strips asserts, and the CLI shows a traceback for an
    # AssertionError; exactness checks raise InconsistencyError instead.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}: raise AssertionError")
    assert not found, found


def test_scale_error_comes_from_the_one_guard():
    # Every refusal past a bound goes through errors.check_bound, so it has
    # one message shape; a ScaleError built anywhere else would bypass it.
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for fn in ast.walk(tree):  # breadth first, so the outermost function owns a node
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        for node in ast.walk(tree):
            made = node.func if isinstance(node, ast.Call) else node.exc if isinstance(node, ast.Raise) else None
            if "ScaleError" in (getattr(made, "id", None), getattr(made, "attr", None)):
                found.add(f"{path.name}:{owner.get(node, '<module>')}")
    assert found == {"errors.py:check_bound"}, found


def test_every_open_is_a_with_item():
    # A file opened outside a `with` stays open until it is collected, which
    # `python -X dev` reports as a ResourceWarning.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        items = {id(item.context_expr) for node in ast.walk(tree) if isinstance(node, (ast.With, ast.AsyncWith)) for item in node.items}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)) and id(node) not in items:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_dataclasses_and_every_import_at_module_level():
    # A cold CLI start pays for every module the package imports; `dataclasses`
    # pulls in `inspect` and execs generated code for each record, so records
    # are NamedTuples or slotted classes.  An import inside a function would
    # hide a module's cost from that start and move it into a command.
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.add(f"{path.name}:{node.lineno}: dataclasses")
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(fn):
                    called = getattr(node.func, "id", None) or getattr(node.func, "attr", None) if isinstance(node, ast.Call) else None
                    if isinstance(node, (ast.Import, ast.ImportFrom)) or called in ("__import__", "import_module"):
                        found.add(f"{path.name}:{node.lineno}: import inside a function")
    assert not found, sorted(found)


def test_unchecked_partition_constructor_stays_in_partitions():
    # Partition._of skips the checks; only partitions.py builds its tuples
    # decreasing, positive and zero-free by construction.
    tests = Path(__file__).resolve().parent
    found = []
    for path in sorted([*SRC.rglob("*.py"), *tests.rglob("*.py")]):
        if path == SRC / "partitions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "_of":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_weight_fill_stays_out_of_the_library():
    # Schur functors of group representations and the plethysm oracle go
    # through Newton's identity over Adams operations (`partitions.newton_series`);
    # the weight-by-weight fill `schur_fill` is a test oracle (tests/oracles.py).
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # a use (Name, Attribute), an import (alias) or a definition (FunctionDef)
            if "schur_fill" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not found, found


def _tracer_targets() -> dict:
    """SPANNED and COUNTED of the benchmark's tracer: (layer module, attribute
    or Class.method) pairs it wraps by name."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    targets = {}
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANNED", "COUNTED"):
                targets[name] = ast.literal_eval(node.value)
    return targets


def test_benchmark_tracer_targets_resolve():
    # The benchmark's tracer wraps these names from outside the package: a
    # module attribute, or Class.__dict__[method].  A rename would otherwise
    # surface only as a crash of a traced benchmark run.
    targets = _tracer_targets()
    assert set(targets) == {"SPANNED", "COUNTED"}
    missing = []
    for mod_name, attr in targets["SPANNED"] + targets["COUNTED"]:
        owner = importlib.import_module(f"littlewood.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            ok = isinstance(cls, type) and meth in vars(cls)
        else:
            ok = callable(getattr(owner, attr, None))
        if not ok:
            missing.append(f"{mod_name}.{attr}")
    assert not missing, missing


def test_every_function_and_method_is_used_in_the_package():
    # A function or method that only tests call is a second entry point to a
    # kernel the package reaches another way.  A top-level function counts
    # as used when its name is read anywhere in src/, a method when it is
    # read as an attribute; the benchmark tracer's targets are wrapped by
    # name from outside and are exempt.
    targets = _tracer_targets()
    exempt = {f"{mod}.{attr}" for mod, attr in targets["SPANNED"] + targets["COUNTED"]}
    defined, names, attrs = [], set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((f"{path.stem}.{node.name}", node.name, names))
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (fn.name.startswith("__") and fn.name.endswith("__")):
                        defined.append((f"{path.stem}.{node.name}.{fn.name}", fn.name, attrs))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                names.add(node.attr)
    unused = [full for full, name, seen in defined if name not in seen and full not in exempt]
    assert not unused, unused


# Memos that no longer exist; their counters read 0 until the benchmark drops
# them.
DEAD_MEMOS = {"partitions.schur_monomials", "resolutions._g2_tensor", "resolutions._g2_schur_decomposition", "characters._dominant_mults"}


def test_benchmark_memo_counters_resolve():
    # The benchmark reads `<layer>.<memo>.hits` from cache_info() of the memo
    # it finds by name; a renamed memo would silently read 0.
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    memos = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"] if m["name"].endswith(".hits")}
    missing = []
    for name in sorted(memos - DEAD_MEMOS):
        layer, attr = name.split(".")
        memo = getattr(importlib.import_module(f"littlewood.{layer}"), attr, None)
        if not callable(getattr(memo, "cache_info", None)):
            missing.append(name)
    assert not missing, missing


def test_benchmark_workload_names_resolve():
    # The benchmark draws audit, hilbert, slice and bracket cases from these
    # tuples; a renamed registry entry or case would otherwise surface only
    # as a failed command in a cli-cold run.
    from littlewood.complexes import parse_case
    from littlewood.resolutions import AUDITS

    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    names = {}
    for node in ast.parse(workloads.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("_AUDITS", "_HILBERT", "_SLICE_CASES", "_BRACKET_CASES"):
                names[name] = ast.literal_eval(node.value)
    assert set(names) == {"_AUDITS", "_HILBERT", "_SLICE_CASES", "_BRACKET_CASES"}
    missing = [f"_AUDITS:{n}" for n in names["_AUDITS"] if n not in AUDITS]
    missing += [f"_HILBERT:{n}" for n, _ in names["_HILBERT"] if n not in AUDITS]
    for key, cases in (("_SLICE_CASES", names["_SLICE_CASES"]), ("_BRACKET_CASES", [c for c, _ in names["_BRACKET_CASES"]])):
        for case in cases:
            try:
                parse_case(case)
            except ValueError:
                missing.append(f"{key}:{case}")
    assert not missing, missing

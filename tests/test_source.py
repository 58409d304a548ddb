"""Static checks on the package source."""

import ast
import importlib
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


def test_benchmark_tracer_targets_resolve():
    # The benchmark's tracer wraps these names from outside the package: a
    # module attribute, or Class.__dict__[method].  A rename would otherwise
    # surface only as a crash of a traced benchmark run.
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    targets = {}
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANNED", "COUNTED"):
                targets[name] = ast.literal_eval(node.value)
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

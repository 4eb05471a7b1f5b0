"""The names that perfbench/tracer.py wraps must exist in quaddyn.

The benchmark's tracer wraps each `TARGETS` entry (module, attribute path,
span name) by name, so renaming or deleting one of those functions breaks
the traced benchmark run.  The file is parsed, not imported.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets() -> tuple:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


def test_every_traced_name_is_a_callable_of_quaddyn():
    targets = tracer_targets()
    assert targets
    for module, path, span in targets:
        obj = importlib.import_module(f"quaddyn.{module}")
        for attr in path.split("."):
            assert hasattr(obj, attr), f"{span}: quaddyn.{module} has no {path}"
            obj = getattr(obj, attr)
        assert callable(obj), f"{span}: quaddyn.{module}.{path} is not callable"

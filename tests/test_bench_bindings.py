"""The benchmark's tracer wraps program functions by name; every name it
looks up must exist, or a traced run (`perfbench/run.py --trace 1`) breaks.

The (module, attribute) lists are read from `perfbench/tracing.py` without
importing it, so this test follows whatever the tracer names.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Read by the benchmark outside the SPANS and COUNTED lists: the decompose
# hook reads the memo, and the worker stamps each run with the kernel lane.
OTHER_BINDINGS = [
    ("heckechain.eigensystems", "_DECOMPOSE_CACHE"),
    ("heckechain._kernels", "KERNEL_PATH"),
]


def traced_bindings() -> list[tuple[str, str]]:
    lists = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "COUNTED"):
                lists[name] = ast.literal_eval(node.value)
    assert set(lists) == {"SPANS", "COUNTED"}, "tracing.py no longer defines SPANS and COUNTED"
    return [entry[:2] for entry in lists["SPANS"] + lists["COUNTED"]] + OTHER_BINDINGS


@pytest.mark.parametrize("module, path", traced_bindings(), ids=lambda v: v)
def test_benchmark_binding_resolves(module, path):
    obj = importlib.import_module(module)
    for name in path.split("."):
        assert hasattr(obj, name), f"{module}.{path} is gone"
        obj = getattr(obj, name)

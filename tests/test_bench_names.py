"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps package
functions by name; each name it lists must still resolve."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def listed(name):
    """The string tuple assigned to ``name`` in perfbench/spans.py, read
    from its syntax tree without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {SPANS}")


def resolve(dotted):
    module, _, attr = dotted.rpartition(".")
    return getattr(importlib.import_module(f"qpbreed.{module}"), attr)


def test_traced_names_resolve():
    for dotted in listed("TRACED"):
        assert callable(resolve(dotted)), dotted


def test_cached_names_have_cache_info():
    for dotted in listed("CACHED"):
        assert hasattr(resolve(dotted), "cache_info"), dotted

"""The benchmark tracer wraps the functions it names in ``LAYERS`` and
``Ring.unit_set`` by name, so renaming one of them silently drops its
layer from every trace.  These tests read ``benchmark/tracer.py`` as
text and check each name still resolves."""

import ast
import importlib
from functools import cached_property
from pathlib import Path

from unitgraphs.rings import Ring

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def _layers():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no LAYERS")


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    for span, module, name in layers:
        target = getattr(importlib.import_module(module), name, None)
        assert callable(target), (span, module, name)


def test_the_units_span_wraps_a_cached_property():
    assert isinstance(Ring.__dict__["unit_set"], cached_property)

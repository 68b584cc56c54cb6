"""The benchmark's trace hooks still name rimlab's functions and methods.

``perfbench/tracer.py`` wraps the methods it lists by name, so a missing
one makes every traced pass raise AttributeError; ``perfbench/layers.py``
reads span names out of a defaultdict, so a renamed function silently
reports zero.  Both files are read and executed here, never written or
imported as modules (which could leave bytecode beside them).
"""

import dataclasses
import importlib
import inspect
import types

from conftest import load_perfbench

TRACER = load_perfbench("tracer")
LAYERS = load_perfbench("layers")


def _rimlab(module: str) -> types.ModuleType:
    return importlib.import_module(f"rimlab.{module}")


def test_listed_methods_resolve():
    for module, cls_name, meth in TRACER.METHODS + TRACER.COUNTED:
        assert callable(getattr(getattr(_rimlab(module), cls_name), meth)), (cls_name, meth)


def _is_traced(span: str) -> bool:
    """True when the tracer emits ``span``: a listed method, or a public
    function defined in the rimlab module the name starts with."""
    parts = tuple(span.split("."))
    if len(parts) == 3:
        return parts in TRACER.METHODS
    module, func = parts
    obj = getattr(_rimlab(module), func, None)
    return (
        not func.startswith("_")
        and isinstance(obj, types.FunctionType)
        and obj.__module__ == f"rimlab.{module}"
    )


def test_span_names_resolve():
    spans = (
        set(LAYERS.TOTALS.values())
        | set(LAYERS.CALLS.values())
        | {LAYERS.SOLVE}
        | set(TRACER.ANNOTATORS)
    )
    assert sorted(s for s in spans if not _is_traced(s)) == []


def test_annotated_signatures():
    params = inspect.signature(_rimlab("dynamics").integrate).parameters
    assert {"v_r", "r", "t_end", "ou"} <= set(params)
    fields = {f.name for f in dataclasses.fields(_rimlab("tracking").TrackingResult)}
    assert "iterations" in fields

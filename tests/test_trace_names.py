"""The benchmark's per-layer tracer looks up every name it times with
``getattr``; a name that disappears from its module kills every traced
benchmark child.  The tracer is loaded here, never changed."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "trace_child.py"


def load_trace_child():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    layers = load_trace_child().LAYERS
    missing = [
        f"{module.__name__}.{name}"
        for module, names in layers.items()
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert layers and not missing

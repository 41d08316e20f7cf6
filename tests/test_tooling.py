"""The benchmark's tracer wraps plap's functions by name: every name it
lists must resolve, and every traced method must stay a plain function in
its class, or a traced run breaks."""

import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.mark.skipif(not SPANS.exists(), reason="perfbench/ is absent")
def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr in spans.FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for name, cls, attr in spans.METHODS:
        assert inspect.isfunction(cls.__dict__.get(attr)), name

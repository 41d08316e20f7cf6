"""The benchmark's tracer wraps plap's functions by name: every name it
lists must resolve, and every traced method must stay a plain function in
its class, or a traced run breaks."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from plap import families, solver

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
needs_spans = pytest.mark.skipif(not SPANS.exists(), reason="perfbench/ is absent")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@needs_spans
def test_traced_names_resolve():
    spans = _spans()
    for module, attr in spans.FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for name, cls, attr in spans.METHODS:
        assert inspect.isfunction(cls.__dict__.get(attr)), name


@needs_spans
def test_tracer_sees_one_ascent_and_every_restart():
    # K4 at p=2 is not antibalanced, so all 18 starts (p=2 pencil, |A|-Perron,
    # six edges, ten random) go through the stacked ascent and _finish
    tracer = _spans().Tracer()
    tracer.install()
    try:
        tracer.begin_job(0)
        solver.solve_largest(families.complete(4), 2.0)
        tracer.end_job()
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.aggregate().items()}
    assert tracer.counters["solver.restart.attempts"] == 18
    assert calls["solver.solve_largest"] == 1 and calls["solver._ascent"] == 1
    assert calls["solver._finish"] == 18

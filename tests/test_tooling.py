"""The benchmark's tracer wraps plap's functions by name: every name it
lists must resolve, and every traced method must stay a plain function in
its class, or a traced run breaks."""

import contextlib
import importlib.util
import inspect
import io
from pathlib import Path

import pytest

from plap import cli, cutoff, families, graph, solver

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
needs_spans = pytest.mark.skipif(not SPANS.exists(), reason="perfbench/ is absent")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _traced(run) -> tuple[dict, dict]:
    """Calls per span name and the tracer's counters over one traced job."""
    tracer = _spans().Tracer()
    tracer.install()
    try:
        tracer.begin_job(0)
        run()
        tracer.end_job()
    finally:
        tracer.uninstall()
    return {name: row["calls"] for name, row in tracer.aggregate().items()}, tracer.counters


@needs_spans
def test_traced_names_resolve():
    spans = _spans()
    for module, attr in spans.FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for name, cls, attr in spans.METHODS:
        assert inspect.isfunction(cls.__dict__.get(attr)), name


@needs_spans
def test_tracer_sees_one_ascent_and_every_restart():
    # K4 at p=3 is not antibalanced, so all 18 starts (p=2 pencil, |A|-Perron,
    # six edges, ten random) go through the stacked ascent and _finish; each
    # is polished once, at its hand-off or at its end
    calls, counters = _traced(lambda: solver.solve_largest(families.complete(4), 3.0))
    assert counters["solver.restart.attempts"] == 18
    assert calls["solver.solve_largest"] == 1 and calls["solver._ascent"] == 1
    assert calls["solver._finish"] == 18


@needs_spans
def test_tracer_counts_every_polish_of_a_p15_solve(monkeypatch):
    # below p = 2 a row may be handed to the polish several times; perfbench's
    # restart.attempts_per_solve counts _finish calls, so each hand-off and
    # each end-of-ascent polish must be one traced _finish call
    answers, rows = [], []     # (row, whether the hand-off ended it)
    ascent = solver._ascent

    def spy(g, p, F0, cfg, maximize, handoff=None):
        def logged(i, f, lam):
            answers.append((i, handoff(i, f, lam)))
            return answers[-1][1]
        rows.append(len(F0))
        return ascent(g, p, F0, cfg, maximize, logged)
    monkeypatch.setattr(solver, "_ascent", spy)
    g = families.random_graph(6, 0.5, 0, signed=True)
    calls, counters = _traced(lambda: solver.solve_largest(g, 1.5))
    handed = [i for i, _ in answers]
    assert len(handed) > len(set(handed))
    ended = sum(done for _, done in answers)
    assert calls["solver._finish"] == len(answers) + rows[0] - ended
    assert counters["solver.restart.attempts"] == calls["solver._finish"]


@needs_spans
def test_traced_exact_ln_records_one_sign_search():
    # perfbench's cutoff._lambda_max_signs.self_ms and cutoff.sign_space read
    # this one span by name; sign_space adds the 2^(n-1) codes it covers
    calls, counters = _traced(
        lambda: cutoff.exact_ln(families.random_graph(12, 0.5, 3, signed=True)))
    assert calls["cutoff.exact_ln"] == 1 and calls["cutoff._lambda_max_signs"] == 1
    assert counters["cutoff.sign_space"] == 1 << 11


def _traced_cli_calls(argv) -> dict:
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    return _traced(run)[0]


@needs_spans
def test_cutoff_all_runs_one_mis_and_one_exact_ln(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(graph.dumps(families.random_graph(9, 0.5, 4, signed=True)))
    calls = _traced_cli_calls(["cutoff", str(path), "--k", "all"])
    assert calls["combinatorics.max_independent_set"] == 1
    assert calls["cutoff.exact_ln"] == 1


@needs_spans
def test_verify_interlacing_runs_exact_ln_once_per_graph(tmp_path):
    # L_n of the graph once, and once for each of its six one-vertex removals
    path = tmp_path / "g.json"
    path.write_text(graph.dumps(families.random_graph(6, 0.6, 2, signed=True)))
    calls = _traced_cli_calls(["verify", "interlacing", str(path)])
    assert calls["cutoff.exact_ln"] == 7


@needs_spans
def test_verify_all_runs_exact_ln_once_per_graph(tmp_path):
    # interlacing and the tensor checks at p=2 and p=4 share L_n of the
    # graph; the six one-vertex removals need one each
    path = tmp_path / "g.json"
    path.write_text(graph.dumps(families.random_graph(6, 0.6, 2, signed=True)))
    calls = _traced_cli_calls(["verify", "all", str(path)])
    assert calls["cutoff.exact_ln"] == 7

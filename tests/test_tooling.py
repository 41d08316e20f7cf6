"""The benchmark's tracer wraps plap's functions by name: every name it
lists must resolve, and every traced method must stay a plain function in
its class, or a traced run breaks."""

import contextlib
import importlib.util
import inspect
import io
from pathlib import Path

import numpy as np
import pytest

from plap import cli, combinatorics, cutoff, families, graph, solver

from conftest import antibalanced_negative_kappa, sparse_antibalanced

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

    def spy(g, p, F0, cfg, maximize, handoff):
        def logged(handed, F, lam):
            ended = handoff(handed, F, lam)
            answers.extend(zip(handed.tolist(), ended.tolist()))
            return ended
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
@pytest.mark.parametrize("argv", [["bounds"], ["cutoff", "--k", "all"]], ids=["bounds", "cutoff"])
def test_a_traced_command_writes_its_report_in_one_dumps_span(argv, tmp_path):
    # perfbench's report.Report.dumps.self_ms reads one span per command,
    # and bounds runs one inertia report
    path = tmp_path / "g.json"
    path.write_text(graph.dumps(families.random_graph(9, 0.5, 4, signed=True)))
    calls = _traced_cli_calls(argv[:1] + [str(path)] + argv[1:])
    assert calls["report.Report.dumps"] == 1
    assert calls.get("combinatorics.inertia_report", 0) == (argv == ["bounds"])


@needs_spans
def test_a_traced_bracket_sweep_finds_the_independent_set_once_per_graph():
    # perfbench's enumerate brackets every k of each graph object, twice
    # over; the maximum independent set is kept on the object
    graphs = [families.random_graph(9, 0.5, 2, signed=True), families.cycle(8)]

    def sweeps():
        for _ in range(2):
            for g in graphs:
                for k in range(1, g.n + 1):
                    cutoff.bracket(g, k)
    calls, counters = _traced(sweeps)
    assert calls["cutoff.bracket"] == 2 * sum(g.n for g in graphs)
    assert calls["combinatorics.max_independent_set"] == len(graphs)
    assert counters["combinatorics.max_independent_set.repeats"] == 0


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


@needs_spans
@pytest.mark.parametrize("suite,solves", [("monotonicity", 8), ("limit", 4)])
def test_a_perron_p_grid_is_one_traced_cone_iteration(suite, solves, tmp_path):
    # the whole grid (8 p for monotonicity, 4 for the limit scan) is one
    # stacked _power_refine call, not one per p; no solve_largest span opens
    path = tmp_path / "g.json"
    path.write_text(graph.dumps(graph.negate(families.complete(5))))
    calls = _traced_cli_calls(["verify", suite, str(path)])
    assert calls["solver._power_refine"] == 1
    assert calls.get("solver.solve_largest", 0) == 0
    assert calls["solver.rayleigh"] >= solves


@needs_spans
@pytest.mark.parametrize("g", [families.hypercube(9), sparse_antibalanced(1000, 5000, 0)],
                         ids=["hypercube9", "n1000"])
def test_a_perron_solve_calls_apply_plap_only_for_its_residual(g):
    # the cone rounds run solver._cone_apply, which perfbench does not wrap:
    # their time is _power_refine's self time, and apply_plap is called once,
    # by the residual of the finished pair
    certificates = []
    traced, _ = _traced(lambda: certificates.append(solver.solve_largest(g, 3.0).certificate))
    assert certificates == ["perron-certified"]
    assert traced["solver._power_refine"] == 1
    assert traced["solver.apply_plap"] == 1
    assert traced.get("solver._finish", 0) == 0


@needs_spans
def test_a_negative_kappa_perron_grid_is_one_traced_cone_iteration():
    # kappa < 0 shifts into the stacked cone iteration: no ascent runs, and
    # every row closes its bracket, so no row is polished
    g = antibalanced_negative_kappa()
    certificates = []
    calls, _ = _traced(lambda: certificates.extend(
        pair.certificate for pair in solver.solve_largest_grid(g, cli.DEFAULT_P_GRID)))
    assert certificates == ["perron-certified"] * len(cli.DEFAULT_P_GRID)
    assert calls["solver._power_refine"] == 1
    assert calls.get("solver._ascent", 0) == 0
    assert calls.get("solver._finish", 0) == 0


@needs_spans
def test_a_traced_inertia_report_scores_its_signature_pool_in_one_eigensolve(monkeypatch):
    # perfbench's linalg.dense_eig counts every eigh and eigvalsh call; the
    # ten signatures of the pool add one call to those of the rest of the
    # report (a fresh graph each time, so nothing is reused)
    def report():
        combinatorics.inertia_report(families.random_graph(9, 0.5, 1, signed=True))
    with_pool, _ = _traced(report)
    monkeypatch.setattr(cutoff, "_signed_lowers",
                        lambda g, sigma: np.zeros(sigma.shape[:-1] + (g.n,)))
    without_pool, _ = _traced(report)
    assert with_pool["combinatorics.inertia_report"] == 1
    assert with_pool["linalg.dense_eig"] == without_pool["linalg.dense_eig"] + 1

"""Command-line interface: subcommands, exit codes, report format."""

import argparse
import json
import math

import numpy as np
import pytest

from plap import cli, families, graph
from plap.cli import main
from plap.report import Report

from conftest import random_weighted


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _write_graph(tmp_path, g, name="g.json"):
    path = tmp_path / name
    path.write_text(graph.dumps(g))
    return str(path)


def test_generate_complete(capsys):
    code, out, _ = _run(capsys, "generate", "complete", "--n", "4")
    assert code == 0
    g = graph.loads(out)
    assert g.n == 4 and g.m == 6


def test_generate_star(capsys):
    code, out, _ = _run(capsys, "generate", "star", "--m", "5")
    assert code == 0
    assert graph.loads(out).m == 4


def test_generate_hypercube_and_negate(capsys):
    code, out, _ = _run(capsys, "generate", "hypercube", "--d", "3", "--negate")
    assert code == 0
    g = graph.loads(out)
    assert g.n == 8 and g.m == 12
    assert all(e.sigma == -1 for e in g.edges)
    # bipartite, so switching-equivalent to both all-positive and all-negative
    assert graph.classify_balance(g).kind == "both"


def test_generate_random_deterministic(capsys):
    code, out1, _ = _run(capsys, "generate", "random", "--n", "6", "--prob", "0.5",
                         "--seed", "7", "--signed")
    code2, out2, _ = _run(capsys, "generate", "random", "--n", "6", "--prob", "0.5",
                          "--seed", "7", "--signed")
    assert code == code2 == 0
    assert out1 == out2
    assert graph.loads(out1).edges == graph.loads(out2).edges


def test_validate_good_and_bad(tmp_path, capsys):
    path = _write_graph(tmp_path, families.complete(3))
    code, out, _ = _run(capsys, "validate", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"][0]["status"] == "pass"
    assert rep["values"]["graph"]["n"] == 3

    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "edges": [{"u": 0, "v": 0}]}')
    code, out, err = _run(capsys, "validate", str(bad))
    assert code == 2 and "self-loop" in err


def test_malformed_json_reports_byte_offset(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, "spectrum", str(bad), "--p", "3",
                        "--which", "largest")
    assert code == 2
    assert "byte offset" in err


def test_cutoff_k3_table(tmp_path, capsys):
    path = _write_graph(tmp_path, families.complete(3))
    code, out, _ = _run(capsys, "cutoff", path, "--k", "all", "--exact")
    assert code == 0
    rep = json.loads(out)
    got = [(b["lower"], b["upper"]) for b in rep["values"]["brackets"]]
    refs = (0.0, 0.5, math.sqrt(2) / 2)
    for (lo, hi), ref in zip(got, refs):
        assert abs(lo - ref) <= 1e-9 and abs(hi - ref) <= 1e-9
        assert lo <= hi


def test_spectrum_reports_certificate(tmp_path, capsys):
    path = _write_graph(tmp_path, graph.negate(families.cycle(4)))
    code, out, _ = _run(capsys, "spectrum", path, "--p", "2", "--which", "largest")
    assert code == 0
    rep = json.loads(out)
    assert rep["values"]["certificate"] == "perron-certified"
    assert abs(rep["values"]["lambda"] - 4.0) < 1e-8


def test_spectrum_rejects_infinite_tol(tmp_path, capsys):
    path = _write_graph(tmp_path, families.random_graph(6, 0.5, 3, signed=True))
    code, out, err = _run(capsys, "spectrum", path, "--p", "1.5", "--which",
                          "largest", "--tol", "inf")
    assert code == 2 and out == ""
    assert "SolverConfig.tol must be positive and finite" in err


def test_spectrum_at_p32_answers_on_k4(tmp_path, capsys):
    # the first Armijo trial's p-norm overflows at p = 32; it is rejected
    # like a failed trial instead of ending the command with exit code 2
    path = _write_graph(tmp_path, families.complete(4))
    code, out, _ = _run(capsys, "spectrum", path, "--p", "32", "--which", "largest")
    assert code == 0
    assert json.loads(out)["checks"][0]["status"] == "pass"


def test_report_refuses_non_finite_numbers():
    rep = Report(command=["plap"], input_digest="sha256:0", seed=None)
    rep.add("check", "anchor", True, {"value": float("nan")})
    with pytest.raises(ValueError):
        rep.dumps()
    rep = Report(command=["plap"], input_digest="sha256:0", seed=None)
    rep.values["lambda"] = float("inf")
    with pytest.raises(ValueError):
        rep.dumps()


def test_bounds_inertia(tmp_path, capsys):
    path = _write_graph(tmp_path, families.star(5))
    code, out, _ = _run(capsys, "bounds", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["values"]["alpha"] == 4 and rep["values"]["beta"] == 4


def test_verify_all_star(tmp_path, capsys):
    path = _write_graph(tmp_path, families.star(5))
    code, out, _ = _run(capsys, "verify", "all", path, "--seed", "1",
                        "--p-grid", "1.5,2,3,4")
    assert code == 0
    rep = json.loads(out)
    assert all(c["status"] in ("pass", "skip") for c in rep["checks"])
    assert rep["seed"] == 1


def test_verify_all_passes_the_tensor_defect_on_a_graph_with_an_isolated_vertex(
        tmp_path, capsys):
    # the p=4 pair used to stop at residual 2.6e-8 (lambda 23), failing the
    # absolute 1e-8 defect check, because its Newton polish was singular
    path = _write_graph(tmp_path, families.random_graph(8, 0.5, 0, signed=True))
    code, out, _ = _run(capsys, "verify", "all", path)
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    defect = checks["tensor correspondence p=4"]
    assert defect["status"] == "pass" and defect["values"]["defect"] <= 1e-8


def test_verify_limit_rejects_unbalanced(tmp_path, capsys):
    path = _write_graph(tmp_path, families.complete(3))
    code, _, err = _run(capsys, "verify", "limit", path)
    assert code == 2 and "antibalanced" in err


def test_verify_all_skips_inapplicable_limit(tmp_path, capsys):
    path = _write_graph(tmp_path, families.complete(3))
    code, out, _ = _run(capsys, "verify", "all", path, "--p-grid", "2,3")
    assert code == 0
    rep = json.loads(out)
    limit = [c for c in rep["checks"] if c["name"] == "eigenfunction limit"]
    assert limit and limit[0]["status"] == "skip"


@pytest.mark.parametrize("g,reason", [
    (random_weighted(7, 0.5, 1), "monotonicity check requires kappa >= 0"),
    (families.edgeless(3), "D must be positive (graph without edges or potential)"),
], ids=["negative-kappa", "edgeless"])
def test_verify_all_skips_inapplicable_monotonicity(g, reason, tmp_path, capsys):
    # verify all reports the suite as skipped; verify monotonicity alone
    # still refuses the graph
    path = _write_graph(tmp_path, g)
    code, out, _ = _run(capsys, "verify", "all", path, "--p-grid", "2,3")
    assert code == 0
    mono = [c for c in json.loads(out)["checks"] if c["name"] == "monotonicity"]
    assert len(mono) == 1 and mono[0]["status"] == "skip"
    assert mono[0]["values"] == {"reason": reason}
    code, _, err = _run(capsys, "verify", "monotonicity", path)
    assert code == 2 and err == f"plap: error: {reason}\n"


def test_verify_monotonicity_csv(tmp_path, capsys):
    path = _write_graph(tmp_path, graph.negate(families.star(5)))
    csv_path = tmp_path / "grid.csv"
    code, out, _ = _run(capsys, "verify", "monotonicity", path,
                        "--p-grid", "2,3,4", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "p,lambda,residual,m1,m2"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 2.0
    assert len(first) == 5


def test_verify_monotonicity_classifies_balance_once(tmp_path, capsys, monkeypatch):
    # one propagation asks "connected and antibalanced", two classify the
    # balance; the bottom solve at every p of the grid reuses that answer
    calls = []
    propagate = graph._propagate

    def counted(g, target):
        calls.append(target)
        return propagate(g, target)
    monkeypatch.setattr(graph, "_propagate", counted)
    g = families.random_graph(7, 0.6, 1)
    assert graph.classify_balance(g).kind == "balanced"
    calls.clear()
    code, _, _ = _run(capsys, "verify", "monotonicity", _write_graph(tmp_path, g))
    assert code == 0
    assert sorted(calls) == [-1, -1, 1]


def test_report_values_are_replayable(tmp_path, capsys):
    path = _write_graph(tmp_path, families.random_graph(6, 0.5, 3, signed=True))
    _, out1, _ = _run(capsys, "cutoff", path, "--k", "all", "--seed", "5")
    _, out2, _ = _run(capsys, "cutoff", path, "--k", "all", "--seed", "5")
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["input_digest"].startswith("sha256:")
    assert rep["command"][0] == "plap"


def test_usage_error_exit_code(capsys):
    assert main(["cutoff"]) == 2          # missing graph argument
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_a_reused_parser_answers_as_a_fresh_one(tmp_path, capsys):
    path = _write_graph(tmp_path, families.random_graph(6, 0.5, 1, signed=True))
    runs = [("spectrum", path, "--p", "1.5", "--which", "largest"),
            ("cutoff", path, "--k", "all"), ("spectrum", path, "--p", "x"),
            ("verify", "all", path)]
    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(_run(capsys, *argv))
    reused = [_run(capsys, *argv) for argv in runs]
    assert [r[0] for r in fresh] == [0, 0, 2, 0]
    assert reused == fresh
    assert cli._build_parser() is cli._build_parser()


def test_entry_point_version(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("plap ")


# --- each command takes the flags it reads, and reads the flags it takes ----

@pytest.mark.parametrize("cmd, flag", [
    ("validate", "--seed"), ("validate", "--tol"), ("validate", "--restarts"),
    ("validate", "--budget"), ("spectrum", "--budget"), ("cutoff", "--tol"),
    ("cutoff", "--restarts"), ("bounds", "--tol"), ("bounds", "--restarts")])
def test_a_flag_the_command_does_not_read_is_rejected(tmp_path, capsys, cmd, flag):
    path = _write_graph(tmp_path, families.complete(4))
    extra = ["--p", "3", "--which", "largest"] if cmd == "spectrum" else []
    code, out, err = _run(capsys, cmd, path, *extra, flag, "5")
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag} 5" in err


def _parsed_and_read(monkeypatch, argv) -> tuple[set, set]:
    """(names parse_args sets, names read after parsing) over one main(argv)."""
    parsed, read = set(), set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            if name in parsed:
                read.add(name)
            return super().__getattribute__(name)

    parser = cli._build_parser()

    def recording_parse(args=None, namespace=None):
        ns = argparse.ArgumentParser.parse_args(parser, args, Recorder())
        parsed.update(vars(ns))
        return ns

    monkeypatch.setattr(parser, "parse_args", recording_parse)
    assert main(argv) in (0, 1)
    return parsed, read


def test_every_parsed_value_is_read(tmp_path, capsys, monkeypatch):
    path = _write_graph(tmp_path, families.random_graph(6, 0.6, 2, signed=True))
    runs = [["validate", path],
            ["spectrum", path, "--p", "3", "--which", "largest"],
            ["cutoff", path, "--k", "all"],
            ["bounds", path],
            ["verify", "all", path, "--p-grid", "2,4", "--csv", str(tmp_path / "g.csv")],
            ["generate", "random", "--n", "5"]]
    seen = set()
    for argv in runs:
        parsed, read = _parsed_and_read(monkeypatch, argv)
        capsys.readouterr()
        assert parsed == read, argv[0]
        seen.add(argv[0])
    assert seen == set(cli._COMMANDS) | {"generate"}


def test_cutoff_reports_ignore_the_potential(tmp_path, capsys):
    g = families.random_graph(7, 0.5, 3, signed=True)
    rng = np.random.default_rng(3)
    weighted = graph.validate(g.n, [(e.u, e.v, float(rng.uniform(0.5, 2.0)), e.sigma)
                                    for e in g.edges],
                              mu=rng.uniform(0.5, 2.0, g.n).tolist())
    twin = graph.validate(g.n, [tuple(e) for e in weighted.edges], mu=weighted.mu,
                          kappa=rng.uniform(-1.0, 1.0, g.n).tolist())
    assert any(twin.kappa)
    paths = [_write_graph(tmp_path, h, f"{i}.json") for i, h in enumerate((weighted, twin))]
    for argv in (["cutoff", "{}", "--k", "all"], ["bounds", "{}"],
                 ["verify", "interlacing", "{}"]):
        reps = []
        for path in paths:
            code, out, _ = _run(capsys, *[a.format(path) for a in argv])
            assert code == 0
            reps.append(json.loads(out))
        assert reps[0]["values"] == reps[1]["values"]
        assert reps[0]["checks"] == reps[1]["checks"]


def test_monotonicity_propagates_signs_three_times_on_an_antibalanced_cycle(
        tmp_path, capsys, monkeypatch):
    # one propagation asks "connected and antibalanced" and every top solve
    # of the grid reuses the answer; two classify the balance
    calls = []
    propagate = graph._propagate

    def counted(g, target):
        calls.append(target)
        return propagate(g, target)
    monkeypatch.setattr(graph, "_propagate", counted)
    path = _write_graph(tmp_path, graph.negate(families.cycle(6)))
    code, _, _ = _run(capsys, "verify", "monotonicity", path)
    assert code == 0 and sorted(calls) == [-1, -1, 1]
    # verify all adds one: the limit scan's switched copy, whose top solves
    # share its answer
    calls.clear()
    code, _, _ = _run(capsys, "verify", "all", path)
    assert code == 0 and len(calls) == 4

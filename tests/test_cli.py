"""Command-line interface: subcommands, exit codes, report format."""

import json
import math

import pytest

from plap import families, graph
from plap.cli import main
from plap.report import Report


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


def test_entry_point_version(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("plap ")

"""Command-line interface: subcommands, exit codes, report format."""

import argparse
import json
import math

import numpy as np
import pytest

from plap import cli, cutoff, families, graph, solver
from plap.cli import main
from plap.report import Report, jsonable

from conftest import antibalanced_negative_kappa, random_connected_antibalanced, random_weighted


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


@pytest.mark.parametrize("argv, err", [
    (["complete", "--n", "3", "--prob", "0.1", "--signed", "--seed", "5"],
     "unknown parameters for complete: ['prob', 'seed', 'signed']"),
    (["hypercube", "--d", "2", "--seed", "3"], "unknown parameters for hypercube: ['seed']"),
    (["random", "--n", "4", "--m", "3"], "unknown parameters for random: ['m']"),
], ids=["complete", "hypercube", "random"])
def test_generate_rejects_a_flag_the_family_does_not_read(capsys, argv, err):
    code, out, got = _run(capsys, "generate", *argv)
    assert code == 2 and out == ""
    assert got.startswith("plap: error: ") and err in got


@pytest.mark.parametrize("family, flag", [
    ("complete", "--n"), ("star", "--m"), ("path", "--n"), ("cycle", "--n"),
    ("edgeless", "--n"), ("hypercube", "--d"), ("random", "--n")])
def test_generate_names_a_missing_size_flag(capsys, family, flag):
    code, out, err = _run(capsys, "generate", family, "--negate")
    assert (code, out, err) == (2, "", f"plap: error: generate {family} needs {flag}\n")


def test_generate_random_defaults_are_the_library_defaults(capsys):
    # the flags not given take the family's defaults: prob 0.5, seed 0, unsigned
    code, out, _ = _run(capsys, "generate", "random", "--n", "6")
    assert code == 0
    assert out == graph.dumps(families.random_graph(6, 0.5, 0, signed=False), indent=2) + "\n"
    code, out2, _ = _run(capsys, "generate", "random", "--n", "6", "--prob", "0.5",
                         "--seed", "0")
    assert code == 0 and out2 == out


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


@pytest.mark.parametrize("argv", [
    ["validate", "{}"], ["spectrum", "{}", "--p", "3", "--which", "largest"],
    ["cutoff", "{}"], ["bounds", "{}"], ["verify", "all", "{}"]], ids=lambda argv: argv[0])
def test_every_command_rejects_an_unknown_graph_key(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "edges": [{"u": 0, "v": 1, "weight": 5}], "kapa": [3, 3]}')
    code, out, err = _run(capsys, *[a.format(bad) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("plap: error: unknown graph key 'kapa'")


@pytest.mark.parametrize("argv", [
    ["validate", "{dir}"],
    ["validate", "{graph}", "--out", "{dir}"],
    ["verify", "monotonicity", "{graph}", "--p-grid", "2,3", "--csv", "{dir}"],
], ids=["graph", "out", "csv"])
def test_a_directory_for_a_file_is_an_input_error(tmp_path, capsys, argv):
    # an OSError on any path the command reads or writes exits 2, not 1
    path = _write_graph(tmp_path, graph.negate(families.star(5)))
    code, out, err = _run(capsys, *[a.format(graph=path, dir=tmp_path) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("plap: error: ") and str(tmp_path) in err


@pytest.mark.parametrize("argv", [
    ["cutoff", "{graph}", "--out", "{bad}"],
    ["verify", "all", "{graph}", "--out", "{ok}", "--csv", "{bad}"],
    ["verify", "monotonicity", "{graph}", "--out", "{bad}", "--csv", "{ok}"],
    ["generate", "complete", "--n", "3", "--out", "{bad}"],
], ids=["cutoff-out", "verify-csv", "verify-out", "generate-out"])
def test_an_output_that_cannot_be_written_fails_before_the_work(tmp_path, capsys,
                                                                 monkeypatch, argv):
    def work(*args):
        pytest.fail("the command ran before its outputs were checked")
    monkeypatch.setattr(cli, "_read_graph", work)
    monkeypatch.setattr(families, "generate", work)
    bad, ok = tmp_path / "missing" / "x.json", tmp_path / "ok.json"
    path = _write_graph(tmp_path, families.star(4))
    code, out, err = _run(capsys, *[a.format(graph=path, bad=bad, ok=ok) for a in argv])
    assert (code, out) == (2, "")
    assert err == f"plap: error: [Errno 2] No such file or directory: '{bad}'\n"
    assert not ok.exists()


def test_checking_the_outputs_leaves_them_as_they_were(tmp_path, capsys):
    # a run that fails after the check creates no file and keeps an old one
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "edges": [{"u": 0, "v": 0}]}')
    new, old = tmp_path / "new.json", tmp_path / "old.csv"
    old.write_text("kept")
    code, out, err = _run(capsys, "verify", "all", str(bad), "--out", str(new),
                          "--csv", str(old))
    assert (code, out) == (2, "") and "self-loop" in err
    assert not new.exists() and old.read_text() == "kept"


def test_a_report_written_to_a_file_is_the_one_printed(tmp_path, capsys):
    path = _write_graph(tmp_path, families.random_graph(6, 0.6, 2, signed=True))
    argv = ["spectrum", path, "--p", "3", "--which", "largest"]
    code, printed, _ = _run(capsys, *argv)
    dest = tmp_path / "rep.json"
    dest.write_text("an older report, longer than the one that replaces it" * 100)
    code2, out, _ = _run(capsys, *argv, "--out", str(dest))
    assert code == code2 == 0 and out == ""
    written = dest.read_text()
    assert written.endswith("}\n")
    want, got = json.loads(printed), json.loads(written)
    assert got.pop("command") == ["plap", *argv, "--out", str(dest)]
    assert want.pop("command") == ["plap", *argv] and got == want


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


def test_spectrum_reports_a_solver_error_as_a_failed_check(tmp_path, capsys):
    path = _write_graph(tmp_path, families.random_graph(8, 0.35, 2, signed=True))
    code, out, _ = _run(capsys, "spectrum", path, "--p", "1.25", "--which", "largest")
    assert code == 1
    rep = json.loads(out)
    [check] = rep["checks"]
    assert check["name"] == "solver convergence" and check["status"] == "fail"
    assert check["values"]["error"].startswith("no restart reached residual tolerance")
    assert "lambda" not in rep["values"]


def test_verify_tensor_reports_a_solver_error_as_a_failed_check(tmp_path, capsys,
                                                                monkeypatch):
    def fails(g, p, cfg=None):
        raise solver.SolverError(f"no pair at p={p}")
    monkeypatch.setattr(solver, "solve_largest", fails)
    path = _write_graph(tmp_path, families.star(4))
    code, out, _ = _run(capsys, "verify", "tensor", path)
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    for p in (2, 4):
        assert checks[f"tensor correspondence p={p}"]["status"] == "fail"
        assert checks[f"tensor correspondence p={p}"]["values"] == {"error": f"no pair at p={p}"}
        assert f"tensor spectral bound p={p}" not in checks
    assert checks["tensor apply identity"]["status"] == "pass"


def test_a_report_value_of_an_unknown_type_is_an_error(tmp_path, capsys, monkeypatch):
    def body(g, args, rep):
        rep.values["graph"] = g
    monkeypatch.setitem(cli._COMMANDS, "validate", body)
    path = _write_graph(tmp_path, families.star(4))
    code, out, err = _run(capsys, "validate", path)
    assert (code, out) == (2, "")
    assert err == "plap: error: a report value cannot be a SignedGraph\n"


def test_spectrum_at_p32_answers_on_k4(tmp_path, capsys):
    # the first Armijo trial's p-norm overflows at p = 32; it is rejected
    # like a failed trial instead of ending the command with exit code 2
    path = _write_graph(tmp_path, families.complete(4))
    code, out, _ = _run(capsys, "spectrum", path, "--p", "32", "--which", "largest")
    assert code == 0
    assert json.loads(out)["checks"][0]["status"] == "pass"


def test_spectrum_certifies_a_negative_potential_at_p11(tmp_path, capsys):
    # kappa < 0 runs the cone iteration on a shifted potential; the single
    # ascent it replaced missed the Perron certificate at p = 1.1, and every
    # restart then missed the tolerance, so the command exited 1
    path = _write_graph(tmp_path, antibalanced_negative_kappa())
    code, out, _ = _run(capsys, "spectrum", path, "--p", "1.1", "--which", "largest")
    assert code == 0
    assert json.loads(out)["values"]["certificate"] == "perron-certified"


def test_spectrum_answers_on_a_huge_finite_weight(tmp_path, capsys):
    # the first cone iterate's p-norm overflows; the rescaled round certifies
    g = graph.validate(3, [(0, 1, 1e200, -1), (1, 2, 1.0, -1)])
    path = _write_graph(tmp_path, g)
    code, out, _ = _run(capsys, "spectrum", path, "--p", "2", "--which", "largest")
    assert code == 0
    assert json.loads(out)["values"]["certificate"] == "perron-certified"


def test_cutoff_all_answers_on_a_huge_finite_weight(tmp_path, capsys):
    # the two certified bounds of L_3 differ by one ulp near 5e199, far
    # beyond an absolute slack of 1e-9 but within a relative one
    g = graph.validate(3, [(0, 1, 1e200, -1), (1, 2, 1.0, -1)])
    code, out, err = _run(capsys, "cutoff", _write_graph(tmp_path, g), "--k", "all")
    assert code == 0 and err == ""
    top = json.loads(out)["values"]["brackets"][-1]
    assert top["lower"] == pytest.approx(5e199, rel=1e-12) and top["exact"]


def test_cutoff_answers_where_unflushed_eigh_does_not_converge(tmp_path, capsys):
    from test_cutoff import WIDE_EIGH
    code, out, err = _run(capsys, "cutoff", _write_graph(tmp_path, WIDE_EIGH), "--k", "3")
    assert code == 0 and err == ""
    assert json.loads(out)["values"]["brackets"][0]["lower"] == 0.0


def test_report_values_take_numpy_scalars_and_refuse_other_types():
    assert jsonable({"a": (np.float64(0.5), np.int32(3), np.bool_(True)),
                     1: np.array([[1, 2]])}) == {"a": [0.5, 3, True], "1": [[1, 2]]}
    assert [type(x) for x in jsonable([np.float32(1.5), np.int64(2), np.bool_(False)])] \
        == [float, int, bool]
    for bad in (object(), {1, 2}, b"bytes", 1j):
        with pytest.raises(TypeError, match=f"a report value cannot be a {type(bad).__name__}"):
            jsonable({"values": [bad]})


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


def test_bounds_answers_above_the_exact_matching_cap(tmp_path, capsys):
    # no exact matching above MIS_CAP: beta is not reported, nothing raises
    code, out, _ = _run(capsys, "generate", "random", "--n", "40", "--prob", "0.2",
                        "--seed", "0")
    assert code == 0
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out, err = _run(capsys, "bounds", str(path))
    assert code in (0, 1) and err == ""
    values = json.loads(out)["values"]
    assert values["beta"] is None and values["matching"] is None
    assert not any("beta" in c["name"] for c in json.loads(out)["checks"])


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


def test_verify_tensor_passes_the_defect_on_heavy_weights(tmp_path, capsys):
    # the cone stop bounds the defect by at most 1e-10 whatever the weights;
    # weights 1e4 make lambda about 1e6 at p = 4
    g = random_connected_antibalanced(7, 0.5, 2)
    heavy = graph.validate(7, [(e.u, e.v, e.w * 1e4, e.sigma) for e in g.edges])
    code, out, _ = _run(capsys, "verify", "tensor", _write_graph(tmp_path, heavy))
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["tensor correspondence p=4"]["status"] == "pass"
    assert code == 0


def test_verify_all_reuses_the_grids_pairs_for_the_tensor_suite(tmp_path, capsys, monkeypatch):
    # the monotonicity grid has solved p = 2 and 4 bit for bit as the tensor
    # suite's own solves would: two one-p cone iterations fewer, same report
    path = _write_graph(tmp_path, random_connected_antibalanced(7, 0.5, 2))
    refine, one_p = solver._power_refine, []

    def counted(gneg, ps, *rule):
        one_p.extend(ps if len(ps) == 1 else ())
        return refine(gneg, ps, *rule)
    monkeypatch.setattr(solver, "_power_refine", counted)
    code, out, _ = _run(capsys, "verify", "all", path)
    assert code == 0 and one_p == []
    tensor_suite = cli._verify_tensor
    monkeypatch.setattr(cli, "_verify_tensor",
                        lambda g, args, rep, ln, solved: tensor_suite(g, args, rep, ln, {}))
    code2, out2, _ = _run(capsys, "verify", "all", path)
    assert code2 == 0 and one_p == [2, 4]
    assert out2 == out


def test_verify_monotonicity_classifies_balance_once(tmp_path, capsys, monkeypatch):
    # one sign search answers "connected and antibalanced" and classifies
    # the balance; the bottom solve at every p of the grid reuses that answer
    calls = []
    propagate = graph._propagate

    def counted(g):
        calls.append(g)
        return propagate(g)
    monkeypatch.setattr(graph, "_propagate", counted)
    g = families.random_graph(7, 0.6, 1)
    assert graph.classify_balance(g).kind == "balanced"
    calls.clear()
    code, _, _ = _run(capsys, "verify", "monotonicity", _write_graph(tmp_path, g))
    assert code == 0
    assert len(calls) == 1


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
    # the grid is parsed before the graph is read
    assert main(["verify", "monotonicity", "g.json", "--p-grid", "1.5,x"]) == 2
    assert capsys.readouterr().err == "plap: error: bad p-grid '1.5,x'\n"


@pytest.mark.parametrize("k", ["0", "4"])
def test_cutoff_rejects_k_outside_one_to_n(tmp_path, capsys, k):
    path = _write_graph(tmp_path, families.complete(3))
    code, out, err = _run(capsys, "cutoff", path, "--k", k)
    assert (code, out, err) == (2, "", f"plap: error: k must be in [1, 3], got {k}\n")


@pytest.mark.parametrize("k, want", [("x", "k must be an integer index, got 'x'"),
                                     ("2.5", "k must be an integer index, got 2.5"),
                                     ("4.0", "k must be in [1, 3], got 4")])
def test_cutoff_reads_k_by_the_index_rule(tmp_path, capsys, k, want):
    path = _write_graph(tmp_path, families.complete(3))
    assert _run(capsys, "cutoff", path, "--k", k) == (2, "", f"plap: error: {want}\n")


def test_cutoff_reads_an_integral_float_k_as_the_index(tmp_path, capsys):
    path = _write_graph(tmp_path, families.complete(3))
    reports = []
    for k in ("2.0", "2"):
        code, out, err = _run(capsys, "cutoff", path, "--k", k)
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
        assert reports[-1].pop("command")[-1] == k
    assert reports[0] == reports[1]


VERIFY_SUITES = ("monotonicity", "interlacing", "limit", "tensor", "all")


@pytest.mark.parametrize("cmd, budget", [
    (("cutoff",), "-1"), (("verify", "interlacing"), "-3"),
    *[(("verify", suite), "-3") for suite in VERIFY_SUITES if suite != "interlacing"]])
def test_a_negative_budget_is_a_usage_error(tmp_path, capsys, cmd, budget):
    # checked before the graph is read, so also where no suite would read
    # it: a one-vertex graph skips the interlacing suite
    for g in (families.complete(3), families.edgeless(1)):
        path = _write_graph(tmp_path, g)
        assert _run(capsys, *cmd, path, "--budget", budget) == (
            2, "", f"plap: error: budget must be a nonnegative integer, got {budget}\n")


@pytest.mark.parametrize("argv", [
    ("spectrum", "{signed}", "--p", "2", "--which", "largest"),
    ("spectrum", "{signed}", "--p", "3", "--which", "largest"),
    ("spectrum", "{anti}", "--p", "3", "--which", "largest"),
    ("cutoff", "{signed}", "--k", "all"), ("bounds", "{signed}"),
    *[("verify", suite, "{anti}") for suite in VERIFY_SUITES],
    ("generate", "random", "--n", "4")], ids=" ".join)
def test_every_command_with_a_seed_refuses_a_negative_one(tmp_path, capsys, argv):
    paths = {"signed": _write_graph(tmp_path, families.random_graph(8, 0.5, 3, signed=True)),
             "anti": _write_graph(tmp_path, random_connected_antibalanced(8, 0.5, 0), "a.json")}
    argv = [arg.format(**paths) for arg in argv]
    assert _run(capsys, *argv, "--seed", "-1") == (
        2, "", "plap: error: seed must be a nonnegative integer, got -1\n")


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_an_empty_p_grid_is_a_usage_error(tmp_path, capsys, suite):
    path = _write_graph(tmp_path, random_connected_antibalanced(8, 0.5, 0))
    assert _run(capsys, "verify", suite, path, "--p-grid", "") == (
        2, "", "plap: error: bad p-grid ''\n")


def test_verify_interlacing_skips_a_one_vertex_graph(tmp_path, capsys):
    path = _write_graph(tmp_path, families.edgeless(1))
    code, out, _ = _run(capsys, "verify", "interlacing", path)
    assert code == 0
    assert [(c["name"], c["status"], c["values"]) for c in json.loads(out)["checks"]] == [
        ("interlacing", "skip", {"reason": "need at least 2 vertices"})]


def test_verify_limit_needs_an_edge(tmp_path, capsys):
    # one vertex is connected antibalanced, but has no Perron pair to track
    path = _write_graph(tmp_path, families.complete(1))
    assert _run(capsys, "verify", "limit", path) == (2, "", "plap: error: limit scan needs an edge\n")
    code, out, err = _run(capsys, "verify", "all", path)
    assert code == 0 and err == ""
    limit = [c for c in json.loads(out)["checks"] if c["name"] == "eigenfunction limit"]
    assert [(c["status"], c["values"]) for c in limit] == [("skip", {"reason": "graph has no edge"})]


@pytest.mark.parametrize("suite", ["monotonicity", "interlacing", "limit", "tensor", "all"])
def test_no_verify_suite_raises_on_one_vertex(suite, tmp_path, capsys):
    # a skip or a usage error (monotonicity: D must be positive), not an exception
    code, _, err = _run(capsys, "verify", suite, _write_graph(tmp_path, families.complete(1)))
    assert (code, err.startswith("plap: error: ")) in ((0, False), (2, True))


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
    ("cutoff", "--restarts"), ("bounds", "--tol"), ("bounds", "--restarts"),
    ("bounds", "--budget")])
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


def test_monotonicity_searches_signs_once_on_an_antibalanced_cycle(
        tmp_path, capsys, monkeypatch):
    # one sign search answers "connected and antibalanced" for every top
    # solve of the grid and classifies the balance
    calls = []
    propagate = graph._propagate

    def counted(g):
        calls.append(g)
        return propagate(g)
    monkeypatch.setattr(graph, "_propagate", counted)
    path = _write_graph(tmp_path, graph.negate(families.cycle(6)))
    code, _, _ = _run(capsys, "verify", "monotonicity", path)
    assert code == 0 and len(calls) == 1
    # verify all adds one: the limit scan's switched copy, whose top solves
    # share its answer
    calls.clear()
    code, _, _ = _run(capsys, "verify", "all", path)
    assert code == 0 and len(calls) == 2


def _weighted_antibalanced_with_potential():
    g = graph.negate(families.complete(6))
    rng = np.random.default_rng(4)
    edges = [(e.u, e.v, float(rng.uniform(0.2, 3.0)), e.sigma) for e in g.edges]
    return graph.validate(6, edges, mu=rng.uniform(0.3, 4.0, 6).tolist(),
                          kappa=rng.uniform(0.1, 2.0, 6).tolist())


@pytest.mark.parametrize("suite", ["monotonicity", "limit", "all"])
@pytest.mark.parametrize("g", [graph.negate(families.complete(5)),
                               _weighted_antibalanced_with_potential()],
                         ids=["kappa0", "kappa-positive"])
def test_a_stacked_p_grid_reports_what_one_p_at_a_time_did(g, suite, tmp_path, capsys,
                                                           monkeypatch):
    path = _write_graph(tmp_path, g)
    stacked = _run(capsys, "verify", suite, path)
    grids, one_p = [], solver.solve_largest_grid

    def serial(g, ps, cfg=None):
        grids.append(len(ps))
        for p in ps:
            yield next(one_p(g, (p,), cfg))
    monkeypatch.setattr(solver, "solve_largest_grid", serial)
    monkeypatch.setattr(cutoff, "solve_largest_grid", serial)
    assert _run(capsys, "verify", suite, path) == stacked
    assert stacked[0] == 0 and grids

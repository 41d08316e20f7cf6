"""Command-line front end.

Reads graph JSON from a file or stdin ('-'), writes a replayable report
JSON (and optional CSV for p-grids).  Exit codes: 0 all checks pass,
1 at least one check failed (witness in the report), 2 usage or input
error, a file that cannot be read or written (any OSError) included.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, combinatorics, cutoff, families, graph, solver, tensor
from .report import Report, csv_rows, digest

DEFAULT_P_GRID = (1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)
LIMIT_P_GRID = (4.0, 8.0, 16.0, 32.0)

ANCHORS = {
    "m1": "2^-p * lambda_k(p) is non-increasing in p when kappa >= 0",
    "m2": "p * (lambda_k(p)/D)^(1/p) is non-decreasing in p when kappa >= 0",
    "interlacing": "L_k(G) <= L_k(G minus m vertices) <= L_{k+m}(G)",
    "limit": "|f_p|^(p/2) tends to the Perron vector of the negated "
             "normalized adjacency (connected antibalanced graphs)",
    "tensor-identity": "the even-p tensor apply equals the p-Laplacian apply",
    "tensor-defect": "a certified eigenpair satisfies the normalized tensor "
                     "eigen-equation",
    "tensor-bound": "top tensor eigenvalue >= 2^(p-1) * lambda_n(negated "
                    "normalized adjacency of best spanning subgraph) - max|kappa/mu|",
    "bracket": "lower_k <= L_k <= upper_k with certificates on both sides",
    "solver": "residual of the eigen-equation within tolerance",
    "inertia": "independence and edge-cover bounds from zero cutoff eigenvalues",
    "validate": "graph satisfies all structural invariants",
}


def _read_graph(path: str) -> tuple[graph.SignedGraph, bytes]:
    raw = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise SystemExit(_usage_error(f"malformed JSON at byte offset {exc.pos}: {exc.msg}"))
    return graph.from_json_dict(doc), raw


def _usage_error(msg: str) -> int:
    print(f"plap: error: {msg}", file=sys.stderr)
    return 2


def _emit(text: str, out: str) -> None:
    """Write text and a newline to stdout ('-') or a file."""
    text += "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _number(text: str):
    """text as an int, else a float, else as it is, for cutoff's index check
    to read or name: '3' and '3.0' are index 3, and 'x' is refused by name."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _solver_cfg(args) -> solver.SolverConfig:
    return solver.SolverConfig(tol=args.tol, restarts=args.restarts,
                               rng_seed=args.seed)


# --- subcommands -------------------------------------------------------------
#
# Each body gets the graph, the parsed arguments and the report; main reads
# the graph, builds the report, and emits it after the body returns.

def _cmd_validate(g, args, rep: Report) -> None:
    rep.add("validate", ANCHORS["validate"], True,
            {"n": g.n, "edges": g.m,
             "balance": graph.classify_balance(g).kind})
    rep.values["graph"] = graph.to_json_dict(g)


def _cmd_spectrum(g, args, rep: Report) -> None:
    solve = solver.solve_largest if args.which == "largest" else solver.solve_smallest
    try:
        pair = solve(g, args.p, _solver_cfg(args))
    except solver.SolverError as exc:
        rep.add("solver convergence", ANCHORS["solver"], False, {"error": str(exc)})
        return
    rep.add("solver convergence", ANCHORS["solver"],
            pair.residual <= args.tol * (1 + abs(pair.value)),
            {"lambda": pair.value, "residual": pair.residual,
             "certificate": pair.certificate})
    rep.values.update({"p": args.p, "which": args.which, "lambda": pair.value,
                       "residual": pair.residual, "certificate": pair.certificate,
                       "f": pair.f})


def _cmd_cutoff(g, args, rep: Report) -> None:
    ks = list(range(1, g.n + 1)) if args.k == "all" else [_number(args.k)]
    brackets = []
    for b in cutoff.brackets(g, ks, budget=args.budget, seed=args.seed):
        brackets.append({"k": b.k, "lower": b.lower, "upper": b.upper,
                         "exact": b.exact,
                         "lower_certificate": b.lower_certificate,
                         "upper_certificate": b.upper_certificate})
        rep.add(f"bracket k={b.k}", ANCHORS["bracket"],
                b.exact if args.exact else True,
                {"lower": b.lower, "upper": b.upper, "exact": b.exact})
    rep.values["brackets"] = brackets


def _cmd_bounds(g, args, rep: Report) -> None:
    ir = combinatorics.inertia_report(g, seed=args.seed)
    for name, passed, details in ir.checks:
        witness = details.pop("witness", None)
        rep.add(name, ANCHORS["inertia"], passed, details,
                witness={"graph": witness} if witness else None)
    rep.values.update({"alpha": ir.alpha, "alpha_exact": ir.alpha_exact,
                       "alpha_witness": ir.alpha_witness, "beta": ir.beta,
                       "matching": ir.matching_size,
                       "zero_count_proxies": ir.zero_count_proxies,
                       "cvetkovic": ir.cvetkovic_value,
                       "L_n": ir.exact_ln_value,
                       "L_n_exact": ir.exact_ln_is_exact})


def _verify_monotonicity(g, args, rep: Report, strict: bool, solved: dict) -> list[dict]:
    """The m1/m2 checks and the CSV rows; each top pair of the grid goes to
    solved by its p, as solve_largest(g, p, cfg) would return it."""
    if min(g.kappa) < 0:
        reason = "monotonicity check requires kappa >= 0"
    elif graph.structural_constants(g)[0] <= 0:
        reason = "D must be positive (graph without edges or potential)"
    else:
        reason = None
    if reason:
        if strict:
            raise SystemExit(_usage_error(reason))
        rep.add("monotonicity", ANCHORS["m1"], None, {"reason": reason})
        return []
    grid = args.p_grid
    cfg = _solver_cfg(args)
    sides = []
    if g.m and graph.connected_antibalancing_tau(g) is not None:
        pairs = list(solver.solve_largest_grid(g, grid, cfg))
        solved.update(zip(grid, pairs))
        if all(pr.certificate == "perron-certified" for pr in pairs):
            sides.append(("top", g.n, pairs))
    if graph.classify_balance(g).balanced_witness is not None:
        sides.append(("bottom", 1, [solver.solve_smallest(g, p, cfg) for p in grid]))
    rows: list[dict] = []
    for side, k_label, pairs in sides:
        lams = [pr.value for pr in pairs]
        mono = solver.monotonicity_functionals(g, k_label, grid, lams)
        rep.add(f"m1 non-increasing ({side} index)", ANCHORS["m1"],
                not any(v[1] == "m1" for v in mono.violations),
                {"p_grid": grid, "lambda": lams, "m1": mono.m1})
        rep.add(f"m2 non-decreasing ({side} index)", ANCHORS["m2"],
                not any(v[1] == "m2" for v in mono.violations),
                {"p_grid": grid, "m2": mono.m2})
        rows = rows or [{"p": p, "lambda": pr.value, "residual": pr.residual,
                         "m1": m1, "m2": m2}
                        for p, pr, m1, m2 in zip(grid, pairs, mono.m1, mono.m2)]
    if not sides:
        rep.add("monotonicity", ANCHORS["m1"], None,
                {"reason": "no certifiable extremal index for this graph "
                           "(not balanced, not connected antibalanced)"})
    return rows


def _verify_interlacing(g, args, rep: Report, ln) -> None:
    if g.n < 2:
        rep.add("interlacing", ANCHORS["interlacing"], None,
                {"reason": "need at least 2 vertices"})
        return
    removals = range(g.n) if g.n <= 12 else range(12)
    for v, res in zip(removals, cutoff.interlacing_checks(
            g, [[v] for v in removals], budget=args.budget, ln=ln)):
        details = {name: d for name, _, d in res.items}
        rep.add(f"interlacing, remove vertex {v}", ANCHORS["interlacing"],
                res.ok, details,
                witness=None if res.ok else {"graph": graph.to_json_dict(g)})


def _verify_limit(g, args, rep: Report, strict: bool) -> None:
    if graph.connected_antibalancing_tau(g) is None:
        if strict:
            raise SystemExit(_usage_error(
                "limit scan needs a connected antibalanced graph"))
        rep.add("eigenfunction limit", ANCHORS["limit"], None,
                {"reason": "graph is not connected antibalanced"})
        return
    if not g.m:
        if strict:
            raise SystemExit(_usage_error("limit scan needs an edge"))
        rep.add("eigenfunction limit", ANCHORS["limit"], None, {"reason": "graph has no edge"})
        return
    scan = cutoff.limit_scan(g, LIMIT_P_GRID, _solver_cfg(args))
    overall = scan.distances[-1] <= scan.distances[0] + solver.MONO_SLACK
    rep.add("eigenfunction limit", ANCHORS["limit"], overall,
            {"p_grid": scan.p_grid, "distances": scan.distances,
             "eigenvalues": scan.eigenvalues})


def _verify_tensor(g, args, rep: Report, ln, solved: dict) -> None:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for p in (2, 4, 6):
        t = tensor.build_tensor(g, p)
        for _ in range(10):
            f = rng.standard_normal(g.n)
            a = tensor.apply_tensor(t, f)
            b = solver.apply_plap(g, p, f)
            scale = max(1e-300, float(np.max(np.abs(f))) ** (p - 1))
            worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    rep.add("tensor apply identity", ANCHORS["tensor-identity"], worst <= 1e-10,
            {"max_relative_defect": worst})
    for p in (2, 4):
        try:
            pair = solved[p] if p in solved else solver.solve_largest(g, p, _solver_cfg(args))
        except solver.SolverError as exc:
            rep.add(f"tensor correspondence p={p}", ANCHORS["tensor-defect"],
                    False, {"error": str(exc)})
            continue
        cor = tensor.eigen_correspondence(g, p, pair, ln=ln)
        rep.add(f"tensor correspondence p={p}", ANCHORS["tensor-defect"],
                cor.defect_ok, {"defect": cor.defect, "lambda": cor.value})
        rep.add(f"tensor spectral bound p={p}", ANCHORS["tensor-bound"],
                None if cor.bound_confirmed is None else cor.bound_confirmed,
                {"lower_bound": cor.lower_bound, "lambda": cor.value,
                 "certificate": pair.certificate})


def _cmd_verify(g, args, rep: Report) -> None:
    rows: list[dict] = []
    # exact L_n of the graph, once for the interlacing and tensor suites
    ln = cutoff.exact_ln(g) if args.suite in ("interlacing", "tensor", "all") else None
    # the top pairs the grid solved, for the tensor suite to reuse
    solved: dict = {}
    if args.suite in ("monotonicity", "all"):
        rows = _verify_monotonicity(g, args, rep, strict=args.suite == "monotonicity",
                                    solved=solved)
    if args.suite in ("interlacing", "all"):
        _verify_interlacing(g, args, rep, ln)
    if args.suite in ("limit", "all"):
        _verify_limit(g, args, rep, strict=args.suite == "limit")
    if args.suite in ("tensor", "all"):
        _verify_tensor(g, args, rep, ln, solved)
    if args.csv and rows:
        with open(args.csv, "w") as fh:
            fh.write(csv_rows(rows))


_COMMANDS = {"validate": _cmd_validate, "spectrum": _cmd_spectrum,
             "cutoff": _cmd_cutoff, "bounds": _cmd_bounds, "verify": _cmd_verify}


def _cmd_generate(args) -> int:
    size = families._FAMILIES[args.family][1][0]
    if getattr(args, size) is None:
        return _usage_error(f"generate {args.family} needs --{size}")
    # only the flags given: generate rejects one the family does not take
    params = {key: getattr(args, key) for key in ("n", "m", "d", "prob", "seed", "signed")
              if getattr(args, key) is not None}
    g = families.generate(args.family, negated=args.negate, **params)
    _emit(graph.dumps(g, indent=2), args.out)
    return 0


# --- argument parsing --------------------------------------------------------

# (type, default) of the flags several commands share; each command
# registers the ones it reads
_SHARED_FLAGS = {"seed": (int, solver.SolverConfig.rng_seed),
                 "tol": (float, solver.SolverConfig.tol),
                 "restarts": (int, solver.SolverConfig.restarts),
                 "budget": (int, cutoff.DEFAULT_BUDGET)}

# one parser per process: parse_args leaves it as it was, and building it
# takes about 1.5 ms, a large share of a short command
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="plap",
        description="Signed-graph p-Laplacian spectral toolkit",
        epilog="Graphs are JSON ({'n': ..., 'edges': [{'u','v','w','sigma'}], "
               "'mu': [...], 'kappa': [...]}); '-' reads stdin.")
    ap.add_argument("--version", action="version", version=f"plap {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, *flags):
        """The graph, --out, and the named ones of the shared flags."""
        p.add_argument("graph", help="graph JSON path or '-' for stdin")
        p.add_argument("--out", default="-", help="report destination (default stdout)")
        for flag in flags:
            kind, default = _SHARED_FLAGS[flag]
            p.add_argument(f"--{flag}", type=kind, default=default)

    common(sub.add_parser("validate", help="check a graph and echo its canonical form"))

    p_spec = sub.add_parser("spectrum", help="extremal p-Laplacian eigenpair")
    common(p_spec, "seed", "tol", "restarts")
    p_spec.add_argument("--p", type=float, required=True)
    p_spec.add_argument("--which", choices=("largest", "smallest"), required=True)

    p_cut = sub.add_parser("cutoff", help="cutoff eigenvalue brackets")
    common(p_cut, "seed", "budget")
    p_cut.add_argument("--k", default="all", help="index in [1, n] or 'all'")
    p_cut.add_argument("--exact", action="store_true",
                       help="fail unless every requested bracket is exact")

    common(sub.add_parser("bounds", help="independence/edge-cover bound report"), "seed")

    p_ver = sub.add_parser("verify", help="one-command verification suites")
    p_ver.add_argument("suite", choices=("monotonicity", "interlacing", "limit",
                                         "tensor", "all"))
    common(p_ver, "seed", "tol", "restarts", "budget")
    p_ver.add_argument("--p-grid", dest="p_grid", default=None,
                       help="comma-separated increasing p values")
    p_ver.add_argument("--csv", default=None, help="write the p-grid CSV here")

    p_gen = sub.add_parser("generate", help="emit a family graph as JSON")
    p_gen.add_argument("family", choices=("complete", "star", "path", "cycle",
                                          "edgeless", "hypercube", "random"))
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--m", type=int, default=None)
    p_gen.add_argument("--d", type=int, default=None)
    p_gen.add_argument("--prob", type=float, default=None)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--signed", action="store_true", default=None,
                       help="draw random edge signs (random family)")
    p_gen.add_argument("--negate", action="store_true",
                       help="flip every sign afterwards")
    p_gen.add_argument("--out", default="-")
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # counts are refused here, whether or not the graph makes a suite read them
    for flag in ("seed", "budget"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            return _usage_error(f"{flag} must be a nonnegative integer, got {value}")
    if args.cmd == "verify":
        try:
            args.p_grid = (DEFAULT_P_GRID if args.p_grid is None
                           else tuple(float(x) for x in args.p_grid.split(",")))
        except ValueError:
            return _usage_error(f"bad p-grid {args.p_grid!r}")
    try:
        # an output that cannot be written fails before the work; an
        # output that can is left as it was until the report is written
        for path in (args.out, getattr(args, "csv", None)):
            if path not in (None, "-"):
                made = not os.path.lexists(path)
                open(path, "a").close()
                if made:
                    os.remove(path)
        if args.cmd == "generate":
            return _cmd_generate(args)
        g, raw = _read_graph(args.graph)
        rep = Report(command=["plap"] + argv, input_digest=digest(raw),
                     seed=getattr(args, "seed", None))
        _COMMANDS[args.cmd](g, args, rep)
        _emit(rep.dumps(), args.out)
        return 1 if rep.failed else 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ValueError, TypeError) as exc:   # GraphError is a ValueError
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())

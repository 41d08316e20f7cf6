"""The four benchmark workloads: seeded inputs, job lists and answer checks.

A job is one call into plap (or one in-process CLI invocation, or one batch
of operator calls).  `build(workload, seed, workdir)` generates and
validates every graph a workload needs and returns its job list; the list is
fixed by the seed and shuffled by it, so the same seed gives the same jobs
in the same order.

Graphs whose answers have no closed form come from fixed, indexed pools and
are checked against values recorded in reference.json (see record.py); the
seed picks which pool members a run uses, except for the graphs each
workload keeps fixed (README.md says which and why).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import plap
from plap import cli, cutoff, families, graph, solver, tensor

import oracle

HERE = Path(__file__).resolve().parent
P_EXTREMAL = (1.5, 2.0, 3.0, 4.0, 8.0)
P_SPARSE = (1.5, 3.0, 8.0)
ENUM_POOL = 12          # signed pool members with a recorded L_n, per n
EXACT_CERTS = ("perron-certified", "closed-form")


@dataclass
class Outcome:
    ok: bool                    # False: an answer is wrong or differs from the baseline
    answers: int = 0
    exact: int = 0
    note: str = ""
    failed: bool = False        # the job failed the way the baseline recorded it


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    expect: str = "answer"      # the baseline's outcome: "answer" or an exception name
    command: str = ""           # CLI command label, for per-command metrics
    n: int = 0                  # vertex count of an exact_ln job's graph


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


# --- graph generators ------------------------------------------------------------

def signed_graph(n: int, i: int):
    """Generic random signed graph G(n, 1/2), pool member i."""
    return families.random_graph(n, 0.5, i, signed=True)


def _connected_edges(n: int, prob: float, rng) -> list[tuple[int, int]]:
    while True:
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < prob]
        adj = {a: set() for a in range(n)}
        for a, b in pairs:
            adj[a].add(b)
            adj[b].add(a)
        seen, stack = {0}, [0]
        while stack:
            for b in adj[stack.pop()] - seen:
                seen.add(b)
                stack.append(b)
        if len(seen) == n:
            return pairs


def antibalanced_graph(n: int, rng, prob: float = 0.5):
    """Connected graph with sigma_uv = -tau_u tau_v for a random tau."""
    tau = np.where(rng.random(n) < 0.5, 1, -1)
    return plap.validate(n, [(a, b, 1.0, int(-tau[a] * tau[b]))
                             for a, b in _connected_edges(n, prob, rng)])


def anti_pool_graph(n: int, i: int):
    return antibalanced_graph(n, np.random.default_rng([n, i, 7]))


def balanced_kappa_graph(n: int, rng):
    """Connected balanced graph (sigma_uv = tau_u tau_v) with a non-constant
    potential, so solve_smallest cannot use the switched-constant closed form."""
    tau = np.where(rng.random(n) < 0.5, 1, -1)
    kappa = rng.uniform(0.1, 1.0, n)
    return plap.validate(n, [(a, b, 1.0, int(tau[a] * tau[b]))
                             for a, b in _connected_edges(n, 0.6, rng)], kappa=kappa)


def sparse_antibalanced_graph(n: int, m: int, rng):
    """Ring plus random chords (connected, m edges), switched to antibalanced."""
    perm = rng.permutation(n)
    edges = {tuple(sorted((int(perm[i]), int(perm[(i + 1) % n])))) for i in range(n)}
    while len(edges) < m:
        a, b = (int(x) for x in rng.integers(0, n, 2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    tau = np.where(rng.random(n) < 0.5, 1, -1)
    return plap.validate(n, [(a, b, 1.0, int(-tau[a] * tau[b])) for a, b in sorted(edges)])


def _tau_of(g) -> np.ndarray:
    """An antibalancing switching, found independently of plap by BFS."""
    tau = np.zeros(g.n, dtype=int)
    adj = [[] for _ in range(g.n)]
    for e in g.edges:
        adj[e.u].append((e.v, e.sigma))
        adj[e.v].append((e.u, e.sigma))
    for root in range(g.n):
        if tau[root]:
            continue
        tau[root], stack = 1, [root]
        while stack:
            i = stack.pop()
            for j, s in adj[i]:
                if not tau[j]:
                    tau[j] = -s * tau[i]
                    stack.append(j)
    return tau


# --- eigenpair checks ---------------------------------------------------------------

def eigen_check(g, p: float, largest: bool, ref: float | None, ref_exact: bool,
                perron_tau: np.ndarray | None = None) -> Callable[[Any], Outcome]:
    """Check a PEigenPair: residual within tol (reported and recomputed),
    direction-aware agreement with the reference, and, for a Perron claim,
    that the switched eigenfunction is strictly one-signed."""
    a = oracle.Arrays.of(g)
    bounds = oracle.perron_bounds(a, p, perron_tau) if perron_tau is not None else None

    def check(pair) -> Outcome:
        lam = pair.value
        tol = oracle.SOLVER_TOL * (1.0 + abs(lam))
        notes = []
        if not (np.isfinite(lam) and pair.residual <= tol):
            notes.append(f"reported residual {pair.residual:.3g} > {tol:.3g}")
        res = oracle.residual(a, p, lam, np.asarray(pair.f, dtype=float))
        if not res <= tol:
            notes.append(f"recomputed residual {res:.3g} > {tol:.3g}")
        if ref is not None:
            side = oracle.at_least(lam, ref) if largest else oracle.at_most(lam, ref)
            if not side or (ref_exact and not oracle.near(lam, ref)):
                notes.append(f"value {lam!r} vs reference {ref!r}")
        if bounds is not None and not (oracle.at_least(lam, bounds[0])
                                       and oracle.at_most(lam, bounds[1])):
            notes.append(f"value {lam!r} outside [{bounds[0]!r}, {bounds[1]!r}]")
        if pair.certificate == "perron-certified" and perron_tau is not None:
            h = perron_tau * np.asarray(pair.f, dtype=float)
            if not (np.all(h > 0) or np.all(h < 0)):
                notes.append("perron claim without a one-signed eigenfunction")
        exact = pair.certificate in EXACT_CERTS
        return Outcome(ok=not notes, answers=1, exact=int(exact), note="; ".join(notes))
    return check


def solve_job(name: str, g, p: float, largest: bool, ref: float | None,
              ref_exact: bool, expect: str = "answer",
              perron_tau: np.ndarray | None = None) -> Job:
    which = "solve_largest" if largest else "solve_smallest"
    return Job(name=name, run=lambda: getattr(solver, which)(g, p),
               check=eigen_check(g, p, largest, ref, ref_exact, perron_tau),
               expect=expect)


def recorded_solve(ref: dict, key: str) -> tuple[float | None, str]:
    rec = ref["solve"][key]
    return rec.get("value"), rec.get("error", "answer")


# --- extremal -----------------------------------------------------------------------

EXTREMAL_GENERIC = [(n, i) for n in (6, 8) for i in range(4)]


def extremal_jobs(rng, ref: dict, workdir: Path) -> list[Job]:
    jobs = []
    for m in range(3, 9):
        g = families.star(m)
        for p in P_EXTREMAL:
            jobs.append(solve_job(f"largest S{m} p={p}", g, p, True,
                                  solver.closed_form_star(m, p), True))
            jobs.append(solve_job(f"smallest S{m} p={p}", g, p, False, 0.0, True))
    for n in range(3, 7):
        g = families.complete(n)
        for p in P_EXTREMAL:
            jobs.append(solve_job(f"smallest K{n} p={p}", g, p, False, 0.0, True))
            if p != 1.5:
                jobs.append(solve_job(f"largest K{n} p={p}", g, p, True,
                                      solver.complete_extremes(n, p)[1], True))
    for n in range(4, 9):
        # fixed graphs: their solves (1-3 ms) straddle the median job, so
        # graphs drawn per seed would move job_p50_ms between seeds
        g = antibalanced_graph(n, np.random.default_rng([n, 4]))
        tau = _tau_of(g)
        p2_top = oracle.pencil_extremes(oracle.Arrays.of(g))[1]
        for p in P_EXTREMAL:
            jobs.append(solve_job(f"largest antibalanced n={n} p={p}", g, p, True,
                                  p2_top if p == 2.0 else None, p == 2.0, perron_tau=tau))
    for n in (5, 7):
        # fixed graphs: the multi-restart cost of these ranges over 0.1-1.3 s
        g = balanced_kappa_graph(n, np.random.default_rng([n, 5]))
        lo, hi = oracle.pencil_extremes(oracle.Arrays.of(g))
        jobs.append(solve_job(f"largest balanced+kappa n={n} p=2", g, 2.0, True, hi, True))
        jobs.append(solve_job(f"smallest balanced+kappa n={n} p=2", g, 2.0, False, lo, True))
    for n, i in EXTREMAL_GENERIC:
        g = signed_graph(n, i)
        p2 = oracle.pencil_extremes(oracle.Arrays.of(g))
        for largest in (True, False):
            which = "largest" if largest else "smallest"
            value, expect = recorded_solve(ref, f"signed-n{n}-i{i}|{which}|1.5")
            jobs.append(solve_job(f"{which} generic n={n} i={i} p=1.5", g, 1.5, largest,
                                  value, False, expect=expect))
            jobs.append(solve_job(f"{which} generic n={n} i={i} p=2", g, 2.0, largest,
                                  p2[1] if largest else p2[0], True))
    return jobs


# --- sparse -------------------------------------------------------------------------

def _batch_job(name: str, g, kind: str, p: float, fs: list[np.ndarray]) -> Job:
    a = oracle.Arrays.of(g)
    if kind == "apply_plap":
        def run():
            return [solver.apply_plap(g, p, f) for f in fs]
        refs = [oracle.plap_apply(a, p, f) for f in fs]
    elif kind == "rayleigh":
        def run():
            return [solver.rayleigh(g, p, f) for f in fs]
        refs = [np.array(oracle.rayleigh(a, p, f)) for f in fs]
    else:
        pe = int(p)

        def run():
            t = tensor.build_tensor(g, pe)
            return [tensor.apply_tensor(t, f) for f in fs]
        refs = [oracle.plap_apply(a, pe, f) for f in fs]

    def check(outs) -> Outcome:
        for got, want in zip(outs, refs):
            if not np.allclose(got, want, rtol=1e-9, atol=1e-9 * (1.0 + float(np.max(np.abs(want))))):
                return Outcome(ok=False, note=f"{kind} disagrees with the reference")
        return Outcome(ok=True)
    return Job(name=name, run=run, check=check)


def sparse_jobs(rng, ref: dict, workdir: Path) -> list[Job]:
    # p = 1.5 is solved on the hypercubes only: on random sparse graphs the
    # positive-cone refinement can run all 5000 iterations and then fall
    # through to a 1000-vertex multi-restart that runs for minutes.
    graphs = [("hypercube(9)", families.hypercube(9), 9, P_SPARSE),
              ("hypercube(10)", families.hypercube(10), 10, P_SPARSE)]
    # the random graphs are the same for every seed (the seed orders the jobs
    # and draws the operator inputs): _power_refine's cost depends on the graph
    graphs += [(f"sparse antibalanced #{k}",
                sparse_antibalanced_graph(1000, 5000, np.random.default_rng([1000, k, 11])),
                None, P_SPARSE[1:]) for k in range(2)]
    jobs = []
    for label, g, d, solve_ps in graphs:
        tau = _tau_of(g)
        for p in solve_ps:
            top = oracle.hypercube_top(d, p) if d else None
            jobs.append(solve_job(f"largest {label} p={p}", g, p, True, top, d is not None,
                                  perron_tau=tau))
        for k in range(9):
            p = P_SPARSE[k % 3]
            fs = [rng.standard_normal(g.n) for _ in range(10)]
            jobs.append(_batch_job(f"apply_plap x10 {label} p={p}", g, "apply_plap", p, fs))
            fs = [rng.standard_normal(g.n) for _ in range(10)]
            jobs.append(_batch_job(f"rayleigh x10 {label} p={p}", g, "rayleigh", p, fs))
        for k in range(6):
            p = (2, 4)[k % 2]
            fs = [rng.standard_normal(g.n) for _ in range(3)]
            jobs.append(_batch_job(f"tensor p={p} x3 {label}", g, "tensor", p, fs))
    return jobs


# --- enumerate ----------------------------------------------------------------------

ENUM_LN_COUNTS = {10: 4, 11: 4, 12: 4, 13: 3, 14: 3, 15: 2, 16: 2}
ENUM_BRACKET_GRAPHS = (8, 8, 9, 9, 10, 10, 11, 12)
ENUM_INERTIA_N = tuple(range(8, 15))


def ln_check(ref_ln: float) -> Callable[[Any], Outcome]:
    def check(b) -> Outcome:
        notes = []
        if not b.lower <= b.upper + oracle.REF_RTOL * (1.0 + abs(b.upper)):
            notes.append(f"inverted bracket [{b.lower!r}, {b.upper!r}]")
        if not (oracle.at_most(b.lower, ref_ln) and oracle.at_least(b.upper, ref_ln)):
            notes.append(f"[{b.lower!r}, {b.upper!r}] misses L_n {ref_ln!r}")
        if b.exact and not oracle.near(b.lower, ref_ln):
            notes.append(f"exact L_n {b.lower!r} vs {ref_ln!r}")
        return Outcome(ok=not notes, answers=1, exact=int(b.exact), note="; ".join(notes))
    return check


def bracket_check(g, k: int, ref_ln: float) -> Callable[[Any], Outcome]:
    floor = float(oracle.full_graph_lower(oracle.Arrays.of(g))[k - 1])
    inner = ln_check(ref_ln) if k == g.n else None

    def check(b) -> Outcome:
        if inner is not None:
            return inner(b)
        ok = (b.lower >= 0.0 and b.lower <= b.upper + oracle.REF_RTOL * (1.0 + abs(b.upper))
              and oracle.at_least(b.upper, floor))
        return Outcome(ok=ok, answers=1, exact=int(b.exact),
                       note="" if ok else f"bracket [{b.lower!r}, {b.upper!r}], floor {floor!r}")
    return check


def inertia_check(g, ref_ln: float) -> Callable[[Any], Outcome]:
    def check(ir) -> Outcome:
        notes = [] if ir.ok else ["a report check failed"]
        if ir.exact_ln_is_exact and not oracle.near(ir.exact_ln_value, ref_ln):
            notes.append(f"L_n {ir.exact_ln_value!r} vs {ref_ln!r}")
        wit = set(ir.alpha_witness)
        if len(wit) != ir.alpha or any(e.u in wit and e.v in wit for e in g.edges):
            notes.append("independent-set witness is not independent")
        return Outcome(ok=not notes, answers=2,
                       exact=int(ir.exact_ln_is_exact) + int(ir.alpha_exact),
                       note="; ".join(notes))
    return check


def _pool_picks(rng, counts: dict[int, int], pool: int) -> dict[int, list[int]]:
    return {n: [int(i) for i in rng.choice(pool, size=c, replace=False)]
            for n, c in counts.items()}


def enumerate_jobs(rng, ref: dict, workdir: Path) -> list[Job]:
    need = dict(ENUM_LN_COUNTS)
    for n in ENUM_INERTIA_N:
        need[n] = need.get(n, 0) + 1
    picks = _pool_picks(rng, need, ENUM_POOL)

    def pooled(n: int, i: int | None = None):
        i = picks[n].pop() if i is None else i
        return signed_graph(n, i), ref["ln"][f"signed-n{n}-i{i}"], f"n={n} i={i}"

    jobs = []
    for n, count in ENUM_LN_COUNTS.items():
        kinds = (["complete"] if count >= 3 else []) + ["antibalanced"]
        kinds += ["signed"] * (count - len(kinds))
        for kind in kinds:
            if kind == "complete":
                g, ln, label = families.complete(n), oracle.complete_ln(n), f"K{n}"
            elif kind == "antibalanced":
                g = antibalanced_graph(n, rng)
                ln, label = oracle.antibalanced_ln(oracle.Arrays.of(g)), f"antibalanced n={n}"
            else:
                g, ln, label = pooled(n)
            jobs.append(Job(name=f"exact_ln {label}", run=lambda g=g: cutoff.exact_ln(g),
                            check=ln_check(ln), n=n))
    # the bracket graphs are the same for every seed: their cost and the
    # share of exact brackets depend on the graph, and they are 77 of 106 jobs
    for pos, n in enumerate(ENUM_BRACKET_GRAPHS):
        g, ln, label = pooled(n, ENUM_BRACKET_GRAPHS[:pos].count(n))
        for k in range(1, n + 1):
            jobs.append(Job(name=f"bracket k={k} {label}",
                            run=lambda g=g, k=k: cutoff.bracket(g, k),
                            check=bracket_check(g, k, ln)))
    for n in ENUM_INERTIA_N:
        g, ln, label = pooled(n)
        jobs.append(Job(name=f"inertia_report {label}",
                        run=lambda g=g: plap.inertia_report(g), check=inertia_check(g, ln)))
    return jobs


# --- cli ----------------------------------------------------------------------------

# (n, kind, {command: repeats}); a command that runs more than once on a
# graph has its report values compared across the repeats (the replay check).
CLI_RECIPE = [
    (8, "signed", {"bounds": 3, "monotonicity": 2, "spectrum": 2, "cutoff": 2, "verify-all": 1}),
    (8, "anti", {"bounds": 3, "monotonicity": 2, "spectrum": 2, "cutoff": 2, "verify-all": 2}),
    (8, "signed", {"bounds": 3, "monotonicity": 2, "spectrum": 2, "cutoff": 2, "verify-all": 2}),
    (9, "anti", {"bounds": 3, "monotonicity": 2, "spectrum": 2, "cutoff": 2, "verify-all": 1}),
    (9, "signed", {"bounds": 3, "monotonicity": 2, "spectrum": 2, "cutoff": 2, "verify-all": 1}),
    (9, "anti", {"bounds": 3, "monotonicity": 2, "spectrum": 2, "cutoff": 2, "verify-all": 1}),
    (10, "signed", {"bounds": 3, "monotonicity": 2, "spectrum": 1, "cutoff": 1}),
    (10, "anti", {"bounds": 3, "monotonicity": 2, "spectrum": 2, "cutoff": 1}),
    (10, "signed", {"bounds": 3, "monotonicity": 2, "spectrum": 1, "cutoff": 1}),
    (11, "anti", {"bounds": 3, "monotonicity": 2, "spectrum": 2, "cutoff": 1}),
    (11, "signed", {"bounds": 3, "monotonicity": 2, "spectrum": 1, "cutoff": 1}),
    (12, "anti", {"bounds": 3, "monotonicity": 2, "spectrum": 2, "cutoff": 1}),
]


def cli_pool_members() -> list[int]:
    """Pool member of each recipe entry: the first unused one of its (n, kind).

    The cli graphs are the same for every seed, which orders the jobs only:
    with graphs drawn per seed, the multi-restart commands (0.2-4 s each by
    graph) moved jobs_per_s by +-30 % between seeds."""
    seen: dict[tuple[int, str], int] = {}
    out = []
    for n, kind, _ in CLI_RECIPE:
        out.append(seen.get((n, kind), 0))
        seen[(n, kind)] = out[-1] + 1
    return out


def cli_graph(kind: str, n: int, i: int):
    return signed_graph(n, i) if kind == "signed" else anti_pool_graph(n, i)


def cli_argv(command: str, path: str, kind: str, i: int) -> list[str]:
    if command == "verify-all":
        return ["verify", "all", path]
    if command == "monotonicity":
        return ["verify", "monotonicity", path]
    if command == "cutoff":
        return ["cutoff", path, "--k", "all"]
    if command == "bounds":
        return ["bounds", path]
    # generic signed graphs take the multi-restart path, whose cost at p != 2
    # ranges over 0.3-7 s by graph; antibalanced ones take the Perron path
    p = "2" if kind == "signed" else ("3", "4", "8")[i % 3]
    return ["spectrum", path, "--p", p, "--which", "largest"]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in report")


def cli_answers(command: str, values: dict) -> tuple[int, int]:
    if command == "cutoff":
        return len(values["brackets"]), sum(bool(b["exact"]) for b in values["brackets"])
    if command == "bounds":
        return 2, int(values["L_n_exact"]) + int(values["alpha_exact"])
    if command == "spectrum":
        return 1, int(values["certificate"] in EXACT_CERTS)
    return 0, 0


def cli_jobs(rng, ref: dict, workdir: Path) -> list[Job]:
    first_values: dict[str, str] = {}
    jobs = []
    for (n, kind, commands), i in zip(CLI_RECIPE, cli_pool_members()):
        g = cli_graph(kind, n, i)
        gid = f"{kind}-n{n}-i{i}"
        path = workdir / f"{gid}.json"
        path.write_text(graph.dumps(g) + "\n")
        a = oracle.Arrays.of(g)
        ln = oracle.antibalanced_ln(a) if kind == "anti" else ref["ln"][f"signed-n{n}-i{i}"]
        for command, reps in commands.items():
            argv = cli_argv(command, str(path), kind, i)
            key = f"{gid}|{command}"
            want_rc = ref["cli"][key]
            for _ in range(reps):
                jobs.append(Job(name=f"plap {command} {gid}",
                                run=lambda argv=argv: run_cli(argv),
                                check=_cli_check(key, command, want_rc, ln, first_values),
                                command=command))
    return jobs


def _cli_check(key: str, command: str, want_rc: int, ln: float,
               first_values: dict) -> Callable[[Any], Outcome]:
    def check(result) -> Outcome:
        rc, text = result
        if rc not in (want_rc, 0):      # 0 where the baseline failed is a fix
            return Outcome(ok=False, note=f"exit code {rc}, baseline recorded {want_rc}")
        try:
            report = json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            return Outcome(ok=False, note=f"report is not strict JSON: {exc}")
        values = json.dumps(report["values"], sort_keys=True)
        if first_values.setdefault(key, values) != values:
            return Outcome(ok=False, note="values section differs from an earlier repeat")
        notes = []
        vals = report["values"]
        if command == "cutoff":
            top = vals["brackets"][-1]
            if not (oracle.at_most(top["lower"], ln) and oracle.at_least(top["upper"], ln)):
                notes.append(f"L_n bracket misses {ln!r}")
            if any(b["lower"] > b["upper"] + oracle.REF_RTOL * (1 + abs(b["upper"]))
                   for b in vals["brackets"]):
                notes.append("inverted bracket")
        elif command == "bounds" and vals["L_n_exact"] and not oracle.near(vals["L_n"], ln):
            notes.append(f"L_n {vals['L_n']!r} vs {ln!r}")
        elif command == "spectrum":
            lam = vals["lambda"]
            if not vals["residual"] <= oracle.SOLVER_TOL * (1 + abs(lam)):
                notes.append(f"residual {vals['residual']!r}")
        answers, exact = cli_answers(command, vals)
        return Outcome(ok=not notes, answers=answers, exact=exact,
                       note="; ".join(notes) or (f"exit code {rc}, as recorded" if rc else ""),
                       failed=rc != 0)
    return check


JOB_LISTS = {"extremal": extremal_jobs, "sparse": sparse_jobs,
            "enumerate": enumerate_jobs, "cli": cli_jobs}
TAGS = {"extremal": 1, "sparse": 2, "enumerate": 3, "cli": 4}


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Generate and validate the workload's inputs and return its job list."""
    rng = np.random.default_rng([seed, TAGS[workload]])
    jobs = JOB_LISTS[workload](rng, load_reference(), workdir)
    order = rng.permutation(len(jobs))
    return [jobs[k] for k in order]

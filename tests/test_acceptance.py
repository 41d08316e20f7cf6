"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every tolerance is fixed here, in the test, not configured elsewhere.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import networkx as nx
import numpy as np

from plap import combinatorics as comb
from plap import cutoff, families, graph, solver, tensor
from plap.graph import negate, validate
from plap.linalg import normalized_spectrum

from conftest import (random_balanced, random_connected_antibalanced,
                      random_signed)


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _random_connected(n, prob, seed):
    s = seed
    g = families.random_graph(n, prob, s)
    while len(graph.components(g)) > 1:
        s += 7919
        g = families.random_graph(n, prob, s)
    return g


def test_criterion_01_exact_top_cutoff_closed_forms():
    t0 = time.time()
    err = 0.0
    for n in range(2, 9):
        ref = n / 4 if n % 2 == 0 else math.sqrt(n * n - 1) / 4
        err = max(err, abs(cutoff.exact_ln(families.complete(n)).lower - ref))
    for m in range(2, 10):
        ref = math.sqrt(m - 1) / 2
        err = max(err, abs(cutoff.exact_ln(families.star(m)).lower - ref))
    for n in (4, 6):
        err = max(err, abs(cutoff.exact_ln(families.cycle(n)).lower - 1.0))
    for n in (1, 5):
        err = max(err, abs(cutoff.exact_ln(families.edgeless(n)).lower))
    elapsed = time.time() - t0
    _criterion(1, "exact top cutoff closed forms",
               err <= 1e-9 and elapsed < 10.0,
               f"max err {err:.2e}, {elapsed:.2f} s")


def test_criterion_02_small_graph_table():
    classes = [
        (families.edgeless(3), (0.0, 0.0, 0.0)),
        (validate(3, [(0, 1)]), (0.0, 0.0, 0.5)),
        (families.path(3), (0.0, 0.0, math.sqrt(2) / 2)),
        (families.complete(3), (0.0, 0.5, math.sqrt(2) / 2)),
    ]
    err = 0.0
    collapsed = True
    for g, triple in classes:
        for k, ref in enumerate(triple, start=1):
            b = cutoff.bracket(g, k)
            collapsed &= b.exact
            err = max(err, abs(b.lower - ref), abs(b.upper - ref))
    _criterion(2, "n <= 3 classification table",
               collapsed and err <= 1e-9, f"max err {err:.2e}")


def test_criterion_03_complete_and_star_p_spectra():
    t0 = time.time()
    worst = 0.0
    for p in (1.5, 2.0, 3.0, 4.0, 8.0):
        for n in (3, 4, 5, 6):
            ref = solver.complete_extremes(n, p)[1]
            got = solver.solve_largest(families.complete(n), p).value
            worst = max(worst, abs(got - ref) / ref)
        for m in (3, 5, 8):
            ref = solver.closed_form_star(m, p)
            got = solver.solve_largest(families.star(m), p).value
            worst = max(worst, abs(got - ref) / ref)
    elapsed = time.time() - t0
    _criterion(3, "complete/star p-spectra",
               worst <= 1e-6 and elapsed <= 30.0,
               f"max rel err {worst:.2e}, {elapsed:.1f} s")


def test_criterion_04_monotonicity():
    t0 = time.time()
    grid = (1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0)
    violations = 0
    for seed in range(50):
        n = 4 + seed % 5
        g = random_connected_antibalanced(n, 0.5, seed)
        pairs = [solver.solve_largest(g, p) for p in grid]
        assert all(pr.certificate == "perron-certified" for pr in pairs)
        rep = solver.monotonicity_functionals(g, g.n, grid,
                                              [pr.value for pr in pairs])
        violations += len(rep.violations)
    for n in (3, 5, 8):
        lams = [solver.complete_extremes(n, p)[1] for p in grid]
        rep = solver.monotonicity_functionals(families.complete(n), n, grid, lams)
        violations += len(rep.violations)
    for m in (4, 5, 9):
        lams = [solver.closed_form_star(m, p) for p in grid]
        rep = solver.monotonicity_functionals(families.star(m), m, grid, lams)
        violations += len(rep.violations)
    for seed in (0, 1):
        g = random_balanced(6, 0.5, seed)
        rep = solver.monotonicity_functionals(g, 1, grid, [0.0] * len(grid))
        violations += len(rep.violations)
    elapsed = time.time() - t0
    _criterion(4, "monotonicity of m1/m2 over the p-grid",
               violations == 0 and elapsed <= 120.0,
               f"{violations} violations, {elapsed:.1f} s")


def test_criterion_05_antibalanced_equality():
    worst = 0.0
    for seed in range(30):
        n = 3 + seed % 8
        g = negate(_random_connected(n, 0.5, seed))
        ln = cutoff.exact_ln(g)
        ref = 0.5 * normalized_spectrum(negate(g)).values[-1]
        worst = max(worst, abs(ln.lower - ref))
    _criterion(5, "antibalanced top-value equality", worst <= 1e-9,
               f"max err {worst:.2e}")


def test_criterion_06_eigenfunction_limit():
    ok = True
    details = []
    for g, name in ((negate(families.cycle(5)), "C5"),
                    (negate(families.star(5)), "star5")):
        scan = cutoff.limit_scan(g, (4.0, 8.0, 16.0, 32.0))
        monotone = all(b <= a + 1e-8
                       for a, b in zip(scan.distances, scan.distances[1:]))
        ok &= monotone and scan.distances[-1] < 0.05
        details.append(f"{name} final {scan.distances[-1]:.3g}")
    _criterion(6, "eigenfunction limit scan", ok, "; ".join(details))


def test_criterion_07_inertia_suite():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    all_ok = True
    for seed in range(100):
        n = 2 + seed % 9
        if seed % 2 == 0:
            g = random_signed(n, 0.5, seed)
        else:
            base = families.random_graph(n, 0.6, seed, signed=True)
            w = 0.5 + rng.random(base.m)
            mu = 0.5 + 1.5 * rng.random(n)
            g = validate(n, [(e.u, e.v, wi, e.sigma)
                             for e, wi in zip(base.edges, w)], mu=mu)
        rep = comb.inertia_report(g, seed=seed)
        all_ok &= rep.ok
        assert all(rep.alpha <= proxy for proxy in rep.zero_count_proxies)
        assert rep.alpha <= rep.cvetkovic_value
        assert (rep.exact_ln_value > 0) == (g.m > 0)
        if rep.beta is not None and n <= 8:
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from((e.u, e.v) for e in g.edges)
            ref = n - len(nx.max_weight_matching(h, maxcardinality=True))
            all_ok &= rep.beta == ref
    elapsed = time.time() - t0
    _criterion(7, "inertia suite on 100 random graphs",
               all_ok and elapsed <= 180.0, f"{elapsed:.1f} s")


def test_criterion_08_interlacing():
    ok = True
    worst = -np.inf
    for seed in range(30):
        n = 4 + seed % 5
        g = random_signed(n, 0.5, seed)
        full = cutoff.exact_ln(g).lower
        for v in range(n):
            sub = graph.induced_subgraph(g, [i for i in range(n) if i != v])
            gap = cutoff.exact_ln(sub).lower - full
            worst = max(worst, gap)
            ok &= gap <= 1e-9
            ok &= cutoff.interlacing_check(g, [v]).ok
    _criterion(8, "interlacing under vertex removal", ok,
               f"max L_n increase {worst:.2e}")


def test_criterion_09_tensor_correspondence():
    rng = np.random.default_rng(99)
    worst_apply = 0.0
    worst_defect = 0.0
    ok = True
    for seed in range(20):
        g = random_signed(6, 0.6, seed)
        for p in (2, 4, 6):
            t = tensor.build_tensor(g, p)
            for _ in range(20):
                f = rng.standard_normal(6)
                scale = max(np.max(np.abs(f)) ** (p - 1), 1e-300)
                diff = np.max(np.abs(tensor.apply_tensor(t, f)
                                     - solver.apply_plap(g, p, f)))
                worst_apply = max(worst_apply, diff / scale)
            pair = solver.solve_largest(g, p)
            rep = tensor.eigen_correspondence(g, p, pair)
            worst_defect = max(worst_defect, rep.defect)
    ok &= worst_apply <= 1e-10 and worst_defect <= 1e-8
    for n in (3, 4):
        g = negate(families.complete(n))
        rep = tensor.eigen_correspondence(g, 4, solver.solve_largest(g, 4))
        ok &= rep.bound_confirmed is True
    _criterion(9, "tensor correspondence",
               ok, f"apply defect {worst_apply:.2e}, eigen defect {worst_defect:.2e}")


def _disjoint_union(g1, g2):
    edges = [(e.u, e.v, e.w, e.sigma) for e in g1.edges]
    edges += [(e.u + g1.n, e.v + g1.n, e.w, e.sigma) for e in g2.edges]
    return validate(g1.n + g2.n, edges, mu=g1.mu + g2.mu,
                    kappa=g1.kappa + g2.kappa)


def test_criterion_10_unions_and_potential_shift():
    worst_union = 0.0
    for seed in range(10):
        g1 = random_signed(2 + seed % 4, 0.6, seed)
        g2 = random_signed(3 + seed % 3, 0.6, seed + 100)
        u = _disjoint_union(g1, g2)
        ref = max(cutoff.exact_ln(g1).lower, cutoff.exact_ln(g2).lower)
        worst_union = max(worst_union, abs(cutoff.exact_ln(u).lower - ref))
    shifts_ok = True
    rng = np.random.default_rng(5)
    for case in range(10):
        g = random_balanced(5 + case % 3, 0.5, case)
        if case % 2 == 0:
            kappa = [float(rng.uniform(-2, 2))] * g.n    # multiple of mu == 1
        else:
            kappa = [float(x) for x in rng.uniform(0, 1.5, size=g.n)]
        gk = validate(g.n, [tuple(e) for e in g.edges], mu=g.mu, kappa=kappa)
        shifts_ok &= solver.potential_shift_check(gk, 2.0, 1).passed
    for case in range(10):
        g = random_connected_antibalanced(5 + case % 3, 0.5, case + 50)
        if case % 2 == 0:
            kappa = [float(rng.uniform(0, 2))] * g.n
        else:
            kappa = [float(x) for x in rng.uniform(0, 1.5, size=g.n)]
        gk = validate(g.n, [tuple(e) for e in g.edges], mu=g.mu, kappa=kappa)
        shifts_ok &= solver.potential_shift_check(gk, 2.0, gk.n).passed
    _criterion(10, "disjoint unions and potential shifts",
               worst_union <= 1e-9 and shifts_ok,
               f"max union err {worst_union:.2e}")

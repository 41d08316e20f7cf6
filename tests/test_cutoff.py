"""Cutoff eigenvalue brackets: exact top values, bounds, interlacing, limits."""

import math
import pickle
import re
import sys
import threading
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plap import cutoff, families, graph, linalg
from plap.combinatorics import IndependentSet, inertia_report
from plap.cutoff import (bracket, brackets, exact_ln, interlacing_check,
                         interlacing_checks, limit_scan, lower_bound_full,
                         lower_bound_subgraphs, r_q_infty, upper_bound_subsets)
from plap.graph import GraphError, induced_subgraph, negate, switch, validate, with_zero_kappa
from plap.linalg import _eigvals, adjacency, normalized_adjacency
from plap.solver import solve_largest

from conftest import (random_connected_antibalanced, random_signed, random_weighted,
                      wide_range_graphs)


def test_r_q_infty_examples():
    p3 = families.path(3)
    f = np.array([1.0, 0.0, -1.0])     # supported on an independent set
    assert r_q_infty(p3, 2.0, f) == 0.0
    k2 = families.complete(2)
    assert r_q_infty(k2, 2.0, np.array([1.0, -1.0])) == 0.5
    assert r_q_infty(k2, 2.0, np.array([1.0, 1.0])) == 0.0
    with pytest.raises(ValueError):
        r_q_infty(k2, 2.0, np.zeros(2))
    with pytest.raises(ValueError):
        r_q_infty(k2, 0.5, f[:2])


@pytest.mark.parametrize("q", [float("nan"), float("inf"), 0.5, -1, True, "2", None])
def test_r_q_infty_rejects_a_q_outside_one_to_infinity(q):
    with pytest.raises(ValueError, match=re.escape(f"q must be a number in [1, inf), got {q!r}")):
        r_q_infty(families.complete(2), q, np.array([1.0, -1.0]))


@pytest.mark.parametrize("f, msg", [
    ([1.0], "function has shape (1,), expected (2,)"),
    ([1.0, -1.0, 0.0], "function has shape (3,), expected (2,)"),
    ([[1.0, -1.0]], "function has shape (1, 2), expected (2,)"),
    ([1.0, float("nan")], "function entry #1 must be finite, got nan"),
    ([float("-inf"), 1.0], "function entry #0 must be finite, got -inf"),
])
def test_r_q_infty_rejects_a_function_of_the_wrong_shape_or_not_finite(f, msg):
    with pytest.raises(ValueError, match=re.escape(msg)):
        r_q_infty(families.complete(2), 2.0, np.array(f))


def test_r_2_infty_matches_negated_quadratic_form_when_cutoff_inactive(rng):
    # on an all-negative graph and a nonnegative function, no term is cut off
    for seed in range(5):
        g = negate(families.random_graph(6, 0.6, seed))
        f = np.abs(rng.standard_normal(6)) + 0.1
        quad = 0.5 * f @ (-adjacency(g)) @ f / np.sum(g.mu_array() * f ** 2)
        assert math.isclose(r_q_infty(g, 2.0, f), quad, rel_tol=1e-12)


def test_exact_ln_closed_forms():
    for n in range(2, 9):
        ref = n / 4 if n % 2 == 0 else math.sqrt(n * n - 1) / 4
        assert abs(exact_ln(families.complete(n)).lower - ref) < 1e-9
    assert abs(exact_ln(families.path(3)).lower - math.sqrt(2) / 2) < 1e-9
    assert exact_ln(families.edgeless(5)).lower == 0.0
    for n in (4, 6):
        assert abs(exact_ln(families.cycle(n)).lower - 1.0) < 1e-9


def test_exact_ln_certificate_reproduces_value():
    g = random_signed(7, 0.5, 3)
    ln = exact_ln(g)
    kind, signs = ln.lower_certificate
    assert kind == "sign-vector"
    s = np.asarray(signs, dtype=float)
    u, v, w, sig = g.edge_arrays()
    keep = sig * s[u] * s[v] < 0
    kept_edges = [(int(a), int(b)) for a, b, k in zip(u, v, keep) if k]
    sub = graph.spanning_subgraph(g, kept_edges)
    # the certified subgraph is antibalanced and its negated top eigenvalue
    # reproduces the exact value
    from plap.graph import classify_balance
    from plap.linalg import normalized_spectrum
    assert classify_balance(sub).antibalanced_witness is not None
    top = normalized_spectrum(negate(sub)).values[-1]
    assert abs(0.5 * top - ln.lower) < 1e-12


def test_exact_ln_switching_invariant(rng):
    for seed in range(6):
        g = random_signed(6, 0.5, seed)
        tau = tuple(int(x) for x in np.where(rng.random(6) < 0.5, 1, -1))
        assert math.isclose(exact_ln(g).lower, exact_ln(switch(g, tau)).lower,
                            rel_tol=0, abs_tol=1e-12)


def test_exact_ln_positive_iff_edges():
    assert exact_ln(families.edgeless(3)).lower == 0.0
    for seed in range(6):
        g = random_signed(6, 0.4, seed)
        assert (exact_ln(g).lower > 0) == (g.m > 0)


def test_exact_ln_weight_floor():
    rng = np.random.default_rng(0)
    for seed in range(6):
        base = families.random_graph(6, 0.8, seed)
        if base.isolated_vertices():
            continue
        w = 0.5 + rng.random(base.m)
        mu = 0.5 + rng.random(6)
        g = validate(6, [(e.u, e.v, wi, e.sigma) for e, wi in zip(base.edges, w)],
                     mu=mu)
        assert exact_ln(g).lower >= 0.5 * w.min() / mu.max() - 1e-12


def test_exact_ln_fallback_above_cap(monkeypatch):
    g = families.random_graph(10, 0.3, seed=1)
    exact = exact_ln(g)
    monkeypatch.setattr(cutoff, "DEFAULT_SIGN_CAP", 8)
    ln = exact_ln(g)
    assert not ln.exact
    assert ln.lower <= exact.lower + 1e-12 <= ln.upper + 1e-9
    assert ln.lower_certificate[0] == "sign-vector-sampled"


def _old_hill_climb_signs(g, seed, rounds=8):
    n = g.n

    def value(sv):
        active = cutoff._active_edges(g, sv < 0)
        if not np.any(active):
            return 0.0
        return float(_eigvals(normalized_adjacency(g, active, absolute=True)[None], g.n)[0, -1])

    rng = np.random.default_rng(seed)
    best_val, best_sv = -np.inf, None
    seeds = [np.ones(n)] + [np.where(rng.random(n) < 0.5, 1.0, -1.0)
                            for _ in range(rounds)]
    for sv in seeds:
        sv = sv.copy()
        sv[0] = 1.0
        cur = value(sv)
        improved = True
        while improved:
            improved = False
            for i in range(1, n):
                sv[i] = -sv[i]
                cand = value(sv)
                if cand > cur + 1e-15:
                    cur = cand
                    improved = True
                else:
                    sv[i] = -sv[i]
        if cur > best_val:
            best_val, best_sv = cur, sv.copy()
    return best_val, tuple(int(x) for x in best_sv)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("n", range(9, 31))
def test_hill_climb_equals_the_per_flip_loop(n, seed):
    # weighted, with a nonzero potential that nothing reads
    g = random_weighted(n, 0.3, 100 + n)
    assert cutoff._hill_climb_signs(g, seed) == _old_hill_climb_signs(g, seed)


def test_lower_bound_full_examples():
    k3 = families.complete(3)
    assert abs(lower_bound_full(k3, 2) - 0.5) < 1e-12
    assert lower_bound_full(k3, 1) == 0.0      # clamped
    k3n = negate(k3)
    assert abs(lower_bound_full(k3n, 3) - 1.0) < 1e-12
    assert abs(exact_ln(k3n).lower - 1.0) < 1e-12   # antibalanced equality


def test_exact_ln_dominates_full_graph_bound():
    from plap.graph import classify_balance
    for seed in range(8):
        g = random_signed(6, 0.5, seed)
        ln = exact_ln(g).lower
        low = lower_bound_full(g, 6)
        assert ln >= low - 1e-12
        if classify_balance(g).antibalanced_witness is not None:
            assert abs(ln - low) < 1e-12


def test_lower_bound_subgraphs():
    val, cert = cutoff._subgraph_lowers(families.path(3), [2], 64)[0]
    assert val == 0.0
    val, cert = cutoff._subgraph_lowers(families.complete(3), [2], 1024)[0]
    assert abs(val - 0.5) < 1e-12
    for seed in range(4):
        g = random_signed(5, 0.6, seed)
        ln = exact_ln(g)
        val, cert = cutoff._subgraph_lowers(g, [g.n], 1024)[0]
        assert abs(val - ln.lower) < 1e-12   # k = n recovers the exact value
        assert lower_bound_subgraphs(g, g.n) == cutoff._subgraph_lowers(g, [g.n], 2048)[0]


def test_first_rows_are_the_first_occurrences_unique_finds(rng):
    # packed byte keys must pick the same rows as np.unique over bool rows,
    # whatever the padding of the last byte and however often a row repeats
    for m in (1, 7, 8, 9, 16, 17, 35):
        for rows in (1, 2, 5, 300):
            masks = rng.random((rows, m)) < 0.5
            masks = np.concatenate([masks, masks[rng.integers(0, rows, rows // 2 + 1)],
                                    np.zeros((2, m), dtype=bool)])
            masks = masks[rng.permutation(len(masks))]
            want = np.sort(np.unique(masks, axis=0, return_index=True)[1])
            assert cutoff._first_rows(masks).tolist() == want.tolist(), (m, rows)


# --- the per-code, per-subset and per-k loops the batched scans replaced ---
# (each reference solves one matrix at a time by linalg._eigvals, the scans'
# flushed eigensolve, so batch sizes do not reach it; they are cached)

def _old_signs(n, code):
    return (1,) + tuple(1 - 2 * ((code >> i) & 1) for i in range(n - 1))


def _old_lambda_max_signs(g):
    a = g._arrays
    best_val, best_code = -np.inf, 0
    m = np.zeros((g.n, g.n))
    for code in range(1 << (g.n - 1)):
        sv = np.asarray(_old_signs(g.n, code), dtype=float)
        active = (a.sigma * sv[a.u] * sv[a.v]) < 0
        m[:] = 0.0
        m[a.u[active], a.v[active]] = a.scale[active]
        m[a.v[active], a.u[active]] = a.scale[active]
        top = float(_eigvals(m[None], g.n)[0, -1]) if active.any() else 0.0
        if top > best_val:
            best_val, best_code = top, code
    return best_val, _old_signs(g.n, best_code)


@lru_cache(maxsize=None)
def _old_lower_bound_subgraphs(g, k, budget):
    g = graph.with_zero_kappa(g)
    a = g._arrays
    pools = [tuple(range(g.m)), ()]
    if g.m and (1 << (g.n - 1)) <= budget:
        for code in range(1 << (g.n - 1)):
            sv = np.asarray(_old_signs(g.n, code), dtype=float)
            pools.append(tuple(np.flatnonzero(a.sigma * sv[a.u] * sv[a.v] < 0)))
    if g.m and (1 << g.m) <= budget:
        pools.extend(c for r in range(1, g.m) for c in combinations(range(g.m), r))
    best_val, best_edges, seen = -np.inf, (), set()
    for subset in pools:
        if subset in seen:
            continue
        seen.add(subset)
        mask = np.zeros(g.m, dtype=bool)
        mask[list(subset)] = True
        val = (float(_eigvals(normalized_adjacency(g, mask, negate=True)[None], g.n)[0, k - 1])
               if g.m else 0.0)
        if val > best_val:
            best_val, best_edges = val, subset
    edges = tuple((g.edges[i].u, g.edges[i].v) for i in best_edges)
    return 0.5 * best_val, ("spanning-subgraph", edges)


def _old_subset_value(absadj, subset):
    keep = sorted(set(subset))
    m = absadj[np.ix_(keep, keep)]
    if not m.any():
        return 0.0
    return 0.5 * float(_eigvals(m[None], len(m))[0, -1])


@lru_cache(maxsize=None)
def _old_upper_bound_subsets(g, k, budget, seed=0):
    g = graph.with_zero_kappa(g)
    from plap.combinatorics import max_independent_set
    mis = max_independent_set(g)
    if mis.size >= k:
        return 0.0, ("vertex-subset", tuple(sorted(mis.vertices)[:k]))
    absadj = normalized_adjacency(g, absolute=True)
    best = None
    if math.comb(g.n, k) <= budget:
        for subset in combinations(range(g.n), k):
            val = _old_subset_value(absadj, subset)
            if best is None or val < best[0]:
                best = (val, subset)
            if best[0] == 0.0:
                break
    else:
        cur, free = [], set(range(g.n))
        while len(cur) < k:
            pick = min(free, key=lambda x: (_old_subset_value(absadj, cur + [x]), x))
            cur.append(pick)
            free.discard(pick)
        best = (_old_subset_value(absadj, cur), tuple(sorted(cur)))
        rng = np.random.default_rng(seed)
        for _ in range(min(budget, 256)):
            subset = tuple(sorted(rng.choice(g.n, size=k, replace=False)))
            val = _old_subset_value(absadj, subset)
            if val < best[0]:
                best = (val, subset)
    return best[0], ("vertex-subset", tuple(best[1]))


@lru_cache(maxsize=None)
def _old_bracket(g, k, budget):
    g = graph.with_zero_kappa(g)
    lowers = [(lower_bound_full(g, k), ("full-graph",)),
              _old_lower_bound_subgraphs(g, k, budget)]
    uppers = [_old_upper_bound_subsets(g, k, budget)]
    if k == g.n:
        ln = exact_ln(g)
        lowers.append((ln.lower, ln.lower_certificate))
        if ln.exact:
            uppers.append((ln.upper, ("exact",)))
    lower, lower_cert = max(lowers, key=lambda t: t[0])
    upper, upper_cert = min(uppers, key=lambda t: t[0])
    assert lower <= upper + cutoff.EXACT_TOL
    return cutoff.CutoffBracket(k=k, lower=lower, upper=upper,
                                lower_certificate=lower_cert,
                                upper_certificate=upper_cert,
                                exact=(upper - lower) <= cutoff.EXACT_TOL)


@lru_cache(maxsize=None)
def _old_interlacing_check(g, v, budget):
    sub = graph.induced_subgraph(g, [i for i in range(g.n) if i != v])
    ln_g = exact_ln(graph.with_zero_kappa(g))
    ln_sub = exact_ln(graph.with_zero_kappa(sub))
    items = [("top-index interlacing", ln_sub.lower <= ln_g.upper + cutoff.EXACT_TOL,
              {"L_n(subgraph)": ln_sub.lower, "L_n(graph)": ln_g.upper,
               "exact": ln_g.exact and ln_sub.exact})]
    for k in range(1, sub.n + 1):
        lo = lower_bound_full(g, k)
        up, _ = _old_upper_bound_subsets(sub, k, budget)
        items.append((f"bracket consistency k={k}", lo <= up + cutoff.EXACT_TOL,
                      {"lower_k(graph)": lo, "upper_k(subgraph)": up}))
    return cutoff.InterlacingReport(removed=(v,), items=tuple(items))


# random signed graphs with non-unit w and mu (some with isolated vertices),
# and graphs with many tied sign codes and subsets
SCAN_GRAPHS = ([random_weighted(n, 0.5, seed, isolated=seed % 3)
                for seed, n in enumerate(range(2, 11))]
               + [families.complete(n) for n in (3, 4, 6, 7)]
               + [families.cycle(n) for n in (4, 5, 6)]
               + [families.star(n) for n in (4, 6)]
               + [negate(families.complete(5)), families.edgeless(3)])


def _fresh(g):
    """g without anything kept on it: a pickle round trip keeps the fields only."""
    return pickle.loads(pickle.dumps(g))


def _pool_key(g, budget):
    """The composition of g's spanning-subgraph pool at a budget: whether it
    holds the sign codes and whether it holds the edge subsets."""
    return (1 << (g.n - 1)) <= budget, (1 << g.m) <= budget


@pytest.fixture
def scans(monkeypatch):
    """The graph of every spanning-subgraph pool scan (cutoff._first_max call)."""
    first_max, graphs = cutoff._first_max, []

    def spy(g, *args, **kwargs):
        graphs.append(g)
        return first_max(g, *args, **kwargs)

    monkeypatch.setattr(cutoff, "_first_max", spy)
    return graphs


@pytest.mark.parametrize("per_batch", [None, 1, 3, 7])
@pytest.mark.parametrize("g", SCAN_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_batched_scans_equal_the_loops(g, per_batch, monkeypatch, scans):
    if per_batch is not None:
        monkeypatch.setattr(linalg, "_BATCH_BYTES", 8 * g.n * g.n * per_batch)
    g = _fresh(g)       # a case of its own scans, at its own batch size
    assert cutoff._lambda_max_signs(g) == _old_lambda_max_signs(g)
    for k in range(1, g.n + 1):
        for budget in (16, 2048):
            assert (cutoff._subgraph_lowers(g, [k], budget)[0]
                    == _old_lower_bound_subgraphs(g, k, budget))
        assert lower_bound_subgraphs(g, k) == _old_lower_bound_subgraphs(g, k, 2048)
    assert len(scans) == (len({_pool_key(g, 16), _pool_key(g, 2048)}) if g.m else 0)


@pytest.mark.parametrize("per_batch", [None, 1, 3, 7])
@pytest.mark.parametrize("g", SCAN_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_brackets_equal_the_per_k_loops(g, per_batch, monkeypatch, scans):
    if per_batch is not None:
        monkeypatch.setattr(linalg, "_BATCH_BYTES", 8 * g.n * g.n * per_batch)
    g = _fresh(g)
    ks = list(range(1, g.n + 1))
    for budget in (16, 2048):
        old = [_old_bracket(g, k, budget) for k in ks]
        assert brackets(g, ks, budget) == old
        assert brackets(g, ks[::-1], budget) == old[::-1]
        assert [brackets(g, [k], budget)[0] for k in ks] == old
        uppers = [_old_upper_bound_subsets(g, k, budget) for k in ks]
        assert [cutoff._subset_uppers(g, [k], budget, 0)[0] for k in ks] == uppers
        checks = [_old_interlacing_check(g, v, budget) for v in range(g.n)]
        assert interlacing_checks(g, [[v] for v in range(g.n)], budget) == checks
    # the single-index forms run at the default budget, the loop's last
    assert cutoff.DEFAULT_BUDGET == budget
    assert [bracket(g, k) for k in ks] == old
    assert [upper_bound_subsets(g, k) for k in ks] == uppers
    assert [interlacing_check(g, [v]) for v in range(g.n)] == checks
    assert len(scans) == (len({_pool_key(g, 16), _pool_key(g, 2048)}) if g.m else 0)


@pytest.mark.parametrize("g", SCAN_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_kept_scans_give_the_answers_of_fresh_graphs(g):
    ks = list(range(1, g.n + 1))
    for budget in (16, 2048):
        want = [brackets(_fresh(g), [k], budget)[0] for k in ks]
        one = _fresh(g)
        assert [brackets(one, [k], budget)[0] for k in ks] == want
        assert brackets(one, ks, budget) == want
        assert brackets(one, ks[::-1], budget) == want[::-1]
        assert brackets(_fresh(g), ks, budget) == want
    assert [bracket(one, k) for k in ks] == want
    assert ([lower_bound_subgraphs(one, k) for k in ks]
            == [lower_bound_subgraphs(_fresh(g), k) for k in ks])


def test_bracket_over_every_k_scans_the_pool_once(scans):
    g = random_weighted(9, 0.5, 3)
    ks = list(range(g.n, 0, -1))
    got = [bracket(g, k) for k in ks]
    assert len(scans) == 1 and scans[0] is g
    assert ([lower_bound_subgraphs(g, k) for k in ks]
            == [_old_lower_bound_subgraphs(g, k, 2048) for k in ks])
    assert brackets(g, ks) == got and len(scans) == 1
    assert brackets(_fresh(g), ks) == got and len(scans) == 2


@pytest.mark.parametrize("g, budgets, keys", [
    # 2^7 sign codes, more than 2^12 edge subsets
    (random_weighted(8, 0.6, 5), (16, 2048, 16, 4096, 2048), [(False, False), (True, False)]),
    # 2^5 sign codes and 2^5 edge subsets
    (families.path(6), (16, 32, 2048, 16), [(False, False), (True, True)]),
])
def test_each_pool_composition_is_scanned_once(g, budgets, keys, scans):
    g = _fresh(g)
    assert sorted({_pool_key(g, budget) for budget in budgets}) == keys
    for budget in budgets:
        for k in range(1, g.n + 1):
            assert (cutoff._subgraph_lowers(g, [k], budget)[0]
                    == _old_lower_bound_subgraphs(g, k, budget))
    assert len(scans) == 2 and all(h is g for h in scans)
    assert sorted(key[1:] for key in g._store if key[0] == "pool") == keys


def test_threads_sharing_one_graph_get_the_serial_brackets():
    g = random_weighted(9, 0.5, 4)
    ks = list(range(1, g.n + 1))
    want = brackets(_fresh(g), ks)
    got = [None] * 4

    def work(i):
        got[i] = [bracket(g, k) for k in ks]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(got))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * len(got)


def test_derived_graphs_start_without_the_kept_scans():
    g = random_weighted(7, 0.6, 2)
    assert any(g.kappa)
    bracket(g, 3)
    assert {"absadj", "lowers", "mis"} <= set(g._store)
    assert any(key[0] == "pool" for key in g._store)
    tau = [1, -1, 1, 1, -1, -1, 1]
    for h in (switch(g, tau), negate(g), with_zero_kappa(g), induced_subgraph(g, range(g.n)),
              induced_subgraph(g, range(1, g.n))):
        assert "_store" not in h.__dict__
        for k in range(1, h.n + 1):
            assert lower_bound_subgraphs(h, k) == _old_lower_bound_subgraphs(h, k, 2048)


def test_a_kept_input_is_computed_once_and_handed_out_fresh(monkeypatch):
    # the full-graph lower bounds and the normalized |A|, each built once
    g = random_weighted(8, 0.6, 6)
    calls = []
    for name in ("_signed_lowers", "normalized_adjacency"):
        def spy(*args, _fn=getattr(cutoff, name), _name=name, **kwargs):
            if _name == "_signed_lowers" or kwargs.get("absolute"):
                calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cutoff, name, spy)
    want = _fresh(g)
    lows = cutoff.lower_bounds_full_all(g)
    assert lows.flags.writeable and np.array_equal(lows, cutoff.lower_bounds_full_all(want))
    lows[:] = -1.0
    assert np.array_equal(cutoff.lower_bounds_full_all(g), cutoff.lower_bounds_full_all(want))
    assert calls == ["_signed_lowers"] * 2
    calls.clear()
    ks = range(1, g.n)       # exact_ln, at k = n, builds |A| of its sign codes
    first = [bracket(g, k) for k in ks]
    assert calls == ["normalized_adjacency"]
    assert [bracket(g, k) for k in ks] == first and len(calls) == 1
    assert [bracket(_fresh(g), k) for k in ks] == first


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """The shape of every array np.linalg.eigvalsh is given."""
    eigvalsh, shapes = np.linalg.eigvalsh, []

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


@pytest.mark.parametrize("per_batch", [None, 1])
def test_stacked_eigensolves_stay_within_the_batch_bytes(per_batch, eigvalsh_shapes,
                                                          monkeypatch):
    if per_batch is not None:
        monkeypatch.setattr(linalg, "_BATCH_BYTES", 1)
    g = families.random_graph(40, 0.5, 1)   # C(40, 39) = 40 subsets of 39 vertices
    for budget in (16, 2048):               # greedy and exhaustive
        brackets(g, [38, 39], budget)
    exact_ln(families.complete(12))         # the branch and bound's stacks
    stacks = [s for s in eigvalsh_shapes if len(s) == 3]
    assert {s[-1] for s in stacks} >= {12, 38, 39, 40}
    for s in stacks:
        assert 8 * math.prod(s) <= max(linalg._BATCH_BYTES, 8 * s[-1] ** 2), s


def _with_weight(g, w):
    """g with every third edge (from the first) weighted w."""
    return validate(g.n, [(e.u, e.v, w if i % 3 == 0 else e.w, e.sigma)
                          for i, e in enumerate(g.edges)], mu=g.mu)


# tied subsets (complete graphs, cycles, the 3-cube), isolated vertices,
# mu != 1, and weights of 1e300 and 1e-300 beside unit ones
SUBSET_GRAPHS = ([families.complete(n) for n in (6, 9)]
                 + [families.cycle(n) for n in (8, 11)]
                 + [families.hypercube(3), random_weighted(10, 0.5, 3, isolated=3),
                    random_weighted(12, 0.6, 4), random_weighted(9, 0.7, 5, isolated=1)]
                 + [_with_weight(random_signed(n, 0.6, n), w)
                    for n, w in ((10, 1e300), (9, 1e-300), (11, 1e300), (8, 1e-300))])


@pytest.mark.parametrize("per_batch", [None, 1, 7])
@pytest.mark.parametrize("g", SUBSET_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_the_pruned_subset_scan_equals_solving_every_subset(g, per_batch, monkeypatch,
                                                            eigvalsh_shapes):
    if per_batch is not None:
        monkeypatch.setattr(linalg, "_BATCH_BYTES", 8 * g.n * g.n * per_batch)
    ks = range(1, g.n + 1)
    for budget in (16, 2048):
        want = [_old_upper_bound_subsets(g, k, budget) for k in ks]
        eigvalsh_shapes.clear()
        assert cutoff._subset_uppers(_fresh(g), ks, budget, 0) == want
        # one batch of blocks per eigensolve, at most
        for shape in eigvalsh_shapes:
            assert 8 * math.prod(shape) <= max(linalg._BATCH_BYTES, 8 * shape[-1] ** 2)
    assert [upper_bound_subsets(g, k) for k in ks] == want


def test_the_subset_scans_of_a_random_n12_solve_few_subsets(eigvalsh_shapes):
    # alpha = 4; solving every subset of 5 to 12 vertices took 3,302 blocks
    g = families.random_graph(12, 0.5, 1, signed=True)
    ups = [upper_bound_subsets(g, k) for k in range(1, 13)]
    assert _matrices(eigvalsh_shapes) == 172
    assert ups == [_old_upper_bound_subsets(g, k, cutoff.DEFAULT_BUDGET) for k in range(1, 13)]


@pytest.mark.parametrize("per_batch, solved", [(None, 0), (1, 7), (3, 0)])
def test_a_subset_without_an_inner_edge_is_zero_and_unsolved(per_batch, solved, monkeypatch):
    # an independent set below alpha (a greedy one, above MIS_CAP) leaves
    # zero subsets to the scan: the first in combinations order wins at
    # exactly 0.0, and no zero block is eigensolved.  A batch that holds a
    # zero solves nothing; at 4 subsets of 3 a batch, the single-edge blocks
    # of the two batches before (0, 3, 5) are solved, the triangle is not
    if per_batch is not None:
        monkeypatch.setattr(linalg, "_BATCH_BYTES", 8 * 36 * per_batch)
    g = validate(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    absadj = normalized_adjacency(g, absolute=True)
    firsts = {2: (0, 3), 3: (0, 3, 5)}
    for k, first in firsts.items():
        assert min(combinations(range(g.n), k),
                   key=lambda s: _old_subset_value(absadj, s)) == first
    monkeypatch.setattr(cutoff, "_mis", lambda g: IndependentSet(1, (0,), False))
    eigvalsh, blocks = np.linalg.eigvalsh, []

    def spy(a):
        blocks.extend(a)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    for k, first in firsts.items():
        assert cutoff._subset_uppers(g, [k], 2048, 0) == [(0.0, ("vertex-subset", first))]
    assert all(b.any() for b in blocks)
    assert len(blocks) == solved


def test_sign_scan_equals_the_loop_at_n14():
    g = random_weighted(14, 0.5, 14, isolated=1)
    assert 1 << 13 > linalg._BATCH_BYTES // (8 * 14 * 14)
    assert cutoff._lambda_max_signs(g) == _old_lambda_max_signs(g)


# --- the branch and bound against the scan it replaced ---

_cached_old_lambda_max_signs = lru_cache(maxsize=None)(_old_lambda_max_signs)


def _union(g, h):
    """g and h side by side, h's vertices after g's."""
    edges = [tuple(e) for e in g.edges] + [(e.u + g.n, e.v + g.n, e.w, e.sigma) for e in h.edges]
    return validate(g.n + h.n, edges, mu=g.mu + h.mu)


# complete graphs (every balanced bipartition ties) and their negations, a
# random signed n = 16 whose flip ascent already holds the optimum,
# antibalanced graphs, weighted graphs with non-unit mu and isolated
# vertices, two components, n = 1 and m = 0
BNB_GRAPHS = ([families.complete(n) for n in (*range(2, 13), 14)]
              + [negate(families.complete(n)) for n in (5, 9, 12)]
              + [random_signed(16, 0.5, 9)]
              + [random_connected_antibalanced(n, 0.5, n) for n in (7, 10, 12)]
              + [random_weighted(n, 0.6, n, isolated=2) for n in (9, 11, 13)]
              + [_union(random_weighted(5, 0.8, 1), random_signed(6, 0.6, 2)),
                 families.edgeless(1), families.edgeless(6)])


@pytest.mark.parametrize("per_batch", [None, 1, 3, 7])
@pytest.mark.parametrize("g", BNB_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_branch_and_bound_equals_the_scan(g, per_batch, monkeypatch):
    if per_batch is not None:
        monkeypatch.setattr(linalg, "_BATCH_BYTES", 8 * g.n * g.n * per_batch)
    assert cutoff._lambda_max_signs(g) == _cached_old_lambda_max_signs(g)


@pytest.mark.parametrize("w", [1e-160, 1e-300])
def test_branch_and_bound_at_tiny_weights_equals_the_scan(w):
    # at w = 1e-160 the row-sum test's B r_B underflowed to 0 and dropped
    # every leaf, and exact_ln raised
    g = validate(10, [(e.u, e.v, w, e.sigma) for e in families.complete(10).edges])
    assert cutoff._lambda_max_signs(g) == _old_lambda_max_signs(g)
    assert exact_ln(g).lower == 0.5 * _old_lambda_max_signs(g)[0]


def _top_in_units_of_r(m):
    """The top eigenvalue of m from eigh of m / r, r its largest row sum."""
    r = np.abs(m).sum(axis=1).max()
    return float(np.linalg.eigh(m / r)[0][-1] * r) if r else 0.0


def _sides_hold_their_witnesses(g, brackets_of_g):
    """No vertex-subset upper side below, and no spanning-subgraph lower side
    above, its witness's value from eigh in units of r (up to 4 n^2 eps r)."""
    absadj = normalized_adjacency(g, absolute=True)
    slack = 4 * g.n ** 2 * np.finfo(float).eps * absadj.sum(axis=1).max()
    for b in brackets_of_g:
        kind, witness = b.upper_certificate[0], b.upper_certificate[-1]
        if kind == "vertex-subset" and witness:
            block = absadj[np.ix_(witness, witness)]
            assert b.upper >= 0.5 * _top_in_units_of_r(block) - slack, b
        if b.lower_certificate[0] == "spanning-subgraph":
            pairs = set(b.lower_certificate[1])
            mask = np.array([(e.u, e.v) in pairs for e in g.edges], dtype=bool)
            m = normalized_adjacency(g, mask, negate=True)
            r = np.abs(m).sum(axis=1).max()
            value = np.linalg.eigh(m / r)[0][b.k - 1] * r if r else 0.0
            assert b.lower <= 0.5 * value + slack, b


def test_brackets_answer_beside_weights_of_1e_162():
    # eigvalsh gave 0.7071 for the upper side's own witness (0, 2, 3, 4),
    # whose value is 0.8665, and brackets raised "inconsistent bracket"
    g = validate(5, [(0, 2, 3.37e-162, -1), (1, 3, 0.744, -1), (1, 4, 1.778, -1),
                     (2, 3, 1.733, -1), (2, 4, 8.7e-164, -1)])
    got = brackets(g, [4])
    assert got[0].upper_certificate == ("vertex-subset", (0, 2, 3, 4))
    _sides_hold_their_witnesses(g, got)


def test_brackets_answer_beside_weights_of_1e300():
    # the pool's lambda_4 of a matrix of norm 1e300 came back as 3.9e282 and
    # brackets raised; L_4 is 0.5, a matching of three unit edges on either side
    g = validate(6, [(0, 1, 1e300), (1, 2, 1.0, -1), (2, 3), (3, 4, 1e300, -1), (4, 5),
                     (5, 0), (1, 4)])
    b = brackets(g, [4])[0]
    assert (b.lower, b.upper) == (0.5, 0.5)


# unflushed, eigh of its A^mu does not converge: normalized_spectrum, the
# full-graph lower bounds, brackets and inertia_report raised LinAlgError
WIDE_EIGH = validate(6, [(0, 1, 6.29e99, 1), (0, 2, 8.83e145, -1), (0, 3, 9.88e224, -1),
                         (0, 5, 3.05e181, -1), (1, 3, 1.34e14, -1), (1, 4, 1.54e29, 1),
                         (2, 3, 2.02e73, -1), (2, 4, 9.4e163, 1), (2, 5, 1.53e30, -1),
                         (3, 4, 3.23e211, -1), (4, 5, 2.12e7, 1)])


def test_the_full_graph_spectra_answer_where_unflushed_eigh_does_not_converge():
    g = WIDE_EIGH
    m = normalized_adjacency(g)
    r = np.abs(m).sum(axis=1).max()
    slack = g.n * np.finfo(float).eps * r
    ref = np.linalg.eigh(m / r)[0] * r
    assert np.abs(linalg.normalized_spectrum(g).values - ref).max() <= slack
    ref = np.maximum(0.0, 0.5 * np.linalg.eigh(-m / r)[0] * r)
    assert np.abs(cutoff.lower_bounds_full_all(g) - ref).max() <= slack
    assert inertia_report(g).ok
    got = brackets(g, [1, 2, 3, 4, 6])
    assert [b.exact for b in got] == [True, True, False, False, True]
    _sides_hold_their_witnesses(g, got)


@pytest.mark.parametrize("g", wide_range_graphs(40), ids=lambda g: f"n{g.n}m{g.m}")
def test_brackets_hold_their_witnesses_on_tiny_weights_beside_ones(g):
    # of these 40, brackets raised on 3 and left an upper side 9.4e-7 (relative)
    # below its witness on 1 when eigvalsh went unflushed
    _sides_hold_their_witnesses(g, brackets(g, range(1, g.n + 1)))


@st.composite
def _small_signed_weighted(draw):
    n = draw(st.integers(1, 9))
    weight = st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.1, 5.0))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda t: t[0] < t[1]), max_size=3 * n))
    edges = [(u, v, draw(weight), draw(st.sampled_from([1, -1]))) for u, v in sorted(pairs)]
    mu = draw(st.lists(st.one_of(st.just(1.0), st.floats(0.25, 4.0)), min_size=n, max_size=n))
    return validate(n, edges, mu=mu)


@given(_small_signed_weighted(), st.sampled_from([None, 1, 2, 3, 7]))
@settings(max_examples=150, deadline=None)
def test_branch_and_bound_equals_the_scan_on_random_graphs(g, per_batch):
    with pytest.MonkeyPatch.context() as mp:
        if per_batch is not None:
            mp.setattr(linalg, "_BATCH_BYTES", 8 * g.n * g.n * per_batch)
        assert cutoff._lambda_max_signs(g) == _old_lambda_max_signs(g)


@st.composite
def _nonnegative_stacks(draw):
    """A stack of nonnegative symmetric matrices: zero matrices, isolated
    vertices, bipartite blocks, and entries of 1e300 and 1e-300 beside
    ordinary ones (1e308 makes a row sum overflow)."""
    n, size = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    entry = st.one_of(st.just(0.0), st.sampled_from([1.0, 1e300, 1e-300, 1e308]),
                      st.floats(0.0, 10.0))
    stack = np.zeros((size, n, n))
    for b in stack:
        kind = draw(st.sampled_from(["zero", "dense", "bipartite"]))
        if kind == "zero":
            continue
        for i, j in combinations(range(n), 2):
            b[i, j] = b[j, i] = draw(entry)
        if kind == "bipartite":
            side = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            b[side[:, None] == side[None, :]] = 0.0
        else:
            b[np.diag_indices(n)] = draw(st.lists(entry, min_size=n, max_size=n))
        isolated = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
        b[isolated], b[:, isolated] = 0.0, 0.0
    return stack


def _tiny_beside(c: float, t: float) -> np.ndarray:
    """The path 0 - 2 - 1 with weight t on 0-2 and c on 1-2; its top
    eigenvalue sqrt(c^2 + t^2) is c in floats for t far below c."""
    return np.array([[[0.0, 0.0, t], [0.0, 0.0, c], [t, c, 0.0]]])


# the reference is eigh of the stack in units of r: eigvalsh (LAPACK's
# square-root-free QR, on the squared off-diagonals) returns
# 1.5000000000001534 for _tiny_beside(1.5, 4.9e-156) and 1.4996... for
# _tiny_beside(1.5, 1e-160), whose squared entry is subnormal, and eigh
# of the unscaled stack does not converge on an entry of 1e300 beside 2s
@given(_nonnegative_stacks())
@settings(max_examples=300, deadline=None)
@example(_tiny_beside(1.5, 4.916619060433188e-156))
@example(_tiny_beside(1.6953125, 4.916619060433188e-156))
@example(_tiny_beside(1.5, 1e-160))
def test_the_perron_bounds_enclose_the_top_eigenvalue(stack):
    n = stack.shape[-1]
    with np.errstate(over="ignore"):
        r = stack.sum(axis=2).max()
    upper, lower = cutoff._perron_bounds(stack, r)
    decided = ~np.isnan(upper)
    assert np.array_equal(decided, ~np.isnan(lower))
    assert r < np.inf or not decided.any()          # an overflowing row sum decides nothing
    top = np.linalg.eigh(stack[decided] / r)[0][:, -1] * r
    slack = 4.0 * n * n * np.finfo(float).eps * r
    assert (upper[decided] >= top - slack).all()
    assert (lower[decided] <= top + slack).all()
    assert (0 < upper[decided]).all() and (upper[decided] < np.inf).all()


def test_the_perron_bounds_of_non_finite_matrices_decide_nothing():
    stack = np.ones((3, 4, 4)) - np.eye(4)
    stack[0, 1, 2] = stack[0, 2, 1] = np.inf
    stack[1, 0, 3] = stack[1, 3, 0] = np.nan
    stack[2] = 0.0
    for r in (np.inf, np.nan, 3.0):
        upper, lower = cutoff._perron_bounds(stack, r)
        assert np.isnan(upper).all() and np.isnan(lower).all()
    upper, lower = cutoff._perron_bounds(np.ones((1, 4, 4)) - np.eye(4), 3.0)    # K4: 3
    slack = 4 * 16 * np.finfo(float).eps * 3
    assert 3.0 - slack <= lower[0] <= 3.0 + slack and 3.0 - slack <= upper[0] <= 3.0 + slack


def _matrices(shapes):
    return sum(s[0] if len(s) == 3 else 1 for s in shapes)


def test_branch_and_bound_work_on_a_random_signed_n16(eigvalsh_shapes):
    exact_ln(families.random_graph(16, 0.5, 0, signed=True))
    assert _matrices(eigvalsh_shapes) <= (1 << 15) // 8


def test_the_perron_bounds_spare_most_node_eigensolves(eigvalsh_shapes):
    # the flip ascent already holds the optimum; eigensolving every node
    # the cheap tests leave open took 5,292 matrices
    cutoff._lambda_max_signs(random_signed(16, 0.5, 9))
    assert _matrices(eigvalsh_shapes) <= 1000


@pytest.mark.parametrize("n", range(2, 13))
def test_branch_and_bound_work_on_complete_graphs(n, eigvalsh_shapes):
    exact_ln(families.complete(n))
    assert _matrices(eigvalsh_shapes) <= 1.25 * (1 << (n - 1))
    if n in (10, 12):   # the row-sum bound drops the unbalanced bipartitions unsolved
        assert _matrices(eigvalsh_shapes) <= 0.5 * (1 << (n - 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_one_stacked_eigensolve_when_every_code_fits_one_batch(n, eigvalsh_shapes):
    g = random_weighted(n, 0.6, n)
    cutoff._lambda_max_signs(g)
    assert eigvalsh_shapes == [(1 << (n - 1), n, n)]


@pytest.mark.parametrize("fn", [lower_bound_full, lower_bound_subgraphs])
@pytest.mark.parametrize("k", [0, -1, 5])
def test_lower_bounds_reject_k_out_of_range(fn, k):
    with pytest.raises(ValueError, match=r"k must be in \[1, 4\]"):
        fn(families.complete(4), k)


SINGLE_K = [bracket, lower_bound_full, lower_bound_subgraphs, upper_bound_subsets,
            lambda g, k: brackets(g, [1, k])]


@pytest.mark.parametrize("k", [2.0, np.int64(2), np.float64(2.0), np.int8(2)])
def test_an_integral_k_is_read_as_an_int(k):
    g = families.complete(4)
    for fn in SINGLE_K:
        assert fn(g, k) == fn(g, 2)
    assert type(bracket(g, k).k) is int
    assert [type(b.k) for b in brackets(g, [k, 4.0])] == [int, int]
    assert brackets(g, [k, 4.0]) == brackets(g, [2, 4])


@pytest.mark.parametrize("k", [True, False, 2.5, "3", None, float("nan"), float("inf"), 2 + 0j])
def test_a_k_that_is_not_an_integer_index_is_named(k):
    g = families.complete(4)
    for fn in SINGLE_K:
        with pytest.raises(ValueError, match=re.escape(f"k must be an integer index, got {k!r}")):
            fn(g, k)


@pytest.mark.parametrize("k, shown", [(0.0, "0"), (5.0, "5"), (np.int64(-1), "-1")])
def test_an_integral_k_out_of_range_is_named(k, shown):
    for fn in SINGLE_K:
        with pytest.raises(ValueError, match=re.escape(f"k must be in [1, 4], got {shown}")):
            fn(families.complete(4), k)


@pytest.mark.parametrize("budget", [2.5, True, False, -1, -3.0, float("nan"), float("inf"),
                                    "16", None])
def test_a_budget_that_is_not_a_count_is_named(budget):
    g = families.random_graph(9, 0.5, 2, signed=True)
    msg = re.escape(f"budget must be a nonnegative integer, got {budget!r}")
    with pytest.raises(ValueError, match=msg):
        brackets(g, [5], budget=budget)
    with pytest.raises(ValueError, match=msg):
        interlacing_checks(g, [[0]], budget=budget)


@pytest.mark.parametrize("budget, count", [(16.0, 16), (np.int64(16), 16), (np.float64(0.0), 0)])
def test_an_integral_budget_is_read_as_an_int(budget, count):
    g = families.random_graph(9, 0.5, 2, signed=True)
    assert brackets(g, [5, 9], budget) == brackets(g, [5, 9], count)
    assert interlacing_checks(g, [[0]], budget) == interlacing_checks(g, [[0]], count)


def test_upper_bound_subsets_examples():
    k3 = families.complete(3)
    val, cert = upper_bound_subsets(k3, 2)
    assert abs(val - 0.5) < 1e-12
    val, cert = upper_bound_subsets(families.complete(2), 2)
    assert abs(val - 0.5) < 1e-12
    # any k below the independence number gives 0
    p4 = families.path(4)
    for k in (1, 2):
        val, cert = upper_bound_subsets(p4, k)
        assert val == 0.0


def test_brackets_pin_the_bottom_cutoff_eigenvalue_to_zero():
    # one vertex is an independent set, so upper_1 = 0, and lower_1 >= 0:
    # no finite-p bound can tighten L_1
    graphs = [families.cycle(4), negate(families.complete(3)), families.edgeless(2),
              validate(2, [(0, 1)], kappa=[1.0, 0.0]),
              *(families.random_graph(n, 0.5, seed, signed=True)
                for n in (1, 5, 8) for seed in range(4))]
    for g in graphs:
        b = bracket(g, 1)
        assert b.lower == b.upper == 0.0 and b.exact


TABLE_N3 = [
    (families.edgeless(3), (0.0, 0.0, 0.0)),
    (validate(3, [(0, 1)]), (0.0, 0.0, 0.5)),
    (families.path(3), (0.0, 0.0, math.sqrt(2) / 2)),
    (families.complete(3), (0.0, 0.5, math.sqrt(2) / 2)),
]


@pytest.mark.parametrize("g,expected", TABLE_N3)
def test_bracket_small_graph_table(g, expected):
    for k, ref in enumerate(expected, start=1):
        b = bracket(g, k)
        assert b.exact
        assert abs(b.lower - ref) <= 1e-9 and abs(b.upper - ref) <= 1e-9


def test_brackets_ignore_the_potential():
    g = random_signed(5, 0.6, 2)
    gk = validate(5, [tuple(e) for e in g.edges], mu=g.mu,
                  kappa=[3.0, -1.0, 0.5, 0.0, 2.0])
    for k in range(1, 6):
        a, b = bracket(g, k), bracket(gk, k)
        assert (a.lower, a.upper) == (b.lower, b.upper)
    assert exact_ln(g).lower == exact_ln(gk).lower


@pytest.mark.parametrize("side,bound", [
    ("lower_bounds_full_all", lambda g: np.full(g.n, math.nan)),
    ("_subset_uppers", lambda g, ks, *args: [(math.nan, ())] * len(ks))],
    ids=["lower_bounds_full_all-nan", "_subset_uppers-nan"])
def test_bracket_with_a_nan_side_raises(side, bound, monkeypatch):
    monkeypatch.setattr(cutoff, side, bound)
    with pytest.raises(RuntimeError, match="inconsistent bracket"):
        bracket(families.complete(4), 2)


def test_bracket_vector_is_monotone_and_ordered():
    for seed in range(6):
        g = random_signed(6, 0.5, seed)
        brs = [bracket(g, k) for k in range(1, 7)]
        for b in brs:
            assert b.lower <= b.upper + 1e-9
        for a, b in zip(brs, brs[1:]):
            assert a.lower <= b.lower + 1e-12
            assert a.upper <= b.upper + 1e-9


def test_interlacing_examples():
    res = interlacing_check(families.complete(4), [3])
    assert res.ok
    ln_k3 = exact_ln(families.complete(3)).lower
    ln_k4 = exact_ln(families.complete(4)).lower
    assert ln_k3 <= ln_k4 and abs(ln_k3 - math.sqrt(2) / 2) < 1e-12
    # removing the middle of a path leaves two isolated vertices
    res = interlacing_check(families.path(3), [1])
    assert res.ok
    # removing all but one vertex
    res = interlacing_check(families.complete(4), [1, 2, 3])
    assert res.ok
    with pytest.raises(GraphError):
        interlacing_check(families.complete(3), [0, 1, 2])


def test_interlacing_rejects_a_non_integral_vertex():
    # int() truncated 1.9 to 1 and removed vertex 1; 1.0 still names it
    with pytest.raises(GraphError) as err:
        interlacing_check(families.path(4), [1.9])
    assert str(err.value) == "removed vertex #0 must be an integer vertex index, got 1.9"
    with pytest.raises(GraphError, match="removed vertex #1 .* got True"):
        interlacing_check(families.path(4), [2, True])
    assert interlacing_check(families.path(4), [1.0]).removed == (1,)


def test_interlacing_random_single_removals():
    for seed in range(5):
        g = random_signed(6, 0.5, seed)
        full = exact_ln(g).lower
        for v in range(6):
            sub = graph.induced_subgraph(g, [i for i in range(6) if i != v])
            assert exact_ln(sub).lower <= full + 1e-9
            assert interlacing_check(g, [v]).ok


def test_limit_scan_needs_an_edge():
    with pytest.raises(GraphError, match="limit scan needs an edge"):
        limit_scan(families.complete(1), [2.0, 4.0])
    with pytest.raises(GraphError, match="connected antibalanced"):
        limit_scan(families.edgeless(2), [2.0, 4.0])


def test_perron_pairs_dominate_exact_ln():
    # 2^-p lambda_n(p) decreases to the exact top cutoff value
    for seed in range(4):
        g = random_connected_antibalanced(6, 0.5, seed)
        ln = exact_ln(g).lower
        for p in (2.0, 4.0, 8.0):
            pair = solve_largest(g, p)
            assert pair.certificate == "perron-certified"
            assert 2.0 ** -p * pair.value >= ln - 1e-8


def test_limit_scan_k2_negative_is_immediate():
    scan = limit_scan(negate(families.complete(2)), [2.0, 4.0, 8.0])
    assert all(d < 1e-12 for d in scan.distances)


def test_limit_scan_star_converges_to_perron():
    scan = limit_scan(negate(families.star(5)), [4.0, 8.0, 16.0, 32.0])
    assert all(b <= a + 1e-8 for a, b in zip(scan.distances, scan.distances[1:]))
    assert scan.distances[-1] < 0.05
    expected = np.array([2.0, 1.0, 1.0, 1.0, 1.0]) / math.sqrt(8.0)
    assert np.allclose(scan.perron, expected, atol=1e-12)
    assert np.allclose(scan.functions[-1], expected, atol=0.05)


def test_limit_scan_rejects_bad_inputs():
    with pytest.raises(GraphError):
        limit_scan(families.complete(3), [2.0])      # not antibalanced
    two = validate(4, [(0, 1, 1.0, -1), (2, 3, 1.0, -1)])
    with pytest.raises(GraphError):
        limit_scan(two, [2.0])                        # disconnected


def test_limit_scan_stops_at_the_first_uncertified_p(monkeypatch):
    # the first two rows leave the cone off the eigenfunction and fall
    # through to the restarts: p = 4 returns a multi-restart pair and p = 8
    # would raise, but the scan stops at p = 4 as the one-p loop did
    from plap import solver
    refine = solver._power_refine

    def off_cone(gneg, ps, *rule):
        F, stopped, failed = refine(gneg, ps, *rule)
        F[:2, 0] *= -1.0
        return F, stopped, failed

    def restart(g, p, cfg, largest):
        if p != 4.0:
            raise solver.SolverError(f"no restart at p={p}")
        return solver.PEigenPair(p=p, value=1.0, f=np.ones(g.n), residual=0.0,
                                 certificate="multi-restart")
    monkeypatch.setattr(solver, "_power_refine", off_cone)
    monkeypatch.setattr(solver, "_best_restart", restart)
    with pytest.raises(RuntimeError, match=r"at p=4\.0 failed Perron"):
        limit_scan(negate(families.star(5)), [4.0, 8.0, 16.0, 32.0])

"""Independent sets, matchings, edge covers, inertia bounds."""

import dataclasses
import math

import networkx as nx
import numpy as np
import pytest

from plap import combinatorics, cutoff, families
from plap.combinatorics import (cvetkovic_bound, default_signature_pool,
                                inertia_report, max_independent_set,
                                max_matching, min_edge_cover)
from plap.graph import GraphError, validate
from plap.linalg import adjacency

from conftest import random_signed, random_weighted


def _to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((e.u, e.v) for e in g.edges)
    return h


def _brute_alpha(g):
    best = 0
    edges = [(e.u, e.v) for e in g.edges]
    for mask in range(1 << g.n):
        verts = [i for i in range(g.n) if (mask >> i) & 1]
        vs = set(verts)
        if all(not (u in vs and v in vs) for u, v in edges):
            best = max(best, len(verts))
    return best


def test_mis_examples():
    assert max_independent_set(families.complete(6)).size == 1
    assert max_independent_set(families.edgeless(7)).size == 7
    c5 = families.cycle(5)
    assert max_independent_set(c5).size == _brute_alpha(c5) == 2


@pytest.mark.parametrize("seed", range(10))
def test_mis_matches_brute_force(seed):
    g = random_signed(8, 0.45, seed)
    res = max_independent_set(g)
    assert res.exact
    assert res.size == _brute_alpha(g)
    vs = set(res.vertices)
    assert all(not (e.u in vs and e.v in vs) for e in g.edges)


def test_mis_greedy_fallback_flagged(monkeypatch):
    monkeypatch.setattr(combinatorics, "MIS_CAP", 10)
    g = families.cycle(12)
    res = max_independent_set(g)
    assert not res.exact
    assert res.size <= 6
    vs = set(res.vertices)
    assert all(not (e.u in vs and e.v in vs) for e in g.edges)


def test_matching_examples():
    assert max_matching(families.complete(4)).size == 2
    assert max_matching(families.star(5)).size == 1
    assert max_matching(families.path(4)).size == 2


@pytest.mark.parametrize("seed", range(10))
def test_matching_matches_networkx(seed):
    g = random_signed(8, 0.4, seed)
    ours = max_matching(g)
    ref = nx.max_weight_matching(_to_nx(g), maxcardinality=True)
    assert ours.size == len(ref)
    seen = set()
    for u, v in ours.edges:
        assert u not in seen and v not in seen
        assert (u, v) in {(e.u, e.v) for e in g.edges}
        seen.update((u, v))


def test_matching_cap():
    with pytest.raises(GraphError):
        max_matching(families.cycle(40))


def test_edge_cover_examples():
    for m in (3, 5, 8):
        assert min_edge_cover(families.star(m)).size == m - 1
    assert min_edge_cover(families.complete(4)).size == 2
    assert min_edge_cover(families.path(4)).size == 2
    with pytest.raises(GraphError, match="isolated"):
        min_edge_cover(validate(3, [(0, 1)]))


@pytest.mark.parametrize("seed", range(10))
def test_edge_cover_gallai_and_networkx(seed):
    g = random_signed(7, 0.6, seed)
    if g.isolated_vertices():
        pytest.skip("isolated vertex; no cover")
    cover = min_edge_cover(g)
    assert cover.size == g.n - max_matching(g).size
    assert cover.size == len(nx.min_edge_cover(_to_nx(g)))
    assert cover.size >= (g.n + 1) // 2
    covered = {x for uv in cover.edges for x in uv}
    assert covered == set(range(g.n))


def test_alpha_le_beta_without_isolated_vertices():
    for seed in range(10):
        g = random_signed(7, 0.6, seed)
        if g.isolated_vertices():
            continue
        assert (max_independent_set(g).size
                <= min_edge_cover(g).size)


def test_cvetkovic_examples():
    k21 = families.star(3)
    assert cvetkovic_bound(k21, adjacency(k21)) == 2 == _brute_alpha(k21)
    empty = families.edgeless(4)
    assert cvetkovic_bound(empty, np.zeros((4, 4))) == 4
    k2 = families.complete(2)
    assert cvetkovic_bound(k2, adjacency(k2)) == 1


def test_cvetkovic_support_violations():
    p3 = families.path(3)
    bad = np.zeros((3, 3))
    bad[0, 2] = bad[2, 0] = 1.0     # not an edge of the path
    with pytest.raises(ValueError, match="support"):
        cvetkovic_bound(p3, bad)
    diag = np.eye(3)
    with pytest.raises(ValueError, match="diagonal"):
        cvetkovic_bound(p3, diag)
    with pytest.raises(ValueError, match="matrix must be 3x3"):
        cvetkovic_bound(p3, np.zeros((3, 4)))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_cvetkovic_rejects_non_finite_entries(value):
    k4 = families.complete(4)
    m = adjacency(k4)
    m[0, 1] = m[1, 0] = value
    m[2, 3] = m[3, 2] = value
    with pytest.raises(ValueError, match=r"entry \(0,1\) is not finite"):
        cvetkovic_bound(k4, m)
    m = adjacency(k4)
    m[3, 2] = value                 # lower triangle only: not symmetric
    with pytest.raises(ValueError, match="symmetric"):
        cvetkovic_bound(k4, m)
    m = adjacency(k4)
    m[1, 1] = value
    with pytest.raises(ValueError, match=r"entry \(1,1\) is not finite"):
        cvetkovic_bound(k4, m)


def test_cvetkovic_dominates_alpha_on_random_graphs():
    for seed in range(10):
        g = random_signed(8, 0.5, seed)
        assert max_independent_set(g).size <= cvetkovic_bound(g, adjacency(g))


def test_signature_pools():
    g = families.path(4)
    pool = default_signature_pool(g, seed=0)
    assert len(pool) == 10 and pool[0] == (1, 1, 1) and pool[1] == (-1, -1, -1)
    assert default_signature_pool(g, seed=0) == pool     # deterministic


def test_inertia_report_star():
    rep = inertia_report(families.star(5))
    assert rep.ok
    assert rep.alpha == 4 and rep.beta == 4
    assert rep.exact_ln_value == pytest.approx(1.0, abs=1e-12)
    # brackets collapse: L_1..L_4 = 0, L_5 = 1
    from plap.cutoff import bracket
    for k in range(1, 5):
        assert bracket(families.star(5), k).upper == 0.0
    assert bracket(families.star(5), 5).lower == pytest.approx(1.0, abs=1e-9)


def test_inertia_report_k5_and_edgeless():
    rep = inertia_report(families.complete(5))
    assert rep.ok and rep.alpha == 1
    assert all(proxy >= 1 for proxy in rep.zero_count_proxies)
    rep = inertia_report(families.edgeless(3))
    assert rep.ok and rep.alpha == 3 and rep.beta is None
    assert rep.exact_ln_value == 0.0


@pytest.mark.parametrize("g", [families.edgeless(3), families.star(4)],
                         ids=["edgeless", "star4"])
def test_inertia_report_fails_a_nan_top_cutoff_eigenvalue(g, monkeypatch):
    from plap import cutoff
    exact_ln = cutoff.exact_ln
    monkeypatch.setattr(cutoff, "exact_ln",
                        lambda g: dataclasses.replace(exact_ln(g), lower=math.nan))
    rep = inertia_report(g)
    failed = [name for name, passed, _ in rep.checks if not passed]
    assert "top cutoff eigenvalue positive iff an edge exists" in failed
    assert not rep.ok


@pytest.mark.parametrize("g", [families.cycle(5), families.complete(4), random_signed(8, 0.7, 2)],
                         ids=["C5", "K4", "signed8"])
def test_inertia_report_computes_the_maximum_matching_once(g, monkeypatch):
    # the edge cover extends the report's own matching instead of searching
    # for one again
    assert not g.isolated_vertices()
    calls = []
    matching = combinatorics.max_matching

    def counted(h):
        calls.append(h)
        return matching(h)
    monkeypatch.setattr(combinatorics, "max_matching", counted)
    rep = inertia_report(g)
    assert calls == [g]
    assert rep.beta == min_edge_cover(g).size == g.n - rep.matching_size


def _resigned(g, sigma):
    """g validated anew with the signature sigma, as the old per-signature
    scan built it."""
    return validate(g.n, [(e.u, e.v, e.w, int(s)) for e, s in zip(g.edges, sigma)],
                    mu=g.mu, kappa=g.kappa)


# edgeless graphs, n = 1 and n = 2, signed graphs, and weighted graphs with
# non-unit mu and kappa != 0
SCAN_GRAPHS = ([families.edgeless(n) for n in (1, 2, 4)] + [families.complete(2)]
               + [validate(2, [(0, 1, 2.5, -1)], mu=[0.5, 3.0], kappa=[1.0, -1.0])]
               + [random_signed(n, 0.5, seed) for n in range(3, 12) for seed in range(6)]
               + [random_weighted(n, 0.6, seed, isolated=seed % 2)
                  for n in range(3, 10) for seed in range(6)])


def test_the_stacked_signature_scan_is_each_resigned_graph_bit_for_bit():
    assert len(SCAN_GRAPHS) >= 100
    for seed, g in enumerate(SCAN_GRAPHS):
        pool = default_signature_pool(g, seed)
        lows = cutoff._signed_lowers(g, np.array(pool, dtype=float))
        assert lows.shape == (len(pool), g.n)
        for sigma, row in zip(pool, lows):
            assert row.tobytes() == cutoff.lower_bounds_full_all(_resigned(g, sigma)).tobytes()
        if g.n <= 8:
            want = [int(np.sum(row <= combinatorics.ZERO_TOL)) for row in lows]
            rep = inertia_report(g, seed=seed)
            assert list(rep.zero_count_proxies) == want and rep.pool == tuple(pool)


@pytest.mark.parametrize("g", [families.path(3), families.star(5), families.cycle(5),
                               families.complete(4), families.cycle(10),
                               random_signed(7, 0.35, 1), random_weighted(6, 0.5, 2)],
                         ids=["P3", "star5", "C5", "K4", "C10", "signed7", "weighted6"])
def test_alpha_is_at_most_the_zero_count_of_every_signature(g):
    # the paper's bound holds for every signature: check all 2^m of them
    assert g.m <= 10
    codes = np.arange(2 ** g.m)[:, None] >> np.arange(g.m) & 1
    lows = cutoff._signed_lowers(g, 1.0 - 2.0 * codes)
    zero_counts = np.sum(lows <= combinatorics.ZERO_TOL, axis=1)
    assert max_independent_set(g).size <= zero_counts.min()


def test_failed_checks_carry_witness():
    # a deliberately wrong pool entry cannot be produced through the API, so
    # check the mechanism on a passing report: no witnesses attached
    rep = inertia_report(families.complete(4))
    assert all("witness" not in details for _, _, details in rep.checks)

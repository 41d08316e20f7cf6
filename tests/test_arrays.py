"""The cached array view of a graph and the kernels built on it.

Each kernel is compared with an inline copy of the edge-by-edge code it
replaced.  Those sum in the same order, so the results must be equal bit for
bit; only apply_tensor, whose vectorized powers may differ from scalar ones
in the last place, is held to a relative tolerance.
"""

import pickle

import numpy as np
import pytest

from plap import graph, linalg, solver, tensor
from plap.solver import psi

from conftest import random_weighted

GRAPHS = ([random_weighted(n, 0.5, seed, isolated=seed % 3) for seed, n in enumerate(range(3, 15))]
          + [graph.validate(4, [], mu=[1.0, 2.0, 0.5, 3.0], kappa=[0.5, -1.0, 0.0, 2.0]),
             graph.validate(1, [])])


# --- the edge-by-edge implementations the kernels replaced ------------------

def _old_edge_arrays(g):
    if not g.edges:
        z = np.zeros(0, dtype=int)
        return z, z, np.zeros(0), np.zeros(0)
    u, v, w, s = zip(*g.edges)
    return (np.asarray(u, dtype=int), np.asarray(v, dtype=int),
            np.asarray(w, dtype=float), np.asarray(s, dtype=float))


def _old_apply_plap(g, p, f):
    out = np.asarray(g.kappa, dtype=float) * psi(p, f)
    if g.m:
        u, v, w, s = _old_edge_arrays(g)
        t = psi(p, f[u] - s * f[v])
        np.add.at(out, u, w * t)
        np.add.at(out, v, -s * w * t)
    return out


def _old_rayleigh(g, p, f):
    den = float(np.sum(np.asarray(g.mu, dtype=float) * np.abs(f) ** p))
    num = float(np.sum(np.asarray(g.kappa, dtype=float) * np.abs(f) ** p))
    if g.m:
        u, v, w, s = _old_edge_arrays(g)
        num += float(np.sum(w * np.abs(f[u] - s * f[v]) ** p))
    return num / den


def _old_weighted_degrees(g):
    deg = np.zeros(g.n)
    for e in g.edges:
        deg[e.u] += e.w
        deg[e.v] += e.w
    return deg


def _old_adjacency(g):
    a = np.zeros((g.n, g.n))
    for e in g.edges:
        a[e.u, e.v] = a[e.v, e.u] = e.sigma * e.w
    return a


def _old_neg_sym_matrix(g, edge_mask=None):
    rt = 1.0 / np.sqrt(np.asarray(g.mu, dtype=float))
    m = np.zeros((g.n, g.n))
    for idx, e in enumerate(g.edges):
        if edge_mask is not None and not edge_mask[idx]:
            continue
        m[e.u, e.v] = m[e.v, e.u] = -e.sigma * e.w * rt[e.u] * rt[e.v]
    return m


def _old_build_tensor(g, p):
    entries = {}
    deg = g.weighted_degrees()
    for i in range(g.n):
        entries[((i, p),)] = float(g.kappa[i] + deg[i])
    for e in g.edges:
        for l in range(1, p):
            entries[((e.u, l), (e.v, p - l))] = float((-e.sigma) ** l * e.w)
    return entries


def _old_apply_tensor(t, f):
    out, degree_part = np.zeros(t.n), np.zeros(t.n)
    for pattern, val in t.entries.items():
        if len(pattern) != 2 or pattern[0][1] != 1:
            continue
        (i, _), (j, _) = pattern
        w, sigma = abs(val), (-1.0 if val > 0 else 1.0)
        out[i] += w * (f[i] - sigma * f[j]) ** (t.p - 1)
        out[j] += w * (f[j] - sigma * f[i]) ** (t.p - 1)
        degree_part[i] += w
        degree_part[j] += w
    for pattern, val in t.entries.items():
        if len(pattern) == 1:
            i = pattern[0][0]
            out[i] += (val - degree_part[i]) * f[i] ** (t.p - 1)
    return out


# --- bit-identical kernels --------------------------------------------------

@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_operator_kernels_equal_the_edge_loops(g):
    rng = np.random.default_rng(g.n * 31 + g.m)
    assert np.array_equal(g.weighted_degrees(), _old_weighted_degrees(g))
    assert all(np.array_equal(x, y) for x, y in zip(g.edge_arrays(), _old_edge_arrays(g)))
    for p in (1.5, 2.0, 3.0, 4.5):
        for _ in range(4):
            f = rng.standard_normal(g.n)
            want = _old_apply_plap(g, p, f)
            assert np.array_equal(solver.apply_plap(g, p, f), want)
            assert solver.rayleigh(g, p, f) == _old_rayleigh(g, p, f)
            defect = want - 1.25 * np.asarray(g.mu) * psi(p, f)
            assert solver.residual(g, p, 1.25, f) == float(np.max(np.abs(defect)))


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_normalized_adjacency_equals_the_edge_loops(g):
    rng = np.random.default_rng(g.n)
    assert np.array_equal(linalg.adjacency(g), _old_adjacency(g))
    assert np.array_equal(linalg.normalized_adjacency(g, negate=True), _old_neg_sym_matrix(g))
    assert np.array_equal(linalg.normalized_adjacency(g),
                          _old_neg_sym_matrix(graph.negate(g)))
    assert np.array_equal(linalg.normalized_adjacency(g, absolute=True),
                          np.abs(_old_neg_sym_matrix(graph.negate(g))))
    for _ in range(5):
        mask = rng.random(g.m) < 0.5
        assert np.array_equal(linalg.normalized_adjacency(g, mask, negate=True),
                              _old_neg_sym_matrix(g, mask))
        assert np.array_equal(linalg.normalized_adjacency(g, mask, absolute=True),
                              np.abs(_old_neg_sym_matrix(g, mask)))


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_negate_flag_equals_the_negated_graph_bit_for_bit(g):
    neg = graph.validate(g.n, [(e.u, e.v, e.w, -e.sigma) for e in g.edges],
                         mu=g.mu, kappa=g.kappa)
    assert linalg.adjacency(g, negate=True).tobytes() == linalg.adjacency(neg).tobytes()
    got, want = linalg.normalized_spectrum(g, negate=True), linalg.normalized_spectrum(neg)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.vectors.tobytes() == want.vectors.tobytes()


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_stacked_masks_give_the_row_matrices(g):
    masks = np.random.default_rng(g.m).random((6, g.m)) < 0.5
    masks[0], masks[1] = False, True
    for flags in ({}, {"negate": True}, {"absolute": True}):
        stack = linalg.normalized_adjacency(g, masks, **flags)
        assert stack.shape == (6, g.n, g.n)
        for mask, mat in zip(masks, stack):
            assert np.array_equal(mat, linalg.normalized_adjacency(g, mask, **flags))
    assert linalg.normalized_adjacency(g, masks[:0]).shape == (0, g.n, g.n)


# --- the tensor kernel ------------------------------------------------------

@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_apply_tensor_matches_the_loop_and_the_reference(g):
    rng = np.random.default_rng(g.m)
    for p in (2, 4, 6):
        t = tensor.build_tensor(g, p)
        for _ in range(4):
            f = rng.standard_normal(g.n)
            got = tensor.apply_tensor(t, f)
            scale = 1.0 + float(np.max(np.abs(got)))
            assert np.max(np.abs(got - _old_apply_tensor(t, f))) <= 1e-12 * scale
            assert np.max(np.abs(got - tensor.apply_tensor_reference(t, f))) <= 1e-12 * scale


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_build_tensor_equals_the_edge_loop(g):
    # the old tensor held only the pattern dict; from_entries parses it as
    # the old _collapse did
    rng = np.random.default_rng(g.n + 7)
    for p in (2, 4, 6, 8):
        t = tensor.build_tensor(g, p)
        f = rng.standard_normal(g.n)
        got = tensor.apply_tensor(t, f)
        assert "entries" not in t.__dict__
        want = _old_build_tensor(g, p)
        old = tensor.PLapTensor.from_entries(p, g.n, want)
        assert list(t.entries.items()) == list(want.items())
        assert all(type(val) is float for val in t.entries.values())
        for x, y in zip(t._collapse, old._collapse, strict=True):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert np.array_equal(got, tensor.apply_tensor(old, f))
        assert np.array_equal(tensor.apply_tensor_reference(t, f),
                              tensor.apply_tensor_reference(old, f))


def test_apply_tensor_keeps_a_missing_diagonal_missing():
    # a hand-built tensor without diagonal patterns has no vertex terms
    entries = {((0, 1), (1, 1)): -2.0}
    t = tensor.PLapTensor.from_entries(2, 3, entries)
    assert t.entries is entries
    f = np.array([1.0, 3.0, 5.0])
    assert np.array_equal(tensor.apply_tensor(t, f), _old_apply_tensor(t, f))


# --- the view itself --------------------------------------------------------

def test_cached_arrays_are_read_only():
    g = GRAPHS[5]
    arrays = list(g._arrays) + list(g.edge_arrays())
    arrays += [g.mu_array(), g.kappa_array(), g.weighted_degrees()]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[...] = 0.0
    for arr in tensor.build_tensor(g, 4)._collapse:
        with pytest.raises(ValueError):
            arr[...] = 0
    assert g.edge_arrays()[0] is g.edge_arrays()[0]


def test_cache_is_outside_equality_hash_and_pickle():
    g = GRAPHS[7]
    fresh = graph.validate(g.n, [tuple(e) for e in g.edges], mu=g.mu, kappa=g.kappa)
    assert "_arrays" not in fresh.__dict__
    f = np.linspace(-1.0, 1.0, g.n)
    before = solver.apply_plap(g, 3.0, f)
    assert "_arrays" in g.__dict__
    assert graph.classify_balance(g) is graph.classify_balance(g)
    assert g == fresh and hash(g) == hash(fresh)
    back = pickle.loads(pickle.dumps(g))
    assert back == g and hash(back) == hash(g)
    assert "_arrays" not in back.__dict__ and "_balance" not in back.__dict__
    assert graph.classify_balance(back) == graph.classify_balance(g)
    assert np.array_equal(solver.apply_plap(back, 3.0, f), before)
    with pytest.raises(ValueError):
        back.mu_array()[0] = 1.0


def test_with_zero_kappa_reuses_a_zero_potential_graph():
    g = graph.validate(3, [(0, 1), (1, 2, 2.0, -1)])
    assert graph.with_zero_kappa(g) is g
    h = graph.with_zero_kappa(GRAPHS[4])
    assert h.kappa == (0.0,) * h.n and h.edges == GRAPHS[4].edges

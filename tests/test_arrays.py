"""The cached array view of a graph and the kernels built on it.

Each kernel is compared with an inline copy of the edge-by-edge code it
replaced.  Those sum in the same order, so the results must be equal bit for
bit; only apply_tensor, whose vectorized powers may differ from scalar ones
in the last place, is held to a relative tolerance.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from plap import cli, cutoff, families, graph, linalg, solver, tensor
from plap.solver import psi

from conftest import random_connected_antibalanced, random_signed, random_weighted

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


# the three copies of D^{-1/2} X D^{-1/2} that linalg._scaled replaced
def _old_normalized_sym(g, negate):
    a = g._arrays
    adj = np.zeros((g.n, g.n))
    adj[a.u, a.v] = adj[a.v, a.u] = (-a.sigma if negate else a.sigma) * a.w
    return adj * a.rt[:, None] * a.rt[None, :]


def _old_pencil_vector(g, largest):
    lap = np.diag(g.weighted_degrees() + g.kappa_array()) - linalg.adjacency(g)
    rt = g._arrays.rt
    _, vecs = linalg.eigh_sorted(lap * rt[:, None] * rt[None, :])
    return rt * vecs[:, -1 if largest else 0]


def _old_perron_start(g):
    rt = g._arrays.rt
    _, pvecs = linalg.eigh_sorted(np.abs(linalg.adjacency(g)) * rt[:, None] * rt[None, :])
    return np.abs(rt * pvecs[:, -1]) + 1e-9


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
    got, want = linalg.normalized_spectrum(g, negate=True), linalg.normalized_spectrum(neg)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.vectors.tobytes() == want.vectors.tobytes()


# signed graphs with n 1-13 and weighted ones with non-unit mu and kappa != 0
BUILDER_GRAPHS = ([random_signed(n, 0.5, seed) for n in range(1, 14) for seed in range(6)]
                  + [random_weighted(n, 0.6, seed, isolated=seed % 2)
                     for n in range(2, 10) for seed in range(6)])


def test_the_one_builder_reproduces_the_three_old_copies():
    assert len(BUILDER_GRAPHS) == 126
    for g in BUILDER_GRAPHS:
        a = g._arrays
        for negate in (False, True):
            want = _old_normalized_sym(g, negate)
            assert linalg._scaled(g, (-a.sigma if negate else a.sigma) * a.w).tobytes() \
                == want.tobytes()
            dec = linalg.normalized_spectrum(g, negate=negate)
            vals, vecs = linalg.eigh_sorted(want)
            assert dec.values.tobytes() == vals.tobytes()
            assert dec.vectors.tobytes() == linalg._canonical_signs(a.rt[:, None] * vecs).tobytes()
        for largest in (False, True):
            assert solver._pencil_vector(g, largest).tobytes() \
                == _old_pencil_vector(g, largest).tobytes()
        assert linalg._scaled(g, a.w).tobytes() \
            == (np.abs(linalg.adjacency(g)) * a.rt[:, None] * a.rt[None, :]).tobytes()
        start = solver._starts(g, 3.0, solver.SolverConfig(), largest=True)[1]
        assert start.tobytes() == _old_perron_start(g).tobytes()


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


def _old_collapse(p, n, entries):
    """(i, j, w, sigma, kappa, bincount index) read from the pattern dict:
    each edge from its l = 1 value (-sigma) w, in entry order, as the tensor
    that held only the dict did."""
    edges = [pat for pat in entries if len(pat) == 2 and pat[0][1] == 1]
    ij = np.array([(pat[0][0], pat[1][0]) for pat in edges], dtype=int).reshape(-1, 2)
    val = np.array([entries[pat] for pat in edges], dtype=float)
    w = np.abs(val)
    deg = np.bincount(ij.ravel(), np.repeat(w, 2), minlength=n)
    diag = np.array([entries[((i, p),)] for i in range(n)])
    return (ij[:, 0], ij[:, 1], w, np.where(val > 0, -1.0, 1.0), diag - deg,
            np.concatenate((ij.ravel(), np.arange(n))))


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_build_tensor_equals_the_edge_loop(g):
    rng = np.random.default_rng(g.n + 7)
    for p in (2, 4, 6, 8):
        t = tensor.build_tensor(g, p)
        f = rng.standard_normal(g.n)
        got = tensor.apply_tensor(t, f)
        assert "entries" not in t.__dict__
        want = _old_build_tensor(g, p)
        assert list(t.entries.items()) == list(want.items())
        assert all(type(val) is float for val in t.entries.values())
        for x, y in zip(t._collapse, _old_collapse(p, g.n, want), strict=True):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        scale = 1.0 + float(np.max(np.abs(got)))
        assert np.max(np.abs(got - _old_apply_tensor(t, f))) <= 1e-12 * scale


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


def test_with_zero_kappa_zeroes_the_view():
    # the rest of the view is the input's own; equality, hash, repr and
    # pickle bytes: tests/test_properties.py
    g = GRAPHS[4]
    h = graph.with_zero_kappa(g)
    a, b = g._arrays, h._arrays
    assert "edges" not in h.__dict__
    assert b.kappa.tobytes() == np.zeros(g.n).tobytes() and not b.kappa.flags.writeable
    assert all(x is y for x, y, name in zip(a, b, a._fields) if name != "kappa")
    want = graph.validate(g.n, [tuple(e) for e in g.edges], mu=g.mu, kappa=[0.0] * g.n)
    assert h == want and hash(h) == hash(want) and repr(h) == repr(want)
    assert pickle.dumps(h) == pickle.dumps(want)


def test_connected_antibalancing_witness_is_kept_outside_pickle(monkeypatch):
    g = graph.negate(families.cycle(6))
    calls = []
    propagate = graph._propagate
    monkeypatch.setattr(graph, "_propagate", lambda h: calls.append(h) or propagate(h))
    tau = graph.connected_antibalancing_tau(g)
    assert graph.connected_antibalancing_tau(g) is tau
    assert graph.classify_balance(g).antibalanced_witness is tau
    assert graph.components(g) == [list(range(6))] and calls == [g]
    back = pickle.loads(pickle.dumps(g))
    assert "_search" not in back.__dict__ and "_balance" not in back.__dict__
    assert graph.connected_antibalancing_tau(back) == tau
    assert graph.components(back) == [list(range(6))] and len(calls) == 2


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_the_scatter_index_is_built_once_per_graph(g):
    a = g._arrays
    assert np.array_equal(a.ends, np.concatenate((np.arange(g.n), a.u, a.v)))
    assert a.ends.dtype == a.u.dtype and not a.ends.flags.writeable
    tau = np.where(np.arange(g.n) % 2, 1, -1)
    assert graph.switch(g, tau)._arrays.ends is a.ends
    assert graph.negate(g)._arrays.ends is a.ends


# --- graphs built without edge tuples ---------------------------------------

def test_a_switched_graph_is_solved_without_its_edge_tuples():
    # a Perron solve, the limit scan and the potential shift check switch
    # their graph once more, and the last two zero its potential; none of
    # these reads the edge tuples of the switched graph, or of the ones they
    # make
    base = random_connected_antibalanced(9, 0.5, 3)
    tau = np.where(np.arange(9) % 3, 1, -1)
    weighted = graph.validate(9, [(e.u, e.v, 0.5 + e.u, e.sigma) for e in base.edges],
                              mu=np.linspace(0.5, 2.0, 9).tolist(), kappa=[0.25] * 9)
    made = []
    switch = graph.switch
    for g in (base, weighted):
        h = graph.switch(g, tau)
        assert h.m == g.m
        assert graph.classify_balance(h).kind in ("antibalanced", "both")
        assert graph.components(h) == [list(range(9))]
        with pytest.MonkeyPatch.context() as mp:
            for module in (solver, cutoff):
                mp.setattr(module, "switch", lambda g, t: made.append(switch(g, t)) or made[-1])
            pair = solver.solve_largest(h, 3.0)
            pairs = list(solver.solve_largest_grid(h, cli.DEFAULT_P_GRID))
            cutoff.limit_scan(h, cli.LIMIT_P_GRID)
            if any(g.kappa):
                assert solver.potential_shift_check(h, 3.0, h.n).passed
        assert pair.certificate == "perron-certified"
        assert {q.certificate for q in pairs} == {"perron-certified"}
        assert "edges" not in h.__dict__
    # solve, grid, and the limit scan's switch and grid, for both graphs;
    # the shift check's two solves for the weighted one
    assert len(made) == 10 and not any("edges" in x.__dict__ for x in made)


def test_a_switched_graph_keeps_the_dataclass_contract():
    # equality, hash, repr, pickle and JSON: tests/test_properties.py
    g = GRAPHS[6]
    tau = np.where(np.arange(g.n) % 3, 1, -1)
    for make, sigmas in ((lambda: graph.negate(g), [-e.sigma for e in g.edges]),
                         (lambda: graph.switch(g, tau),
                          [int(tau[e.u] * e.sigma * tau[e.v]) for e in g.edges])):
        eager = graph.validate(g.n, [(e.u, e.v, e.w, s) for e, s in zip(g.edges, sigmas)],
                               mu=g.mu, kappa=g.kappa)
        for twin in (dataclasses.replace(make()), copy.copy(make()), copy.deepcopy(make())):
            assert twin == eager and "edges" in twin.__dict__
        lazy = make()
        assert lazy.m == eager.m and "edges" not in lazy.__dict__
        assert lazy.edges is lazy.edges == eager.edges
        with pytest.raises(AttributeError, match="no attribute 'edge'"):
            make().edge
        with pytest.raises(dataclasses.FrozenInstanceError):
            make().edges = ()

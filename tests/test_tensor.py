"""Even-p tensor construction, application, and eigenpair correspondence."""

import dataclasses

import numpy as np
import pytest

from plap import families, graph
from plap.linalg import adjacency
from plap.solver import apply_plap, solve_largest
from plap.tensor import (apply_tensor, apply_tensor_reference, build_tensor,
                         eigen_correspondence)

from conftest import random_signed


def test_build_tensor_k2_p4():
    t = build_tensor(families.complete(2), 4)
    assert t.entries[((0, 4),)] == 1.0
    assert t.entries[((1, 4),)] == 1.0
    for l in range(1, 4):
        assert t.entries[((0, l), (1, 4 - l))] == (-1.0) ** l


def test_build_tensor_rejects_odd_p():
    with pytest.raises(ValueError):
        build_tensor(families.complete(2), 3)
    with pytest.raises(ValueError):
        build_tensor(families.complete(2), 2.0)


def test_build_tensor_edgeless_all_zero():
    t = build_tensor(families.edgeless(3), 4)
    assert all(v == 0.0 for v in t.entries.values())


def test_tensor_on_a_large_sparse_graph_solves_nothing(monkeypatch):
    monkeypatch.setattr(np.linalg, "solve", None)
    g = families.hypercube(10)
    f = np.random.default_rng(0).standard_normal(g.n)
    assert np.allclose(apply_tensor(build_tensor(g, 4), f), apply_plap(g, 4.0, f),
                       rtol=1e-12, atol=1e-12)


def test_apply_tensor_examples():
    t = build_tensor(families.complete(2), 4)
    assert np.allclose(apply_tensor(t, np.array([1.0, -1.0])), [8.0, -8.0])
    assert np.allclose(apply_tensor(t, np.zeros(2)), 0.0)


def test_apply_tensor_matches_plap_and_reference(rng):
    worst_fast = worst_ref = 0.0
    for seed in range(20):
        g = random_signed(6, 0.6, seed)
        for p in (2, 4, 6):
            t = build_tensor(g, p)
            for _ in range(20):
                f = rng.standard_normal(6)
                scale = max(np.max(np.abs(f)) ** (p - 1), 1e-300)
                plap = apply_plap(g, p, f)
                worst_fast = max(worst_fast,
                                 np.max(np.abs(apply_tensor(t, f) - plap)) / scale)
                worst_ref = max(worst_ref,
                                np.max(np.abs(apply_tensor_reference(t, f) - plap))
                                / scale)
    assert worst_fast <= 1e-10
    assert worst_ref <= 1e-10


def test_pattern_symmetry_p4_by_explicit_expansion():
    # expand the stored patterns of a signed triangle into a dense order-4
    # array and check full index-permutation symmetry
    g = random_signed(3, 1.0, 0)
    p = 4
    t = build_tensor(g, p)
    dense = np.zeros((3,) * p)
    from itertools import permutations
    from collections import Counter
    for idx in np.ndindex(*dense.shape):
        counts = Counter(idx)
        if len(counts) == 1:
            i = idx[0]
            dense[idx] = t.entries[((i, p),)]
        elif len(counts) == 2:
            (i, li), (j, lj) = sorted(counts.items())
            dense[idx] = t.entries.get(((i, li), (j, lj)), 0.0)
    for idx in np.ndindex(*dense.shape):
        for perm in permutations(idx):
            assert dense[perm] == dense[idx]
    # and the dense contraction agrees with the fast apply
    f = np.random.default_rng(0).standard_normal(3)
    contracted = dense.copy()
    for _ in range(p - 1):
        contracted = contracted @ f
    assert np.allclose(contracted, apply_tensor(t, f), atol=1e-12)


def test_p2_tensor_reproduces_matrix(rng):
    g = random_signed(5, 0.7, 2)
    t = build_tensor(g, 2)
    m = np.diag(g.weighted_degrees() + g.kappa_array()) - adjacency(g)
    for _ in range(5):
        f = rng.standard_normal(5)
        assert np.allclose(apply_tensor(t, f), m @ f, atol=1e-12)


def test_eigen_correspondence_exact_pair():
    from plap.solver import PEigenPair
    f = np.array([1.0, -1.0]) / 2.0 ** 0.25    # unit 4-norm
    pair = PEigenPair(p=4, value=8.0, f=f, residual=0.0, certificate="closed-form")
    rep = eigen_correspondence(families.complete(2), 4, pair)
    assert rep.defect <= 1e-12 and rep.ok


def test_eigen_correspondence_star_solver_output():
    pair = solve_largest(families.star(5), 4)
    rep = eigen_correspondence(families.star(5), 4, pair)
    assert rep.defect <= 1e-8 and rep.ok


def test_eigen_correspondence_lower_bound_negative_cliques():
    for n in (3, 4):
        g = graph.negate(families.complete(n))
        pair = solve_largest(g, 4)
        rep = eigen_correspondence(g, 4, pair)
        assert rep.bound_confirmed is True
        if n == 3:
            assert rep.lower_bound == pytest.approx(16.0, abs=1e-9)
        assert pair.value >= rep.lower_bound - 1e-8 * (1 + pair.value)


@pytest.mark.parametrize("certificate, confirmed", [("perron-certified", False),
                                                     ("multi-restart", None)])
def test_eigen_correspondence_under_the_bound(certificate, confirmed):
    # a certified top value under the bound is a failure; a multi-restart
    # value is only a lower bound for the top one, so nothing is decided
    g = graph.negate(families.complete(3))
    pair = dataclasses.replace(solve_largest(g, 4), value=1.0, certificate=certificate)
    rep = eigen_correspondence(g, 4, pair)
    assert rep.lower_bound == pytest.approx(16.0, abs=1e-9)
    assert rep.bound_confirmed is confirmed


def test_eigen_correspondence_rejects_mismatched_p():
    pair = solve_largest(families.star(4), 4)
    with pytest.raises(ValueError):
        eigen_correspondence(families.star(4), 6, pair)

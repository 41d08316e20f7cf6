"""Spectra of (normalized) signed adjacency matrices."""

import math

import numpy as np
import pytest

from plap import families, graph
from plap.cutoff import lower_bounds_full_all
from plap.linalg import adjacency, normalized_spectrum, sign_counts

from conftest import random_signed


def test_adjacency_k2():
    assert np.array_equal(adjacency(families.complete(2)), [[0, 1], [1, 0]])
    assert np.array_equal(adjacency(graph.negate(families.complete(2))),
                          [[0, -1], [-1, 0]])


def test_negation_flips_adjacency():
    for seed in range(5):
        g = random_signed(6, 0.5, seed)
        assert np.array_equal(adjacency(graph.negate(g)), -adjacency(g))


def test_known_spectra():
    assert np.allclose(normalized_spectrum(families.complete(3)).values,
                       [-1, -1, 2], atol=1e-12)
    assert np.allclose(normalized_spectrum(families.path(3)).values,
                       [-math.sqrt(2), 0, math.sqrt(2)], atol=1e-12)
    # negated complete graph: spectrum of -A is the reversed negated one
    assert np.allclose(normalized_spectrum(graph.negate(families.complete(3))).values,
                       [-2, 1, 1], atol=1e-12)


def test_sign_counts():
    assert sign_counts(np.array([-1.0, -1.0, 2.0]), 1e-9) == (1, 2, 0)
    assert sign_counts(np.zeros(4), 1e-9) == (0, 0, 4)
    assert sign_counts(normalized_spectrum(families.path(3)), 1e-9) == (1, 1, 1)
    with pytest.raises(ValueError):
        sign_counts(np.zeros(2), -1.0)
    with pytest.raises(ValueError, match="tolerance"):
        sign_counts(np.zeros(2), math.nan)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sign_counts_rejects_non_finite_values(value):
    with pytest.raises(ValueError, match=r"eigenvalue #1 is not finite"):
        sign_counts(np.array([1.0, value, -1.0, value]), 1e-9)


def test_unit_measure_equals_adjacency_spectrum():
    for seed in range(5):
        g = random_signed(7, 0.5, seed)
        assert np.allclose(normalized_spectrum(g).values,
                           np.sort(np.linalg.eigvalsh(adjacency(g))), atol=1e-12)


def test_generalized_residuals_and_mu_orthonormality():
    rng = np.random.default_rng(0)
    for n in (5, 16, 64):
        g = families.random_graph(n, 0.4, seed=n, signed=True)
        mu = 0.5 + rng.random(n)
        g = graph.validate(n, [tuple(e) for e in g.edges], mu=mu)
        dec = normalized_spectrum(g)
        a = adjacency(g)
        d = np.diag(dec.mu)
        fro = max(1.0, np.linalg.norm(a, "fro"))
        for k in range(n):
            v = dec.vectors[:, k]
            assert np.linalg.norm(a @ v - dec.values[k] * (d @ v)) <= 1e-10 * fro
        gram = dec.vectors.T @ d @ dec.vectors
        assert np.max(np.abs(gram - np.eye(n))) < 1e-10


def test_switching_invariance_of_spectrum():
    rng = np.random.default_rng(3)
    for seed in range(8):
        g = random_signed(7, 0.5, seed)
        tau = tuple(int(x) for x in np.where(rng.random(7) < 0.5, 1, -1))
        a = normalized_spectrum(g).values
        b = normalized_spectrum(graph.switch(g, tau)).values
        assert np.max(np.abs(a - b)) < 1e-10


def test_lambda_max_monotone_under_entrywise_increase():
    # underpins the exact top-cutoff algorithm
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = 6
        base = rng.random((n, n))
        base = np.triu(base, 1)
        a = base + base.T
        extra = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.4), 1)
        b = a + extra + extra.T
        assert (np.linalg.eigvalsh(a)[-1]
                <= np.linalg.eigvalsh(b)[-1] + 1e-12)


def test_deterministic_vector_signs():
    g = random_signed(6, 0.6, 4)
    v1 = normalized_spectrum(g).vectors
    v2 = normalized_spectrum(g).vectors
    assert np.array_equal(v1, v2)


def test_full_lower_bounds_are_the_spectrum_values_bit_for_bit():
    graphs = [families.complete(5), families.star(6), families.hypercube(3),
              graph.negate(families.cycle(7)), families.edgeless(3),
              *(random_signed(n, 0.5, seed) for n in (4, 8, 10) for seed in range(6))]
    for g in graphs:
        want = np.maximum(0.0, 0.5 * normalized_spectrum(g, negate=True).values)
        assert lower_bounds_full_all(g).tobytes() == want.tobytes()

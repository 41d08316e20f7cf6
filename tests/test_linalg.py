"""Spectra of (normalized) signed adjacency matrices."""

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plap import families, graph, solver
from plap.cutoff import lower_bounds_full_all
from plap.linalg import (_canonical_signs, _eigvals, _flushed, adjacency, normalized_adjacency, normalized_spectrum,
                         sign_counts)

from conftest import random_signed, wide_range_graphs

EPS = np.finfo(float).eps


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


def test_eigvals_flushes_an_entry_of_1e_160_beside_ones():
    # eigvalsh alone gives 1.4996...: LAPACK's square-root-free QR works on
    # the squared off-diagonals, and 1e-320 is subnormal
    m = normalized_adjacency(graph.validate(3, [(0, 2, 1e-160), (1, 2, 1.5)]))
    assert _eigvals(m[None], 3)[0, -1] == 1.5


# each has a nonzero pencil entry below eps r: a diagonal one of +-1e-20
# (the -1e-20 one is missed by a signed row sum), or a weight of 1e-300
PENCIL_FLUSH_GRAPHS = [graph.validate(3, [(0, 1, 1.0)], kappa=[0.0, 0.0, -1e-20]),
                       graph.validate(3, [(0, 1, 1.0)], kappa=[0.0, 0.0, 1e-20]),
                       graph.validate(2, [], kappa=[1.0, 1e-20]),
                       graph.validate(3, [(0, 1, 1.0, -1), (1, 2, 1e-300)], kappa=[0.5, -2.0, 0.0])]


@pytest.mark.parametrize("g", PENCIL_FLUSH_GRAPHS + wide_range_graphs(8)
                         + [random_signed(7, 0.5, s) for s in range(4)],
                         ids=lambda g: f"n{g.n}m{g.m}")
def test_the_pencil_takes_its_graphs_flush_decision_bit_for_bit(g):
    # deciding once per graph gives the bytes of flushing the pencil always
    a = g._arrays
    lap = normalized_adjacency(g, negate=True)
    lap[np.diag_indices(g.n)] = (g.weighted_degrees() + g.kappa_array()) * a.rt * a.rt
    vecs = _canonical_signs(np.linalg.eigh(_flushed(lap))[1])
    for k, largest in ((0, False), (-1, True)):
        assert solver._pencil_vector(g, largest).tobytes() == (a.rt * vecs[:, k]).tobytes()


def _path_stack(*weights):
    """The path 0 - 1 - ... with these weights, as a stack of one matrix."""
    n = len(weights) + 1
    m = np.zeros((1, n, n))
    m[0, range(n - 1), range(1, n)] = m[0, range(1, n), range(n - 1)] = weights
    return m


@st.composite
def _wide_signed_stacks(draw):
    """A stack of symmetric matrices, entries of either sign from 1e-300 to
    1e300 beside zeros and O(1) ones (1e308 makes a row sum overflow)."""
    n, size = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    size_of = st.one_of(st.just(0.0), st.just(1e308), st.floats(0.5, 2.0),
                        st.floats(-300.0, 300.0).map(lambda x: 10.0 ** x))
    entry = st.tuples(size_of, st.sampled_from([1.0, -1.0])).map(lambda t: t[0] * t[1])
    stack = np.zeros((size, n, n))
    for b in stack:
        for i, j in combinations_with_replacement(range(n), 2):
            b[i, j] = b[j, i] = draw(entry)
    return stack


# the reference is eigh in units of r.  On the examples eigvalsh alone is off
# by 3e10, 5,000 and 3.5e9 times the slack: the 3-vertex path above, a path
# whose weights are all tiny, and a graph with weights 2, 1.14, 1.89e-87 and
# 2e-101 (which a flush below sqrt(tiny) / eps r, about 6.7e-139 r, keeps)
@given(_wide_signed_stacks())
@settings(max_examples=300, deadline=None)
@example(_path_stack(1e-160, 1.5))
@example(_path_stack(1e-265, 4e-230, 4e-230, 4e-230, 5e-230))
@example(normalized_adjacency(graph.validate(5, [(0, 2, 1.89e-87), (0, 3, 2.05e-101),
                                                 (1, 2, 2.38e-101, -1), (1, 4, 1.14, -1),
                                                 (2, 3, 2.0)]))[None])
def test_eigvals_are_within_rounding_of_eigh_in_units_of_r(stack):
    with np.errstate(over="ignore"):
        r = np.abs(stack).sum(axis=2).max(axis=1)
    assume(np.isfinite(r).all())
    n = stack.shape[-1]
    ref = np.linalg.eigh(stack / np.where(r > 0, r, 1.0)[:, None, None])[0] * r[:, None]
    assert (np.abs(_eigvals(stack, n) - ref) <= 4 * n * n * EPS * r[:, None]).all()


@pytest.mark.parametrize("g", wide_range_graphs(12), ids=lambda g: f"n{g.n}m{g.m}")
def test_eigh_is_within_rounding_on_tiny_weights_beside_ones(g):
    # why the full-graph spectra keep eigh: on all 293 wide-range graphs the
    # two below were within 4 n^2 eps r of eigh in units of r
    for negate, got in ((True, 2.0 * lower_bounds_full_all(g)),
                        (False, normalized_spectrum(g).values)):
        m = normalized_adjacency(g, negate=negate)
        r = np.abs(m).sum(axis=1).max()
        ref = np.linalg.eigh(m / r)[0] * r
        if negate:
            ref = np.maximum(0.0, ref)      # the lower bounds are clamped at 0
        assert (np.abs(got - ref) <= 4 * g.n ** 2 * EPS * r).all()

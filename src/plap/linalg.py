"""Adjacency matrices of signed graphs and dense symmetric eigensolves.

The generalized problem A v = lambda D v (D = diag(mu)) is always solved
through the symmetric similarity D^{-1/2} A D^{-1/2}, never by forming
D^{-1} A, so exact symmetry is preserved.  Eigenvalues come back ascending
and eigenvector signs are canonicalized (first significant component
positive) so repeated runs are bit-identical.

_symmetric is the one writer of per-edge values into a matrix or a stack,
under two scalings.  _scaled writes x, then multiplies by rt[:, None] *
rt[None, :] (entry (i, j) = (x rt_i) rt_j) for the full-graph spectra, the
inertia scan and the solver's p = 2 pencil and |A|-Perron start.
normalized_adjacency writes sigma * scale, scale = (w rt_u) rt_v, and 0.0
for masked-out edges.  eigh reads the lower triangle, (x rt_v) rt_u in the
first form, so merging the two moves eigenvalues in the last place at mu != 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import SignedGraph

SIGN_TOL = 1e-9
_BATCH_BYTES = 1 << 17      # bytes of float64 matrices per stacked eigensolve
_FLUSH = np.finfo(float).eps    # _eigvals sets entries below _FLUSH r to 0


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of a symmetric (possibly measure-weighted) problem.

    values are ascending; vectors[:, k] belongs to values[k] and the basis is
    orthonormal in the mu-weighted inner product.
    """

    values: np.ndarray
    vectors: np.ndarray
    mu: Optional[np.ndarray] = None


def _symmetric(n: int, u: np.ndarray, v: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """vals[..., t] at (u_t, v_t) and (v_t, u_t) of an n x n matrix, one
    matrix per row of vals: the stack has the shape vals.shape[:-1]."""
    a = np.zeros(vals.shape[:-1] + (n, n))
    a[..., u, v] = vals
    a[..., v, u] = vals
    return a


def adjacency(g: SignedGraph) -> np.ndarray:
    """Signed adjacency matrix: a_ij = sigma_ij * w_ij on edges, else 0."""
    a = g._arrays
    return _symmetric(g.n, a.u, a.v, a.sigma * a.w)


def _scaled(g: SignedGraph, vals: np.ndarray) -> np.ndarray:
    """D^{-1/2} X D^{-1/2} as X * rt[:, None] * rt[None, :], X holding vals
    (in edge order; (S, m) vals give S matrices) on the edges, 0 elsewhere."""
    a = g._arrays
    return _symmetric(g.n, a.u, a.v, vals) * a.rt[:, None] * a.rt[None, :]


def normalized_adjacency(g: SignedGraph, edge_mask: Optional[np.ndarray] = None,
                         negate: bool = False, absolute: bool = False) -> np.ndarray:
    """D^{-1/2} A D^{-1/2} of the spanning subgraph picked by a boolean mask
    over g.edges (default all); negate flips every sign, absolute drops them.
    A (B, m) mask gives the (B, n, n) stack of its rows' matrices; a mask
    whose last axis is not m raises ValueError."""
    a = g._arrays
    vals = a.scale if absolute else (-a.sigma if negate else a.sigma) * a.scale
    if edge_mask is not None:
        if np.shape(edge_mask)[-1:] != (g.m,):
            raise ValueError(f"edge mask of shape {np.shape(edge_mask)} is not (..., {g.m})")
        vals = np.where(edge_mask, vals, 0.0)
    return _symmetric(g.n, a.u, a.v, vals)


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = np.flatnonzero(np.abs(col) > SIGN_TOL * max(1.0, np.abs(col).max()))
        if idx.size and col[idx[0]] < 0:
            out[:, k] = -col
    return out


def eigh_sorted(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues (as LAPACK returns them), canonical eigenvectors."""
    vals, vecs = np.linalg.eigh(m)
    return vals, _canonical_signs(vecs)


def _eigvals(rows, n: int, flush: bool = True, build=np.asarray) -> np.ndarray:
    """Ascending eigenvalues of each symmetric n x n matrix of build(rows), one
    per row (by default rows is the (S, n, n) stack itself), built and solved
    by np.linalg.eigvalsh _BATCH_BYTES of matrices (or one) at a time.

    With flush, entries below _FLUSH r are set to 0 first, r the matrix's
    largest absolute row sum, which moves each eigenvalue by at most n eps r.
    eigvalsh alone is off on tiny entries beside O(1) ones: 1.4996, not 1.5,
    at the top of normalized_adjacency(validate(3, [(0, 2, 1e-160), (1, 2,
    1.5)])), and by 1.6e-4 on weights 2, 1.14, 1.9e-87 and 2e-101, which a
    flush below sqrt(tiny) / eps r leaves as they are.  eigh (the full-graph
    spectra) was within 4 n^2 eps r of eigh in units of r on all 293
    wide-range graphs.
    """
    out, step = np.empty((len(rows), n)), max(1, _BATCH_BYTES // (8 * n * n))
    for lo in range(0, len(rows), step):
        b = build(rows[lo:lo + step])
        if flush:
            with np.errstate(over="ignore"):
                r = np.minimum(np.abs(b).sum(axis=2).max(axis=1), np.finfo(float).max)
            b = np.where(np.abs(b) < _FLUSH * r[:, None, None], 0.0, b)
        out[lo:lo + step] = np.linalg.eigvalsh(b)
    return out


def normalized_spectrum(g: SignedGraph, negate: bool = False) -> EigenDecomposition:
    """Spectrum of the normalized adjacency D^{-1} A via D^{-1/2} A D^{-1/2};
    with negate, of -A (that of graph.negate(g), bit for bit).

    The returned eigenvectors are orthonormal in the mu-weighted inner
    product and solve A v = lambda D v.
    """
    a = g._arrays
    vals, vecs = eigh_sorted(_scaled(g, (-a.sigma if negate else a.sigma) * a.w))
    return EigenDecomposition(values=vals, vectors=_canonical_signs(a.rt[:, None] * vecs),
                              mu=a.mu)


def sign_counts(dec, tol: float) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) with |lambda| <= tol counted as zero.

    Accepts an EigenDecomposition or a plain array of eigenvalues; a
    non-finite eigenvalue raises ValueError naming its position.
    """
    if not tol >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    values = dec.values if isinstance(dec, EigenDecomposition) else dec
    v = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(f"eigenvalue #{bad[0]} is not finite: {v.flat[bad[0]]}")
    n_plus = int(np.sum(v > tol))
    n_minus = int(np.sum(v < -tol))
    return n_plus, n_minus, v.size - n_plus - n_minus

"""Adjacency matrices of signed graphs and dense symmetric eigensolves.

The generalized problem A v = lambda D v (D = diag(mu)) is always solved
through the symmetric similarity D^{-1/2} A D^{-1/2}, never by forming
D^{-1} A, so exact symmetry is preserved.  Eigenvalues come back ascending
and eigenvector signs are canonicalized (first significant component
positive) so repeated runs are bit-identical.

_symmetric is the one writer of per-edge values into a matrix or a stack,
under one scaling: the view's scale, (w rt_u) rt_v per edge, which
normalized_adjacency signs and masks.  _eigh and _eigvals hold the only
eigh and eigvalsh calls, and both flush the same way (_flushed).  _flush(g)
decides once per graph whether g's copies of A^mu and its p = 2 pencil need
it; cvetkovic_bound's unscaled adjacency is always flushed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import SignedGraph

SIGN_TOL = 1e-9
_BATCH_BYTES = 1 << 17      # bytes of float64 matrices per stacked eigensolve
_FLUSH = np.finfo(float).eps    # _flushed sets entries below _FLUSH r to 0


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


def _stored(g: SignedGraph, key, make):
    """make(g), computed on the first call for this graph object and kept in
    g._store under key; cutoff keeps its pool scans there too, under
    ("pool", composition)."""
    store = g._store
    if key not in store:
        store[key] = make(g)
    return store[key]


def _flush(g: SignedGraph) -> bool:
    """Whether _flushed must flush g's matrices, once per graph object:
    whether some nonzero entry of the p = 2 pencil, diag(_pencil_diagonal)
    - A^mu, is below _FLUSH times its largest absolute row sum.  Every
    signed, masked, gathered or absolute copy of A^mu has no other entries
    and row sums at most those, so otherwise the flush would change nothing."""
    def below(g):
        a, diag = g._arrays, np.abs(_pencil_diagonal(g))
        rows = diag + np.bincount(np.concatenate((a.u, a.v)),
                                  np.concatenate((a.scale, a.scale)), g.n)
        entries = np.concatenate((a.scale, diag[diag > 0]))
        return bool(entries.size) and bool(entries.min() < _FLUSH * rows.max())
    return _stored(g, "flush", below)


def _pencil_diagonal(g: SignedGraph) -> np.ndarray:
    """(deg + kappa) / mu, the diagonal of D^{-1/2} (Deg + K - A) D^{-1/2}."""
    a = g._arrays
    return (g.weighted_degrees() + g.kappa_array()) * a.rt * a.rt


def _flushed(b: np.ndarray) -> np.ndarray:
    """The matrix or (S, n, n) stack b with each entry below _FLUSH r set to
    0, r its matrix's largest absolute row sum: each eigenvalue moves by at
    most n eps r."""
    size = np.abs(b)
    with np.errstate(over="ignore"):
        r = np.minimum(size.sum(axis=-1).max(axis=-1, keepdims=True), np.finfo(float).max)
    return np.where(size < _FLUSH * r[..., None], 0.0, b)


def _eigh(b: np.ndarray, flush: bool) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of the matrix or stack b, _flushed first with flush."""
    return np.linalg.eigh(_flushed(b) if flush else b)


def _eigvals(rows, n: int, flush: bool = True, build=np.asarray) -> np.ndarray:
    """Ascending eigenvalues of each symmetric n x n matrix of build(rows), one
    per row (by default rows is the (S, n, n) stack itself), built and solved
    by np.linalg.eigvalsh _BATCH_BYTES of matrices (or one) at a time, each
    batch _flushed first with flush.

    eigvalsh alone is off on tiny entries beside O(1) ones: 1.4996, not 1.5,
    at the top of normalized_adjacency(validate(3, [(0, 2, 1e-160), (1, 2,
    1.5)])), and by 1.6e-4 on weights 2, 1.14, 1.9e-87 and 2e-101, which a
    flush below sqrt(tiny) / eps r leaves as they are.  The full-graph
    spectra and lower sides take _eigh: eigh rounds differently.
    """
    out, step = np.empty((len(rows), n)), max(1, _BATCH_BYTES // (8 * n * n))
    for lo in range(0, len(rows), step):
        b = build(rows[lo:lo + step])
        out[lo:lo + step] = np.linalg.eigvalsh(_flushed(b) if flush else b)
    return out


def normalized_spectrum(g: SignedGraph, negate: bool = False) -> EigenDecomposition:
    """Spectrum of the normalized adjacency D^{-1} A via D^{-1/2} A D^{-1/2};
    with negate, of -A (that of graph.negate(g), bit for bit).

    The returned eigenvectors are orthonormal in the mu-weighted inner
    product and solve A v = lambda D v.
    """
    a = g._arrays
    vals, vecs = _eigh(normalized_adjacency(g, negate=negate), _flush(g))
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

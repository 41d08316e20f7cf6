"""Even-p symmetric tensor form of the p-Laplacian and the eigenpair
correspondence.

Entries are defined by index-multiset pattern, never as a dense order-p
array: an edge (i,j) contributes one entry per split {i^(l), j^(p-l)} and
each vertex one diagonal pattern {i^(p)}.  A tensor stores them as flat
arrays, per edge (i, j, w, sigma) and per vertex its diagonal entry, built
from the graph's array view.  Applying the tensor collapses edgewise to
w_ij (f_i - sigma_ij f_j)^(p-1) + kappa_i f_i^(p-1); the tests check that
collapse against the binomial sums over the patterns.  The odd powers are
taken as |x|^(p-1) sign(x) (solver.psi), as every solver kernel takes them:
on a negative base numpy's pow is tens of times slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import SignedGraph
from .solver import PEigenPair, psi

CORRESPONDENCE_TOL = 1e-8   # eigen_correspondence: defect, relative bound slack


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@dataclass(frozen=True, eq=False)
class PLapTensor:
    """Edge (i[k], j[k]) of weight w[k] and sign sigma[k] carries the
    patterns {i^(l), j^(p-l)}, l = 1..p-1, with value (-sigma)^l w; vertex
    v carries the diagonal pattern {v^(p)} with value diag[v]."""

    p: int
    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    sigma: np.ndarray
    diag: np.ndarray

    @cached_property
    def _collapse(self) -> tuple[np.ndarray, ...]:
        """(i, j, w, sigma) per edge, per vertex diag - weighted degree
        (= kappa), and the bincount index of apply_tensor's terms."""
        # interleaved (i0, j0, i1, j1, ...) sums each degree in entry order
        ij = np.column_stack((self.i, self.j)).ravel()
        deg = np.bincount(ij, np.repeat(self.w, 2), minlength=self.n)
        return (self.i, self.j, self.w, self.sigma,
                *_read_only(self.diag - deg, np.concatenate((ij, np.arange(self.n)))))


def _check_even(p) -> int:
    if not isinstance(p, (int, np.integer)) or p % 2 != 0 or p < 2:
        raise ValueError(f"the tensor form needs a positive even integer p, got {p!r}")
    return int(p)


def build_tensor(g: SignedGraph, p: int) -> PLapTensor:
    """Order-p tensor with (A f^(p-1))_i = (Delta_p f)(i) for every f.

    Diagonal pattern {i^(p)} carries kappa_i + sum_{j~i} w_ij; the edge
    pattern {i^(l), j^(p-l)} carries (-sigma_ij)^l w_ij, which is symmetric
    in l <-> p-l because p is even.  Read from g's array view, without a
    pass over the edges in Python.
    """
    p = _check_even(p)
    a = g._arrays
    return PLapTensor(p, g.n, a.u, a.v, a.w, a.sigma, *_read_only(a.kappa + a.deg))


def apply_tensor(t: PLapTensor, f: np.ndarray) -> np.ndarray:
    """(A f^(p-1))_i, computed by the closed edgewise collapse.

    Self-contained: edge weights and signs are the tensor's own arrays, the
    potential is each diagonal entry less the weighted degree.  Each edge
    raises d = f_i - sigma f_j once, as the sign-restored power psi(p, d) =
    |d|^(p-1) sign(d): numpy's pow on a negative base runs tens of times
    slower than on |d|.  Vertex j's term is -sigma times vertex i's, bit for
    bit, since f_j - sigma f_i = -sigma d exactly and psi is odd.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (t.n,):
        raise ValueError(f"function has shape {f.shape}, expected ({t.n},)")
    i, j, w, sigma, coef, idx = t._collapse
    e = w * psi(t.p, f.take(i) - sigma * f.take(j))
    # per vertex: edge terms in entry order (i0, j0, i1, j1, ...), then the
    # diagonal term
    vals, k = np.empty(idx.size), 2 * e.size
    vals[:k:2] = e
    vals[1:k:2] = -sigma * e
    vals[k:] = coef * psi(t.p, f)
    return np.bincount(idx, vals, minlength=t.n)


@dataclass(frozen=True)
class CorrespondenceReport:
    p: int
    defect: float
    defect_ok: bool
    lower_bound: float
    value: float
    # True: bound certified; None: pair sits under the bound but is itself
    # only a lower bound for the top eigenvalue, so nothing is decided
    bound_confirmed: bool | None

    @property
    def ok(self) -> bool:
        return self.defect_ok and self.bound_confirmed is not False


def eigen_correspondence(g: SignedGraph, p: int, pair: PEigenPair,
                         ln=None) -> CorrespondenceReport:
    """Verify that a certified p-Laplacian eigenpair is a tensor eigenpair of
    the mu-normalized tensor, and that the top value clears the spectral
    lower bound 2^(p-1) * lambda_n(negated normalized adjacency of the best
    spanning subgraph) - max|kappa/mu|.

    ln is cutoff.exact_ln(g), computed here when the caller does not have it.
    """
    p = _check_even(p)
    if pair.certificate not in ("perron-certified", "multi-restart", "closed-form"):
        raise ValueError(f"uncertified eigenpair (certificate {pair.certificate!r})")
    if abs(pair.p - p) > 0:
        raise ValueError(f"pair was solved at p={pair.p}, not {p}")
    from .cutoff import exact_ln
    from .graph import structural_constants

    t = build_tensor(g, p)
    f = np.asarray(pair.f, dtype=float)
    mu = g.mu_array()
    defect = float(np.max(np.abs(apply_tensor(t, f) / mu - pair.value * psi(p, f))))

    if ln is None:
        ln = exact_ln(g)
    _, c = structural_constants(g)
    bound = 2.0 ** (p - 1) * (2.0 * ln.lower) - c
    slack = CORRESPONDENCE_TOL * (1.0 + abs(pair.value))
    if pair.value >= bound - slack:
        confirmed: bool | None = True
    elif pair.certificate == "perron-certified":
        confirmed = False   # pair is the top eigenvalue, the bound must hold
    else:
        confirmed = None
    return CorrespondenceReport(p=p, defect=defect, defect_ok=defect <= CORRESPONDENCE_TOL,
                                lower_bound=bound, value=pair.value,
                                bound_confirmed=confirmed)

"""The signed p-Laplacian: operator, Rayleigh quotient, extremal eigenpairs.

solve_largest / solve_smallest run projected gradient ascent/descent of the
Rayleigh quotient on the mu-weighted unit p-sphere with Armijo backtracking
and multiple restarts.  On connected graphs whose signature is switching
equivalent to all-negative, a converged strictly one-signed eigenfunction
pins the value down as the top eigenvalue (tag "perron-certified"); in every
other case the returned value is a certified eigenvalue and only a lower
bound for the top (resp. upper bound for the bottom) one.

On that Perron path with kappa >= 0 a fixed-point iteration of the
order-preserving, 1-homogeneous cone map (Delta_p f / mu)^(1/(p-1)) stops
when its Collatz-Wielandt bracket min/max of T(f)/f has closed to 5e-16
relative; lambda is then pinned to about (p-1) * 5e-16 and the pair is
returned without a Newton polish.  The polish runs only where the iteration
ran out of rounds and on the kappa < 0 ascent.

At p = 2 the quotient is that of the pencil (Deg + K - A, diag(mu)), whose
extreme generalized eigenvector is its global maximizer (minimizer); the
generic path returns it, Newton-polished, without any restart.  At p > 2
each restart leaves the ascent at relative residual HANDOFF and Newton's
method on the eigen-equation finishes it; a restart whose polish misses the
tolerance resumes its ascent where it left off, under the tolerance stop.

All restarts ascend together as one (R, n) stack, so each iteration pays
numpy's per-call overhead once rather than R times; apply_plap, rayleigh and
normalize_sp take a stack (..., n) as well as one function.  Each row keeps
its own value, step, backtracking, hand-off and stop, and does the
arithmetic of a run from its start alone, so values, eigenfunctions,
residuals, certificates and SolverErrors are bit for bit those of solving
the starts one after another.  Three things keep the rows exact: edge
gathers with take (whose stacks are C-contiguous, so row sums stay
pairwise), the norm's 1/p-th root as a scalar pow per row, and the squared
gradient norm as a stacked matmul.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .graph import (SignedGraph, classify_balance, connected_antibalancing_tau,
                    structural_constants, switch, with_zero_kappa)
from .linalg import adjacency, eigh_sorted

P_CAP = 64.0
# relative residual at which a p > 2 restart leaves the ascent for Newton:
# the ascent converges linearly, Newton quadratically once this close
HANDOFF = 1e-4
# Newton rounds are cheap next to the ascent; a row at a linear rate (a
# degenerate Jacobian) needs more than a handful to reach the tolerance
POLISH_ROUNDS = 30


class SolverError(RuntimeError):
    """An eigenpair solve did not reach the requested residual tolerance."""


def psi(p: float, x: np.ndarray) -> np.ndarray:
    """Psi_p(t) = |t|^(p-2) t, with Psi_p(0) = 0."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.zeros_like(ax)
    nz = ax > 0
    out[nz] = ax[nz] ** (p - 1.0) * np.sign(x[nz])
    return out


def pnorm(f: np.ndarray, p: float, mu: np.ndarray):
    """mu-weighted p-norm along the last axis: a float for one function, one
    value per row for a stack.  The root is a scalar pow per row, since the
    vectorized ** rounds differently in the last place."""
    s = (mu * np.abs(f) ** p).sum(-1)
    if s.ndim == 0:
        return float(s ** (1.0 / p))
    return np.reshape([x ** (1.0 / p) for x in s.flat], s.shape)


def normalize_sp(f: np.ndarray, p: float, mu: np.ndarray) -> np.ndarray:
    """Project onto the mu-weighted unit p-sphere (each row of a stack)."""
    nrm = pnorm(f, p, mu)
    if isinstance(nrm, np.ndarray):
        ok, nrm = (np.isfinite(nrm) & (nrm != 0)).all(), nrm[..., None]
    else:
        ok = nrm != 0 and math.isfinite(nrm)
    if not ok:
        raise ValueError("cannot normalize the zero (or non-finite) function")
    return f / nrm


def _check_p(p: float) -> None:
    if not p > 1:
        raise ValueError(f"p must be > 1, got {p}")


def apply_plap(g: SignedGraph, p: float, f: np.ndarray) -> np.ndarray:
    """(Delta_p f)(i) = sum_{j~i} w_ij Psi_p(f_i - sigma_ij f_j) + kappa_i Psi_p(f_i),
    for one function or each row of a stack (..., n)."""
    _check_p(p)
    f = np.asarray(f, dtype=float)
    a = g._arrays
    t = psi(p, f.take(a.u, axis=-1) - a.sigma * f.take(a.v, axis=-1))
    # one pass over (vertex terms, u-ends, v-ends) sums each vertex in the
    # same order as kappa * psi(f) followed by np.add.at over u, then v
    idx = np.concatenate((np.arange(g.n), a.u, a.v))
    vals = np.concatenate((a.kappa * psi(p, f), a.w * t, -a.sigma * a.w * t), axis=-1)
    if f.ndim == 1:
        return np.bincount(idx, vals, minlength=g.n)
    # row r of a stack scatters into bins r*n .. r*n + n-1
    rows = f.size // g.n
    idx = idx + g.n * np.arange(rows)[:, None]
    return np.bincount(idx.ravel(), vals.ravel(), minlength=rows * g.n).reshape(f.shape)


def rayleigh(g: SignedGraph, p: float, f: np.ndarray):
    """(sum_E w |f_i - sigma f_j|^p + sum_i kappa |f_i|^p) / sum_i mu |f_i|^p:
    a float for one function, one value per row for a stack (..., n)."""
    _check_p(p)
    f = np.asarray(f, dtype=float)
    a = g._arrays
    af = np.abs(f) ** p
    den = (a.mu * af).sum(-1)
    if (den == 0).any():
        raise ValueError("Rayleigh quotient of the zero function")
    num = (a.kappa * af).sum(-1)
    if g.m:
        # take keeps a gathered (R, m) stack C-contiguous (f[:, u] is not),
        # so each row sum is the same pairwise sum as on one function
        d = f.take(a.u, axis=-1) - a.sigma * f.take(a.v, axis=-1)
        num = num + (a.w * np.abs(d) ** p).sum(-1)
    q = num / den
    return float(q) if f.ndim == 1 else q


def residual(g: SignedGraph, p: float, lam: float, f: np.ndarray) -> float:
    """Max-norm defect of the eigen-equation Delta_p f = lambda mu Psi_p(f)."""
    f = np.asarray(f, dtype=float)
    if not np.any(f):
        raise ValueError("residual of the zero function")
    defect = apply_plap(g, p, f) - lam * g.mu_array() * psi(p, f)
    return float(np.max(np.abs(defect)))


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8          # relative: accept residual <= tol * (1 + |lambda|)
    max_iters: int = 2000
    restarts: int = 10
    rng_seed: int = 0
    armijo_slope: float = 1e-4
    backtrack: float = 0.5
    initial_step: float = 1.0

    def __post_init__(self):
        # each test is written so that NaN fails it
        for field, ok, need in (
                ("tol", 0 < self.tol < np.inf, "positive and finite"),
                ("restarts", self.restarts >= 1, ">= 1"),
                ("max_iters", self.max_iters >= 0, ">= 0"),
                ("armijo_slope", self.armijo_slope >= 0, ">= 0"),
                # at backtrack >= 1 the Armijo search never ends
                ("backtrack", 0 < self.backtrack < 1, "in (0, 1)"),
                ("initial_step", 0 < self.initial_step < np.inf, "positive and finite")):
            if not ok:
                raise ValueError(f"SolverConfig.{field} must be {need}, "
                                 f"got {getattr(self, field)!r}")


@dataclass(frozen=True)
class PEigenPair:
    p: float
    value: float
    f: np.ndarray
    residual: float
    certificate: str  # "perron-certified" | "multi-restart" | "closed-form"


def _row_sqnorms(G: np.ndarray) -> np.ndarray:
    """G[i] @ G[i] for each row, bit for bit: the stacked matmul runs the
    1-D dot product per row, while einsum and (G * G).sum(1) round
    differently."""
    return (G[:, None, :] @ G[:, :, None])[:, 0, 0]


def _ascent(g: SignedGraph, p: float, F0: np.ndarray, cfg: SolverConfig,
            maximize: bool,
            handoff: Optional[Callable[[int, np.ndarray, float], bool]] = None
            ) -> tuple[np.ndarray, np.ndarray]:
    """Armijo projected gradient on the unit p-sphere from each row of the
    (R, n) stack F0, all rows in lockstep; returns the (R, n) stack F and the
    (R,) values lam.

    Each row keeps its own value, step and backtracking, and leaves the live
    set when its own run would stop: residual below 1e-3 * tol, a vanishing
    gradient, no Armijo step, or max_iters.  Every row does exactly the
    arithmetic of a one-row run, so its result is the same bit for bit.

    With handoff, a row first stops at residual HANDOFF * (1 + |lambda|) and
    handoff(i, f, lambda) is called with its index and point.  If it returns
    True the row ends there; otherwise the row goes on from the same state
    (value, step, iterations left) under the stops above, so its run and
    result are those it would have had without the hand-off.
    """
    mu = g.mu_array()
    sgn = 1.0 if maximize else -1.0
    F = normalize_sp(np.asarray(F0, dtype=float), p, mu)
    lam = rayleigh(g, p, F)
    step = np.full(len(F), float(cfg.initial_step))
    handing = np.full(len(F), handoff is not None)
    live = np.arange(len(F))
    for _ in range(cfg.max_iters):
        if not live.size:
            break
        f, lm = F[live], lam[live]
        defect = apply_plap(g, p, f) - lm[:, None] * mu * psi(p, f)
        res = np.max(np.abs(defect), axis=1)
        grad = sgn * (p * defect)
        g2 = _row_sqnorms(grad)
        scale = 1.0 + np.abs(lm)
        near = res <= 1e-3 * cfg.tol * scale
        if handoff is not None:
            for j in np.flatnonzero(handing[live] & (res <= HANDOFF * scale)):
                handing[live[j]] = False
                near[j] |= handoff(int(live[j]), f[j], float(lm[j]))
        go = ~near & ~(g2 <= 1e-30)
        live, f, lm, grad, g2 = live[go], f[go], lm[go], grad[go], g2[go]
        t = step[live]
        moved = np.zeros(live.size, dtype=bool)
        search = np.flatnonzero(t > 1e-18)
        while search.size:
            cand = normalize_sp(f[search] + t[search, None] * grad[search], p, mu)
            lam_c = rayleigh(g, p, cand)
            ok = sgn * (lam_c - lm[search]) >= cfg.armijo_slope * t[search] * g2[search]
            acc = search[ok]
            F[live[acc]], lam[live[acc]] = cand[ok], lam_c[ok]
            moved[acc] = True
            search = search[~ok]
            t[search] *= cfg.backtrack
            search = search[t[search] > 1e-18]
        live = live[moved]
        step[live] = np.minimum(np.maximum(t[moved] * 2.0, 1e-12), 1e3)
    return F, lam


def _power_refine(gneg: SignedGraph, p: float, f0: np.ndarray,
                  max_iters: int = 5000, rtol: float = 5e-16) -> tuple[np.ndarray, bool]:
    """Order-preserving fixed-point refinement in the positive cone; returns
    the last iterate and whether the stop rule below ended the iteration
    (False: max_iters ran out).

    Requires sigma identically -1 and kappa >= 0; then Delta_p maps positive
    functions to positive ones and the normalized iteration converges to the
    one-signed top eigenfunction.  The map T(f) = (Delta_p f / mu)^(1/(p-1))
    is order-preserving and 1-homogeneous on the cone, so the ratios T(f)/f
    bracket its eigenvalue r = lambda^(1/(p-1)): min T(f)/f <= r <=
    max T(f)/f (the Collatz-Wielandt bracket of Gaubert & Gunawardena,
    Trans. AMS 2004).  The iteration stops once that spread is at most
    rtol * max, which pins lambda to about (p-1) * rtol relative.
    """
    mu = gneg.mu_array()
    f = np.abs(np.asarray(f0, dtype=float))
    f[f == 0] = 1e-12
    f = normalize_sp(f, p, mu)
    invexp = 1.0 / (p - 1.0)
    for _ in range(max_iters):
        y = apply_plap(gneg, p, f)
        t = (y / mu) ** invexp
        ratio = t / f
        spread = float(ratio.max() - ratio.min())
        f = normalize_sp(t, p, mu)
        if spread <= rtol * float(ratio.max()):
            return f, True
    return f, False


def _newton_polish(g: SignedGraph, p: float, lam: float,
                   f: np.ndarray) -> tuple[float, np.ndarray]:
    """Newton steps on the eigen-equation plus sphere constraint (p >= 2 only).

    Runs while the residual falls, up to POLISH_ROUNDS steps, and returns the
    best pair seen.  At p > 2 a vertex with f_i = 0 whose neighbours are all
    zero too (an isolated vertex, say) has a vanishing Jacobian row and
    column; the step leaves it at zero and solves for the other unknowns.
    """
    if p < 2:
        return lam, f
    n = g.n
    a = g._arrays
    mu, kap, u, v, w, s = a.mu, a.kappa, a.u, a.v, a.w, a.sigma
    # flat (n+1)^2 positions of the (u,u), (v,v), (u,v), (v,u) blocks, in the
    # order of the four np.add.at calls that one bincount replaces
    side = n + 1
    cells = np.concatenate((u * side + u, v * side + v, u * side + v, v * side + u))
    x = np.asarray(f, dtype=float).copy()
    lm = float(lam)
    best = (residual(g, p, lm, x), lm, x)
    for _ in range(POLISH_ROUNDS):
        absx = np.abs(x)
        dx = np.ones_like(x) if p == 2 else absx ** (p - 2.0)
        d = x[u] - s * x[v]
        dd = np.ones_like(d) if p == 2 else np.abs(d) ** (p - 2.0)
        coef = (p - 1.0) * w * dd
        off = -s * coef
        jac = np.bincount(cells, np.concatenate((coef, coef, off, off)),
                          minlength=side * side).reshape(side, side)
        idx = np.arange(n)
        jac[idx, idx] += (p - 1.0) * (kap - lm * mu) * dx
        jac[:n, n] = -mu * psi(p, x)
        jac[n, :n] = p * mu * psi(p, x)
        rhs = np.empty(n + 1)
        rhs[:n] = apply_plap(g, p, x) - lm * mu * psi(p, x)
        rhs[n] = float(np.sum(mu * absx ** p) - 1.0)
        # the n x n block is symmetric and the border entries of vertex i are
        # multiples of psi(x_i), so row i vanishes exactly when column i does
        coupled = jac.any(axis=1)
        try:
            if coupled.all():
                delta = np.linalg.solve(jac, -rhs)
            else:
                keep = np.flatnonzero(coupled)
                delta = np.zeros(side)
                delta[keep] = np.linalg.solve(jac[np.ix_(keep, keep)], -rhs[keep])
        except np.linalg.LinAlgError:
            break
        x2 = x + delta[:n]
        lm2 = lm + float(delta[n])
        nrm2 = np.sum(mu * np.abs(x2) ** p)
        if not (np.isfinite(nrm2) and nrm2 > 0):
            break
        x2 = x2 / nrm2 ** (1.0 / p)
        r2 = residual(g, p, lm2, x2)
        if r2 < best[0]:
            best = (r2, lm2, x2)
            x, lm = x2, lm2
        else:
            break
    return best[1], best[2]


def _edgeless_pair(g: SignedGraph, p: float, largest: bool) -> PEigenPair:
    ratios = g.kappa_array() / g.mu_array()
    i = int(np.argmax(ratios) if largest else np.argmin(ratios))
    f = np.zeros(g.n)
    f[i] = 1.0
    f = normalize_sp(f, p, g.mu_array())
    lam = float(ratios[i])
    return PEigenPair(p=p, value=lam, f=f, residual=residual(g, p, lam, f),
                      certificate="closed-form")


def _pencil_vector(g: SignedGraph, largest: bool) -> np.ndarray:
    """Top (bottom) generalized eigenvector of the p = 2 pencil
    (Deg + K - A, diag(mu)): the maximizer (minimizer) of the p = 2 quotient."""
    # kappa enters the p=2 pencil through the diagonal of Deg + K - A
    lap = np.diag(g.weighted_degrees() + g.kappa_array()) - adjacency(g)
    rt = g._arrays.rt
    _, vecs = eigh_sorted(lap * rt[:, None] * rt[None, :])
    return rt * vecs[:, -1 if largest else 0]


def _starts(g: SignedGraph, p: float, cfg: SolverConfig, largest: bool) -> list[np.ndarray]:
    """Warm starts: p=2 extremal generalized eigenvector, |A|-Perron vector,
    two-point edge vectors (the sparse maximizers that dominate for p < 2),
    then seeded random points."""
    starts = [_pencil_vector(g, largest)]
    rt = g._arrays.rt
    _, pvecs = eigh_sorted(np.abs(adjacency(g)) * rt[:, None] * rt[None, :])
    starts.append(np.abs(rt * pvecs[:, -1]) + 1e-9)
    if largest:
        heavy = sorted(g.edges, key=lambda e: (-e.w, e.u, e.v))[:12]
        for e in heavy:
            f = np.zeros(g.n)
            f[e.u] = 1.0
            f[e.v] = -float(e.sigma)
            starts.append(f)
    rng = np.random.default_rng(cfg.rng_seed)
    for _ in range(cfg.restarts):
        starts.append(rng.standard_normal(g.n))
    return starts


def _finish(g, p, f, lam):
    lam, f = _newton_polish(g, p, lam, f)
    return f, lam, residual(g, p, lam, f)


def _best_restart(g: SignedGraph, p: float, cfg: SolverConfig, largest: bool,
                  lead: Sequence[Sequence[float]] = ()) -> PEigenPair:
    """The generic solve: the highest (lowest) value among the restarts that
    reach the residual tolerance, the first one on a tie.

    At p = 2 the one restart is the pencil's extreme eigenvector, polished:
    it maximizes (minimizes) the quotient, so no other start could win.
    Otherwise the starts (lead, then _starts) ascend (descend) as one stack
    and each result is polished, in start order.  At p > 2 a row is polished
    as soon as it reaches the HANDOFF residual; if that polish misses the
    tolerance, the row resumes its ascent as if it had never been handed off
    and its end point is polished instead.
    """
    def ok(lam, res):
        return res <= cfg.tol * (1.0 + abs(lam))

    if p == 2:
        f = normalize_sp(_pencil_vector(g, largest), p, g.mu_array())
        pairs = [_finish(g, p, f, rayleigh(g, p, f))]
    else:
        handed = {}

        def handoff(i, f, lam):
            pair = _finish(g, p, f.copy(), lam)
            if ok(*pair[1:]):
                handed[i] = pair
            return i in handed

        starts = np.array([*lead, *_starts(g, p, cfg, largest)], dtype=float)
        F, lams = _ascent(g, p, starts, cfg, largest, handoff if p > 2 else None)
        pairs = [handed[i] if i in handed else _finish(g, p, f.copy(), lam)
                 for i, (f, lam) in enumerate(zip(F, lams.tolist()))]
    best = None
    for f, lam, res in pairs:
        better = best is None or (lam > best[1] if largest else lam < best[1])
        if ok(lam, res) and better:
            best = (f, lam, res)
    if best is None:
        raise SolverError(f"no restart reached residual tolerance {cfg.tol:g} "
                          f"(p={p}, restarts={cfg.restarts})")
    f, lam, res = best
    return PEigenPair(p=p, value=lam, f=f, residual=res, certificate="multi-restart")


def solve_largest(g: SignedGraph, p: float,
                  cfg: Optional[SolverConfig] = None) -> PEigenPair:
    """Best stationary pair found for the top of the Rayleigh quotient.

    Connected antibalanced graphs go through the positive-cone path and are
    tagged perron-certified when the converged eigenfunction is strictly
    one-signed; then the value is exactly the top eigenvalue.  Otherwise the
    value is a certified eigenvalue and a lower bound for it.

    On the cone path the pair is polished by Newton only when the cone
    iteration did not close its Collatz-Wielandt bracket (spread of T(f)/f
    at most 5e-16 of its max) or kappa < 0 forced the ascent; a closed
    bracket already pins the value to about (p-1) * 5e-16 relative.
    """
    _check_p(p)
    if p > P_CAP:
        raise ValueError(f"p > {P_CAP:g} is not supported by the iterative solvers")
    cfg = cfg or SolverConfig()
    if g.m == 0:
        return _edgeless_pair(g, p, largest=True)

    witness = connected_antibalancing_tau(g)
    if witness is not None:
        tau = np.asarray(witness, dtype=float)
        gneg = switch(g, witness)
        if np.min(gneg.kappa_array()) >= 0:
            f, bracketed = _power_refine(gneg, p, np.ones(g.n))
            lam = rayleigh(gneg, p, f)
        else:
            f0 = np.abs(np.random.default_rng(cfg.rng_seed).standard_normal(g.n)) + 0.1
            F, lams = _ascent(gneg, p, f0[None, :], cfg, maximize=True)
            f, lam, bracketed = F[0], float(lams[0]), False
        if bracketed:   # Newton has nothing left to gain on a pinned lambda
            res = residual(gneg, p, lam, f)
        else:
            f, lam, res = _finish(gneg, p, f, lam)
        one_signed = bool(np.all(f > 0) or np.all(f < 0))
        ok = res <= cfg.tol * (1.0 + abs(lam))
        if one_signed and ok:
            return PEigenPair(p=p, value=lam, f=tau * np.abs(f), residual=res,
                              certificate="perron-certified")
        # fall through to the generic path if the cone route failed

    return _best_restart(g, p, cfg, largest=True)


def solve_smallest(g: SignedGraph, p: float,
                   cfg: Optional[SolverConfig] = None) -> PEigenPair:
    """Certified eigenpair near the bottom; the value is an upper bound for
    the smallest variational eigenvalue.

    Balanced graphs with kappa proportional to mu (in particular kappa == 0)
    get the exact bottom pair: the switched-constant eigenfunction.
    """
    _check_p(p)
    if p > P_CAP:
        raise ValueError(f"p > {P_CAP:g} is not supported by the iterative solvers")
    cfg = cfg or SolverConfig()
    if g.m == 0:
        return _edgeless_pair(g, p, largest=False)
    mu = g.mu_array()

    bal = classify_balance(g)
    if bal.balanced_witness is not None:
        ratios = g.kappa_array() / mu
        if np.ptp(ratios) == 0:
            f = normalize_sp(np.asarray(bal.balanced_witness, dtype=float), p, mu)
            lam = float(ratios[0])
            return PEigenPair(p=p, value=lam, f=f,
                              residual=residual(g, p, lam, f),
                              certificate="closed-form")

    lead = () if bal.balanced_witness is None else (bal.balanced_witness,)
    return _best_restart(g, p, cfg, largest=False, lead=lead)


# --- closed forms -----------------------------------------------------------

def closed_form_complete(n: int, p: float) -> np.ndarray:
    """All positive p-Laplacian eigenvalues of the unit-weight complete graph:
    { n - (h+k) + (h^(q-1) + k^(q-1))^(p-1) : h,k >= 1, h+k <= n }, sorted."""
    if n < 3:
        raise ValueError("closed_form_complete needs n >= 3")
    _check_p(p)
    q = p / (p - 1.0)
    vals = sorted({n - (h + k) + (h ** (q - 1.0) + k ** (q - 1.0)) ** (p - 1.0)
                   for h in range(1, n) for k in range(1, n - h + 1)})
    return np.asarray(vals)


def complete_extremes(n: int, p: float) -> tuple[float, float]:
    """(lambda_2, lambda_n) of the complete graph: the positive eigenvalues
    have no gap below the smallest one, so min and max of the closed-form set
    are the second and top variational eigenvalues."""
    vals = closed_form_complete(n, p)
    return float(vals[0]), float(vals[-1])


def closed_form_star(m: int, p: float) -> float:
    """Top p-Laplacian eigenvalue of the unit-weight star on m vertices."""
    if m < 2:
        raise ValueError("closed_form_star needs m >= 2")
    _check_p(p)
    return float((1.0 + (m - 1.0) ** (1.0 / (p - 1.0))) ** (p - 1.0))


# --- monotonicity functionals ----------------------------------------------

@dataclass(frozen=True)
class MonotonicityReport:
    p_grid: tuple[float, ...]
    lambdas: tuple[float, ...]
    m1: tuple[float, ...]          # 2^-p * lambda, must be non-increasing
    m2: tuple[float, ...]          # p * (lambda/D)^(1/p), must be non-decreasing
    violations: tuple[tuple[int, str, float], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def monotonicity_functionals(g: SignedGraph, k_label: int,
                             p_grid: Sequence[float],
                             lambdas: Sequence[float],
                             slack: float = 1e-8) -> MonotonicityReport:
    """Evaluate m1(p) = 2^-p lambda and m2(p) = p (lambda/D)^(1/p) along an
    increasing p-grid of certified values for one extremal index, and report
    every monotonicity violation beyond the slack."""
    if k_label not in (1, g.n):
        raise ValueError("k_label must be 1 or n (the computable indices)")
    if min(g.kappa) < 0:
        raise ValueError("m2 requires kappa >= 0")
    dconst, _ = structural_constants(g)
    if dconst <= 0:
        raise ValueError("D must be positive (graph without edges or potential)")
    ps = [float(x) for x in p_grid]
    if any(b <= a for a, b in zip(ps, ps[1:])):
        raise ValueError("p-grid must be strictly increasing")
    bad = [i for i, x in enumerate(lambdas) if not math.isfinite(x)]
    if bad:
        raise ValueError(f"lambda at index {bad[0]} is not finite: {lambdas[bad[0]]!r}")
    lams = [max(0.0, float(x)) for x in lambdas]
    m1 = [2.0 ** (-p) * lam for p, lam in zip(ps, lams)]
    m2 = [p * (lam / dconst) ** (1.0 / p) for p, lam in zip(ps, lams)]
    violations = []
    for i in range(len(ps) - 1):      # written so that a NaN fails
        if not m1[i + 1] <= m1[i] + slack:
            violations.append((i, "m1", m1[i + 1] - m1[i]))
        if not m2[i + 1] >= m2[i] - slack:
            violations.append((i, "m2", m2[i] - m2[i + 1]))
    return MonotonicityReport(p_grid=tuple(ps), lambdas=tuple(lams),
                              m1=tuple(m1), m2=tuple(m2),
                              violations=tuple(violations))


# --- potential shift --------------------------------------------------------

@dataclass(frozen=True)
class ShiftReport:
    p: float
    k_label: int
    lambda_kappa: float
    lambda_zero: float
    bound: float        # C = max |kappa_i / mu_i|
    passed: bool


def potential_shift_check(g: SignedGraph, p: float, k_label: int,
                          cfg: Optional[SolverConfig] = None,
                          slack: float = 1e-9) -> ShiftReport:
    """Check |lambda_k(kappa) - lambda_k(0)| <= C for an extremal index."""
    if k_label == 1:
        solve = solve_smallest
    elif k_label == g.n:
        solve = solve_largest
    else:
        raise ValueError("k_label must be 1 or n")
    _, c = structural_constants(g)
    lam_k = solve(g, p, cfg).value
    lam_0 = solve(with_zero_kappa(g), p, cfg).value
    return ShiftReport(p=p, k_label=k_label, lambda_kappa=lam_k,
                       lambda_zero=lam_0, bound=c,
                       passed=abs(lam_k - lam_0) <= c + slack)

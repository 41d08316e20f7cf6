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
generic path returns it, Newton-polished, without any restart.  At every
other p each restart leaves the ascent at relative residual HANDOFF (p > 2)
or HANDOFF_P_BELOW_2 (p < 2) and Newton's method on the eigen-equation
finishes it; a restart whose polish misses the tolerance resumes its ascent
where it left off, under the tolerance stop.  The ascent converges only
linearly below p = 2 (Buhler & Hein, ICML 2009), so there such a restart is
handed to Newton again each time its relative residual has fallen to
REHANDOFF times that of its last try; above p = 2 it gets one try.  Below
p = 2 an eigenfunction also often has zero entries, where |f_i|^(p-2) in
the Jacobian is infinite; when plain Newton misses the tolerance the polish
sets the entries below PIN of the largest to exactly 0, solves for the
others, and accepts a step only if the residual over all vertices, the
pinned ones included, falls.  The Perron path skips the polish below p = 2:
a pinned zero would break its one-signed certificate.

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

Each iteration's Armijo backtracking runs in blocks: every searching row
tries its next ARMIJO_BLOCK steps t, t b, t b^2, ... (each the product the
serial loop forms) as one (rows * ARMIJO_BLOCK, n) stack, with one pnorm and
one rayleigh call, and takes its first step above the 1e-18 floor that
passes the Armijo test; a row with none goes on from t b^ARMIJO_BLOCK.  A
trial whose p-norm is zero or not finite (at p >= 32 a long step overflows
it) is rejected like a failed one, so a trial the serial loop never reached
cannot raise, and the row backs off as the serial loop does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .graph import (SignedGraph, classify_balance, connected_antibalancing_tau,
                    structural_constants, switch, with_zero_kappa)
from .linalg import adjacency, eigh_sorted

P_CAP = 64.0
# relative residual at which a p > 2 restart leaves the ascent for Newton:
# the ascent converges linearly, Newton quadratically once this close
HANDOFF = 1e-4
# the same for p < 2, where the level only decides when Newton is first
# tried (see REHANDOFF).  Seconds for the 16 generic p = 1.5 solves of
# perfbench's extremal workload (best of three, 2 vCPUs, one BLAS thread,
# REHANDOFF = 0.5):
#   level    1e-4  1e-3  3e-3  1e-2  3e-2  1e-1
#   seconds  3.06  2.04  1.38  0.91  0.73  0.85
HANDOFF_P_BELOW_2 = 1e-2
# at p < 2 a row whose polish misses the tolerance resumes its ascent and is
# handed off again once its relative residual has fallen to REHANDOFF times
# that of its last try; at p > 2 a row is handed off once.  Seconds for the
# same 16 solves (best of three; 1.74 with a single hand-off):
#   REHANDOFF  0.5   0.3   0.1   0.03  0.01
#   seconds    0.95  1.01  1.16  1.58  1.52
REHANDOFF = 0.5
# at p < 2 a polish that misses the tolerance retries with the entries of
# |f_i| <= PIN * max|f| set to exactly 0
PIN = 1e-3
# Newton rounds are cheap next to the ascent; a row at a linear rate (a
# degenerate Jacobian) needs more than a handful to reach the tolerance
POLISH_ROUNDS = 30
# Armijo trial steps of one row tried together; a row needs 1-3 in nearly
# every iteration, so a block of 4 almost always settles it in one round
ARMIJO_BLOCK = 4
# the ascent's iterations per row, Armijo slope, step factor per backtrack
# (below 1, or the search never ends) and first step
MAX_ITERS = 2000
ARMIJO_SLOPE = 1e-4
BACKTRACK = 0.5
INITIAL_STEP = 1.0
CONE_ROUNDS = 5000      # of _power_refine, which stops at a Collatz-Wielandt
CONE_RTOL = 5e-16       # spread of at most CONE_RTOL relative
MONO_SLACK = 1e-8       # of monotonicity_functionals and the CLI's limit check
SHIFT_SLACK = 1e-9      # of potential_shift_check


class SolverError(RuntimeError):
    """An eigenpair solve did not reach the requested residual tolerance."""


def psi(p: float, x: np.ndarray) -> np.ndarray:
    """Psi_p(t) = |t|^(p-2) t, with Psi_p(0) = 0 (p > 1 makes 0^(p-1) = 0,
    and sign(-0.0) is +0.0); a NaN stays NaN."""
    x = np.asarray(x, dtype=float)
    return np.abs(x) ** (p - 1.0) * np.sign(x)


def pnorm(f: np.ndarray, p: float, mu: np.ndarray):
    """mu-weighted p-norm along the last axis: a float for one function, one
    value per row for a stack.  The root is a scalar pow per row, since the
    vectorized ** rounds differently in the last place."""
    s = (mu * np.abs(f) ** p).sum(-1)
    if s.ndim == 0:
        return float(s ** (1.0 / p))
    return np.fromiter(map(pow, s.ravel().tolist(), repeat(1.0 / p)), float,
                       s.size).reshape(s.shape)


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


def _defect(g: SignedGraph, p: float, lam: float, f: np.ndarray) -> np.ndarray:
    """Delta_p f - lambda mu Psi_p(f), per vertex."""
    return apply_plap(g, p, f) - lam * g.mu_array() * psi(p, f)


def residual(g: SignedGraph, p: float, lam: float, f: np.ndarray) -> float:
    """Max-norm defect of the eigen-equation Delta_p f = lambda mu Psi_p(f)."""
    f = np.asarray(f, dtype=float)
    if not np.any(f):
        raise ValueError("residual of the zero function")
    return float(np.max(np.abs(_defect(g, p, lam, f))))


@dataclass(frozen=True)
class SolverConfig:
    """The settings of the CLI's --tol, --restarts and --seed."""

    tol: float = 1e-8          # relative: accept residual <= tol * (1 + |lambda|)
    restarts: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not 0 < self.tol < np.inf:
            raise ValueError(f"SolverConfig.tol must be positive and finite, got {self.tol!r}")
        if not self.restarts >= 1:
            raise ValueError(f"SolverConfig.restarts must be >= 1, got {self.restarts!r}")


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
    gradient, no Armijo step, or MAX_ITERS iterations.  Every row does exactly the
    arithmetic of a one-row run, so its result is the same bit for bit.

    With handoff, a row first stops at residual HANDOFF * (1 + |lambda|)
    (HANDOFF_P_BELOW_2 at p < 2) and handoff(i, f, lambda) is called with
    its index and point.  If it returns True the row ends there; otherwise
    the row goes on from the same state (value, step, iterations left)
    under the stops above, so its run and result are those it would have
    had without the hand-off.  At p < 2 the row is handed off again each
    time its relative residual has fallen to REHANDOFF times that of its
    last call; at p >= 2 it is handed off at most once.
    """
    mu = g.mu_array()
    sgn = 1.0 if maximize else -1.0
    F = normalize_sp(np.asarray(F0, dtype=float), p, mu)
    lam = rayleigh(g, p, F)
    step = np.full(len(F), float(INITIAL_STEP))
    # each row's relative residual at which it is next handed off; -inf: never
    first = -np.inf if handoff is None else HANDOFF if p >= 2 else HANDOFF_P_BELOW_2
    level = np.full(len(F), first)
    live = np.arange(len(F))
    for _ in range(MAX_ITERS):
        if not live.size:
            break
        f, lm = F[live], lam[live]
        defect = apply_plap(g, p, f) - lm[:, None] * mu * psi(p, f)
        res = np.max(np.abs(defect), axis=1)
        grad = sgn * (p * defect)
        g2 = _row_sqnorms(grad)
        scale = 1.0 + np.abs(lm)
        near = res <= 1e-3 * cfg.tol * scale
        for j in np.flatnonzero(res <= level[live] * scale):
            i = live[j]
            level[i] = REHANDOFF * (res[j] / scale[j]) if p < 2 else -np.inf
            near[j] |= handoff(int(i), f[j], float(lm[j]))
        go = ~near & ~(g2 <= 1e-30)
        live, f, lm, grad, g2 = live[go], f[go], lm[go], grad[go], g2[go]
        t = step[live]
        moved = np.zeros(live.size, dtype=bool)
        search = np.flatnonzero(t > 1e-18)
        while search.size:
            # the next ARMIJO_BLOCK steps t, t b, t b^2, ... of every searching
            # row, each the serial loop's product, tried as one stack
            T = np.empty((search.size, ARMIJO_BLOCK))
            T[:, 0], T[:, 1:] = t[search], BACKTRACK
            T = np.multiply.accumulate(T, axis=1)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                X = (f[search, None, :] + T[:, :, None] * grad[search, None, :]).reshape(-1, g.n)
                nrm = pnorm(X, p, mu)
                cand = X / nrm[:, None]
                # a trial off the sphere is rejected, as a NaN quotient
                cand[~(np.isfinite(nrm) & (nrm != 0))] = np.nan
                lam_c = rayleigh(g, p, cand).reshape(T.shape)
            ok = (sgn * (lam_c - lm[search, None]) >= ARMIJO_SLOPE * T * g2[search, None]) \
                & (T > 1e-18)
            hit = ok.any(axis=1)
            k = ok.argmax(axis=1)[hit]
            acc = search[hit]
            F[live[acc]] = cand.reshape(*T.shape, g.n)[hit, k]
            lam[live[acc]], t[acc] = lam_c[hit, k], T[hit, k]
            moved[acc] = True
            search = search[~hit]
            t[search] = T[~hit, -1] * BACKTRACK
            search = search[t[search] > 1e-18]
        live = live[moved]
        step[live] = np.minimum(np.maximum(t[moved] * 2.0, 1e-12), 1e3)
    return F, lam


def _power_refine(gneg: SignedGraph, p: float, f0: np.ndarray) -> tuple[np.ndarray, bool]:
    """Order-preserving fixed-point refinement in the positive cone; returns
    the last iterate and whether the stop rule below ended the iteration
    (False: CONE_ROUNDS ran out).

    Requires sigma identically -1 and kappa >= 0; then Delta_p maps positive
    functions to positive ones and the normalized iteration converges to the
    one-signed top eigenfunction.  The map T(f) = (Delta_p f / mu)^(1/(p-1))
    is order-preserving and 1-homogeneous on the cone, so the ratios T(f)/f
    bracket its eigenvalue r = lambda^(1/(p-1)): min T(f)/f <= r <=
    max T(f)/f (the Collatz-Wielandt bracket of Gaubert & Gunawardena,
    Trans. AMS 2004).  The iteration stops once that spread is at most
    CONE_RTOL * max, which pins lambda to about (p-1) * CONE_RTOL relative.
    """
    mu = gneg.mu_array()
    f = np.abs(np.asarray(f0, dtype=float))
    f[f == 0] = 1e-12
    f = normalize_sp(f, p, mu)
    invexp = 1.0 / (p - 1.0)
    for _ in range(CONE_ROUNDS):
        y = apply_plap(gneg, p, f)
        t = (y / mu) ** invexp
        ratio = t / f
        spread = float(ratio.max() - ratio.min())
        f = normalize_sp(t, p, mu)
        if spread <= CONE_RTOL * float(ratio.max()):
            return f, True
    return f, False


def _newton_rounds(g: SignedGraph, p: float, lam: float, x: np.ndarray,
                   pin: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Newton steps on the eigen-equation plus sphere constraint from (lam, x),
    holding the entries marked in pin (zeros of x) at 0.

    Runs while the residual falls, up to POLISH_ROUNDS steps, and returns the
    best (residual, lambda, f) seen, the start included.  Each round's
    right-hand side is the defect of the eigen-equation that the residual of
    the accepted iterate already computed.  At p > 2 a vertex with f_i = 0
    whose neighbours are all zero too (an isolated vertex, say) has a
    vanishing Jacobian row and column; the step leaves it at zero and solves
    for the other unknowns, as it does for the pinned ones.  At p < 2 the
    Jacobian is infinite where a free entry or an edge difference with a free
    end is 0, and the rounds stop there.
    """
    n = g.n
    a = g._arrays
    mu, kap, u, v, w, s = a.mu, a.kappa, a.u, a.v, a.w, a.sigma
    # flat (n+1)^2 positions of the (u,u), (v,v), (u,v), (v,u) blocks, in the
    # order of the four np.add.at calls that one bincount replaces
    side = n + 1
    cells = np.concatenate((u * side + u, v * side + v, u * side + v, v * side + u))
    unknown = np.append(~pin, True)
    defect = _defect(g, p, lam, x)
    best = (float(np.max(np.abs(defect))), lam, x)
    for _ in range(POLISH_ROUNDS):
        lm = best[1]
        absx = np.abs(x)
        d = x[u] - s * x[v]
        with np.errstate(divide="ignore"):   # 0 ** (p - 2) at p < 2 only
            dx = np.ones_like(x) if p == 2 else absx ** (p - 2.0)
            dd = np.ones_like(d) if p == 2 else np.abs(d) ** (p - 2.0)
        if p < 2:
            # a pinned vertex has no equation of its own, and an edge between
            # two pinned ones adds nothing to the free equations
            dx[pin] = 0.0
            dd[pin[u] & pin[v]] = 0.0
            if not (np.isfinite(dx).all() and np.isfinite(dd).all()):
                break
        px = psi(p, x)
        coef = (p - 1.0) * w * dd
        off = -s * coef
        jac = np.bincount(cells, np.concatenate((coef, coef, off, off)),
                          minlength=side * side).reshape(side, side)
        idx = np.arange(n)
        jac[idx, idx] += (p - 1.0) * (kap - lm * mu) * dx
        jac[:n, n] = -mu * px
        jac[n, :n] = p * mu * px
        rhs = np.empty(n + 1)
        rhs[:n] = defect
        rhs[n] = float(np.sum(mu * absx ** p) - 1.0)
        # the n x n block is symmetric and the border entries of vertex i are
        # multiples of psi(x_i), so row i vanishes exactly when column i does
        solved = jac.any(axis=1) & unknown
        try:
            if solved.all():
                delta = np.linalg.solve(jac, -rhs)
            else:
                keep = np.flatnonzero(solved)
                delta = np.zeros(side)
                delta[keep] = np.linalg.solve(jac[np.ix_(keep, keep)], -rhs[keep])
        except np.linalg.LinAlgError:
            break
        x2 = x + delta[:n]
        lm2 = lm + float(delta[n])
        with np.errstate(over="ignore", invalid="ignore"):
            nrm2 = np.sum(mu * np.abs(x2) ** p)
        if not (np.isfinite(nrm2) and nrm2 > 0):
            break
        x2 = x2 / nrm2 ** (1.0 / p)
        defect2 = _defect(g, p, lm2, x2)
        r2 = float(np.max(np.abs(defect2)))
        if r2 < best[0]:
            best = (r2, lm2, x2)
            x, defect = x2, defect2
        else:
            break
    return best


def _newton_polish(g: SignedGraph, p: float, lam: float, f: np.ndarray,
                   tol: float) -> tuple[float, float, np.ndarray]:
    """Newton's method on the eigen-equation from (lam, f); returns
    (residual, lambda, f) of the pair of least residual seen, (lam, f)
    itself if no round lowers it.

    At p < 2, |f_i|^(p-2) is infinite at f_i = 0, so Newton cannot reach an
    eigenfunction with a zero entry.  When the plain rounds miss the relative
    tolerance tol, a second try sets every entry with |f_i| <= PIN * max|f|
    to exactly 0 and solves for the others.  Its residual still counts the
    pinned vertices, whose equation sum_j w_ij Psi_p(-sigma_ij f_j) = 0 must
    then hold, so every pair returned is certified by residual as before.
    """
    x = np.asarray(f, dtype=float).copy()
    pin = np.zeros(g.n, dtype=bool)
    best = _newton_rounds(g, p, float(lam), x, pin)
    if p < 2 and not best[0] <= tol * (1.0 + abs(best[1])):
        _, lm, x = best
        pin = np.abs(x) <= PIN * np.abs(x).max()
        if pin.any():
            x = normalize_sp(np.where(pin, 0.0, x), p, g.mu_array())
            best = min(best, _newton_rounds(g, p, lm, x, pin), key=lambda b: b[0])
    return best


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


def _finish(g, p, f, lam, tol):
    res, lam, f = _newton_polish(g, p, lam, f, tol)
    return f, lam, res


def _best_restart(g: SignedGraph, p: float, cfg: SolverConfig, largest: bool,
                  lead: Sequence[Sequence[float]] = ()) -> PEigenPair:
    """The generic solve: the highest (lowest) value among the restarts that
    reach the residual tolerance, the first one on a tie.

    At p = 2 the one restart is the pencil's extreme eigenvector, polished:
    it maximizes (minimizes) the quotient, so no other start could win.
    Otherwise the starts (lead, then _starts) ascend (descend) as one stack
    and each result is polished, in start order.  A row is polished as soon
    as it reaches the HANDOFF residual (HANDOFF_P_BELOW_2 at p < 2); if that
    polish misses the tolerance, the row resumes its ascent as if it had
    never been handed off.  At p < 2 it is polished again each time its
    relative residual has fallen to REHANDOFF times that of its last polish,
    and ends at the first polish that meets the tolerance; a row that never
    gets there has its end point polished instead.
    """
    def ok(lam, res):
        return res <= cfg.tol * (1.0 + abs(lam))

    if p == 2:
        f = normalize_sp(_pencil_vector(g, largest), p, g.mu_array())
        pairs = [_finish(g, p, f, rayleigh(g, p, f), cfg.tol)]
    else:
        handed = {}

        def handoff(i, f, lam):
            pair = _finish(g, p, f.copy(), lam, cfg.tol)
            if ok(*pair[1:]):
                handed[i] = pair
            return i in handed

        starts = np.array([*lead, *_starts(g, p, cfg, largest)], dtype=float)
        F, lams = _ascent(g, p, starts, cfg, largest, handoff)
        pairs = [handed[i] if i in handed else _finish(g, p, f.copy(), lam, cfg.tol)
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

    On the cone path the pair is polished by Newton only at p >= 2 and only
    when the cone iteration did not close its Collatz-Wielandt bracket
    (spread of T(f)/f at most 5e-16 of its max) or kappa < 0 forced the
    ascent; a closed bracket already pins the value to about (p-1) * 5e-16
    relative.
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
        # Newton has nothing left to gain on a pinned lambda; below p = 2 it
        # could pin an entry to 0, and the pair would not be one-signed
        if bracketed or p < 2:
            res = residual(gneg, p, lam, f)
        else:
            f, lam, res = _finish(gneg, p, f, lam, cfg.tol)
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
                             lambdas: Sequence[float]) -> MonotonicityReport:
    """Evaluate m1(p) = 2^-p lambda and m2(p) = p (lambda/D)^(1/p) along an
    increasing p-grid of certified values for one extremal index, and report
    every monotonicity violation beyond MONO_SLACK."""
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
        if not m1[i + 1] <= m1[i] + MONO_SLACK:
            violations.append((i, "m1", m1[i + 1] - m1[i]))
        if not m2[i + 1] >= m2[i] - MONO_SLACK:
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


def potential_shift_check(g: SignedGraph, p: float, k_label: int) -> ShiftReport:
    """Check |lambda_k(kappa) - lambda_k(0)| <= C + SHIFT_SLACK for an
    extremal index."""
    if k_label == 1:
        solve = solve_smallest
    elif k_label == g.n:
        solve = solve_largest
    else:
        raise ValueError("k_label must be 1 or n")
    _, c = structural_constants(g)
    lam_k = solve(g, p).value
    lam_0 = solve(with_zero_kappa(g), p).value
    return ShiftReport(p=p, k_label=k_label, lambda_kappa=lam_k,
                       lambda_zero=lam_0, bound=c,
                       passed=abs(lam_k - lam_0) <= c + SHIFT_SLACK)

"""The signed p-Laplacian: operator, Rayleigh quotient, extremal eigenpairs.

solve_largest / solve_smallest run projected gradient ascent/descent of the
Rayleigh quotient on the mu-weighted unit p-sphere with Armijo backtracking
and multiple restarts.  On connected graphs whose signature is switching
equivalent to all-negative, a converged strictly one-signed eigenfunction
pins the value down as the top eigenvalue (tag "perron-certified"); in every
other case the returned value is a certified eigenvalue and only a lower
bound for the top (resp. upper bound for the bottom) one.

On that Perron path a fixed-point iteration of the order-preserving,
1-homogeneous cone map (Delta_p f / mu)^(1/(p-1)) stops once its
Collatz-Wielandt bracket min/max of T(f)/f bounds the defect of the
eigen-equation far below the residual tolerance (or has closed to 5e-16).
The Rayleigh quotient lies inside the bracket, and the pair is returned
without the Newton polish, which runs only where the iteration ran out of
rounds.  The map needs kappa >= 0, but R_p with kappa + c mu in place of
kappa is R_p + c: every eigenvalue rises by c and every eigenfunction
stays.  So where some kappa_i < 0 the cone iterates with c = max(-kappa_i /
mu_i), and lambda, residual, polish and certificate use the unshifted graph.
solve_largest_grid solves a whole p-grid there as one stack (see
_power_refine), and solve_largest is the grid of one p.

At p = 2 the quotient is that of the pencil (Deg + K - A, diag(mu)), whose
extreme generalized eigenvector is its global maximizer (minimizer); the
generic path returns it, Newton-polished, without any restart.  At every
other p each restart is parked at relative residual HANDOFF (p > 2) or
HANDOFF_P_BELOW_2 (p < 2), and Newton's method on the eigen-equation
finishes it; _best_restart says when the parked restarts are polished, as
one stack, and how those that miss the tolerance resume.  Below p = 2 the
ascent converges only linearly (Buhler & Hein, ICML 2009), and an
eigenfunction often has zero entries, where Newton's Jacobian is infinite;
_newton_polish then retries with such entries pinned to 0.  The Perron path
skips the polish below p = 2: a pinned zero would break its one-signed
certificate.

All restarts ascend together as one (R, n) stack, so each round pays
numpy's per-call overhead once rather than R times.  Each row keeps its own
value, step, backtracking, hand-off and stop, and does the arithmetic of a
run from its start alone, so values, eigenfunctions, residuals,
certificates and SolverErrors are bit for bit those of solving the starts
one after another: edge gathers use take (whose stacks are C-contiguous,
so row sums stay pairwise), the norm's 1/p-th root is a scalar pow per
row, and the squared gradient norm a stacked matmul.  A round runs on
_plap and _quotient, the kernels behind apply_plap and rayleigh, with
Psi_p(f) computed once and no vertex terms where kappa == 0: exact on its
finite points and its finite or wholly NaN trials, as their docstrings show.
Rows are gathered or filtered only when one leaves or sits out an Armijo block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat, takewhile
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .graph import (SignedGraph, _from_view, classify_balance, connected_antibalancing_tau,
                    structural_constants, switch, with_zero_kappa)
from .linalg import _canonical_signs, _eigh, _flush, _pencil_diagonal, normalized_adjacency

P_CAP = 64.0
# relative residual at which a p > 2 restart leaves the ascent for Newton:
# the ascent converges linearly, Newton quadratically once this close
HANDOFF = 1e-4
# the same for p < 2, where the level only decides when Newton is first
# tried (see REHANDOFF).  Seconds for the 16 generic p = 1.5 solves of
# perfbench's extremal workload (best of three, 2 vCPUs, one BLAS thread,
# REHANDOFF = 0.5):
#   level    1e-4  1e-3  3e-3  1e-2  3e-2  1e-1
#   seconds  1.14  0.64  0.41  0.26  0.29  0.33
HANDOFF_P_BELOW_2 = 1e-2
# at p < 2 a row whose polish misses the tolerance resumes its ascent and is
# handed off again once its relative residual has fallen to REHANDOFF times
# that of its last try; at p > 2 a row is handed off once.  Seconds for the
# same 16 solves (best of three; 0.87 with a single hand-off):
#   REHANDOFF  0.5   0.3   0.1   0.03  0.01
#   seconds    0.26  0.26  0.30  0.41  0.44
REHANDOFF = 0.5
# at p < 2 a polish that misses the tolerance retries with the entries of
# |f_i| <= PIN * max|f| set to exactly 0
PIN = 1e-3
# Newton rounds are cheap next to the ascent; a row at a linear rate (a
# degenerate Jacobian) needs more than a handful to reach the tolerance.
# A parked row also waits at most this many ascent iterations for others
# to join its polish: about what a polish costs, so waiting longer could
# only delay a row that misses the tolerance
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
# _power_refine's rounds per row; a row stops once its Collatz-Wielandt
# spread is at most CONE_RTOL relative, or once that bracket bounds its
# eigen-equation defect by min(CONE_DEFECT * tol * (1 + |lambda|) / max mu,
# CONE_DEFECT_CAP), below tensor.CORRESPONDENCE_TOL even on heavy weights
CONE_ROUNDS = 5000
CONE_RTOL = 5e-16
CONE_DEFECT = 1e-4
CONE_DEFECT_CAP = 1e-10
MONO_SLACK = 1e-8       # of monotonicity_functionals and the CLI's limit check
SHIFT_SLACK = 1e-9      # of potential_shift_check


_ZERO_NORM = "cannot normalize the zero (or non-finite) function"


class SolverError(RuntimeError):
    """An eigenpair solve did not reach the requested residual tolerance."""


def _rowpower(e) -> Callable[[np.ndarray], np.ndarray]:
    """x -> x ** e for a float e; for a 1-D exponent array e, x -> x **
    e[:, None] on a stack (R, n), each row bit for bit x[i] ** float(e[i]).
    A scalar ** takes x * x at 2 and sqrt at 0.5, which round unlike the pow
    that an exponent array goes through, so those rows are redone; e is
    scanned once, here, for a loop that raises many stacks to it."""
    if not isinstance(e, np.ndarray):
        return lambda x: x ** e
    col = e[:, None]
    redo = [(i, s) for i, s in enumerate(e.tolist()) if s in (0.5, 2.0)]

    def power(x: np.ndarray) -> np.ndarray:
        out = x ** col
        for i, s in redo:
            out[i] = x[i] ** s
        return out
    return power


def psi(p: float, x: np.ndarray) -> np.ndarray:
    """Psi_p(t) = |t|^(p-2) t, with Psi_p(0) = 0 (p > 1 makes 0^(p-1) = 0,
    and sign(-0.0) is +0.0); a NaN stays NaN."""
    x = np.asarray(x, dtype=float)
    return np.abs(x) ** (p - 1.0) * np.sign(x)


def pnorm(f: np.ndarray, p, mu: np.ndarray):
    """mu-weighted p-norm along the last axis: a float for one function, one
    value per row for a stack; a stack (R, n) may have one p per row.  The
    root is a scalar pow per row, since the vectorized ** rounds differently
    in the last place."""
    s = (mu * _rowpower(p)(np.abs(f))).sum(-1)
    if s.ndim == 0:
        return float(s ** (1.0 / p))
    roots = (1.0 / p).tolist() if isinstance(p, np.ndarray) else repeat(1.0 / p)
    return np.fromiter(map(pow, s.ravel().tolist(), roots), float, s.size).reshape(s.shape)


def normalize_sp(f: np.ndarray, p, mu: np.ndarray) -> np.ndarray:
    """Project onto the mu-weighted unit p-sphere (each row of a stack, with
    its own p if p is an array)."""
    nrm = pnorm(f, p, mu)
    stack = isinstance(nrm, np.ndarray)
    if not (((nrm > 0) & (nrm < np.inf)).all() if stack else 0 < nrm < np.inf):   # NaN fails
        raise ValueError(_ZERO_NORM)
    return f / (nrm[..., None] if stack else nrm)


def _check_p(p: float) -> None:
    if not p > 1:
        raise ValueError(f"p must be > 1, got {p}")


def apply_plap(g: SignedGraph, p: float, f: np.ndarray) -> np.ndarray:
    """(Delta_p f)(i) = sum_{j~i} w_ij Psi_p(f_i - sigma_ij f_j) + kappa_i Psi_p(f_i),
    for one function or each row of a stack (..., n)."""
    _check_p(p)
    f = np.asarray(f, dtype=float)
    a = g._arrays
    return _plap(g, p, f, psi(p, f), a.kappa, _ends(g, f.size // g.n, a.kappa))


def _ends(g: SignedGraph, rows: int, kap: Optional[np.ndarray]) -> np.ndarray:
    """The flat bincount index of a stack of rows: the graph's ends (without
    the vertex bins if kap is None), shifted by n for each further row."""
    ends = g._arrays.ends if kap is not None else g._arrays.ends[g.n:]
    return ends if rows == 1 else (ends + g.n * np.arange(rows)[:, None]).ravel()


def _plap(g: SignedGraph, p: float, f: np.ndarray, pf: np.ndarray,
          kap: Optional[np.ndarray], ends: np.ndarray) -> np.ndarray:
    """apply_plap's arithmetic on f (..., n), given pf = psi(p, f) and the
    index _ends(g, rows, kap): one bincount over (kap pf, u-ends, v-ends)
    sums each vertex in the order of np.add.at over u, then v, and -sigma (w
    t) is (-sigma w) t, as sigma is +-1.  With kap None the vertex terms are
    left out, exact where kappa == 0 on finite rows: a term is then +-0.0,
    bincount starts each bin at +0.0, and +0.0 + (+-0.0) is +0.0.  (A row
    with inf or NaN gets 0 * Psi_p = NaN at an isolated vertex.)"""
    a = g._arrays
    t = a.w * psi(p, f.take(a.u, axis=-1) - a.sigma * f.take(a.v, axis=-1))
    vals = np.concatenate((t, -a.sigma * t) if kap is None else (kap * pf, t, -a.sigma * t), -1)
    return np.bincount(ends, vals.ravel(), minlength=f.size).reshape(f.shape)


def _cone_apply(gneg: SignedGraph, p, F: np.ndarray, ends: Optional[np.ndarray] = None,
                power: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> np.ndarray:
    """apply_plap(gneg, p, F), bit for bit, where sigma is identically -1,
    kappa >= 0 and F >= 0 (one function or a stack (R, n), p a float or one
    exponent per row): the cone iteration's kernel, for these reasons.
      - f_u - sigma f_v is f_u - (-1) f_v, exactly f_u + f_v: one gather-add.
      - Psi_p(d) = |d|^(p-1) sign(d) is d^(p-1) for d >= 0, zero included
        (0^(p-1) = 0 and sign(0) = 0), so one power and no abs or sign.
      - Both ends of an edge get w t: apply_plap's v-end term
        ((-sigma) w) t is (1.0 w) t.
      - With kappa identically 0 the vertex terms are left out (see _plap).
        Where F^(p-1) overflows, apply_plap's 0 * inf is NaN and this is
        inf, but the edge term there overflows too: the same failed row.
    A loop over one stack shape passes its _ends index and _rowpower(p -
    1.0) once computed."""
    a = gneg._arrays
    kap = a.kappa if np.count_nonzero(a.kappa) else None
    power = power or _rowpower(p - 1.0)
    t = a.w * power(F.take(a.u, axis=-1) + F.take(a.v, axis=-1))
    vals = np.concatenate((t, t) if kap is None else (kap * power(F), t, t), axis=-1)
    if ends is None:
        ends = _ends(gneg, F.size // gneg.n, kap)
    return np.bincount(ends, vals.ravel(), minlength=F.size).reshape(F.shape)


def rayleigh(g: SignedGraph, p: float, f: np.ndarray):
    """(sum_E w |f_i - sigma f_j|^p + sum_i kappa |f_i|^p) / sum_i mu |f_i|^p:
    a float for one function, one value per row for a stack (..., n)."""
    _check_p(p)
    f = np.asarray(f, dtype=float)
    num, den = _quotient(g, p, f, g._arrays.kappa)
    if np.count_nonzero(den == 0):
        raise ValueError("Rayleigh quotient of the zero function")
    return float(num / den) if f.ndim == 1 else num / den


def _quotient(g: SignedGraph, p: float, f: np.ndarray,
              kap: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """rayleigh's numerator and denominator on f (..., n), with no test of
    the denominator; take keeps a gathered stack C-contiguous (f[:, u] is
    not), so each row sum is the pairwise sum of one function.  With kap
    None the vertex sum is 0.0, exact where kappa == 0 on rows that are
    finite or wholly NaN: it is then +-0.0, and +-0.0 plus the edge sum
    (+0.0 or more, or NaN) is the edge sum.  (Not on a row with inf.)"""
    a = g._arrays
    af = np.abs(f) ** p
    num = 0.0 if kap is None else (kap * af).sum(-1)
    if a.u.size:
        d = f.take(a.u, axis=-1) - a.sigma * f.take(a.v, axis=-1)
        num = num + (a.w * np.abs(d) ** p).sum(-1)
    return num, (a.mu * af).sum(-1)


def residual(g: SignedGraph, p: float, lam: float, f: np.ndarray) -> float:
    """Max-norm defect of the eigen-equation Delta_p f = lambda mu Psi_p(f)."""
    f = np.asarray(f, dtype=float)
    if not np.count_nonzero(f):
        raise ValueError("residual of the zero function")
    return float(np.max(np.abs(apply_plap(g, p, f) - lam * g.mu_array() * psi(p, f))))


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
            maximize: bool, handoff: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
            ) -> tuple[np.ndarray, np.ndarray]:
    """Armijo projected gradient on the unit p-sphere from each row of the
    (R, n) stack F0, all rows in lockstep; returns the (R, n) stack F and the
    (R,) values lam.

    A round gives each live row its defect Delta_p f - lambda mu Psi_p(f)
    (one _plap call, whose vertex terms reuse Psi_p(f)), residual and
    gradient.  Each row keeps its own value, step, backtracking and
    iteration count, and leaves the live set when its own run would stop:
    residual below 1e-3 * tol, a vanishing gradient, no Armijo step, or
    MAX_ITERS iterations.  Every row does exactly the arithmetic of a
    one-row run, so its result is the same bit for bit.

    Then Armijo blocks: every searching row tries its next ARMIJO_BLOCK
    steps t, t b, t b^2, ... (each the serial loop's product) as one stack,
    with one pnorm and one _quotient call, and takes its first step above
    the 1e-18 floor that passes the Armijo test, by flat index; a row with
    none goes on from t b^ARMIJO_BLOCK.  A trial whose p-norm is zero or
    not finite (at p >= 32 a long step overflows it) becomes a wholly NaN
    row and fails, so a trial the serial loop never reached cannot raise.

    A row is parked in the middle of an iteration (at most once per
    iteration) at the levels _best_restart names.  Once no row is live, or
    once the first parked row has waited POLISH_ROUNDS rounds, handoff(rows,
    F, lam) gets the parked rows' indices, points and values as one stack
    and returns a mask of the rows that end there.  The others resume from
    the state they were parked in (value, step, iterations finished), so
    each result is the one it would have had without the hand-off.
    """
    mu = g.mu_array()
    kap = g._arrays.kappa if g._arrays.kappa.any() else None
    sgn = 1.0 if maximize else -1.0
    # sgn * (lam_c - lam) >= s is lam_c - lam >= s, or <= -s: negation is exact
    armijo = np.greater_equal if maximize else np.less_equal
    F = normalize_sp(np.asarray(F0, dtype=float), p, mu)
    lam = rayleigh(g, p, F)
    step = np.full(len(F), float(INITIAL_STEP))
    # each row's relative residual at which it is next parked; -inf: never
    level = np.full(len(F), HANDOFF if p >= 2 else HANDOFF_P_BELOW_2)
    # iterations each row has finished, and that count when it was last parked
    iters, parked_at = np.zeros(len(F), dtype=int), np.full(len(F), -1)
    parked, parked_in, rounds = [], np.zeros(len(F), dtype=int), 0
    # the live rows, their points and values; F and lam get a row's on leaving
    live, f, lm, rows = np.arange(len(F)), F.copy(), lam.copy(), 0

    def leave(out, *more):
        """Write back the live rows marked in out; the live rows, points,
        values and each of more without them."""
        F[live[out]], lam[live[out]] = f[out], lm[out]
        return [x[~out] for x in (live, f, lm, *more)]

    while live.size:
        rounds += 1
        if len(f) != rows:
            rows, ends = len(f), _ends(g, len(f), kap)
            # flat index of each row's first trial; a block's steps after the first
            base, steps = ARMIJO_BLOCK * np.arange(rows), np.full((rows, ARMIJO_BLOCK), BACKTRACK)
        pf = psi(p, f)
        defect = _plap(g, p, f, pf, kap, ends) - lm[:, None] * mu * pf
        res = np.abs(defect).max(axis=1)
        scale = 1.0 + np.abs(lm)
        due = res <= level[live] * scale
        if np.count_nonzero(due):   # not parked again before it finishes an iteration
            due &= iters[live] > parked_at[live]
        if np.count_nonzero(due):
            i = live[due]
            level[i] = REHANDOFF * (res[due] / scale[due]) if p < 2 else -np.inf
            parked_at[i], parked_in[i] = iters[i], rounds
            parked.append(i)
            live, f, lm, defect, res, scale = leave(due, defect, res, scale)
        grad = (sgn * p) * defect
        g2 = _row_sqnorms(grad)
        stop = (res <= 1e-3 * cfg.tol * scale) | (g2 <= 1e-30)
        if np.count_nonzero(stop):
            live, f, lm, grad, g2 = leave(stop, grad, g2)
        t = step[live]
        moved = np.zeros(live.size, dtype=bool)
        search = (t > 1e-18).nonzero()[0]
        while search.size:
            every = search.size == live.size
            fs, gs, g2s, ls = (f, grad, g2, lm) if every else \
                (f[search], grad[search], g2[search], lm[search])
            steps[:search.size, 0] = t if every else t[search]
            T = np.multiply.accumulate(steps[:search.size], axis=1)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                X = (fs[:, None, :] + T[:, :, None] * gs[:, None, :]).reshape(-1, g.n)
                nrm = pnorm(X, p, mu)
                cand = X / nrm[:, None]
                # a trial off the sphere is rejected, as a wholly NaN row
                on = (nrm > 0) & (nrm < np.inf)
                if np.count_nonzero(on) < on.size:
                    cand[~on] = np.nan
                lam_c = np.divide(*_quotient(g, p, cand, kap))
            ok = armijo(lam_c.reshape(T.shape) - ls[:, None],
                        (sgn * ARMIJO_SLOPE) * T * g2s[:, None]) & (T > 1e-18)
            first, hit = ok.argmax(axis=1) + base[:len(T)], ok.any(axis=1)
            if every and np.count_nonzero(hit) == hit.size:
                f, lm, t, moved = cand[first], lam_c[first], T.ravel()[first], hit
                break
            acc, first = search[hit], first[hit]
            f[acc], lm[acc], t[acc], moved[acc] = cand[first], lam_c[first], T.ravel()[first], True
            search = search[~hit]
            t[search] = T[~hit, -1] * BACKTRACK
            search = search[t[search] > 1e-18]
        if np.count_nonzero(moved) < live.size:
            live, f, lm, t = leave(~moved, t)
        step[live] = np.minimum(np.maximum(t * 2.0, 1e-12), 1e3)
        iters[live] += 1
        if rounds >= MAX_ITERS:
            live, f, lm = leave(iters[live] >= MAX_ITERS)
        if parked and (not live.size or rounds - parked_in[parked[0][0]] >= POLISH_ROUNDS):
            back = np.sort(np.concatenate(parked))
            back, parked = back[~handoff(back, F[back], lam[back])], []
            if back.size:
                F[live], lam[live] = f, lm
                live = np.sort(np.concatenate((live, back)))
                f, lm = F[live], lam[live]
    return F, lam


def _power_refine(gneg: SignedGraph, ps: Sequence[float], tol: float,
                  shift: float) -> tuple[np.ndarray, ...]:
    """Order-preserving fixed-point refinement in the positive cone from the
    constant function, row i at the exponent ps[i], all rows in lockstep;
    returns the (R, n) stack of last iterates and two masks per row: whether
    the stop rule below ended its iteration (False: CONE_ROUNDS ran out), and
    whether a round failed, where _cone_rounds raises ValueError.

    Requires sigma identically -1 and kappa >= 0; then Delta_p maps positive
    functions to positive ones and the normalized iteration converges to the
    one-signed top eigenfunction (kappa < 0 comes shifted to kappa + shift
    mu, which keeps every eigenfunction).  The map T(f) = (Delta_p f /
    mu)^(1/(p-1)) is order-preserving and 1-homogeneous on the cone, so the
    ratios T(f)/f bracket its eigenvalue r = lambda^(1/(p-1)): min T(f)/f
    <= r <= max T(f)/f (the Collatz-Wielandt bracket of Gaubert &
    Gunawardena, Trans. AMS 2004), and the next iterate's bracket lies
    inside it.  A row stops once that bracket bounds the next iterate's
    eigen-equation defect for the relative residual tolerance tol
    (_cone_done), or once its spread is at most CONE_RTOL * max.

    At huge finite weights T(f) or its p-norm overflows.  A round whose
    p-norm is zero or not finite is redone from Delta_p f / mu over its
    largest entry: T is 1-homogeneous, so the direction is the same, and a
    finite round does no extra work.  The round still fails if Delta_p f
    overflowed, or if an entry of the rescaled T(f) underflowed to 0 (below
    p = 2) and the iterate left the open cone.

    Each row of a stack has its own exponent and its own stop, and leaves
    the live set at that stop or at a failed p-norm, so a grid of p costs
    about as many rounds as its slowest p rather than their sum, each
    paying numpy's per-call overhead once.  The kernels take one exponent
    per row (_rowpower), and a scalar one once the live rows share it, so
    every row does the arithmetic of its run alone, bit for bit; the index
    and exponents are set up once per live set.  A single row runs
    _cone_rounds on one function, at the per-round cost of a one-p solve,
    and there normalize_sp raises.
    """
    mu = gneg.mu_array()
    if len(ps) == 1:
        f, stopped = _cone_rounds(gneg, ps[0], normalize_sp(np.ones(gneg.n), ps[0], mu),
                                  tol, shift)
        return f[None, :], np.array([stopped]), np.zeros(1, dtype=bool)
    P = np.array(ps, dtype=float)
    F = normalize_sp(np.ones((len(P), gneg.n)), P, mu)
    stopped = np.zeros(len(F), dtype=bool)
    failed = np.zeros(len(F), dtype=bool)
    kap = gneg._arrays.kappa if np.count_nonzero(gneg._arrays.kappa) else None
    scale = CONE_DEFECT * tol / float(mu.max())
    live, f, fresh = np.arange(len(F)), F, True

    def norms(t):
        """pnorm's arithmetic on the live rows, as Python floats; t >= +0.0
        or NaN needs no abs."""
        return list(map(pow, (mu * power(t)).sum(-1).tolist(), roots))
    with np.errstate(over="ignore"):    # in a round that a rescale redoes
        for _ in range(CONE_ROUNDS):
            if fresh:                   # a new live set
                fresh = False
                p = P[live]
                if (p == p[0]).all():
                    p = float(p[0])
                pm1 = p - 1.0
                edge, power, inv = _rowpower(pm1), _rowpower(p), _rowpower(1.0 / pm1)
                ends = _ends(gneg, len(f), kap)
                roots = (1.0 / p).tolist() if isinstance(p, np.ndarray) else [1.0 / p] * len(f)
                pm1s = pm1.tolist() if isinstance(p, np.ndarray) else [pm1] * len(f)
            d = _cone_apply(gneg, p, f, ends, edge) / mu
            t = inv(d)
            nrm = norms(t)
            bad = rescaled = [not 0 < x < math.inf for x in nrm]     # NaN fails too
            if any(bad):        # those rows again from d over its largest entry
                with np.errstate(invalid="ignore"):
                    d = d / np.where(bad, d.max(-1), 1.0)[:, None]
                t = inv(d)
                nrm = norms(t)
                bad = [not 0 < x < math.inf or r and not whole
                       for x, r, whole in zip(nrm, rescaled, t.all(-1).tolist())]
                # a failed row divides without a warning
                nrm = [math.nan if b else x for x, b in zip(nrm, bad)]
            ratio = t / f
            f = t / np.array(nrm)[:, None]
            # a rescaled round's bracket is scaled too: only its spread counts
            top = [math.nan if r else x for x, r in zip(f.max(-1).tolist(), rescaled)]
            closed = list(map(_cone_done, ratio.min(-1).tolist(), ratio.max(-1).tolist(), top,
                              pm1s, repeat(scale), repeat(shift)))
            if any(closed) or any(bad):
                closed, bad = np.array(closed), np.array(bad)
                F[live], stopped[live], failed[live] = f, closed & ~bad, bad
                stay = ~(closed | bad)
                live, f = live[stay], f[stay]
                if not live.size:
                    return F, stopped, failed
                fresh = True
    F[live] = f
    return F, stopped, failed


def _cone_done(lo: float, hi: float, top: float, pm1: float, scale: float,
               shift: float) -> bool:
    """Whether a cone round with bracket [lo, hi] of T(f)/f ends its row:
    the bracket has closed to CONE_RTOL, or it bounds the defect
    |Delta_p f' / mu - lambda Psi_p(f')| of the next iterate f' (largest
    entry top; NaN after a rescaled round, whose bracket is scaled) by
    min(scale (1 + |lo^(p-1) - shift|), CONE_DEFECT_CAP), where scale is
    CONE_DEFECT * tol / max mu.  Every lambda in [lo^(p-1), hi^(p-1)], the Rayleigh
    quotient of f' included, has a defect of at most top^(p-1) (hi^(p-1) -
    lo^(p-1)), the same on the shifted graph as on the unshifted one.  On
    Python floats, so a row of a stack decides as a row alone."""
    if hi - lo <= CONE_RTOL * hi:
        return True
    try:
        low = lo ** pm1
        bound = top ** pm1 * (hi ** pm1 - low)
    except OverflowError:
        return False
    return bound <= min(scale * (1.0 + abs(low - shift)), CONE_DEFECT_CAP)


def _cone_rounds(gneg: SignedGraph, p: float, f: np.ndarray, tol: float,
                 shift: float) -> tuple[np.ndarray, bool]:
    """_power_refine's iteration on one normalized function at the scalar
    exponent p: (last iterate, whether it stopped).  A round is
    _cone_apply's and pnorm's arithmetic, bit for bit: a bincount over u
    (after the vertex terms where kappa != 0) then np.add.at over v adds
    each bin's terms in the same order, and t >= +0.0 needs no abs."""
    a = gneg._arrays
    n, u, v, w, mu = gneg.n, a.u, a.v, a.w, a.mu
    kap = a.kappa if np.count_nonzero(a.kappa) else None
    first = u if kap is None else np.concatenate((np.arange(n), u))
    pm1, root, scale = p - 1.0, 1.0 / p, CONE_DEFECT * tol / float(mu.max())
    invexp = 1.0 / pm1
    with np.errstate(over="ignore"):    # in a round that a rescale redoes
        for _ in range(CONE_ROUNDS):
            e = f[u]
            e += f[v]
            e **= pm1
            e *= w
            d = np.bincount(first, e if kap is None else np.concatenate((kap * f ** pm1, e)),
                            minlength=n)
            np.add.at(d, v, e)
            d /= mu
            t = d ** invexp
            nrm = float((mu * t ** p).sum() ** root)
            rescaled = not 0 < nrm < math.inf
            if rescaled:
                with np.errstate(invalid="ignore"):
                    t = (d / d.max()) ** invexp
                nrm = float((mu * t ** p).sum() ** root)
                if not (0 < nrm < math.inf and t.all()):
                    raise ValueError(_ZERO_NORM)
            ratio = t / f
            f = t / nrm
            top = math.nan if rescaled else float(f.max())
            if _cone_done(float(ratio.min()), float(ratio.max()), top, pm1, scale, shift):
                return f, True
    return f, False


def _newton_rounds(g: SignedGraph, p: float, lam: np.ndarray, X: np.ndarray,
                   pin: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton steps on the eigen-equation plus sphere constraint from each
    row of (lam (R,), X (R, n)), holding the entries marked in pin (R, n)
    (zeros of X; None: no entry) at 0; lam and X are overwritten.

    Each row runs while its residual falls, up to POLISH_ROUNDS steps, and
    ends at the best (residual, lambda, f) it saw, the start included;
    returns those as (R,), (R,) and (R, n) stacks.  Each round's right-hand
    side is the defect of the eigen-equation that the residual of the
    accepted iterate already computed, and its Psi_p(f) too.  At p > 2 a
    vertex with f_i = 0 whose neighbours are all zero too (an isolated
    vertex, say) has a vanishing Jacobian row and column; the step leaves it
    at zero and solves for the other unknowns, as it does for the pinned
    ones.  At p < 2 the Jacobian is infinite where a free entry or an edge
    difference with a free end is 0, and the row stops there, before its
    Jacobian is built.  A row leaves the stack when it stops, and a round in
    which every row solves for the same unknowns makes one stacked
    np.linalg.solve, which gives each row the bits of a solve on its matrix
    alone (see _newton_steps).
    """
    n = g.n
    a = g._arrays
    mu, kap, u, v, w, s = a.mu, a.kappa, a.u, a.v, a.w, a.sigma
    # flat (n+1)^2 positions of the (u,u), (v,v), (u,v), (v,u) blocks and of
    # the diagonal, in the order of the four np.add.at calls and the += on
    # the diagonal that one bincount replaces (it adds each bin's terms in
    # that order), offset by (n+1)^2 for each further row of the stack
    side = n + 1
    cells = np.concatenate((u * side + u, v * side + v, u * side + v, v * side + u,
                            np.arange(n) * (side + 1)))
    if len(X) > 1:
        cells = (cells + side * side * np.arange(len(X))[:, None]).ravel()
    vertex = kap if kap.any() else None    # kappa's terms; the rows are finite (see _plap)
    px = psi(p, X)
    defect = _plap(g, p, X, px, vertex, _ends(g, len(X), vertex)) - lam[:, None] * mu * px
    res = np.abs(defect).max(axis=1)
    # the live rows and their best pairs so far, written back when they stop
    live, x, lm, r = np.arange(len(X)), X, lam, res

    def keep(go, *rows):
        """Write back the best pairs of the rows that stop (go False; some
        row goes on); the live rows and each of rows where go is True."""
        end = ~go
        gone = live[end]
        res[gone], lam[gone], X[gone] = r[end], lm[end], x[end]
        return [t[go] for t in (live, *rows)]

    for _ in range(POLISH_ROUNDS):
        absx = np.abs(x)
        if p == 2:
            dx, dd = np.ones_like(x), np.ones((len(x), len(u)))
        else:
            d = x.take(u, axis=1) - s * x.take(v, axis=1)
            with np.errstate(divide="ignore"):   # 0 ** (p - 2) at p < 2 only
                dx, dd = absx ** (p - 2.0), np.abs(d) ** (p - 2.0)
        if p < 2:
            if pin is not None:
                # a pinned vertex has no equation of its own, and an edge
                # between two pinned ones adds nothing to the free equations
                pn = pin[live]
                dx[pn] = 0.0
                dd[pn.take(u, axis=1) & pn.take(v, axis=1)] = 0.0
            if not (np.isfinite(dx).all() and np.isfinite(dd).all()):
                go = np.isfinite(dx).all(axis=1) & np.isfinite(dd).all(axis=1)
                if not go.any():
                    break
                live, x, lm, r, px, defect, absx, dx, dd = keep(go, x, lm, r, px, defect,
                                                               absx, dx, dd)
        k = len(live)
        coef = (p - 1.0) * w * dd
        off = -s * coef
        vals = (coef, coef, off, off, (p - 1.0) * (kap - lm[:, None] * mu) * dx)
        jac = np.bincount(cells[:k * (4 * len(u) + n)], np.concatenate(vals, axis=1).ravel(),
                          minlength=k * side * side).reshape(k, side, side)
        jac[:, :n, n] = -mu * px
        jac[:, n, :n] = p * mu * px
        rhs = np.concatenate((defect, (mu * absx ** p).sum(axis=1)[:, None] - 1.0), axis=1)
        # the n x n block is symmetric and the border entries of vertex i are
        # multiples of psi(x_i), so row i vanishes exactly when column i does
        solved = jac.any(axis=2)
        if pin is not None:
            solved[:, :n] &= ~pin[live]
        delta, ok = _newton_steps(jac, -rhs, solved)
        if ok is not None:          # a singular system stops its row
            if not ok.any():
                break
            live, x, lm, r, delta = keep(ok, x, lm, r, delta)
        x2 = x + delta[:, :n]
        lm2 = lm + delta[:, n]
        with np.errstate(over="ignore", invalid="ignore"):
            nrm2 = (mu * np.abs(x2) ** p).sum(axis=1)
        norms = nrm2.tolist()
        if not all(0 < t < math.inf for t in norms):        # a NaN fails too
            go = (nrm2 > 0) & (nrm2 < np.inf)
            if not go.any():
                break
            live, x, lm, r, x2, lm2, nrm2 = keep(go, x, lm, r, x2, lm2, nrm2)
            norms = nrm2.tolist()
        x2 = x2 / np.fromiter(map(pow, norms, repeat(1.0 / p)), float, live.size)[:, None]
        px = psi(p, x2)
        defect = _plap(g, p, x2, px, vertex, _ends(g, len(x2), vertex)) - lm2[:, None] * mu * px
        r2 = np.abs(defect).max(axis=1)
        if not all(map(float.__lt__, r2.tolist(), r.tolist())):
            go = r2 < r
            if not go.any():
                break
            live, x2, lm2, r2, px, defect = keep(go, x2, lm2, r2, px, defect)
        x, lm, r = x2, lm2, r2
    res[live], lam[live], X[live] = r, lm, x      # the rows still live, or all stopping
    return res, lam, X


def _newton_steps(jac: np.ndarray, rhs: np.ndarray,
                  solved: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """jac[i]^-1 rhs[i] over the unknowns marked in solved[i], 0 for the
    others, for each matrix of the stack (k, m, m), and a mask of the rows
    whose system was not singular (None: all of them).  Rows that solve for
    the same unknowns (all of them, or all but a decoupled vertex, say) make
    one stacked solve; otherwise, or if that raises for a stack of two or
    more, each row is solved alone."""
    try:
        if len(rhs) == 1 or (solved == solved[0]).all():
            if solved[0].all():
                return np.linalg.solve(jac, rhs[:, :, None])[:, :, 0], None
            keep = np.flatnonzero(solved[0])
            delta = np.zeros(rhs.shape)
            delta[:, keep] = np.linalg.solve(jac[:, keep[:, None], keep], rhs[:, keep, None])[:, :, 0]
            return delta, None
    except np.linalg.LinAlgError:
        if len(rhs) == 1:
            return np.zeros(rhs.shape), np.zeros(1, dtype=bool)
    delta = np.zeros(rhs.shape)
    ok = np.ones(len(rhs), dtype=bool)
    for i, row in enumerate(solved):
        keep = np.flatnonzero(row)
        try:
            delta[i, keep] = np.linalg.solve(jac[i][np.ix_(keep, keep)], rhs[i, keep])
        except np.linalg.LinAlgError:
            ok[i] = False
    return delta, ok


def _newton_polish(g: SignedGraph, p: float, lam, F: np.ndarray,
                   tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton's method on the eigen-equation from each row of (lam (R,),
    F (R, n)); returns the (residual, lambda, f) stacks of each row's pair of
    least residual seen, the start itself if no round lowers it.

    At p < 2, |f_i|^(p-2) is infinite at f_i = 0, so Newton cannot reach an
    eigenfunction with a zero entry.  A row whose plain rounds miss the
    relative tolerance tol tries again with every entry of |f_i| <= PIN *
    max|f| set to exactly 0, solving for the others.  Its residual still
    counts the pinned vertices, whose equation sum_j w_ij Psi_p(-sigma_ij
    f_j) = 0 must then hold, so every pair returned is certified by residual
    as before.  Every row does the arithmetic of a polish of it alone.
    """
    X = np.array(F, dtype=float)
    res, lam, X = _newton_rounds(g, p, np.array(lam, dtype=float), X, None)
    miss = [i for i, (r, lm) in enumerate(zip(res.tolist(), lam.tolist()))
            if not r <= tol * (1.0 + abs(lm))] if p < 2 else []
    if miss:
        ax = np.abs(X[miss])
        pin = ax <= PIN * ax.max(axis=1)[:, None]
        some = pin.any(axis=1)
        rows, pin = np.array(miss)[some], pin[some]
        if rows.size:
            x = normalize_sp(np.where(pin, 0.0, X[rows]), p, g.mu_array())
            r2, l2, x = _newton_rounds(g, p, lam[rows], x, pin)
            win = r2 < res[rows]        # a tie keeps the plain rounds' pair
            rows = rows[win]
            res[rows], lam[rows], X[rows] = r2[win], l2[win], x[win]
    return res, lam, X


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
    lap = normalized_adjacency(g, negate=True)
    # kappa enters the p=2 pencil through the diagonal of Deg + K - A
    lap[np.diag_indices(g.n)] = _pencil_diagonal(g)
    vecs = _canonical_signs(_eigh(lap, _flush(g))[1])
    return g._arrays.rt * vecs[:, -1 if largest else 0]


def _starts(g: SignedGraph, p: float, cfg: SolverConfig, largest: bool) -> list[np.ndarray]:
    """Warm starts: p=2 extremal generalized eigenvector, |A|-Perron vector,
    two-point edge vectors (the sparse maximizers that dominate for p < 2),
    then seeded random points."""
    starts = [_pencil_vector(g, largest)]
    a = g._arrays
    pvec = _eigh(normalized_adjacency(g, absolute=True), _flush(g))[1][:, -1]
    starts.append(np.abs(a.rt * pvec) + 1e-9)
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


def _finish(res: list, lam: list, F: np.ndarray, i: int) -> tuple[np.ndarray, float, float]:
    """Row i of a polished stack (res and lam as lists) as the pair (f,
    lambda, residual) of one polished start.  perfbench traces this by name
    and counts each call as one restart attempt."""
    return F[i], lam[i], res[i]


def _polish_rows(g: SignedGraph, p: float, lam, F: np.ndarray,
                 tol: float) -> list[tuple[np.ndarray, float, float]]:
    """The pair (f, lambda, residual) of each row of F, polished from (lam,
    F) as one stack."""
    res, lam, F = _newton_polish(g, p, lam, F, tol)
    res, lam = res.tolist(), lam.tolist()
    return [_finish(res, lam, F, i) for i in range(len(F))]


def _best_restart(g: SignedGraph, p: float, cfg: SolverConfig, largest: bool,
                  lead: Sequence[Sequence[float]] = ()) -> PEigenPair:
    """The generic solve: the highest (lowest) value among the restarts that
    reach the residual tolerance, the first one on a tie.

    At p = 2 the one restart is the pencil's extreme eigenvector, polished:
    it maximizes (minimizes) the quotient, so no other start could win.
    Otherwise the starts (lead, then _starts) ascend (descend) as one stack.
    _ascent parks each row that reaches the HANDOFF residual
    (HANDOFF_P_BELOW_2 at p < 2) and hands the parked rows over together,
    to be polished as one stack: a row whose polish meets the tolerance ends
    there, and the others resume their ascent as if never handed off, each
    with its own iteration count.  At p < 2 a row is parked again each
    time its relative residual has fallen to REHANDOFF times that of its
    last polish.  The end points of the rows that no polish ended are then
    polished as one stack too.  Each row's polishes are those of polishing
    it alone, so the pairs, and the pick among them in start order, are
    those of one start at a time.
    """
    def ok(lam, res):
        return res <= cfg.tol * (1.0 + abs(lam))

    if p == 2:
        f = normalize_sp(_pencil_vector(g, largest), p, g.mu_array())
        pairs = _polish_rows(g, p, [rayleigh(g, p, f)], f[None, :], cfg.tol)
    else:
        by_row = {}

        def handoff(rows, F, lams):
            ended = []
            for i, pair in zip(rows.tolist(), _polish_rows(g, p, lams, F, cfg.tol)):
                ended.append(ok(*pair[1:]))
                if ended[-1]:
                    by_row[i] = pair
            return np.array(ended, dtype=bool)

        starts = np.array([*lead, *_starts(g, p, cfg, largest)], dtype=float)
        F, lams = _ascent(g, p, starts, cfg, largest, handoff)
        rest = [i for i in range(len(F)) if i not in by_row]
        if rest:
            by_row.update(zip(rest, _polish_rows(g, p, lams[rest], F[rest], cfg.tol)))
        pairs = [by_row[i] for i in range(len(F))]
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

    The cone path serves every kappa, through the potential shift of the
    module docstring.  There Newton polishes the pair only at p >= 2 and
    only when the cone iteration ran out of rounds: its stop
    (_power_refine) holds the residual near CONE_DEFECT times the
    tolerance already.  This is the one-p case of solve_largest_grid.
    """
    pair, = solve_largest_grid(g, (p,), cfg)   # ends the generator: cheaper than closing it
    return pair


def _check_solve_p(p: float) -> None:
    _check_p(p)
    if p > P_CAP:
        raise ValueError(f"p > {P_CAP:g} is not supported by the iterative solvers")


def solve_largest_grid(g: SignedGraph, ps: Sequence[float],
                       cfg: Optional[SolverConfig] = None) -> Iterator[PEigenPair]:
    """Yield solve_largest(g, p, cfg) for each p of ps in turn: the same
    pairs bit for bit, and the exception the first failing p raises, when
    the iteration reaches that p.

    On a connected antibalanced graph, g is switched once and every p the
    loop would reach (those before the first p outside (1, P_CAP]) runs in
    one stacked cone iteration (_power_refine) before the first pair is
    yielded; where some kappa_i < 0 the iteration runs on the switched graph
    with kappa + c mu, c = max(-kappa_i / mu_i), clipped at 0.  Each row is
    then finished and tested on the unshifted switched graph as in a single
    solve, just before it is yielded.  A row that does not certify,
    and every p on any other graph, is solved on its own, in grid order.
    """
    cfg = cfg or SolverConfig()
    ps = list(ps)
    reached = list(takewhile(lambda p: p > 1 and not p > P_CAP, ps))
    witness = connected_antibalancing_tau(g) if g.m and reached else None
    if witness is not None:
        tau = np.asarray(witness, dtype=float)
        gneg = gcone = switch(g, witness)
        a = gneg._arrays
        c = 0.0
        if np.min(a.kappa) < 0:
            # the shift of the module docstring, clipped at 0 where the
            # entry that sets c rounds below it
            c = float(np.max(-a.kappa / a.mu))
            gcone = _from_view(gneg, kappa=np.maximum(a.kappa + c * a.mu, 0.0))
        F, stopped, failed = _power_refine(gcone, reached, cfg.tol, c)
    for i, p in enumerate(ps):
        _check_solve_p(p)
        if g.m == 0:
            yield _edgeless_pair(g, p, largest=True)
            continue
        if witness is not None:
            if failed[i]:       # its run alone stops in normalize_sp
                raise ValueError(_ZERO_NORM)
            f, lam = F[i], rayleigh(gneg, p, F[i])
            # Newton has nothing left to gain on a pinned lambda; below p = 2
            # it could pin an entry to 0, and the pair would not be one-signed
            if stopped[i] or p < 2:
                res = residual(gneg, p, lam, f)
            else:
                (f, lam, res), = _polish_rows(gneg, p, [lam], f[None, :], cfg.tol)
            one_signed = bool(np.all(f > 0) or np.all(f < 0))
            if one_signed and res <= cfg.tol * (1.0 + abs(lam)):
                yield PEigenPair(p=p, value=lam, f=tau * np.abs(f), residual=res,
                                 certificate="perron-certified")
                continue
            # fall through to the generic path if the cone route failed
        yield _best_restart(g, p, cfg, largest=True)


def solve_smallest(g: SignedGraph, p: float,
                   cfg: Optional[SolverConfig] = None) -> PEigenPair:
    """Certified eigenpair near the bottom; the value is an upper bound for
    the smallest variational eigenvalue.

    Balanced graphs with kappa proportional to mu (in particular kappa == 0)
    get the exact bottom pair: the switched-constant eigenfunction.
    """
    _check_solve_p(p)
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

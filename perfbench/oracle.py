"""Independent reference values for checking plap's answers.

Nothing here calls into plap: each reference is rebuilt from a graph's raw
edge list with plain numpy, so a defect in the code under test cannot also
hide in its own check.  The K_n and star closed forms are not repeated here:
workloads.py takes them from plap.solver.complete_extremes and
closed_form_star, which the solver itself never calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REF_RTOL = 1e-9          # |answer - reference| <= REF_RTOL * (1 + |answer|)
SOLVER_TOL = 1e-8        # plap's default SolverConfig.tol


@dataclass(frozen=True)
class Arrays:
    """A graph's data as flat arrays, read once from its public fields."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    s: np.ndarray
    mu: np.ndarray
    kappa: np.ndarray

    @classmethod
    def of(cls, g) -> "Arrays":
        cols = list(zip(*g.edges)) if g.edges else [(), (), (), ()]
        return cls(n=g.n,
                   u=np.array(cols[0], dtype=np.intp),
                   v=np.array(cols[1], dtype=np.intp),
                   w=np.array(cols[2], dtype=float),
                   s=np.array(cols[3], dtype=float),
                   mu=np.array(g.mu, dtype=float),
                   kappa=np.array(g.kappa, dtype=float))


def near(answer: float, ref: float) -> bool:
    return abs(answer - ref) <= REF_RTOL * (1.0 + abs(answer))


def at_least(answer: float, ref: float) -> bool:
    return answer >= ref - REF_RTOL * (1.0 + abs(answer))


def at_most(answer: float, ref: float) -> bool:
    return answer <= ref + REF_RTOL * (1.0 + abs(answer))


def _psi(p: float, x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.abs(x) ** (p - 1.0)


def plap_apply(a: Arrays, p: float, f: np.ndarray) -> np.ndarray:
    """(Delta_p f)(i) = sum_{j~i} w_ij Psi_p(f_i - sigma_ij f_j) + kappa_i Psi_p(f_i)."""
    t = a.w * _psi(p, f[a.u] - a.s * f[a.v])
    return (a.kappa * _psi(p, f) + np.bincount(a.u, t, a.n)
            - np.bincount(a.v, a.s * t, a.n))


def rayleigh(a: Arrays, p: float, f: np.ndarray) -> float:
    num = np.sum(a.w * np.abs(f[a.u] - a.s * f[a.v]) ** p) + np.sum(a.kappa * np.abs(f) ** p)
    return float(num / np.sum(a.mu * np.abs(f) ** p))


def residual(a: Arrays, p: float, lam: float, f: np.ndarray) -> float:
    return float(np.max(np.abs(plap_apply(a, p, f) - lam * a.mu * _psi(p, f))))


def adjacency(a: Arrays) -> np.ndarray:
    m = np.zeros((a.n, a.n))
    m[a.u, a.v] = a.s * a.w
    m[a.v, a.u] = a.s * a.w
    return m


def pencil_extremes(a: Arrays) -> tuple[float, float]:
    """Bottom and top eigenvalue of (Deg + K - A) v = lambda diag(mu) v: the
    exact extremal eigenvalues at p = 2."""
    deg = np.bincount(a.u, a.w, a.n) + np.bincount(a.v, a.w, a.n)
    rt = 1.0 / np.sqrt(a.mu)
    lap = np.diag(deg + a.kappa) - adjacency(a)
    vals = np.linalg.eigvalsh(lap * rt[:, None] * rt[None, :])
    return float(vals[0]), float(vals[-1])


def antibalanced_ln(a: Arrays) -> float:
    """L_n of an antibalanced graph: half the top eigenvalue of the negated
    normalized adjacency D^{-1/2} (-A) D^{-1/2}."""
    rt = 1.0 / np.sqrt(a.mu)
    return 0.5 * float(np.linalg.eigvalsh(-adjacency(a) * rt[:, None] * rt[None, :])[-1])


def full_graph_lower(a: Arrays) -> np.ndarray:
    """max(0, lambda_k(negated normalized adjacency) / 2) for k = 1..n, a
    lower bound for every cutoff eigenvalue L_k."""
    rt = 1.0 / np.sqrt(a.mu)
    vals = np.linalg.eigvalsh(-adjacency(a) * rt[:, None] * rt[None, :])
    return np.maximum(0.0, 0.5 * vals)


def perron_bounds(a: Arrays, p: float, tau: np.ndarray) -> tuple[float, float]:
    """Bounds on the top eigenvalue of a kappa = 0 graph switched to
    all-negative by tau: the Rayleigh quotient of tau from below, and
    2^(p-1) max_i deg_i / mu_i from above."""
    deg = np.bincount(a.u, a.w, a.n) + np.bincount(a.v, a.w, a.n)
    return rayleigh(a, p, tau.astype(float)), 2.0 ** (p - 1.0) * float(np.max(deg / a.mu))


# --- closed forms -------------------------------------------------------------

def hypercube_top(d: int, p: float) -> float:
    """Regular bipartite: the alternating +-1 vector gives d * 2^(p-1)."""
    return d * 2.0 ** (p - 1.0)


def complete_ln(n: int) -> float:
    return n / 4 if n % 2 == 0 else math.sqrt(n * n - 1) / 4

"""Cutoff adjacency eigenvalues: exact top value, per-index brackets,
interlacing checks, and the eigenfunction-limit scan.

The k-th cutoff eigenvalue L_k is the limit of 2^-p times the k-th
variational p-Laplacian eigenvalue as p grows.  It does not depend on the
vertex potential, so every operation here zeroes kappa on entry.  L_n is
computed exactly (for n up to the enumeration cap) as half the largest
eigenvalue, over all vertex sign vectors s, of the nonnegative matrix that
keeps exactly the edges with sigma_ij s_i s_j = -1: each s indexes the
maximal antibalanced spanning subgraph compatible with it, and the top
eigenvalue of a nonnegative symmetric matrix only grows with edge inclusion,
so no smaller compatible subgraph can beat it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .graph import (GraphError, SignedGraph, classify_balance,
                    induced_subgraph, is_connected, negate, switch,
                    with_zero_kappa)
from .linalg import normalized_adjacency, normalized_spectrum
from .solver import SolverConfig, solve_largest

EXACT_TOL = 1e-9
DEFAULT_SIGN_CAP = 24
_BATCH_BYTES = 1 << 17      # float64 matrices per stacked eigensolve


@dataclass(frozen=True)
class CutoffBracket:
    """Lower/upper bracket for one cutoff eigenvalue, with certificates."""

    k: int
    lower: float
    upper: float
    lower_certificate: tuple
    upper_certificate: tuple
    exact: bool


@dataclass(frozen=True)
class LimitScanResult:
    p_grid: tuple[float, ...]
    distances: tuple[float, ...]
    eigenvalues: tuple[float, ...]
    functions: tuple[np.ndarray, ...]   # |f_p|^(p/2), unit l2(mu) norm
    perron: np.ndarray


def r_q_infty(g: SignedGraph, q: float, f: np.ndarray) -> float:
    """sum_E w (max(-f_i sigma_ij f_j, 0))^(q/2) / sum_i mu |f_i|^q."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    f = np.asarray(f, dtype=float)
    a = g._arrays
    den = float(np.sum(a.mu * np.abs(f) ** q))
    if den == 0:
        raise ValueError("cutoff quotient of the zero function")
    num = 0.0
    if g.m:
        num = float(np.sum(a.w * np.maximum(-f[a.u] * a.sigma * f[a.v], 0.0) ** (q / 2.0)))
    return num / den


def _active_edges(g: SignedGraph, neg: np.ndarray) -> np.ndarray:
    """Edges with sigma s_u s_v < 0 for each row of vertex flags neg (s < 0):
    exactly when an odd number of the three is negative."""
    a = g._arrays
    return (a.sigma < 0) ^ neg[..., a.u] ^ neg[..., a.v]


def _code_signs(n: int, codes: np.ndarray) -> np.ndarray:
    """Row c: the vertices _code_to_signs(n, codes[c]) makes negative."""
    neg = np.zeros((codes.size, n), dtype=bool)
    neg[:, 1:] = (codes[:, None] >> np.arange(n - 1)) & 1
    return neg


def _code_to_signs(n: int, code: int) -> tuple[int, ...]:
    return tuple(int(s) for s in np.where(_code_signs(n, np.array([code]))[0], -1, 1))


def _batch_size(n: int) -> int:
    return max(1, _BATCH_BYTES // (8 * n * n))


def _first_max(g: SignedGraph, batches, index: int, **flags) -> tuple[float, int]:
    """(value, position) of the first maximum of eigenvalue `index` of
    normalized_adjacency(g, mask, **flags) over the rows of the mask batches;
    one stacked eigensolve per batch."""
    best_val, best_pos, pos = -np.inf, 0, 0
    for masks in batches:
        vals = np.linalg.eigvalsh(normalized_adjacency(g, masks, **flags))[:, index]
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_pos = float(vals[i]), pos + i
        pos += len(masks)
    return best_val, best_pos


def _lambda_max_signs(g: SignedGraph) -> tuple[float, tuple[int, ...]]:
    """Exact max over all sign vectors (first entry pinned by symmetry); the
    smallest code wins ties."""
    n, total, step = g.n, 1 << (g.n - 1), _batch_size(g.n)
    batches = (_active_edges(g, _code_signs(n, np.arange(lo, min(lo + step, total))))
               for lo in range(0, total, step))
    best_val, best_code = _first_max(g, batches, -1, absolute=True)
    return best_val, _code_to_signs(n, best_code)


def _hill_climb_signs(g: SignedGraph, seed: int, rounds: int = 8) -> tuple[float, tuple[int, ...]]:
    n = g.n

    def value(sv: np.ndarray) -> float:
        active = _active_edges(g, sv < 0)
        if not np.any(active):
            return 0.0
        return float(np.linalg.eigvalsh(normalized_adjacency(g, active, absolute=True))[-1])

    rng = np.random.default_rng(seed)
    best_val, best_sv = -np.inf, None
    seeds = [np.ones(n)] + [np.where(rng.random(n) < 0.5, 1.0, -1.0)
                            for _ in range(rounds)]
    for sv in seeds:
        sv = sv.copy()
        sv[0] = 1.0
        cur = value(sv)
        improved = True
        while improved:
            improved = False
            for i in range(1, n):
                sv[i] = -sv[i]
                cand = value(sv)
                if cand > cur + 1e-15:
                    cur = cand
                    improved = True
                else:
                    sv[i] = -sv[i]
        if cur > best_val:
            best_val, best_sv = cur, sv.copy()
    return best_val, tuple(int(x) for x in best_sv)


def exact_ln(g: SignedGraph, cap: int = DEFAULT_SIGN_CAP,
             seed: int = 0) -> CutoffBracket:
    """L_n, exact up to the enumeration cap.

    The 2^(n-1) sign codes are scanned serially, one stacked eigensolve per
    batch: about 24 us per code at n=16 and 33 us at n=18 on 2 vCPUs, so a
    run at the n=24 cap takes minutes.  Above the cap the enumeration
    degrades to seeded sampling with local sign flips; the result is then
    only a certified lower bound (exact=False) and the upper side falls back
    to half the top eigenvalue of the normalized unsigned adjacency.
    """
    g = with_zero_kappa(g)
    if g.m == 0:
        return CutoffBracket(k=g.n, lower=0.0, upper=0.0,
                             lower_certificate=("sign-vector", (1,) * g.n),
                             upper_certificate=("exact",), exact=True)
    if g.n <= cap:
        val, signs = _lambda_max_signs(g)
        half = 0.5 * val
        return CutoffBracket(k=g.n, lower=half, upper=half,
                             lower_certificate=("sign-vector", signs),
                             upper_certificate=("exact",), exact=True)
    val, signs = _hill_climb_signs(g, seed)
    upper = 0.5 * float(np.linalg.eigvalsh(normalized_adjacency(g, absolute=True))[-1])
    return CutoffBracket(k=g.n, lower=0.5 * val, upper=upper,
                         lower_certificate=("sign-vector-sampled", signs),
                         upper_certificate=("vertex-subset", tuple(range(g.n))),
                         exact=False)


def lower_bound_full(g: SignedGraph, k: int) -> float:
    """max(0, lambda_k(A^mu of the negated graph) / 2)."""
    if not (1 <= k <= g.n):
        raise ValueError(f"k must be in [1, {g.n}]")
    return float(lower_bounds_full_all(g)[k - 1])


def lower_bounds_full_all(g: SignedGraph) -> np.ndarray:
    """The full-graph lower-bound vector for k = 1..n (one eigensolve)."""
    g = with_zero_kappa(g)
    vals = normalized_spectrum(negate(g)).values
    return np.maximum(0.0, 0.5 * vals)


def lower_bound_subgraphs(g: SignedGraph, k: int,
                          budget: int = 2048) -> tuple[float, tuple]:
    """Best lower bound L_k >= lambda_k(A^mu of a negated spanning subgraph)/2
    over a candidate pool; valid whatever the pool, exhaustive within budget.

    The pool: all edges, none, the maximal antibalanced subgraphs (one per
    sign code) and every other edge subset, the last two while they fit the
    budget.  The first member of the pool wins ties."""
    if not (1 <= k <= g.n):
        raise ValueError(f"k must be in [1, {g.n}]")
    g = with_zero_kappa(g)
    if not g.m:
        return 0.0, ("spanning-subgraph", ())
    pool = [np.ones((1, g.m), dtype=bool), np.zeros((1, g.m), dtype=bool)]
    if (1 << (g.n - 1)) <= budget:
        pool.append(_active_edges(g, _code_signs(g.n, np.arange(1 << (g.n - 1)))))
    if (1 << g.m) <= budget:
        # itertools.combinations order: by size, then by members; within a
        # size that is descending code order with edge 0 as the top bit
        codes = np.arange((1 << g.m) - 2, 0, -1)
        rows = ((codes[:, None] >> np.arange(g.m - 1, -1, -1)) & 1).astype(bool)
        pool.append(rows[np.argsort(rows.sum(axis=1), kind="stable")])
    masks = np.concatenate(pool)
    _, first = np.unique(masks, axis=0, return_index=True)
    masks, step = masks[np.sort(first)], _batch_size(g.n)
    best_val, best = _first_max(g, (masks[lo:lo + step] for lo in range(0, len(masks), step)),
                                k - 1, negate=True)
    edges = tuple((g.edges[i].u, g.edges[i].v) for i in np.flatnonzero(masks[best]))
    return 0.5 * best_val, ("spanning-subgraph", edges)


def _subset_value(absadj: np.ndarray, subset: Sequence[int]) -> float:
    """Half the top eigenvalue of the mu-normalized |A| (absadj) restricted
    to subset."""
    keep = sorted(set(subset))
    m = absadj[np.ix_(keep, keep)]
    if not m.any():
        return 0.0
    return 0.5 * float(np.linalg.eigvalsh(m)[-1])


def upper_bound_subsets(g: SignedGraph, k: int, budget: int = 2048,
                        seed: int = 0) -> tuple[float, tuple]:
    """min over k-vertex subsets S of half the top eigenvalue of the
    normalized |A| restricted to S; exactly 0 on independent subsets.

    Exhaustive when C(n,k) fits the budget, else greedy plus seeded random
    subsets.  An independent set of size >= k short-circuits to 0.
    """
    if not (1 <= k <= g.n):
        raise ValueError(f"k must be in [1, {g.n}]")
    g = with_zero_kappa(g)
    from .combinatorics import max_independent_set
    mis = max_independent_set(g)
    if mis.size >= k:
        subset = tuple(sorted(mis.vertices)[:k])
        return 0.0, ("vertex-subset", subset)

    from math import comb
    absadj = normalized_adjacency(g, absolute=True)
    best: tuple[float, tuple[int, ...]] | None = None
    if comb(g.n, k) <= budget:
        for subset in combinations(range(g.n), k):
            val = _subset_value(absadj, subset)
            if best is None or val < best[0]:
                best = (val, subset)
            if best[0] == 0.0:
                break
    else:
        cur: list[int] = []
        free = set(range(g.n))
        while len(cur) < k:
            pick = min(free, key=lambda x: (_subset_value(absadj, cur + [x]), x))
            cur.append(pick)
            free.discard(pick)
        best = (_subset_value(absadj, cur), tuple(sorted(cur)))
        rng = np.random.default_rng(seed)
        for _ in range(min(budget, 256)):
            subset = tuple(sorted(rng.choice(g.n, size=k, replace=False)))
            val = _subset_value(absadj, subset)
            if val < best[0]:
                best = (val, subset)
    return best[0], ("vertex-subset", tuple(best[1]))


def upper_bound_from_p(g: SignedGraph, k_label: int, p: float,
                       lam_hat: float) -> float:
    """L_1 <= 2^-p * lam_hat for any certified upper bound lam_hat of the
    bottom eigenvalue at exponent p (kappa must vanish)."""
    if k_label != 1:
        raise ValueError("only k = 1 has certified upper bounds from finite p")
    if any(x != 0 for x in g.kappa):
        raise ValueError("the finite-p upper bound requires kappa == 0")
    if not p > 1:
        raise ValueError("p must be > 1")
    return 2.0 ** (-p) * lam_hat


def bracket(g: SignedGraph, k: int, budget: int = 2048,
            cap: int = DEFAULT_SIGN_CAP, seed: int = 0) -> CutoffBracket:
    """Combine all bounds for index k; exact when they meet within 1e-9.

    An inverted bracket (lower > upper beyond tolerance) is an implementation
    bug by construction and raises immediately, and so does a NaN side.
    """
    if not (1 <= k <= g.n):
        raise ValueError(f"k must be in [1, {g.n}]")
    g = with_zero_kappa(g)
    lowers = [(lower_bound_full(g, k), ("full-graph",))]
    lowers.append(lower_bound_subgraphs(g, k, budget))
    uppers = [upper_bound_subsets(g, k, budget, seed)]
    if k == g.n:
        ln = exact_ln(g, cap=cap, seed=seed)
        lowers.append((ln.lower, ln.lower_certificate))
        if ln.exact:
            uppers.append((ln.upper, ("exact",)))
    lower, lower_cert = max(lowers, key=lambda t: t[0])
    upper, upper_cert = min(uppers, key=lambda t: t[0])
    if not lower <= upper + EXACT_TOL:    # a NaN side fails too
        raise RuntimeError(f"inconsistent bracket for k={k}: "
                           f"lower {lower!r} > upper {upper!r}")
    return CutoffBracket(k=k, lower=lower, upper=upper,
                         lower_certificate=lower_cert,
                         upper_certificate=upper_cert,
                         exact=(upper - lower) <= EXACT_TOL)


@dataclass(frozen=True)
class InterlacingReport:
    removed: tuple[int, ...]
    items: tuple[tuple[str, bool, dict], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.items)


def interlacing_check(g: SignedGraph, removed: Sequence[int],
                      budget: int = 2048,
                      cap: int = DEFAULT_SIGN_CAP) -> InterlacingReport:
    """Check L_n(G - removed) <= L_n(G) and the per-index bracket consistency
    lower_k(G) <= upper_k(G - removed) for the computable indices."""
    rem = sorted(set(int(i) for i in removed))
    if not (1 <= len(rem) <= g.n - 1):
        raise GraphError("must remove between 1 and n-1 vertices")
    for i in rem:
        if not (0 <= i < g.n):
            raise GraphError(f"vertex index {i} out of range [0,{g.n})")
    keep = [i for i in range(g.n) if i not in rem]
    sub = induced_subgraph(g, keep)
    ln_g = exact_ln(with_zero_kappa(g), cap=cap)
    ln_sub = exact_ln(with_zero_kappa(sub), cap=cap)
    items = [("top-index interlacing", ln_sub.lower <= ln_g.upper + EXACT_TOL,
              {"L_n(subgraph)": ln_sub.lower, "L_n(graph)": ln_g.upper,
               "exact": ln_g.exact and ln_sub.exact})]
    for k in range(1, sub.n + 1):
        lo = lower_bound_full(g, k)
        up, _ = upper_bound_subsets(sub, k, budget)
        items.append((f"bracket consistency k={k}", lo <= up + EXACT_TOL,
                      {"lower_k(graph)": lo, "upper_k(subgraph)": up}))
    return InterlacingReport(removed=tuple(rem), items=tuple(items))


def limit_scan(g: SignedGraph, p_grid: Sequence[float],
               cfg: Optional[SolverConfig] = None) -> LimitScanResult:
    """Track |f_p|^(p/2) of the top eigenfunction along a p-grid against the
    Perron vector of the negated normalized adjacency.

    Requires a connected graph that is switching equivalent to all-negative
    (switched internally); the potential is zeroed, which changes no limit.
    Distances are l2(mu) after unit normalization and sign alignment.
    """
    g = with_zero_kappa(g)
    bal = classify_balance(g)
    if bal.antibalanced_witness is None or not is_connected(g):
        raise GraphError("limit scan needs a connected antibalanced graph")
    gneg = switch(g, bal.antibalanced_witness)
    mu = gneg.mu_array()
    dec = normalized_spectrum(negate(gneg))   # nonnegative matrix
    perron = np.abs(dec.vectors[:, -1])
    perron = perron / np.sqrt(np.sum(mu * perron ** 2))
    ps, dists, lams, funcs = [], [], [], []
    for p in p_grid:
        pair = solve_largest(gneg, p, cfg)
        if pair.certificate != "perron-certified":
            raise RuntimeError(f"top eigenpair at p={p} failed Perron certification")
        u = np.abs(pair.f) ** (p / 2.0)
        u = u / np.sqrt(np.sum(mu * u ** 2))
        dist = min(float(np.sqrt(np.sum(mu * (u - perron) ** 2))),
                   float(np.sqrt(np.sum(mu * (u + perron) ** 2))))
        ps.append(float(p))
        dists.append(dist)
        lams.append(pair.value)
        funcs.append(u)
    return LimitScanResult(p_grid=tuple(ps), distances=tuple(dists),
                           eigenvalues=tuple(lams), functions=tuple(funcs),
                           perron=perron)

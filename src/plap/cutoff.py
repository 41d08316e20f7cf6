"""Cutoff adjacency eigenvalues: exact top value, per-index brackets,
interlacing checks, and the eigenfunction-limit scan.

The k-th cutoff eigenvalue L_k is the limit of 2^-p times the k-th
variational p-Laplacian eigenvalue as p grows.  It does not depend on the
vertex potential, and nothing here reads kappa; limit_scan zeroes it before
it calls the p-Laplacian solver, which does.  L_n is
computed exactly (for n up to DEFAULT_SIGN_CAP) as half the largest
eigenvalue, over all vertex sign vectors s, of the nonnegative matrix that
keeps exactly the edges with sigma_ij s_i s_j = -1: each s indexes the
maximal antibalanced spanning subgraph compatible with it, and the top
eigenvalue of a nonnegative symmetric matrix only grows with edge inclusion,
so no smaller compatible subgraph can beat it.  The same monotonicity makes
the maximum a branch and bound over partial sign vectors: the matrix that
also keeps every edge at an unsigned vertex bounds every completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb
from typing import Optional, Sequence

import numpy as np

from .graph import (GraphError, SignedGraph, _real, _vertex, connected_antibalancing_tau,
                    induced_subgraph, switch, with_zero_kappa)
from . import linalg
from .linalg import (_eigh, _eigvals, _flush, _stored, _symmetric, normalized_adjacency,
                     normalized_spectrum)
from .solver import SolverConfig, solve_largest_grid

EXACT_TOL = 1e-9
DEFAULT_SIGN_CAP = 24
DEFAULT_BUDGET = 2048       # pool and subset budget of the single-index forms


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
    """sum_E w (max(-f_i sigma_ij f_j, 0))^(q/2) / sum_i mu |f_i|^q, for
    1 <= q < inf and a finite f with one entry per vertex."""
    if not (_real(q) and 1 <= q < np.inf):
        raise ValueError(f"q must be a number in [1, inf), got {q!r}")
    f = np.asarray(f, dtype=float)
    if f.shape != (g.n,):
        raise ValueError(f"function has shape {f.shape}, expected ({g.n},)")
    bad = np.flatnonzero(~np.isfinite(f))
    if bad.size:
        raise ValueError(f"function entry #{bad[0]} must be finite, got {float(f[bad[0]])!r}")
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


def _first_max(g: SignedGraph, masks: np.ndarray, **flags) -> tuple[np.ndarray, np.ndarray]:
    """(values, positions) of the first maximum of each eigenvalue column of
    normalized_adjacency(g, mask, **flags) over the rows of masks."""
    vals = _eigvals(masks, g.n, _flush(g), lambda rows: normalized_adjacency(g, rows, **flags))
    return vals.max(axis=0), vals.argmax(axis=0)


def _top_values(g: SignedGraph, masks: np.ndarray) -> np.ndarray:
    """Top eigenvalue of normalized_adjacency(g, mask, absolute=True) for each
    row of masks."""
    return _eigvals(masks, g.n, _flush(g),
                    lambda rows: normalized_adjacency(g, rows, absolute=True))[:, -1]


def _flip_ascent(g: SignedGraph) -> float:
    """The value of a good sign code: the bottom eigenvector of the signed
    matrix rounded to signs, then best single flips until none gains, with
    all n - 1 flips of a step in one stack (the current code wins ties)."""
    n = g.n
    vec = _eigh(normalized_adjacency(g), _flush(g))[1][:, 0]
    neg = (vec < 0) != (vec[0] < 0)
    code = int(np.sum(neg[1:].astype(np.int64) << np.arange(n - 1)))
    flips = np.int64(1) << np.arange(n - 1)
    while True:
        codes = np.concatenate(([code], code ^ flips))
        vals = _top_values(g, _active_edges(g, _code_signs(n, codes)))
        i = int(np.argmax(vals))
        if i == 0:
            return float(vals[0])
        code = int(codes[i])


def _perron_bounds(b: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """(upper, lower) bounds on the top eigenvalue of each matrix of the
    (S, n, n) stack b of nonnegative symmetric matrices, r at least every
    row sum of every one; NaN on both sides where they decide nothing.

    x = (B / s + I / 11)^32 1 with s = 1.1 r, by five squarings.  The shift
    (0.1 r, over s) keeps 11^-32 or more on the diagonal of every power, so
    x > 0, and keeps a bipartite part from alternating; the scale keeps
    every row sum of every power at most 1, so x <= 1 and nothing
    overflows.  For any x > 0, Collatz-Wielandt gives lambda_max(B) <=
    max_i (Bx)_i / x_i and Rayleigh gives lambda_max(B) >= x'Bx / x'x; how
    near x is to the Perron vector only decides how tight they are.

    The rounding.  Bx is ((B / s) x) s: each entry of B / s rounds once,
    each (B / s x)_i is a float sum of n nonnegative products, and the
    quotient by x_i and the product by s round once each, so the float upper
    bound is at least 1 - (n + 2) eps times the exact ratio, short of
    products below the normal range, which lose at most n 2^-1074 / x_i <=
    n 11^32 2^-1074 (in units of s), far below eps.  A zero or non-finite r
    or entry makes x or the bounds NaN or infinite: the bounds count only
    where x is finite and positive and the upper bound finite and positive.
    """
    with np.errstate(all="ignore"):
        s = 1.1 * r
        scaled = b / s
        power = scaled + np.eye(b.shape[-1]) / 11.0
        for _ in range(5):      # 2^5 = 32 steps of the power iteration
            power = power @ power
        x = power.sum(axis=1)   # power 1, bar rounding (power is symmetric); any x > 0 serves
        y = (scaled @ x[..., None])[..., 0]
        upper = (y / x).max(axis=1) * s
        lower = np.vecdot(x, y) / np.vecdot(x, x) * s
        bad = ~((x.min(axis=1) > 0) & (x.max(axis=1) < np.inf) & (0 < upper) & (upper < np.inf))
    upper[bad] = lower[bad] = np.nan
    return upper, lower


def _lambda_max_signs(g: SignedGraph) -> tuple[float, tuple[int, ...]]:
    """Exact max over all sign vectors (first entry pinned by symmetry); the
    smallest code wins ties.  Branch and bound that returns the float and the
    code of a scan of every code.

    Vertices 1..n-1 are fixed in descending order of edge count.  A node
    fixing the first d of them is bounded by the top eigenvalue of the
    matrix B that keeps its decided active edges and every undecided edge:
    B dominates the matrix of every code below the node entrywise, so its
    top eigenvalue is at least theirs (module docstring).  The search is depth
    first over groups of at most half a batch of nodes, each group expanded
    by as many levels as fit in one batch; with every code in one batch the
    first group is the scan itself.  Otherwise a best single-flip ascent
    gives the incumbent, which each leaf group may raise, and threshold =
    incumbent - slack.  Leaves get the scan's matrix and eigensolve, so the
    scan's float; the largest float, then the smallest code, wins.

    The tests, in order.  B is nonnegative and symmetric, so lambda_max(B)^2
    = rho(B^2) <= max_i (B r_B)_i with r_B its row sums: a node or leaf
    whose root of that is below threshold is dropped unsolved.  Every other
    leaf is eigensolved.  A node whose Rayleigh quotient x'Bx / x'x (x the
    |A| Perron vector plus a floor) clears threshold is kept unsolved.  The
    nodes left get B, built once, and the Collatz-Wielandt and Rayleigh
    bounds of _perron_bounds: a node is pruned when the upper one is below
    threshold and kept when the lower one clears it.  Only the nodes that
    neither decides are eigensolved, and pruned when their float is below
    threshold.

    The slack.  LAPACK's symmetric eigensolvers return each eigenvalue of B
    within p(n) u ||B||_2 of the exact one (backward stability and Weyl;
    the LAPACK Users' Guide, section 4.7, calls p(n) a modestly growing
    function of n; here p(n) = n^2, u = eps / 2), and ||B||_2 is at most the
    largest row sum r of the full |A|; the flush of _eigvals adds at most
    n eps r.  A leaf's float is therefore at most the exact lambda_max(B) of
    any node above it plus (n^2 / 2 + n) eps r.  Each test that prunes shows
    lambda_max(B) < threshold + e, with e its rounding: under (n + 2) eps r
    for the root of max_i (B r_B)_i, taken in units of r lest it underflow,
    (n^2 / 2 + n) eps r for a node's float, and (n + 2) eps r for the
    Collatz-Wielandt ratio (a relative (n + 2) eps of a float below
    threshold <= r).  So with slack = 4 n^2 eps r, every leaf of a pruned
    node has a float below threshold + (n^2 + 2n + 2) eps r <
    incumbent (n >= 2): the incumbent's leaf, and every leaf that could tie
    it, is solved.  The tests that keep a node need no slack, since keeping
    a node can never lose a leaf, and a larger slack would keep more nodes
    and change nothing.  A bound that is not a number decides nothing.
    """
    n, a, step = g.n, g._arrays, max(1, linalg._BATCH_BYTES // (8 * g.n * g.n))
    deg = np.bincount(np.concatenate((a.u, a.v)), minlength=n)
    order = 1 + np.argsort(-deg[1:], kind="stable")
    rank = np.zeros(n, dtype=int)
    rank[order] = np.arange(1, n)
    fixed_at = np.maximum(rank[a.u], rank[a.v])     # the depth that decides each edge
    stack, threshold, take = [(0, np.zeros(1, dtype=np.int64))], None, max(1, step // 2)
    while stack:
        depth, nodes = stack.pop()
        if len(nodes) > take:
            stack.append((depth, nodes[take:]))
            nodes = nodes[:take]
        levels = min(n - 1 - depth, max(1, (step // len(nodes)).bit_length() - 1))
        sub = (np.arange(1 << levels)[:, None] >> np.arange(levels)) & 1
        nodes = (nodes[:, None] | (sub << (order[depth:depth + levels] - 1)).sum(axis=1)).ravel()
        depth += levels
        if threshold is None:
            if depth == n - 1:      # every code in the first group: the scan
                leaves, vals = [nodes], [_top_values(g, _active_edges(g, _code_signs(n, nodes)))]
                break
            absadj, leaves, vals = _absadj(g), [], []
            r = absadj.sum(axis=1).max() or 1.0     # an edgeless graph's bound
            slack = 4.0 * n * n * np.finfo(float).eps * r
            threshold = _flip_ascent(g) - slack
            x = np.abs(_eigh(absadj, _flush(g))[1][:, -1])
            x += 0.1 * x.max()
            quad = 2.0 * x[a.u] * x[a.v] / (x @ x)
            at_u = (a.u[:, None] == np.arange(n)) * 1.0     # edge-to-endpoint scatters
            at_v = (a.v[:, None] == np.arange(n)) * 1.0
        masks = _active_edges(g, _code_signs(n, nodes)) | (fixed_at > depth)
        ws = masks * (a.scale / r)      # B and its row sums in units of r
        rows = ws @ at_u + ws @ at_v
        walks = (ws * rows[:, a.v]) @ at_u + (ws * rows[:, a.u]) @ at_v
        solve = ~(np.sqrt(walks.max(axis=1)) < threshold / r)
        if depth == n - 1:
            if solve.any():
                leaves.append(nodes[solve])
                vals.append(_top_values(g, masks[solve]))
                threshold = max(threshold, vals[-1].max() - slack)
            continue
        sure = ws @ quad >= threshold / r
        solve &= ~sure
        if solve.any():
            b = normalized_adjacency(g, masks[solve], absolute=True)
            upper, lower = _perron_bounds(b, r)
            keep = lower >= threshold
            rest = ~(keep | (upper < threshold))
            keep[rest] = ~(_eigvals(b[rest], n, _flush(g))[:, -1] < threshold)
            sure[solve] = keep
        if sure.any():
            stack.append((depth, nodes[sure]))
    leaves, vals = np.concatenate(leaves), np.concatenate(vals)
    top = vals.max()
    return float(top), _code_to_signs(n, int(leaves[vals == top].min()))


def _hill_climb_signs(g: SignedGraph, seed: int) -> tuple[float, tuple[int, ...]]:
    """(value, sign vector) of a good sign code, for exact_ln above the cap:
    from all plus and from 8 seeded random sign vectors, flip vertices
    1..n-1 in turn while a flip gains more than 1e-15 (serial first
    improvement); the first start with the largest value wins."""
    n = g.n
    rng = np.random.default_rng(seed)
    starts = [np.zeros(n, dtype=bool)] + [rng.random(n) >= 0.5 for _ in range(8)]
    best_val, best_neg = -np.inf, None
    for neg in starts:
        neg[0] = False
        cur = _top_values(g, _active_edges(g, neg[None]))[0]
        improved = True
        while improved:
            improved = False
            for i in range(1, n):
                neg[i] = not neg[i]
                cand = _top_values(g, _active_edges(g, neg[None]))[0]
                if cand > cur + 1e-15:
                    cur, improved = cand, True
                else:
                    neg[i] = not neg[i]
        if cur > best_val:
            best_val, best_neg = cur, neg.copy()
    return float(best_val), tuple(int(s) for s in np.where(best_neg, -1, 1))


def exact_ln(g: SignedGraph, seed: int = 0) -> CutoffBracket:
    """L_n, exact for n <= DEFAULT_SIGN_CAP.

    A batched branch and bound over the 2^(n-1) sign codes returns the value
    and sign vector a scan of every code would.  On 2 vCPUs with one BLAS
    thread it takes 1-30 ms on random signed graphs with n = 14-16 (0.7 s
    for the scan at n = 16), 0.04-0.8 s at n = 18-20, about 2 s at n = 22
    and 4-8 s at n = 24.  Complete graphs are its worst case, since every
    balanced bipartition ties: 0.05 s for K14, 0.23 s for K16.  Above the
    cap the enumeration degrades to seeded sampling with
    local sign flips; the result is then only a certified lower bound
    (exact=False) and the upper side falls back to half the top eigenvalue
    of the normalized unsigned adjacency.
    """
    if g.m == 0:
        return CutoffBracket(k=g.n, lower=0.0, upper=0.0,
                             lower_certificate=("sign-vector", (1,) * g.n),
                             upper_certificate=("exact",), exact=True)
    if g.n <= DEFAULT_SIGN_CAP:
        val, signs = _lambda_max_signs(g)
        half = 0.5 * val
        return CutoffBracket(k=g.n, lower=half, upper=half,
                             lower_certificate=("sign-vector", signs),
                             upper_certificate=("exact",), exact=True)
    val, signs = _hill_climb_signs(g, seed)
    upper = 0.5 * float(_eigvals(_absadj(g)[None], g.n, _flush(g))[0, -1])
    return CutoffBracket(k=g.n, lower=0.5 * val, upper=upper,
                         lower_certificate=("sign-vector-sampled", signs),
                         upper_certificate=("vertex-subset", tuple(range(g.n))),
                         exact=False)


def _check_k(g: SignedGraph, k) -> int:
    """k as an index of g: a number (not a bool) equal to an integer in
    [1, n], _vertex's rule, so 2.0 passes as 2 and 2.5 is not truncated."""
    if not (_real(k) and k % 1 == 0):
        raise ValueError(f"k must be an integer index, got {k!r}")
    if not 1 <= k <= g.n:
        raise ValueError(f"k must be in [1, {g.n}], got {int(k)}")
    return int(k)


def _check_budget(budget) -> int:
    """budget as a count: a number (not a bool) equal to an integer >= 0,
    _check_k's rule, so 16.0 passes as 16 and 2.5 or -1 is refused."""
    if not (_real(budget) and budget % 1 == 0 and budget >= 0):
        raise ValueError(f"budget must be a nonnegative integer, got {budget!r}")
    return int(budget)


def lower_bound_full(g: SignedGraph, k: int) -> float:
    """max(0, lambda_k(A^mu of the negated graph) / 2)."""
    return float(lower_bounds_full_all(g)[_check_k(g, k) - 1])


def lower_bounds_full_all(g: SignedGraph) -> np.ndarray:
    """The full-graph lower-bound vector for k = 1..n: one eigensolve per
    graph object, kept on g; each call returns a fresh copy."""
    return _stored(g, "lowers", lambda g: _signed_lowers(g, g._arrays.sigma)).copy()


def _signed_lowers(g: SignedGraph, sigma: np.ndarray) -> np.ndarray:
    """lower_bounds_full_all of g with the signature sigma (in edge order),
    or one row of bounds per row of an (S, m) stack of signatures, from one
    stacked eigh (eigvalsh rounds differently)."""
    a = g._arrays
    return np.maximum(0.0, 0.5 * _eigh(_symmetric(g.n, a.u, a.v, -sigma * a.scale), _flush(g))[0])


def lower_bound_subgraphs(g: SignedGraph, k: int) -> tuple[float, tuple]:
    """Best lower bound L_k >= lambda_k(A^mu of a negated spanning subgraph)/2
    over a candidate pool; valid whatever the pool, exhaustive within budget.

    The pool: all edges, none, the maximal antibalanced subgraphs (one per
    sign code) and every other edge subset, the last two while they fit the
    budget (DEFAULT_BUDGET).  The first member of the pool wins ties.  The
    scan serves every k and is kept on g (see _subgraph_lowers)."""
    return _subgraph_lowers(g, [_check_k(g, k)], DEFAULT_BUDGET)[0]


def _subgraph_lowers(g: SignedGraph, ks: Sequence[int],
                     budget: int) -> list[tuple[float, tuple]]:
    """lower_bound_subgraphs for every k in ks.  One scan of the pool gives
    the first maximum of every eigenvalue column and its member; it is kept
    on g, keyed by which of the sign codes and edge subsets the budget
    admits, so every later call whose budget gives the same pool reads it."""
    if not g.m:
        return [(0.0, ("spanning-subgraph", ()))] * len(ks)
    key = ("pool", (1 << (g.n - 1)) <= budget, (1 << g.m) <= budget)
    if key not in g._store:
        pool = [np.ones((1, g.m), dtype=bool), np.zeros((1, g.m), dtype=bool)]
        if key[1]:
            pool.append(_active_edges(g, _code_signs(g.n, np.arange(1 << (g.n - 1)))))
        if key[2]:
            # itertools.combinations order: by size, then by members; within
            # a size that is descending code order with edge 0 as the top bit
            codes = np.arange((1 << g.m) - 2, 0, -1)
            rows = ((codes[:, None] >> np.arange(g.m - 1, -1, -1)) & 1).astype(bool)
            pool.append(rows[np.argsort(rows.sum(axis=1), kind="stable")])
        masks = np.concatenate(pool)
        masks = masks[_first_rows(masks)]
        vals, best = _first_max(g, masks, negate=True)
        g._store[key] = (vals, masks[best])
    vals, winners = g._store[key]
    return [(0.5 * float(vals[k - 1]), ("spanning-subgraph",
                                        tuple((g.edges[i].u, g.edges[i].v)
                                              for i in np.flatnonzero(winners[k - 1]))))
            for k in ks]


def _first_rows(masks: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrence of each distinct row of
    the boolean matrix masks: np.sort(np.unique(masks, axis=0,
    return_index=True)[1]), from one sort of the rows packed to bytes."""
    packed = np.ascontiguousarray(np.packbits(masks, axis=1))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    return np.sort(np.unique(keys, return_index=True)[1])


def _subset_values(absadj: np.ndarray, subsets: np.ndarray, flush: bool) -> np.ndarray:
    """Half the top eigenvalue of the mu-normalized |A| (absadj) restricted
    to each row of subsets (ascending vertices, one size); exactly 0.0 where
    the restriction has no nonzero entry (its top eigenvalue is then +-0, and
    else at least its largest entry)."""
    top = _eigvals(subsets, subsets.shape[1], flush,
                   lambda rows: absadj[rows[:, :, None], rows[:, None, :]])[:, -1]
    return np.where(top != 0, 0.5 * top, 0.0)


def _least_subset(absadj: np.ndarray, k: int, flush: bool) -> tuple[float, tuple]:
    """(float, subset) of the exhaustive scan of upper_bound_subsets: the
    first k-subset of least _subset_values float, eigensolving only the
    subsets that the bounds there cannot rule out."""
    n = len(absadj)
    with np.errstate(all="ignore"):
        c = absadj.max()
        r = max(absadj.sum(axis=1).max(), np.finfo(float).tiny)
        slack = 8.0 * k * k * np.finfo(float).eps * r / c
        scaled = absadj / c
    edges = (absadj != 0) * 1.0
    subsets, total = combinations(range(n), k), comb(n, k)
    step = max(1, linalg._BATCH_BYTES // (8 * max(k * k, n)))   # a block or a membership row
    cap, best = np.inf, (np.inf, ())
    for start in range(0, total, step):
        size = min(step, total - start)
        idx = np.fromiter(chain.from_iterable(islice(subsets, size)), np.intp,
                          size * k).reshape(size, k)
        member = np.zeros((size, n))
        member[np.arange(size)[:, None], idx] = 1.0
        zero = ((member @ edges) * member).sum(axis=1) == 0
        with np.errstate(all="ignore"):
            x = (member @ scaled) * member          # B 1, zero off the subset
            walk = (x @ scaled) * member            # B x
            lo = np.maximum(x.sum(axis=1) / k,
                            np.einsum("si,si->s", x, walk) / np.einsum("si,si->s", x, x))
            hi = (walk / np.where(x > 0, x, 1.0)).max(axis=1)
            cap = min(cap, 0.0 if zero.any() else np.inf, (hi[~zero] + slack).min(initial=np.inf))
            keep = np.flatnonzero(zero | ~(lo > cap + slack))
        if not keep.size:
            continue
        vals, solve = np.zeros(keep.size), ~zero[keep]
        if solve.any():
            vals[solve] = _subset_values(absadj, idx[keep[solve]], flush)
        with np.errstate(all="ignore"):
            cap = min(cap, 2.0 * vals.min() / c)
        i = int(np.argmin(vals))
        if vals[i] < best[0]:
            best = (float(vals[i]), tuple(idx[keep[i]].tolist()))
        if best[0] == 0.0:
            break
    return best


def upper_bound_subsets(g: SignedGraph, k: int) -> tuple[float, tuple]:
    """min over k-vertex subsets S of half the top eigenvalue of the
    normalized |A| restricted to S; exactly 0 on independent subsets.

    Exhaustive when C(n,k) fits DEFAULT_BUDGET, else greedy plus random
    subsets of seed 0.  An independent set of size >= k short-circuits to
    0.  The first subset in combinations order wins ties.  The exhaustive
    scan returns the float and subset of a scan that eigensolves every
    subset, but eigensolves only the subsets these bounds cannot rule out.

    The bounds.  For the nonnegative symmetric block B of S and x = B 1,
    Rayleigh quotients give lambda_max(B) >= max(1'B1 / k, x'Bx / x'x), and
    Perron-Frobenius gives lambda_max(B) <= max_{x_i > 0} (Bx)_i / x_i (the
    Collatz-Wielandt ratio; a row with x_i = 0 is zero, and the ratio is at
    most the largest row sum, since (Bx)_i <= x_i max_j x_j).  They are
    computed without gathering B, by products of |A| / c (c its largest
    entry, so none overflows) with 0/1 vertex memberships; a zero term
    adds nothing to a float sum, so each sum rounds as one of k terms.
    With r the largest row sum of |A| (at least the smallest normal float),
    (4k + 4) eps r / c covers their rounding and the scaling's, 2 eps r / c
    that of the cap and of a solved float over c, and 2k eps r / c the
    absolute error of a result in the subnormal range.

    The slack.  LAPACK returns lambda_max(B) within k^2 u ||B||_2 <= k^2 u r,
    and the flush of _eigvals moves it by at most k eps r (the bounds of
    _lambda_max_signs, u = eps / 2), so slack = 8 k^2 eps r / c covers those
    and the rounding above for every k >= 2.  The cap, the
    least of the solved floats and of the upper bounds + slack seen so far
    (over c), is then at least the least float of all subsets, and a subset
    whose lower bound exceeds cap + slack holds a float above it: it is
    dropped unsolved.  So the first subset of least float is solved, with
    the matrix and eigensolve of a full scan.  A subset with no nonzero
    entry is exactly 0 without an eigensolve, and the scan stops after the
    first batch that holds one.  A non-finite c or slack drops nothing.
    Each batch of at most _BATCH_BYTES takes the cap down by its upper
    bounds, then solves, then takes it down by the floats it solved.
    """
    return _subset_uppers(g, [_check_k(g, k)], DEFAULT_BUDGET, 0)[0]


def _mis(g: SignedGraph):
    """combinatorics.max_independent_set(g), once per graph object."""
    from .combinatorics import max_independent_set
    return _stored(g, "mis", max_independent_set)


def _absadj(g: SignedGraph) -> np.ndarray:
    """normalized_adjacency(g, absolute=True), once per graph object."""
    return _stored(g, "absadj", lambda g: normalized_adjacency(g, absolute=True))


def _subset_uppers(g: SignedGraph, ks: Sequence[int], budget: int,
                   seed: int) -> list[tuple[float, tuple]]:
    """upper_bound_subsets for every k in ks."""
    absadj, mis, flush = _absadj(g), _mis(g), _flush(g)
    out = []
    for k in ks:
        if mis.size >= k:
            out.append((0.0, ("vertex-subset", tuple(sorted(mis.vertices)[:k]))))
            continue
        if comb(g.n, k) <= budget:
            val, subset = _least_subset(absadj, k, flush)
            out.append((val, ("vertex-subset", subset)))
            continue
        cur: list[int] = []
        while len(cur) < k:     # add the first vertex of least value
            free = [x for x in range(g.n) if x not in cur]
            vals = _subset_values(absadj, np.array([sorted(cur + [x]) for x in free]), flush)
            cur.append(free[int(np.argmin(vals))])
        rng = np.random.default_rng(seed)
        chunk = [tuple(sorted(cur))] + [
            tuple(int(x) for x in np.sort(rng.choice(g.n, k, replace=False)))
            for _ in range(min(budget, 256))]
        vals = _subset_values(absadj, np.array(chunk), flush)
        i = int(np.argmin(vals))
        out.append((float(vals[i]), ("vertex-subset", chunk[i])) if vals[i] < np.inf
                   else (np.inf, ("vertex-subset", ())))
    return out


def bracket(g: SignedGraph, k: int) -> CutoffBracket:
    """The bracket for one index: brackets(g, [k])[0]."""
    return brackets(g, [k])[0]


def brackets(g: SignedGraph, ks: Sequence[int], budget: int = DEFAULT_BUDGET,
             seed: int = 0) -> list[CutoffBracket]:
    """Combine all bounds for each index in ks; exact when they meet within
    1e-9.

    Lower: the full-graph bound, the subgraph pool, and at k = n the exact
    (or sampled) L_n; upper: the vertex subsets, and at k = n an exact L_n.
    The first bound in that order wins ties on each side.  At most one
    exact_ln serves every k of a call, and the pool scan, the full-graph
    lower bounds, the normalized |A| and the maximum independent set are
    kept on g, so bracket(g, k) over every k computes each of them once.
    An inverted bracket (lower > upper beyond tolerance) is an implementation
    bug by construction and raises immediately, and so does a NaN side.
    """
    ks, budget = [_check_k(g, k) for k in ks], _check_budget(budget)
    full = lower_bounds_full_all(g)
    subgraphs = _subgraph_lowers(g, ks, budget)
    subsets = _subset_uppers(g, ks, budget, seed)
    ln = exact_ln(g, seed=seed) if g.n in ks else None
    out = []
    for k, subgraph, subset in zip(ks, subgraphs, subsets):
        lowers, uppers = [(float(full[k - 1]), ("full-graph",)), subgraph], [subset]
        if k == g.n:
            lowers.append((ln.lower, ln.lower_certificate))
            if ln.exact:
                uppers.append((ln.upper, ("exact",)))
        lower, lower_cert = max(lowers, key=lambda t: t[0])
        upper, upper_cert = min(uppers, key=lambda t: t[0])
        # relative, so one ulp between two bounds near 1e200 passes; a NaN fails
        if not lower <= upper + EXACT_TOL * (1.0 + max(abs(lower), abs(upper))):
            raise RuntimeError(f"inconsistent bracket for k={k}: "
                               f"lower {lower!r} > upper {upper!r}")
        out.append(CutoffBracket(k=k, lower=lower, upper=upper,
                                 lower_certificate=lower_cert,
                                 upper_certificate=upper_cert,
                                 exact=(upper - lower) <= EXACT_TOL))
    return out


@dataclass(frozen=True)
class InterlacingReport:
    removed: tuple[int, ...]
    items: tuple[tuple[str, bool, dict], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.items)


def interlacing_check(g: SignedGraph, removed: Sequence[int]) -> InterlacingReport:
    """Check L_n(G - removed) <= L_n(G) and the per-index bracket consistency
    lower_k(G) <= upper_k(G - removed) for the computable indices."""
    return interlacing_checks(g, [removed])[0]


def interlacing_checks(g: SignedGraph, removals: Sequence[Sequence[int]],
                       budget: int = DEFAULT_BUDGET,
                       ln: Optional[CutoffBracket] = None) -> list[InterlacingReport]:
    """interlacing_check for each vertex set in removals.  Exact L_n(G) and
    the full-graph lower bounds of G are computed once for all of them, and
    one upper-bound pass per removal serves every k.  ln is exact_ln(g) when
    the caller has it already."""
    budget = _check_budget(budget)
    rems = [sorted({_vertex(g, x, f"removed vertex #{pos}") for pos, x in enumerate(removed)})
            for removed in removals]
    if not all(1 <= len(rem) <= g.n - 1 for rem in rems):
        raise GraphError("must remove between 1 and n-1 vertices")
    ln_g = exact_ln(g) if ln is None else ln
    lows = lower_bounds_full_all(g)
    out = []
    for rem in rems:
        sub = induced_subgraph(g, [i for i in range(g.n) if i not in rem])
        ln_sub = exact_ln(sub)
        items = [("top-index interlacing", ln_sub.lower <= ln_g.upper + EXACT_TOL,
                  {"L_n(subgraph)": ln_sub.lower, "L_n(graph)": ln_g.upper,
                   "exact": ln_g.exact and ln_sub.exact})]
        ups = _subset_uppers(sub, range(1, sub.n + 1), budget, 0)
        for k, (up, _) in enumerate(ups, start=1):
            lo = float(lows[k - 1])
            items.append((f"bracket consistency k={k}", lo <= up + EXACT_TOL,
                          {"lower_k(graph)": lo, "upper_k(subgraph)": up}))
        out.append(InterlacingReport(removed=tuple(rem), items=tuple(items)))
    return out


def limit_scan(g: SignedGraph, p_grid: Sequence[float],
               cfg: Optional[SolverConfig] = None) -> LimitScanResult:
    """Track |f_p|^(p/2) of the top eigenfunction along a p-grid against the
    Perron vector of the negated normalized adjacency.

    Requires a connected graph with an edge that is switching equivalent to
    all-negative (switched internally); the potential is zeroed, which
    changes no limit.  A single vertex is connected and antibalanced, but
    its edgeless solve is not Perron-certified.
    Distances are l2(mu) after unit normalization and sign alignment.
    """
    g = with_zero_kappa(g)
    tau = connected_antibalancing_tau(g)
    if tau is None:
        raise GraphError("limit scan needs a connected antibalanced graph")
    if not g.m:
        raise GraphError("limit scan needs an edge")
    gneg = switch(g, tau)
    mu = gneg.mu_array()
    dec = normalized_spectrum(gneg, negate=True)   # nonnegative matrix
    perron = np.abs(dec.vectors[:, -1])
    perron = perron / np.sqrt(np.sum(mu * perron ** 2))
    ps, dists, lams, funcs = [], [], [], []
    for p, pair in zip(p_grid, solve_largest_grid(gneg, p_grid, cfg)):
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

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
from itertools import combinations, islice
from math import comb
from typing import Optional, Sequence

import numpy as np

from .graph import (GraphError, SignedGraph, _vertex, connected_antibalancing_tau,
                    induced_subgraph, switch, with_zero_kappa)
from .linalg import _scaled, normalized_adjacency, normalized_spectrum
from .solver import SolverConfig, solve_largest_grid

EXACT_TOL = 1e-9
DEFAULT_SIGN_CAP = 24
DEFAULT_BUDGET = 2048       # pool and subset budget of the single-index forms
_BATCH_BYTES = 1 << 17      # bytes of float64 matrices per stacked eigensolve,
                            # in the sign/subgraph scans and the subset scans


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


def _first_max(g: SignedGraph, batches, cols: Sequence[int],
               **flags) -> tuple[np.ndarray, np.ndarray]:
    """(values, positions) of the first maximum of each eigenvalue column in
    cols of normalized_adjacency(g, mask, **flags) over the rows of the mask
    batches; one stacked eigensolve per batch serves every column."""
    best_val, best_pos, pos = np.full(len(cols), -np.inf), np.zeros(len(cols), int), 0
    for masks in batches:
        vals = np.linalg.eigvalsh(normalized_adjacency(g, masks, **flags))[:, cols]
        i = np.argmax(vals, axis=0)
        top = vals[i, np.arange(len(cols))]
        better = top > best_val
        best_val[better], best_pos[better] = top[better], pos + i[better]
        pos += len(masks)
    return best_val, best_pos


def _top_values(g: SignedGraph, masks: np.ndarray) -> np.ndarray:
    """Top eigenvalue of normalized_adjacency(g, mask, absolute=True) for each
    row of masks, in one stacked eigensolve."""
    return np.linalg.eigvalsh(normalized_adjacency(g, masks, absolute=True))[:, -1]


def _code_values(g: SignedGraph, codes: np.ndarray) -> np.ndarray:
    """The float the scan computes for each sign code, one stacked eigensolve
    per batch of codes."""
    step = _batch_size(g.n)
    return np.concatenate([_top_values(g, _active_edges(g, _code_signs(g.n, codes[lo:lo + step])))
                           for lo in range(0, len(codes), step)])


def _flip_ascent(g: SignedGraph) -> float:
    """The value of a good sign code: the bottom eigenvector of the signed
    matrix rounded to signs, then best single flips until none gains, with
    all n - 1 flips of a step in one stack (the current code wins ties)."""
    n = g.n
    vec = np.linalg.eigh(normalized_adjacency(g))[1][:, 0]
    neg = (vec < 0) != (vec[0] < 0)
    code = int(np.sum(neg[1:].astype(np.int64) << np.arange(n - 1)))
    flips = np.int64(1) << np.arange(n - 1)
    while True:
        codes = np.concatenate(([code], code ^ flips))
        vals = _code_values(g, codes)
        i = int(np.argmax(vals))
        if i == 0:
            return float(vals[0])
        code = int(codes[i])


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
    gives the incumbent, which each leaf batch may raise, and a node whose
    bound is below incumbent - slack is pruned.  Leaves get the scan's
    matrix and eigensolve, so the scan's float; the largest float, then the
    smallest code, wins.

    The slack.  LAPACK's symmetric eigensolvers return each eigenvalue of B
    within p(n) u ||B||_2 of the exact one (backward stability and Weyl;
    the LAPACK Users' Guide, section 4.7, calls p(n) a modestly growing
    function of n; here p(n) = n^2, u = eps / 2), and ||B||_2 is at most the
    largest row sum r of the full |A|.  A leaf's float therefore exceeds its
    node's float by at most n^2 eps r, and slack = 4 n^2 eps r covers that
    with room for the rounding of the cheap bound below (under (n + 1) eps
    r).  A pruned node holds no leaf whose float could reach the
    incumbent's, so the incumbent's own leaf is always solved; a larger
    slack would keep more nodes and change nothing.

    Two cheap bounds save eigensolves.  B is nonnegative and symmetric, so
    lambda_max(B)^2 = rho(B^2) <= max_i (B r_B)_i with r_B its row sums: a
    node or leaf whose root of that is below incumbent - slack is dropped
    unsolved.  The Rayleigh quotient x'Bx / x'x (x the |A| Perron vector
    plus a floor) is at most lambda_max(B): a node whose quotient clears
    incumbent - slack is kept unsolved.  Neither can drop a leaf whose float
    could reach the incumbent's.
    """
    n, a, step = g.n, g._arrays, _batch_size(g.n)
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
                leaves, vals = [nodes], [_code_values(g, nodes)]
                break
            absadj, leaves, vals = normalized_adjacency(g, absolute=True), [], []
            slack = 4.0 * n * n * np.finfo(float).eps * absadj.sum(axis=1).max()
            threshold = _flip_ascent(g) - slack
            x = np.abs(np.linalg.eigh(absadj)[1][:, -1])
            x += 0.1 * x.max()
            quad = 2.0 * x[a.u] * x[a.v] / (x @ x)
            at_u = (a.u[:, None] == np.arange(n)) * 1.0     # edge-to-endpoint scatters
            at_v = (a.v[:, None] == np.arange(n)) * 1.0
        for lo in range(0, len(nodes), step):
            chunk = nodes[lo:lo + step]
            masks = _active_edges(g, _code_signs(n, chunk)) | (fixed_at > depth)
            ws = masks * a.scale
            rows = ws @ at_u + ws @ at_v
            walks = (ws * rows[:, a.v]) @ at_u + (ws * rows[:, a.u]) @ at_v
            solve = ~(np.sqrt(walks.max(axis=1)) < threshold)
            if depth == n - 1:
                leaves.append(chunk[solve])
                vals.append(_top_values(g, masks[solve]))
                threshold = max(threshold, vals[-1].max(initial=-np.inf) - slack)
                continue
            sure = ws @ quad >= threshold
            solve &= ~sure
            sure[solve] = ~(_top_values(g, masks[solve]) < threshold)
            if sure.any():
                stack.append((depth, chunk[sure]))
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
    and sign vector a scan of every code would.  On 2 vCPUs it takes 10-60
    ms on random signed graphs with n = 14-16 (0.7 s for the scan at n = 16),
    0.1-0.3 s at n = 18-20 and seconds at n = 22-24.  Complete graphs are its
    worst case, since every balanced bipartition ties: 0.08 s for K14, 0.5 s
    for K16.  Above the cap the enumeration degrades to seeded sampling with
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
    upper = 0.5 * float(np.linalg.eigvalsh(normalized_adjacency(g, absolute=True))[-1])
    return CutoffBracket(k=g.n, lower=0.5 * val, upper=upper,
                         lower_certificate=("sign-vector-sampled", signs),
                         upper_certificate=("vertex-subset", tuple(range(g.n))),
                         exact=False)


def _check_k(g: SignedGraph, k: int) -> None:
    if not (1 <= k <= g.n):
        raise ValueError(f"k must be in [1, {g.n}], got {k}")


def lower_bound_full(g: SignedGraph, k: int) -> float:
    """max(0, lambda_k(A^mu of the negated graph) / 2)."""
    _check_k(g, k)
    return float(lower_bounds_full_all(g)[k - 1])


def lower_bounds_full_all(g: SignedGraph) -> np.ndarray:
    """The full-graph lower-bound vector for k = 1..n (one eigensolve)."""
    return _signed_lowers(g, g._arrays.sigma)


def _signed_lowers(g: SignedGraph, sigma: np.ndarray) -> np.ndarray:
    """lower_bounds_full_all of g with the signature sigma (in edge order),
    or one row of bounds per row of an (S, m) stack of signatures, from one
    stacked eigh (eigvalsh rounds differently)."""
    return np.maximum(0.0, 0.5 * np.linalg.eigh(_scaled(g, -sigma * g._arrays.w))[0])


def lower_bound_subgraphs(g: SignedGraph, k: int) -> tuple[float, tuple]:
    """Best lower bound L_k >= lambda_k(A^mu of a negated spanning subgraph)/2
    over a candidate pool; valid whatever the pool, exhaustive within budget.

    The pool: all edges, none, the maximal antibalanced subgraphs (one per
    sign code) and every other edge subset, the last two while they fit the
    budget (DEFAULT_BUDGET).  The first member of the pool wins ties."""
    _check_k(g, k)
    return _subgraph_lowers(g, [k], DEFAULT_BUDGET)[0]


def _subgraph_lowers(g: SignedGraph, ks: Sequence[int],
                     budget: int) -> list[tuple[float, tuple]]:
    """lower_bound_subgraphs for every k in ks from one scan of the pool."""
    if not g.m:
        return [(0.0, ("spanning-subgraph", ()))] * len(ks)
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
    masks, step = masks[_first_rows(masks)], _batch_size(g.n)
    vals, best = _first_max(g, (masks[lo:lo + step] for lo in range(0, len(masks), step)),
                            [k - 1 for k in ks], negate=True)
    return [(0.5 * float(val), ("spanning-subgraph",
                                tuple((g.edges[i].u, g.edges[i].v)
                                      for i in np.flatnonzero(masks[pos]))))
            for val, pos in zip(vals, best)]


def _first_rows(masks: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrence of each distinct row of
    the boolean matrix masks: np.sort(np.unique(masks, axis=0,
    return_index=True)[1]), from one sort of the rows packed to bytes."""
    packed = np.ascontiguousarray(np.packbits(masks, axis=1))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    return np.sort(np.unique(keys, return_index=True)[1])


def _subset_values(absadj: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Half the top eigenvalue of the mu-normalized |A| (absadj) restricted
    to each row of subsets (ascending vertices, one size); exactly 0.0 where
    the restriction has no nonzero entry.  One stacked eigensolve per batch
    of at most _BATCH_BYTES of matrices (or one matrix if that is larger)."""
    out, step = [], _batch_size(subsets.shape[1])
    for lo in range(0, len(subsets), step):
        idx = subsets[lo:lo + step]
        sub = absadj[idx[:, :, None], idx[:, None, :]]
        vals = 0.5 * np.linalg.eigvalsh(sub)[:, -1]
        vals[~sub.any(axis=(1, 2))] = 0.0
        out.append(vals)
    return np.concatenate(out)


def upper_bound_subsets(g: SignedGraph, k: int) -> tuple[float, tuple]:
    """min over k-vertex subsets S of half the top eigenvalue of the
    normalized |A| restricted to S; exactly 0 on independent subsets.

    Exhaustive when C(n,k) fits DEFAULT_BUDGET, else greedy plus random
    subsets of seed 0.  An independent set of size >= k short-circuits to
    0.  The first subset in combinations order wins ties, and the
    exhaustive scan stops after the first batch that holds a 0.
    """
    from .combinatorics import max_independent_set
    _check_k(g, k)
    return _subset_uppers(g, [k], DEFAULT_BUDGET, 0, max_independent_set(g))[0]


def _subset_uppers(g: SignedGraph, ks: Sequence[int], budget: int, seed: int,
                   mis) -> list[tuple[float, tuple]]:
    """upper_bound_subsets for every k in ks, given g's maximum independent
    set mis."""
    absadj = normalized_adjacency(g, absolute=True)
    out = []
    for k in ks:
        if mis.size >= k:
            out.append((0.0, ("vertex-subset", tuple(sorted(mis.vertices)[:k]))))
            continue
        if comb(g.n, k) <= budget:
            subsets = combinations(range(g.n), k)
            chunks = iter(lambda: list(islice(subsets, _batch_size(k))), [])
        else:
            cur: list[int] = []
            while len(cur) < k:     # add the first vertex of least value
                free = [x for x in range(g.n) if x not in cur]
                vals = _subset_values(absadj, np.array([sorted(cur + [x]) for x in free]))
                cur.append(free[int(np.argmin(vals))])
            rng = np.random.default_rng(seed)
            chunks = [[tuple(sorted(cur))] + [
                tuple(int(x) for x in np.sort(rng.choice(g.n, k, replace=False)))
                for _ in range(min(budget, 256))]]
        best = (np.inf, ())
        for chunk in chunks:
            vals = _subset_values(absadj, np.array(chunk))
            i = int(np.argmin(vals))
            if vals[i] < best[0]:
                best = (float(vals[i]), chunk[i])
            if best[0] == 0.0:
                break
        out.append((best[0], ("vertex-subset", best[1])))
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
    The first bound in that order wins ties on each side.  One pool scan,
    one maximum independent set and at most one exact_ln serve every k.
    An inverted bracket (lower > upper beyond tolerance) is an implementation
    bug by construction and raises immediately, and so does a NaN side.
    """
    from .combinatorics import max_independent_set
    for k in ks:
        _check_k(g, k)
    full = lower_bounds_full_all(g)
    subgraphs = _subgraph_lowers(g, ks, budget)
    subsets = _subset_uppers(g, ks, budget, seed, max_independent_set(g))
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
    from .combinatorics import max_independent_set
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
        ups = _subset_uppers(sub, range(1, sub.n + 1), budget, 0, max_independent_set(sub))
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

    Requires a connected graph that is switching equivalent to all-negative
    (switched internally); the potential is zeroed, which changes no limit.
    Distances are l2(mu) after unit normalization and sign alignment.
    """
    g = with_zero_kappa(g)
    tau = connected_antibalancing_tau(g)
    if tau is None:
        raise GraphError("limit scan needs a connected antibalanced graph")
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

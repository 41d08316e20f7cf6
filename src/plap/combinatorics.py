"""Exact independent sets, matchings, edge covers, and inertia-style bounds.

Searches are exact branch-and-bound / DFS with bitmask vertex sets, sized
for desk-scale graphs (n <= 32); witnesses are re-verified structurally
before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import cutoff
from .graph import GraphError, SignedGraph, to_json_dict
from .linalg import _eigvals, adjacency, sign_counts

MIS_CAP = 32
ZERO_TOL = 1e-12
CVETKOVIC_TOL = 1e-9        # |eigenvalue| <= this counts as zero
RANDOM_SIGNATURES = 8       # in default_signature_pool, after all + and all -


@dataclass(frozen=True)
class IndependentSet:
    size: int
    vertices: tuple[int, ...]
    exact: bool


@dataclass(frozen=True)
class Matching:
    size: int
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class EdgeCover:
    size: int
    edges: tuple[tuple[int, int], ...]


def _adj_masks(g: SignedGraph) -> list[int]:
    adj = [0] * g.n
    for e in g.edges:
        adj[e.u] |= 1 << e.v
        adj[e.v] |= 1 << e.u
    return adj


def _greedy_independent(g: SignedGraph, adj: list[int]) -> int:
    taken = 0
    alive = (1 << g.n) - 1
    while alive:
        best, best_deg = -1, g.n + 1
        m = alive
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (adj[v] & alive).bit_count()
            if deg < best_deg:
                best, best_deg = v, deg
        taken |= 1 << best
        alive &= ~(adj[best] | (1 << best))
    return taken


def _verify_independent(g: SignedGraph, vertices: Sequence[int]) -> None:
    s = set(vertices)
    for e in g.edges:
        if e.u in s and e.v in s:
            raise AssertionError(f"witness spans edge ({e.u},{e.v})")


def max_independent_set(g: SignedGraph) -> IndependentSet:
    """Exact maximum independent set by branch and bound (n <= MIS_CAP);
    beyond the cap, a greedy lower bound flagged exact=False."""
    adj = _adj_masks(g)
    greedy = _greedy_independent(g, adj)
    if g.n > MIS_CAP:
        verts = tuple(i for i in range(g.n) if (greedy >> i) & 1)
        _verify_independent(g, verts)
        return IndependentSet(size=len(verts), vertices=verts, exact=False)

    best_mask = greedy
    best_size = greedy.bit_count()

    def rec(cand: int, cur_mask: int, cur_size: int) -> None:
        nonlocal best_mask, best_size
        if cur_size + cand.bit_count() <= best_size:
            return
        if cand == 0:
            best_mask, best_size = cur_mask, cur_size
            return
        # pivot on the candidate of highest remaining degree
        pivot, pivot_deg = -1, -1
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (adj[v] & cand).bit_count()
            if deg > pivot_deg:
                pivot, pivot_deg = v, deg
        rec(cand & ~(adj[pivot] | (1 << pivot)), cur_mask | (1 << pivot),
            cur_size + 1)
        rec(cand & ~(1 << pivot), cur_mask, cur_size)

    rec((1 << g.n) - 1, 0, 0)
    verts = tuple(i for i in range(g.n) if (best_mask >> i) & 1)
    _verify_independent(g, verts)
    return IndependentSet(size=best_size, vertices=verts, exact=True)


def max_matching(g: SignedGraph) -> Matching:
    """Exact maximum matching by DFS over the lowest free vertex, pruned by
    the best-so-far bound (greedy matching as the incumbent); n <= MIS_CAP."""
    if g.n > MIS_CAP:
        raise GraphError(f"exact matching capped at n <= {MIS_CAP}, got n = {g.n}")
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for e in g.edges:
        nbrs[e.u].append(e.v)
        nbrs[e.v].append(e.u)
    for lst in nbrs:
        lst.sort()

    greedy: list[tuple[int, int]] = []
    used = 0
    for e in g.edges:
        if not ((used >> e.u) & 1) and not ((used >> e.v) & 1):
            greedy.append((e.u, e.v))
            used |= (1 << e.u) | (1 << e.v)
    best_size = len(greedy)
    best_edges = tuple(greedy)

    chosen: list[tuple[int, int]] = []

    def rec(free: int, cur: int) -> None:
        nonlocal best_size, best_edges
        if cur + free.bit_count() // 2 <= best_size:
            return
        if free == 0:
            best_size, best_edges = cur, tuple(chosen)
            return
        v = (free & -free).bit_length() - 1
        rest = free & ~(1 << v)
        for u in nbrs[v]:
            if (rest >> u) & 1:
                chosen.append((v, u) if v < u else (u, v))
                rec(rest & ~(1 << u), cur + 1)
                chosen.pop()
        rec(rest, cur)

    rec((1 << g.n) - 1, 0)
    covered = set()
    for u, v in best_edges:
        if u in covered or v in covered:
            raise AssertionError("matching witness shares a vertex")
        covered.update((u, v))
    return Matching(size=best_size, edges=tuple(sorted(best_edges)))


def min_edge_cover(g: SignedGraph) -> EdgeCover:
    """Minimum edge cover: a maximum matching extended with one edge per
    unmatched vertex (size n - matching size, by Gallai)."""
    isolated = g.isolated_vertices()
    if isolated:
        raise GraphError(f"no edge cover exists: isolated vertices {isolated}")
    return _extend_to_cover(g, max_matching(g))


def _extend_to_cover(g: SignedGraph, matching: Matching) -> EdgeCover:
    """A maximum matching of g extended to a minimum edge cover."""
    cover = set(matching.edges)
    covered = {x for uv in matching.edges for x in uv}
    incident: dict[int, tuple[int, int]] = {}
    for e in g.edges:
        incident.setdefault(e.u, (e.u, e.v))
        incident.setdefault(e.v, (e.u, e.v))
    for v in range(g.n):
        if v not in covered:
            cover.add(incident[v])
    covered_all = {x for uv in cover for x in uv}
    if covered_all != set(range(g.n)):
        raise AssertionError("edge cover witness misses a vertex")
    if len(cover) != g.n - matching.size:
        raise AssertionError("cover size disagrees with the matching identity")
    return EdgeCover(size=len(cover), edges=tuple(sorted(cover)))


def cvetkovic_bound(g: SignedGraph, m: np.ndarray) -> int:
    """min(n - n_plus, n - n_minus) for a finite symmetric matrix supported
    on the edge set (zero diagonal); an upper bound for the independence
    number."""
    m = np.asarray(m, dtype=float)
    if m.shape != (g.n, g.n):
        raise ValueError(f"matrix must be {g.n}x{g.n}")
    # row-major over the upper triangle: the first offending entry is named
    bad = np.argwhere(np.triu(~np.isfinite(m)))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"entry ({i},{j}) is not finite: {m[i, j]}")
    if not np.max(np.abs(m - m.T)) <= 1e-12:     # a non-finite lower entry fails too
        raise ValueError("matrix must be symmetric")
    bad = np.argwhere(np.triu((m != 0.0) & (adjacency(g) == 0.0)))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"diagonal entry ({i},{i}) must be zero" if i == j
                         else f"entry ({i},{j}) is outside the edge support")
    vals = _eigvals(m[None], g.n)[0]
    n_plus, n_minus, _ = sign_counts(vals, CVETKOVIC_TOL)
    return min(g.n - n_plus, g.n - n_minus)


def default_signature_pool(g: SignedGraph, seed: int = 0) -> list[tuple[int, ...]]:
    pool = [tuple(1 for _ in range(g.m)), tuple(-1 for _ in range(g.m))]
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_SIGNATURES):
        pool.append(tuple(int(x) for x in np.where(rng.random(g.m) < 0.5, 1, -1)))
    return pool


@dataclass(frozen=True)
class InertiaReport:
    alpha: int
    alpha_exact: bool
    alpha_witness: tuple[int, ...]
    beta: Optional[int]
    matching_size: Optional[int]
    pool: tuple[tuple[int, ...], ...]
    zero_count_proxies: tuple[int, ...]
    cvetkovic_value: int
    exact_ln_value: float
    exact_ln_is_exact: bool
    checks: tuple[tuple[str, bool, dict], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def inertia_report(g: SignedGraph, seed: int = 0) -> InertiaReport:
    """Run every independence/cover inequality on one graph.

    For each signature of default_signature_pool, the zero count of the
    full-graph lower bounds upper-bounds the number of zero cutoff
    eigenvalues, so the independence number must not exceed it.  The whole
    pool is scored in one stacked eigh of the normalized adjacencies with
    entries -sigma_s w, one matrix per signature s, on g's own view: the
    bounds are bit for bit those of each re-signed graph on its own.  Above
    MIS_CAP there is no exact matching: beta and matching_size are None.
    Failures carry the witness graph in their details; nothing raises.
    """
    mis = cutoff._mis(g)
    alpha = mis.size
    checks: list[tuple[str, bool, dict]] = []

    def record(name: str, passed: bool, details: dict) -> None:
        if not passed:
            details = dict(details, witness=to_json_dict(g))
        checks.append((name, bool(passed), details))

    isolated = g.isolated_vertices()
    matching = max_matching(g) if g.n <= MIS_CAP else None
    if isolated or g.m == 0 or matching is None:
        beta = None
    else:
        beta = _extend_to_cover(g, matching).size
        record("beta equals n minus the maximum matching size",
               beta == g.n - matching.size,
               {"beta": beta, "n": g.n, "matching": matching.size})

    sig_pool = default_signature_pool(g, seed)
    lows = cutoff._signed_lowers(g, np.array(sig_pool, dtype=float))
    proxies = np.sum(lows <= ZERO_TOL, axis=1).tolist()
    for sigma, proxy in zip(sig_pool, proxies):
        record("alpha <= #{k : lower_k = 0} for every signature",
               alpha <= proxy, {"sigma": sigma, "alpha": alpha, "proxy": proxy})

    uppers = cutoff._subset_uppers(g, range(1, alpha + 1), cutoff.DEFAULT_BUDGET, seed)
    for k, (up, cert) in enumerate(uppers, start=1):
        record("upper bound vanishes for k up to the independence number",
               up == 0.0, {"k": k, "upper": up, "certificate": cert})

    ln = cutoff.exact_ln(g)
    record("top cutoff eigenvalue positive iff an edge exists",
           ln.lower > 0 if g.m else ln.lower == 0,   # a NaN fails either test
           {"L_n": ln.lower, "edges": g.m, "exact": ln.exact})
    if not isolated and g.m:
        w_min = min(e.w for e in g.edges)
        mu_max = max(g.mu)
        record("top cutoff eigenvalue >= w_min / (2 mu_max) without isolated vertices",
               ln.lower >= 0.5 * w_min / mu_max - ZERO_TOL,
               {"L_n": ln.lower, "bound": 0.5 * w_min / mu_max})

    cvet = cvetkovic_bound(g, adjacency(g))
    record("alpha <= inertia bound of the adjacency matrix",
           alpha <= cvet, {"alpha": alpha, "cvetkovic": cvet})

    return InertiaReport(alpha=alpha, alpha_exact=mis.exact,
                         alpha_witness=mis.vertices, beta=beta,
                         matching_size=None if matching is None else matching.size,
                         pool=tuple(sig_pool),
                         zero_count_proxies=tuple(proxies),
                         cvetkovic_value=cvet,
                         exact_ln_value=ln.lower,
                         exact_ln_is_exact=ln.exact,
                         checks=tuple(checks))

"""Immutable signed-graph data model.

A signed graph carries, besides the usual vertex/edge structure, an edge
signature sigma in {+1,-1}, positive edge weights w, a positive vertex
measure mu and a real vertex potential kappa.  All operations here are pure;
instances are safe to share across threads.

Kernels read a graph through one read-only array view (GraphArrays), built
on first use (never by validate) and kept on the instance, outside equality,
hashing and pickling; switch and negate hand their result the view of their
input with sigma replaced.  The balance classification is kept the same
way.  A concurrent first use may build either twice; harmless.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np


class GraphError(ValueError):
    """A graph description violates a structural invariant."""


class Edge(NamedTuple):
    u: int
    v: int
    w: float
    sigma: int


class GraphArrays(NamedTuple):
    """Read-only flat arrays of one graph, in edge order: deg is the weighted
    degree, rt = 1/sqrt(mu), and scale = w * rt[u] * rt[v] the edge's entry
    in the mu-normalized unsigned adjacency."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    sigma: np.ndarray
    mu: np.ndarray
    kappa: np.ndarray
    deg: np.ndarray
    rt: np.ndarray
    scale: np.ndarray


# derived values kept on a SignedGraph instance, outside pickling
_CACHES = ("_arrays", "_balance")


@dataclass(frozen=True)
class SignedGraph:
    """Signed graph with measure and potential.

    Edges are stored with u < v, sorted lexicographically, so iteration order
    (and everything derived from it) is deterministic.
    """

    n: int
    edges: tuple[Edge, ...]
    mu: tuple[float, ...]
    kappa: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _arrays(self) -> GraphArrays:
        cols = tuple(zip(*self.edges)) if self.edges else ((), (), (), ())
        u, v = np.asarray(cols[0], dtype=int), np.asarray(cols[1], dtype=int)
        w = np.asarray(cols[2], dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        rt = 1.0 / np.sqrt(mu)
        # interleaved (u0, v0, u1, v1, ...): an edge-by-edge loop's sum order
        deg = np.bincount(np.column_stack((u, v)).ravel(), np.repeat(w, 2), minlength=self.n)
        view = GraphArrays(u, v, w, np.asarray(cols[3], dtype=float), mu,
                           np.asarray(self.kappa, dtype=float), deg, rt, w * rt[u] * rt[v])
        for arr in view:
            arr.setflags(write=False)
        return view

    @cached_property
    def _balance(self) -> "BalanceClass":
        return _classify(self)

    def __getstate__(self) -> dict:
        return {k: val for k, val in self.__dict__.items() if k not in _CACHES}

    def mu_array(self) -> np.ndarray:
        return self._arrays.mu

    def kappa_array(self) -> np.ndarray:
        return self._arrays.kappa

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, w, sigma) as read-only flat arrays; empty for edgeless graphs."""
        a = self._arrays
        return a.u, a.v, a.w, a.sigma

    def weighted_degrees(self) -> np.ndarray:
        return self._arrays.deg

    def isolated_vertices(self) -> list[int]:
        return np.flatnonzero(self._arrays.deg == 0).tolist()


def validate(n: int,
             edges: Iterable[Sequence],
             mu: Optional[Sequence[float]] = None,
             kappa: Optional[Sequence[float]] = None) -> SignedGraph:
    """Build a SignedGraph from a raw description, checking every invariant.

    Each raw edge is (u, v), (u, v, w) or (u, v, w, sigma); omitted weights
    default to 1, omitted signs to +1.  mu defaults to all ones, kappa to all
    zeros.  Endpoints and signs must be integral, weights, measures and
    potentials finite.  Violations raise GraphError naming the offending edge
    or vertex.
    """
    if not isinstance(n, int) or n < 1:
        raise GraphError(f"vertex count must be a positive integer, got {n!r}")
    canon = []
    seen: set[tuple[int, int]] = set()
    for pos, raw in enumerate(edges):
        item = tuple(raw)
        if len(item) < 2 or len(item) > 4:
            raise GraphError(f"edge #{pos}: expected (u, v[, w[, sigma]]), got {raw!r}")
        try:
            u, v, sigma = int(item[0]), int(item[1]), int(item[3]) if len(item) == 4 else 1
        except (TypeError, ValueError, OverflowError):
            u = v = sigma = None
        if (u, v) != item[:2] or (len(item) == 4 and sigma != item[3]):
            raise GraphError(f"edge #{pos}: u, v and sigma must be integers, got {raw!r}")
        w = float(item[2]) if len(item) >= 3 else 1.0
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge #{pos} ({u},{v}): vertex index out of range [0,{n})")
        if u == v:
            raise GraphError(f"edge #{pos}: self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise GraphError(f"edge #{pos}: duplicate edge ({u},{v})")
        if not (0 < w < math.inf):
            raise GraphError(f"edge #{pos} ({u},{v}): weight must be positive and finite, got {w}")
        if sigma not in (1, -1):
            raise GraphError(f"edge #{pos} ({u},{v}): sigma must be +1 or -1, got {sigma}")
        seen.add((u, v))
        canon.append(Edge(u, v, w, sigma))
    canon.sort(key=lambda e: (e.u, e.v))

    mu_t = tuple(float(x) for x in mu) if mu is not None else (1.0,) * n
    kappa_t = tuple(float(x) for x in kappa) if kappa is not None else (0.0,) * n
    if len(mu_t) != n:
        raise GraphError(f"mu has length {len(mu_t)}, expected {n}")
    if len(kappa_t) != n:
        raise GraphError(f"kappa has length {len(kappa_t)}, expected {n}")
    for i, (m, k) in enumerate(zip(mu_t, kappa_t)):
        if not (0 < m < math.inf):
            raise GraphError(f"vertex {i}: measure must be positive and finite, got {m}")
        if not math.isfinite(k):
            raise GraphError(f"vertex {i}: potential must be finite, got {k}")
    return SignedGraph(n=n, edges=tuple(canon), mu=mu_t, kappa=kappa_t)


def _check_tau(g: SignedGraph, tau: Sequence[int]) -> np.ndarray:
    t = np.asarray(tau, dtype=int)
    if t.shape != (g.n,):
        raise GraphError(f"switching function has length {t.size}, expected {g.n}")
    if not np.all(np.abs(t) == 1):
        raise GraphError("switching function entries must be +1 or -1")
    return t


def _resigned(g: SignedGraph, sigma: np.ndarray) -> SignedGraph:
    """g with the float signature sigma (in edge order).  deg, rt and scale
    do not depend on signs, so the new graph gets g's view with sigma
    replaced instead of one rebuilt from its edge tuples."""
    a = g._arrays
    sigma.setflags(write=False)
    edges = tuple(map(Edge, a.u.tolist(), a.v.tolist(), a.w.tolist(), sigma.astype(int).tolist()))
    out = SignedGraph(g.n, edges, g.mu, g.kappa)
    out.__dict__["_arrays"] = a._replace(sigma=sigma)
    return out


def switch(g: SignedGraph, tau: Sequence[int]) -> SignedGraph:
    """Switch the signature: sigma_uv -> tau(u)*sigma_uv*tau(v)."""
    t = _check_tau(g, tau)
    a = g._arrays
    return _resigned(g, t[a.u] * a.sigma * t[a.v])


def negate(g: SignedGraph) -> SignedGraph:
    """Flip every edge sign; the adjacency matrix of the result is -A."""
    return _resigned(g, -g._arrays.sigma)


def with_zero_kappa(g: SignedGraph) -> SignedGraph:
    """g with kappa zeroed; g itself, array view included, if it already is."""
    if not any(g.kappa):
        return g
    return SignedGraph(g.n, g.edges, g.mu, (0.0,) * g.n)


def induced_subgraph(g: SignedGraph, keep: Iterable[int]) -> SignedGraph:
    """Restrict to a vertex subset, reindexing vertices in ascending order."""
    kept = sorted(set(int(i) for i in keep))
    if not kept:
        raise GraphError("induced subgraph needs a nonempty vertex subset")
    for i in kept:
        if not (0 <= i < g.n):
            raise GraphError(f"vertex index {i} out of range [0,{g.n})")
    index = {old: new for new, old in enumerate(kept)}
    edges = tuple(Edge(index[e.u], index[e.v], e.w, e.sigma)
                  for e in g.edges if e.u in index and e.v in index)
    mu = tuple(g.mu[i] for i in kept)
    kappa = tuple(g.kappa[i] for i in kept)
    return SignedGraph(len(kept), edges, mu, kappa)


def spanning_subgraph(g: SignedGraph, keep_edges: Iterable[tuple[int, int]]) -> SignedGraph:
    """Keep the full vertex set but only the listed edges (as (u,v) pairs)."""
    want = set()
    have = {(e.u, e.v) for e in g.edges}
    for u, v in keep_edges:
        u, v = int(u), int(v)
        if u > v:
            u, v = v, u
        if (u, v) not in have:
            raise GraphError(f"({u},{v}) is not an edge of the graph")
        want.add((u, v))
    edges = tuple(e for e in g.edges if (e.u, e.v) in want)
    return SignedGraph(g.n, edges, g.mu, g.kappa)


def _propagate(g: SignedGraph, target: int) -> tuple[list[int], list[int], bool]:
    """Depth-first tau(v) = target * sigma_uv * tau(u) from each unvisited
    vertex in ascending order: (tau, root = smallest vertex of each vertex's
    component, whether sigma^tau == target on every edge)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e in g.edges:
        adj[e.u].append((e.v, target * e.sigma))
        adj[e.v].append((e.u, target * e.sigma))
    tau, root, consistent = [0] * g.n, list(range(g.n)), True
    for r in range(g.n):
        if tau[r]:
            continue
        tau[r] = 1
        stack = [r]
        while stack:
            i = stack.pop()
            for j, s in adj[i]:
                if tau[j] == 0:
                    tau[j], root[j] = s * tau[i], r
                    stack.append(j)
                elif tau[j] != s * tau[i]:
                    consistent = False
    return tau, root, consistent


def components(g: SignedGraph) -> list[list[int]]:
    """Connected components by edge reachability, smallest vertex first."""
    out: dict[int, list[int]] = {}
    for i, r in enumerate(_propagate(g, 1)[1]):
        out.setdefault(r, []).append(i)
    return list(out.values())


def is_connected(g: SignedGraph) -> bool:
    return len(components(g)) == 1


@dataclass(frozen=True)
class BalanceClass:
    """Balance classification with switching witnesses.

    kind is one of "balanced", "antibalanced", "both", "neither".  A witness
    tau satisfies sigma^tau == +1 everywhere (balanced) resp. == -1 everywhere
    (antibalanced); re-switching with it certifies the claim.
    """

    kind: str
    balanced_witness: Optional[tuple[int, ...]]
    antibalanced_witness: Optional[tuple[int, ...]]


def _balancing_tau(g: SignedGraph, target: int) -> Optional[tuple[int, ...]]:
    """A tau with sigma^tau == target on every edge, or None."""
    tau, _, consistent = _propagate(g, target)
    return tuple(tau) if consistent else None


def connected_antibalancing_tau(g: SignedGraph) -> Optional[tuple[int, ...]]:
    """classify_balance(g).antibalanced_witness when g is connected, else
    None; one sign propagation decides both."""
    tau, root, consistent = _propagate(g, -1)
    return tuple(tau) if consistent and not any(root) else None


def classify_balance(g: SignedGraph) -> BalanceClass:
    """Decide balance and antibalance, with switching witnesses.

    Balanced means some tau switches every sign to +1; antibalanced means the
    negated graph is balanced.  Decided in O(n+m) by two depth-first sign
    propagations, once per graph: the answer is kept on the instance.
    """
    return g._balance


def _classify(g: SignedGraph) -> BalanceClass:
    bal = _balancing_tau(g, 1)
    anti = _balancing_tau(g, -1)
    if bal is not None and anti is not None:
        kind = "both"
    elif bal is not None:
        kind = "balanced"
    elif anti is not None:
        kind = "antibalanced"
    else:
        kind = "neither"
    return BalanceClass(kind=kind, balanced_witness=bal, antibalanced_witness=anti)


def structural_constants(g: SignedGraph) -> tuple[float, float]:
    """(D, C) with D = max_i (2*kappa_i + sum_{j~i} w_ij) / (2*mu_i) and
    C = max_i |kappa_i / mu_i|."""
    a = g._arrays
    d = float(np.max((2.0 * a.kappa + a.deg) / (2.0 * a.mu)))
    c = float(np.max(np.abs(a.kappa / a.mu)))
    return d, c


# --- graph JSON (external contract) ---------------------------------------
#
# {"n": int,
#  "edges": [{"u": int, "v": int, "w": number (default 1),
#             "sigma": 1|-1 (default 1)}],
#  "mu": [number]*n (default all 1),
#  "kappa": [number]*n (default all 0)}

def from_json_dict(doc: dict) -> SignedGraph:
    if not isinstance(doc, dict) or "n" not in doc:
        raise GraphError('graph JSON must be an object with an "n" field')
    raw_edges = doc.get("edges", [])
    edges = []
    for pos, e in enumerate(raw_edges):
        if not isinstance(e, dict) or "u" not in e or "v" not in e:
            raise GraphError(f'edge #{pos}: expected an object with "u" and "v"')
        edges.append((e["u"], e["v"], e.get("w", 1), e.get("sigma", 1)))
    return validate(doc["n"], edges, mu=doc.get("mu"), kappa=doc.get("kappa"))


def loads(text: str) -> SignedGraph:
    return from_json_dict(json.loads(text))


def to_json_dict(g: SignedGraph) -> dict:
    return {
        "n": g.n,
        "edges": [{"u": e.u, "v": e.v, "w": e.w, "sigma": e.sigma} for e in g.edges],
        "mu": list(g.mu),
        "kappa": list(g.kappa),
    }


def dumps(g: SignedGraph, indent: Optional[int] = None) -> str:
    return json.dumps(to_json_dict(g), indent=indent, sort_keys=True)

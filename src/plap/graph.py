"""Immutable signed-graph data model.

A signed graph carries, besides the usual vertex/edge structure, an edge
signature sigma in {+1,-1}, positive edge weights w, a positive vertex
measure mu and a real vertex potential kappa.  All operations here are pure;
instances are safe to share across threads.

Kernels read a graph through one read-only array view (GraphArrays), built
on first use (never by validate) and kept on the instance, outside equality,
hashing and pickling; switch, negate and with_zero_kappa hand their result
the view of their input with sigma (kappa) replaced.  The one depth-first
sign search that balance, antibalance, connectivity and components are read
from is kept the same way, and so is the balance classification.  A
concurrent first use may build any of them twice; harmless.

A switched, negated or kappa-zeroed graph is made from that view alone: its
edge tuples are built from the view the first time something reads
g.edges, which equality, hashing, repr, pickling and JSON output do; the
Perron solver, which switches a graph once per solve, and the sign search
never do.
"""

from __future__ import annotations

import json
import math
import numbers
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
    in the mu-normalized unsigned adjacency.  ends = (0..n-1, u, v) is the
    bincount index of the operator kernels: one bin per vertex term, then
    each edge's u-end and v-end."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    sigma: np.ndarray
    mu: np.ndarray
    kappa: np.ndarray
    deg: np.ndarray
    rt: np.ndarray
    scale: np.ndarray
    ends: np.ndarray


# number types that skip the abstract-class test of _real, which costs more
# than the rest of validate's work on an edge
_PLAIN = frozenset((int, float))


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
        edges = self.__dict__.get("edges")
        return len(self._arrays.u if edges is None else edges)

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
                           np.asarray(self.kappa, dtype=float), deg, rt, w * rt[u] * rt[v],
                           np.concatenate((np.arange(self.n), u, v)))
        for arr in view:
            arr.setflags(write=False)
        return view

    @cached_property
    def _search(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _propagate(self)

    @cached_property
    def _balance(self) -> "BalanceClass":
        return _classify(self)

    def __getattr__(self, name: str):
        # only reached when the instance has no such attribute: the edge
        # tuples of a graph that _from_view built from a view
        if name != "edges" or "_arrays" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        a = self.__dict__["_arrays"]
        edges = tuple(map(Edge, a.u.tolist(), a.v.tolist(), a.w.tolist(),
                          a.sigma.astype(int).tolist()))
        self.__dict__["edges"] = edges
        return edges

    def __getstate__(self) -> dict:
        # the fields only: the view and the other derived values stay behind
        return {"n": self.n, "edges": self.edges, "mu": self.mu, "kappa": self.kappa}

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


def _real(x) -> bool:
    """A real number, numpy scalars included, but not a bool."""
    return type(x) in _PLAIN or isinstance(x, numbers.Real) and not isinstance(x, bool)


def validate(n: int,
             edges: Iterable[Sequence],
             mu: Optional[Sequence[float]] = None,
             kappa: Optional[Sequence[float]] = None) -> SignedGraph:
    """Build a SignedGraph from a raw description, checking every invariant.

    Each raw edge is (u, v), (u, v, w) or (u, v, w, sigma); omitted weights
    default to 1, omitted signs to +1.  mu defaults to all ones, kappa to all
    zeros.  Every field must be a number, not a bool; endpoints and signs
    must be integral, weights, measures and potentials finite.  Violations
    raise GraphError naming the offending edge or vertex, or mu or kappa.
    """
    if type(n) is not int or n < 1:
        raise GraphError(f"vertex count must be a positive integer, got {n!r}")
    canon = []
    seen: set[tuple[int, int]] = set()
    for pos, raw in enumerate(edges):
        item = tuple(raw) if hasattr(raw, "__iter__") else ()
        if len(item) < 2 or len(item) > 4:
            raise GraphError(f"edge #{pos}: expected (u, v[, w[, sigma]]), got {raw!r}")
        try:
            u, v, sigma = int(item[0]), int(item[1]), int(item[3]) if len(item) == 4 else 1
        except (TypeError, ValueError, OverflowError):
            u = v = sigma = None
        if (u, v) != item[:2] or (len(item) == 4 and sigma != item[3]):
            raise GraphError(f"edge #{pos}: u, v and sigma must be integers, got {raw!r}")
        if not _PLAIN.issuperset(map(type, item)) and not all(map(_real, item)):
            raise GraphError(f"edge #{pos}: u, v, w and sigma must be numbers, got {raw!r}")
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

    lists = []
    for name, values, default in (("mu", mu, 1.0), ("kappa", kappa, 0.0)):
        values = (default,) * n if values is None else values
        if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
            raise GraphError(f"{name} must be a list of numbers, got {values!r}")
        values = tuple(values)
        if len(values) != n:
            raise GraphError(f"{name} has length {len(values)}, expected {n}")
        lists.append(values)
    mu_t, kappa_t = lists
    for i, (m, k) in enumerate(zip(mu_t, kappa_t)):
        if not (_real(m) and 0 < m < math.inf):
            raise GraphError(f"vertex {i}: measure must be positive and finite, got {m!r}")
        if not (_real(k) and math.isfinite(k)):
            raise GraphError(f"vertex {i}: potential must be finite, got {k!r}")
    return SignedGraph(n=n, edges=tuple(canon), mu=tuple(map(float, mu_t)),
                       kappa=tuple(map(float, kappa_t)))


def _check_tau(g: SignedGraph, tau: Sequence[int]) -> np.ndarray:
    """tau as an int array, if it has n entries, each a number equal to +1
    or -1 (not a bool): validate's rule for sigma, so 1.0 passes and 1.5
    does not.  Nothing is silently truncated."""
    t = np.asarray(tau)
    if t.shape != (g.n,):
        raise GraphError(f"switching function has length {t.size}, expected {g.n}")
    # an int array, or a sequence of plain ints, needs only the value test;
    # anything else (a list holding True gives an int array too) is checked
    # entry by entry
    if not (isinstance(tau, np.ndarray) and t.dtype.kind in "iu"
            or {int}.issuperset(map(type, tau))):
        for pos, x in enumerate(tau):
            if not (_real(x) and x in (1, -1)):
                raise GraphError(f"switching function entry #{pos} must be +1 or -1, got {x!r}")
        return t.astype(int)
    bad = np.flatnonzero((t != 1) & (t != -1))
    if bad.size:
        raise GraphError(f"switching function entry #{bad[0]} must be +1 or -1, "
                         f"got {int(t[bad[0]])!r}")
    return t


def _from_view(g: SignedGraph, **fields: np.ndarray) -> SignedGraph:
    """g with the named arrays of its view replaced (the float signature
    sigma in edge order, or kappa), made from that view alone.  deg, rt,
    scale and ends depend on neither, so the new graph gets g's view with
    those arrays replaced, and no edge tuples: __getattr__ builds them from
    that view the first time g.edges is read.  Equality, hashing, repr,
    pickling and to_json_dict read them, so they see the same graph as one
    validated from the changed description."""
    for arr in fields.values():
        arr.setflags(write=False)
    kappa = tuple(fields["kappa"].tolist()) if "kappa" in fields else g.kappa
    out = object.__new__(SignedGraph)
    out.__dict__.update(n=g.n, mu=g.mu, kappa=kappa, _arrays=g._arrays._replace(**fields))
    return out


def switch(g: SignedGraph, tau: Sequence[int]) -> SignedGraph:
    """Switch the signature: sigma_uv -> tau(u)*sigma_uv*tau(v)."""
    t = _check_tau(g, tau)
    a = g._arrays
    return _from_view(g, sigma=t[a.u] * a.sigma * t[a.v])


def negate(g: SignedGraph) -> SignedGraph:
    """Flip every edge sign; the adjacency matrix of the result is -A."""
    return _from_view(g, sigma=-g._arrays.sigma)


def with_zero_kappa(g: SignedGraph) -> SignedGraph:
    """g with kappa zeroed; g itself, array view included, if it already is."""
    if not any(g.kappa):
        return g
    return _from_view(g, kappa=np.zeros(g.n))


def _vertex(g: SignedGraph, x, what: str) -> int:
    """x as a vertex of g: a number (not a bool) equal to an integer in
    [0, n), so 1.0 passes and 1.5 is not truncated; what names x in errors."""
    if not (_real(x) and x % 1 == 0):
        raise GraphError(f"{what} must be an integer vertex index, got {x!r}")
    if not 0 <= x < g.n:
        raise GraphError(f"vertex index {int(x)} out of range [0,{g.n})")
    return int(x)


def induced_subgraph(g: SignedGraph, keep: Iterable[int]) -> SignedGraph:
    """Restrict to a vertex subset, reindexing vertices in ascending order."""
    kept = sorted({_vertex(g, x, f"vertex #{pos}") for pos, x in enumerate(keep)})
    if not kept:
        raise GraphError("induced subgraph needs a nonempty vertex subset")
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
    for pos, (u, v) in enumerate(keep_edges):
        u, v = sorted((_vertex(g, u, f"edge #{pos}: u"), _vertex(g, v, f"edge #{pos}: v")))
        if (u, v) not in have:
            raise GraphError(f"({u},{v}) is not an edge of the graph")
        want.add((u, v))
    edges = tuple(e for e in g.edges if (e.u, e.v) in want)
    return SignedGraph(g.n, edges, g.mu, g.kappa)


def _propagate(g: SignedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One depth-first search from each unvisited vertex in ascending order:
    (tau, parity, root) with tau(v) = sigma_uv * tau(u) along the search
    tree, parity = (-1)^depth and root the smallest vertex of v's component.
    tau is the balancing and tau * parity the antibalancing switching, if
    there is one."""
    a = g._arrays
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for u, v, s in zip(a.u.tolist(), a.v.tolist(), a.sigma.astype(int).tolist()):
        adj[u].append((v, s))
        adj[v].append((u, s))
    tau, parity, root = [0] * g.n, [1] * g.n, list(range(g.n))
    for r in range(g.n):
        if tau[r]:
            continue
        tau[r] = 1
        stack = [r]
        while stack:
            i = stack.pop()
            for j, s in adj[i]:
                if tau[j] == 0:
                    tau[j], parity[j], root[j] = s * tau[i], -parity[i], r
                    stack.append(j)
    return np.array(tau), np.array(parity), np.array(root)


def components(g: SignedGraph) -> list[list[int]]:
    """Connected components by edge reachability, smallest vertex first."""
    out: dict[int, list[int]] = {}
    for i, r in enumerate(g._search[2].tolist()):
        out.setdefault(r, []).append(i)
    return list(out.values())


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


def connected_antibalancing_tau(g: SignedGraph) -> Optional[tuple[int, ...]]:
    """classify_balance(g).antibalanced_witness when g is connected (every
    search root is vertex 0), else None; both come from the one sign search
    kept on the instance."""
    return None if g._search[2].any() else g._balance.antibalanced_witness


def classify_balance(g: SignedGraph) -> BalanceClass:
    """Decide balance and antibalance, with switching witnesses.

    Balanced means some tau switches every sign to +1; antibalanced means the
    negated graph is balanced.  Decided in O(n+m) from one depth-first sign
    search, once per graph: the answer is kept on the instance.
    """
    return g._balance


def _classify(g: SignedGraph) -> BalanceClass:
    tau, parity, _ = g._search
    a = g._arrays

    def witness(t: np.ndarray, target: int) -> Optional[tuple[int, ...]]:
        # the search tree's edges hold by construction; this tests them all
        return tuple(t.tolist()) if (a.sigma * t[a.u] * t[a.v] == target).all() else None

    bal, anti = witness(tau, 1), witness(tau * parity, -1)
    if bal is not None:
        kind = "balanced" if anti is None else "both"
    else:
        kind = "antibalanced" if anti is not None else "neither"
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
# and no other key: a misspelt one would leave its field at the default.

def from_json_dict(doc: dict) -> SignedGraph:
    if not isinstance(doc, dict) or "n" not in doc:
        raise GraphError('graph JSON must be an object with an "n" field')
    for key in doc:
        if key not in ("n", "edges", "mu", "kappa"):
            raise GraphError(f"unknown graph key {key!r}; expected n, edges, mu, kappa")
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphError(f'edges must be a list of edge objects, got {raw_edges!r}')
    edges = []
    for pos, e in enumerate(raw_edges):
        if not isinstance(e, dict) or "u" not in e or "v" not in e:
            raise GraphError(f'edge #{pos}: expected an object with "u" and "v"')
        for key in e:
            if key not in ("u", "v", "w", "sigma"):
                raise GraphError(f"edge #{pos}: unknown key {key!r}; expected u, v, w, sigma")
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

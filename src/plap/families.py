"""Deterministic generators for standard graph families.

Every generator returns a SignedGraph with unit weights and measures and
zero potential; `random_graph` is reproducible from its seed.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .graph import GraphError, SignedGraph, negate, validate


def complete(n: int) -> SignedGraph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return validate(n, combinations(range(n), 2))


def star(m: int) -> SignedGraph:
    """Star on m vertices: center 0 joined to 1..m-1."""
    if m < 2:
        raise GraphError("star needs m >= 2 vertices")
    return validate(m, ((0, i) for i in range(1, m)))


def path(n: int) -> SignedGraph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return validate(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> SignedGraph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return validate(n, [(i, (i + 1) % n) for i in range(n)])


def edgeless(n: int) -> SignedGraph:
    return validate(n, [])


def hypercube(d: int) -> SignedGraph:
    """d-dimensional hypercube on 2^d vertices (vertices = bit strings)."""
    if d < 1:
        raise GraphError("hypercube needs d >= 1")
    n = 1 << d
    edges = [(x, x ^ (1 << b)) for x in range(n) for b in range(d) if x < x ^ (1 << b)]
    return validate(n, edges)


def random_graph(n: int, prob: float = 0.5, seed: int = 0,
                 signed: bool = False) -> SignedGraph:
    """G(n, prob) with a fixed seed; signed=True also draws random edge signs."""
    if n < 1 or not (0.0 <= prob <= 1.0):
        raise GraphError("random graph needs n >= 1 and prob in [0, 1]")
    rng = np.random.default_rng(seed)
    edges = []
    for u, v in combinations(range(n), 2):
        if rng.random() < prob:
            sigma = int(rng.choice((1, -1))) if signed else 1
            edges.append((u, v, 1.0, sigma))
    return validate(n, edges)


_FAMILIES = {
    "complete": (complete, ("n",)),
    "star": (star, ("m",)),
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "edgeless": (edgeless, ("n",)),
    "hypercube": (hypercube, ("d",)),
    "random": (random_graph, ("n", "prob", "seed", "signed")),
}


def generate(family: str, negated: bool = False, **params) -> SignedGraph:
    """Dispatch by family name; negated=True flips every sign afterwards."""
    if family not in _FAMILIES:
        raise GraphError(f"unknown family {family!r}; known: {sorted(_FAMILIES)}")
    fn, names = _FAMILIES[family]
    unknown = set(params) - set(names)
    if unknown:
        raise GraphError(f"unknown parameters for {family}: {sorted(unknown)}")
    g = fn(**params)
    return negate(g) if negated else g

import math

import numpy as np
import pytest

from plap import families, graph


def random_signed(n: int, prob: float, seed: int) -> graph.SignedGraph:
    return families.random_graph(n, prob, seed, signed=True)


def random_weighted(n: int, prob: float, seed: int, isolated: int = 0) -> graph.SignedGraph:
    """Random signed graph with non-unit weights and measures, a nonzero
    potential, and `isolated` trailing vertices without edges."""
    rng = np.random.default_rng(seed)
    edges = [(a, b, float(rng.uniform(0.2, 3.0)), int(rng.choice((1, -1))))
             for a in range(n - isolated) for b in range(a + 1, n - isolated)
             if rng.random() < prob]
    return graph.validate(n, edges, mu=rng.uniform(0.3, 4.0, n).tolist(),
                          kappa=rng.uniform(-1.0, 2.0, n).tolist())


def random_connected_antibalanced(n: int, prob: float, seed: int) -> graph.SignedGraph:
    """Connected graph whose signature is antibalanced by construction:
    sigma_uv = -tau_u tau_v for a random vertex labeling tau."""
    s = seed
    g = families.random_graph(n, prob, s)
    while len(graph.components(g)) > 1:
        s += 7919
        g = families.random_graph(n, prob, s)
    rng = np.random.default_rng(seed + 1)
    tau = np.where(rng.random(n) < 0.5, 1, -1)
    edges = [(e.u, e.v, e.w, int(-tau[e.u] * tau[e.v])) for e in g.edges]
    return graph.validate(n, edges)


def antibalanced_negative_kappa() -> graph.SignedGraph:
    """A connected antibalanced graph on 6 vertices with kappa_0, kappa_4 < 0."""
    g = random_connected_antibalanced(6, 0.5, 4)
    return graph.validate(6, [tuple(e) for e in g.edges],
                          kappa=[-0.5, 0.3, 0.0, 1.0, -0.2, 0.4])


def random_balanced(n: int, prob: float, seed: int) -> graph.SignedGraph:
    """Random graph with sigma_uv = tau_u tau_v (balanced by construction)."""
    g = families.random_graph(n, prob, seed)
    rng = np.random.default_rng(seed + 1)
    tau = np.where(rng.random(n) < 0.5, 1, -1)
    edges = [(e.u, e.v, e.w, int(tau[e.u] * tau[e.v])) for e in g.edges]
    return graph.validate(n, edges)


def wide_range_graphs(count: int) -> list[graph.SignedGraph]:
    """The first count graphs of the wide-range set (293 in full): n in 3-8,
    each pair an edge with probability 0.6 and a random sign, 40 % of the
    weights 10^U(-165, -155) and the rest U(0.5, 2), from default_rng(17)."""
    rng, out = np.random.default_rng(17), []
    for _ in range(count):
        n, edges = int(rng.integers(3, 9)), []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.6:
                    sign = 1 if rng.random() < 0.5 else -1
                    tiny = rng.random() < 0.4
                    w = 10 ** rng.uniform(-165, -155) if tiny else rng.uniform(0.5, 2)
                    edges.append((u, v, float(w), sign))
        out.append(graph.validate(n, edges))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def sparse_antibalanced(n: int, m: int, seed: int) -> graph.SignedGraph:
    """Ring plus random chords (connected, m unit edges), with the
    antibalanced signature sigma_uv = -tau_u tau_v of a random tau."""
    rng = np.random.default_rng(seed)
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    while len(edges) < m:
        a, b = (int(x) for x in rng.integers(0, n, 2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    tau = np.where(rng.random(n) < 0.5, 1, -1)
    return graph.validate(n, [(a, b, 1.0, int(-tau[a] * tau[b])) for a, b in sorted(edges)])


def tensor_entries(t) -> dict:
    """The pattern dict of a PLapTensor, ((vertex, multiplicity), ...) ->
    value: the diagonals, then each edge's l = 1..p-1."""
    out = {((i, t.p),): val for i, val in enumerate(t.diag.tolist())}
    for i, j, w, s in zip(t.i.tolist(), t.j.tolist(), t.w.tolist(), t.sigma.tolist()):
        for l in range(1, t.p):
            out[((i, l), (j, t.p - l))] = (-s) ** l * w
    return out


def apply_tensor_reference(t, f) -> np.ndarray:
    """tensor.apply_tensor the slow way: expand each pattern with its binomial
    multiplicity.  A pattern {i^(l), j^(p-l)} seen from row i stands for
    C(p-1, l-1) index tuples and contributes that many copies of
    value * f_i^(l-1) * f_j^(p-l)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (t.n,):
        raise ValueError(f"function has shape {f.shape}, expected ({t.n},)")
    p, out = t.p, np.zeros(t.n)
    for pattern, val in tensor_entries(t).items():
        if len(pattern) == 1:
            i = pattern[0][0]
            out[i] += val * f[i] ** (p - 1)
        else:
            (i, li), (j, lj) = pattern
            out[i] += math.comb(p - 1, li - 1) * val * f[i] ** (li - 1) * f[j] ** lj
            out[j] += math.comb(p - 1, lj - 1) * val * f[j] ** (lj - 1) * f[i] ** li
    return out

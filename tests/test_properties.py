"""Property tests over generated signed graphs: the graph JSON round trip,
where validation says a graph is wrong, switching invariance, and switched
or kappa-zeroed graphs that build their edge tuples on first read."""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plap import cutoff, graph
from plap.graph import GraphError
from plap.solver import rayleigh

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
positive = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
real = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
# function values whose p-th powers neither underflow nor overflow
entry = st.one_of(st.just(0.0), positive, positive.map(lambda x: -x))


@st.composite
def signed_graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(a, b, draw(positive), draw(st.sampled_from((1, -1))))
             for (a, b), keep in zip(pairs, kept) if keep]
    mu = draw(st.lists(positive, min_size=n, max_size=n))
    kappa = draw(st.lists(real, min_size=n, max_size=n))
    return graph.validate(n, edges, mu=mu, kappa=kappa)


@st.composite
def switchings(draw, g):
    return np.array(draw(st.lists(st.sampled_from((1, -1)), min_size=g.n, max_size=g.n)))


@PROPERTY
@given(signed_graphs())
def test_graph_json_round_trips(g):
    assert graph.loads(graph.dumps(g)) == g
    assert graph.loads(graph.dumps(g, indent=2)) == g


# each bad field value, with the start of what validate says about it
CORRUPTIONS = [("u", True), ("v", "1"), ("u", 0.5), ("sigma", True), ("sigma", 0),
               ("w", None), ("w", "2"), ("w", False), ("w", -1.0), ("v", 99)]


@PROPERTY
@given(st.data())
def test_a_corrupted_edge_is_named_by_its_number(data):
    g = data.draw(signed_graphs().filter(lambda g: g.m))
    doc = graph.to_json_dict(g)
    i = data.draw(st.integers(0, g.m - 1))
    field, value = data.draw(st.sampled_from(CORRUPTIONS + [(None, 7)]))
    doc["edges"][i] = value if field is None else dict(doc["edges"][i], **{field: value})
    try:
        graph.from_json_dict(doc)
    except GraphError as exc:
        assert str(exc).startswith((f"edge #{i}:", f"edge #{i} ")), str(exc)
    else:
        raise AssertionError(f"edge #{i} with {field}={value!r} was accepted")


@PROPERTY
@given(st.data())
def test_switching_leaves_the_rayleigh_quotient_unchanged(data):
    g = data.draw(signed_graphs())
    t = data.draw(switchings(g))
    p = data.draw(st.floats(1.1, 8.0))
    f = np.array(data.draw(st.lists(entry, min_size=g.n, max_size=g.n).filter(any)))
    assert rayleigh(graph.switch(g, t), p, t * f) == rayleigh(g, p, f)


@PROPERTY
@given(st.data())
def test_switching_leaves_exact_ln_unchanged(data):
    # switching permutes the sign codes and keeps each code's matrix, so the
    # largest float over them is the same
    g = data.draw(signed_graphs(max_n=8))
    t = data.draw(switchings(g))
    assert cutoff.exact_ln(graph.switch(g, t)).lower == cutoff.exact_ln(g).lower


@PROPERTY
@given(st.data())
def test_a_switched_graph_is_the_validated_graph(data):
    # switch, negate and with_zero_kappa build no edge tuples; whatever reads
    # them first must see the graph validate makes from the changed description
    g = data.draw(signed_graphs())
    t = data.draw(switchings(g))
    cases = [(graph.switch(g, t), [t[e.u] * e.sigma * t[e.v] for e in g.edges], g.kappa),
             (graph.negate(g), [-e.sigma for e in g.edges], g.kappa)]
    if any(g.kappa):
        cases.append((graph.with_zero_kappa(graph.switch(g, t)), cases[0][1], [0.0] * g.n))
    for lazy, sigmas, kappa in cases:
        eager = graph.validate(g.n, [(e.u, e.v, e.w, int(s)) for e, s in zip(g.edges, sigmas)],
                               mu=g.mu, kappa=kappa)
        assert "edges" not in lazy.__dict__
        for _ in range(2):          # before the tuples are built, and after
            assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)
            assert repr(lazy) == repr(eager)
            assert pickle.loads(pickle.dumps(lazy)) == eager
            assert pickle.dumps(lazy) == pickle.dumps(eager)
            assert graph.dumps(lazy) == graph.dumps(eager)
            assert "edges" in lazy.__dict__

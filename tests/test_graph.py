"""Data-model invariants: validation, switching, balance classification."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plap import families, graph
from plap.graph import (GraphError, classify_balance, components,
                        induced_subgraph, negate, spanning_subgraph,
                        structural_constants, switch, validate)

from conftest import random_connected_antibalanced, random_signed, random_weighted


def test_validate_defaults_k2():
    g = validate(2, [(0, 1)])
    assert g.edges == (graph.Edge(0, 1, 1.0, 1),)
    assert g.mu == (1.0, 1.0) and g.kappa == (0.0, 0.0)


def test_validate_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        validate(2, [(0, 0)])


def test_validate_rejects_nonpositive_weight():
    with pytest.raises(GraphError, match="weight"):
        validate(3, [(0, 1, -1.0)])


@pytest.mark.parametrize("edges, mu, kappa, where", [
    ([(0, 1, 1.0, 1.5)], None, None, r"edge #0: u, v and sigma must be integers, .*1\.5"),
    ([(0, 1), (1.7, 2)], None, None, r"edge #1: u, v and sigma must be integers, .*1\.7"),
    ([(0, 1), (1, float("nan"))], None, None, r"edge #1: u, v and sigma must be integers"),
    ([("0", 1)], None, None, r"edge #0: u, v and sigma must be integers"),
    ([(0, 1, float("inf"))], None, None, r"edge #0 \(0,1\): weight must be positive and finite"),
    ([(0, 1)], [1.0, float("inf"), 1.0], None, r"vertex 1: measure must be positive and finite"),
    ([(0, 1)], None, [0.0, 0.0, float("nan")], r"vertex 2: potential must be finite"),
    ([(0, 1)], None, [float("-inf"), 0.0, 0.0], r"vertex 0: potential must be finite"),
    ([(0, 1), (True, 2)], None, None, r"edge #1: u, v, w and sigma must be numbers"),
    ([(0, 1, 1.0, True)], None, None, r"edge #0: u, v, w and sigma must be numbers"),
    ([(0, 1), (1, 2, True)], None, None, r"edge #1: .* must be numbers, got \(1, 2, True\)"),
    ([(0, 1, "2")], None, None, r"edge #0: .* must be numbers, got \(0, 1, '2'\)"),
    ([(0, 1, None)], None, None, r"edge #0: .* must be numbers, got \(0, 1, None\)"),
    ([(0, 1), 7], None, None, r"edge #1: expected \(u, v\[, w\[, sigma\]\]\), got 7"),
    ([(0, 1)], [1.0, True, 1.0], None, r"vertex 1: measure must be positive and finite, got True"),
    ([(0, 1)], ["1", "2", "3"], None, r"vertex 0: measure must be positive and finite, got '1'"),
    ([(0, 1)], 5, None, r"mu must be a list of numbers, got 5"),
    ([(0, 1)], None, [0.0, False, 1.0], r"vertex 1: potential must be finite, got False"),
    ([(0, 1)], None, "000", r"kappa must be a list of numbers, got '000'"),
    ([(0, 1)], [1.0, 1.0], None, r"mu has length 2, expected 3"),
    ([(0, 1)], None, [0.0] * 4, r"kappa has length 4, expected 3"),
])
def test_validate_rejects_non_integral_and_non_finite_inputs(edges, mu, kappa, where):
    with pytest.raises(GraphError, match=where):
        validate(3, edges, mu=mu, kappa=kappa)


def test_validate_rejects_scales_and_degrees_that_overflow():
    # finite weights and measures whose normalized weight 1e300 / 1e-10
    # overflows (it used to reach exact_ln as inf and fail there), and two
    # finite weights whose sum at vertex 1 overflows
    with pytest.raises(GraphError, match=r"edge \(0,1\): normalized weight .* is not finite"):
        validate(5, [(0, 1, 1e300), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)],
                 mu=[1e-10, 1e-10, 1, 1, 1])
    with pytest.raises(GraphError, match=r"vertex 1: weighted degree .* is not finite"):
        validate(3, [(1, 2, 1e308), (0, 1, 1e308)])
    # the largest finite ones still pass, and so do tiny measures that keep them finite
    assert validate(3, [(0, 1, 1e308), (1, 2, 1e300)]).weighted_degrees()[1] < np.inf
    assert validate(2, [(0, 1, 1e200)], mu=[1e-100, 1e-100]).m == 1


def test_validate_accepts_integral_floats_and_numpy_ints():
    g = validate(3, [(np.int64(2), 1.0, np.float64(2.5), -1.0), (np.int32(0), 1)])
    assert g.edges == (graph.Edge(0, 1, 1.0, 1), graph.Edge(1, 2, 2.5, -1))
    assert all(type(x) is int for e in g.edges for x in (e.u, e.v, e.sigma))
    h = validate(3, g.edges, mu=np.array([1.0, 2.0, 0.5]),
                 kappa=np.array([0, 1, -2], dtype=np.int32))
    assert h.mu == (1.0, 2.0, 0.5) and h.kappa == (0.0, 1.0, -2.0)
    assert all(type(x) is float for x in (*h.mu, *h.kappa))


@pytest.mark.parametrize("doc, where", [
    ({"n": True}, r"vertex count must be a positive integer, got True"),
    ({"n": "3"}, r"vertex count must be a positive integer, got '3'"),
    ({"n": 2, "edges": 7}, r"edges must be a list of edge objects, got 7"),
    ({"n": 2, "edges": [{"u": True, "v": 1}]}, r"edge #0: u, v, w and sigma must be numbers"),
    ({"n": 3, "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2, "sigma": True}]},
     r"edge #1: u, v, w and sigma must be numbers"),
    ({"n": 2, "edges": [{"u": 0, "v": 1, "w": True}]}, r"edge #0: .* must be numbers"),
    ({"n": 2, "edges": [{"u": 0, "v": 1, "w": "2"}]}, r"edge #0: .* must be numbers"),
    ({"n": 2, "edges": [{"u": 0, "v": 1, "w": None}]}, r"edge #0: .* must be numbers"),
    ({"n": 2, "edges": [{"u": 0, "v": 1, "w": "x"}]}, r"edge #0: .* must be numbers"),
    ({"n": 2, "mu": [True, 1]}, r"vertex 0: measure must be positive and finite, got True"),
    ({"n": 2, "mu": ["1", "2"]}, r"vertex 0: measure must be positive and finite, got '1'"),
    ({"n": 2, "mu": 5}, r"mu must be a list of numbers, got 5"),
    ({"n": 2, "kappa": [False, 1]}, r"vertex 0: potential must be finite, got False"),
    ({"n": 2, "kappa": "00"}, r"kappa must be a list of numbers, got '00'"),
    ([2], r'graph JSON must be an object with an "n" field'),
    ({"edges": []}, r'graph JSON must be an object with an "n" field'),
    ({"n": 2, "edges": [{"u": 0}]}, r'edge #0: expected an object with "u" and "v"'),
    ({"n": 2, "edges": [{"u": 0, "v": 1}, {"v": 1}]},
     r'edge #1: expected an object with "u" and "v"'),
    ({"n": 2, "edges": [[0, 1]]}, r'edge #0: expected an object with "u" and "v"'),
])
def test_graph_json_rejects_non_numbers_and_names_where(doc, where):
    with pytest.raises(GraphError, match=where):
        graph.from_json_dict(doc)


@pytest.mark.parametrize("doc, where", [
    ({"n": 2, "edges": [{"u": 0, "v": 1, "weight": 5}], "kapa": [3, 3]},
     "unknown graph key 'kapa'"),
    ({"n": 2, "edges": [{"u": 0, "v": 1, "weight": 5}]}, "edge #0: unknown key 'weight'"),
    ({"n": 3, "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2, "sign": -1}]},
     "edge #1: unknown key 'sign'"),
], ids=["top", "edge0", "edge1"])
def test_graph_json_rejects_an_unknown_key_and_names_it(doc, where):
    # a misspelt key would otherwise leave its field at the default
    with pytest.raises(GraphError, match=re.escape(where)):
        graph.from_json_dict(doc)


def test_validate_rejects_non_finite_json_fields():
    doc = {"n": 2, "edges": [{"u": 0, "v": 1, "w": 1.0, "sigma": 1.5}]}
    with pytest.raises(GraphError, match="sigma"):
        graph.from_json_dict(doc)
    with pytest.raises(GraphError, match="weight"):
        graph.loads('{"n": 2, "edges": [{"u": 0, "v": 1, "w": Infinity}]}')


def test_validate_rejects_duplicates_and_bad_indices():
    with pytest.raises(GraphError, match="duplicate"):
        validate(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError, match="out of range"):
        validate(3, [(0, 5)])
    with pytest.raises(GraphError, match="measure"):
        validate(2, [(0, 1)], mu=[1.0, 0.0])


def test_switch_flips_k2():
    g = validate(2, [(0, 1)])
    assert switch(g, (1, -1)).edges[0].sigma == -1
    assert switch(g, (1, 1)) == g
    with pytest.raises(GraphError):
        switch(g, (1,))


@pytest.mark.parametrize("tau,where", [
    ([1.5, -1, 1], "#0 must be +1 or -1, got 1.5"),
    ([1, True, 1], "#1 must be +1 or -1, got True"),
    ([1, -1, np.bool_(True)], "#2 must be +1 or -1, got "),
    ([1, math.nan, 1], "#1 must be +1 or -1, got nan"),
    ([1, -1, "1"], "#2 must be +1 or -1, got '1'"),
    ([1, 0, 2], "#1 must be +1 or -1, got 0"),
    (np.array([1, -1, 3]), "#2 must be +1 or -1, got 3"),
    (np.array([1.0, -0.5, 1.0]), "#1 must be +1 or -1, got "),
    (np.array([True, True, False]), "#0 must be +1 or -1, got "),
    ([1, None, 1], "#1 must be +1 or -1, got None"),
    ([2 ** 70, 1, 1], f"#0 must be +1 or -1, got {2 ** 70}"),
])
def test_switch_rejects_what_is_not_plus_or_minus_one(tau, where):
    # nothing is truncated: 1.5 used to switch as 1, True as +1
    with pytest.raises(GraphError, match="switching function entry " + re.escape(where)):
        switch(families.cycle(3), tau)


def test_switch_accepts_integers_and_integral_floats():
    c3 = families.cycle(3)
    want = switch(c3, (1, -1, 1))
    for tau in ([1, -1, 1], np.array([1, -1, 1]), np.array([1, -1, 1], dtype=np.int8),
                [np.int64(1), np.int32(-1), 1], [1.0, -1.0, 1], np.array([1.0, -1.0, 1.0])):
        assert switch(c3, tau) == want
    assert [e.sigma for e in want.edges] == [-1, 1, -1]


def test_negate_examples():
    tri = families.complete(3)
    assert all(e.sigma == -1 for e in negate(tri).edges)
    assert negate(negate(tri)) == tri
    empty = families.edgeless(3)
    assert negate(empty) == empty


def test_induced_subgraph():
    k3 = families.complete(3)
    k2 = induced_subgraph(k3, [0, 2])
    assert k2.n == 2 and k2.edges == (graph.Edge(0, 1, 1.0, 1),)
    assert induced_subgraph(k3, range(3)).edges == k3.edges
    ends = induced_subgraph(families.path(3), [0, 2])
    assert ends.n == 2 and ends.m == 0
    with pytest.raises(GraphError):
        induced_subgraph(k3, [])


def test_spanning_subgraph():
    c4 = families.cycle(4)
    assert spanning_subgraph(c4, [(e.u, e.v) for e in c4.edges]) == c4
    assert spanning_subgraph(c4, []).m == 0
    matching = spanning_subgraph(c4, [(0, 1), (2, 3)])
    assert matching.n == 4 and matching.m == 2
    with pytest.raises(GraphError):
        spanning_subgraph(c4, [(0, 2)])


@pytest.mark.parametrize("keep,entry", [([0.9, 1.5, 2], "#0 ... got 0.9"),
                                        ([True, 2], "#0 ... got True"),
                                        ([0, float("nan")], "#1 ... got nan"),
                                        ([0, 4], "index 4 out of range [0,4)"),
                                        ([-1.0], "index -1 out of range [0,4)")],
                         ids=["fractions", "bool", "nan", "past-n", "negative"])
def test_induced_subgraph_rejects_a_non_integral_vertex(keep, entry):
    # int() truncated these to {0, 1, 2} and {1, 2}; integral floats still pass
    with pytest.raises(GraphError) as err:
        induced_subgraph(families.path(4), keep)
    assert str(err.value) == "vertex " + entry.replace("...", "must be an integer vertex index,")
    assert induced_subgraph(families.path(4), [1.0, np.int64(2)]) == families.path(2)


def test_spanning_subgraph_rejects_a_non_integral_endpoint():
    # int() truncated (0.7, 1.2) to the edge (0, 1)
    with pytest.raises(GraphError) as err:
        spanning_subgraph(families.path(4), [(0, 1), (0.7, 1.2)])
    assert str(err.value) == "edge #1: u must be an integer vertex index, got 0.7"
    with pytest.raises(GraphError, match="edge #0: v must be an integer vertex index, got False"):
        spanning_subgraph(families.path(4), [(1, False)])
    assert spanning_subgraph(families.path(4), [(1.0, 0.0)]).m == 1


def test_components():
    assert components(families.complete(3)) == [[0, 1, 2]]
    assert components(families.edgeless(3)) == [[0], [1], [2]]
    two_k2 = validate(4, [(0, 1), (2, 3)])
    assert components(two_k2) == [[0, 1], [2, 3]]


def test_classify_balance_triangles():
    tri = families.complete(3)
    assert classify_balance(tri).kind == "balanced"
    assert classify_balance(negate(tri)).kind == "antibalanced"


def _exhaustive_balance(g):
    """Oracle: try every switching function."""
    bal = anti = False
    for signs in itertools.product((1, -1), repeat=g.n):
        switched = switch(g, signs)
        if all(e.sigma == 1 for e in switched.edges):
            bal = True
        if all(e.sigma == -1 for e in switched.edges):
            anti = True
    if bal and anti:
        return "both"
    return "balanced" if bal else ("antibalanced" if anti else "neither")


def test_unsigned_c4_is_both():
    assert classify_balance(families.cycle(4)).kind == "both"
    assert _exhaustive_balance(families.cycle(4)) == "both"


@pytest.mark.parametrize("seed", range(12))
def test_balance_matches_exhaustive_search(seed):
    g = random_signed(6, 0.5, seed)
    assert classify_balance(g).kind == _exhaustive_balance(g)


def test_positive_odd_cycles_block_antibalance():
    for g in (families.complete(3), families.cycle(5), families.cycle(7)):
        assert classify_balance(g).kind == "balanced"
        assert _exhaustive_balance(g) == "balanced"


def test_witnesses_certify():
    for seed in range(8):
        g = random_signed(7, 0.5, seed)
        cls = classify_balance(g)
        if cls.balanced_witness is not None:
            assert all(e.sigma == 1 for e in switch(g, cls.balanced_witness).edges)
        if cls.antibalanced_witness is not None:
            assert all(e.sigma == -1
                       for e in switch(g, cls.antibalanced_witness).edges)


def test_structural_constants_examples():
    assert structural_constants(validate(2, [(0, 1)])) == (0.5, 0.0)
    assert structural_constants(families.star(5)) == (2.0, 0.0)
    d, c = structural_constants(validate(2, [(0, 1)], kappa=[1.0, 0.0]))
    assert d == 1.5 and c == 1.0


def _resign_cases():
    weighted = random_weighted(9, 0.6, 4, isolated=2)
    return [(weighted, tuple(np.where(np.arange(9) % 3, 1, -1))),
            (random_signed(7, 0.5, 3), (1, -1, -1, 1, 1, -1, 1)),
            (validate(3, [], mu=[1.0, 2.0, 0.5], kappa=[0.0, -1.0, 1.0]), (-1, 1, -1))]


@pytest.mark.parametrize("g, tau", _resign_cases(), ids=["weighted", "signed", "edgeless"])
def test_switch_and_negate_hand_over_the_view(g, tau):
    # the switched graph gets g's view with sigma replaced; every field must
    # equal a view built afresh from its edge tuples
    g._arrays
    for out, sigmas in ((switch(g, tau), [tau[e.u] * e.sigma * tau[e.v] for e in g.edges]),
                        (negate(g), [-e.sigma for e in g.edges])):
        assert out.edges == tuple(e._replace(sigma=s) for e, s in zip(g.edges, sigmas))
        assert all(type(e.sigma) is int for e in out.edges)
        assert "_arrays" in out.__dict__
        fresh = graph.SignedGraph(out.n, out.edges, out.mu, out.kappa)._arrays
        for name, x, y in zip(graph.GraphArrays._fields, out._arrays, fresh, strict=True):
            assert x.dtype == y.dtype and np.array_equal(x, y), name
            assert not x.flags.writeable, name
        again = validate(out.n, [tuple(e) for e in out.edges], mu=out.mu, kappa=out.kappa)
        assert out == again and hash(out) == hash(again)


def _balance_cases():
    two = validate(6, [(0, 1, 1.0, -1), (1, 2, 1.0, 1), (3, 4, 1.0, -1), (4, 5, 1.0, -1)])
    return ([random_signed(n, 0.5, seed) for n, seed in ((5, 0), (7, 1), (8, 2))]
            + [random_connected_antibalanced(n, 0.5, seed) for n, seed in ((6, 0), (9, 1))]
            + [random_weighted(8, 0.7, 0, isolated=1), two, negate(families.complete(5)),
               families.star(4), families.cycle(5), families.edgeless(3),
               families.edgeless(1), families.complete(2)])


@pytest.mark.parametrize("g", _balance_cases(), ids=lambda g: f"n{g.n}m{g.m}")
def test_connected_antibalancing_tau_agrees_with_classify_balance(g):
    want = classify_balance(g).antibalanced_witness
    got = graph.connected_antibalancing_tau(g)
    assert got == (want if len(components(g)) == 1 else None)
    if got is not None:
        assert all(e.sigma == -1 for e in switch(g, got).edges)


@given(st.integers(0, 2 ** 12 - 1), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_switch_involution_and_invariants(tau_bits, seed):
    g = random_signed(6, 0.5, seed % 50)
    tau = tuple(1 - 2 * ((tau_bits >> i) & 1) for i in range(6))
    assert switch(switch(g, tau), tau) == g
    switched = switch(g, tau)
    assert sorted(e.w for e in switched.edges) == sorted(e.w for e in g.edges)
    assert structural_constants(switched) == structural_constants(g)
    assert classify_balance(switched).kind == classify_balance(g).kind


def test_json_round_trip_with_defaults():
    doc = '{"n": 3, "edges": [{"u": 1, "v": 0}, {"u": 1, "v": 2, "w": 2.5, "sigma": -1}]}'
    g = graph.loads(doc)
    assert g.edges == (graph.Edge(0, 1, 1.0, 1), graph.Edge(1, 2, 2.5, -1))
    assert g.mu == (1.0,) * 3 and g.kappa == (0.0,) * 3
    assert graph.loads(graph.dumps(g)) == g
    full = validate(3, [(0, 1, 0.5, -1)], mu=[1.0, 2.0, 3.0], kappa=[0.0, -1.0, 2.0])
    assert graph.from_json_dict(graph.to_json_dict(full)) == full

"""Report JSON: the one-pass encoder writes the bytes of json.dumps(...,
indent=2, sort_keys=True) on the jsonable form of the report, which
legacy_report keeps as it was; on random value trees and on the reports of
every command over a graph corpus."""

import contextlib
import io
from collections import OrderedDict, namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import legacy_report
from plap import cli, families, graph
from plap.report import Report

from conftest import (antibalanced_negative_kappa, random_balanced,
                      random_connected_antibalanced, random_weighted)

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)
PREFIX = "Out of range float values are not JSON compliant"

floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from((-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
                                    0.1, 1 / 3)))
ints = st.one_of(st.integers(-2 ** 40, 2 ** 40), st.integers(2 ** 63 - 2, 2 ** 70),
                 st.integers(-2 ** 70, -2 ** 63 + 2))
texts = st.text(st.characters(min_codepoint=0, max_codepoint=0x2FFFF, exclude_categories=("Cs",)),
                max_size=8)
numpy_scalars = st.one_of(
    floats.map(np.float64), st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32),
    st.booleans().map(np.bool_))
arrays = st.one_of(
    hnp.arrays(st.sampled_from((np.float64, np.float32)),
               hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
               elements=st.floats(-2.0 ** 100, 2.0 ** 100, width=32)),
    hnp.arrays(st.sampled_from((np.int64, np.int8, np.bool_)),
               hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)))


class Int(int):
    pass


class Float(float):
    pass


class Str(str):
    pass


Pair = namedtuple("Pair", "a b")
subclassed = st.one_of(ints.map(Int), floats.map(Float), texts.map(Str))
non_finite = st.sampled_from((float("nan"), float("inf"), -float("inf"), np.float32("nan"),
                              np.float64("-inf"), Float("-inf"), np.array([1.0, float("nan")])))
refused = st.one_of(st.sampled_from((object(), {1, 2}, b"bytes", 1j, np.longdouble(1.5))),
                    floats.map(np.array))       # a 0-d array, refused as before
leaves = st.one_of(st.none(), st.booleans(), ints, floats, texts, numpy_scalars, arrays,
                   subclassed)
keys = st.one_of(texts, ints, floats, st.booleans(), st.none(), numpy_scalars,
                 st.tuples(st.integers(0, 3), st.integers(0, 3)))


def trees(leaf):
    return st.recursive(leaf, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4), st.builds(Pair, inner, inner),
        st.dictionaries(keys, inner, max_size=4).map(OrderedDict)), max_leaves=16)


def _report(values, checks, command, seed) -> Report:
    rep = Report(command=["plap"] + command, input_digest="sha256:0", seed=seed)
    for name, passed, vals, witness in checks:
        rep.add(name, "anchor", passed, vals, witness=witness)
    rep.values = values
    return rep


def _outcome(dumps, rep):
    try:
        return "text", dumps(rep)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


checks = st.lists(st.tuples(texts, st.sampled_from((True, False, None)),
                            st.dictionaries(keys, trees(leaves), max_size=4),
                            st.one_of(st.none(), st.dictionaries(keys, trees(leaves), max_size=3))),
                  max_size=4)


@PROPERTY
@given(st.dictionaries(keys, trees(leaves), max_size=6), checks,
       st.lists(texts, max_size=3), st.one_of(st.none(), ints))
@example({1: "a", "1": "b", "x": {}, "y": [], "z": ()}, [], [], None)
@example({"v": [-0.0, 5e-324, 1e308, 2 ** 64, -(2 ** 70), "\x00\x1fé \U0001f600",
                np.array([[1.5, -0.0], [2.0, 3.0]]), np.array([True, False]),
                np.array([[1, 2]], dtype=np.int8), np.float32(0.1), np.int64(-7), np.bool_(True)]},
         [("c", True, {"w": {2: None, 10: False}}, {"graph": {"n": 1}})], ["--k", "all"], 7)
def test_dumps_writes_the_old_bytes(values, checks, command, seed):
    rep = _report(values, checks, command, seed)
    assert _outcome(Report.dumps, rep) == _outcome(legacy_report.dumps, rep)


@PROPERTY
@given(st.one_of(st.dictionaries(keys, trees(st.one_of(leaves, non_finite)), max_size=6),
                st.dictionaries(keys, trees(st.one_of(leaves, non_finite, refused)), max_size=6)),
       checks)
def test_dumps_refuses_what_the_old_path_refused(values, checks):
    # a value of another type first, as before; else the first non-finite
    # number in the written order, now with its path
    rep = _report(values, checks, [], None)
    new, old = _outcome(Report.dumps, rep), _outcome(legacy_report.dumps, rep)
    if old[0] == "ValueError" and old[1].startswith(PREFIX):
        assert new[0] == "ValueError"
        assert new[1].startswith(PREFIX + " at ") and new[1].endswith(old[1][len(PREFIX):])
    else:
        assert new == old


def _corpus():
    """(id, graph, extra flags of the cutoff command)."""
    heavy = graph.validate(5, [(0, 1, 2.5, 1), (1, 2, 0.75, -1), (2, 3, 4.0, -1), (3, 4, 1.25, 1),
                               (0, 4, 3.0, -1)], mu=[0.5, 2.0, 1.5, 3.0, 0.25],
                           kappa=[0.3, -0.2, 0.0, 1.5, 0.7])
    return [
        ("K5", families.complete(5), []),
        ("K6-negated", graph.negate(families.complete(6)), []),
        ("star7", families.star(7), []),
        ("weighted8", random_weighted(8, 0.5, 1), []),
        ("weighted9", random_weighted(9, 0.4, 2), []),
        ("weighted-heavy5", heavy, []),
        ("isolated7", random_weighted(7, 0.6, 3, isolated=1), []),
        ("antibalanced9", random_connected_antibalanced(9, 0.4, 5), []),
        ("negative-kappa6", antibalanced_negative_kappa(), []),
        ("balanced8", random_balanced(8, 0.5, 6), []),
        ("cycle7-negated", graph.negate(families.cycle(7)), []),
        ("hypercube3", families.hypercube(3), []),
        ("signed10", families.random_graph(10, 0.5, 2, signed=True), []),
        # alpha is 5 and C(13, k) exceeds the budget for 4 <= k <= 9, so the
        # upper bounds of k = 6..9 come from greedy and random subsets
        ("signed13-greedy", families.random_graph(13, 0.5, 0, signed=True), ["--budget", "512"]),
    ]


COMMANDS = [["validate", "G"], ["spectrum", "G", "--p", "3", "--which", "largest"],
            ["spectrum", "G", "--p", "1.5", "--which", "smallest"], ["cutoff", "G", "--k", "all"],
            ["bounds", "G"], ["verify", "monotonicity", "G"], ["verify", "all", "G"]]


@pytest.mark.parametrize("name, g, cutoff_flags", _corpus(), ids=[c[0] for c in _corpus()])
def test_every_command_prints_the_old_bytes(name, g, cutoff_flags, tmp_path, monkeypatch):
    path = tmp_path / "g.json"
    path.write_text(graph.dumps(g))
    old = []
    dumps = Report.dumps

    def both(rep):
        old.append(legacy_report.dumps(rep))
        return dumps(rep)
    monkeypatch.setattr(Report, "dumps", both)
    written = 0
    for command in COMMANDS:
        argv = [str(path) if arg == "G" else arg for arg in command]
        if command[0] == "cutoff":
            argv += cutoff_flags
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code == 2:       # the suite does not apply: a usage error, no report
            assert out.getvalue() == "" and err.getvalue().startswith("plap: error: ")
            continue
        assert out.getvalue() == old.pop() + "\n"
        written += 1
    assert written >= 5

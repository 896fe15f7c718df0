import random
import re

import numpy as np
import pytest

from conftest import oracle_transition_matrix, random_grounded_graph
from graph_build import add_edge, add_node, is_restart
from pprlog.graph import (GroundedGraph, NumericGraph, RESTART_FEATURE,
                          deserialize, serialize)
from pprlog.grounder import GroundingParams, ground_full
from pprlog.inference import power_iterate
from pprlog.parser import parse_atom
from pprlog.weights import EXP, LINEAR, ParameterVector, edge_weight


def sample_graph():
    g = GroundedGraph(query="q(a,X)")
    for _ in range(3):
        add_node(g)
    add_edge(g, 0, 0, {RESTART_FEATURE: 1.0})
    add_edge(g, 0, 1, {"f(a,b)": 1.0, "g": 2.0})
    add_edge(g, 1, 0, {RESTART_FEATURE: 0.5})
    add_edge(g, 1, 2, {"db": 1.0})
    add_edge(g, 2, 0, {RESTART_FEATURE: 1.0})
    add_edge(g, 2, 2, {"id(selfLoop)": 1.0})
    g.solutions[2] = "q(a,b)"
    g.labels[2] = True
    return g


def test_serialize_roundtrip():
    g = sample_graph()
    text = serialize(g)
    (g2,) = deserialize(text)
    assert g2.query == g.query
    assert g2.num_nodes == g.num_nodes
    assert g2.solutions == g.solutions
    assert g2.labels == g.labels
    assert sorted((e.src, e.dst, tuple(sorted(e.phi.items())), is_restart(e))
                  for e in g2.edges) == \
        sorted((e.src, e.dst, tuple(sorted(e.phi.items())), is_restart(e))
               for e in g.edges)
    assert serialize(g2) == text  # deterministic, diffable


@pytest.mark.parametrize("value", [1, np.float64(1.0)],
                         ids=["int", "numpy-float"])
def test_serialize_writes_each_value_as_its_float(value):
    g = GroundedGraph(query="q(a,X)")
    add_node(g)
    add_edge(g, 0, 0, {"f": value})
    text = serialize(g)
    assert text.splitlines()[1] == "edge\t0\t0\tf=1.0"
    assert serialize(deserialize(text)[0]) == text


def test_serialize_multiple_records():
    g = sample_graph()
    text = serialize(g) + "\n" + serialize(g)
    assert len(deserialize(text)) == 2


def test_deserialize_edge_count_mismatch():
    text = serialize(sample_graph()).replace("\t6\n", "\t7\n", 1)
    with pytest.raises(ValueError, match="declares"):
        deserialize(text)


@pytest.mark.parametrize("fn", [LINEAR, EXP])
def test_numeric_probabilities_are_distributions(fn):
    rng = random.Random(2)
    for _ in range(10):
        g = random_grounded_graph(rng, rng.randint(3, 40))
        ng = NumericGraph(g)
        w = ParameterVector({f"f{i}": rng.uniform(0.5, 1.5) for i in range(6)})
        prob, info = ng.probabilities(w, fn, 0.1)
        sums = np.zeros(ng.n)
        np.add.at(sums, ng.src, prob)
        assert sums == pytest.approx(np.ones(ng.n), abs=1e-12)
        assert (prob >= 0).all()


def test_numeric_matches_oracle_matrix():
    rng = random.Random(9)
    g = random_grounded_graph(rng, 25)
    w = ParameterVector({"f0": 2.0, "f1": 0.3})
    ng = NumericGraph(g)
    prob, _ = ng.probabilities(w, LINEAR, 0.1)
    W = np.zeros((ng.n, ng.n))
    for e, p in zip(range(len(prob)), prob):
        W[ng.src[e], ng.dst[e]] += p
    assert W == pytest.approx(
        oracle_transition_matrix(g, w, "linear", 0.1), abs=1e-12)


def test_restart_floor_in_numeric_view():
    g = GroundedGraph()
    add_node(g)
    add_node(g)
    add_edge(g, 0, 0, {RESTART_FEATURE: 0.001})
    add_edge(g, 0, 1, {"f": 1.0})
    ng = NumericGraph(g)
    prob, info = ng.probabilities(ParameterVector(), LINEAR, 0.1)
    restart_prob = prob[ng.restart_mask & (ng.src == 0)][0]
    assert restart_prob == pytest.approx(0.1)
    assert info["clamped"].any()


def test_dangling_node_gets_implicit_restart():
    g = GroundedGraph()
    add_node(g)
    add_node(g)
    add_edge(g, 0, 1, {"f": 1.0})
    add_edge(g, 0, 0, {RESTART_FEATURE: 1.0})
    ng = NumericGraph(g)
    prob, _ = ng.probabilities(ParameterVector(), LINEAR, 0.1)
    mask = ng.src == 1
    assert mask.sum() == 1
    assert prob[mask][0] == pytest.approx(1.0)
    assert ng.dst[mask][0] == 0


def test_raw_weights_agree_with_edge_weight():
    # The numeric view must weight edges as the push loop's edge_weight
    # does, and each weighting function's array form and slope must
    # agree with its scalar value.
    g = GroundedGraph()
    add_node(g)
    add_node(g)
    add_edge(g, 0, 1, {"f": 1.0})
    add_edge(g, 0, 0, {RESTART_FEATURE: 1.0})
    ng = NumericGraph(g)
    w = ParameterVector({"f": 3.0})
    for fn in (LINEAR, EXP):
        _, raw = ng.raw_weights(w, fn)
        assert raw[(ng.src == 0) & (ng.dst == 1)][0] == pytest.approx(
            edge_weight(fn, w, {"f": 1.0}))
        # away from the linear floor's kink at 1e-9; the scalar form must
        # pass NaN and the infinities as the array form does
        dots = np.array([-2.0, -0.5, 1e-3, 0.7, 3.0])
        every = np.array([*dots, np.nan, np.inf, -np.inf])
        assert list(fn.array(every)) == pytest.approx(
            [fn.value(d) for d in every], rel=1e-15, nan_ok=True)
        with pytest.raises(ValueError, match="non-finite edge weight nan"):
            edge_weight(fn, ParameterVector({"f": np.nan}), {"f": 1.0})
        values = fn.array(dots)
        slope = fn.slope(dots, values)
        assert not np.shares_memory(slope, values)
        h = 1e-6
        assert list(slope) == pytest.approx(
            [(fn.value(d + h) - fn.value(d - h)) / (2 * h) for d in dots],
            rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("name", ["by(a)b)", "by(a(b", "by(a\tb)",
                                  "by(a\nb)"])
def test_serialize_refuses_name_that_reads_back_differently(name):
    # by(a)b) would read back merged with the next feature
    g = sample_graph()
    add_edge(g, 1, 1, {name: 1.0, "sim": 1.0})
    add_edge(g, 2, 1, {name: 2.0})
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        serialize(g)


@pytest.mark.parametrize("name", ["by('a)b')", "by('a,b')", "by('(')",
                                  "by('it\\'s','c\\\\')"])
def test_serialize_round_trips_quoted_name(name):
    g = sample_graph()
    add_edge(g, 1, 1, {name: 1.0, "sim": 1.0})
    back = deserialize(serialize(g))[0]
    assert [e.phi for e in back.edges if e.src == e.dst == 1] == [
        {name: 1.0, "sim": 1.0}]
    assert serialize(back) == serialize(g)


@pytest.mark.parametrize("old,new", [
    ("\nsol\t", "\nsolution\t"),
    ("\nedge\t1\t2\t", "\nedge\t1\t3\t"),
    ("\nedge\t2\t0\t", "\nedge\t-1\t0\t"),
    ("\nsol\t2\t", "\nsol\t7\t"),
    ("q(a,X)\t0\t", "q(a,X)\t3\t"),
    ("\tdb=1.0\n", "\t1.0\n"),
    ("\tq(a,b)\t+\n", "\tq(a,b)\t?\n"),
    ("\tdb=1.0\n", "\tby(a=1.0,db=2.0\n"),
    ("\tdb=1.0\n", "\tdb=x\n"),
    ("\tdb=1.0\n", "\n"),
    ("\tdb=1.0\n", "\tdb=1.0\tx\n"),
    ("q(a,X)\t0\t3\t6\n", "q(a,X)\t0\t3\n"),
    ("q(a,X)\t0\t3\t", "q(a,X)\t0\tthree\t"),
    ("\nsol\t2\tq(a,b)\t+\n", "\nsol\t1\n"),
], ids=["line-kind", "edge-dst", "edge-src", "solution", "start",
        "feature-name", "label", "unreadable-name", "feature-value",
        "edge-no-features", "edge-extra-field", "header-fields",
        "node-count", "solution-no-answer"])
def test_deserialize_rejects_malformed_record(old, new):
    text = serialize(sample_graph())
    assert text.count(old) == 1
    with pytest.raises(ValueError, match=re.escape("q(a,X)")):
        deserialize(text.replace(old, new))


def test_restart_is_the_edge_carrying_def_restart():
    # the restart of node 0 is clamped by the alpha' floor; in memory and
    # after a round trip it is the same edge, so the walk is the same
    g = GroundedGraph(query="q(X)")
    add_node(g)
    add_node(g)
    add_edge(g, 0, 1, {"f": 1.0})
    add_edge(g, 0, 0, {RESTART_FEATURE: 0.01})
    add_edge(g, 1, 0, {RESTART_FEATURE: 1.0})
    add_edge(g, 1, 1, {"id(selfLoop)": 1.0})
    g.solutions[1] = "q(a)"
    (back,) = deserialize(serialize(g))
    assert serialize(back) == serialize(g)
    w = ParameterVector()
    v = power_iterate(g, w, LINEAR, alpha_prime=0.1)
    assert list(power_iterate(back, w, LINEAR, alpha_prime=0.1)) == list(v)


@pytest.mark.parametrize("fn", [LINEAR, EXP])
def test_frontier_restarts_have_probability_one(fn, hyperlink_program,
                                                hyperlink_store):
    g = ground_full(parse_atom("about(a,Z)"), hyperlink_program,
                    hyperlink_store, GroundingParams(max_T=2))
    frontier = set(range(g.num_nodes)) - {e.src for e in g.edges}
    assert frontier
    ng = NumericGraph(g)
    w = ParameterVector({"db": 3.0, RESTART_FEATURE: 0.5})
    prob, _ = ng.probabilities(w, fn, 0.1)
    appended = np.isin(ng.src, sorted(frontier))
    assert appended.sum() == len(frontier) == ng.num_edges - g.num_edges
    assert (prob[appended] == 1.0).all()
    assert (ng.dst[appended] == g.start).all()

"""The columnar grounded graph against the Edge-at-a-time reference.

``NumericGraph`` builds its arrays from the graph's columns and its table
of distinct feature vectors; ``edge_numeric`` builds them from the
``edges`` tuple, one edge at a time, as the graph did when it stored
``Edge`` tuples.  The corpus is the conftest random graphs plus real
groundings of the synthetic hyperlink and citation programs, each in
memory and after a record round trip.
"""

import random
from functools import lru_cache

import numpy as np
import pytest

from conftest import random_grounded_graph
from edge_numeric import edge_numeric
from graph_build import add_edge, add_node
from pprlog.facts import load_facts
from pprlog.graph import (RESTART_FEATURE, GroundedGraph, NumericGraph,
                          deserialize, serialize)
from pprlog.grounder import GroundingParams, approximate_ground, ground_full
from pprlog.parser import parse_atom, parse_program
from pprlog.synth import (CITATION_RULES, HYPERLINK_RULES, SyntheticDbSpec,
                          citation_corpus, hyperlink_db)
from pprlog.weights import LINEAR, ParameterVector

SEEDS = (0, 1, 2)


def synthetic_tasks(seed: int):
    """(name, rules, facts, queries) of the two synthetic programs."""
    facts, queries = hyperlink_db(SyntheticDbSpec(40, 4.0, 20, seed),
                                  num_queries=3)
    yield "hyperlink", HYPERLINK_RULES, facts, queries.split()
    facts, train, _ = citation_corpus(num_papers=4, seed=seed)
    yield ("citation", CITATION_RULES, facts,
           [line.split("\t")[0] for line in train.splitlines()[:3]])


@lru_cache(maxsize=None)
def corpus() -> dict[str, GroundedGraph]:
    graphs = {}
    rng = random.Random(4)
    for i in range(12):
        graphs[f"random{i}"] = random_grounded_graph(rng, rng.randint(1, 40))
    for seed in SEEDS:
        for task, rules, facts, queries in synthetic_tasks(seed):
            program, store = parse_program(rules), load_facts(facts)
            for j, text in enumerate(queries):
                q = parse_atom(text)
                graphs[f"{task}{seed}-{j}-approx"] = approximate_ground(
                    q, program, store, GroundingParams(), ParameterVector(),
                    LINEAR)[0]
                graphs[f"{task}{seed}-{j}-full"] = ground_full(
                    q, program, store, GroundingParams(max_T=4))
    return graphs


NAMES = list(corpus())


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("round_trip", [False, True], ids=["memory", "record"])
def test_numeric_graph_matches_edge_reference(name, round_trip):
    g = corpus()[name]
    if round_trip:
        (g,) = deserialize(serialize(g))
    ng, want = NumericGraph(g), edge_numeric(g)
    assert ng.feat_names == want.pop("feat_names")
    for field, array in want.items():
        got = getattr(ng, field)
        assert got.dtype == array.dtype, field
        assert got.tobytes() == array.tobytes(), field


@pytest.mark.parametrize("name", NAMES)
def test_record_round_trip_is_identity(name):
    text = serialize(corpus()[name])
    assert serialize(deserialize(text)[0]) == text


def test_table_holds_each_vector_once_in_first_use_order():
    g = GroundedGraph(query="q(X)")
    for _ in range(3):
        add_node(g)
    shared = {"db": 1.0}
    add_edge(g, 0, 1, shared)
    add_edge(g, 0, 0, {RESTART_FEATURE: 1.0})
    add_edge(g, 1, 2, {"db": 1.0})
    add_edge(g, 0, 2, shared)
    assert list(g.phi_id) == [0, 1, 0, 0]
    assert g.phis == [(("db", 1.0),), ((RESTART_FEATURE, 1.0),)]
    # the same names in another order are another vector
    add_edge(g, 2, 2, {"b": 1.0, "a": 2.0})
    add_edge(g, 2, 1, {"a": 2.0, "b": 1.0})
    assert list(g.phi_id)[-2:] == [2, 3]
    assert NumericGraph(g).feat_names == ["db", RESTART_FEATURE, "b", "a"]


def test_edges_cannot_change_the_graph():
    g = GroundedGraph()
    add_node(g)
    phi = {"f": 1.0}
    add_edge(g, 0, 0, phi)
    phi["f"] = 2.0                   # the caller's dict is copied
    add_edge(g, 0, 0, phi)
    first, second = g.edges
    assert (first.phi, second.phi) == ({"f": 1.0}, {"f": 2.0})
    first.phi["f"] = 5.0             # and each access gives fresh dicts
    assert g.edges[0].phi == {"f": 1.0}
    assert g.edges[0].phi is not g.edges[0].phi
    assert len(g.edges) == g.num_edges == 2
    with pytest.raises(AttributeError):
        g.edges = []


@pytest.mark.parametrize("a,b,lines", [
    (0.0, -0.0, ["edge\t0\t0\tf=0.0", "edge\t0\t0\tf=-0.0"]),
    # a record holds floats, so the int is written as the float it reads as
    (1, 1.0, ["edge\t0\t0\tf=1.0", "edge\t0\t0\tf=1.0"]),
], ids=["signed-zero", "int-float"])
def test_vectors_that_print_differently_do_not_share_an_entry(a, b, lines):
    g = GroundedGraph(query="q")
    add_node(g)
    add_edge(g, 0, 0, {"f": a})
    add_edge(g, 0, 0, {"f": b})
    assert list(g.phi_id) == [0, 1]
    assert [e.phi["f"] for e in g.edges] == [a, b]
    assert [repr(e.phi["f"]) for e in g.edges] == [repr(a), repr(b)]
    assert serialize(g).splitlines()[1:] == lines
    assert np.array_equal(NumericGraph(g).ef_val, [a, b])

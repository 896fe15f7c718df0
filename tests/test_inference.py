import random

import numpy as np
import pytest

from conftest import oracle_exact_ppr, random_grounded_graph
from graph_build import add_edge, add_node
from pprlog.graph import GroundedGraph, RESTART_FEATURE
from pprlog.inference import (auc, average_precision, extract_answers,
                              power_iterate)
from pprlog.weights import EXP, LINEAR, ParameterVector


def test_single_absorbing_node():
    g = GroundedGraph()
    add_node(g)
    add_edge(g, 0, 0, {RESTART_FEATURE: 1.0})
    v = power_iterate(g, ParameterVector(), LINEAR, T=50)
    assert v[0] == pytest.approx(1.0)


def test_two_node_matches_dense_solve():
    g = GroundedGraph()
    add_node(g)
    add_node(g)
    add_edge(g, 0, 0, {RESTART_FEATURE: 1.0})
    add_edge(g, 0, 1, {"f": 4.0})
    add_edge(g, 1, 0, {RESTART_FEATURE: 1.0})
    v = power_iterate(g, ParameterVector(), LINEAR, T=500, tol=1e-14)
    exact = oracle_exact_ppr(g, ParameterVector(), "linear", 0.1)
    assert v == pytest.approx(exact, abs=1e-10)


def test_three_node_chain_matches_dense_solve():
    g = GroundedGraph()
    for _ in range(3):
        add_node(g)
    for u in range(3):
        add_edge(g, u, 0, {RESTART_FEATURE: 1.0})
    add_edge(g, 0, 1, {"f": 1.0})
    add_edge(g, 1, 2, {"f": 1.0})
    add_edge(g, 2, 2, {"id(selfLoop)": 1.0})
    v = power_iterate(g, ParameterVector(), LINEAR, T=2000, tol=1e-15)
    exact = oracle_exact_ppr(g, ParameterVector(), "linear", 0.1)
    assert v == pytest.approx(exact, abs=1e-10)


def test_random_graphs_match_dense_solve():
    rng = random.Random(13)
    for _ in range(8):
        g = random_grounded_graph(rng, rng.randint(10, 200))
        w = ParameterVector({f"f{i}": rng.uniform(0.5, 2.0)
                             for i in range(6)})
        v = power_iterate(g, w, LINEAR, T=3000, tol=1e-14)
        exact = oracle_exact_ppr(g, w, "linear", 0.1)
        assert np.abs(v - exact).max() < 1e-8


def test_non_finite_exp_weight_names_the_edge():
    g = GroundedGraph()
    for _ in range(3):
        add_node(g)
    add_edge(g, 0, 0, {RESTART_FEATURE: 1.0})
    add_edge(g, 0, 1, {"f": 1.0})
    add_edge(g, 0, 2, {"big": 1.0})
    with (pytest.raises(ValueError, match="non-finite weight on edge 0->2"),
          np.errstate(over="ignore")):    # exp(1000) overflows to inf
        power_iterate(g, ParameterVector({"big": 1000.0}), EXP)


def test_extract_answers_renormalizes():
    g = GroundedGraph()
    for _ in range(3):
        add_node(g)
    g.solutions[1] = "q(a)"
    g.solutions[2] = "q(b)"
    answers = extract_answers(g, np.array([0.5, 0.3, 0.1]))
    assert answers == [("q(a)", pytest.approx(0.75)),
                       ("q(b)", pytest.approx(0.25))]


def test_extract_answers_scale_invariant():
    g = GroundedGraph()
    for _ in range(3):
        add_node(g)
    g.solutions[1] = "q(a)"
    g.solutions[2] = "q(b)"
    v = np.array([0.5, 0.3, 0.1])
    a1 = extract_answers(g, v)
    a2 = extract_answers(g, 7.5 * v)
    assert [p for _, p in a1] == pytest.approx([p for _, p in a2])


def test_extract_answers_empty():
    g = GroundedGraph()
    add_node(g)
    assert extract_answers(g, np.array([1.0])) == []


def test_extract_single_solution_probability_one():
    g = GroundedGraph()
    for _ in range(2):
        add_node(g)
    g.solutions[1] = "q(a)"
    answers = extract_answers(g, np.array([0.9, 0.001]))
    assert answers == [("q(a)", pytest.approx(1.0))]


RANKINGS = {
    # ranked items, best first, scored 0.4, 0.3, 0.2, 0.1; (AP, AUC)
    "perfect": (["p1", "p2", "n1", "n2"], 1.0, 1.0),
    "inverted": (["n1", "n2", "p1", "p2"], (1 / 3 + 2 / 4) / 2, 0.0),
    # [+,-,+,-]: AP = (1/1 + 2/3)/2, AUC = 3 wins of 4 pairs
    "interleaved": (["p1", "n1", "p2", "n2"], (1.0 + 2.0 / 3.0) / 2, 0.75),
}


@pytest.mark.parametrize("ranked,ap,area", RANKINGS.values(), ids=RANKINGS)
def test_average_precision_and_auc_of_rankings(ranked, ap, area):
    assert average_precision(ranked, {"p1", "p2"}) == pytest.approx(ap)
    scores = dict(zip(ranked, (0.4, 0.3, 0.2, 0.1)))
    assert auc(scores, {"p1", "p2"}) == pytest.approx(area)


def test_auc_ties_average():
    assert auc({"p": 0.5, "n": 0.5}, {"p"}) == pytest.approx(0.5)


def test_map_counts_missing_relevant():
    assert average_precision(["p1", "n1"], {"p1", "p2"}) == pytest.approx(0.5)


def test_auc_needs_both_classes():
    with pytest.raises(ValueError):
        auc({"p": 1.0}, {"p"})

"""Float sums are added one at a time from the left.

From Python 3.12 ``sum`` adds floats with compensation, which changes the
last bits of a total; the package adds left to right instead, so a seed
gives the same bytes on every Python it supports.  Each case uses values
whose left-to-right total differs from the exactly rounded one
(``math.fsum``, which the compensated ``sum`` gives on these values).
"""

import math

import numpy as np

from graph_build import add_node
from pprlog.graph import GroundedGraph, RESTART_FEATURE
from pprlog.grounder import pagerank_nibble, transition_distribution
from pprlog.inference import extract_answers
from pprlog.weights import (EXP, LINEAR, LINEAR_FLOOR, ParameterVector,
                            edge_weight, left_sum)

# left to right the 1.0 is lost against 1e16, and the 0.1s miss 1.0
CANCELLING = [0.1] * 10 + [1e16, 1.0, -1e16]
LOST = [1e16, 1.0, 1.0]


def left_to_right(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def test_left_sum_adds_from_the_left():
    assert math.fsum(CANCELLING) == 2.0
    assert left_sum(CANCELLING) == 0.0
    assert left_sum(LOST) == 1e16 != math.fsum(LOST)
    assert left_sum([]) == 0.0 and left_sum(iter([1.5])) == 1.5


def test_edge_weight_dot_product_adds_from_the_left():
    phi = {f"f{i}": v for i, v in enumerate(CANCELLING)}
    # dot = 0.0: the linear floor, and exp(0)
    assert edge_weight(LINEAR, ParameterVector(), phi) == LINEAR_FLOOR
    assert edge_weight(EXP, ParameterVector(), phi) == 1.0


def test_transition_total_adds_from_the_left():
    successors = [(f"s{i}", {f"f{i}": v}) for i, v in enumerate(LOST)]
    dist = transition_distribution(successors, {RESTART_FEATURE: 1.0},
                                   ParameterVector(), LINEAR, 0.1,
                                   restart_target="v0")
    s = left_to_right(LOST)
    r0 = max(1.0, 0.1 * s / 0.9)
    assert [p for _, p, _ in dist] == [v / (s + r0) for v in (*LOST, r0)]


def test_answer_mass_adds_from_the_left():
    g = GroundedGraph()
    for answer in ("q(a)", "q(b)", "q(c)"):
        g.solutions[add_node(g)] = answer
    # over the total 1e16; over the exactly rounded 1e16 + 2, q(a) would
    # get 0.9999999999999998
    assert extract_answers(g, np.array(LOST)) == [
        ("q(a)", 1.0), ("q(b)", 1 / 1e16), ("q(c)", 1 / 1e16)]


def test_residual_mass_adds_from_the_left():
    # the one push spreads 0.09 to each of ten leaves, not above epsilon
    def expand(node):
        return [*[(f"c{i}", 0.09, {"f": 1.0}) for i in range(10)],
                ("s", 0.1, {RESTART_FEATURE: 1.0})]
    _, r, _, stats = pagerank_nibble("s", expand, 0.1, 0.09)
    assert left_to_right(r.values()) != math.fsum(r.values())
    assert stats.residual_mass == left_to_right(r.values())

"""Exact restart-walk inference on grounded graphs, and ranking metrics."""

from __future__ import annotations

import numpy as np

from .graph import GroundedGraph, NumericGraph
from .kernels import power_iterate_arrays
from .weights import ParameterVector, WeightFn, left_sum


def power_iterate(g: GroundedGraph, w: ParameterVector, fn: WeightFn,
                  T: int = 100, tol: float = 1e-10,
                  alpha_prime: float = 0.1) -> np.ndarray:
    """T-step walk distribution from the start node (dense over node ids).

    Stops early when the L1 change between iterations falls below tol.
    The restart floor at alpha_prime is part of the transition model.
    """
    ng = NumericGraph(g)
    prob, _ = ng.probabilities(w, fn, alpha_prime)
    v, _ = power_iterate_arrays(ng.src, ng.dst, prob, ng.n, ng.start, T, tol)
    return v


def extract_answers(g: GroundedGraph, v) -> list[tuple[str, float]]:
    """The ranked (answer, probability) pairs: each answer's solution-node
    mass renormalized over all answers; [] when no answer has mass."""
    masses: dict[str, float] = {}
    for nid in sorted(g.solutions):
        mass = v[nid] if nid < len(v) else 0.0
        answer = g.solutions[nid]
        masses[answer] = masses.get(answer, 0.0) + float(mass)
    z = left_sum(masses.values())
    if z <= 0.0:
        return []
    return sorted(((a, m / z) for a, m in masses.items()),
                  key=lambda kv: (-kv[1], kv[0]))


def average_precision(ranked: list[str], relevant: set[str]) -> float:
    """Mean of precision at each relevant hit, over all relevant items."""
    if not relevant:
        raise ValueError("average precision needs a nonempty relevant set")
    hits = 0
    total = 0.0
    for i, item in enumerate(ranked, 1):
        if item in relevant:
            hits += 1
            total += hits / i
    return total / len(relevant)


def auc(scores: dict[str, float], relevant: set[str],
        universe=None) -> float:
    """Probability that a random positive outscores a random negative.

    Tied pairs count 1/2.  ``universe`` defaults to the scored items plus
    the relevant set; anything unscored gets score 0.
    """
    if universe is None:
        universe = set(scores) | set(relevant)
    pos = [scores.get(x, 0.0) for x in universe if x in relevant]
    neg = [scores.get(x, 0.0) for x in universe if x not in relevant]
    if not pos or not neg:
        raise ValueError("AUC needs at least one positive and one negative")
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


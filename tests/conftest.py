"""Shared fixtures: the toy hyperlink program, random grounded graphs,
and an independent dense oracle for the restart walk.

The oracle builds the dense transition matrix straight from the edge
feature vectors (its own weighting, flooring, and normalization code) and
solves the stationary linear system; it never touches NumericGraph or the
kernels it is used to check.

Hypothesis runs derandomized, so every run of the suite tries the same
examples.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import settings

from graph_build import add_edge, add_node, is_restart
from pprlog.facts import load_facts
from pprlog.graph import GroundedGraph, RESTART_FEATURE
from pprlog.parser import parse_program

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

TABLE_PROGRAM = """\
about(X,Z) :- handLabeled(X,Z)    # base.
about(X,Z) :- sim(X,Y),about(Y,Z)   # prop.
sim(X,Y) :- links(X,Y)              # sim,link.
sim(X,Y) :- hasWord(X,W),hasWord(Y,W),linkedBy(X,Y,W) # sim,word.
linkedBy(X,Y,W) :- true             # by(W).
"""

HYPERLINK_FACTS = """\
links\ta\tb
links\tb\tc
links\tc\td
hasWord\ta\tsprinter
hasWord\tc\tsprinter
hasWord\td\tfashion
handLabeled\tb\tfashion
handLabeled\tc\tsport
handLabeled\td\tfashion
"""


@pytest.fixture
def hyperlink_program():
    return parse_program(TABLE_PROGRAM)


@pytest.fixture
def hyperlink_store():
    return load_facts(HYPERLINK_FACTS)


def random_grounded_graph(rng: random.Random, n: int, num_features: int = 6,
                          max_degree: int = 4,
                          solution_fraction: float = 0.3) -> GroundedGraph:
    """A random graph with grounded-graph structure: node 0 is the start,
    every node has a restart edge, some nodes are solutions with
    self-loops."""
    g = GroundedGraph()
    for i in range(n):
        add_node(g, f"n{i}")
    feats = [f"f{i}" for i in range(num_features)]
    for u in range(n):
        add_edge(g, u, 0, {RESTART_FEATURE: rng.uniform(0.2, 2.0)})
        if rng.random() < solution_fraction:
            g.solutions[u] = f"answer{u}"
            add_edge(g, u, u, {"id(selfLoop)": 1.0})
        else:
            deg = rng.randint(1, max_degree)
            for dst in rng.sample(range(n), deg):
                phi = {rng.choice(feats): rng.uniform(0.5, 2.0)}
                if rng.random() < 0.3:
                    phi[rng.choice(feats)] = rng.uniform(0.5, 2.0)
                add_edge(g, u, dst, phi)
    return g


def oracle_transition_matrix(g: GroundedGraph, w, fn_name: str,
                             alpha_prime: float) -> np.ndarray:
    """Dense row-stochastic transition matrix, recomputed from scratch."""
    n = g.num_nodes
    W = np.zeros((n, n))
    outgoing = {}
    for e in g.edges:
        outgoing.setdefault(e.src, []).append(e)
    for u in range(n):
        edges = outgoing.get(u)
        if not edges:
            W[u, g.start] = 1.0  # unexpanded frontier node: restart only
            continue
        raws = []
        for e in edges:
            dot = sum(w[name] * val for name, val in e.phi.items())
            raw = math.exp(dot) if fn_name == "exp" else max(dot, 1e-9)
            raws.append(raw)
        s = sum(r for e, r in zip(edges, raws) if not is_restart(e))
        for i, e in enumerate(edges):
            if is_restart(e) and raws[i] < alpha_prime * s / (1 - alpha_prime):
                raws[i] = alpha_prime * s / (1 - alpha_prime)
        z = sum(raws)
        for e, r in zip(edges, raws):
            W[u, e.dst] += r / z
    return W


def oracle_stationary(W: np.ndarray, start: int) -> np.ndarray:
    """Stationary distribution of the restart walk by dense linear solve."""
    n = W.shape[0]
    A = np.vstack([np.eye(n) - W.T, np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi


def oracle_exact_ppr(g: GroundedGraph, w, fn_name: str,
                     alpha_prime: float) -> np.ndarray:
    return oracle_stationary(
        oracle_transition_matrix(g, w, fn_name, alpha_prime), g.start)


def graph_expander(g: GroundedGraph, w, fn, alpha_prime: float):
    """Expander over an in-memory grounded graph, for push-loop tests."""
    from pprlog.grounder import transition_distribution
    outgoing = {}
    for e in g.edges:
        outgoing.setdefault(e.src, []).append(e)

    def expand(u):
        edges = outgoing.get(u, [])
        succ = [(e.dst, e.phi) for e in edges if not is_restart(e)]
        restart = next((e.phi for e in edges if is_restart(e)),
                       {RESTART_FEATURE: 1.0})
        return transition_distribution(succ, restart, w, fn, alpha_prime,
                                       restart_target=g.start)

    return expand

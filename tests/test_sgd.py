"""Training's reverse-mode gradient against the forward-mode Jacobian,
the numeric view cached per grounding, and the SGD configuration that
reaches training."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_grounded_graph
from graph_build import add_edge
from pprlog.graph import (RESTART_FEATURE, SELF_LOOP_FEATURE, GroundedGraph,
                          NumericGraph)
from pprlog.grounder import GroundingParams
from pprlog.kernels import walk_history
from pprlog.learner import (BUILTIN_FEATURES, SgdConfig, TrainingExample,
                            example_gradient, label_grounding, pair_loss,
                            ppr_gradient, train, train_on_groundings)
from pprlog.parser import parse_atom
from pprlog.weights import EXP, LINEAR, ParameterVector
from test_learner import toy_classifier_task

ALPHA_PRIME = 0.1


def labeled(g, sols=None):
    """Label the first half of the solutions (by id, or in the order given)
    positive and the rest negative."""
    sols = sorted(g.solutions) if sols is None else sols
    cut = max(1, len(sols) // 2)
    ex = TrainingExample(parse_atom("q(a,X)"),
                         tuple(g.solutions[s] for s in sols[:cut]),
                         tuple(g.solutions[s] for s in sols[cut:]))
    return label_grounding(ex, g)


def grounding_with_every_edge_kind(rng, w, fn):
    """A usable random grounding with clamped restarts, nodes left without
    edges (so they restart implicitly), and edges carrying only some of
    the features.  The solutions with the least walk mass are the
    positives, so the squared hinge is active."""
    while True:
        full = random_grounded_graph(rng, rng.randint(12, 30))
        dangling = set(rng.sample(range(1, full.num_nodes), 3))
        g = GroundedGraph(full.nodes, solutions=full.solutions)
        for e in full.edges:
            if e.src not in dangling:
                add_edge(g, *e)
        ng = NumericGraph(g)
        prob, info = ng.probabilities(w, fn, ALPHA_PRIME)
        V = walk_history(ng.src, ng.dst, prob, ng.n, ng.start, 8)
        lg = labeled(g, sorted(g.solutions, key=lambda s: (V[-1, s], s)))
        # the walk must leave a node with a clamped restart before the
        # last step, or the clamp's share of the gradient is zero
        if lg.usable and V[:-1, ng.src[info["clamped"]]].any():
            assert ng.num_edges - g.num_edges == len(dangling)
            return lg


def pair_coefficients(lg, v, loss):
    """d(pairwise loss)/d(v), written out independently of the learner."""
    coef = np.zeros(len(v))
    for up in lg.pos_nodes:
        for un in lg.neg_nodes:
            if loss == "squared":
                dh = pair_loss(v[up] - v[un])[1]
                coef[up] += dh
                coef[un] -= dh
            else:
                coef[up] -= 1.0 / min(max(v[up], 1e-12), 1.0 - 1e-12)
                coef[un] += 1.0 / (1.0 - min(max(v[un], 1e-12), 1.0 - 1e-12))
    return coef


def assert_reverse_matches_forward(lg, w, fn, cfg):
    """``example_gradient`` equals the forward Jacobian ``ppr_gradient``
    gives, chained through the pair coefficients, plus the L2 term."""
    grad, _, _ = example_gradient(lg, w, fn, cfg, ALPHA_PRIME)
    v, grads, names = ppr_gradient(lg.graph, w, fn, cfg.ppr_T, ALPHA_PRIME)
    coef = pair_coefficients(lg, v, cfg.loss)
    assert coef.any()
    expected = {name: g + 2.0 * cfg.mu * w[name]
                for name, g in zip(names, grads @ coef)
                if name not in cfg.fixed_features}
    assert grad.keys() == expected.keys()
    for name, value in expected.items():
        assert abs(grad[name] - value) <= 1e-12 * max(1.0, abs(value))


@pytest.mark.parametrize("fn,loss", [(fn, loss) for fn in (LINEAR, EXP)
                                     for loss in ("squared", "log")],
                         ids=lambda x: getattr(x, "name", x))
def test_reverse_mode_matches_forward_jacobian(fn, loss):
    rng = random.Random(17)
    cfg = SgdConfig(mu=0.01, loss=loss, ppr_T=8)
    for _ in range(6):
        # each edge carries one or two of the six features
        w = ParameterVector({f"f{i}": rng.uniform(0.3, 2.0)
                             for i in range(6)})
        lg = grounding_with_every_edge_kind(rng, w, fn)
        assert_reverse_matches_forward(lg, w, fn, cfg)


FEATURES = ("f0", "f1", "f2", "f3")


@st.composite
def drawn_groundings(draw) -> GroundedGraph:
    """A grounding of 4 to 10 nodes.  The start, node 0, leads to node 1,
    a frontier node with no edges, and to nodes 2 and 3, solutions with
    self-loops.  Each other node is a frontier node, a solution or an
    inner node with one to three edges, each of one or two features.
    Every node with edges has a restart edge to the start, some with a
    value low enough to be clamped."""
    n = draw(st.integers(4, 10))
    kinds = ["inner", "frontier", "solution", "solution", *draw(st.lists(
        st.sampled_from(["inner", "solution", "frontier"]),
        min_size=n - 4, max_size=n - 4))]
    value = st.floats(0.25, 2.0)
    g = GroundedGraph([f"n{u}" for u in range(n)])
    for u, kind in enumerate(kinds):
        if kind == "frontier":
            continue
        add_edge(g, u, 0, {RESTART_FEATURE: draw(
            st.one_of(st.floats(0.005, 0.05), value))})
        if kind == "solution":
            g.solutions[u] = f"answer{u}"
            add_edge(g, u, u, {SELF_LOOP_FEATURE: 1.0})
            continue
        targets = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=3, unique=True))
        if u == 0:
            targets = [1, 2, 3, *(t for t in targets if t > 3)]
        for dst in targets:
            features = draw(st.lists(st.sampled_from(FEATURES), min_size=1,
                                     max_size=2, unique=True))
            add_edge(g, u, dst, {f: draw(value) for f in features})
    return g


@settings(max_examples=150, deadline=None)
@given(g=drawn_groundings(), fn=st.sampled_from([LINEAR, EXP]),
       loss=st.sampled_from(["squared", "log"]),
       weights=st.lists(st.floats(-1.0, 2.0), min_size=5, max_size=5))
def test_reverse_mode_matches_forward_jacobian_on_drawn_groundings(
        g, fn, loss, weights):
    # a low restart weight clamps restarts; a weight below 0 floors
    # LINEAR edges, whose slope is then 0
    w = ParameterVector(zip((*FEATURES, RESTART_FEATURE), weights))
    cfg = SgdConfig(mu=0.01, loss=loss, ppr_T=8)
    ng = NumericGraph(g)
    prob, info = ng.probabilities(w, fn, ALPHA_PRIME)
    V = walk_history(ng.src, ng.dst, prob, ng.n, ng.start, cfg.ppr_T)
    # the solutions with the least walk mass are the positives, so the
    # squared hinge is active where the masses differ
    lg = labeled(g, sorted(g.solutions, key=lambda s: (V[-1, s], s)))
    assume(V[-1, lg.pos_nodes].min() < V[-1, lg.neg_nodes].max())
    # the walk leaves a node with a clamped restart before its last step
    assume(V[:-1, ng.src[info["clamped"]]].any())
    assert_reverse_matches_forward(lg, w, fn, cfg)


def test_numeric_view_is_built_once_per_grounding(monkeypatch):
    rng = random.Random(3)
    groundings = [labeled(random_grounded_graph(rng, rng.randint(5, 25)))
                  for _ in range(12)]
    usable = [lg for lg in groundings if lg.usable]
    assert 0 < len(usable) < len(groundings)
    built = []
    init = NumericGraph.__init__

    def counting_init(self, g):
        built.append(g)
        init(self, g)

    monkeypatch.setattr(NumericGraph, "__init__", counting_init)
    result = train_on_groundings(groundings, SgdConfig(epochs=5, ppr_T=6))
    assert len(result.epoch_losses) == 5
    assert len(built) == len(usable)
    assert {id(g) for g in built} == {id(lg.graph) for lg in usable}


def test_train_keeps_custom_fixed_features():
    prog, store, examples = toy_classifier_task()
    params = GroundingParams(epsilon=1e-3)
    fixed = BUILTIN_FEATURES | {"c1"}
    base = train(examples, prog, store, params, SgdConfig(epochs=2), seed=1)
    pinned = train(examples, prog, store, params,
                   SgdConfig(epochs=2, fixed_features=fixed), seed=1)
    init = 1.0 + random.Random("1:c1").uniform(0.0, 0.01)
    assert pinned.weights["c1"] == init
    assert base.weights["c1"] != init
    assert pinned.weights == train(
        examples, prog, store, params,
        SgdConfig(epochs=2, fixed_features=fixed), seed=1).weights

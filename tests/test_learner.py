import random

import numpy as np
import pytest

from conftest import random_grounded_graph
from graph_build import add_edge, add_node
from pprlog.facts import load_facts
from pprlog.graph import NumericGraph
from pprlog.grounder import GroundingParams
from pprlog.inference import power_iterate
from pprlog.learner import (LabeledGrounding, SgdConfig, TrainingDiverged,
                            TrainingExample, example_gradient,
                            ground_examples, label_grounding, pair_loss,
                            ppr_gradient, train, train_on_groundings)
from pprlog.parser import parse_atom, parse_program
from pprlog.weights import EXP, LINEAR, ParameterVector

ALPHA_PRIME = 0.1


def test_pair_loss_values():
    assert pair_loss(-0.3) == (pytest.approx(0.09), pytest.approx(-0.6))
    assert pair_loss(0.5) == (0.0, 0.0)
    assert pair_loss(0.0) == (0.0, 0.0)


def fd_gradient(g, w, fn, feature, T, h=1e-6):
    """Central finite differences of the full walk vector wrt one weight."""
    wp, wm = w.copy(), w.copy()
    wp[feature] = w[feature] + h
    wm[feature] = w[feature] - h
    vp = power_iterate(g, wp, fn, T=T, tol=0.0, alpha_prime=ALPHA_PRIME)
    vm = power_iterate(g, wm, fn, T=T, tol=0.0, alpha_prime=ALPHA_PRIME)
    return (vp - vm) / (2 * h)


@pytest.mark.parametrize("fn", [LINEAR, EXP])
def test_ppr_gradient_matches_finite_differences(fn):
    rng = random.Random(21)
    for trial in range(6):
        g = random_grounded_graph(rng, rng.randint(5, 30))
        w = ParameterVector({f"f{i}": rng.uniform(0.8, 1.2)
                             for i in range(6)})
        v, grads, names = ppr_gradient(g, w, fn, T=8,
                                       alpha_prime=ALPHA_PRIME)
        for fi, name in enumerate(names):
            numeric = fd_gradient(g, w, fn, name, T=8)
            err = np.abs(grads[fi] - numeric)
            # relative 1e-4 with an absolute floor for near-zero entries
            assert (err <= 1e-8 + 1e-4 * np.abs(numeric)).all()


def test_gradient_zero_for_absent_feature():
    rng = random.Random(4)
    g = random_grounded_graph(rng, 15)
    w = ParameterVector()
    v, grads, names = ppr_gradient(g, w, LINEAR, T=8)
    assert "ghost" not in names  # absent features simply don't appear


def test_shared_feature_gradient_sign_matches_fd():
    # When all non-restart edges share one feature under linear weighting,
    # raising its weight only shifts mass away from restarts.
    from pprlog.graph import GroundedGraph, RESTART_FEATURE
    g = GroundedGraph()
    for _ in range(3):
        add_node(g)
    for u in range(3):
        add_edge(g, u, 0, {RESTART_FEATURE: 1.0})
    add_edge(g, 0, 1, {"shared": 1.0})
    add_edge(g, 1, 2, {"shared": 1.0})
    add_edge(g, 2, 2, {"shared": 1.0})
    w = ParameterVector()
    v, grads, names = ppr_gradient(g, w, LINEAR, T=12,
                                   alpha_prime=ALPHA_PRIME)
    fi = names.index("shared")
    numeric = fd_gradient(g, w, LINEAR, "shared", T=12)
    assert np.sign(grads[fi][2]) == np.sign(numeric[2]) == 1.0


def make_labeled(rng, n=20):
    g = random_grounded_graph(rng, n)
    sols = sorted(g.solutions)
    if len(sols) < 2:
        return None
    cut = max(1, len(sols) // 2)
    ex = TrainingExample(parse_atom("q(a,X)"),
                         tuple(g.solutions[s] for s in sols[:cut]),
                         tuple(g.solutions[s] for s in sols[cut:]))
    return label_grounding(ex, g)


@pytest.mark.parametrize("fn,loss", [(LINEAR, "squared"), (LINEAR, "log"),
                                     (EXP, "squared"), (EXP, "log")])
def test_example_gradient_matches_finite_differences(fn, loss):
    rng = random.Random(31)
    cfg = SgdConfig(mu=0.001, loss=loss, ppr_T=6)
    checked = 0
    while checked < 4:
        lg = make_labeled(rng)
        if lg is None or not lg.usable:
            continue
        checked += 1
        w = ParameterVector({f"f{i}": rng.uniform(0.9, 1.1)
                             for i in range(6)})
        grad, loss0, _ = example_gradient(lg, w, fn, cfg, ALPHA_PRIME)

        def objective(wx):
            v = power_iterate(lg.graph, wx, fn, T=cfg.ppr_T, tol=0.0,
                              alpha_prime=ALPHA_PRIME)
            total = 0.0
            for up in lg.pos_nodes:
                for un in lg.neg_nodes:
                    if loss == "squared":
                        total += pair_loss(v[up] - v[un])[0]
                    else:
                        # same clip as the implementation
                        total += -np.log(max(v[up], 1e-12)) \
                            - np.log(max(1.0 - v[un], 1e-12))
            for name in NumericGraph(lg.graph).feat_names:
                total += cfg.mu * wx[name] ** 2
            return total

        h = 1e-6
        for name, analytic in grad.items():
            wp, wm = w.copy(), w.copy()
            wp[name] = w[name] + h
            wm[name] = w[name] - h
            numeric = (objective(wp) - objective(wm)) / (2 * h)
            assert abs(analytic - numeric) <= 1e-8 + 1e-4 * abs(numeric)


def test_all_pairs_satisfied_leaves_only_regularizer():
    rng = random.Random(8)
    lg = None
    while lg is None or not lg.usable:
        lg = make_labeled(rng)
    w = ParameterVector()
    v = power_iterate(lg.graph, w, LINEAR, T=6, tol=0.0,
                      alpha_prime=ALPHA_PRIME)
    # relabel so every positive genuinely outscores every negative
    sols = sorted(lg.graph.solutions, key=lambda n: -v[n])
    cut = len(sols) // 2
    ex = TrainingExample(parse_atom("q(a,X)"),
                         tuple(lg.graph.solutions[s] for s in sols[:cut]),
                         tuple(lg.graph.solutions[s] for s in sols[cut:]))
    lg2 = label_grounding(ex, lg.graph)
    if any(v[p] <= v[n] for p in lg2.pos_nodes for n in lg2.neg_nodes):
        pytest.skip("tied masses in this draw")
    cfg = SgdConfig(mu=0.001, ppr_T=6)
    grad, loss, _ = example_gradient(lg2, w, LINEAR, cfg, ALPHA_PRIME)
    for name, gval in grad.items():
        assert gval == pytest.approx(2 * cfg.mu * w[name])


def test_missing_answer_accounting():
    rng = random.Random(12)
    lg = None
    while lg is None or not lg.usable:
        lg = make_labeled(rng)
    ex = lg.example
    ex2 = TrainingExample(ex.query, ex.positives + ("q(zz)",),
                          ex.negatives + ("q(yy)", "q(xx)"))
    lg2 = label_grounding(ex2, lg.graph)
    assert lg2.missing_positives == 1
    assert lg2.missing_negatives == 2
    grad, loss, stats = example_gradient(lg2, ParameterVector(), LINEAR,
                                         SgdConfig(ppr_T=4), ALPHA_PRIME)
    I = len(lg2.pos_nodes) + 1
    J = len(lg2.neg_nodes) + 2
    assert stats.total_pairs == I * J
    assert stats.used_pairs == len(lg2.pos_nodes) * len(lg2.neg_nodes)


def test_unusable_example_raises():
    rng = random.Random(5)
    lg = None
    while lg is None:
        lg = make_labeled(rng)
    bad = label_grounding(TrainingExample(parse_atom("q(a,X)"),
                                          ("nope(a)",), ("nada(b)",)),
                          lg.graph)
    assert not bad.usable
    with pytest.raises(ValueError, match="usable"):
        example_gradient(bad, ParameterVector(), LINEAR, SgdConfig())


# The class choice must be a clause-choice branch carrying per-class
# features: relative weights at that branch stay discriminative even where
# the restart floor pins each node's restart share.
TOY_RULES = """\
predictedClass(Doc,Y) :- hasWord(Doc,W),related(W,Y) # c1.
related(W,pos) :- true # relPos(W).
related(W,neg) :- true # relNeg(W).
"""


def toy_classifier_task(num_docs=8, seed=0):
    rng = random.Random(seed)
    facts = []
    examples = []
    for i in range(num_docs):
        label = "pos" if i % 2 == 0 else "neg"
        words = [f"w_{label}", f"w_{label}2", "w_common"]
        for wrd in words:
            facts.append(f"hasWord\td{i}\t{wrd}")
        examples.append(TrainingExample(
            parse_atom(f"predictedClass(d{i},Y)"),
            (f"predictedClass(d{i},{label})",),
            (f"predictedClass(d{i},{'neg' if label == 'pos' else 'pos'})",)))
    return (parse_program(TOY_RULES), load_facts("\n".join(facts)),
            examples)


def training_auc(groundings, w, T=10):
    wins = pairs = 0.0
    for lg in groundings:
        if not lg.usable:
            continue
        v = power_iterate(lg.graph, w, LINEAR, T=T, tol=0.0,
                          alpha_prime=ALPHA_PRIME)
        for p in lg.pos_nodes:
            for n in lg.neg_nodes:
                wins += 1.0 if v[p] > v[n] else (0.5 if v[p] == v[n] else 0)
                pairs += 1
    return wins / pairs


def test_zero_epochs_returns_initialization():
    prog, store, examples = toy_classifier_task()
    cfg = SgdConfig(epochs=0)
    result = train(examples, prog, store, GroundingParams(epsilon=1e-3), cfg)
    assert result.epoch_losses == []
    for val in result.weights.values():
        assert 1.0 <= val <= 1.01


def test_single_step_improves_violated_pair():
    prog, store, examples = toy_classifier_task()
    params = GroundingParams(epsilon=1e-4)
    groundings = ground_examples(examples[:1], prog, store, params,
                                 ParameterVector(), LINEAR)
    lg = groundings[0]
    assert lg.usable
    w = ParameterVector()
    # log loss: active even at a perfectly tied pair
    cfg = SgdConfig(mu=0.0, ppr_T=10, loss="log")
    v0 = power_iterate(lg.graph, w, LINEAR, T=10, tol=0.0,
                       alpha_prime=ALPHA_PRIME)
    h0 = v0[lg.pos_nodes[0]] - v0[lg.neg_nodes[0]]
    # force a violation by swapping labels if needed
    if h0 >= 0:
        lg = LabeledGrounding(lg.example, lg.graph, lg.neg_nodes,
                              lg.pos_nodes)
        h0 = -h0
    grad, _, _ = example_gradient(lg, w, LINEAR, cfg, ALPHA_PRIME)
    for name, gval in grad.items():
        w[name] = w[name] - 0.5 * gval
    v1 = power_iterate(lg.graph, w, LINEAR, T=10, tol=0.0,
                       alpha_prime=ALPHA_PRIME)
    h1 = v1[lg.pos_nodes[0]] - v1[lg.neg_nodes[0]]
    assert h1 > h0


def test_train_grounds_and_learns_with_its_weighting_function():
    prog, store, examples = toy_classifier_task()
    params = GroundingParams(epsilon=1e-3)
    cfg = SgdConfig(epochs=2, ppr_T=6)
    result = train(examples, prog, store, params, cfg, seed=3, fn=EXP)
    groundings = ground_examples(examples, prog, store, params,
                                 ParameterVector(), EXP)
    assert result.weights == train_on_groundings(
        groundings, cfg, 3, params.alpha_prime, EXP).weights
    assert result.weights != train(examples, prog, store, params, cfg,
                                   seed=3).weights


def test_training_improves_auc_and_is_deterministic():
    prog, store, examples = toy_classifier_task()
    params = GroundingParams(epsilon=1e-4)
    cfg = SgdConfig(epochs=5, ppr_T=10)
    r1 = train(examples, prog, store, params, cfg, seed=42)
    r2 = train(examples, prog, store, params, cfg, seed=42)
    assert r1.weights == r2.weights
    groundings = ground_examples(examples, prog, store, params,
                                 ParameterVector(), LINEAR)
    before = training_auc(groundings, ParameterVector())
    after = training_auc(groundings, r1.weights)
    assert after >= before
    assert after > 0.9


def test_divergence_detected():
    prog, store, examples = toy_classifier_task()
    params = GroundingParams(epsilon=1e-3)
    with pytest.raises(TrainingDiverged):
        train(examples, prog, store, params,
              SgdConfig(eta=1e9, epochs=40, mu=10.0), seed=0)

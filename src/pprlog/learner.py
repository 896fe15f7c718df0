"""Supervised weight learning over cached local groundings.

Training data are (query, positive answers, negative answers) triples.
Each query is grounded once; the objective is a pairwise ranking loss on
the walk mass of positive vs negative solution nodes, plus L2
regularization, minimized by SGD with an epoch-decayed learning rate
(eta / epoch^2).  SGD takes one example at a time in a seeded shuffle,
so a seed fixes the learned weights bit for bit.  Gradients come from
exactly differentiating the unrolled power iteration on the fixed
grounded graph, in reverse mode over a numeric view built once per
grounding.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import BUILTIN_FEATURES, GroundedGraph, NumericGraph
from .grounder import GroundingParams, approximate_ground
from .kernels import (grad_power_iterate_arrays, prob_adjoint, row_bincount,
                      walk_history)
from .terms import Atom
from .weights import LINEAR, ParameterVector, WeightFn

_LOG_CLIP = 1e-12


class TrainingDiverged(Exception):
    pass


@dataclass(frozen=True)
class TrainingExample:
    query: Atom
    positives: tuple[str, ...]   # rendered ground answer atoms
    negatives: tuple[str, ...]


@dataclass
class SgdConfig:
    mu: float = 0.001
    eta: float = 1.0
    epochs: int = 5
    loss: str = "squared"        # "squared" hinge on the margin, or "log"
    ppr_T: int = 10              # forward iterations during learning
    # built-in features calibrate the walk; they keep their unit weights
    fixed_features: frozenset = BUILTIN_FEATURES

    def __post_init__(self):
        for name, value in (("mu", self.mu), ("eta", self.eta)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.mu < 0 or self.eta <= 0 or self.epochs < 0:
            raise ValueError(f"invalid SGD configuration: {self}")
        if self.loss not in ("squared", "log"):
            raise ValueError(f"unknown loss {self.loss!r}")


def pair_loss(h: float) -> tuple[float, float]:
    """Squared hinge on the score margin h = p[u+] - p[u-].

    Returns (loss, dloss/dh): h^2 with derivative 2h when the pair is
    violated (h < 0), zero otherwise.
    """
    if h < 0.0:
        return h * h, 2.0 * h
    return 0.0, 0.0


def _own_slopes(info: dict, fn: WeightFn) -> np.ndarray:
    """d(effective raw weight)/d(dot) of each edge through its own
    features: d raw/d dot of the weighting function, and zero on clamped
    restarts, whose effective weight tracks the floor a'S/(1-a') instead.
    (The restarts given to frontier nodes carry no features, so no slope
    reaches a weight from them.)"""
    slope = fn.slope(info["dot"], info["raw"])
    slope[info["clamped"]] = 0.0
    return slope


def ppr_gradient(g: GroundedGraph, w: ParameterVector, fn: WeightFn,
                 T: int = 10, alpha_prime: float = 0.1):
    """Walk mass and its gradient wrt every feature weight of the graph.

    Differentiates the T-step power iteration exactly in forward mode,
    renormalizing each node's outgoing distribution and following the
    active branch of the restart floor.  Returns (v, grads, feat_names)
    with grads of shape (num_features, num_nodes).  Training takes the
    same derivative in reverse mode (``example_gradient``); this full
    Jacobian is the reference it is tested against.
    """
    ng = NumericGraph(g)
    prob, info = ng.probabilities(w, fn, alpha_prime)
    # deff[i, e] = d(effective raw weight of e)/dw_i
    deff = np.zeros((len(ng.feat_names), ng.num_edges))
    deff[ng.ef_feat, ng.ef_edge] = (_own_slopes(info, fn)[ng.ef_edge]
                                    * ng.ef_val)
    clamped = info["clamped"]
    if clamped.any():
        dS = row_bincount(ng.src, np.where(ng.restart_mask, 0.0, deff), ng.n)
        deff[:, clamped] = alpha_prime / (1.0 - alpha_prime) \
            * dS[:, ng.src[clamped]]
    dZ = row_bincount(ng.src, deff, ng.n)
    dprob = (deff - prob * dZ[:, ng.src]) / info["Z"][ng.src]
    v, grads = grad_power_iterate_arrays(ng.src, ng.dst, prob, dprob,
                                         ng.n, ng.start, T)
    return v, grads, ng.feat_names


def _weight_gradient(ng: NumericGraph, prob, info: dict, fn: WeightFn,
                     alpha_prime: float, gprob) -> np.ndarray:
    """Chain d(loss)/d(prob[e]) back to the feature weights, in the
    order of ``ng.feat_names``: the transpose of ppr_gradient's dprob."""
    src = ng.src
    # prob = eff / Z[src], Z = per-node sum of eff
    s = np.bincount(src, weights=gprob * prob, minlength=ng.n)
    geff = (gprob - s[src]) / info["Z"][src]
    # a clamped restart's weight a'S/(1-a') passes its share on to the
    # node's non-restart edges, which make up S
    passed = alpha_prime / (1.0 - alpha_prime) * np.bincount(
        src, weights=np.where(info["clamped"], geff, 0.0), minlength=ng.n)
    graw = geff + np.where(ng.restart_mask, 0.0, passed[src])
    gdot = graw * _own_slopes(info, fn)
    return np.bincount(ng.ef_feat, weights=ng.ef_val * gdot[ng.ef_edge],
                       minlength=len(ng.feat_names))


@dataclass(frozen=True)
class PairStats:
    total_pairs: int = 0    # labeled pairs, with answers not in the grounding
    used_pairs: int = 0     # pairs of solution nodes, which the loss reads


@dataclass
class LabeledGrounding:
    """A cached grounding with its labeled solution node ids."""
    example: TrainingExample
    graph: GroundedGraph
    pos_nodes: list[int]
    neg_nodes: list[int]
    missing_positives: int = 0
    missing_negatives: int = 0

    @property
    def usable(self) -> bool:
        return bool(self.pos_nodes and self.neg_nodes)

    @cached_property
    def pair_stats(self) -> PairStats:
        return PairStats(
            (len(self.pos_nodes) + self.missing_positives)
            * (len(self.neg_nodes) + self.missing_negatives),
            len(self.pos_nodes) * len(self.neg_nodes))

    @cached_property
    def numeric(self) -> NumericGraph:
        """The grounding's numeric view, built on first use; every SGD
        step on this grounding reuses it."""
        return NumericGraph(self.graph)


def label_grounding(example: TrainingExample,
                    graph: GroundedGraph) -> LabeledGrounding:
    by_answer: dict[str, list[int]] = {}
    for nid, answer in graph.solutions.items():
        by_answer.setdefault(answer, []).append(nid)
    labeled = []    # per sign: its sorted nodes, its answers not found
    for label, answers in ((True, example.positives),
                           (False, example.negatives)):
        nodes = [nid for a in answers for nid in by_answer.get(a, ())]
        for nid in nodes:
            graph.labels[nid] = label
        labeled.append((sorted(nodes),
                        sum(a not in by_answer for a in answers)))
    (pos, miss_p), (neg, miss_n) = labeled
    return LabeledGrounding(example, graph, pos, neg, miss_p, miss_n)


def example_gradient(lg: LabeledGrounding, w: ParameterVector, fn: WeightFn,
                     cfg: SgdConfig, alpha_prime: float = 0.1):
    """Gradient of the pairwise loss plus L2 term for one grounding.

    Returns (grad: dict feature -> float, loss, lg.pair_stats).
    Regularization is applied lazily, only to features the grounding
    touches.  The loss is linear in the walk distribution v_T, so one
    reverse sweep over the stored walk gives the whole weight gradient in
    O(T * num_edges).
    """
    if not lg.usable:
        raise ValueError(
            f"example {lg.example.query!r} has no usable positive/negative "
            f"solution nodes in its grounding")
    ng = lg.numeric
    prob, info = ng.probabilities(w, fn, alpha_prime)
    V = walk_history(ng.src, ng.dst, prob, ng.n, ng.start, cfg.ppr_T)
    v = V[-1]
    coef = np.zeros(len(v))
    loss = 0.0
    for up in lg.pos_nodes:
        for un in lg.neg_nodes:
            if cfg.loss == "squared":
                l, dh = pair_loss(v[up] - v[un])
                loss += l
                coef[up] += dh
                coef[un] -= dh
            else:
                pp = min(max(v[up], _LOG_CLIP), 1.0 - _LOG_CLIP)
                pn = min(max(v[un], _LOG_CLIP), 1.0 - _LOG_CLIP)
                loss += -np.log(pp) - np.log1p(-pn)
                coef[up] += -1.0 / pp
                coef[un] += 1.0 / (1.0 - pn)
    gvec = _weight_gradient(ng, prob, info, fn, alpha_prime,
                            prob_adjoint(ng.src, ng.dst, prob, V, coef))
    grad = {}
    for name, gval in zip(ng.feat_names, gvec):
        if name in cfg.fixed_features:
            continue
        grad[name] = gval + 2.0 * cfg.mu * w[name]
        loss += cfg.mu * w[name] * w[name]
    return grad, float(loss), lg.pair_stats


def ground_examples(data, program, store, params: GroundingParams,
                    w: ParameterVector, fn: WeightFn):
    """Ground every training query once and attach its labels."""
    out = []
    for ex in data:
        g, _, _ = approximate_ground(ex.query, program, store, params, w, fn)
        out.append(label_grounding(ex, g))
    return out


def init_weights(groundings, seed: int) -> ParameterVector:
    """1.0 + delta with per-feature delta drawn uniformly from [0, 0.01].

    The draw is keyed on (seed, feature name) so initialization does not
    depend on the order features are first encountered.
    """
    w = ParameterVector()
    for lg in groundings:
        for name in lg.numeric.feat_names:
            if name not in w:
                w[name] = 1.0 + random.Random(f"{seed}:{name}").uniform(
                    0.0, 0.01)
    return w


@dataclass
class TrainResult:
    weights: ParameterVector
    epoch_losses: list[float] = field(default_factory=list)
    skipped_examples: int = 0
    pair_stats: PairStats = field(default_factory=PairStats)


def _check_divergence(w: ParameterVector):
    for name, val in w.items():
        if abs(val) > 1e6 or not np.isfinite(val):
            raise TrainingDiverged(
                f"weight {name} diverged to {val}; lower eta or raise mu")


def train_on_groundings(groundings, cfg: SgdConfig, seed: int = 0,
                        alpha_prime: float = 0.1,
                        fn: WeightFn = LINEAR) -> TrainResult:
    """SGD over pre-grounded examples; unusable ones are skipped and
    counted."""
    usable = [lg for lg in groundings if lg.usable]
    result = TrainResult(init_weights(usable, seed),
                         skipped_examples=len(groundings) - len(usable))
    w = result.weights
    rng = random.Random(seed + 1)
    for epoch in range(1, cfg.epochs + 1):
        order = list(usable)
        rng.shuffle(order)
        rate = cfg.eta / (epoch * epoch)
        epoch_loss = 0.0
        for lg in order:
            grad, loss, _ = example_gradient(lg, w, fn, cfg, alpha_prime)
            for name, gval in grad.items():
                w[name] = w[name] - rate * gval
            epoch_loss += loss
        _check_divergence(w)
        result.epoch_losses.append(epoch_loss)
    # every epoch took one step on each usable grounding
    result.pair_stats = PairStats(
        cfg.epochs * sum(lg.pair_stats.total_pairs for lg in usable),
        cfg.epochs * sum(lg.pair_stats.used_pairs for lg in usable))
    return result


def train(data, program, store, params: GroundingParams, cfg: SgdConfig,
          seed: int = 0, fn: WeightFn = LINEAR) -> TrainResult:
    """Ground and label every example, then fit weights by SGD."""
    groundings = ground_examples(data, program, store, params,
                                 ParameterVector(), fn)
    return train_on_groundings(groundings, cfg, seed, params.alpha_prime, fn)

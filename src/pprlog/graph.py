"""Grounded proof graphs: feature-labeled edges plus a numeric view.

A grounded graph is what inference and learning operate on: integer node
ids, edges carrying sparse feature vectors, a start node, and the set of
solution nodes with their answer atoms.  ``NumericGraph`` flattens a
grounded graph into CSR-style arrays so the hot loops (power iteration,
gradient propagation) can run over plain numpy buffers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .weights import FeatureVector, ParameterVector, WeightFn

RESTART_FEATURE = "defRestart"
DB_FEATURE = "db"
SELF_LOOP_FEATURE = "id(selfLoop)"
# Edge features the grounder adds itself (restart mass, db fan-out,
# solution self-loops); clauses may not name them.
BUILTIN_FEATURES = frozenset((DB_FEATURE, RESTART_FEATURE, SELF_LOOP_FEATURE))


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    phi: FeatureVector
    is_restart: bool = False


@dataclass
class GroundedGraph:
    nodes: list = field(default_factory=list)   # payloads; index == node id
    edges: list[Edge] = field(default_factory=list)
    start: int = 0
    solutions: dict[int, str] = field(default_factory=dict)  # id -> answer
    query: str = ""
    labels: dict[int, bool] = field(default_factory=dict)    # id -> is positive
    depths: dict[int, int] = field(default_factory=dict)     # id -> SLD depth

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def add_node(self, payload=None) -> int:
        self.nodes.append(payload)
        return len(self.nodes) - 1

    def add_edge(self, src: int, dst: int, phi: FeatureVector,
                 is_restart: bool = False):
        self.edges.append(Edge(src, dst, dict(phi), is_restart))


class NumericGraph:
    """CSR arrays for a grounded graph, ready for the kernels.

    Edges are ordered by source node (stably, so each node's edges keep
    their grounding order).  Nodes with no outgoing edges (unexpanded
    frontier nodes of an approximate grounding) are given an implicit
    probability-1 restart to the start node; that edge carries no
    features and hence no gradient.  The feature vectors are flattened
    into (edge, feature, value) triples ``ef_edge``/``ef_feat``/``ef_val``.
    """

    def __init__(self, g: GroundedGraph):
        self.n = g.num_nodes
        self.start = g.start
        edges = g.edges
        m = len(edges)
        index: dict[str, int] = {}   # feature name -> id, in first-seen order
        self.ef_feat = np.fromiter((index.setdefault(name, len(index))
                                    for e in edges for name in e.phi),
                                   dtype=np.int64)
        self.feat_names = list(index)
        self.ef_val = np.fromiter((val for e in edges
                                   for val in e.phi.values()),
                                  dtype=np.float64, count=len(self.ef_feat))
        num_feats = np.fromiter((len(e.phi) for e in edges), dtype=np.int64,
                                count=m)
        src = np.fromiter((e.src for e in edges), dtype=np.int64, count=m)
        dst = np.fromiter((e.dst for e in edges), dtype=np.int64, count=m)
        restart = np.fromiter((e.is_restart for e in edges), dtype=bool,
                              count=m)

        has_out = np.zeros(self.n, dtype=bool)
        has_out[src] = True
        dangling = np.flatnonzero(~has_out)
        implicit = np.ones(len(dangling), dtype=bool)
        src = np.concatenate([src, dangling])
        order = np.argsort(src, kind="stable")
        self.src = src[order]
        self.dst = np.concatenate([dst, np.full(len(dangling), g.start)])[order]
        self.restart_mask = np.concatenate([restart, implicit])[order]
        self.implicit_mask = np.concatenate(
            [restart & (num_feats == 0), implicit])[order]
        position = np.empty(len(order), dtype=np.int64)
        position[order] = np.arange(len(order))
        self.ef_edge = position[np.repeat(np.arange(m), num_feats)]

    @property
    def num_edges(self) -> int:
        return len(self.src)

    def weight_array(self, w: ParameterVector) -> np.ndarray:
        return np.array([w[name] for name in self.feat_names], dtype=np.float64)

    def raw_weights(self, w: ParameterVector, fn: WeightFn):
        """Per-edge dot products and raw weights f(w, phi)."""
        dot = np.bincount(self.ef_edge,
                          weights=self.weight_array(w)[self.ef_feat]
                          * self.ef_val,
                          minlength=self.num_edges)
        with np.errstate(over="ignore"):  # the check below names the edge
            raw = np.where(self.implicit_mask, 1.0, fn.array(dot))
        if not np.all(np.isfinite(raw)) or np.any(raw <= 0):
            bad = int(np.argmin(np.where(np.isfinite(raw), raw, -np.inf)))
            raise ValueError(f"nonpositive or non-finite weight on edge "
                             f"{self.src[bad]}->{self.dst[bad]}")
        return dot, raw

    def probabilities(self, w: ParameterVector, fn: WeightFn,
                      alpha_prime: float):
        """Per-edge transition probabilities with the restart floor.

        Returns (prob, info) where info carries the intermediates the
        gradient needs: dot, raw, per-node normalizer Z, effective raw
        weights after clamping, and the clamp mask.
        """
        dot, raw = self.raw_weights(w, fn)
        S = np.bincount(self.src, weights=np.where(self.restart_mask, 0.0, raw),
                        minlength=self.n)

        eff = raw.copy()
        # Raise the restart weight wherever its share would fall below
        # alpha': Pr(restart) = r/(r+S) >= alpha'  <=>  r >= a'S/(1-a').
        floor = alpha_prime * S[self.src] / (1.0 - alpha_prime)
        clamped = self.restart_mask & (raw < floor)
        eff[clamped] = floor[clamped]

        Z = np.bincount(self.src, weights=eff, minlength=self.n)
        prob = eff / Z[self.src]
        return prob, {"dot": dot, "raw": raw, "eff": eff, "Z": Z,
                      "clamped": clamped}


# A feature item: runs of characters other than ,()' (each run maximal,
# so a failed match backtracks in linear time), quoted names (a backslash
# escapes the next character) and parenthesized groups of those.
_QUOTED = r"'[^'\\]*(?:\\.[^'\\]*)*'"
_ITEM = (rf"(?:[^,()']+(?![^,()'])|{_QUOTED}"
         rf"|\((?:[^()']+(?![^()'])|{_QUOTED})*\))*")
_NEXT_ITEM = re.compile(rf"(?!\Z)({_ITEM})(?:,|\Z)", re.S)


def _split_features(text: str) -> list[str]:
    """Split 'f(a,b)=1.0,g=2' on commas outside parentheses and quoted
    names.  Text the items do not tile (an unbalanced parenthesis or
    quote) is one part."""
    parts = _NEXT_ITEM.findall(text)
    joined = ",".join(parts)
    return parts if text in (joined, joined + ",") else [text]


def serialize(g: GroundedGraph) -> str:
    """One grounded-graph record, deterministically ordered.

    Format: header ``query<TAB>start<TAB>num_nodes<TAB>num_edges``, then
    ``sol`` lines (with an optional +/- label column when labels are
    known), then ``edge`` lines sorted by (src, dst).  Raises ValueError
    for a feature name that would read back as another name.
    """
    for name in dict.fromkeys(name for e in g.edges for name in e.phi):
        if ("\t" in name or "\n" in name
                or _split_features(name + "=0,x") != [name + "=0", "x"]):
            raise ValueError(f"feature {name!r} of {g.query!r} cannot be "
                             f"written to a grounded-graph record")
    lines = [f"{g.query}\t{g.start}\t{g.num_nodes}\t{g.num_edges}"]
    for nid in sorted(g.solutions):
        row = f"sol\t{nid}\t{g.solutions[nid]}"
        if nid in g.labels:
            row += "\t" + ("+" if g.labels[nid] else "-")
        lines.append(row)
    for e in sorted(g.edges, key=lambda e: (e.src, e.dst, e.is_restart)):
        feats = ",".join(f"{name}={val!r}" for name, val in sorted(e.phi.items()))
        lines.append(f"edge\t{e.src}\t{e.dst}\t{feats}")
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> list[GroundedGraph]:
    """Parse one or more blank-line-separated grounded-graph records."""
    graphs = []
    for block in text.split("\n\n"):
        if not block.strip():
            continue
        lines = block.strip("\n").split("\n")
        query, start, num_nodes, num_edges = lines[0].split("\t")
        n = int(num_nodes)

        def node_id(text: str) -> int:
            nid = int(text)
            if not 0 <= nid < n:
                raise ValueError(f"record for {query!r} has node id {nid} "
                                 f"outside [0, {n})")
            return nid

        g = GroundedGraph([None] * n, query=query, start=node_id(start))
        for line in lines[1:]:
            kind, rest = line.split("\t", 1)
            if kind == "sol":
                parts = rest.split("\t")
                nid = node_id(parts[0])
                g.solutions[nid] = parts[1]
                if len(parts) > 2:
                    if parts[2] not in ("+", "-"):
                        raise ValueError(f"record for {query!r} has label "
                                         f"{parts[2]!r}, not + or -")
                    g.labels[nid] = parts[2] == "+"
            elif kind == "edge":
                s, d, feats = rest.split("\t")
                phi: FeatureVector = {}
                for item in _split_features(feats):
                    if not item:
                        continue
                    name, _, val = item.rpartition("=")
                    if not name:
                        raise ValueError(f"record for {query!r} has feature "
                                         f"{item!r} without a name")
                    phi[name] = float(val)
                g.add_edge(node_id(s), node_id(d), phi,
                           is_restart=RESTART_FEATURE in phi)
            else:
                raise ValueError(f"record for {query!r} has a line of "
                                 f"unknown kind {kind!r}")
        if g.num_edges != int(num_edges):
            raise ValueError(f"record for {query!r} declares {num_edges} "
                             f"edges but has {g.num_edges}")
        graphs.append(g)
    return graphs

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
from typing import NamedTuple

import numpy as np

from .weights import FeatureVector, ParameterVector, WeightFn

RESTART_FEATURE = "defRestart"
DB_FEATURE = "db"
SELF_LOOP_FEATURE = "id(selfLoop)"
# Edge features the grounder adds itself (restart mass, db fan-out,
# solution self-loops); clauses may not name them.
BUILTIN_FEATURES = frozenset((DB_FEATURE, RESTART_FEATURE, SELF_LOOP_FEATURE))


class Edge(NamedTuple):
    src: int
    dst: int
    phi: FeatureVector

    @property
    def is_restart(self) -> bool:
        return RESTART_FEATURE in self.phi


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

    def add_edge(self, src: int, dst: int, phi: FeatureVector):
        self.edges.append(Edge(src, dst, dict(phi)))


class NumericGraph:
    """CSR arrays for a grounded graph, ready for the kernels.

    Edges are ordered by source node (stably, so each node's edges keep
    their grounding order).  Nodes with no outgoing edges (unexpanded
    frontier nodes of a grounding) are given a featureless restart to the
    start node: as the node's only edge it has probability raw/raw = 1,
    and it passes no gradient.  The feature vectors are flattened
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
        edge_of = np.repeat(np.arange(m), num_feats)  # edge of each ef_ entry
        src = np.fromiter((e.src for e in edges), dtype=np.int64, count=m)
        dst = np.fromiter((e.dst for e in edges), dtype=np.int64, count=m)

        has_out = np.zeros(self.n, dtype=bool)
        has_out[src] = True
        dangling = np.flatnonzero(~has_out)
        src = np.concatenate([src, dangling])
        # restarts: the edges carrying RESTART_FEATURE and the appended ones
        restart = np.arange(len(src)) >= m
        restart[edge_of[self.ef_feat == index.get(RESTART_FEATURE, -1)]] = True
        order = np.argsort(src, kind="stable")
        self.src = src[order]
        self.dst = np.concatenate([dst, np.full(len(dangling), g.start)])[order]
        self.restart_mask = restart[order]
        position = np.empty(len(order), dtype=np.int64)
        position[order] = np.arange(len(order))
        self.ef_edge = position[edge_of]

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
            raw = fn.array(dot)
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


def _check_feature_names(g: GroundedGraph):
    """Raise ValueError for a feature name of ``g`` that a record would
    read back as another name."""
    for name in dict.fromkeys(name for e in g.edges for name in e.phi):
        if ("\t" in name or "\n" in name
                or _split_features(name + "=0,x") != [name + "=0", "x"]):
            raise ValueError(f"feature {name!r} of {g.query!r} cannot be "
                             f"held in a grounded-graph record")


def serialize(g: GroundedGraph) -> str:
    """One grounded-graph record, deterministically ordered.

    Format: header ``query<TAB>start<TAB>num_nodes<TAB>num_edges``, then
    ``sol`` lines (with an optional +/- label column when labels are
    known), then ``edge`` lines sorted by (src, dst).  Raises ValueError
    for a feature name that would read back as another name.
    """
    _check_feature_names(g)
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
    """Parse one or more blank-line-separated grounded-graph records.

    Raises ValueError, naming the record's query, for any line that
    ``serialize`` would not write.
    """
    return [_read_record(block.strip("\n").split("\n"))
            for block in text.split("\n\n") if block.strip()]


def _read_record(lines: list[str]) -> GroundedGraph:
    header = lines[0].split("\t")
    query = header[0]

    def bad(what: str) -> ValueError:
        return ValueError(f"record for {query!r} has {what}")

    def number(text: str, kind=int):
        try:
            return kind(text)
        except ValueError:
            raise bad(f"{text!r} where a number belongs") from None

    if len(header) != 4:
        raise bad(f"a header of {len(header)} fields, not 4")
    n = number(header[2])

    def node_id(text: str) -> int:
        nid = number(text)
        if not 0 <= nid < n:
            raise bad(f"node id {nid} outside [0, {n})")
        return nid

    g = GroundedGraph([None] * n, query=query, start=node_id(header[1]))
    for line in lines[1:]:
        kind, *fields = line.split("\t")
        if kind == "sol" and len(fields) in (2, 3):
            nid = node_id(fields[0])
            g.solutions[nid] = fields[1]
            if len(fields) == 3:
                if fields[2] not in ("+", "-"):
                    raise bad(f"label {fields[2]!r}, not + or -")
                g.labels[nid] = fields[2] == "+"
        elif kind == "edge" and len(fields) == 3:
            phi: FeatureVector = {}
            for item in _split_features(fields[2]):
                if not item:
                    continue
                name, _, val = item.rpartition("=")
                if not name:
                    raise bad(f"feature {item!r} without a name")
                phi[name] = number(val, float)
            g.add_edge(node_id(fields[0]), node_id(fields[1]), phi)
        elif kind in ("sol", "edge"):
            raise bad(f"a {kind} line of {len(fields) + 1} fields: {line!r}")
        else:
            raise bad(f"a line of unknown kind {kind!r}")
    if g.num_edges != number(header[3]):
        raise ValueError(f"record for {query!r} declares {header[3]} "
                         f"edges but has {g.num_edges}")
    _check_feature_names(g)
    return g

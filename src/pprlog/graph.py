"""Grounded proof graphs: feature-labeled edges plus a numeric view.

A grounded graph is what inference and learning operate on: integer node
ids, edges carrying sparse feature vectors, a start node, and the set of
solution nodes with their answer atoms.  ``NumericGraph`` flattens a
grounded graph into CSR-style arrays so the hot loops (power iteration,
gradient propagation) can run over plain numpy buffers.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass, field
from functools import partial
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


@dataclass
class GroundedGraph:
    """Nodes, solutions and edges of one grounding.

    Edges are three int columns in insertion order: ``src``, ``dst`` and
    ``phi_id``, an index into ``phis``, the graph's table of distinct
    feature vectors.  ``phis`` holds each vector once as a tuple of
    (name, value) items, numbered in first-use order; two vectors share
    an entry only if they print alike, names in the same order.
    ``edges`` gives the same edges as a tuple of ``Edge``, each with a
    fresh dict, so nothing done to it reaches the table.
    """
    nodes: list = field(default_factory=list)   # payloads; index == node id
    start: int = 0
    solutions: dict[int, str] = field(default_factory=dict)  # id -> answer
    query: str = ""
    labels: dict[int, bool] = field(default_factory=dict)    # id -> is positive
    depths: dict[int, int] = field(default_factory=dict)     # id -> SLD depth
    src: array = field(default_factory=partial(array, "q"), init=False)
    dst: array = field(default_factory=partial(array, "q"), init=False)
    phi_id: array = field(default_factory=partial(array, "q"), init=False)
    phis: list[tuple] = field(default_factory=list, init=False)
    # repr(phi) -> its index in phis
    _phi_index: dict[str, int] = field(default_factory=dict, init=False,
                                       repr=False)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.src)

    @property
    def edges(self) -> tuple[Edge, ...]:
        phis = self.phis
        return tuple(Edge(u, v, dict(phis[k]))
                     for u, v, k in zip(self.src, self.dst, self.phi_id))

    def add_edges(self, src, dst, phis):
        """Add the edges ``src[i] -> dst[i]`` with the vectors ``phis[i]``
        in order, for a caller that passes each distinct vector as one
        dict object: each dict is interned once, on its first edge, and
        its later edges find its entry by ``id`` (every dict is held by
        ``phis`` meanwhile, so no ``id`` is reused)."""
        first = dict(zip(map(id, phis), phis))      # in first-use order
        entry = {i: self._intern(phi) for i, phi in first.items()}
        self.src.extend(src)
        self.dst.extend(dst)
        self.phi_id.extend(map(entry.__getitem__, map(id, phis)))

    def _intern(self, phi: FeatureVector) -> int:
        """The index of ``phi`` in ``phis``, adding it if it is new.  The
        key is the dict's repr, so 1 and 1.0, or 0.0 and -0.0, differ."""
        key = repr(phi)
        k = self._phi_index.get(key)
        if k is None:
            k = self._phi_index[key] = len(self.phis)
            self.phis.append(tuple(phi.items()))
        return k


def _restart_edges(g: GroundedGraph, phi_id: np.ndarray) -> np.ndarray:
    """Whether each edge of ``g`` (phi_id: its ``phi_id`` column) carries
    RESTART_FEATURE, from one test per table entry."""
    return np.array([RESTART_FEATURE in dict(items) for items in g.phis],
                    dtype=bool)[phi_id]


class NumericGraph:
    """CSR arrays for a grounded graph, ready for the kernels.

    Edges are ordered by source node (stably, so each node's edges keep
    their grounding order).  Nodes with no outgoing edges (unexpanded
    frontier nodes of a grounding) are given a featureless restart to the
    start node: as the node's only edge it has probability raw/raw = 1,
    and it passes no gradient.  The feature vectors are flattened
    into (edge, feature, value) triples ``ef_edge``/``ef_feat``/``ef_val``:
    each entry of the graph's feature-vector table is flattened once,
    and each edge gathers its entry's run.  ``feat_names`` lists the
    feature names in the order the edges first use them.
    """

    def __init__(self, g: GroundedGraph):
        self.n = g.num_nodes
        self.start = g.start
        m = g.num_edges
        index: dict[str, int] = {}   # feature name -> id, in first-seen order
        run_feat = [index.setdefault(name, len(index))
                    for items in g.phis for name, _ in items]
        self.feat_names = list(index)
        run_val = np.array([val for items in g.phis for _, val in items],
                           dtype=np.float64)
        run_len = np.array([len(items) for items in g.phis], dtype=np.int64)
        phi_id = np.array(g.phi_id, dtype=np.int64)
        # ef_ entries: each edge's table run, in edge order
        num_feats = run_len[phi_id]
        edge_of = np.repeat(np.arange(m), num_feats)  # edge of each ef_ entry
        first = np.cumsum(num_feats) - num_feats      # each edge's first entry
        run_first = np.cumsum(run_len) - run_len      # each run's first item
        item = np.arange(len(edge_of)) + np.repeat(run_first[phi_id] - first,
                                                   num_feats)
        self.ef_feat = np.array(run_feat, dtype=np.int64)[item]
        self.ef_val = run_val[item]
        src = np.array(g.src, dtype=np.int64)
        dst = np.array(g.dst, dtype=np.int64)

        has_out = np.zeros(self.n, dtype=bool)
        has_out[src] = True
        dangling = np.flatnonzero(~has_out)
        src = np.concatenate([src, dangling])
        # restarts: the edges carrying RESTART_FEATURE and the appended ones
        restart = np.concatenate([_restart_edges(g, phi_id),
                                  np.ones(len(dangling), dtype=bool)])
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
    for name in dict.fromkeys(name for items in g.phis for name, _ in items):
        if ("\t" in name or "\n" in name
                or _split_features(name + "=0,x") != [name + "=0", "x"]):
            raise ValueError(f"feature {name!r} of {g.query!r} cannot be "
                             f"held in a grounded-graph record")


def serialize(g: GroundedGraph) -> str:
    """One grounded-graph record, deterministically ordered.

    Format: header ``query<TAB>start<TAB>num_nodes<TAB>num_edges``, then
    ``sol`` lines (with an optional +/- label column when labels are
    known), then ``edge`` lines sorted by (src, dst), a node's restart
    after its other edges to the same node.  Each edge line ends with its
    features as ``name=value`` pairs sorted by name, each value the repr
    of its float, which ``deserialize`` reads back.  Raises ValueError
    for a feature name that would read back as another name.
    """
    _check_feature_names(g)
    feats = [",".join(f"{name}={float(val)!r}" for name, val in sorted(items))
             for items in g.phis]
    src = np.array(g.src, dtype=np.int64)
    dst = np.array(g.dst, dtype=np.int64)
    phi_id = np.array(g.phi_id, dtype=np.int64)
    order = np.lexsort((_restart_edges(g, phi_id), dst, src))   # stable
    lines = [f"{g.query}\t{g.start}\t{g.num_nodes}\t{g.num_edges}"]
    for nid in sorted(g.solutions):
        row = f"sol\t{nid}\t{g.solutions[nid]}"
        if nid in g.labels:
            row += "\t" + ("+" if g.labels[nid] else "-")
        lines.append(row)
    lines += [f"edge\t{u}\t{v}\t{feats[k]}" for u, v, k in
              zip(src[order].tolist(), dst[order].tolist(),
                  phi_id[order].tolist())]
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

    def phi_of(text: str) -> FeatureVector:
        phi: FeatureVector = {}
        for item in _split_features(text):
            if not item:
                continue
            name, _, val = item.rpartition("=")
            if not name:
                raise bad(f"feature {item!r} without a name")
            phi[name] = number(val, float)
        return phi

    g = GroundedGraph([None] * n, query=query, start=node_id(header[1]))
    phi_of_text: dict[str, FeatureVector] = {}   # one dict per feature text
    src: list[int] = []
    dst: list[int] = []
    phis: list[FeatureVector] = []
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
            phi = phi_of_text.get(fields[2])
            if phi is None:
                phi = phi_of_text[fields[2]] = phi_of(fields[2])
            src.append(node_id(fields[0]))
            dst.append(node_id(fields[1]))
            phis.append(phi)
        elif kind in ("sol", "edge"):
            raise bad(f"a {kind} line of {len(fields) + 1} fields: {line!r}")
        else:
            raise bad(f"a line of unknown kind {kind!r}")
    g.add_edges(src, dst, phis)
    if g.num_edges != number(header[3]):
        raise ValueError(f"record for {query!r} declares {header[3]} "
                         f"edges but has {g.num_edges}")
    _check_feature_names(g)
    return g

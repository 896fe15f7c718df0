"""The numeric view of a grounded graph, built one ``Edge`` at a time.

A reference for ``NumericGraph``, which flattens each entry of the
graph's feature-vector table once and gathers the entries per edge:
``test_columnar`` checks the two builds array for array.  This is the
build from before the graph stored its edges as columns.
"""

import numpy as np

from pprlog.graph import RESTART_FEATURE, GroundedGraph


def edge_numeric(g: GroundedGraph) -> dict:
    """``NumericGraph``'s edge arrays and ``feat_names`` for ``g``."""
    edges = list(g.edges)
    m = len(edges)
    index: dict[str, int] = {}   # feature name -> id, in first-seen order
    ef_feat = np.fromiter((index.setdefault(name, len(index))
                           for e in edges for name in e.phi), dtype=np.int64)
    ef_val = np.fromiter((val for e in edges for val in e.phi.values()),
                         dtype=np.float64, count=len(ef_feat))
    num_feats = np.fromiter((len(e.phi) for e in edges), dtype=np.int64,
                            count=m)
    edge_of = np.repeat(np.arange(m), num_feats)  # edge of each ef_ entry
    src = np.fromiter((e.src for e in edges), dtype=np.int64, count=m)
    dst = np.fromiter((e.dst for e in edges), dtype=np.int64, count=m)

    has_out = np.zeros(g.num_nodes, dtype=bool)
    has_out[src] = True
    dangling = np.flatnonzero(~has_out)
    src = np.concatenate([src, dangling])
    # restarts: the edges carrying RESTART_FEATURE and the appended ones
    restart = np.arange(len(src)) >= m
    restart[edge_of[ef_feat == index.get(RESTART_FEATURE, -1)]] = True
    order = np.argsort(src, kind="stable")
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order))
    return {"src": src[order],
            "dst": np.concatenate([dst, np.full(len(dangling),
                                                g.start)])[order],
            "restart_mask": restart[order],
            "ef_edge": position[edge_of],
            "ef_feat": ef_feat,
            "ef_val": ef_val,
            "feat_names": list(index)}

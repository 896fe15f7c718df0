"""A grounded graph built one node and one edge at a time.

The library adds a grounding's edges in one ``GroundedGraph.add_edges``
call.  Tests that write small graphs by hand, and the loop oracles, add
them one by one through these helpers; ``add_edge`` interns its vector
by ``repr``, as ``add_edges`` does for a dict it has not seen.
"""

from pprlog.graph import RESTART_FEATURE, Edge, GroundedGraph
from pprlog.weights import FeatureVector


def add_node(g: GroundedGraph, payload=None) -> int:
    """Append a node to ``g``; returns its id."""
    g.nodes.append(payload)
    return len(g.nodes) - 1


def add_edge(g: GroundedGraph, src: int, dst: int, phi: FeatureVector):
    g.add_edges((src,), (dst,), (phi,))


def is_restart(e: Edge) -> bool:
    return RESTART_FEATURE in e.phi

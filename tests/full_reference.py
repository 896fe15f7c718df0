"""The breadth-first grounding loop with (state, id) frontier pairs.

A reference for ``ground_full``, which keeps its frontier as a run of
ids, adds a grounding's edges in one call and writes depths a level at
a time: ``test_full_reference`` checks that both give the same graph,
node ids, depths and answers, and spend a node budget at the same point.
This is the loop from before the frontier held only ids; it adds edges
one at a time through ``graph_build.add_edge``, which builds the same
tables.
"""

from graph_build import add_edge, add_node
from pprlog.graph import GroundedGraph
from pprlog.grounder import (BudgetError, Prover, _name_answers,
                             _ProverExpander, start_node)


def reference_full(query, program, store, params) -> GroundedGraph:
    """``ground_full``'s graph for the same arguments."""
    v0 = start_node(query)
    expander = _ProverExpander(Prover(program, store), params, None, None, v0)
    g = GroundedGraph()
    ids = {v0: add_node(g, v0)}
    g.depths[0] = 0
    frontier = [(v0, 0)]
    for depth in range(params.max_T):
        if not frontier:
            break
        nxt = []
        for node, u in frontier:
            successors, restart_phi = expander.successors(node)
            for target, phi in successors:
                nid = ids.get(target)
                if nid is None:
                    if len(ids) >= params.node_budget:
                        raise BudgetError(
                            f"node budget {params.node_budget} exceeded "
                            f"grounding {query!r}")
                    nid = add_node(g, target)
                    ids[target] = nid
                    g.depths[nid] = depth + 1
                    nxt.append((target, nid))
                add_edge(g, u, nid, phi)
            add_edge(g, u, g.start, restart_phi)
        frontier = nxt
    _name_answers(g, query)
    return g

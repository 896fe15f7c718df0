"""The residual push loop with its state in dicts and sets.

A reference for ``pagerank_nibble``, which keeps each node's residual,
mass, queued flag and push plan in lists indexed by node id, builds a
node's (target, share) pairs once at its first push and asks the lower
bound once per node: ``test_push_reference`` checks that both give the
same p, r, graph and stats, in the same orders, and fail at the same
point.  This is the loop from before the state moved into lists.
"""

from pprlog.graph import RESTART_FEATURE, GroundedGraph
from pprlog.grounder import BudgetError, GroundingError, PushStats
from pprlog.weights import left_sum


def reference_nibble(start, expand, alpha_prime: float, epsilon: float,
                     node_budget: int = 2_000_000, lower_bound=None):
    """``pagerank_nibble``'s (p, r, graph, stats) for the same arguments."""
    g = GroundedGraph()
    add_edge = g.edge_adder()
    ids: dict = {}          # payload -> node id
    held: set = set()       # cached child states without an id

    def admit(n: int):
        if len(ids) + len(held) + n > node_budget:
            raise BudgetError(
                f"node budget {node_budget} exceeded; epsilon="
                f"{epsilon} is too small for this budget")

    def node_id(payload) -> int:
        nid = ids.get(payload)
        if nid is None:
            if payload in held:
                held.remove(payload)
            else:
                admit(1)
            nid = g.add_node(payload)
            ids[payload] = nid
        return nid

    v0 = node_id(start)
    g.start = v0
    # id -> (edges, |N(u)|); edges hold target payloads until u is first
    # pushed, then target ids.
    expanded: dict[int, tuple[list, int]] = {}
    pushed: set[int] = set()
    p: dict[int, float] = {}
    r: dict[int, float] = {v0: 1.0}
    stats = PushStats()
    stack = [v0]
    queued = {v0}

    def expand_node(u: int):
        edges = expand(g.nodes[u])
        for t, *_ in edges:
            if getattr(t, "is_solution", False):
                node_id(t)
        targets = {t for t, *_ in edges}
        new = targets.difference(ids, held)
        admit(len(new))
        held.update(new)
        entry = expanded[u] = (edges, len(targets))
        return entry

    while stack:
        u = stack.pop()
        queued.discard(u)
        ru = r.get(u, 0.0)
        if ru <= epsilon:
            continue
        entry = expanded.get(u)
        if entry is None:
            lo = lower_bound(g.nodes[u]) if lower_bound else None
            if lo is not None and ru <= epsilon * lo:
                continue
            entry = expand_node(u)
        edges, degree = entry
        if ru <= epsilon * degree:
            continue
        if u not in pushed:
            pushed.add(u)
            edges = [(node_id(t), prob, phi) for t, prob, phi in edges]
            expanded[u] = (edges, degree)
            for dst, _, phi in edges:
                add_edge(u, dst, phi)
        stats.pushes += 1
        stats.degree_sum += degree
        p[u] = p.get(u, 0.0) + alpha_prime * ru
        r[u] = 0.0
        for dst, prob, phi in edges:
            share = (prob - alpha_prime) if RESTART_FEATURE in phi else prob
            if share < -1e-12:
                raise GroundingError(
                    f"restart probability {prob} below alpha_prime="
                    f"{alpha_prime} at node {g.nodes[u]!r}")
            r[dst] = r.get(dst, 0.0) + share * ru
            if r[dst] > epsilon and dst not in queued:
                stack.append(dst)
                queued.add(dst)

    stats.nodes_discovered = g.num_nodes
    stats.residual_mass = left_sum(r.values())
    return p, r, g, stats

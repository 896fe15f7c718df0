"""Proof-graph construction and bounded local grounding.

A proof state is a pair (transformed query, remaining subgoal list); the
prover expands the leftmost subgoal against rules and database facts,
labeling each edge with ground feature atoms.  ``approximate_ground``
runs the residual-push approximation of the restart walk, materializing
only the subgraph it touches; ``ground_full`` breadth-first expands the
reachable proof space up to a step horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from .facts import FactStore
from .graph import (BUILTIN_FEATURES, DB_FEATURE, GroundedGraph,
                    RESTART_FEATURE, SELF_LOOP_FEATURE)
from .parser import Clause, Program
from .terms import Atom, IntAtom, decode, encode, intern, variables_of
from .weights import FeatureVector, ParameterVector, WeightFn, edge_weight


class GroundingError(Exception):
    pass


class BudgetError(GroundingError):
    """Node budget exhausted; epsilon is too small for the budget."""


@dataclass(frozen=True)
class GroundingParams:
    alpha: float = 0.2          # restart calibration for database goals
    alpha_prime: float = 0.1    # enforced lower bound on restart probability
    epsilon: float = 1e-4       # residual threshold per unit out-degree
    max_T: int = 100            # power-iteration / full-grounding horizon
    node_budget: int = 2_000_000

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if not (0.0 < self.alpha_prime <= self.alpha):
            raise ValueError("alpha_prime must be in (0, alpha]")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must be in (0,1)")
        if self.max_T < 0 or self.node_budget < 1:
            raise ValueError("max_T must be >= 0 and node_budget >= 1")


class ProofNode(tuple):
    """A proof state (transformed query, remaining subgoals); empty
    subgoals = solution.

    Both parts are tuples of int-coded atoms ``(pred_id, arg, ...)``
    (see ``terms``) whose variables are renamed -1, -2, ... jointly in
    first-occurrence order, so alpha-equivalent states are equal tuples.
    """
    __slots__ = ()

    @property
    def query(self) -> tuple[IntAtom, ...]:
        return self[0]

    @property
    def subgoals(self) -> tuple[IntAtom, ...]:
        return self[1]

    @property
    def is_solution(self) -> bool:
        return not self[1]

    def answer_text(self) -> str:
        return ",".join(repr(decode(a)) for a in self[0])

    def __repr__(self):
        return (f"<{self.answer_text()} | "
                f"{','.join(repr(decode(a)) for a in self[1])}>")


def _renaming(atoms, s: dict[int, int]) -> dict[int, int]:
    """The idempotent substitution ``s`` extended to rename each variable
    it leaves free in ``atoms`` to -1, -2, ... in first-occurrence order.
    ``_state`` applies it in one pass to give the canonical state."""
    free: dict[int, int] = {}
    for atom in atoms:
        for a in atom:
            if a < 0:
                a = s.get(a, a)
                if a < 0 and a not in free:
                    free[a] = -1 - len(free)
    m = {k: free.get(v, v) for k, v in s.items()}
    m.update(free)
    return m


def _state(query, subgoals, m: dict[int, int]) -> ProofNode:
    """The state of the int-coded atoms with ``m`` applied once."""
    get = m.get
    return ProofNode((tuple([tuple(map(get, a, a)) for a in query]),
                      tuple([tuple(map(get, a, a)) for a in subgoals])))


def make_node(query: tuple[Atom, ...], subgoals: tuple[Atom, ...]) -> ProofNode:
    """Canonicalize variables jointly so alpha-equivalent states merge."""
    query = [encode(a) for a in query]
    subgoals = [encode(a) for a in subgoals]
    return _state(query, subgoals, _renaming((*query, *subgoals), {}))


def start_node(query: Atom) -> ProofNode:
    return make_node((query,), (query,))


def _num_vars(node: ProofNode) -> int:
    """n for a state whose variables are -1..-n."""
    return -min(0, *map(min, node[0]), *map(min, node[1]))


def _unify(goal: IntAtom, head: IntAtom) -> Optional[dict[int, int]]:
    """Most general unifier of two int-coded atoms as an idempotent
    substitution, or None.  Variables are bound goal side first."""
    if len(goal) != len(head) or goal[0] != head[0]:
        return None
    s: dict[int, int] = {}
    for x, y in zip(goal, head):
        while x in s:
            x = s[x]
        while y in s:
            y = s[y]
        if x == y:
            continue
        if x < 0:
            s[x] = y
        elif y < 0:
            s[y] = x
        else:
            return None  # distinct constants
    for x, y in s.items():
        while y in s:
            y = s[y]
        s[x] = y
    return s


class Prover:
    """Expands proof states over an immutable program and fact store.

    Each clause is compiled once to int-coded atoms, its variables
    numbered -1, -2, ... in first-occurrence order; it is standardized
    apart from a state with variables -1..-n by offsetting those by n.
    """

    def __init__(self, program: Program, store: FactStore):
        program.check_against_facts(store.predicates())
        self.program = program
        self.store = store
        self._clauses = {
            intern(pred): [(c, encode(c.head), tuple(map(encode, c.body)),
                            tuple(map(encode, c.features))) for c in clauses]
            for pred, clauses in program.by_pred.items()}
        self._apart: dict[tuple[int, int], list] = {}
        self._feature_names: dict[IntAtom, str] = {}

    def _clauses_apart(self, pred: int, n: int) -> list:
        """(clause, head, body, features) for a predicate, with variables
        apart from a state's -1..-n."""
        key = (pred, n)
        out = self._apart.get(key)
        if out is None:
            def shift(atom):
                return tuple(a - n if a < 0 else a for a in atom)
            out = self._apart[key] = [
                (c, shift(head), tuple(map(shift, body)),
                 tuple(map(shift, feats)))
                for c, head, body, feats in self._clauses.get(pred, ())]
        return out

    def _feature_name(self, feat: IntAtom, clause: Clause, goal: IntAtom,
                      n: int) -> str:
        name = self._feature_names.get(feat)
        if name is None:
            if min(feat) < 0:
                names = {-1 - n - v.id: v.name for v in variables_of(
                    (*clause.atoms(), *clause.features))}
                raise GroundingError(
                    f"non-ground feature {decode(feat, names)!r} when "
                    f"applying clause {clause.id} ({clause!r}) to "
                    f"{decode(goal)!r}")
            name = repr(decode(feat))
            if name in BUILTIN_FEATURES:
                raise GroundingError(
                    f"clause {clause.id} ({clause!r}) gives the feature "
                    f"{name!r}, a name reserved for built-in edges")
            self._feature_names[feat] = name
        return name

    def expand(self, node: ProofNode) -> list[tuple[ProofNode, FeatureVector]]:
        """Successors of a non-solution node, excluding the restart edge.

        One successor per applicable clause mgu on the leftmost subgoal,
        or one per database match.  Parallel edges with identical feature
        vectors are merged by summing feature values (a merged multiplicity
        of m scales each value by m).
        """
        if node.is_solution:
            raise ValueError("solution nodes have no subgoals to expand")
        query, subgoals = node
        goal, rest = subgoals[0], subgoals[1:]
        merged: dict[tuple, list] = {}

        def emit(child: ProofNode, phi: FeatureVector):
            key = (child, tuple(sorted(phi.items())))
            merged.setdefault(key, [child, phi, 0])[2] += 1

        if goal[0] in self.store.tuples:
            # A match binds every goal variable, so the other variables
            # are renamed alike for every row.
            m = _renaming((*query, *rest), {a: 0 for a in goal if a < 0})
            args = goal[1:]
            for row in self.store.match(goal):
                m.update(zip(args, row))
                emit(_state(query, rest, m), {DB_FEATURE: 1.0})
        else:
            n = _num_vars(node)
            for clause, head, body, features in self._clauses_apart(goal[0],
                                                                    n):
                sigma = _unify(goal, head)
                if sigma is None:
                    continue
                child = _state(query, (*body, *rest),
                               _renaming((*query, *body, *rest), sigma))
                phi: FeatureVector = {}
                for feat in features:
                    name = self._feature_name(tuple(map(sigma.get, feat, feat)),
                                              clause, goal, n)
                    phi[name] = phi.get(name, 0.0) + 1.0
                emit(child, phi)

        out = []
        for child, phi, mult in merged.values():
            if mult > 1:
                phi = {k: v * mult for k, v in phi.items()}
            out.append((child, phi))
        return out

    def restart_features(self, node: ProofNode, alpha: float) -> FeatureVector:
        """Restart-edge features for a non-solution node.

        Database goals get defRestart = n * alpha/(1-alpha) so that with
        unit weights the normalized restart probability is exactly alpha;
        rule goals get a unit defRestart.  n = 0 yields a zero weight that
        the restart floor later replaces, making the dead end restart-only.
        """
        goal = node.subgoals[0]
        if goal[0] in self.store.tuples:
            n = self.store.binding_count(goal)
            return {RESTART_FEATURE: n * alpha / (1.0 - alpha)}
        return {RESTART_FEATURE: 1.0}

    def degree_lower_bound(self, node: ProofNode,
                           start: ProofNode) -> Optional[int]:
        """A cheap lower bound on the distinct targets of ``node``'s
        successors plus its restart edge to ``start``, or None.

        None for solution nodes and for a lone subgoal, the only goals
        that can yield a solution child.  A database goal whose variables
        all occur in the query or the remaining subgoals gets its binding
        count: each match then yields a distinct child.  The restart is
        one more target when no child can be the start state, which holds
        when two or more subgoals remain or the lone one differs from the
        start's.  A rule goal gets 2 (one child and the restart) when
        some clause head unifies and no child can be the start state.  A
        child has the start's single subgoal only if a body-less clause
        leaves a lone remaining subgoal, so it cannot when every unifying
        clause has a body or that subgoal differs from the start's.
        """
        query, subgoals = node
        if len(subgoals) < 2:
            return None
        goal, rest = subgoals[0], subgoals[1:]
        # a child can have the start's subgoals only through a lone rest
        lone_like_start = (len(rest) == 1
                           and not _differs(rest[0], start.subgoals[0]))
        if goal[0] in self.store.tuples:
            elsewhere = {a for atom in (*query, *rest) for a in atom if a < 0}
            if not all(a >= 0 or a in elsewhere for a in goal):
                return None
            count = self.store.binding_count(goal)
            return count if lone_like_start else count + 1
        bodies = [body for _, head, body, _ in
                  self._clauses_apart(goal[0], _num_vars(node))
                  if _unify(goal, head) is not None]
        if not bodies or (lone_like_start and not all(bodies)):
            return None
        return 2


def _differs(atom: IntAtom, start: IntAtom) -> bool:
    """Whether no substitution of ``atom``'s variables can give ``start``
    (up to renaming): another predicate, or a constant where ``start`` has
    a variable or another constant."""
    return (len(atom) != len(start) or atom[0] != start[0]
            or any(a >= 0 and a != b for a, b in zip(atom[1:], start[1:])))


def transition_distribution(successors, restart_phi, w: ParameterVector,
                            fn: WeightFn, alpha_prime: float, restart_target):
    """Normalized outgoing distribution over successors plus the restart.

    ``successors`` is a list of (target, phi); the restart edge goes to
    ``restart_target``, and ``restart_phi`` holds ``RESTART_FEATURE``.
    The restart weight is raised where needed so its probability never
    falls below alpha_prime.  Returns a list of (target, probability,
    phi) summing to 1, the restart last.
    """
    raws = [edge_weight(fn, w, phi) for _, phi in successors]
    s = sum(raws)
    r0 = max(edge_weight(fn, w, restart_phi),
             alpha_prime * s / (1.0 - alpha_prime))
    z = s + r0
    out = [(t, g / z, phi) for (t, phi), g in zip(successors, raws)]
    out.append((restart_target, r0 / z, dict(restart_phi)))
    return out


@dataclass
class PushStats:
    pushes: int = 0
    degree_sum: int = 0        # sum of |N(u)| over pushes
    nodes_discovered: int = 0  # nodes given an id (graph.num_nodes)
    residual_mass: float = 1.0


# An expander maps a node to its outgoing distribution:
# node -> list of (target, probability, phi); the restart's phi has defRestart.
Expander = Callable[[Hashable], list]
# A lower bound on the number of distinct targets of a node's expansion,
# or None when no cheap bound is known.
LowerBound = Callable[[Hashable], Optional[int]]


def pagerank_nibble(start, expand: Expander, alpha_prime: float,
                    epsilon: float, node_budget: int = 2_000_000,
                    lower_bound: Optional[LowerBound] = None):
    """Residual push approximation of the restart walk from ``start``.

    Works over any lazily-expandable graph whose every node has restart
    probability >= alpha_prime, its restart edge being the one whose phi
    holds ``RESTART_FEATURE``.  Returns (p, r, graph, stats): the mass
    approximation p, the residual r (both keyed by graph node ids), and a
    GroundedGraph holding every edge examined by a push.

    On return, r[u] <= epsilon * |N(u)| for every node with an id, and
    the true walk mass is exact = p + sum_v r(v) * ppr_v, where ppr_v is
    the walk mass seeded at v.  Hence
    0 <= exact[u] - p[u] <= epsilon * sum_v |N(v)| * ppr_v(u), and,
    as ppr_v(u) <= 1, exact[u] - p[u] is also at most the residual mass
    sum_v r(v).  The first bound equals epsilon * |N(u)| only for
    reversible walks; proof graphs are directed, and there the error at
    u can exceed epsilon * |N(u)|.

    A node is expanded when it is popped with r[u] > epsilon, and its
    expansion is cached.  Only the start and the children of pushed
    nodes get ids (when their parent is first pushed), plus any child
    whose ``is_solution`` attribute is true (when its parent is
    expanded); other children of an unpushed node are held in the cache
    without an id.  So ``stats.nodes_discovered`` counts the nodes with
    ids, and ``node_budget`` bounds those together with the distinct
    states held in the cache.

    ``lower_bound(node)`` may return a number of distinct targets the
    node's expansion is certain to reach; the node is then not expanded
    while r[u] <= epsilon * bound, since it could not be pushed.  It must
    return None for a node that could have a solution child.  Under that
    contract p, r, the graph and the stats are the same as without it.
    """
    g = GroundedGraph()
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
        # Push: absorb an alpha' fraction, spread the rest over the
        # restart-adjusted distribution (the restart gives up alpha').
        if u not in pushed:
            pushed.add(u)
            edges = [(node_id(t), prob, phi) for t, prob, phi in edges]
            expanded[u] = (edges, degree)
            for dst, _, phi in edges:
                g.add_edge(u, dst, phi)
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
    stats.residual_mass = sum(r.values())
    return p, r, g, stats


class _ProverExpander:
    """A Prover's edges for ``ground_full`` and the push loop's expander."""

    def __init__(self, prover: Prover, params: GroundingParams,
                 w: ParameterVector, fn: WeightFn, v0: ProofNode):
        self.prover = prover
        self.params = params
        self.w = w
        self.fn = fn
        self.v0 = v0

    def successors(self, node: ProofNode):
        """(successors, restart_phi) of ``node``; a solution self-loops."""
        if node.is_solution:
            return [(node, {SELF_LOOP_FEATURE: 1.0})], {RESTART_FEATURE: 1.0}
        return (self.prover.expand(node),
                self.prover.restart_features(node, self.params.alpha))

    def __call__(self, node: ProofNode):
        return transition_distribution(*self.successors(node), self.w,
                                       self.fn, self.params.alpha_prime,
                                       restart_target=self.v0)

    def lower_bound(self, node: ProofNode) -> Optional[int]:
        return self.prover.degree_lower_bound(node, self.v0)


def approximate_ground(query: Atom, program: Program, store: FactStore,
                       params: GroundingParams, w: ParameterVector,
                       fn: WeightFn):
    """Bounded local grounding of a query.

    Returns (graph, p, stats): the local grounding (at most
    1/(alpha_prime * epsilon) edges), the approximate walk-mass vector
    keyed by node id, and push statistics.
    """
    v0 = start_node(query)
    prover = Prover(program, store)
    expander = _ProverExpander(prover, params, w, fn, v0)
    p, r, g, stats = pagerank_nibble(v0, expander, params.alpha_prime,
                                     params.epsilon, params.node_budget,
                                     expander.lower_bound)
    _name_answers(g, query)
    return g, p, stats


def ground_full(query: Atom, program: Program, store: FactStore,
                params: GroundingParams, w: Optional[ParameterVector] = None,
                fn: Optional[WeightFn] = None) -> GroundedGraph:
    """Exhaustive grounding of everything reachable within max_T steps.

    Breadth-first expansion; nodes first reached at depth max_T are kept
    as frontier nodes but not expanded.  Node depths are recorded in
    ``graph.depths`` (id -> SLD depth).  ``w`` and ``fn`` are unused.
    """
    v0 = start_node(query)
    expander = _ProverExpander(Prover(program, store), params, w, fn, v0)
    g = GroundedGraph()
    ids = {v0: g.add_node(v0)}
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
                    nid = g.add_node(target)
                    ids[target] = nid
                    g.depths[nid] = depth + 1
                    nxt.append((target, nid))
                g.add_edge(u, nid, phi)
            g.add_edge(u, g.start, restart_phi)
        frontier = nxt
    _name_answers(g, query)
    return g


def _name_answers(g: GroundedGraph, query: Atom):
    """Record the query text and each solution node's answer."""
    g.query = repr(query)
    g.solutions.update((nid, node.answer_text())
                       for nid, node in enumerate(g.nodes) if node.is_solution)

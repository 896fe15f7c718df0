"""Proof-graph construction and bounded local grounding.

A proof state is a pair (transformed query, remaining subgoal list); the
prover expands the leftmost subgoal against rules and database facts,
labeling each edge with ground feature atoms.  ``approximate_ground``
runs the residual-push approximation of the restart walk, materializing
only the subgraph it touches; ``ground_full`` breadth-first expands the
reachable proof space up to a step horizon.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, and_, itemgetter, rshift
from typing import Callable, Hashable, Optional

from .facts import FactStore, _collector_paused
from .graph import (BUILTIN_FEATURES, DB_FEATURE, GroundedGraph,
                    RESTART_FEATURE, SELF_LOOP_FEATURE)
from .parser import Clause, Program
from .terms import Atom, IntAtom, decode, encode, intern, variables_of
from .weights import (FeatureVector, ParameterVector, WeightFn, edge_weight,
                      left_sum)


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
    """A proof state (transformed query, remaining subgoals) as one flat
    tuple of ints; empty subgoals = solution.

    The tuple holds the query part's length in ints, then each atom of
    the query and then of the subgoals as ``(arity, pred_id, arg, ...)``
    (see ``terms`` for the ids).  Variables are renamed -1, -2, ...
    jointly in first-occurrence order, so alpha-equivalent states are
    equal tuples.  ``query`` and ``subgoals`` decode the two parts to
    int-coded atoms ``(pred_id, arg, ...)``.
    """
    __slots__ = ()

    @property
    def query(self) -> tuple[IntAtom, ...]:
        return _atoms(self, 1, 1 + self[0])

    @property
    def subgoals(self) -> tuple[IntAtom, ...]:
        return _atoms(self, 1 + self[0], len(self))

    @property
    def is_solution(self) -> bool:
        return len(self) == 1 + self[0]

    def answer_text(self) -> str:
        return ",".join(repr(decode(a)) for a in self.query)

    def __repr__(self):
        return (f"<{self.answer_text()} | "
                f"{','.join(repr(decode(a)) for a in self.subgoals)}>")


def _atoms(flat, i: int, end: int) -> tuple[IntAtom, ...]:
    """The int-coded atoms of ``flat[i:end]``, where each is laid out as
    ``(arity, pred_id, arg, ...)``.  A negative arity or an atom that
    runs past ``end`` raises ValueError: the state is malformed."""
    out = []
    while i < end:
        j = i + 2 + flat[i]
        if j < i + 2 or j > end:
            raise ValueError(f"malformed proof state: the atom at place {i} "
                             f"has arity {flat[i]}, which is negative or "
                             f"runs past place {end}")
        out.append(tuple(flat[i + 1:j]))
        i = j
    return tuple(out)


def _flat(atoms) -> tuple[int, ...]:
    """Int-coded atoms laid out as in a ``ProofNode``."""
    return tuple(chain.from_iterable((len(a) - 1, *a) for a in atoms))


_negative = (0).__gt__      # a variable

# Clause variables are compiled to ids at or below -APART, which no
# state's -1..-n reaches, so every clause is apart from every state.
APART = 1 << 32


def _standardize(atom) -> tuple[int, ...]:
    """``atom`` with each variable v as ``v - APART``."""
    return tuple(a - APART if a < 0 else a for a in atom)


def _renaming(raw, s: dict[int, int]) -> dict[int, int]:
    """The idempotent substitution ``s`` extended to rename each variable
    it leaves free in the flat ``raw`` to -1, -2, ... in first-occurrence
    order.  ``_state`` applies it in one pass to give the canonical state."""
    free = dict.fromkeys(filter(_negative, map(s.get, raw, raw)))
    free = dict(zip(free, range(-1, -1 - len(free), -1)))
    m = {k: free.get(v, v) for k, v in s.items()}
    m.update(free)
    return m


def _state(raw, m: dict[int, int]) -> ProofNode:
    """The state of the flat ``raw`` with ``m`` applied once; ``m`` maps
    variables only, so lengths, arities and ids are kept."""
    return ProofNode(map(m.get, raw, raw))


def _shape(node: ProofNode) -> tuple[int, ...]:
    """``node`` with every int >= 0 (a length, an arity or an id) as 0:
    states of one shape differ only in their constants.  ``a & a >> 63``
    is ``a`` for a variable and 0 for any int from 0 below 2**63."""
    return tuple(map(and_, node, map(rshift, node, repeat(63))))


def _first_places(flat, start: int = 0) -> dict[int, int]:
    """Each variable of ``flat`` -> its first place, counted from ``start``."""
    return {a: i for i, a in reversed(list(enumerate(flat, start))) if a < 0}


def _template(node: ProofNode, o: int, e: int, body, sigma: dict, at: dict,
              first: dict, extra: dict) -> itemgetter:
    """``node + tail -> the child`` for every state of ``node``'s shape
    with its goal at ``node[o:e]``: the child is ``node[:o] + body +
    node[e:]`` under ``sigma``, its variables named by ``_renaming``.

    Each int of the child is one item of ``node + tail``, so one template
    serves every state of the shape, whatever its constants.  A query or
    rest int that is not a variable is the one at its own place.  A
    variable whose value changes from state to state or from tail to
    tail is item ``at[v]``: a database goal's variable its row column, a
    head variable bound to a goal constant that constant's place.  A
    variable renamed -k is item ``first[-k]``, the first place of the
    state that holds -k (a canonical state holds each of -1..-n).  Any
    other int, a clause's own or a fresh -k past -n, is item ``extra[a]``,
    added if new, so the tail ``tuple(extra)`` gives those ints.
    """
    raw = node[:o] + body + node[e:]
    m = _renaming(raw, {**sigma, **at})
    picks = []
    for i, a in zip(chain(range(o), repeat(None, len(body)),
                          range(e, len(node))), raw):
        if a >= 0 and i is not None:
            picks.append(i)
        elif a in at:
            picks.append(at[a])
        else:
            a = m.get(a, a)
            picks.append(first[a] if a in first else
                         extra.setdefault(a, len(node) + len(extra)))
    # the query part makes two picks or more, so the getter gives tuples
    return itemgetter(*picks)


def _row_template(node: ProofNode, o: int, e: int) -> itemgetter:
    """``node + row -> the child`` (see ``_template``) for every row
    matching the database goal ``node[o:e]``, bound at its first column."""
    column = _first_places(node[o + 2:e], len(node))
    return _template(node, o, e, (), {}, column, _first_places(node), {})


def make_node(query: tuple[Atom, ...], subgoals: tuple[Atom, ...]) -> ProofNode:
    """Canonicalize variables jointly so alpha-equivalent states merge."""
    q = _flat(map(encode, query))
    raw = (len(q), *q, *_flat(map(encode, subgoals)))
    return _state(raw, _renaming(raw, {}))


def start_node(query: Atom) -> ProofNode:
    return make_node((query,), (query,))


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

    Each clause is compiled once to int-coded atoms, its body laid out
    flat as in a ``ProofNode`` and its variables numbered at or below
    ``-APART``; a state's variables are -1..-n, so every clause is apart
    from every state as it stands.  Database goals and goals of
    predicates whose clause heads are all distinct variables are
    expanded through templates (see ``_template``), compiled once per
    prover for each goal place and state shape.
    """

    def __init__(self, program: Program, store: FactStore):
        program.check_against_facts(store.predicates())
        self.program = program
        self.store = store
        self._clauses = {
            intern(pred): [(c, _standardize(encode(c.head)),
                            _standardize(_flat(map(encode, c.body))),
                            tuple(map(_standardize, map(encode, c.features))))
                           for c in clauses]
            for pred, clauses in program.by_pred.items()}
        # (rule predicate, head length) -> its clause bodies, for the
        # predicates whose clause heads are all distinct variables
        self._open_heads = {
            (pred, len(cs[0][1])): tuple(body for _, _, body, _ in cs)
            for pred, cs in self._clauses.items()
            if all(len(set(h)) == len(h) and max(h[1:], default=-1) < 0
                   for _, h, _, _ in cs)}
        # The same key -> (clauses, args, vectors) for the predicates whose
        # clauses also all have empty bodies and features over head
        # variables only: their ground goals take the unit-rule step.
        # ``args(goal)`` picks the goal's arguments the features use, and
        # ``vectors`` maps those to the step's vectors, once worked out.
        self._units = {}
        for key, bodies in self._open_heads.items():
            cs = [(c, h, feats) for c, h, _, feats in self._clauses[key[0]]]
            used = [h.index(a) if a in h else None for _, h, feats in cs
                    for feat in feats for a in feat if a < 0]
            if not any(bodies) and None not in used:
                self._units[key] = (cs, itemgetter(0, *sorted(set(used))), {})
        # (goal place, state shape) -> its row template
        self._templates: dict[tuple, itemgetter] = {}
        # (predicate, goal place, state shape) -> its rule step, or None
        # where the general clause path expands such states
        self._rule_steps: dict[tuple, Optional[tuple]] = {}
        self._feature_names: dict[IntAtom, str] = {}
        self._vectors: dict[tuple, FeatureVector] = {}   # items -> its dict
        self._db_once = self.vector(((DB_FEATURE, 1.0),))
        self._unit_restart = self.vector(((RESTART_FEATURE, 1.0),))

    def vector(self, items: tuple) -> FeatureVector:
        """The one dict this prover gives out for the feature vector of
        ``items``, its (name, value) pairs in order.  Callers must not
        mutate it."""
        phi = self._vectors.get(items)
        if phi is None:
            phi = self._vectors[items] = dict(items)
        return phi

    def _feature_name(self, feat: IntAtom, clause: Clause,
                      node: ProofNode) -> str:
        name = self._feature_names.get(feat)
        if name is None:
            if min(feat) < 0:
                names = {-1 - APART - v.id: v.name for v in variables_of(
                    (*clause.atoms(), *clause.features))}
                raise GroundingError(
                    f"non-ground feature {decode(feat, names)!r} when "
                    f"applying clause {clause.id} ({clause!r}) to "
                    f"{decode(node.subgoals[0])!r}")
            name = repr(decode(feat))
            if name in BUILTIN_FEATURES:
                raise GroundingError(
                    f"clause {clause.id} ({clause!r}) gives the feature "
                    f"{name!r}, a name reserved for built-in edges")
            self._feature_names[feat] = name
        return name

    def _phi(self, clause: Clause, features, s: dict[int, int],
             node: ProofNode) -> FeatureVector:
        """The features of ``clause`` applied to ``node`` under the
        substitution ``s`` of its variables, each counted once per
        occurrence."""
        phi: FeatureVector = {}
        for feat in features:
            name = self._feature_name(tuple(map(s.get, feat, feat)), clause,
                                      node)
            phi[name] = phi.get(name, 0.0) + 1.0
        return phi

    def step(self, node: ProofNode, alpha: Optional[float]):
        """(successors, restart vector) of a non-solution node.

        The successors are what ``expand`` gives.  The restart vector
        holds defRestart = n * alpha/(1-alpha) for a database goal with n
        matching rows, counted from the rows this step matched, so that
        with unit weights the normalized restart probability is exactly
        alpha; a rule goal gets the prover's one unit defRestart.  n = 0
        yields a zero weight that the restart floor later replaces,
        making the dead end restart-only.  With ``alpha`` None a database
        goal gets no restart vector.
        """
        o = 1 + node[0]
        if o == len(node):
            raise ValueError("solution nodes have no subgoals to expand")
        e = o + 2 + node[o]
        goal = node[o + 1:e]
        if goal[0] in self.store.tuples:
            key = (o, e, _shape(node))
            template = self._templates.get(key)
            if template is None:
                template = self._templates[key] = _row_template(node, o, e)
            rows = self.store.match(goal)
            # every match has the features {db: 1.0}: children merge by state
            counts = Counter(map(template, map(add, repeat(node), rows)))
            once = self._db_once
            successors = [(ProofNode(child), once if k == 1
                           else self.vector(((DB_FEATURE, float(k)),)))
                          for child, k in counts.items()]
            return successors, None if alpha is None else self.vector(
                ((RESTART_FEATURE, len(rows) * alpha / (1.0 - alpha)),))
        pred = (goal[0], len(goal))
        unit = self._units.get(pred)
        if unit is not None and min(goal) >= 0:
            clauses, args, vectors = unit
            key = args(goal)
            phis = vectors.get(key)
            if phis is None:
                phis = vectors[key] = [phi for _, phi in self._merge(
                    [(None, self._phi(clause, features, dict(zip(head, goal)),
                                      node))
                     for clause, head, features in clauses])]
            child = ProofNode(node[:o] + node[e:])
            return [(child, phi) for phi in phis], self._unit_restart
        if pred in self._open_heads:
            key = (goal[0], o, e, _shape(node))
            try:
                compiled = self._rule_steps[key]
            except KeyError:
                compiled = self._rule_steps[key] = self._rule_step(node, o, e)
            if compiled is not None:
                extra, steps, args, vectors = compiled
                flat = node + extra
                children = [ProofNode(child(flat)) for _, _, _, child in steps]
                key = args(node)
                phis = vectors.get(key)
                if phis is None:
                    phis = vectors[key] = [self.vector(tuple(self._phi(
                        clause, features, {h: node[i] for h, i in
                                           source.items()}, node).items()))
                        for clause, features, source, _ in steps]
                if len(set(children)) == len(children):  # nothing merges
                    return list(zip(children, phis)), self._unit_restart
                return self._merge(zip(children, phis)), self._unit_restart
        query, rest = node[:o], node[e:]
        steps = []
        for clause, head, body, features in self._clauses.get(goal[0], ()):
            sigma = _unify(goal, head)
            if sigma is not None:
                raw = query + body + rest
                steps.append((_state(raw, _renaming(raw, sigma)),
                              self._phi(clause, features, sigma, node)))
        return self._merge(steps), self._unit_restart

    def expand(self, node: ProofNode) -> list[tuple[ProofNode, FeatureVector]]:
        """Successors of a non-solution node: ``step`` without the restart.

        One successor per applicable clause mgu on the leftmost subgoal,
        or one per database match.  Parallel edges with identical feature
        vectors are merged by summing feature values (a merged multiplicity
        of m scales each value by m).  Each vector is the prover's one dict
        for it (see ``vector``), shared by every successor and every call
        that gives it, so callers must not mutate it.

        A ground goal of a predicate defined only by body-less clauses
        whose heads are distinct variables and whose features name only
        head variables (``linkedBy(X,Y,W) :- true # by(W)``) takes the
        unit-rule step: every clause matches and leaves the node without
        the goal, its one child, canonical as it stands since the goal held
        no variable, so no unifier or renaming is built.
        """
        return self.step(node, None)[0]

    def _rule_step(self, node: ProofNode, o: int, e: int) -> Optional[tuple]:
        """The compiled step for the goal ``node[o:e]``, of a predicate
        whose clause heads are all distinct variables, and every state of
        ``node``'s shape with a goal of that predicate there; None if some
        clause's features are not ground on such states, so that the
        general path raises the error, naming the clause variable.

        Every head unifies with the goal and binds each head variable by
        its place alone, so each clause's child is one ``_template`` call
        on ``node + extra``.  Returns (extra, steps, args, vectors): per
        clause (clause, features, source, child template), ``source``
        taking each head variable bound to a goal constant to that
        constant's place; ``args(node)`` picks the goal constants the
        features use, and ``vectors`` maps those to the clauses' vectors
        once worked out.
        """
        goal = node[o + 1:e]
        first = _first_places(node)
        extra: dict[int, int] = {}
        steps = []
        used: set[int] = set()
        for clause, head, body, features in self._clauses[goal[0]]:
            source = {h: o + 1 + j for j, h in enumerate(head)
                      if j and goal[j] >= 0}
            free = set(filter(_negative, chain.from_iterable(features)))
            if not free.issubset(source):
                return None
            used.update(map(source.get, free))
            steps.append((clause, features, source, _template(
                node, o, e, body, _unify(goal, head), source, first, extra)))
        return tuple(extra), steps, itemgetter(o + 1, *sorted(used)), {}

    def _merge(self, steps):
        """(child, phi) for the (child, phi) of each clause applied to a
        node, parallel edges merged."""
        merged: dict[tuple, list] = {}
        for child, phi in steps:
            merged.setdefault((child, tuple(sorted(phi.items()))),
                              [child, phi, 0])[2] += 1
        return [(child, self.vector(tuple([(k, v * mult)
                                           for k, v in phi.items()])))
                for child, phi, mult in merged.values()]

    def restart_features(self, node: ProofNode, alpha: float) -> FeatureVector:
        """Restart-edge features for a non-solution node: ``step`` without
        the successors."""
        return self.step(node, alpha)[1]

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
        clause has a body or that subgoal differs from the start's.  Heads
        of distinct variables all unify, so a table gives their bodies.
        """
        o = 1 + node[0]
        if o == len(node):
            return None
        e = o + 2 + node[o]
        if e == len(node):
            return None
        # a child can have the start's subgoals only through a lone rest
        lone_like_start = (e + 2 + node[e] == len(node) and not _differs(
            node, e, start, 1 + start[0]))
        pred = node[o + 1]
        if pred in self.store.tuples:
            elsewhere = set(filter(_negative, node[:o] + node[e:]))
            if not elsewhere.issuperset(filter(_negative, node[o + 2:e])):
                return None
            count = self.store.binding_count(node[o + 1:e])
            return count if lone_like_start else count + 1
        bodies = self._open_heads.get((pred, e - o - 1))
        if bodies is None:
            goal = node[o + 1:e]
            bodies = [body for _, head, body, _ in self._clauses.get(pred, ())
                      if _unify(goal, head) is not None]
        if not bodies or (lone_like_start and not all(bodies)):
            return None
        return 2


def _differs(node: ProofNode, i: int, start: ProofNode, j: int) -> bool:
    """Whether no substitution of the variables of the atom at ``node[i]``
    can give the one at ``start[j]`` (up to renaming): another arity or
    predicate, or a constant where ``start`` has a variable or another
    constant."""
    if node[i] != start[j] or node[i + 1] != start[j + 1]:
        return True
    for k in range(2, 2 + node[i]):
        a = node[i + k]
        if a >= 0 and a != start[j + k]:
            return True
    return False


def transition_distribution(successors, restart_phi, w: ParameterVector,
                            fn: WeightFn, alpha_prime: float, restart_target,
                            raw_of: Optional[dict[int, float]] = None):
    """Normalized outgoing distribution over successors plus the restart.

    ``successors`` is a list of (target, phi); the restart edge goes to
    ``restart_target``, and ``restart_phi`` holds ``RESTART_FEATURE``.
    The phis given are the ones returned, not copies.
    The restart weight is raised where needed so its probability never
    falls below alpha_prime.  Returns a list of (target, probability,
    phi) summing to 1, the restart last.

    Each distinct phi object is weighed once.  ``raw_of`` maps ``id(phi)``
    to the raw weight of phis weighed before, under the same ``w`` and
    ``fn``, and gains the ones weighed now; a caller that passes it
    across calls must keep every phi it weighed alive and unchanged.
    """
    if raw_of is None:
        raw_of = {}
    for _, phi in successors:
        if id(phi) not in raw_of:
            raw_of[id(phi)] = edge_weight(fn, w, phi)
    if id(restart_phi) not in raw_of:
        raw_of[id(restart_phi)] = edge_weight(fn, w, restart_phi)
    raws = [raw_of[id(phi)] for _, phi in successors]
    s = left_sum(raws)
    r0 = max(raw_of[id(restart_phi)], alpha_prime * s / (1.0 - alpha_prime))
    z = s + r0
    out = [(t, g / z, phi) for (t, phi), g in zip(successors, raws)]
    out.append((restart_target, r0 / z, restart_phi))
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
    GroundedGraph holding every edge examined by a push.  p gains a node
    at its first push, so it lists the pushed nodes in first-push order.
    r is read back at the end: the start, then the targets of the push
    plans' edges in the order they first occur, which is the order a
    push first reached them.

    On return, r[u] <= epsilon * |N(u)| for every node with an id, and
    the true walk mass is exact = p + sum_v r(v) * ppr_v, where ppr_v is
    the walk mass seeded at v.  Hence
    0 <= exact[u] - p[u] <= epsilon * sum_v |N(v)| * ppr_v(u), and,
    as ppr_v(u) <= 1, exact[u] - p[u] is also at most the residual mass
    sum_v r(v).  The first bound equals epsilon * |N(u)| only for
    reversible walks; proof graphs are directed, and there the error at
    u can exceed epsilon * |N(u)|.

    A node is expanded once, when it is first popped with r[u] > epsilon
    and above the bound below.  Only the start and the children of
    pushed nodes get ids (when their parent is first pushed), plus any
    child whose ``is_solution`` attribute is true (when its parent is
    expanded); other children of an unpushed node are held without an
    id.  One map holds every state met, with its id or None while it is
    held.  So ``stats.nodes_discovered`` counts the nodes with ids, and
    ``node_budget`` bounds the states in that map.
    A node's first push turns its expansion into a push plan, its
    (target id, share of the pushed residual) pairs, and raises
    GroundingError if its restart probability is below alpha_prime.

    ``lower_bound(node)`` may return a number of distinct targets the
    node's expansion is certain to reach; the node is then not expanded
    while r[u] <= epsilon * bound, since it could not be pushed.  It is
    called at most once per node, so it must depend on the node alone,
    and it must return None for a node that could have a solution child.
    Under that contract p, r, the graph and the stats are the same as
    without it.
    """
    g = GroundedGraph()
    nodes = g.nodes
    # Every state met: its node id, or None for an expanded child held
    # without one.
    ids: dict = {}

    def admit(n: int):
        if len(ids) + n > node_budget:
            raise BudgetError(
                f"node budget {node_budget} exceeded; epsilon="
                f"{epsilon} is too small for this budget")

    # Per node id: its residual, whether it is on the stack, the residual
    # it must exceed to be worked on (epsilon, or epsilon times its bound
    # or degree if more) and its slot: None, its lower bound, its pending
    # expansion [edges, degree] (edges hold target states) or, from its
    # first push, its push plan (degree, [(target id, share), ...]).
    res: list[float] = []
    queued: list[bool] = []
    limit: list[float] = []
    slot: list = []
    p: dict[int, float] = {}        # absorbed mass, keyed in first-push order
    # the edges of the push plans, added to g at the end
    edge_src: list[int] = []
    edge_dst: list[int] = []
    edge_phi: list = []

    def new_id(payload) -> int:
        nid = ids[payload] = len(nodes)
        nodes.append(payload)
        res.append(0.0)
        queued.append(False)
        limit.append(epsilon)
        slot.append(None)
        return nid

    def plan_of(u: int, ru: float):
        """u's push plan, made now, or None if ``ru`` cannot push u."""
        pending = slot[u]
        if pending is None and lower_bound is not None:
            lo = slot[u] = lower_bound(nodes[u])
            if lo is not None and ru <= epsilon * lo:
                limit[u] = epsilon * lo
                return None
        if pending.__class__ is not list:
            edges = expand(nodes[u])
            targets = dict.fromkeys([t for t, _, _ in edges])
            for t in targets:
                if t not in ids and getattr(t, "is_solution", False):
                    admit(1)
                    new_id(t)
            new = [t for t in targets if t not in ids]
            admit(len(new))
            ids.update(dict.fromkeys(new))
            pending = slot[u] = [edges, len(targets)]
            bar = epsilon * len(targets)
            limit[u] = max(epsilon, bar)
            if ru <= bar:
                return None
        edges, degree = pending
        pairs = []
        for t, prob, phi in edges:
            dst = ids[t]
            if dst is None:
                dst = new_id(t)
            # the restart gives up alpha'
            share = (prob - alpha_prime) if RESTART_FEATURE in phi else prob
            if share < -1e-12:
                raise GroundingError(
                    f"restart probability {prob} below alpha_prime="
                    f"{alpha_prime} at node {nodes[u]!r}")
            pairs.append((dst, share))
            edge_phi.append(phi)
        edge_src.extend(repeat(u, len(pairs)))
        edge_dst.extend(map(itemgetter(0), pairs))
        p[u] = 0.0
        plan = slot[u] = (degree, pairs)
        return plan

    admit(1)
    v0 = g.start = new_id(start)
    res[v0] = 1.0
    pushes = degree_sum = 0
    stack = [v0]
    queued[v0] = True
    pop, push = stack.pop, stack.append

    while stack:
        u = pop()
        queued[u] = False
        ru = res[u]
        if ru <= limit[u]:
            continue
        plan = slot[u]
        if plan.__class__ is not tuple:
            plan = plan_of(u, ru)
            if plan is None:
                continue
        # Push: absorb an alpha' fraction, spread the rest by the plan.
        degree, pairs = plan
        pushes += 1
        degree_sum += degree
        p[u] += alpha_prime * ru
        res[u] = 0.0
        for dst, share in pairs:
            x = res[dst] = res[dst] + share * ru
            if x > epsilon and not queued[dst]:
                push(dst)
                queued[dst] = True

    g.add_edges(edge_src, edge_dst, edge_phi)
    r = {u: res[u] for u in dict.fromkeys(chain((v0,), edge_dst))}
    stats = PushStats(pushes=pushes, degree_sum=degree_sum,
                      nodes_discovered=len(nodes),
                      residual_mass=left_sum(r.values()))
    return p, r, g, stats


class _ProverExpander:
    """A Prover's edges for ``ground_full`` and the push loop's expander.

    The expander weighs each feature dict once per grounding: ``w`` and
    ``fn`` are fixed for the grounding, and the prover gives out one dict
    per distinct vector and holds it, so ``raw_of`` (``id(phi)`` -> raw
    weight) stays sound while the expander lives."""

    def __init__(self, prover: Prover, params: GroundingParams,
                 w: ParameterVector, fn: WeightFn, v0: ProofNode):
        self.prover = prover
        self.params = params
        self.w = w
        self.fn = fn
        self.v0 = v0
        self.loop_phi = prover.vector(((SELF_LOOP_FEATURE, 1.0),))
        self.raw_of: dict[int, float] = {}

    def successors(self, node: ProofNode):
        """(successors, restart_phi) of ``node``, from one prover step; a
        solution self-loops."""
        if node.is_solution:
            return [(node, self.loop_phi)], self.prover._unit_restart
        return self.prover.step(node, self.params.alpha)

    def __call__(self, node: ProofNode):
        return transition_distribution(*self.successors(node), self.w,
                                       self.fn, self.params.alpha_prime,
                                       self.v0, self.raw_of)

    def lower_bound(self, node: ProofNode) -> Optional[int]:
        return self.prover.degree_lower_bound(node, self.v0)


@_collector_paused()
def approximate_ground(query: Atom, program: Program, store: FactStore,
                       params: GroundingParams, w: ParameterVector,
                       fn: WeightFn):
    """Bounded local grounding of a query.

    Returns (graph, p, stats): the local grounding (at most
    1/(alpha_prime * epsilon) edges), the approximate walk-mass vector
    keyed by node id, and push statistics.
    """
    _check_arity(query, program, store)
    v0 = start_node(query)
    prover = Prover(program, store)
    expander = _ProverExpander(prover, params, w, fn, v0)
    p, r, g, stats = pagerank_nibble(v0, expander, params.alpha_prime,
                                     params.epsilon, params.node_budget,
                                     expander.lower_bound)
    _name_answers(g, query)
    return g, p, stats


@_collector_paused()
def ground_full(query: Atom, program: Program, store: FactStore,
                params: GroundingParams, w: Optional[ParameterVector] = None,
                fn: Optional[WeightFn] = None) -> GroundedGraph:
    """Exhaustive grounding of everything reachable within max_T steps.

    Breadth-first expansion; nodes first reached at depth max_T are kept
    as frontier nodes but not expanded.  Node depths are recorded in
    ``graph.depths`` (id -> SLD depth).  ``w`` and ``fn`` are unused.

    Ids are given in breadth-first order, so the nodes of one depth are
    a run of ids, the frontier is the run last given and the states live
    only in ``graph.nodes``; depths are written a level at a time, and
    the edges go into the graph in one call at the end.  A state is read
    only through the expander's ``successors`` (one prover step) and, as
    answers are named, its ``is_solution`` and ``answer_text``.
    ``tests/full_reference.py`` keeps the loop that held (state, id)
    pairs as an oracle.
    """
    _check_arity(query, program, store)
    v0 = start_node(query)
    successors = _ProverExpander(Prover(program, store), params, w, fn,
                                 v0).successors
    g = GroundedGraph()
    nodes = g.nodes
    nodes.append(v0)
    ids = {v0: 0}
    depths = g.depths
    depths[0] = 0
    budget = params.node_budget
    src: list[int] = []
    dst: list[int] = []
    phis: list[FeatureVector] = []
    add_dst, add_phi = dst.append, phis.append
    lo, hi = 0, 1       # the frontier: ids lo..hi-1
    for depth in range(1, params.max_T + 1):
        for u in range(lo, hi):
            children, restart_phi = successors(nodes[u])
            for target, phi in children:
                nid = ids.get(target)
                if nid is None:
                    nid = len(nodes)
                    if nid >= budget:
                        raise BudgetError(
                            f"node budget {budget} exceeded grounding "
                            f"{query!r}")
                    ids[target] = nid
                    nodes.append(target)
                add_dst(nid)
                add_phi(phi)
            add_dst(0)
            add_phi(restart_phi)
            src.extend(repeat(u, len(children) + 1))
        lo, hi = hi, len(nodes)
        if lo == hi:
            break
        depths.update(zip(range(lo, hi), repeat(depth)))
    g.add_edges(src, dst, phis)
    _name_answers(g, query)
    return g


def _check_arity(query: Atom, program: Program, store: FactStore):
    """Raise GroundingError when the rules (heads or bodies) or the facts
    know the query's predicate at another arity.  A predicate they do not
    know is left alone: its relation is empty."""
    for known, where in ((store.predicates().get(query.pred), "stored arity"),
                         (program.arities.get(query.pred), "arity in rules")):
        if known is not None and known != query.arity:
            raise GroundingError(f"{query.pred} queried with arity "
                                 f"{query.arity}, {where} is {known}")


def _name_answers(g: GroundedGraph, query: Atom):
    """Record the query text and each solution node's answer."""
    g.query = repr(query)
    g.solutions.update((nid, node.answer_text())
                       for nid, node in enumerate(g.nodes) if node.is_solution)

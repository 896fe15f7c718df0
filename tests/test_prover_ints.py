"""The int-coded prover against an Atom-level reference expander.

The reference expands (query atoms, subgoal atoms) states with
``atom_unify.unify``/``apply``/``canonicalize``, renaming each clause apart
with fresh variable ids and matching database goals by unifying with
every row of the relation.  Standing in for the prover's expander inside
``ground_full`` and ``approximate_ground``, it must give the same graphs
byte for byte, and at every state it expands ``Prover.expand`` must give
the same children, feature vectors and order.
"""

import gc
from dataclasses import dataclass
from functools import partial

import pytest
from hypothesis import example, given, strategies as st

from atom_unify import apply, canonicalize, rename_atoms, unify
from test_push import CASE_IDS, GROUNDING_CASES
from pprlog import grounder
from pprlog.facts import load_facts
from pprlog.graph import (DB_FEATURE, RESTART_FEATURE, SELF_LOOP_FEATURE,
                          serialize)
from pprlog.grounder import (GroundingParams, ProofNode, Prover, _flat,
                             _renaming, _row_template, _state,
                             approximate_ground, ground_full, make_node,
                             transition_distribution)
from pprlog.parser import parse_atom, parse_program
from pprlog.terms import (SYMBOLS, Atom, Const, Var, decode, intern,
                          variables_of)
from pprlog.weights import LINEAR, ParameterVector


@dataclass(frozen=True)
class RefNode:
    query: tuple[Atom, ...]
    subgoals: tuple[Atom, ...]

    @property
    def is_solution(self) -> bool:
        return not self.subgoals

    def answer_text(self) -> str:
        return ",".join(map(repr, self.query))


def ref_node(query, subgoals) -> RefNode:
    atoms = canonicalize((*query, *subgoals))
    return RefNode(atoms[:len(query)], atoms[len(query):])


def relations(store) -> dict[str, list[Atom]]:
    """The store's facts as Atoms, by predicate name."""
    return {SYMBOLS[pid]: [decode((pid, *row)) for row in rows]
            for pid, rows in store.tuples.items()}


def ref_matches(facts, goal: Atom) -> list:
    matches = (unify(goal, fact) for fact in facts[goal.pred])
    return [s for s in matches if s is not None]


class NonGroundFeature(Exception):
    """A clause gave a feature with a variable left in it."""


def ref_expand(program, facts, node: RefNode) -> list:
    goal, rest = node.subgoals[0], node.subgoals[1:]
    merged: dict = {}

    def emit(child, phi):
        key = (child, tuple(sorted(phi.items())))
        merged.setdefault(key, [child, phi, 0])[2] += 1

    if goal.pred in facts:
        for s in ref_matches(facts, goal):
            emit(ref_node(apply(s, node.query), apply(s, rest)),
                 {DB_FEATURE: 1.0})
    else:
        fresh = 1 + max((v.id for v in variables_of(
            (*node.query, *node.subgoals))), default=-1)
        for clause in program.by_pred.get(goal.pred, []):
            atoms = [clause.head, *clause.body, *clause.features]
            head, *renamed = rename_atoms(atoms, {
                v: Var(fresh + i) for i, v in enumerate(variables_of(atoms))})
            body = renamed[:len(clause.body)]
            sigma = unify(goal, head)
            if sigma is None:
                continue
            phi: dict = {}
            for feat in renamed[len(clause.body):]:
                ground = apply(sigma, feat)
                if not all(isinstance(t, Const) for t in ground.args):
                    raise NonGroundFeature(repr(ground))
                phi[repr(ground)] = phi.get(repr(ground), 0.0) + 1.0
            emit(ref_node(apply(sigma, node.query),
                          apply(sigma, (*body, *rest))), phi)
    return [(child, {k: v * mult for k, v in phi.items()} if mult > 1
             else phi) for child, phi, mult in merged.values()]


class RefExpander:
    """Stands in for the grounder's prover expander: the same successors
    and transition distribution over reference states.  At each state it
    expands, the int-coded prover expands the same state and must agree."""

    def __init__(self, prover: Prover, params, w, fn, v0, facts: dict,
                 checked: list):
        self.prover, self.params, self.w, self.fn, self.v0 = (
            prover, params, w, fn, v0)
        self.facts = facts
        self.checked = checked

    def successors(self, node: RefNode):
        if node.is_solution:
            return [(node, {SELF_LOOP_FEATURE: 1.0})], {RESTART_FEATURE: 1.0}
        successors = ref_expand(self.prover.program, self.facts, node)
        goal = node.subgoals[0]
        alpha = self.params.alpha
        restart_phi = {RESTART_FEATURE: (
            len(ref_matches(self.facts, goal)) * alpha / (1.0 - alpha)
            if goal.pred in self.facts else 1.0)}
        coded = make_node(node.query, node.subgoals)
        decoded = [((tuple(map(decode, child.query)),
                     tuple(map(decode, child.subgoals))), phi)
                   for child, phi in self.prover.expand(coded)]
        assert decoded == [((c.query, c.subgoals), phi)
                           for c, phi in successors], node
        assert self.prover.restart_features(coded, alpha) == restart_phi
        self.checked.append(node)
        return successors, restart_phi

    def __call__(self, node: RefNode):
        return transition_distribution(*self.successors(node), self.w,
                                       self.fn, self.params.alpha_prime,
                                       restart_target=self.v0)

    def lower_bound(self, node):
        return None


# Repeated variables, whose unifiers bind variable to variable, and
# children reached twice alike, whose edges merge.
SHARED_VARIABLES = (
    "shared-variables",
    parse_program("p(X,Y) :- q(X,Y) # f.\np(X,X) :- r(X) # g.\n"
                  "q(X,Y) :- e(X,Y).\ns(X) :- e(X,Y) # s.\n"
                  "s(X) :- r(X),e(X,Y) # s."),
    load_facts("e\ta\ta\ne\ta\tb\ne\tb\tb\nr\ta"),
    [parse_atom(q) for q in ("p(Z,Z)", "p(a,W)", "p(U,V)", "s(a)")])


@pytest.mark.parametrize("case", [*GROUNDING_CASES, SHARED_VARIABLES],
                         ids=[*CASE_IDS, SHARED_VARIABLES[0]])
def test_prover_matches_atom_reference(case, monkeypatch):
    _, program, store, queries = case
    params = GroundingParams(epsilon=1e-3)
    full_params = GroundingParams(max_T=8)
    w = ParameterVector()
    coded = [(approximate_ground(q, program, store, params, w, LINEAR)[0],
              ground_full(q, program, store, full_params, w, LINEAR))
             for q in queries]
    checked: list = []
    monkeypatch.setattr(grounder, "start_node",
                        lambda q: ref_node((q,), (q,)))
    monkeypatch.setattr(grounder, "_ProverExpander",
                        partial(RefExpander, facts=relations(store),
                                checked=checked))
    for q, (g, full) in zip(queries, coded):
        ref, _, _ = approximate_ground(q, program, store, params, w, LINEAR)
        assert serialize(ref) == serialize(g)
        assert serialize(ground_full(q, program, store, full_params, w,
                                     LINEAR)) == serialize(full)
    assert len(checked) > 5


# Int-coded atoms over three predicates, three constants and variables
# -1..-5; an atom with no arguments has arity zero.
P, Q, R, A, B, C = map(intern, ("tp", "tq", "tr", "ta", "tb", "tc"))
TERMS = st.sampled_from([A, B, C, -1, -2, -3, -4, -5])
ATOMS = st.builds(lambda pred, args: (pred, *args), st.sampled_from([P, Q, R]),
                  st.lists(TERMS, max_size=3))


def row_of(goal, values):
    """The row matching ``goal`` that binds variable -1-i to values[i]."""
    return tuple(a if a >= 0 else values[-1 - a] for a in goal[1:])


def goal_span(node) -> tuple[int, int]:
    """(o, e): the leftmost subgoal of a non-solution node is
    ``node[o:e]``, so ``node[o + 1:e]`` is its int-coded atom."""
    o = 1 + node[0]
    return o, o + 2 + node[o]


def goal_state(query, goal, rest):
    """The state <query | goal, rest> of int-coded atoms, and (o, e), the
    goal's place in it."""
    q = _flat(query)
    raw = (len(q), *q, *_flat((goal, *rest)))
    node = _state(raw, _renaming(raw, {}))
    return node, *goal_span(node)


@given(query=st.lists(ATOMS, min_size=1, max_size=2),
       rest=st.lists(ATOMS, max_size=3), goal=ATOMS,
       values=st.lists(st.lists(st.sampled_from([A, B, C]), min_size=5,
                                max_size=5), max_size=4))
# zero-arity atoms in the query and in the remaining subgoals
@example(query=[(P,)], rest=[(Q,), (R, -1)], goal=(P, -1),
         values=[[A] * 5, [B] * 5])
# constants and repeated variables in the goal
@example(query=[(P, -1, -2)], rest=[(Q, -2, -3)], goal=(R, A, -1, -1),
         values=[[A, B, C, A, B], [C, A, B, C, A]])
# -3 occurs only in the goal, so the two rows give one child twice
@example(query=[(P, -1)], rest=[(Q, -1, -2)], goal=(R, -1, -3),
         values=[[A, B, A, A, A], [A, B, B, A, A]])
def test_row_template_matches_state_per_row(query, rest, goal, values):
    node, o, e = goal_state(query, goal, tuple(rest))
    # rows of the goal as given match its renamed form in the state
    rows = [row_of(goal, v) for v in values]
    # the path the template replaces: the state without the goal, its
    # variables bound to the row, through _renaming and _state
    raw = node[:o] + node[e:]
    expected = []
    for row in rows:
        s = {a: v for a, v in zip(node[o + 2:e], row) if a < 0}
        expected.append(_state(raw, _renaming(raw, s)))
    template = _row_template(node, o, e)
    assert [ProofNode(template(node + row)) for row in rows] == expected


def test_states_of_one_shape_get_their_own_constants():
    program = parse_program("p(X) :- e(X,Y),r(Y),t(k).\nr(X) :- s(X).")
    prover = Prover(program, load_facts("e\ta\tb\ne\tc\td\ns\ta"))
    children = [
        [repr(c) for c, _ in prover.expand(make_node(
            (parse_atom(q),), tuple(map(parse_atom, subgoals))))]
        for q, subgoals in (("p(a)", ("e(a,Y)", "r(Y)", "t(u)")),
                            ("p(c)", ("e(c,Y)", "r(Y)", "t(v)")))]
    assert len(prover._templates) == 1
    assert children == [["<p(a) | r(b),t(u)>"], ["<p(c) | r(d),t(v)>"]]


def test_long_state_is_built_from_its_template():
    program = parse_program("p(X) :- e(X,Y),r(Y).\nr(X) :- s(X).")
    store = load_facts("e\ta\tb\ne\ta\tc\ne\tb\tc\ns\ta")
    prover = Prover(program, store)
    # Y bound by the goal, then 40 atoms sharing it and one fresh variable
    # each, some of them quoted constants
    atoms = parse_program("x :- e(X,Y),{}.".format(",".join(
        f"t(Y,Z{i},'C{i % 3}')" for i in range(40)))).clauses[0].body
    node = make_node((parse_atom("p(X)"),), atoms)
    assert len(node) >= 100
    ref = ref_expand(program, relations(store),
                     ref_node((parse_atom("p(X)"),), atoms))
    assert [((tuple(map(decode, c.query)), tuple(map(decode, c.subgoals))),
             phi) for c, phi in prover.expand(node)] == [
        ((c.query, c.subgoals), phi) for c, phi in ref]
    assert len(ref) == 3


def test_database_fan_out_merges_and_shares_features():
    program = parse_program("p(X) :- e(X,Y),r(Y).\nr(X) :- s(X).")
    prover = Prover(program, load_facts("e\ta\ta\ne\ta\tb\ns\ta"))
    # Y occurs only in the goal: both matches give <p(a) | r(a)>
    [(child, phi)] = prover.expand(make_node((parse_atom("p(a)"),),
                                             (parse_atom("e(a,Y)"),
                                              parse_atom("r(a)"))))
    assert repr(child) == "<p(a) | r(a)>" and phi == {DB_FEATURE: 2.0}
    succ = prover.expand(make_node((parse_atom("p(a)"),),
                                   (parse_atom("e(a,Y)"), parse_atom("r(Y)"))))
    assert [repr(c) for c, _ in succ] == ["<p(a) | r(a)>", "<p(a) | r(b)>"]
    assert succ[0][1] is succ[1][1] and succ[0][1] == {DB_FEATURE: 1.0}


def test_database_expansion_leaves_no_reference_cycle():
    # the row template and its table of fixed values go with their last
    # reference, not at the next run of the cyclic collector
    program = parse_program("p(X) :- e(X,Y),r(Y).\nr(X) :- s(X).")
    prover = Prover(program, load_facts("e\ta\ta\ne\ta\tb\ns\ta"))
    node = make_node((parse_atom("p(a)"),),
                     (parse_atom("e(a,Y)"), parse_atom("r(Y)")))
    assert len(prover.expand(node)) == 2   # fills the prover's caches
    gc.collect()
    gc.disable()
    try:
        prover.expand(node)
        assert gc.collect() == 0
    finally:
        gc.enable()

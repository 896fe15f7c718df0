"""The int-coded prover against an Atom-level reference expander.

The reference expands (query atoms, subgoal atoms) states with
``atom_unify.unify``/``apply``/``canonicalize``, renaming each clause apart
with fresh variable ids and matching database goals by unifying with
every row of the relation.  Standing in for the prover's expander inside
``ground_full`` and ``approximate_ground``, it must give the same graphs
byte for byte, and at every state it expands ``Prover.expand`` must give
the same children, feature vectors and order.
"""

from dataclasses import dataclass
from functools import partial

import pytest

from atom_unify import apply, canonicalize, rename_atoms, unify
from test_push import CASE_IDS, GROUNDING_CASES
from pprlog import grounder
from pprlog.facts import load_facts
from pprlog.graph import (DB_FEATURE, RESTART_FEATURE, SELF_LOOP_FEATURE,
                          serialize)
from pprlog.grounder import (GroundingParams, Prover, approximate_ground,
                             ground_full, make_node, transition_distribution)
from pprlog.parser import parse_atom, parse_program
from pprlog.terms import SYMBOLS, Atom, Const, Var, decode, variables_of
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
                assert all(isinstance(t, Const) for t in ground.args)
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

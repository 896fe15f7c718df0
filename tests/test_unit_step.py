"""The unit-rule step and the prover's shared feature vectors.

A ground goal of a predicate defined only by body-less clauses over
distinct head variables is expanded in one step, without unifying or
renaming; it must give what the general clause path gives.  Equal
vectors are one dict per prover, and the graph interns each such dict
once by identity; the tables that gives must be the ones
``graph_build.add_edge`` builds by ``repr``.
"""

from collections import defaultdict

import pytest

from graph_build import add_edge, add_node
from pprlog.facts import load_facts
from pprlog.graph import GroundedGraph, RESTART_FEATURE
from pprlog.grounder import (GroundingError, GroundingParams, Prover,
                             _ProverExpander, approximate_ground, ground_full,
                             make_node, start_node)
from pprlog.parser import parse_atom, parse_program
from pprlog.synth import (CITATION_RULES, HYPERLINK_RULES, SyntheticDbSpec,
                          citation_corpus, hyperlink_db)
from pprlog.weights import LINEAR, ParameterVector

PARAMS = GroundingParams()


def dataset(task: str, seed: int):
    """(program, store, queries) of a toy synthetic dataset."""
    if task == "hyperlink":
        facts, lines = hyperlink_db(SyntheticDbSpec(200, 4.0, 50, seed),
                                    num_queries=1)
        queries, rules = lines.split("\n")[:1], HYPERLINK_RULES
    else:
        facts, train, _ = citation_corpus(num_papers=4, seed=seed)
        queries = [line.split("\t")[0] for line in train.splitlines()[:2]]
        rules = CITATION_RULES
    return (parse_program(rules), load_facts(facts),
            [parse_atom(q) for q in queries])


def general_path(prover: Prover) -> Prover:
    """A prover like ``prover`` whose every rule goal takes the general
    clause path: no unit step and no rule templates."""
    general = Prover(prover.program, prover.store)
    general._units = {}
    general._open_heads = {}
    return general


def takes_unit_step(prover: Prover, node) -> bool:
    goal = node.subgoals[0] if node.subgoals else None
    return (goal is not None and (goal[0], len(goal)) in prover._units
            and min(goal) >= 0)


def items(successors) -> list:
    return [(child, list(phi.items())) for child, phi in successors]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("task", ["hyperlink", "citation"])
def test_unit_step_matches_general_path(task, seed):
    program, store, queries = dataset(task, seed)
    prover = Prover(program, store)
    general = general_path(prover)
    stepped = 0
    for query in queries:
        g, _, _ = approximate_ground(query, program, store, PARAMS,
                                     ParameterVector(), LINEAR)
        for node in g.nodes:
            if takes_unit_step(prover, node):
                stepped += 1
                assert (items(prover.expand(node))
                        == items(general.expand(node))), node
    assert stepped > 100


def expand_both(rules: str, goal: str):
    """``expand`` of <q(X) | goal, r(X)> by the unit-rule step and by the
    general path."""
    prover = Prover(parse_program(rules + "\nr(X) :- s(X)."),
                    load_facts("s\ta"))
    node = make_node((parse_atom("q(X)"),),
                     (parse_atom(goal), parse_atom("r(X)")))
    assert takes_unit_step(prover, node)
    return prover.expand(node), general_path(prover).expand(node)


def test_equal_unit_clauses_merge_into_one_edge():
    got, general = expand_both("p(X) :- true # f.\np(Y) :- true # f.",
                               "p(a)")
    assert items(got) == items(general) == [
        (make_node((parse_atom("q(X)"),), (parse_atom("r(X)"),)),
         [("f", 2.0)])]


def test_unit_clauses_with_other_features_give_parallel_edges():
    got, general = expand_both("p(X,Y) :- true # f(Y).\n"
                               "p(X,Y) :- true # g(X),f(Y).", "p(a,b)")
    child = make_node((parse_atom("q(X)"),), (parse_atom("r(X)"),))
    assert items(got) == items(general) == [
        (child, [("f(b)", 1.0)]), (child, [("g(a)", 1.0), ("f(b)", 1.0)])]


def test_arity_zero_unit_goal():
    got, general = expand_both("p :- true # f.", "p")
    assert items(got) == items(general)


@pytest.mark.parametrize("rules,goal,message", [
    ("p(X) :- true # f(Y).", "p(a)",
     "non-ground feature f(Y) when applying clause c1 "
     "(p(X) :- true # f(Y).) to p(a)"),
    ("p(W) :- true # id(W).", "p(selfLoop)",
     "clause c1 (p(W) :- true # id(W).) gives the feature "
     "'id(selfLoop)', a name reserved for built-in edges"),
], ids=["non-ground", "builtin-name"])
def test_unit_clause_errors_are_the_general_paths(rules, goal, message):
    prover = Prover(parse_program(rules), load_facts(""))
    for p in (prover, general_path(prover)):
        # with a variable in the state, so the names must be worked out
        node = make_node((parse_atom("q(Z)"),),
                         (parse_atom(goal), parse_atom("q(Z)")))
        with pytest.raises(GroundingError) as err:
            p.expand(node)
        assert str(err.value) == message


def hyperlink_case():
    program, store, (query,) = dataset("hyperlink", 0)
    return program, store, query


def test_equal_vectors_of_a_grounding_are_one_dict():
    program, store, query = hyperlink_case()
    v0 = start_node(query)
    expander = _ProverExpander(Prover(program, store), PARAMS,
                               ParameterVector(), LINEAR, v0)
    g, _, _ = approximate_ground(query, program, store, PARAMS,
                                 ParameterVector(), LINEAR)
    ids = defaultdict(set)   # a vector's items -> ids of its dicts
    for node in g.nodes:
        successors, restart_phi = expander.successors(node)
        phis = [phi for _, phi in successors] + [restart_phi]
        # the distribution hands on the very dicts, the restart's too
        dist = expander(node)
        assert len(dist) == len(phis)
        assert all(a is b for (*_, a), b in zip(dist, phis))
        for phi in phis:
            ids[tuple(phi.items())].add(id(phi))
    assert len(ids) > 10
    assert all(len(dicts) == 1 for dicts in ids.values())
    assert ((RESTART_FEATURE, 1.0),) in ids


@pytest.mark.parametrize("full", [False, True], ids=["push", "full"])
def test_identity_interning_matches_repr_interning(full):
    program, store, query = hyperlink_case()
    g = (ground_full(query, program, store, GroundingParams(max_T=6))
         if full else approximate_ground(query, program, store, PARAMS,
                                         ParameterVector(), LINEAR)[0])
    by_repr = GroundedGraph()
    for e in g.edges:
        add_edge(by_repr, e.src, e.dst, e.phi)
    assert g.num_edges > 100 and len(g.phis) > 10
    assert by_repr.phis == g.phis
    assert by_repr.phi_id == g.phi_id


def test_add_edges_keys_fresh_dicts_by_repr():
    g = GroundedGraph()
    add_node(g)
    shared = {"f": 1.0}
    phis = [shared, {"f": 1.0}, shared, {"f": 1}, {"g": 1.0}, shared]
    g.add_edges([0] * 6, [0] * 6, phis)
    assert g.phis == [(("f", 1.0),), (("f", 1),), (("g", 1.0),)]
    assert list(g.phi_id) == [0, 0, 0, 1, 2, 0]
    # a later call finds the entries of equal dicts by repr
    g.add_edges([0, 0], [0, 0], [{"g": 1.0}, shared])
    assert list(g.phi_id)[6:] == [2, 0] and len(g.phis) == 3

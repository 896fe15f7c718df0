"""Compiled rule steps and the one prover step per state.

A goal of a predicate whose clause heads are all distinct variables is
expanded by one template per clause, compiled for the goal's predicate,
its place and the state's shape (``Prover._rule_step``).  It must give
what the general clause path and the Atom-level reference give, merge
equal edges as they do, and raise the same errors.  ``Prover.step``
gives a state's successors and restart vector in one call; a database
goal's restart counts the rows that step matched.
"""

import pytest

from test_prover_ints import goal_span, ref_expand, ref_node, relations
from test_unit_step import general_path, items
from pprlog.facts import load_facts
from pprlog.grounder import (GroundingError, GroundingParams, Prover,
                             _renaming, _state, _unify, approximate_ground,
                             ground_full, make_node)
from pprlog.graph import DB_FEATURE, RESTART_FEATURE
from pprlog.parser import parse_atom, parse_program
from pprlog.terms import decode
from pprlog.weights import LINEAR, ParameterVector


def state(query: str, subgoals: str):
    """The state <query | subgoals>, its variables shared."""
    atoms = parse_program(f"x :- {query},{subgoals}.").clauses[0].body
    return make_node(atoms[:1], atoms[1:])


def assert_agrees(prover: Prover, node):
    """The compiled step gives what the general path and the reference
    give; returns its successors."""
    got = prover.expand(node)
    assert any(compiled is not None
               for compiled in prover._rule_steps.values()), node
    assert items(got) == items(general_path(prover).expand(node))
    ref = ref_expand(prover.program, relations(prover.store),
                     ref_node(tuple(map(decode, node.query)),
                              tuple(map(decode, node.subgoals))))
    assert [((tuple(map(decode, c.query)), tuple(map(decode, c.subgoals))),
             phi) for c, phi in got] == [((c.query, c.subgoals), phi)
                                         for c, phi in ref]
    return got


RULES = ("p(X,Y) :- e(X,U),e(U,V),r(V,Y) # f.\n"
         "p(X,Y) :- r(Y,X) # g.\n"
         "r(X,Y) :- e(Y,X) # h.\n"
         "u(X,Y) :- e(Y,X),p(X,Y) # k(X),k(X),h.\n")
FACTS = "e\ta\tb\ne\tb\tb\ne\tb\ta"


@pytest.mark.parametrize("query,subgoals", [
    # a repeated goal variable
    ("q(Z)", "p(Z,Z)"),
    ("q(Z)", "p(a,Z),p(Z,Z)"),
    # goal variables that also occur in the query part and the rest
    ("s(Z,W)", "p(Z,a),t(W,Z)"),
    ("s(W,Z)", "p(b,W),t(W),u(Z,W)"),
    # body-only variables U, V renamed after the state's own
    ("s(Z)", "p(a,Z)"),
    ("s(Z,W)", "r(a,Z),p(Z,W)"),
    # features from the goal's constants
    ("s(Z)", "u(a,Z),p(Z,Z)"),
], ids=["repeated", "repeated-after", "in-query", "in-rest", "fresh",
        "fresh-after", "features"])
def test_rule_templates_match_general_path_and_reference(query, subgoals):
    prover = Prover(parse_program(RULES), load_facts(FACTS))
    node = state(query, subgoals)
    assert_agrees(prover, node)
    # a second state of the shape, with other constants, takes the same
    # template
    steps = len(prover._rule_steps)
    other = state(query.replace("a", "b"), subgoals.replace("a", "b"))
    assert_agrees(prover, other)
    assert len(prover._rule_steps) == steps


@pytest.mark.parametrize("query,subgoals", [
    ("q(Z)", "p(Z,Z)"), ("s(Z,W)", "p(Z,a),t(W,Z)"), ("s(Z)", "p(a,Z)"),
    ("s(Z,W)", "r(a,Z),p(Z,W)"), ("s(Z)", "u(a,Z),p(Z,Z)"),
], ids=["repeated", "in-query", "fresh", "fresh-after", "features"])
def test_rule_template_gives_the_renamed_state(query, subgoals):
    # each clause's template over the state and the compiled tail gives
    # the state the general path renames, compared as plain ints so that
    # a malformed child fails here rather than in its repr
    prover = Prover(parse_program(RULES), load_facts(FACTS))
    node = state(query, subgoals)
    o, e = goal_span(node)
    goal = node[o + 1:e]
    extra, steps, _, _ = prover._rule_step(node, o, e)
    want = []
    for _, head, body, _ in prover._clauses[goal[0]]:
        raw = node[:o] + body + node[e:]
        want.append(tuple(_state(raw, _renaming(raw, _unify(goal, head)))))
    assert [tuple(child(node + extra)) for _, _, _, child in steps] == want


@pytest.mark.parametrize("goal,want", [
    # both clauses give <q(a) | e(a,b)>: one edge {f: 2.0}
    ("p(a,b)", [("<q(a) | e(a,b)>", [("f", 2.0)])]),
    # the same shape, where the children differ: two edges
    ("p(a,c)", [("<q(a) | e(a,c)>", [("f", 1.0)]),
                ("<q(a) | e(a,b)>", [("f", 1.0)])]),
    # equal children, other features: parallel edges, not merged
    ("t(a)", [("<q(a) | e(a,a)>", [("f", 1.0)]),
              ("<q(a) | e(a,a)>", [("g", 1.0)])]),
])
def test_rule_template_children_merge_as_on_the_general_path(goal, want):
    prover = Prover(parse_program("p(X,Y) :- e(X,Y) # f.\n"
                                  "p(X,Y) :- e(X,b) # f.\n"
                                  "t(X) :- e(X,X) # f.\nt(Y) :- e(Y,Y) # g."),
                    load_facts("e\ta\tb"))
    got = assert_agrees(prover, state("q(a)", goal))
    assert [(repr(c), list(phi.items())) for c, phi in got] == want


def test_rule_template_key_holds_the_predicate():
    # goals of p and r have one shape; each must take its own clauses
    prover = Prover(parse_program("p(X,Y) :- e(X,Y) # f.\n"
                                  "r(X,Y) :- e(Y,X),e(X,X) # g."),
                    load_facts("e\ta\tb"))
    got = [[repr(c) for c, _ in assert_agrees(prover, state("q(Z)", goal))]
           for goal in ("p(a,Z)", "r(a,Z)", "p(b,Z)")]
    assert got == [["<q(V0) | e(a,V0)>"], ["<q(V0) | e(V0,a),e(a,a)>"],
                   ["<q(V0) | e(b,V0)>"]]
    assert len(prover._rule_steps) == 2


@pytest.mark.parametrize("rules,query,message", [
    ("p(X,Y) :- e(X,Y) # f(Y).", "p(a,W)",
     "non-ground feature f(Y) when applying clause c1 "
     "(p(X,Y) :- e(X,Y) # f(Y).) to p(a,V0)"),
    ("p(X,Y) :- e(X,Y) # f(X).\np(X,Y) :- e(X,Y) # g(U).", "p(a,W)",
     "non-ground feature g(U) when applying clause c2 "
     "(p(X,Y) :- e(X,Y) # g(U).) to p(a,V0)"),
    ("p(X,Y) :- e(X,Y) # id(X).", "p(selfLoop,W)",
     "clause c1 (p(X,Y) :- e(X,Y) # id(X).) gives the feature "
     "'id(selfLoop)', a name reserved for built-in edges"),
], ids=["non-ground", "second-clause", "builtin-name"])
def test_rule_goal_errors_keep_their_text(rules, query, message):
    program, store = parse_program(rules), load_facts("e\ta\tb")
    q = parse_atom(query)
    with pytest.raises(GroundingError) as full:
        ground_full(q, program, store, GroundingParams())
    with pytest.raises(GroundingError) as approx:
        approximate_ground(q, program, store, GroundingParams(),
                           ParameterVector(), LINEAR)
    prover = Prover(program, store)
    with pytest.raises(GroundingError) as general:
        general_path(prover).expand(state("q(W)", query))
    assert str(full.value) == str(approx.value) == message
    assert str(general.value) == message


@pytest.mark.parametrize("goal,rows", [
    ("e(a,Y)", 2),       # Y only in the goal: two rows, one child
    ("e(Z,Z)", 2),       # a repeated variable: the rows are filtered
    ("e(a,b)", 1),       # two bound arguments
    ("e(c,Y)", 0),       # no row: restart only
])
def test_database_restart_counts_the_matched_rows(goal, rows):
    prover = Prover(parse_program("p(X) :- e(X,Y)."),
                    load_facts("e\ta\ta\ne\ta\tb\ne\tb\tb\ne\tb\ta"))
    node = state("q(a)", goal)
    successors, restart = prover.step(node, 0.2)
    assert successors == prover.expand(node)
    assert restart == {RESTART_FEATURE: rows * 0.2 / 0.8}
    assert restart is prover.restart_features(node, 0.2)
    if goal == "e(a,Y)":
        assert successors[0][1] == {DB_FEATURE: 2.0}
    # a rule goal shares the prover's one unit restart
    assert prover.step(state("q(a)", "p(a)"), 0.2)[1] is (
        prover.restart_features(state("q(a)", "p(b)"), 0.5))

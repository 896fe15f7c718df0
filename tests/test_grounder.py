import warnings

import pytest

from pprlog import grounder
from pprlog.facts import load_facts
from pprlog.graph import RESTART_FEATURE, serialize
from pprlog.grounder import (BudgetError, GroundingError, GroundingParams,
                             Prover, approximate_ground, ground_full,
                             make_node, start_node, transition_distribution)
from pprlog.inference import power_iterate
from pprlog.parser import parse_atom, parse_program
from pprlog.weights import EXP, LINEAR, ParameterVector


@pytest.fixture
def prover(hyperlink_program, hyperlink_store):
    return Prover(hyperlink_program, hyperlink_store)


def test_expand_rule_goal_uses_both_clauses(prover):
    node = start_node(parse_atom("about(a,Z)"))
    succ = prover.expand(node)
    feats = sorted(tuple(phi) for _, phi in succ)
    assert feats == [("base",), ("prop",)]


def test_expand_db_goal_one_edge_per_match(prover):
    node = start_node(parse_atom("hasWord(a,W)"))
    succ = prover.expand(node)
    assert len(succ) == 1  # only hasWord(a,sprinter) in the fixture store
    assert all(phi == {"db": 1.0} for _, phi in succ)
    child, _ = succ[0]
    assert child.is_solution
    assert child.answer_text() == "hasWord(a,sprinter)"


def test_expand_dead_end(prover):
    node = start_node(parse_atom("links(z,Y)"))
    assert prover.expand(node) == []


def test_nonground_feature_raises():
    prog = parse_program("sim(X,Y) :- links(X,Y) # by(W).")
    store = load_facts("links\ta\tb")
    prover = Prover(prog, store)
    with pytest.raises(GroundingError, match="by\\(W"):
        prover.expand(start_node(parse_atom("sim(a,Y)")))


def test_ground_feature_instantiated_by_mgu():
    prog = parse_program("linkedBy(X,Y,W) :- true # by(W).")
    prover = Prover(prog, load_facts(""))
    succ = prover.expand(start_node(parse_atom("linkedBy(a,b,sprinter)")))
    assert [phi for _, phi in succ] == [{"by(sprinter)": 1.0}]


def test_clause_feature_may_not_be_builtin():
    # a clause edge carrying defRestart would read back as a restart edge
    prog = parse_program("p(X) :- q(X) # defRestart.\np(X) :- r(X) # f.")
    prover = Prover(prog, load_facts("q\ta\nr\ta"))
    with pytest.raises(GroundingError, match="c1 .*'defRestart'"):
        prover.expand(start_node(parse_atom("p(a)")))


def test_bound_feature_may_not_be_builtin():
    prog = parse_program("p(W) :- q(W) # id(W).")
    prover = Prover(prog, load_facts("q\tselfLoop\nq\ta"))
    assert [phi for _, phi in prover.expand(start_node(parse_atom("p(a)")))
            ] == [{"id(a)": 1.0}]
    with pytest.raises(GroundingError, match=r"c1 .*'id\(selfLoop\)'"):
        prover.expand(start_node(parse_atom("p(selfLoop)")))


def test_restart_features_rule_goal(prover):
    node = start_node(parse_atom("about(b,Z)"))
    assert prover.restart_features(node, 0.2) == {RESTART_FEATURE: 1.0}


def test_restart_features_db_goal_scales_with_bindings():
    store = load_facts("\n".join(f"hasWord\ta\tw{i}" for i in range(4)))
    prover = Prover(parse_program("p(X) :- hasWord(X,W)."), store)
    node = start_node(parse_atom("hasWord(a,W)"))
    phi = prover.restart_features(node, 0.2)
    assert phi[RESTART_FEATURE] == pytest.approx(4 * 0.2 / 0.8)  # = 1.0


def test_restart_features_no_bindings_zero_weight(prover):
    node = start_node(parse_atom("links(z,Y)"))
    assert prover.restart_features(node, 0.2) == {RESTART_FEATURE: 0.0}


def test_alpha_equivalent_states_merge(prover):
    n1 = start_node(parse_atom("about(a,Z)"))
    n2 = start_node(parse_atom("about(a,Q)"))
    assert n1 == n2


def test_transition_uniform_weights():
    w = ParameterVector()
    succ = [("s1", {"f1": 1.0}), ("s2", {"f2": 1.0})]
    dist = transition_distribution(succ, {RESTART_FEATURE: 1.0}, w, LINEAR,
                                   0.1, restart_target="v0")
    assert [p for _, p, _ in dist] == pytest.approx([1 / 3] * 3)


def test_transition_db_restart_calibration():
    # n=4 bindings, alpha=0.2, unit weights, linear f: restart is exactly 0.2.
    w = ParameterVector()
    succ = [(f"s{i}", {"db": 1.0}) for i in range(4)]
    dist = transition_distribution(succ, {RESTART_FEATURE: 4 * 0.2 / 0.8},
                                   w, LINEAR, 0.1, restart_target="v0")
    probs = {t: p for t, p, _ in dist}
    assert probs["v0"] == pytest.approx(0.2)
    assert probs["s0"] == pytest.approx(0.2)


def test_transition_direct_normalization():
    w = ParameterVector({"f": 3.0, RESTART_FEATURE: 1.0})
    dist = transition_distribution([("s", {"f": 1.0})],
                                   {RESTART_FEATURE: 1.0}, w, LINEAR, 0.1,
                                   restart_target="v0")
    probs = {t: p for t, p, _ in dist}
    assert probs["s"] == pytest.approx(0.75)
    assert probs["v0"] == pytest.approx(0.25)


def test_transition_restart_floor_enforced():
    # 20 unit successors would leave restart at 1/21 < alpha'; the floor
    # raises it to exactly alpha'.
    w = ParameterVector()
    succ = [(f"s{i}", {"f": 1.0}) for i in range(20)]
    dist = transition_distribution(succ, {RESTART_FEATURE: 1.0}, w, LINEAR,
                                   0.1, restart_target="v0")
    probs = {t: p for t, p, _ in dist}
    assert probs["v0"] == pytest.approx(0.1)
    assert sum(p for _, p, _ in dist) == pytest.approx(1.0)


def test_transition_dead_end_is_restart_only():
    dist = transition_distribution([], {RESTART_FEATURE: 0.0},
                                   ParameterVector(), LINEAR, 0.1,
                                   restart_target="v0")
    assert [(t, p) for t, p, _ in dist] == [("v0", pytest.approx(1.0))]


def test_transition_nonpositive_weight_rejected():
    w = ParameterVector({"f": 1e309})  # overflows exp to inf
    with pytest.raises(ValueError):
        transition_distribution([("s", {"f": 1.0})], {RESTART_FEATURE: 1.0},
                                w, EXP, 0.1, restart_target="v0")
    # negative linear weights are floored instead
    w = ParameterVector({"f": -1.0})
    dist = transition_distribution([("s", {"f": 1.0})],
                                   {RESTART_FEATURE: 1.0}, w, LINEAR, 0.1,
                                   restart_target="v0")
    assert all(p > 0 for _, p, _ in dist)


def test_ground_full_matches_proof_graph(hyperlink_program, hyperlink_store):
    params = GroundingParams(max_T=30)
    g = ground_full(parse_atom("about(a,Z)"), hyperlink_program,
                    hyperlink_store, params, ParameterVector(), LINEAR)
    answers = set(g.solutions.values())
    assert "about(a,fashion)" in answers
    assert "about(a,sport)" in answers
    # every non-start node reachable from the start
    reach = {g.start}
    frontier = [g.start]
    out = {}
    for e in g.edges:
        out.setdefault(e.src, []).append(e.dst)
    while frontier:
        u = frontier.pop()
        for v in out.get(u, []):
            if v not in reach:
                reach.add(v)
                frontier.append(v)
    assert reach == set(range(g.num_nodes))


def test_ground_full_depth_zero(hyperlink_program, hyperlink_store):
    params = GroundingParams(max_T=1)
    g = ground_full(parse_atom("about(a,Z)"), hyperlink_program,
                    hyperlink_store, GroundingParams(max_T=0),
                    ParameterVector(), LINEAR)
    assert g.num_nodes == 1 and g.num_edges == 0


def test_ground_full_node_budget(hyperlink_program, hyperlink_store):
    params = GroundingParams(max_T=10, node_budget=3)
    with pytest.raises(BudgetError, match="node budget 3"):
        ground_full(parse_atom("about(a,Z)"), hyperlink_program,
                    hyperlink_store, params, ParameterVector(), LINEAR)


def test_ground_full_weighs_no_edge(hyperlink_program, hyperlink_store,
                                    monkeypatch):
    def ground():
        g = ground_full(parse_atom("about(a,Z)"), hyperlink_program,
                        hyperlink_store, GroundingParams(max_T=30),
                        ParameterVector(), LINEAR)
        return serialize(g), g.depths

    expected = ground()

    def weigh(*args, **kwargs):
        raise AssertionError("ground_full weighed an edge")

    monkeypatch.setattr(grounder, "transition_distribution", weigh)
    monkeypatch.setattr(grounder, "edge_weight", weigh)
    assert ground() == expected


def test_exact_path_reports_overflow_once():
    # exp(1e4) overflows: grounding needs no weights, and power_iterate
    # names the edge without a numpy warning
    prog = parse_program("p(X) :- q(X) # f.")
    store = load_facts("q\ta")
    w = ParameterVector({"f": 1e4})
    params = GroundingParams()
    g = ground_full(parse_atom("p(Y)"), prog, store, params, w, EXP)
    assert list(g.solutions.values()) == ["p(a)"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite weight on edge 0->1"):
            power_iterate(g, w, EXP, params.max_T,
                          alpha_prime=params.alpha_prime)


@pytest.mark.parametrize("field,value", [("max_T", -1), ("node_budget", 0)])
def test_params_reject_bad_horizon_and_budget(field, value):
    with pytest.raises(ValueError, match=field):
        GroundingParams(**{field: value})


def test_answers_with_quoted_constants_are_distinct():
    # the one-argument answer for the constant "a,b" is not the text of
    # the two-argument atom p(a,b)
    prog = parse_program("p(X) :- q(X) # f.")
    store = load_facts("q\ta,b\nq\tc")
    g, _, _ = approximate_ground(parse_atom("p(Y)"), prog, store,
                                 GroundingParams(), ParameterVector(), LINEAR)
    answers = set(g.solutions.values())
    assert answers == {"p('a,b')", "p(c)"}
    assert parse_atom("p('a,b')").arity == 1
    assert repr(parse_atom("p(a,b)")) == "p(a,b)"


def test_ground_full_unknown_predicate(hyperlink_program, hyperlink_store):
    g = ground_full(parse_atom("mystery(a,Z)"), hyperlink_program,
                    hyperlink_store, GroundingParams(max_T=5),
                    ParameterVector(), LINEAR)
    assert g.num_nodes == 1
    assert all(e.is_restart for e in g.edges)


@pytest.mark.parametrize("query,subgoals,bound", [
    # database goal: one distinct child per match when its variables recur,
    # plus the restart when no child can be the start state
    ("p(X)", "q(X,Y),r(Y)", 4),
    # ... a lone p(Y) could rebuild the start, so no restart is counted
    ("p(X)", "q(X,Y),p(Y)", 3),
    # ... but Y occurs only in the goal, so the three matches merge
    ("p(a)", "q(a,Y),r(a)", None),
    # a lone subgoal may yield solution children
    ("p(a)", "r(a)", None),
    ("p(a)", "q(a,Y)", None),
    ("p(a)", "", None),
    # rule goal: the lone remaining subgoal could rebuild the start state
    ("p(a)", "t(a),p(a)", None),
    ("p(a)", "t(a),p(X)", None),
    ("p(a)", "t(b),p(b)", 2),
    ("p(a)", "t(a),p(a),r(a)", 2),
    ("p(a)", "t(a),s(a)", 2),
    # ... only through a body-less clause: every clause for r has a body
    ("p(a)", "r(a),p(X)", 2),
    ("p(a)", "r(a),p(a)", 2),
    ("p(a)", "u(X),p(a)", None),
    # no clause head unifies
    ("p(a)", "u(a),p(b)", None),
])
def test_degree_lower_bound_cases(query, subgoals, bound):
    program = parse_program("p(X) :- q(X,Y),r(Y).\nr(X) :- s(X).\n"
                            "t(X) :- true.\nu(b) :- true.")
    store = load_facts("q\ta\tb\nq\ta\tc\nq\ta\td\ns\ta")
    prover = Prover(program, store)
    start = start_node(parse_atom("p(a)"))
    # parse the state as one clause body so its variables are shared
    atoms = parse_program(f"x :- {','.join(filter(None, (query, subgoals)))}."
                          ).clauses[0].body
    node = make_node(atoms[:1], atoms[1:])
    assert prover.degree_lower_bound(node, start) == bound
    if bound is not None:
        targets = {child for child, _ in prover.expand(node)} | {start}
        assert bound <= len(targets)

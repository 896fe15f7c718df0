import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from graph_build import is_restart
from pprlog import grounder
from pprlog.facts import load_facts
from pprlog.graph import DB_FEATURE, RESTART_FEATURE, serialize
from pprlog.grounder import (BudgetError, GroundingError, GroundingParams,
                             Prover, approximate_ground, ground_full,
                             make_node, start_node, transition_distribution)
from pprlog.inference import power_iterate
from pprlog.parser import parse_atom, parse_program
from pprlog.terms import SYMBOLS
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


def malformed(arity: int) -> grounder.ProofNode:
    """<p(a) | p(a)> with its goal's arity, at place 4, set to ``arity``:
    a state only a faulty prover makes."""
    flat = list(start_node(parse_atom("p(a)")))
    flat[4] = arity
    return grounder.ProofNode(flat)


@pytest.mark.parametrize("arity", [-1, 2], ids=["negative", "overrun"])
def test_malformed_state_fails(arity):
    # pytest prints a state's repr when a comparison of states fails
    message = (f"malformed proof state: the atom at place 4 has arity "
               f"{arity}, which is negative or runs past place 7")
    with pytest.raises(ValueError, match=message):
        malformed(arity).subgoals
    with pytest.raises(ValueError, match=message):
        repr(malformed(arity))


def test_state_of_arity_minus_2_fails_instead_of_hanging():
    # arity -2 leaves the atom walk in place; run it in a child process
    # with a time limit and a memory cap, so that a walk that never ends
    # fails the test instead of hanging the suite or filling memory
    child = """if True:
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
        from test_grounder import malformed
        try:
            malformed(-2).subgoals
        except ValueError as e:
            print(e)
        """
    path = [Path(grounder.__file__).parent.parent, Path(__file__).parent]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(map(str, path))}
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, (
        "malformed proof state: the atom at place 4 has arity -2, which is "
        "negative or runs past place 7\n")), proc.stderr


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


@pytest.mark.parametrize("fn", [LINEAR, EXP])
def test_transition_shared_phi_weighs_as_copies(fn):
    # successors that share one feature dict get the triples that equal
    # copies get, bit for bit
    w = ParameterVector({"db": 0.37, "f": -0.21, RESTART_FEATURE: 1.3})
    shared, other = {"db": 1.0, "f": 0.7}, {"f": 2.0}
    phis = [shared, other, shared, shared, other]
    succ = [(f"s{i}", phi) for i, phi in enumerate(phis)]
    copies = [(t, dict(phi)) for t, phi in succ]
    dist = transition_distribution(succ, {RESTART_FEATURE: 0.5}, w, fn, 0.1,
                                   restart_target="v0")
    assert dist == transition_distribution(copies, {RESTART_FEATURE: 0.5},
                                           w, fn, 0.1, restart_target="v0")
    assert len({p for _, p, _ in dist}) == 3   # the phis weigh apart


@pytest.mark.parametrize("full", [False, True])
def test_grounded_db_fan_out_edges_own_their_features(full, hyperlink_program,
                                                      hyperlink_store):
    # the prover gives a fan-out's edges one shared dict; the graph copies
    query, params = parse_atom("links(X,Y)"), GroundingParams(max_T=2)
    g = (ground_full(query, hyperlink_program, hyperlink_store, params)
         if full else approximate_ground(query, hyperlink_program,
                                         hyperlink_store, params,
                                         ParameterVector(), LINEAR)[0])
    fan_out = [e for e in g.edges if e.src == g.start and DB_FEATURE in e.phi]
    assert len(fan_out) == 3 and fan_out[0].phi is not fan_out[1].phi
    fan_out[0].phi[DB_FEATURE] = 5.0
    assert fan_out[1].phi == {DB_FEATURE: 1.0}


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
    assert all(is_restart(e) for e in g.edges)


@pytest.mark.parametrize("full", [False, True], ids=["push", "full"])
@pytest.mark.parametrize("query,message", [
    ("about(a)", "about queried with arity 1, arity in rules is 2"),
    ("about(a,Z,W)", "about queried with arity 3, arity in rules is 2"),
    ("linkedBy(a,b)", "linkedBy queried with arity 2, arity in rules is 3"),
    ("hasWord(a)", "hasWord queried with arity 1, stored arity is 2"),
    ("handLabeled(a,b,c)",
     "handLabeled queried with arity 3, stored arity is 2"),
], ids=["rule-head-1", "rule-head-3", "rule-head-2", "facts-1", "facts-3"])
def test_query_at_another_arity_is_refused(hyperlink_program, hyperlink_store,
                                           query, message, full):
    args = (parse_atom(query), hyperlink_program, hyperlink_store,
            GroundingParams(max_T=5), ParameterVector(), LINEAR)
    with pytest.raises(GroundingError) as e:
        ground_full(*args) if full else approximate_ground(*args)
    assert str(e.value) == message


@pytest.mark.parametrize("full", [False, True], ids=["push", "full"])
def test_query_at_another_arity_than_a_rule_body_is_refused(full):
    # q has no clause and no rows; a body gives its arity
    args = (parse_atom("q(a)"), parse_program("p(X) :- q(X,Y) # f."),
            load_facts("r\ta\n"), GroundingParams(max_T=5),
            ParameterVector(), LINEAR)
    with pytest.raises(GroundingError,
                       match=r"^q queried with arity 1, arity in rules is 2$"):
        ground_full(*args) if full else approximate_ground(*args)


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
    # heads with a repeated variable or a constant: unified clause by clause
    ("p(a)", "v(b,b),p(b)", 2),
    ("p(a)", "v(a,b),p(b)", None),
    ("p(a)", "k(b,a),p(b)", 2),
    ("p(a)", "k(b,b),p(b)", None),
])
def test_degree_lower_bound_cases(query, subgoals, bound):
    program = parse_program("p(X) :- q(X,Y),r(Y).\nr(X) :- s(X).\n"
                            "t(X) :- true.\nu(b) :- true.\n"
                            "v(X,X) :- true.\nk(X,a) :- s(X).")
    store = load_facts("q\ta\tb\nq\ta\tc\nq\ta\td\ns\ta")
    prover = Prover(program, store)
    start = start_node(parse_atom("p(a)"))
    # parse the state as one clause body so its variables are shared
    atoms = parse_program(f"x :- {','.join(filter(None, (query, subgoals)))}."
                          ).clauses[0].body
    node = make_node(atoms[:1], atoms[1:])
    assert prover.degree_lower_bound(node, start) == bound
    # the predicates whose heads are distinct variables skip _unify, and
    # unifying every head gives the same bound
    assert {SYMBOLS[p] for p, _ in prover._open_heads} == {"p", "r", "t"}
    prover._open_heads.clear()
    assert prover.degree_lower_bound(node, start) == bound
    if bound is not None:
        targets = {child for child, _ in prover.expand(node)} | {start}
        assert bound <= len(targets)

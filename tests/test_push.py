"""Properties of the residual-push approximation, checked against the
dense stationary-distribution oracle."""

import random

import numpy as np
import pytest

from conftest import (HYPERLINK_FACTS, TABLE_PROGRAM, graph_expander,
                      oracle_exact_ppr, oracle_transition_matrix,
                      random_grounded_graph)
from graph_build import add_edge, add_node
from pprlog.facts import load_facts
from pprlog.graph import (RESTART_FEATURE, SELF_LOOP_FEATURE, GroundedGraph,
                          serialize)
from pprlog.grounder import (BudgetError, GroundingParams, Prover,
                             approximate_ground, pagerank_nibble, start_node,
                             transition_distribution)
from pprlog.parser import parse_atom, parse_program
from pprlog.synth import (CITATION_RULES, HYPERLINK_RULES, SyntheticDbSpec,
                          citation_corpus, hyperlink_db)
from pprlog.weights import LINEAR, ParameterVector

ALPHA_PRIME = 0.1


def run_nibble(g, eps, w=None, alpha_prime=ALPHA_PRIME):
    w = w or ParameterVector()
    expand = graph_expander(g, w, LINEAR, alpha_prime)
    p, r, ghat, stats = pagerank_nibble(g.start, expand, alpha_prime, eps)
    # re-key by the original node ids
    p_orig = {ghat.nodes[nid]: mass for nid, mass in p.items()}
    r_orig = {ghat.nodes[nid]: mass for nid, mass in r.items()}
    return p_orig, r_orig, ghat, stats


def out_degree(g: GroundedGraph):
    deg = {}
    for e in g.edges:
        deg.setdefault(e.src, set()).add(e.dst)
    return {u: len(ds) for u, ds in deg.items()}


def test_first_push_on_start():
    g = GroundedGraph()
    add_node(g, "v0")
    add_edge(g, 0, 0, {RESTART_FEATURE: 1.0})
    p, r, ghat, stats = run_nibble(g, eps=0.5)
    # single node: one push absorbs alpha', rest returns to the start's
    # residual, repeat until the residual drops below eps
    assert p[0] > 0
    assert p[0] + r.get(0, 0.0) == pytest.approx(1.0)


def test_mass_conservation_random_graphs():
    rng = random.Random(7)
    for _ in range(20):
        g = random_grounded_graph(rng, rng.randint(3, 40))
        p, r, _, stats = run_nibble(g, eps=1e-3)
        assert sum(p.values()) + sum(r.values()) == pytest.approx(1.0,
                                                                  abs=1e-9)
        assert all(v >= -1e-12 for v in p.values())
        assert all(v >= -1e-12 for v in r.values())


def test_residuals_below_threshold_at_termination():
    rng = random.Random(3)
    for _ in range(10):
        g = random_grounded_graph(rng, rng.randint(5, 60))
        eps = 10 ** rng.uniform(-4, -2)
        p, r, ghat, _ = run_nibble(g, eps)
        deg = out_degree(g)
        for u, res in r.items():
            assert res <= eps * deg[u] + 1e-12


def test_error_is_the_ppr_of_the_residual():
    # The approximation defect has a closed form: exact - p is exactly the
    # restart-walk mass seeded by the leftover residual vector. Two
    # consequences checked here: p never overestimates, and no node's error
    # exceeds the total residual mass.
    rng = random.Random(11)
    w = ParameterVector()
    for _ in range(15):
        g = random_grounded_graph(rng, rng.randint(5, 80))
        eps = 10 ** rng.uniform(-4, -2)
        p, r, _, _ = run_nibble(g, eps, w)
        exact = oracle_exact_ppr(g, w, "linear", ALPHA_PRIME)

        n = g.num_nodes
        W = oracle_transition_matrix(g, w, "linear", ALPHA_PRIME)
        # peel the restart-rate share out of every row's start column
        W_tilde = W.copy()
        W_tilde[:, g.start] -= ALPHA_PRIME
        W_tilde /= 1.0 - ALPHA_PRIME
        r_vec = np.zeros(n)
        for u, mass in r.items():
            r_vec[u] = mass
        defect = np.linalg.solve(np.eye(n) - (1 - ALPHA_PRIME) * W_tilde.T,
                                 ALPHA_PRIME * r_vec)

        p_vec = np.zeros(n)
        for u, mass in p.items():
            p_vec[u] = mass
        err = exact - p_vec
        assert err == pytest.approx(defect, abs=1e-9)
        assert (err >= -1e-9).all()
        assert err.max() <= r_vec.sum() + 1e-9


def test_work_and_edge_bounds():
    rng = random.Random(5)
    for _ in range(15):
        g = random_grounded_graph(rng, rng.randint(5, 80))
        eps = 10 ** rng.uniform(-4, -2)
        _, _, ghat, stats = run_nibble(g, eps)
        bound = 1.0 / (ALPHA_PRIME * eps)
        assert stats.degree_sum < bound
        assert ghat.num_edges <= bound


def test_epsilon_one_pushes_nothing():
    rng = random.Random(1)
    g = random_grounded_graph(rng, 20)
    p, r, ghat, stats = run_nibble(g, eps=1.0)
    assert stats.pushes == 0
    assert p == {}
    assert r == {g.start: 1.0}


def test_two_node_graph_matches_oracle():
    # v0 -> s with probability 1-a', both restart, s has a self-loop.
    g = GroundedGraph()
    add_node(g, "v0")
    add_node(g, "s")
    add_edge(g, 0, 0, {RESTART_FEATURE: 1.0})
    add_edge(g, 0, 1, {"f": 9.0})
    add_edge(g, 1, 0, {RESTART_FEATURE: 1.0})
    add_edge(g, 1, 1, {"id(selfLoop)": 1.0})
    p, r, _, _ = run_nibble(g, eps=1e-9)
    exact = oracle_exact_ppr(g, ParameterVector(), "linear", ALPHA_PRIME)
    assert p[0] + p[1] == pytest.approx(1.0, abs=1e-6)
    assert p[1] > p[0]
    assert p[0] == pytest.approx(exact[0], abs=1e-6)
    assert p[1] == pytest.approx(exact[1], abs=1e-6)


def test_successive_pushes_compose():
    # Two pushes on the same node with residuals r1 then r2 absorb exactly
    # alpha' * (r1 + r2), same as one push on the summed residual.
    alpha = ALPHA_PRIME
    for r1, r2 in [(0.5, 0.25), (0.9, 0.01)]:
        absorbed_two = alpha * r1 + alpha * r2
        absorbed_one = alpha * (r1 + r2)
        assert absorbed_two == pytest.approx(absorbed_one)


def test_node_budget(hyperlink_program, hyperlink_store):
    params = GroundingParams(epsilon=1e-6, node_budget=3)
    with pytest.raises(BudgetError):
        approximate_ground(parse_atom("about(a,Z)"), hyperlink_program,
                           hyperlink_store, params, ParameterVector(),
                           LINEAR)


def test_prover_grounding_bounds(hyperlink_program, hyperlink_store):
    params = GroundingParams(epsilon=1e-4)
    g, p, stats = approximate_ground(parse_atom("about(a,Z)"),
                                     hyperlink_program, hyperlink_store,
                                     params, ParameterVector(), LINEAR)
    bound = 1.0 / (params.alpha_prime * params.epsilon)
    assert stats.degree_sum < bound
    assert g.num_edges <= bound
    answers = {g.solutions[n] for n in g.solutions if p.get(n, 0.0) > 0}
    assert {"about(a,fashion)", "about(a,sport)"} <= answers


# ---------------------------------------------------------------------------
# Groundings of real programs: the degree lower bound only skips work.

def _grounding_cases():
    """(name, program, store, queries): the toy hyperlink table, a
    synthetic hyperlink database whose shared words fan out to ~45
    documents, and a citation corpus with recursive rules."""
    facts, queries = hyperlink_db(SyntheticDbSpec(300, 4.0, 20, 1),
                                  num_queries=3)
    cfacts, train, _ = citation_corpus(num_papers=4, seed=0)
    return [
        ("toy-hyperlink", parse_program(TABLE_PROGRAM),
         load_facts(HYPERLINK_FACTS),
         [parse_atom(q) for q in ("about(a,Z)", "about(b,Z)", "sim(a,Y)")]),
        ("synth-hyperlink", parse_program(HYPERLINK_RULES), load_facts(facts),
         [parse_atom(q) for q in queries.split()]),
        ("citation", parse_program(CITATION_RULES), load_facts(cfacts),
         [parse_atom(line.split("\t")[0]) for line in train.split("\n")
          if line][:3]),
    ]


GROUNDING_CASES = _grounding_cases()
CASE_IDS = [case[0] for case in GROUNDING_CASES]


def composed_expander(prover, params, w, v0, record=None):
    """The prover expander built from its public parts, as a caller (the
    benchmark's tracer) composes it; ``record`` collects each expansion as
    (node, distribution)."""
    def expand(node):
        if node.is_solution:
            successors = [(node, {SELF_LOOP_FEATURE: 1.0})]
            restart_phi = {RESTART_FEATURE: 1.0}
        else:
            successors = prover.expand(node)
            restart_phi = prover.restart_features(node, params.alpha)
        dist = transition_distribution(successors, restart_phi, w, LINEAR,
                                       params.alpha_prime, restart_target=v0)
        if record is not None:
            record.append((node, dist))
        return dist
    return expand


def hintless_ground(q, program, store, params, w, record=None):
    """pagerank_nibble without a lower bound, labelled as
    approximate_ground labels its graph."""
    v0 = start_node(q)
    expand = composed_expander(Prover(program, store), params, w, v0, record)
    p, r, g, stats = pagerank_nibble(v0, expand, params.alpha_prime,
                                     params.epsilon, params.node_budget)
    g.query = repr(q)
    for nid, payload in enumerate(g.nodes):
        if payload.is_solution:
            g.solutions[nid] = payload.answer_text()
    return p, r, g, stats


@pytest.mark.parametrize("case", GROUNDING_CASES, ids=CASE_IDS)
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_lower_bound_leaves_grounding_unchanged(case, eps):
    _, program, store, queries = case
    params = GroundingParams(epsilon=eps)
    w = ParameterVector()
    skipped = 0
    for q in queries:
        g, p, stats = approximate_ground(q, program, store, params, w, LINEAR)
        hintless = []
        hp, hr, hg, hstats = hintless_ground(q, program, store, params, w,
                                             hintless)
        assert p == hp
        assert stats == hstats
        assert serialize(g) == serialize(hg)
        # every solution an expansion reaches has an id, as it had when
        # every child of an expanded node got one
        reached = {t for _, dist in hintless for t, *_ in dist
                   if t.is_solution}
        assert {g.nodes[nid] for nid in g.solutions} == reached
        # the bounded loop's residuals, which approximate_ground drops
        prover = Prover(program, store)
        v0 = start_node(q)
        bounded = []
        bp, br, _, bstats = pagerank_nibble(
            v0, composed_expander(prover, params, w, v0, bounded),
            params.alpha_prime, params.epsilon, params.node_budget,
            lambda node: prover.degree_lower_bound(node, v0))
        assert (bp, br, bstats) == (hp, hr, hstats)
        skipped += len(hintless) - len(bounded)
    if case[0] == "synth-hyperlink" and eps == 1e-4:
        assert skipped > 0      # the bound did skip expansions


@pytest.mark.parametrize("case", GROUNDING_CASES, ids=CASE_IDS)
def test_degree_lower_bound_is_sound(case):
    _, program, store, queries = case
    params = GroundingParams()
    prover = Prover(program, store)
    bounded = 0
    for q in queries:
        v0 = start_node(q)
        record = []
        hintless_ground(q, program, store, params, ParameterVector(), record)
        for node, dist in record:
            targets = {t for t, *_ in dist}
            lo = prover.degree_lower_bound(node, v0)
            if any(t.is_solution for t in targets):
                assert lo is None, node
            if lo is not None:
                assert lo <= len(targets), node
                bounded += 1
    assert bounded > 0


def test_node_budget_counts_held_states():
    # Held (expanded but unpushed) children count toward the budget, so a
    # budget of every state the expansions reach fits and one less does
    # not, although fewer of them get node ids.
    _, program, store, queries = GROUNDING_CASES[CASE_IDS.index(
        "synth-hyperlink")]
    q = queries[0]
    w = ParameterVector()
    record = []
    _, _, g, _ = hintless_ground(q, program, store, GroundingParams(), w,
                                 record)
    reached = {start_node(q)} | {t for _, dist in record for t, *_ in dist}
    assert g.num_nodes < len(reached)
    fits = GroundingParams(node_budget=len(reached))
    hintless_ground(q, program, store, fits, w)
    approximate_ground(q, program, store, fits, w, LINEAR)
    with pytest.raises(BudgetError):
        hintless_ground(q, program, store,
                        GroundingParams(node_budget=len(reached) - 1), w)

"""The push loop against its dict-based reference, and what it calls.

``pagerank_nibble`` keeps its state in lists indexed by node id and
builds each node's push plan once; ``push_reference.reference_nibble``
is the loop from before.  Both must give the same p, r (in the same key
orders), graph, node ids and stats, and fail at the same point, on
random graphs and on prover groundings, with and without a lower bound.
The loop asks the bound and the expander at most once per node, and a
grounding weighs each feature dict once.
"""

import random
from collections import Counter

import pytest

from conftest import (HYPERLINK_FACTS, TABLE_PROGRAM, graph_expander,
                      random_grounded_graph)
from push_reference import reference_nibble
from test_push import CASE_IDS, GROUNDING_CASES
from pprlog.facts import load_facts
from pprlog.graph import serialize
from pprlog.grounder import (BudgetError, GroundingError, GroundingParams,
                             Prover, _name_answers, _ProverExpander,
                             approximate_ground, pagerank_nibble, start_node,
                             transition_distribution)
from pprlog.parser import parse_atom, parse_program
from pprlog.synth import CITATION_RULES, citation_corpus
from pprlog.weights import EXP, LINEAR, ParameterVector, WeightFn


class Node(int):
    """A random graph's node id as a payload."""
    is_solution = False


class Solution(Node):
    is_solution = True


def random_case(rng: random.Random, alpha_prime: float):
    """(start, expand, lower_bound) over a random graph: solutions are
    payloads whose ``is_solution`` is true, and the bound is the node's
    distinct targets, less one for every third node, or None for a node
    with a solution child."""
    g = random_grounded_graph(rng, rng.randint(3, 80))
    payload = [Solution(u) if u in g.solutions else Node(u)
               for u in range(g.num_nodes)]
    dist = graph_expander(g, ParameterVector(), LINEAR, alpha_prime)

    def expand(u):
        return [(payload[t], prob, phi) for t, prob, phi in dist(u)]

    def lower_bound(u):
        targets = {t for t, *_ in expand(u)}
        if any(t.is_solution for t in targets):
            return None
        return len(targets) - (u % 3 == 0)
    return payload[g.start], expand, lower_bound


def outcome(nibble, start, expand, alpha_prime, epsilon, budget, bound):
    """What ``nibble`` returns, or the error it raises, with the nodes it
    expanded in order."""
    expanded = []

    def recording(node):
        expanded.append(node)
        return expand(node)
    try:
        p, r, g, stats = nibble(start, recording, alpha_prime, epsilon,
                                budget, bound)
    except GroundingError as e:
        return type(e), str(e), expanded
    return (list(p.items()), list(r.items()), serialize(g), g.nodes,
            g.start, stats, expanded)


def assert_same(start, expand, alpha_prime, epsilon, budget=2_000_000,
                bound=None):
    got = outcome(pagerank_nibble, start, expand, alpha_prime, epsilon,
                  budget, bound)
    assert got == outcome(reference_nibble, start, expand, alpha_prime,
                          epsilon, budget, bound)
    return got


@pytest.mark.parametrize("seed", [7, 3, 11, 5])
@pytest.mark.parametrize("bounded", [False, True])
def test_matches_reference_on_random_graphs(seed, bounded):
    rng = random.Random(seed)
    for _ in range(15):
        start, expand, bound = random_case(rng, 0.1)
        eps = 10 ** rng.uniform(-4, -1.5)
        assert_same(start, expand, 0.1, eps, bound=bound if bounded else None)


def test_restart_error_at_the_same_point():
    # expansions weighed for alpha' 0.01 give some restarts less than the
    # 0.3 the loop takes away
    rng = random.Random(2)
    raised = 0
    for _ in range(20):
        start, expand, bound = random_case(rng, 0.01)
        for b in (None, bound):
            got = assert_same(start, expand, 0.3, 1e-3, bound=b)
            if got[0] is GroundingError:
                assert "below alpha_prime=0.3" in got[1]
                raised += 1
    assert raised > 5


def prover_cases():
    cfacts, train, _ = citation_corpus(num_papers=4, seed=0)
    return [
        ("toy-hyperlink", parse_program(TABLE_PROGRAM),
         load_facts(HYPERLINK_FACTS),
         [parse_atom(q) for q in ("about(a,Z)", "about(b,Z)", "about(d,Z)",
                                  "sim(a,Y)")]),
        ("citation", parse_program(CITATION_RULES), load_facts(cfacts),
         [parse_atom(line.split("\t")[0]) for line in train.split("\n")
          if line]),
    ]


PROVER_CASES = prover_cases()


def prover_parts(program, store, q, params, fn=LINEAR):
    v0 = start_node(q)
    expander = _ProverExpander(Prover(program, store), params,
                               ParameterVector(), fn, v0)
    return v0, expander, expander.lower_bound


@pytest.mark.parametrize("case", PROVER_CASES, ids=lambda c: c[0])
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
@pytest.mark.parametrize("fn", [LINEAR, EXP], ids=["linear", "exp"])
def test_matches_reference_on_prover_groundings(case, eps, fn):
    _, program, store, queries = case
    params = GroundingParams(epsilon=eps)
    for q in queries:
        v0, expand, bound = prover_parts(program, store, q, params, fn)
        for b in (None, bound):
            p_items, r_items = assert_same(v0, expand, params.alpha_prime,
                                           eps, bound=b)[:2]
            assert isinstance(p_items, list) and p_items and r_items


@pytest.mark.parametrize("case", PROVER_CASES, ids=lambda c: c[0])
def test_budget_error_at_the_same_point(case):
    _, program, store, queries = case
    params = GroundingParams()
    q = queries[0]
    v0, expand, bound = prover_parts(program, store, q, params)
    nodes = len(assert_same(v0, expand, 0.1, 1e-4, bound=bound)[3])
    raised = 0
    for budget in range(0, nodes + 2, max(1, nodes // 25)):
        for b in (None, bound):
            got = assert_same(v0, expand, 0.1, 1e-4, budget, b)
            raised += got[0] is BudgetError
    assert raised > 10


# ---------------------------------------------------------------------------
# What the loop asks of its expander, its bound and the weighting function.

def test_bound_and_expansion_at_most_once_per_node():
    rng = random.Random(4)
    for _ in range(15):
        start, expand, bound = random_case(rng, 0.1)
        asked, expanded = Counter(), Counter()
        pagerank_nibble(start, lambda u: expanded.update([u]) or expand(u),
                        0.1, 10 ** rng.uniform(-4, -1.5), 2_000_000,
                        lambda u: asked.update([u]) or bound(u))
        assert max(asked.values()) == 1 and max(expanded.values()) == 1


@pytest.mark.parametrize("case", GROUNDING_CASES, ids=CASE_IDS)
def test_prover_bound_and_expansion_at_most_once(case, monkeypatch):
    _, program, store, queries = case
    asked, expanded = Counter(), Counter()
    call, lower_bound = _ProverExpander.__call__, _ProverExpander.lower_bound

    def counted_call(self, node):
        expanded[node] += 1
        return call(self, node)

    def counted_bound(self, node):
        asked[node] += 1
        return lower_bound(self, node)
    monkeypatch.setattr(_ProverExpander, "__call__", counted_call)
    monkeypatch.setattr(_ProverExpander, "lower_bound", counted_bound)
    for q in queries:
        approximate_ground(q, program, store, GroundingParams(),
                           ParameterVector(), LINEAR)
        assert max(asked.values()) == 1, q
        assert max(expanded.values()) == 1, q
        asked.clear()
        expanded.clear()


@pytest.mark.parametrize("case", PROVER_CASES, ids=lambda c: c[0])
def test_each_feature_dict_weighed_once(case, monkeypatch):
    _, program, store, queries = case
    values = []
    counting = WeightFn("counting", lambda dot: values.append(dot) or
                        LINEAR.value(dot), LINEAR.array, LINEAR.slope)
    successors = _ProverExpander.successors
    given: list = []        # each phi an expansion gave, repeats and all

    def recorded(self, node):
        succ, restart_phi = successors(self, node)
        given.extend(phi for _, phi in succ)
        given.append(restart_phi)
        return succ, restart_phi
    monkeypatch.setattr(_ProverExpander, "successors", recorded)
    for q in queries:
        plain = approximate_ground(q, program, store, GroundingParams(),
                                   ParameterVector(), LINEAR)[0]
        given.clear()
        g, _, _ = approximate_ground(q, program, store, GroundingParams(),
                                     ParameterVector(), counting)
        assert serialize(g) == serialize(plain)
        distinct = {id(phi) for phi in given}
        assert len(values) == len(distinct) < len(given), q
        values.clear()


def test_approximate_ground_matches_reference():
    # the whole grounding, weights kept per grounding, against the
    # reference loop over an expander that weighs each expansion anew
    _, program, store, queries = PROVER_CASES[1]
    params = GroundingParams()
    for q in queries:
        g, p, stats = approximate_ground(q, program, store, params,
                                         ParameterVector(), LINEAR)
        v0, expander, bound = prover_parts(program, store, q, params)
        rp, _, rg, rstats = reference_nibble(
            v0, lambda node: transition_distribution(
                *expander.successors(node), ParameterVector(), LINEAR,
                params.alpha_prime, v0),
            params.alpha_prime, params.epsilon, params.node_budget, bound)
        _name_answers(rg, q)
        assert (list(p.items()), serialize(g), stats) == (
            list(rp.items()), serialize(rg), rstats)

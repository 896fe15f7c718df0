"""``ground_full`` against the loop it replaced, and exact walk mass
against the push loop's bound.

``full_reference.reference_full`` is the breadth-first loop from before
the frontier held only ids.  Both must give the same graph (edge columns
and feature table), node ids, depths and answers, and raise the same
``BudgetError`` at the same budget.

Where ``ground_full`` finishes inside ``max_T`` (no state is left at
depth ``max_T`` unexpanded), its graph is the whole proof space, and the
walk mass from ``power_iterate`` run to convergence is the exact mass
the push loop approximates: at every pushed state, exact mass minus p
lies in [0, R], R the residual mass (see ``pagerank_nibble``).
"""

import pytest

from full_reference import reference_full
from test_golden import _hyperlink
from test_push import CASE_IDS, GROUNDING_CASES
from pprlog.graph import serialize
from pprlog.grounder import (BudgetError, GroundingError, GroundingParams,
                             approximate_ground, ground_full)
from pprlog.inference import power_iterate
from pprlog.weights import EXP, LINEAR, ParameterVector

CASES = dict(zip(CASE_IDS, GROUNDING_CASES))
# Each step restarts with probability at least alpha' = 0.1, so a step
# brings the walk 0.9 times nearer its limit in L1, and once a step moves
# it by less than POWER_TOL it is within 9 * POWER_TOL of the limit; it
# gets there well inside POWER_T steps.  The bound is checked to MASS_TOL.
POWER_T = 1000
POWER_TOL = 1e-13
MASS_TOL = 1e-9


def outcome(full, query, program, store, params):
    """Everything ``full`` gives out for a query, or the error it raises."""
    try:
        g = full(query, program, store, params)
    except GroundingError as e:
        return type(e), str(e)
    return (serialize(g), list(g.src), list(g.dst), list(g.phi_id), g.phis,
            g.nodes, list(g.depths.items()), list(g.solutions.items()),
            g.query, g.start)


def assert_same(query, program, store, params):
    assert (outcome(ground_full, query, program, store, params)
            == outcome(reference_full, query, program, store, params))


@pytest.mark.parametrize("case,max_T", [
    *((case, max_T) for case in CASE_IDS for max_T in (0, 1, 4)),
    ("toy-hyperlink", 100), ("citation", 10)])
def test_full_grounding_matches_reference(case, max_T):
    _, program, store, queries = CASES[case]
    for q in queries:
        assert_same(q, program, store, GroundingParams(max_T=max_T))


def test_finished_full_grounding_matches_reference():
    program, store, queries = _hyperlink(30, 3)
    for q in queries:
        assert_same(q, program, store, GroundingParams())


@pytest.mark.parametrize("case,max_T", [("toy-hyperlink", 100),
                                        ("citation", 5)])
def test_budget_runs_out_where_the_reference_ran_out(case, max_T):
    _, program, store, queries = CASES[case]
    q = queries[0]
    whole = ground_full(q, program, store, GroundingParams(max_T=max_T))
    n = whole.num_nodes
    budgets = range(1, n + 2) if n < 50 else (1, 2, n // 3, n - 1, n, n + 1)
    for budget in budgets:
        params = GroundingParams(max_T=max_T, node_budget=budget)
        got = outcome(ground_full, q, program, store, params)
        assert got == outcome(reference_full, q, program, store, params)
        if budget < n:
            assert got == (BudgetError, f"node budget {budget} exceeded "
                                        f"grounding {q!r}")
        else:
            assert got[0] == serialize(whole)


def assert_within_residual(query, program, store, params, fn=LINEAR):
    """Exact mass minus p in [0, R] at every pushed state, if
    ``ground_full`` finishes (leaves no state at depth ``max_T``);
    whether it did."""
    full = ground_full(query, program, store, params)
    if params.max_T in full.depths.values():
        return False
    w = ParameterVector()
    exact = power_iterate(full, w, fn, POWER_T, POWER_TOL,
                          params.alpha_prime)
    g, p, stats = approximate_ground(query, program, store, params, w, fn)
    at = {node: nid for nid, node in enumerate(full.nodes)}
    gaps = [exact[at[g.nodes[u]]] - mass for u, mass in p.items()]
    assert min(gaps) >= -MASS_TOL, query
    assert max(gaps) <= stats.residual_mass + MASS_TOL, query
    return True


@pytest.mark.parametrize("epsilon", [1e-2, 1e-4])
@pytest.mark.parametrize("fn", [LINEAR, EXP], ids=["linear", "exp"])
def test_exact_mass_minus_p_lies_within_residual(epsilon, fn):
    _, program, store, queries = CASES["toy-hyperlink"]
    cases = [(program, store, queries), _hyperlink(30, 3)]
    params = GroundingParams(epsilon=epsilon)
    finished = [assert_within_residual(q, program, store, params, fn)
                for program, store, queries in cases for q in queries]
    assert all(finished)

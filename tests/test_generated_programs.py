"""The int-coded prover against the Atom-level reference on generated
programs.

A seeded strategy draws small programs and fact sets: stratified or
recursive rules, repeated variables and constants in clause heads,
features over head variables, constants that print quoted, and proof
states of up to a dozen subgoals.  From each drawn state and each start
state, every state reached within a few steps is expanded by
``Prover.expand`` and by the reference of ``test_prover_ints``, which
must give the same children, feature vectors and order; ``Prover.step``
must give them with defRestart = n * alpha/(1-alpha) for a database goal
of n matching rows, counted by ``FactStore.binding_count``, and with the
unit restart for a rule goal.  At
each, ``degree_lower_bound`` must not exceed the distinct targets, and
grounding with it must give the p, r, graph and stats grounding without
it gives, under LINEAR and under EXP weights.  Each grounding's record, its
answers named, must read back to itself through ``deserialize``.
``ground_full`` must give what the loop of ``full_reference`` gives, and
where it finishes inside ``max_T``, exact walk mass minus p must lie in
[0, R] at every pushed state (see ``test_full_reference``).
"""

from hypothesis import example, given, settings, strategies as st

from test_full_reference import assert_same, assert_within_residual
from test_prover_ints import (NonGroundFeature, ref_expand, ref_node,
                              relations)
from pprlog.facts import load_facts
from pprlog.graph import RESTART_FEATURE, deserialize, serialize
from pprlog.grounder import (BudgetError, GroundingError, GroundingParams,
                             Prover, _name_answers, _ProverExpander,
                             make_node, pagerank_nibble, start_node)
from pprlog.parser import parse_program
from pprlog.terms import Atom, Const, Var, decode
from pprlog.weights import EXP, LINEAR, ParameterVector

# the last three print quoted
CONSTANTS = [Const(c) for c in ("a", "b", "Ab", "it's", "x y")]
VARIABLES = [Var(i, name) for i, name in enumerate("XYZW")]
DATABASE = {"e": 2, "f": 1, "g": 3}
RULES = {"p": 2, "q": 1, "r": 2, "u": 3}
ARITIES = {**DATABASE, **RULES}
FEATURES = ("w", "v")


@st.composite
def atoms(draw, preds, terms):
    pred = draw(st.sampled_from(preds))
    return Atom(pred, tuple(draw(st.lists(st.sampled_from(terms),
                                          min_size=ARITIES[pred],
                                          max_size=ARITIES[pred]))))


@st.composite
def clauses(draw, pred: str, callable_preds: list, kind: str) -> str:
    """One clause for ``pred``.  A "unit" clause has an empty body, a head
    of distinct variables and features over them; an "open" clause has
    such a head; any other may repeat variables or hold constants."""
    arity = ARITIES[pred]
    if kind == "any":
        head_args = draw(st.lists(
            st.sampled_from(VARIABLES[:3] + CONSTANTS[:4]),
            min_size=arity, max_size=arity))
    else:
        head_args = draw(st.permutations(VARIABLES))[:arity]
    body = [] if kind == "unit" else draw(st.lists(
        atoms(callable_preds, VARIABLES + CONSTANTS[1:3]), max_size=3))
    bound = [t for t in head_args if isinstance(t, Var)]
    features = draw(st.lists(st.builds(
        Atom, st.sampled_from(FEATURES),
        st.lists(st.sampled_from(bound + CONSTANTS[2:]), max_size=1)
        .map(tuple)), min_size=kind == "unit", max_size=2))
    text = repr(Atom(pred, tuple(head_args)))
    if body:
        text += " :- " + ",".join(map(repr, body))
    elif features:
        text += " :- true"
    if features:
        text += " # " + ",".join(map(repr, features))
    return text + "."


@st.composite
def programs(draw):
    """(rules text, facts text, states): each state a (query atoms,
    subgoal atoms) pair sharing its variables."""
    recursive = draw(st.booleans())
    rules = []
    for i, pred in enumerate(RULES):
        kind = draw(st.sampled_from(["any", "open", "unit"]))
        # a stratified program calls only the rule predicates before this
        callable_preds = [*DATABASE, *(list(RULES) if recursive
                                       else list(RULES)[:i])]
        rules += draw(st.lists(clauses(pred, callable_preds, kind),
                               min_size=1, max_size=3))
    names = [c.name for c in CONSTANTS[1:4]]
    facts = []
    for pred, arity in DATABASE.items():
        rows = draw(st.lists(st.lists(st.sampled_from(names), min_size=arity,
                                      max_size=arity).map(tuple),
                             min_size=2, max_size=12, unique=True))
        facts += ["\t".join((pred, *row)) for row in rows]
    # variables twice as likely as constants
    state_atoms = atoms(list(ARITIES), VARIABLES * 2 + CONSTANTS[1:4])
    states = draw(st.lists(st.tuples(
        st.lists(state_atoms, min_size=1, max_size=2),
        st.lists(state_atoms, min_size=1, max_size=12)),
        min_size=1, max_size=3))
    return "\n".join(rules), "\n".join(facts), states


def decoded(successors) -> list:
    return [((tuple(map(decode, c.query)), tuple(map(decode, c.subgoals))),
             phi) for c, phi in successors]


def check_expansions(prover: Prover, facts: dict, node, start,
                     max_states: int):
    """Expand up to ``max_states`` states reached from ``node``, breadth
    first, comparing the prover with the reference at each and checking
    the degree bound against ``start``."""
    seen = {node}
    frontier = [node]
    compared = 0
    while frontier and compared < max_states:
        node = frontier.pop(0)
        if node.is_solution:
            continue
        query = tuple(map(decode, node.query))
        ref_state = ref_node(query, tuple(map(decode, node.subgoals)))
        try:
            ref = ref_expand(prover.program, facts, ref_state)
        except NonGroundFeature:
            try:
                prover.expand(node)
            except GroundingError as e:
                assert "non-ground feature" in str(e)
            else:
                raise AssertionError(f"no error expanding {node!r}")
            continue
        successors = prover.expand(node)
        assert decoded(successors) == [((c.query, c.subgoals), phi)
                                       for c, phi in ref], node
        goal = node.subgoals[0]
        restart = (prover.store.binding_count(goal) * 0.2 / 0.8
                   if goal[0] in prover.store.tuples else 1.0)
        assert prover.step(node, 0.2) == (
            successors, {RESTART_FEATURE: restart}), node
        compared += 1
        targets = {child for child, _ in successors} | {start}
        bound = prover.degree_lower_bound(node, start)
        if any(child.is_solution for child in targets):
            assert bound is None, node
        elif bound is not None:
            assert bound <= len(targets), node
        for child, _ in successors:
            if child not in seen:
                seen.add(child)
                frontier.append(child)


def ground(program, store, query, params, bounded: bool, fn=LINEAR):
    """(p, r, record, stats) of grounding ``query``, its answers named;
    the record must read back to itself."""
    v0 = start_node(query)
    expander = _ProverExpander(Prover(program, store), params,
                               ParameterVector(), fn, v0)
    p, r, g, stats = pagerank_nibble(
        v0, expander, params.alpha_prime, params.epsilon, params.node_budget,
        expander.lower_bound if bounded else None)
    _name_answers(g, query)
    record = serialize(g)
    assert serialize(deserialize(record)[0]) == record
    return p, r, record, stats


X, Y = VARIABLES[:2]


@settings(max_examples=60)
@given(drawn=programs())
# f(Y) gives the start state <e(X,b) | e(X,b)> from <e(X,b) | f(Y),e(X,Y)>
@example(drawn=("p(X,X).\nq(X).\nr(X,X).\nu(X,X,X).", "e\tb\tb\nf\tb",
                [([Atom("e", (X, Const("b")))], [Atom("f", (Y,))])]))
def test_prover_matches_reference_on_generated_programs(drawn):
    rules, facts_text, states = drawn
    program = parse_program(rules)
    store = load_facts(facts_text)
    prover = Prover(program, store)
    facts = relations(store)
    for query, subgoals in states:
        q = query[0]
        start = start_node(q)
        # the last two roots' children may be the start state itself: their
        # last subgoal is the start's, or it with variables for constants
        loose = Atom(q.pred, tuple(VARIABLES[i] if isinstance(t, Const)
                                   else t for i, t in enumerate(q.args)))
        for root in (start, make_node(tuple(query), tuple(subgoals)),
                     make_node((q,), (*subgoals[:2], q)),
                     make_node((q,), (*subgoals[:1], loose))):
            check_expansions(prover, facts, root, start, 25)
    params = GroundingParams(epsilon=1e-3, node_budget=5000)
    for query, _ in states:
        try:
            plain = ground(program, store, query[0], params, False)
        except GroundingError as e:
            # an expansion the bound may skip raised; any other error,
            # a spent budget among them, would leave the bound unchecked
            assert "non-ground feature" in str(e), e
            continue
        assert ground(program, store, query[0], params, True) == plain
    full_params = GroundingParams(epsilon=1e-3, max_T=10, node_budget=300)
    for query, _ in states:
        assert_same(query[0], program, store, full_params)
        try:
            assert_within_residual(query[0], program, store, full_params)
        except GroundingError as e:
            assert (isinstance(e, BudgetError)
                    or "non-ground feature" in str(e)), e


@settings(max_examples=60)
@given(drawn=programs())
def test_bound_keeps_exp_groundings_on_generated_programs(drawn):
    # EXP weighs edges apart from LINEAR, so other states are pushed and
    # other expansions skipped
    rules, facts_text, states = drawn
    program, store = parse_program(rules), load_facts(facts_text)
    params = GroundingParams(epsilon=1e-3, node_budget=5000)
    for query, _ in states:
        try:
            plain = ground(program, store, query[0], params, False, EXP)
        except GroundingError as e:
            assert "non-ground feature" in str(e), e
            continue
        assert ground(program, store, query[0], params, True, EXP) == plain

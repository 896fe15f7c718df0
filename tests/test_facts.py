import pytest

from pprlog.facts import FactError, load_facts
from pprlog.grounder import GroundingParams, approximate_ground
from pprlog.parser import parse_atom, parse_program
from pprlog.terms import SYMBOLS, encode, intern
from pprlog.weights import LINEAR, ParameterVector


def goal(text):
    """The int-coded goal of an atom's text."""
    return encode(parse_atom(text))


def row(*names):
    return tuple(map(intern, names))


def test_load_single_fact():
    store = load_facts("links\ta\tb")
    assert len(store.tuples[intern("links")]) == 1
    assert store.match(goal("links(a,b)")) == [row("a", "b")]


def test_empty_file():
    store = load_facts("")
    assert store.predicates() == {}


def test_duplicates_counted_once():
    store = load_facts("links\ta\tb\nlinks\ta\tb\nlinks\ta\tb")
    assert len(store.tuples[intern("links")]) == 1
    assert store.duplicate_count == 2


def test_each_row_stored_once():
    store = load_facts("links\ta\tb\nlinks\ta\tc\nlinks\tb\tc\n"
                       "links\ta\tb\nt\ta\tb\ta\nedge\tc\tc")
    stored = [r for rows in store.tuples.values() for r in rows]
    in_postings = {id(r) for idx in store.arg_index.values() for r in idx}
    assert len(stored) == 5
    assert in_postings == {id(r) for r in stored}


def test_match_returns_a_fresh_list():
    store = load_facts("links\ta\tb\nlinks\ta\tc")
    rows = store.match(goal("links(a,Y)"))
    rows.clear()
    assert len(store.match(goal("links(a,Y)"))) == 2


def test_ragged_arity_rejected():
    with pytest.raises(FactError, match="ragged|arity"):
        load_facts("links\ta\tb\nlinks\ta")


def test_fact_may_hold_uppercase_constant():
    # a TSV argument has no variables; the rules and queries quote it
    prog = parse_program("p(X) :- q(X).")
    store = load_facts("q\tA\nq\t_b")
    for query in ("p(Y)", "p('A')"):
        g, _, _ = approximate_ground(parse_atom(query), prog, store,
                                     GroundingParams(), ParameterVector(),
                                     LINEAR)
        assert "p('A')" in g.solutions.values()


def test_match_insertion_order():
    store = load_facts("links\ta\tb\nlinks\ta\tc")
    rows = store.match(goal("links(a,Y)"))
    assert [SYMBOLS[r[1]] for r in rows] == ["b", "c"]
    assert rows == store.match(goal("links(a,Y)"))  # stable


def test_match_ground_and_miss():
    store = load_facts("links\ta\tb\nlinks\ta\tc")
    assert store.match(goal("links(a,b)")) == [row("a", "b")]
    assert store.match(goal("links(z,Y)")) == []


def test_match_repeated_variable():
    store = load_facts("edge\ta\ta\nedge\ta\tb")
    rows = store.match(goal("edge(X,X)"))
    assert rows == [row("a", "a")]


def test_unknown_predicate_errors():
    store = load_facts("links\ta\tb")
    with pytest.raises(FactError, match="unknown"):
        store.match(goal("nosuch(a,Y)"))


def test_binding_count_equals_match_length():
    store = load_facts("links\ta\tb\nlinks\ta\tc\nlinks\tb\tc\n"
                       "links\tc\tc\nedge\ta\ta\nedge\ta\tb\nedge\tb\tb\n"
                       "t\ta\tb\ta\nt\ta\tb\tc\nt\tb\tb\tb\none\ta\tb")
    queries = (
        "links(a,Y)", "links(a,b)", "links(z,Y)", "links(X,Y)", "links(X,c)",
        "edge(X,X)", "links(X,X)", "t(X,Y,X)", "t(X,X,X)", "t(a,Y,Y)",
        "t(a,b,Z)", "t(a,b,c)", "t(a,c,Z)", "t(X,Y,Z)", "edge(X,Y)",
        "edge(z,Y)", "edge(X,z)", "t(z,b,Z)", "one(X,Y)", "one(a,Y)",
        "one(X,b)", "one(a,b)", "one(b,Y)", "one(X,X)")
    for q in queries:
        g = goal(q)
        assert store.binding_count(g) == len(store.match(g)), q
    assert store.binding_count(goal("edge(X,X)")) == 2
    assert store.binding_count(goal("t(a,b,Z)")) == 2
    assert store.binding_count(goal("one(X,Y)")) == 1
    assert store.binding_count(goal("one(b,Y)")) == 0

import pytest

from pprlog.facts import FactError, load_facts
from pprlog.parser import parse_atom


def test_load_single_fact():
    store = load_facts("links\ta\tb")
    assert store.count("links") == 1
    assert store.match(parse_atom("links(a,b)")) == [{}]


def test_empty_file():
    store = load_facts("")
    assert store.predicates() == {}


def test_duplicates_counted_once():
    store = load_facts("links\ta\tb\nlinks\ta\tb\nlinks\ta\tb")
    assert store.count("links") == 1
    assert store.duplicate_count == 2


def test_ragged_arity_rejected():
    with pytest.raises(FactError, match="ragged|arity"):
        load_facts("links\ta\tb\nlinks\ta")


def test_non_ground_rejected():
    with pytest.raises(FactError, match="non-ground"):
        load_facts("links\ta\tB")


def test_match_insertion_order():
    store = load_facts("links\ta\tb\nlinks\ta\tc")
    subs = store.match(parse_atom("links(a,Y)"))
    assert [repr(list(s.values())[0]) for s in subs] == ["b", "c"]
    assert subs == store.match(parse_atom("links(a,Y)"))  # stable


def test_match_ground_and_miss():
    store = load_facts("links\ta\tb\nlinks\ta\tc")
    assert store.match(parse_atom("links(a,b)")) == [{}]
    assert store.match(parse_atom("links(z,Y)")) == []


def test_match_repeated_variable():
    store = load_facts("edge\ta\ta\nedge\ta\tb")
    subs = store.match(parse_atom("edge(X,X)"))
    assert len(subs) == 1


def test_unknown_predicate_errors():
    store = load_facts("links\ta\tb")
    with pytest.raises(FactError, match="unknown"):
        store.match(parse_atom("nosuch(a,Y)"))


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
        atom = parse_atom(q)
        assert store.binding_count(atom) == len(store.match(atom)), q
    assert store.binding_count(parse_atom("edge(X,X)")) == 2
    assert store.binding_count(parse_atom("t(a,b,Z)")) == 2
    assert store.binding_count(parse_atom("one(X,Y)")) == 1
    assert store.binding_count(parse_atom("one(b,Y)")) == 0

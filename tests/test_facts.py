import pytest

import line_loader
from line_loader import load_facts_by_line
from pprlog import facts
from pprlog.facts import FactError, load_facts
from pprlog.grounder import GroundingParams, approximate_ground
from pprlog.parser import parse_atom, parse_program
from pprlog.synth import SyntheticDbSpec, citation_corpus, hyperlink_db
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


# comment and blank lines, leading whitespace (the tab-led line's
# predicate is the empty name), CRLF endings, duplicates and an empty
# trailing field
EDGE_CASES = ("% a comment\nlinks\ta\tb\n\n   \n  % indented\r\n"
              "links\ta\tc\r\n links\tb\tc\nlinks\ta\tb\nt\ta\tb\t\n"
              "t\ta\tb\t\r\nedge\tc\tc\n\tx\ty\nlinks\ta\tb\n")
ORACLE_INPUTS = {
    **{f"hyperlink-{seed}": hyperlink_db(SyntheticDbSpec(200, 4.0, 50, seed),
                                         num_queries=1)[0]
       for seed in range(3)},
    **{f"citation-{seed}": citation_corpus(num_papers=4, seed=seed)[0]
       for seed in range(3)},
    "edge-cases": EDGE_CASES,
}


class _Symbols(dict):
    """A symbol table of its own: a name's id is its first-seen rank."""

    def __missing__(self, name):
        self[name] = len(self)
        return self[name]


def _load_with_own_symbols(monkeypatch, module, load, source):
    """(store, symbol table) of ``load(source)`` interning into a fresh
    table, so the two loaders' ids can be compared."""
    symbols = _Symbols()
    monkeypatch.setattr(module, "intern", symbols.__getitem__)
    return load(source), symbols


@pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
def test_loader_matches_line_at_a_time_loader(monkeypatch, name):
    new, new_ids = _load_with_own_symbols(monkeypatch, facts, load_facts,
                                          ORACLE_INPUTS[name])
    old, old_ids = _load_with_own_symbols(monkeypatch, line_loader,
                                          load_facts_by_line,
                                          ORACLE_INPUTS[name])
    assert list(new_ids) == list(old_ids)   # names in first-seen order
    assert list(new.tuples) == list(old.tuples)
    assert [list(rows) for rows in new.tuples.values()] == \
        [list(rows) for rows in old.tuples.values()]
    assert new.arities == old.arities
    assert new.duplicate_count == old.duplicate_count
    assert new.arg_index.keys() == old.arg_index.keys()
    stored = {row: row for rows in new.tuples.values() for row in rows}
    for key, posting in new.arg_index.items():
        assert type(posting) is tuple
        assert posting == tuple(old.arg_index[key])
        assert all(row is stored[row] for row in posting)


def test_edge_cases_load_as_read():
    store = load_facts(EDGE_CASES)
    assert {SYMBOLS[pid]: [[SYMBOLS[a] for a in r] for r in rows]
            for pid, rows in store.tuples.items()} == {
        "links": [["a", "b"], ["a", "c"]], " links": [["b", "c"]],
        "t": [["a", "b", ""]], "edge": [["c", "c"]], "": [["x", "y"]]}
    assert store.duplicate_count == 3


@pytest.mark.parametrize("source", [
    "links\ta\tb\nlinks\ta", "links\ta\tb\nlinks\ta\tb\tc",
    "links\ta\tb\nlinks", "% c\n\nnosuch\r\n",
], ids=["fewer-args", "more-args", "known-no-tab", "new-no-tab"])
def test_load_errors_match_line_at_a_time_loader(source):
    with pytest.raises(FactError) as new:
        load_facts(source)
    with pytest.raises(FactError) as old:
        load_facts_by_line(source)
    assert str(new.value) == str(old.value)

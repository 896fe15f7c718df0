import pytest

from pprlog.facts import load_facts
from pprlog.parser import (ParseError, ProgramError, parse_atom,
                           parse_program)
from pprlog.terms import Atom, Const


def test_annotated_clause():
    prog = parse_program("p(X) :- q(X) # f.")
    (c,) = prog.clauses
    assert c.head.pred == "p" and c.head.arity == 1
    assert [b.pred for b in c.body] == ["q"]
    assert [repr(f) for f in c.features] == ["f"]


def test_default_feature_is_clause_id():
    prog = parse_program("p(X) :- q(X).\nr(X) :- q(X).")
    assert [repr(f) for f in prog.clauses[0].features] == ["id(c1)"]
    assert [repr(f) for f in prog.clauses[1].features] == ["id(c2)"]


def test_true_body_parses_empty():
    prog = parse_program("linkedBy(X,Y,W) :- true # by(W).")
    (c,) = prog.clauses
    assert c.body == ()
    assert [repr(f) for f in c.features] == ["by(W)"]


def test_multiple_features():
    prog = parse_program("sim(X,Y) :- links(X,Y) # sim,link.")
    assert [repr(f) for f in prog.clauses[0].features] == ["sim", "link"]


def test_comments_and_quoted_constants():
    prog = parse_program("% a comment\np('Weird Const') :- q('x y').")
    assert prog.clauses[0].head.args[0] == Const("Weird Const")


# a tab and every line boundary that str.splitlines splits at
BREAKS = ["\t", "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
          "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", BREAKS, ids=map(repr, BREAKS))
def test_quoted_name_refuses_tab_and_line_break(brk):
    message = "a quoted name may not hold a tab or a line break"
    with pytest.raises(ParseError) as exc:
        parse_program(f"p(X) :- q(X).\nr(Z,  'a{brk}b') :- true # f.")
    assert (exc.value.line, exc.value.col, exc.value.message) == (
        2, 7, message)
    with pytest.raises(ParseError) as exc:   # an escaped one too
        parse_program(f"p('a\\{brk}b').")
    assert (exc.value.line, exc.value.col, exc.value.message) == (
        1, 3, message)
    with pytest.raises(ParseError) as exc:
        parse_atom(f"'q{brk}'(a)")
    assert (exc.value.line, exc.value.col, exc.value.message) == (
        1, 1, message)


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_program("p(X) :- .")
    assert "line 1" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_program("p(a).\nq(X) :- r(X)")  # missing final period
    assert exc.value.line == 2


def test_arity_conflict_is_load_error():
    with pytest.raises(ProgramError, match="arity"):
        parse_program("p(a).\np(a,b).")


def test_rule_fact_overlap_rejected():
    prog = parse_program("p(X) :- q(X).")
    store = load_facts("p\ta\nq\tb")
    with pytest.raises(ProgramError, match="both"):
        prog.check_against_facts(store.predicates())


def test_parse_atom():
    assert parse_atom("about(a,Z)") == Atom("about", (Const("a"),
                                                      parse_atom("about(a,Z)").args[1]))
    assert repr(parse_atom("about(a,Z)")) == "about(a,Z)"
    with pytest.raises(ParseError):
        parse_atom("about(a,Z) extra")


def test_clauses_indexed_by_head_predicate():
    prog = parse_program("p(X) :- q(X).\np(X) :- r(X).\ns(X) :- q(X).")
    assert len(prog.by_pred.get("p")) == 2
    assert len(prog.by_pred.get("s")) == 1
    assert prog.by_pred.get("nosuch") is None

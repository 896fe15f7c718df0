import itertools

from hypothesis import given, strategies as st

from atom_unify import apply, canonicalize, unify
from pprlog.parser import parse_program
from pprlog.terms import Atom, Const, Var

a, b = Const("a"), Const("b")
X, Y, Z, Z2 = Var(0, "X"), Var(1, "Y"), Var(2, "Z"), Var(3, "Z2")


def test_unify_binds_constants_and_variables():
    s = unify(Atom("about", (X, Z)), Atom("about", (a, Z2)))
    assert s is not None
    assert apply(s, Atom("about", (X, Z))) == apply(s, Atom("about", (a, Z2)))


def test_unify_predicate_mismatch():
    assert unify(Atom("sim", (X, Y)), Atom("links", (a, b))) is None


def test_unify_transitive_constant_conflict():
    # p(a,X) vs p(X,b) forces X=a and X=b simultaneously.
    assert unify(Atom("p", (a, X)), Atom("p", (X, b))) is None


def test_unify_conflict_matches_brute_force():
    # Independent oracle: enumerate every substitution over {a,b} and
    # check that none makes the two atoms equal.
    lhs, rhs = Atom("p", (a, X)), Atom("p", (X, b))
    for vx in (a, b):
        assert apply({X: vx}, lhs) != apply({X: vx}, rhs)


def test_apply_examples():
    assert apply({X: a}, Atom("about", (X, Z))) == Atom("about", (a, Z))
    g = Atom("g", (a,))
    assert apply({}, g) == g
    out = apply({X: a, Z: b}, [Atom("sim", (X, Y)), Atom("about", (Y, Z))])
    assert out == [Atom("sim", (a, Y)), Atom("about", (Y, b))]


terms = st.sampled_from([a, b, Const("c"), X, Y, Z])
atoms = st.builds(lambda p, args: Atom(p, tuple(args)),
                  st.sampled_from(["p", "q"]),
                  st.lists(terms, min_size=0, max_size=3))


@given(atoms, atoms)
def test_unify_symmetric(x, y):
    s_xy = unify(x, y)
    s_yx = unify(y, x)
    assert (s_xy is None) == (s_yx is None)
    if s_xy is not None:
        assert canonicalize([apply(s_xy, x)]) == canonicalize([apply(s_yx, y)])


@given(atoms, atoms)
def test_unifier_makes_atoms_identical(x, y):
    s = unify(x, y)
    if s is not None:
        assert apply(s, x) == apply(s, y)


@given(atoms, atoms)
def test_mgu_generality_brute_force(x, y):
    # Any ground unifier over a small alphabet must factor through the mgu:
    # the mgu-image atoms unify with the ground instances.
    theta = unify(x, y)
    consts = [a, b]
    vs = sorted({t for t in (*x.args, *y.args) if isinstance(t, Var)},
                key=lambda v: v.id)
    for assignment in itertools.product(consts, repeat=len(vs)):
        sigma = dict(zip(vs, assignment))
        if apply(sigma, x) == apply(sigma, y):
            assert theta is not None
            delta = unify(apply(theta, x), apply(sigma, x))
            assert delta is not None


def test_parse_pretty_print_roundtrip():
    src = ("p(X) :- q(X),r(X,b) # f(b).\nlinked(X,Y,W) :- true # by(W).\n"
           "p('Weird Const') :- q('a,b'),r('A','it\\'s') # f('').\n"
           "'Odd pred'(X) :- q(X).\n")
    prog = parse_program(src)
    again = parse_program("\n".join(repr(c) for c in prog.clauses))
    assert [repr(c) for c in again.clauses] == [repr(c) for c in prog.clauses]
    assert again.clauses == prog.clauses
    quoted = prog.clauses[2]
    assert quoted.head.args == (Const("Weird Const"),)
    assert [t for b in quoted.body for t in b.args] == [
        Const("a,b"), Const("A"), Const("it's")]
    assert quoted.features[0].args == (Const(""),)
    assert prog.clauses[3].head.pred == "Odd pred"
    assert repr(quoted) == ("p('Weird Const') :- q('a,b'),r('A','it\\'s') "
                            "# f('').")

"""Atom-level substitution, unification and canonicalization.

A reference for the int-coded prover: the ``test_terms`` properties pin
these functions down, and the reference expander in ``test_prover_ints``
builds proof states with them.  Unification is linear in atom arity,
since terms are constants and variables only.
"""

from typing import Iterable, Optional

from pprlog.terms import Atom, Const, Term, Var, variables_of

# A substitution maps variables to terms.  Substitutions built by unify()
# are idempotent: no bound variable occurs in any binding's value.
Subst = dict[Var, Term]


def walk(term: Term, s: Subst) -> Term:
    """Chase a variable through the substitution to its final value."""
    while isinstance(term, Var) and term in s:
        term = s[term]
    return term


def apply(s: Subst, x):
    """Apply a substitution to a Term, Atom, or sequence of Atoms."""
    if isinstance(x, (Const, Var)):
        return walk(x, s)
    if isinstance(x, Atom):
        return Atom(x.pred, tuple(walk(a, s) for a in x.args))
    return type(x)(apply(s, a) for a in x)


def unify(a: Atom, b: Atom, s: Optional[Subst] = None) -> Optional[Subst]:
    """Most general unifier of two flat atoms, or None on failure.

    An existing substitution may be passed in and is extended
    non-destructively.
    """
    if a.pred != b.pred or len(a.args) != len(b.args):
        return None
    s = dict(s) if s else {}
    for x, y in zip(a.args, b.args):
        x, y = walk(x, s), walk(y, s)
        if x == y:
            continue
        if isinstance(x, Var):
            s[x] = y
        elif isinstance(y, Var):
            s[y] = x
        else:
            return None  # distinct constants
    return s


def rename_atoms(atoms: Iterable[Atom], mapping: dict[Var, Var]):
    return [Atom(a.pred, tuple(mapping.get(t, t) if isinstance(t, Var) else t
                               for t in a.args))
            for a in atoms]


def canonicalize(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    """Rename variables left-to-right to V0, V1, ...

    Alpha-equivalent atom sequences map to the same canonical form, which
    is what makes proof states mergeable into a digraph.
    """
    atoms = list(atoms)
    mapping = {v: Var(i) for i, v in enumerate(variables_of(atoms))}
    return tuple(rename_atoms(atoms, mapping))

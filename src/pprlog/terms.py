"""First-order terms, atoms, substitutions, and unification.

The term language is a flat datalog subset: constants and variables only,
no function symbols.  Unification is therefore linear in atom arity.

``Atom``/``Const``/``Var`` are the parse and print form.  The prover and
the fact store work on int-coded atoms ``(pred_id, arg, ...)``: predicate
and constant names are interned in one process-wide symbol table to ids
>= 0, and variables are negative ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union


@dataclass(frozen=True, slots=True)
class Const:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class Var:
    id: int
    # Surface name kept only for error messages and pretty printing.
    name: str = ""

    def __repr__(self):
        return self.name if self.name else f"V{self.id}"


Term = Union[Const, Var]


@dataclass(frozen=True, slots=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    def is_ground(self) -> bool:
        return all(isinstance(a, Const) for a in self.args)

    def __repr__(self):
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(map(repr, self.args))})"


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


def variables_of(atoms: Iterable[Atom]) -> list[Var]:
    """All variables occurring in the atoms, in first-occurrence order."""
    seen: dict[Var, None] = {}
    for atom in atoms:
        for t in atom.args:
            if isinstance(t, Var):
                seen.setdefault(t)
    return list(seen)


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


class _SymbolTable(dict):
    """name -> id; a name looked up for the first time gets the next id.

    Not locked: names are interned only by parsing, loading and
    grounding, which no caller runs on several threads at once.
    """

    def __missing__(self, name: str) -> int:
        self[name] = len(SYMBOLS)
        SYMBOLS.append(name)
        return self[name]


SYMBOLS: list[str] = []         # id -> name
intern = _SymbolTable().__getitem__

IntAtom = tuple[int, ...]


def encode(atom: Atom) -> IntAtom:
    """The int-coded atom; ``Var(i)`` becomes ``-1 - i``."""
    return (intern(atom.pred), *[intern(t.name) if isinstance(t, Const)
                                 else -1 - t.id for t in atom.args])


def decode(atom: IntAtom, var_names: dict[int, str] = {}) -> Atom:
    """The Atom of an int-coded atom; variable ``-1 - i`` becomes
    ``Var(i)``, named from ``var_names`` when it has the variable."""
    return Atom(SYMBOLS[atom[0]],
                tuple(Const(SYMBOLS[a]) if a >= 0
                      else Var(-1 - a, var_names.get(a, ""))
                      for a in atom[1:]))

"""First-order terms and atoms, and their int-coded form.

The term language is a flat datalog subset: constants and variables only,
no function symbols.

``Atom``/``Const``/``Var`` are the parse and print form.  The prover and
the fact store work on int-coded atoms ``(pred_id, arg, ...)``: predicate
and constant names are interned in one process-wide symbol table to ids
>= 0, and variables are negative ints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union

_BARE_NAME = re.compile(r"[a-z0-9][A-Za-z0-9_-]*")


def _quote(name: str) -> str:
    """A constant or predicate name as the parser reads it back: bare when
    it is an identifier starting with a lowercase letter or a digit,
    otherwise single-quoted with ``\\`` and ``'`` backslash-escaped."""
    if _BARE_NAME.fullmatch(name):
        return name
    return "'" + name.replace("\\", "\\\\").replace("'", "\\'") + "'"


@dataclass(frozen=True, slots=True)
class Const:
    name: str

    def __repr__(self):
        return _quote(self.name)


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

    def __repr__(self):
        if not self.args:
            return _quote(self.pred)
        return f"{_quote(self.pred)}({','.join(map(repr, self.args))})"


def variables_of(atoms: Iterable[Atom]) -> list[Var]:
    """All variables occurring in the atoms, in first-occurrence order."""
    seen: dict[Var, None] = {}
    for atom in atoms:
        for t in atom.args:
            if isinstance(t, Var):
                seen.setdefault(t)
    return list(seen)


class _SymbolTable(dict):
    """name -> id; a name looked up for the first time gets the next id.

    Not locked: names are interned only by parsing, loading and
    grounding, which must not run concurrently in one process.
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

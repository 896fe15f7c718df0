"""Ground fact storage with per-argument-position indexing.

Facts files are TSV: ``predicate<TAB>arg1<TAB>...<TAB>argK``.  Any
predicate appearing in a facts file is thereby a database predicate.
Every argument position is indexed, so a query with any bound argument
scans only that argument's posting list rather than the whole relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .terms import SYMBOLS, IntAtom, intern


class FactError(Exception):
    pass


@dataclass
class FactStore:
    """Ground tuples as int-coded rows (symbol ids from ``terms.intern``).

    Lookups take an int-coded goal ``(pred_id, arg, ...)`` whose negative
    args are variables (``terms.encode`` gives one from an ``Atom``).
    """
    # predicate id -> its rows, in insertion order (the dict drops
    # duplicates; every value is None)
    tuples: dict[int, dict[tuple[int, ...], None]] = field(
        default_factory=dict)
    arities: dict[int, int] = field(default_factory=dict)
    # (predicate id, argument position, constant id) -> the rows of
    # tuples[pred_id] with that constant there, in insertion order
    arg_index: dict[tuple[int, int, int], list[tuple[int, ...]]] = field(
        default_factory=dict)
    duplicate_count: int = 0

    def predicates(self) -> dict[str, int]:
        return {SYMBOLS[pid]: arity for pid, arity in self.arities.items()}

    def add(self, pred: str, args: Sequence[str]):
        pid = intern(pred)
        row = tuple(map(intern, args))
        if self.arities.setdefault(pid, len(row)) != len(row):
            raise FactError(
                f"ragged arity for {pred}: got {len(row)} args, "
                f"expected {self.arities[pid]}")
        rows = self.tuples.setdefault(pid, {})
        if row in rows:
            self.duplicate_count += 1
            return
        rows[row] = None
        index = self.arg_index
        for pos, val in enumerate(row):
            index.setdefault((pid, pos, val), []).append(row)

    def _postings(self, goal: IntAtom):
        """(the rows to scan: the shortest posting list over the bound
        arguments, or every row when none is bound; whether all match).

        All selected rows match when at most one argument is bound and no
        variable repeats.
        """
        pid = goal[0]
        if pid not in self.tuples:
            raise FactError(f"unknown database predicate {SYMBOLS[pid]}")
        if len(goal) - 1 != self.arities[pid]:
            raise FactError(
                f"{SYMBOLS[pid]} queried with arity {len(goal) - 1}, "
                f"stored arity is {self.arities[pid]}")
        rows = self.tuples[pid]
        bound = 0
        for pos, a in enumerate(goal[1:]):
            if a >= 0:
                bound += 1
                idx = self.arg_index.get((pid, pos, a), ())
                if bound == 1 or len(idx) < len(rows):
                    rows = idx
        free = len(goal) - 1 - bound
        exact = bound <= 1 and len({a for a in goal if a < 0}) == free
        return rows, exact

    def match(self, goal: IntAtom) -> list[tuple[int, ...]]:
        """The rows matching an int-coded goal, in insertion order."""
        rows, exact = self._postings(goal)
        if exact:
            return list(rows)
        return [row for row in rows if _fits(goal, row)]

    def binding_count(self, goal: IntAtom) -> int:
        """Number of rows matching an int-coded goal.

        Equal to ``len(self.match(goal))`` but builds no rows: when every
        selected row matches, the answer is a posting-list length (or the
        row count); otherwise the shortest posting list is scanned.
        """
        rows, exact = self._postings(goal)
        if exact:
            return len(rows)
        return sum(1 for row in rows if _fits(goal, row))


def _fits(goal: IntAtom, row: tuple[int, ...]) -> bool:
    """Whether the row has the goal's constants and equal values wherever
    the goal repeats a variable."""
    binding: dict[int, int] = {}
    return all((a if a >= 0 else binding.setdefault(a, val)) == val
               for a, val in zip(goal[1:], row))


def load_facts(source: str) -> FactStore:
    """Load a TSV facts file; duplicates are dropped and counted."""
    store = FactStore()
    for lineno, line in enumerate(source.splitlines(), 1):
        head = line.lstrip()
        if not head or head[0] == "%":
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise FactError(f"line {lineno}: expected predicate<TAB>args, "
                            f"got {line!r}")
        try:
            store.add(parts[0], parts[1:])
        except FactError as e:
            raise FactError(f"line {lineno}: {e}") from None
    return store

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
    tuples: dict[int, list[tuple[int, ...]]] = field(default_factory=dict)
    arities: dict[int, int] = field(default_factory=dict)
    # (predicate id, argument position, constant id) -> row indices into
    # tuples[pred_id]
    arg_index: dict[tuple[int, int, int], list[int]] = field(
        default_factory=dict)
    duplicate_count: int = 0
    _seen: set[tuple] = field(default_factory=set, repr=False)

    def predicates(self) -> dict[str, int]:
        return {SYMBOLS[pid]: arity for pid, arity in self.arities.items()}

    def count(self, pred: str) -> int:
        return len(self.tuples.get(intern(pred), ()))

    def add(self, pred: str, args: Sequence[str]):
        key = (intern(pred), *map(intern, args))
        pid, row = key[0], key[1:]
        if self.arities.setdefault(pid, len(row)) != len(row):
            raise FactError(
                f"ragged arity for {pred}: got {len(row)} args, "
                f"expected {self.arities[pid]}")
        if key in self._seen:
            self.duplicate_count += 1
            return
        self._seen.add(key)
        rows = self.tuples.setdefault(pid, [])
        index = self.arg_index
        for pos, val in enumerate(row):
            index.setdefault((pid, pos, val), []).append(len(rows))
        rows.append(row)

    def _postings(self, goal: IntAtom):
        """(rows, shortest posting list over the bound arguments or None,
        whether every row it selects matches the goal).

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
        best = None
        bound = 0
        for pos, a in enumerate(goal[1:]):
            if a >= 0:
                bound += 1
                idx = self.arg_index.get((pid, pos, a), ())
                if best is None or len(idx) < len(best):
                    best = idx
        free = len(goal) - 1 - bound
        exact = bound <= 1 and len({a for a in goal if a < 0}) == free
        return self.tuples[pid], best, exact

    def match(self, goal: IntAtom) -> list[tuple[int, ...]]:
        """The rows matching an int-coded goal, in insertion order."""
        rows, best, exact = self._postings(goal)
        if best is not None:
            rows = map(rows.__getitem__, best)
        if exact:
            return list(rows)
        return [row for row in rows if _fits(goal, row)]

    def binding_count(self, goal: IntAtom) -> int:
        """Number of rows matching an int-coded goal.

        Equal to ``len(self.match(goal))`` but builds no rows: when every
        selected row matches, the answer is a posting-list length (or the
        row count); otherwise the shortest posting list is scanned.
        """
        rows, best, exact = self._postings(goal)
        if exact:
            return len(rows if best is None else best)
        if best is not None:
            rows = map(rows.__getitem__, best)
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
        args = parts[1:]
        for a in args:
            if a and (a[0].isupper() or a[0] == "_"):
                raise FactError(f"line {lineno}: non-ground entry {a!r}")
        try:
            store.add(parts[0], args)
        except FactError as e:
            raise FactError(f"line {lineno}: {e}") from None
    return store

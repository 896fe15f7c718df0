"""Ground fact storage with per-argument-position indexing.

Facts files are TSV: ``predicate<TAB>arg1<TAB>...<TAB>argK``.  Any
predicate appearing in a facts file is thereby a database predicate.
Every argument position is indexed, so a query with any bound argument
scans only that argument's posting rather than the whole relation.
``load_facts`` streams the lines into each predicate's rows, then builds
each position's postings in one pass over them.  Loading and
grounding make no reference cycle, so they pause the cyclic collector,
which would only rescan their growing tables; the pause is process-wide,
so they must not run concurrently, as for the symbol table.

Each posting is a tuple, not a list.  The collector tracks every list,
but it stops tracking a tuple or a plain dict once a collection finds it
holds only untracked objects; rows of ints, their tables and the index
then all qualify, so the store leaves the collector's lists at its first
full collection, and a full collection no longer walks the database.
With list postings, a loaded hyperlink store of 10K entities left 53K
tracked objects and a 7-8 ms full collection, and one of 100K entities
345K objects and 63-76 ms; with tuples both leave two more tracked
objects than before the load, and a full collection takes 4-5 ms at
either size (Python 3.11, in a process that imports only this package).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field

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
    # tuples[pred_id] with that constant there, in insertion order; a
    # tuple, since the collector stops tracking a tuple of untracked rows
    # but never a list
    arg_index: dict[tuple[int, int, int], tuple[tuple[int, ...], ...]] = (
        field(default_factory=dict))
    duplicate_count: int = 0

    def predicates(self) -> dict[str, int]:
        return {SYMBOLS[pid]: arity for pid, arity in self.arities.items()}

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


@contextmanager
def _collector_paused():
    """Turn the cyclic collector off; on exit turn it back on if it was on."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_collector_paused()
def load_facts(source: str) -> FactStore:
    """Load a TSV facts file; duplicates are dropped and counted."""
    store = FactStore()
    tables = {}     # predicate name -> (its rows, its arity)
    for lineno, line in enumerate(source.splitlines(), 1):
        head = line.lstrip()
        if not head or head[0] == "%":
            continue
        pred, tab, args = line.partition("\t")
        if not tab:
            raise FactError(f"line {lineno}: expected predicate<TAB>args, "
                            f"got {line!r}")
        table = tables.get(pred)
        if table is None:   # intern the name before its first args
            pid = intern(pred)
            table = tables[pred] = ({}, args.count("\t") + 1)
            store.tuples[pid], store.arities[pid] = table
        rows, arity = table
        row = tuple(map(intern, args.split("\t")))
        if len(row) != arity:
            raise FactError(f"line {lineno}: ragged arity for {pred}: "
                            f"got {len(row)} args, expected {arity}")
        if row in rows:
            store.duplicate_count += 1
        rows[row] = None    # a duplicate keeps its first place
    for pid, rows in store.tuples.items():
        for pos in range(store.arities[pid]):
            column = {}     # constant id -> posting list
            for row in rows:
                column.setdefault(row[pos], []).append(row)
            for val, posting in column.items():
                store.arg_index[pid, pos, val] = tuple(posting)
    return store

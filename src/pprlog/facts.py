"""Ground fact storage with per-argument-position indexing.

Facts files are TSV: ``predicate<TAB>arg1<TAB>...<TAB>argK``.  Any
predicate appearing in a facts file is thereby a database predicate.
Every argument position is indexed, so a query with any bound argument
scans only that argument's posting list rather than the whole relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import Atom, Const, Subst, Var, walk


class FactError(Exception):
    pass


@dataclass
class FactStore:
    tuples: dict[str, list[tuple[str, ...]]] = field(default_factory=dict)
    arities: dict[str, int] = field(default_factory=dict)
    # (predicate, argument position, value) -> row indices into tuples[pred]
    arg_index: dict[tuple[str, int, str], list[int]] = field(
        default_factory=dict)
    duplicate_count: int = 0
    _seen: set[tuple] = field(default_factory=set, repr=False)

    def predicates(self) -> dict[str, int]:
        return dict(self.arities)

    def __contains__(self, pred: str) -> bool:
        return pred in self.tuples

    def count(self, pred: str) -> int:
        return len(self.tuples.get(pred, ()))

    def add(self, pred: str, args: tuple[str, ...]):
        if pred in self.arities and self.arities[pred] != len(args):
            raise FactError(
                f"ragged arity for {pred}: got {len(args)} args, "
                f"expected {self.arities[pred]}")
        key = (pred, *args)
        if key in self._seen:
            self.duplicate_count += 1
            return
        self._seen.add(key)
        self.arities[pred] = len(args)
        rows = self.tuples.setdefault(pred, [])
        for pos, val in enumerate(args):
            self.arg_index.setdefault((pred, pos, val), []).append(len(rows))
        rows.append(args)

    def _postings(self, query: Atom):
        """(rows, shortest posting list over the bound arguments or None)."""
        if query.pred not in self.tuples:
            raise FactError(f"unknown database predicate {query.pred}")
        if query.arity != self.arities[query.pred]:
            raise FactError(
                f"{query.pred} queried with arity {query.arity}, "
                f"stored arity is {self.arities[query.pred]}")
        best = None
        for pos, qa in enumerate(query.args):
            if isinstance(qa, Const):
                idx = self.arg_index.get((query.pred, pos, qa.name), [])
                if best is None or len(idx) < len(best):
                    best = idx
        return self.tuples[query.pred], best

    def match(self, query: Atom) -> list[Subst]:
        """One substitution per matching ground tuple, in insertion order."""
        rows, best = self._postings(query)
        candidates = iter(rows) if best is None else (rows[i] for i in best)
        out = []
        for row in candidates:
            s: Subst = {}
            for qa, val in zip(query.args, row):
                qa = walk(qa, s)
                if isinstance(qa, Var):
                    s[qa] = Const(val)
                elif qa.name != val:
                    break
            else:
                out.append(s)
        return out

    def binding_count(self, query: Atom) -> int:
        """Number of ground tuples matching the query pattern.

        Equal to ``len(self.match(query))`` but builds no substitutions:
        with no repeated variable and at most one bound argument the
        answer is a posting-list length (or the row count); otherwise the
        shortest posting list is scanned.
        """
        rows, best = self._postings(query)
        bound: list[tuple[int, str]] = []
        var_pos: dict[Var, list[int]] = {}
        for pos, qa in enumerate(query.args):
            if isinstance(qa, Const):
                bound.append((pos, qa.name))
            else:
                var_pos.setdefault(qa, []).append(pos)
        repeats = [ps for ps in var_pos.values() if len(ps) > 1]
        if not repeats and len(bound) <= 1:
            return len(rows) if best is None else len(best)
        candidates = iter(rows) if best is None else (rows[i] for i in best)
        return sum(1 for row in candidates
                   if all(row[pos] == name for pos, name in bound)
                   and all(row[p] == row[ps[0]] for ps in repeats
                           for p in ps[1:]))


def load_facts(source: str) -> FactStore:
    """Load a TSV facts file; duplicates are dropped and counted."""
    store = FactStore()
    for lineno, line in enumerate(source.splitlines(), 1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("%"):
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise FactError(f"line {lineno}: expected predicate<TAB>args, "
                            f"got {line!r}")
        pred, *args = parts
        for a in args:
            if a and (a[0].isupper() or a[0] == "_"):
                raise FactError(f"line {lineno}: non-ground entry {a!r}")
        try:
            store.add(pred, tuple(args))
        except FactError as e:
            raise FactError(f"line {lineno}: {e}") from None
    return store

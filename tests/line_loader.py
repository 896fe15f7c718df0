"""A facts file loaded one line at a time, each row indexed as it comes.

A reference for ``load_facts``, which fills each predicate's rows in one
loop and builds each argument position's posting lists afterwards in one
pass over those rows: ``test_facts`` checks the two stores table for
table.  This is the loader from before that change.
"""

from typing import Sequence

from pprlog.facts import FactError, FactStore
from pprlog.terms import intern


def _add(store: FactStore, pred: str, args: Sequence[str]):
    pid = intern(pred)
    row = tuple(map(intern, args))
    if store.arities.setdefault(pid, len(row)) != len(row):
        raise FactError(
            f"ragged arity for {pred}: got {len(row)} args, "
            f"expected {store.arities[pid]}")
    rows = store.tuples.setdefault(pid, {})
    if row in rows:
        store.duplicate_count += 1
        return
    rows[row] = None
    index = store.arg_index
    for pos, val in enumerate(row):
        index.setdefault((pid, pos, val), []).append(row)


def load_facts_by_line(source: str) -> FactStore:
    """``load_facts(source)``, built one fact line at a time."""
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
            _add(store, parts[0], parts[1:])
        except FactError as e:
            raise FactError(f"line {lineno}: {e}") from None
    return store

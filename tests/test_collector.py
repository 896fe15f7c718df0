"""Loading and grounding pause Python's cyclic garbage collector.

The pause must hand the collector back as it found it, on error too, and
it leaks nothing only because a load or a grounding makes no reference
cycle: with the collector off, ``gc.collect()`` afterwards finds nothing
to free.  A loaded store leaves the collector's lists at its first full
collection, so later ones do not walk the database.

``PYTHONPATH=src python tests/test_collector.py`` prints, for hyperlink
stores of 1K, 10K and 100K entities, the objects the collector still
tracks after a load, the time of a full collection and the load time.
"""

import gc
import time

import pytest

from conftest import HYPERLINK_FACTS, TABLE_PROGRAM
from pprlog.facts import FactError, load_facts
from pprlog.grounder import (GroundingError, GroundingParams,
                             approximate_ground, ground_full)
from pprlog.parser import parse_atom, parse_program
from pprlog.synth import (CITATION_RULES, SyntheticDbSpec, citation_corpus,
                          hyperlink_db)
from pprlog.weights import LINEAR, ParameterVector

CITATION_FACTS, CITATION_TRAIN, _ = citation_corpus(num_papers=4, seed=0)
BUDGET = GroundingParams(epsilon=1e-6, node_budget=3)


def _push(program, store, query, params=GroundingParams()):
    return approximate_ground(parse_atom(query), program, store, params,
                              ParameterVector(), LINEAR)


def _full(program, store, query, params=GroundingParams(max_T=10)):
    return ground_full(parse_atom(query), program, store, params)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Runs the test with the caller's collector on, then with it off."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def _toy():
    return parse_program(TABLE_PROGRAM), load_facts(HYPERLINK_FACTS)


def _non_ground():
    return parse_program("p(X) :- true # f(Y)."), load_facts("")


FAILING_CALLS = {
    "load-ragged-arity": (FactError, lambda: load_facts("links\ta\tb\n"
                                                        "links\ta")),
    "push-node-budget": (GroundingError,
                         lambda: _push(*_toy(), "about(a,Z)", BUDGET)),
    "full-node-budget": (GroundingError,
                         lambda: _full(*_toy(), "about(a,Z)", BUDGET)),
    "push-non-ground-feature": (GroundingError,
                                lambda: _push(*_non_ground(), "p(a)")),
    "full-non-ground-feature": (GroundingError,
                                lambda: _full(*_non_ground(), "p(a)")),
}


@pytest.mark.parametrize("call", sorted(FAILING_CALLS))
def test_collector_state_is_kept_on_error(collector, call):
    error, run = FAILING_CALLS[call]
    with pytest.raises(error):
        run()
    assert gc.isenabled() == collector


def _citation_queries():
    return [line.split("\t")[0] for line in CITATION_TRAIN.splitlines()
            if line][:3]


GROUNDINGS = {
    "load-hyperlink": lambda: load_facts(HYPERLINK_FACTS),
    "load-citation": lambda: load_facts(CITATION_FACTS),
    "push-hyperlink": lambda: [_push(*_toy(), q)
                               for q in ("about(a,Z)", "about(b,Z)")],
    "full-hyperlink": lambda: [_full(*_toy(), q)
                               for q in ("about(a,Z)", "about(b,Z)")],
    "push-citation": lambda: [
        _push(parse_program(CITATION_RULES), load_facts(CITATION_FACTS), q)
        for q in _citation_queries()],
    "full-citation": lambda: [
        _full(parse_program(CITATION_RULES), load_facts(CITATION_FACTS), q,
              GroundingParams(max_T=4))
        for q in _citation_queries()],
}


@pytest.mark.parametrize("case", sorted(GROUNDINGS))
def test_collector_state_is_kept(collector, case):
    GROUNDINGS[case]()
    assert gc.isenabled() == collector


@pytest.mark.parametrize("case", sorted(GROUNDINGS))
def test_load_and_grounding_make_no_reference_cycle(case):
    # what the run builds goes with its last reference, so pausing the
    # collector during it frees no less
    gc.collect()
    gc.disable()
    try:
        result = GROUNDINGS[case]()
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


def _tracked_objects() -> int:
    # a collection untracks a container only if it has already untracked
    # what the container holds, so a second one finishes what the first
    # left of nested tuples
    gc.collect()
    gc.collect()
    return len(gc.get_objects())


def _hyperlink_facts(entities: int, vocab: int) -> str:
    return hyperlink_db(SyntheticDbSpec(entities, 4.0, vocab, 0),
                        num_queries=1)[0]


def test_loaded_store_is_not_tracked():
    store = load_facts(_hyperlink_facts(200, 50) + CITATION_FACTS)
    gc.collect()
    assert not gc.is_tracked(store.arg_index)
    assert all(type(posting) is tuple and not gc.is_tracked(posting)
               for posting in store.arg_index.values())
    for rows in store.tuples.values():
        assert not gc.is_tracked(rows)
        assert not any(map(gc.is_tracked, rows))


def test_tracked_objects_do_not_grow_with_the_store():
    added = []
    for entities in (200, 2000):
        facts = _hyperlink_facts(entities, 50)
        before = _tracked_objects()
        store = load_facts(facts)
        added.append(_tracked_objects() - before)
        del store
    assert added[0] == added[1]


def _scaling_row(entities: int) -> str:
    """Objects tracked once a hyperlink store of that many entities is
    loaded and a full collection has run, how many of them the load
    added, the median of 5 full collections and the load time."""
    facts = _hyperlink_facts(entities, entities // 200)
    before = _tracked_objects()
    start = time.perf_counter()
    store = load_facts(facts)
    load_s = time.perf_counter() - start
    tracked = _tracked_objects()
    times = []
    for _ in range(5):
        start = time.perf_counter()
        gc.collect()
        times.append(time.perf_counter() - start)
    del store
    return (f"{entities:8d}  {tracked:7d}  {tracked - before:6d}"
            f"  {sorted(times)[2] * 1e3:10.1f}  {load_s:6.3f}")


if __name__ == "__main__":
    print("entities  tracked   added  full_gc_ms  load_s")
    for entities in (1_000, 10_000, 100_000):
        print(_scaling_row(entities))

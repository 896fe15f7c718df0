"""Byte-identity pins for small groundings of the synthetic datasets.

Each case grounds a few queries of a small ``pprlog.synth`` dataset at
seed 0 and compares a sha256 of what the grounding gives out with a
digest recorded earlier; one more digest pins the fact store those
datasets load into.  A change meant to keep outputs identical (a
speed-up of the loader, the prover, the push loop or the graph) must
leave every digest as it is; a change that means to alter outputs
records new ones with ``PYTHONPATH=src python tests/test_golden.py``,
which prints them, and says why.
"""

import hashlib

import pytest

from pprlog.facts import load_facts
from pprlog.graph import serialize
from pprlog.grounder import GroundingParams, approximate_ground, ground_full
from pprlog.parser import parse_atom, parse_program
from pprlog.synth import (CITATION_RULES, HYPERLINK_RULES, SyntheticDbSpec,
                          citation_corpus, hyperlink_db)
from pprlog.terms import SYMBOLS
from pprlog.weights import LINEAR, ParameterVector

PARAMS = GroundingParams()

GOLDEN = {
    "hyperlink-answer":
        "4c6dbda084bb4562c07bf3d2381b046bd5046265f5e2024b78cb57d578f7d9e5",
    "citation":
        "52a503f72bbe741cd3ab32c1ea255576afe3839e64811e295a442b2401799322",
    "citation-8":
        "e9e2e62adf8c75a27edb91ab13a9d77b4281dba0034872bc9480146ff872a4f5",
    "hyperlink-exact":
        "a6f5ee02247fc904875c14987c35c051209a5977802377ed626488cd7e39e670",
    "citation-exact":
        "a04afe85c72ec5e3d8fbf22faa5e2180d1aa2c29b19ac2c6cbae31e6f296577b",
}
# rows, posting lists, arities and duplicate count of the seed-0 toy
# hyperlink and citation facts
STORE_GOLDEN = (
    "3eddbf92586299f4bb2804160fadd96ce8214fb769bd0ff2c5ee874947f80b83")


def _hyperlink(entities: int, queries: int):
    facts, lines = hyperlink_db(SyntheticDbSpec(entities, 4.0, 50, 0),
                                num_queries=queries)
    return (parse_program(HYPERLINK_RULES), load_facts(facts),
            [parse_atom(q) for q in lines.split("\n") if q])


def _citation(num_papers: int = 4):
    facts, train, _ = citation_corpus(num_papers=num_papers, seed=0)
    queries = [parse_atom(line.split("\t")[0])
               for line in train.splitlines() if line]
    return parse_program(CITATION_RULES), load_facts(facts), queries


def _approximate(program, store, queries):
    for q in queries:
        g, p, stats = approximate_ground(q, program, store, PARAMS,
                                         ParameterVector(), LINEAR)
        yield serialize(g)
        yield repr(sorted(p.items()))
        yield repr(stats)


def _exact(program, store, queries, params=PARAMS):
    for q in queries:
        g = ground_full(q, program, store, params)
        yield serialize(g)
        yield repr(sorted(g.depths.items()))


def _citation_exact():
    """Breadth-first grounding over the recursive citation rules."""
    program, store, queries = _citation()
    return _exact(program, store, queries[:3], GroundingParams(max_T=10))


def _store(store):
    """The store's tables by name: symbol ids depend on what the process
    interned before."""
    def names(ids):
        return [SYMBOLS[i] for i in ids]
    for pid, rows in store.tuples.items():
        yield repr((SYMBOLS[pid], store.arities[pid]))
        yield repr([names(row) for row in rows])
    for pid, pos, val in sorted(store.arg_index, key=lambda k: (
            SYMBOLS[k[0]], k[1], SYMBOLS[k[2]])):
        yield repr((SYMBOLS[pid], pos, SYMBOLS[val],
                    [names(row) for row in store.arg_index[pid, pos, val]]))
    yield repr(store.duplicate_count)


CASES = {
    "hyperlink-answer": lambda: _approximate(*_hyperlink(200, 4)),
    "citation": lambda: _approximate(*_citation()),
    # full-size citation states hold up to 9 subgoals
    "citation-8": lambda: _approximate(*_citation(8)),
    "hyperlink-exact": lambda: _exact(*_hyperlink(30, 3)),
    "citation-exact": _citation_exact,
}


def _sha256(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def digest(case: str) -> str:
    return _sha256(CASES[case]())


def store_digest() -> str:
    return _sha256(text for load in (_hyperlink(200, 4), _citation())
                   for text in _store(load[1]))


@pytest.mark.parametrize("case", sorted(CASES))
def test_grounding_outputs_match_recorded_digest(case):
    assert digest(case) == GOLDEN[case]


def test_loaded_store_matches_recorded_digest():
    assert store_digest() == STORE_GOLDEN


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {digest(case)!r},")
    print(f"STORE_GOLDEN = {store_digest()!r}")

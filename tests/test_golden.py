"""Byte-identity pins for small groundings of the synthetic datasets.

Each case grounds a few queries of a small ``pprlog.synth`` dataset at
seed 0 and compares a sha256 of what the grounding gives out with a
digest recorded earlier.  A change meant to keep outputs identical (a
speed-up of the prover, the push loop or the graph) must leave every
digest as it is; a change that means to alter outputs records new ones
with ``PYTHONPATH=src python tests/test_golden.py``, which prints them,
and says why.
"""

import hashlib

import pytest

from pprlog.facts import load_facts
from pprlog.graph import serialize
from pprlog.grounder import GroundingParams, approximate_ground, ground_full
from pprlog.parser import parse_atom, parse_program
from pprlog.synth import (CITATION_RULES, HYPERLINK_RULES, SyntheticDbSpec,
                          citation_corpus, hyperlink_db)
from pprlog.weights import LINEAR, ParameterVector

PARAMS = GroundingParams()

GOLDEN = {
    "hyperlink-answer":
        "4c6dbda084bb4562c07bf3d2381b046bd5046265f5e2024b78cb57d578f7d9e5",
    "citation":
        "52a503f72bbe741cd3ab32c1ea255576afe3839e64811e295a442b2401799322",
    "hyperlink-exact":
        "a6f5ee02247fc904875c14987c35c051209a5977802377ed626488cd7e39e670",
}


def _hyperlink(entities: int, queries: int):
    facts, lines = hyperlink_db(SyntheticDbSpec(entities, 4.0, 50, 0),
                                num_queries=queries)
    return (parse_program(HYPERLINK_RULES), load_facts(facts),
            [parse_atom(q) for q in lines.split("\n") if q])


def _citation():
    facts, train, _ = citation_corpus(num_papers=4, seed=0)
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


def _exact(program, store, queries):
    for q in queries:
        g = ground_full(q, program, store, PARAMS)
        yield serialize(g)
        yield repr(sorted(g.depths.items()))


CASES = {
    "hyperlink-answer": lambda: _approximate(*_hyperlink(200, 4)),
    "citation": lambda: _approximate(*_citation()),
    "hyperlink-exact": lambda: _exact(*_hyperlink(30, 3)),
}


def digest(case: str) -> str:
    h = hashlib.sha256()
    for text in CASES[case]():
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_grounding_outputs_match_recorded_digest(case):
    assert digest(case) == GOLDEN[case]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {digest(case)!r},")

"""Spans recorded from the benchmark's side of the library API.

The library has no tracing of its own, so the traced run reaches its
layers through what the API lets a caller pass in: a ``FactStore``
subclass whose ``match`` records a span, and a prover expander composed
from ``Prover.expand``, ``Prover.restart_features`` and
``transition_distribution`` that is handed to ``pagerank_nibble`` in
place of the one ``approximate_ground`` builds.  Spans are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import fields
from time import perf_counter

from pprlog.facts import FactStore
from pprlog.graph import RESTART_FEATURE, SELF_LOOP_FEATURE
from pprlog.grounder import (Prover, pagerank_nibble, start_node,
                             transition_distribution)


class Tracer:
    """In-memory spans: [name, start, end, parent index, request id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.request = -1

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        rec = [name, perf_counter(), 0.0, parent, self.request]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._open.pop()
            rec[2] = perf_counter()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rec in self.spans:
            out[rec[0]] = out.get(rec[0], 0) + 1
        return out

    def write(self, path):
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def traced_store(store: FactStore, tracer: Tracer) -> FactStore:
    """The same fact tables behind a store whose lookups record spans."""

    class TracedFactStore(FactStore):
        def match(self, query):
            with tracer.span("facts.match"):
                return super().match(query)

    return TracedFactStore(**{f.name: getattr(store, f.name)
                              for f in fields(store)})


class TracedExpander:
    """The prover expander ``approximate_ground`` uses, rebuilt from its
    public parts with a span around each layer it crosses."""

    def __init__(self, prover: Prover, params, w, fn, v0, tracer: Tracer):
        self.prover = prover
        self.params = params
        self.w = w
        self.fn = fn
        self.v0 = v0
        self.tracer = tracer
        self.expanded: list = []    # nodes Prover.expand was called on

    def __call__(self, node):
        if node.is_solution:
            successors = [(node, {SELF_LOOP_FEATURE: 1.0})]
            restart_phi = {RESTART_FEATURE: 1.0}
        else:
            self.expanded.append(node)
            with self.tracer.span("grounder.expand"):
                successors = self.prover.expand(node)
                restart_phi = self.prover.restart_features(
                    node, self.params.alpha)
        with self.tracer.span("weights.transition"):
            return transition_distribution(
                successors, restart_phi, self.w, self.fn,
                self.params.alpha_prime, restart_target=self.v0)


def traced_ground(query, program, store, params, w, fn, tracer: Tracer):
    """``approximate_ground`` with the traced expander.

    Returns (graph, p, r, stats, expanded nodes); graph, p and stats are
    what ``approximate_ground`` returns for the same arguments.
    """
    v0 = start_node(query)
    expander = TracedExpander(Prover(program, store), params, w, fn, v0,
                              tracer)
    with tracer.span("grounder.push"):
        p, r, g, stats = pagerank_nibble(v0, expander, params.alpha_prime,
                                         params.epsilon, params.node_budget)
    g.query = repr(query)
    for nid, payload in enumerate(g.nodes):
        if payload.is_solution:
            g.solutions[nid] = payload.answer_text()
    return g, p, r, stats, expander.expanded

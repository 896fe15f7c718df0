"""The benchmark's three workloads and the checks on their outputs.

Each workload is one closed loop with one client: an operation starts
when the previous one ends.  Inputs come from ``pprlog.synth`` with the
benchmark seed, and every library call follows the sequence the CLI
uses (``cmd_answer``, ``cmd_ground``, ``cmd_train``).

Untraced runs call the library directly and time each operation.  A
traced run also goes through the spans of ``spans.py``: hyperlink queries
run twice, plainly and traced, alternating which goes first; citation
groundings and training run once more with spans.  It checks that the
traced path gives the library's outputs, and times the graph, kernel and
learner layers on the groundings it produced.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from pprlog.facts import load_facts
from pprlog.graph import NumericGraph, deserialize, serialize
from pprlog.grounder import GroundingParams, approximate_ground, ground_full
from pprlog.inference import extract_answers, power_iterate
from pprlog.kernels import grad_power_iterate_arrays, power_iterate_arrays
from pprlog import learner
from pprlog.learner import (SgdConfig, TrainingExample, init_weights,
                            label_grounding, ppr_gradient,
                            train_on_groundings)
from pprlog.parser import parse_atom, parse_program
from pprlog.synth import (CITATION_RULES, HYPERLINK_RULES, SyntheticDbSpec,
                          citation_corpus, hyperlink_db)
from pprlog.weights import LINEAR, ParameterVector

from spans import Tracer, traced_ground, traced_store

# CLI defaults: alpha 0.2, alpha' 0.1, epsilon 1e-4, max_T 100, unit
# weights, linear weighting, 5 epochs of single-threaded SGD.
PARAMS = GroundingParams()
FN = LINEAR
SGD = SgdConfig()
POWER_TOL = 1e-10          # power_iterate's default stopping tolerance

MASS_TOL = 1e-9            # walk mass conservation
ANSWER_TOL = 1e-9          # answers and losses against the reference
ROUND_TRIP_TOL = 1e-12     # serialization reorders edges within a node,
                           # which changes float summation order

# Sizes per workload.  "toy" is for the benchmark's own tests and for the
# fixed-input check every full run makes first.  A batch is the query
# list one ``pprlog answer`` call would get; a citation batch is the
# whole ground -> serialize -> deserialize -> train pipeline.
SIZES = {
    "hyperlink-answer": {"full": {"entities": 10000, "batch": 4},
                         "toy": {"entities": 200, "batch": 2}},
    "hyperlink-exact": {"full": {"entities": 150, "batch": 8},
                        "toy": {"entities": 30, "batch": 2}},
    "citation-train": {"full": {"papers": 20}, "toy": {"papers": 4}},
}
MAX_QUERIES = 2000         # distinct queries drawn per hyperlink database


@dataclass
class Run:
    """What one workload run measured, checked and produced."""
    workload: str
    seed: int
    size: str
    deadline: float = 0.0       # perf_counter() value the loop ends by
    tracer: Tracer | None = None
    reference: dict | None = None
    op_s: list = field(default_factory=list)
    traced_op_s: list = field(default_factory=list)
    pass_s: list = field(default_factory=list)
    setup: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)   # what the reference holds
    acc: defaultdict = field(default_factory=lambda: defaultdict(float))

    def fail(self, what: str):
        self.failed += 1
        self.problems.append(what)

    def check(self, what: str, problems: list):
        """One failure for an operation whose output checks found problems."""
        if problems:
            self.fail(f"{what}: {'; '.join(problems)}")


# ---------------------------------------------------------------------------
# inputs and set-up

def make_inputs(workload: str, seed: int, size: str) -> dict:
    s = SIZES[workload][size]
    if workload == "citation-train":
        facts, train, _ = citation_corpus(num_papers=s["papers"], seed=seed)
        return {"rules": CITATION_RULES, "facts": facts,
                "examples": parse_examples(train)}
    spec = SyntheticDbSpec(s["entities"], 4.0, 50, seed)
    facts, queries = hyperlink_db(spec, num_queries=min(s["entities"],
                                                        MAX_QUERIES))
    return {"rules": HYPERLINK_RULES, "facts": facts,
            "queries": [parse_atom(q) for q in queries.split("\n") if q]}


def parse_examples(text: str) -> list[TrainingExample]:
    """Training lines as ``pprlog train --train`` reads them."""
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        query, *labels = line.split("\t")
        pos = tuple(repr(parse_atom(f[1:])) for f in labels if f[0] == "+")
        neg = tuple(repr(parse_atom(f[1:])) for f in labels if f[0] == "-")
        out.append(TrainingExample(parse_atom(query), pos, neg))
    return out


def set_up(run: Run, inputs: dict):
    """parse_program + load_facts, repeated; the last program and store
    are kept.  At least 3 set-ups, more while they take under 1 s.  The
    run sets up this way again when its loop is done, so that its set-up
    times come from two moments a run apart on a machine whose speed
    drifts."""
    parse_s = run.setup.setdefault("parse", [])
    load_s = run.setup.setdefault("load", [])
    total = run.setup.setdefault("total", [])
    program = store = None
    first = len(total)
    while len(total) - first < 3 or (sum(total[first:]) < 1.0
                                     and len(total) - first < 200):
        store = None                # free the previous tables first
        t0 = perf_counter()
        program = parse_program(inputs["rules"])
        t1 = perf_counter()
        store = load_facts(inputs["facts"])
        t2 = perf_counter()
        parse_s.append(t1 - t0)
        load_s.append(t2 - t1)
        total.append(t2 - t0)
    run.setup.update(setup_s=statistics.median(total),
                     parse_s=statistics.median(parse_s),
                     load_s=statistics.median(load_s), reps=len(total),
                     rows=sum(len(r) for r in store.tuples.values()))
    return program, store


def closed_loop(deadline: float, batch):
    """Run batch(0), batch(1), ... while the next one is expected to end
    by the deadline; always at least one."""
    k = 0
    while True:
        t0 = perf_counter()
        batch(k)
        k += 1
        if 2 * perf_counter() - t0 > deadline:
            return


def alternate(k: int, plain, traced):
    """Both forms of one operation, swapping which runs first."""
    if k % 2:
        a = plain()
        return a, traced()
    b = traced()
    return plain(), b


def timed(times: list, fn, arg):
    t0 = perf_counter()
    out = fn(arg)
    times.append(perf_counter() - t0)
    return out


# ---------------------------------------------------------------------------
# output checks

def check_push(p: dict, stats) -> list:
    problems = []
    mass = sum(p.values()) + stats.residual_mass
    if abs(mass - 1.0) > MASS_TOL:
        problems.append(f"p + residual mass is {mass!r}, not 1")
    bound = 1.0 / (PARAMS.alpha_prime * PARAMS.epsilon)
    if stats.degree_sum > bound:
        problems.append(f"push work {stats.degree_sum} exceeds "
                        f"1/(alpha'*epsilon) = {bound:g}")
    return problems


def positive_answers(answers) -> list:
    return [[a, prob] for a, prob in answers if prob > 0.0]


def check_answers(run: Run, query: str, got: list) -> list:
    ref = (run.reference or {}).get("answers", {}).get(query)
    if ref is None:
        return []
    want = dict(ref)
    have = dict(got)
    if set(want) != set(have):
        return [f"answers {sorted(have)} differ from reference "
                f"{sorted(want)}"]
    return [f"{a}: probability {have[a]!r}, reference {want[a]!r}"
            for a in want if abs(have[a] - want[a]) > ANSWER_TOL]


def check_losses(run: Run, losses: list) -> list:
    ref = (run.reference or {}).get("losses")
    if ref is None:
        return []
    if len(ref) != len(losses) or any(abs(a - b) > ANSWER_TOL
                                      for a, b in zip(losses, ref)):
        return [f"epoch losses {losses} differ from reference {ref}"]
    return []


def same_grounding(a, b) -> list:
    """The traced grounding against the library's, exactly."""
    (g1, p1, stats1), (g2, p2, stats2) = a, b
    problems = []
    if p1 != p2:
        problems.append("traced expander gives a different p")
    if stats1 != stats2:
        problems.append(f"traced push stats {stats1} differ from {stats2}")
    if serialize(g1) != serialize(g2):
        problems.append("traced expander gives a different grounding")
    return problems


# ---------------------------------------------------------------------------
# per-layer accounting (traced runs)

def count_grounding(run: Run, g, stats=None, expanded=None):
    """Grounder counts for one grounding.  ``expanded`` lists the nodes
    Prover.expand ran on; without it (ground_full) every non-solution
    node with out-edges was expanded exactly once."""
    acc = run.acc
    srcs = {e.src for e in g.edges}
    if expanded is None:
        kept = [u for u in srcs if u not in g.solutions]
        acc["expansions"] += len(kept)
        acc["useful"] += len(kept)
    else:
        ids = {payload: nid for nid, payload in enumerate(g.nodes)}
        acc["expansions"] += len(expanded)
        acc["useful"] += sum(ids[node] in srcs for node in expanded)
    acc["groundings"] += 1
    acc["nodes_discovered"] += g.num_nodes
    acc["nodes_kept"] += len(srcs)
    acc["edges_kept"] += g.num_edges
    if stats is not None:
        acc["pushes"] += stats.pushes
        acc["residual_mass"] += stats.residual_mass
        acc["work_frac"] += (stats.degree_sum * PARAMS.alpha_prime
                             * PARAMS.epsilon)


def graph_layers(run: Run, g):
    """Serialize, numeric-graph and kernel timings on one real grounding.

    The forward kernel runs at the answering horizon (max_T, with
    power_iterate's tolerance) and the gradient kernel at the training
    horizon (ppr_T); the gradient's inputs only set its shapes.
    """
    tr = run.tracer
    with tr.span("graph.serialize"):
        text = serialize(g)
    with tr.span("graph.deserialize"):
        deserialize(text)
    with tr.span("graph.numeric"):
        ng = NumericGraph(g)
    prob, _ = ng.probabilities(ParameterVector(), FN, PARAMS.alpha_prime)
    dprob = np.zeros((len(ng.feat_names), len(prob)))
    with tr.span("kernels.power"):
        power_iterate_arrays(ng.src, ng.dst, prob, ng.n, ng.start,
                             PARAMS.max_T, POWER_TOL)
    with tr.span("kernels.grad"):
        grad_power_iterate_arrays(ng.src, ng.dst, prob, dprob, ng.n,
                                  ng.start, SGD.ppr_T)
    run.acc["graphs"] += 1
    run.acc["graph_bytes"] += len(text.encode())
    run.acc["grad_edge_updates"] += dprob.size * SGD.ppr_T


# ---------------------------------------------------------------------------
# hyperlink-answer and hyperlink-exact

def dense(p: dict, n: int) -> list:
    v = [0.0] * n
    for nid, mass in p.items():
        v[nid] = mass
    return v


def run_hyperlink(run: Run, inputs: dict, program, store, exact: bool):
    queries = inputs["queries"]
    size = SIZES[run.workload][run.size]["batch"]
    tr = run.tracer
    tstore = traced_store(store, tr) if tr else None
    w = ParameterVector()

    def answer(q):
        if exact:
            g = ground_full(q, program, store, PARAMS, w, FN)
            v = power_iterate(g, w, FN, PARAMS.max_T,
                              alpha_prime=PARAMS.alpha_prime)
            return (g, v, None), extract_answers(g, v)
        g, p, stats = approximate_ground(q, program, store, PARAMS, w, FN)
        return (g, p, stats), extract_answers(g, dense(p, g.num_nodes))

    def traced_answer(q):
        with tr.span("bench.op"):
            if exact:
                with tr.span("grounder.full"):
                    g = ground_full(q, program, tstore, PARAMS, w, FN)
                with tr.span("inference.power"):
                    v = power_iterate(g, w, FN, PARAMS.max_T,
                                      alpha_prime=PARAMS.alpha_prime)
                with tr.span("inference.extract"):
                    return (g, v, None, None), extract_answers(g, v)
            g, p, r, stats, expanded = traced_ground(q, program, tstore,
                                                     PARAMS, w, FN, tr)
            v = dense(p, g.num_nodes)
            with tr.span("inference.extract"):
                return (g, p, stats, expanded), extract_answers(g, v)

    def batch(k):
        total = 0.0
        for i in range(size):
            j = k * size + i
            q = queries[j % len(queries)]
            run.attempted += 1
            try:
                if tr is None:
                    (g, x, stats), answers = timed(run.op_s, answer, q)
                else:
                    tr.request = j
                    ((g, x, stats), answers), (tg, tanswers) = alternate(
                        j, lambda: timed(run.op_s, answer, q),
                        lambda: timed(run.traced_op_s, traced_answer, q))
            except Exception as e:  # one failed query must not end the run
                run.fail(f"{q!r}: {type(e).__name__}: {e}")
                continue
            total += run.op_s[-1]
            got = positive_answers(answers)
            if k == 0:
                run.outputs.setdefault("answers", {})[repr(q)] = got
            problems = check_answers(run, repr(q), got)
            if exact:
                mass = float(np.sum(x))
                if abs(mass - 1.0) > MASS_TOL:
                    problems.append(f"power_iterate mass is {mass!r}, not 1")
            else:
                problems += check_push(x, stats)
            if tr is not None:
                problems += traced_checks(run, exact, (g, x, stats),
                                          tg, tanswers, answers)
            run.check(repr(q), problems)
        run.pass_s.append(total)

    closed_loop(run.deadline, batch)


def traced_checks(run, exact, plain, tg, tanswers, answers) -> list:
    g, x, stats = plain
    if positive_answers(tanswers) != positive_answers(answers):
        return ["traced answers differ"]
    if exact:
        count_grounding(run, tg[0])
        problems = ([] if serialize(tg[0]) == serialize(g)
                    else ["traced store gives a different grounding"])
    else:
        tgraph, tp, tstats, expanded = tg
        count_grounding(run, tgraph, tstats, expanded)
        problems = same_grounding((tgraph, tp, tstats), (g, x, stats))
    graph_layers(run, tg[0])
    return problems


# ---------------------------------------------------------------------------
# citation-train

@contextmanager
def step_times(times: list, tr: Tracer | None = None):
    """Time the SGD steps ``train_on_groundings`` runs inside the block.

    A step is an ``example_gradient`` call and the weight update after
    it, and ``train_on_groundings`` looks ``example_gradient`` up in its
    module on every step.  So the block puts a wrapper there that notes
    when each call starts, and a step's time runs from its call's start
    to the next call's; the last step ends with the block.  The step that
    ends an epoch also holds the library's divergence check and the next
    epoch's shuffle.  With a tracer, each call is a ``learner.gradient``
    span.
    """
    starts = []
    library = learner.example_gradient

    def gradient(*args, **kwargs):
        starts.append(perf_counter())
        if tr is None:
            return library(*args, **kwargs)
        with tr.span("learner.gradient"):
            return library(*args, **kwargs)

    learner.example_gradient = gradient
    try:
        yield
    finally:
        learner.example_gradient = library
        starts.append(perf_counter())
        times.extend(b - a for a, b in zip(starts, starts[1:]))


def train(groundings, seed: int):
    """``pprlog train --groundings`` with its defaults."""
    return train_on_groundings(groundings, SGD, seed, PARAMS.alpha_prime, FN)


def check_same(traced: list, losses: list) -> list:
    if traced != losses:
        return [f"traced training losses {traced} differ from "
                f"untraced {losses}"]
    return []


def check_round_trip(in_memory: list, losses: list) -> list:
    if len(in_memory) != len(losses) or any(
            abs(a - b) > ROUND_TRIP_TOL for a, b in zip(in_memory, losses)):
        return [f"in-memory losses {in_memory} differ from round-tripped "
                f"{losses}"]
    return []


def run_citation(run: Run, inputs: dict, program, store):
    """Each batch is ``pprlog ground`` then ``pprlog train --groundings``,
    timed as a whole; the operation is one SGD step of that training.
    The first batch also trains on its in-memory groundings, to check the
    round trip; a traced run trains each batch once more, with spans, on
    the round-tripped groundings."""
    tr = run.tracer
    tstore = traced_store(store, tr) if tr else None
    w = ParameterVector()
    examples = inputs["examples"]

    def batch(k):
        labeled, spent = [], 0.0
        for i, ex in enumerate(examples):
            run.attempted += 1
            try:
                t0 = perf_counter()
                g, p, stats = approximate_ground(ex.query, program, store,
                                                 PARAMS, w, FN)
                lg = label_grounding(ex, g)
                spent += perf_counter() - t0
                problems = check_push(p, stats)
                if tr is not None:
                    tr.request = i
                    with tr.span("bench.ground"):
                        tg, tp, _, tstats, expanded = traced_ground(
                            ex.query, program, tstore, PARAMS, w, FN, tr)
                        with tr.span("learner.label"):
                            label_grounding(ex, tg)
                    count_grounding(run, tg, tstats, expanded)
                    problems += same_grounding((tg, tp, tstats),
                                               (g, p, stats))
            except Exception as e:  # one failed example must not end the run
                run.fail(f"{ex.query!r}: {type(e).__name__}: {e}")
                continue
            run.check(repr(ex.query), problems)
            labeled.append(lg)

        run.attempted += 1
        try:
            t0 = perf_counter()
            text = "\n".join(serialize(lg.graph) for lg in labeled)
            graphs = deserialize(text)
            groundings = [label_grounding(lg.example, g)
                          for lg, g in zip(labeled, graphs)]
            with step_times(run.op_s):
                result = train(groundings, run.seed)
            run.pass_s.append(spent + perf_counter() - t0)
            losses = result.epoch_losses
            problems = check_losses(run, losses)
            if len(graphs) != len(labeled):
                problems.append(f"{len(graphs)} groundings read back for "
                                f"{len(labeled)} written")
            if k == 0:
                run.outputs["losses"] = losses
                problems += check_round_trip(
                    train(labeled, run.seed).epoch_losses, losses)
            if tr is not None:
                with step_times(run.traced_op_s, tr):
                    traced = train(groundings, run.seed)
                problems += check_same(traced.epoch_losses, losses)
                if k == 0:
                    trace_learner(run, groundings, result)
        except Exception as e:  # keep the run going to report it
            run.fail(f"training: {type(e).__name__}: {e}")
            return
        run.check("training", problems)

    closed_loop(run.deadline, batch)


def trace_learner(run: Run, groundings, result):
    """ppr_gradient, graph and kernel spans on the round-tripped
    groundings, and the learner's counts."""
    tr = run.tracer
    usable = [lg for lg in groundings if lg.usable]
    w = init_weights(usable, run.seed)
    for lg in usable:
        with tr.span("learner.ppr_gradient"):
            ppr_gradient(lg.graph, w, FN, SGD.ppr_T, PARAMS.alpha_prime)
    for lg in groundings:
        graph_layers(run, lg.graph)
    acc = run.acc
    acc["examples"] += len(groundings)
    acc["usable"] += len(usable)
    acc["pairs_used"] += result.pair_stats.used_pairs
    acc["pairs_total"] += result.pair_stats.total_pairs
    acc["features"] = max(acc["features"], len(result.weights))


# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, size: str,
                 traced: bool, reference: dict | None) -> Run:
    run = Run(workload, seed, size, tracer=Tracer() if traced else None,
              reference=reference)
    inputs = make_inputs(workload, seed, size)
    program, store = set_up(run, inputs)
    run.deadline = perf_counter() + seconds
    if workload == "citation-train":
        run_citation(run, inputs, program, store)
    else:
        run_hyperlink(run, inputs, program, store,
                      exact=workload == "hyperlink-exact")
    del program, store
    set_up(run, inputs)
    return run

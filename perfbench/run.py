#!/usr/bin/env python3
"""pprlog end-to-end benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|toy]

Run from the root of a source checkout; the library is imported from
its ``src/``.  With ``--workload`` it runs that workload in this
process and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Without ``--workload`` it runs every workload, each in a
fresh process.  BENCHMARK.json and perfbench/README.md say what each
workload and metric is.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    return ap.parse_args(argv)


def tail(samples: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples above it; the maximum when there are ten or fewer."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def median(xs: list) -> float:
    return statistics.median(xs) if xs else 0.0


def end_to_end(run) -> tuple[dict, dict]:
    """Metric values, and the sample counts and percentiles behind them."""
    op_ms = [t * 1e3 for t in run.op_s]
    tail_ms, tail_pct = tail(op_ms)
    values = {
        "setup_s": run.setup["setup_s"],
        "op_ms.p50": median(op_ms),
        "op_ms.tail": tail_ms,
        "pass_s": median(run.pass_s),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"op_ms.samples": len(op_ms), "op_ms.tail_pct": tail_pct,
             "pass_s.samples": len(run.pass_s),
             "setup_s.reps": run.setup["reps"]}
    return values, notes


def per_layer(run) -> tuple[dict, dict]:
    """Per-layer metrics from the spans and counts of a traced run.

    Grounder, facts, weights and inference metrics are per grounding
    (one per query or training example), graph and kernel metrics per
    grounding the graph layers ran on, learner step metrics per SGD step;
    a layer the workload never reaches reads 0.
    """
    tr, acc = run.tracer, run.acc
    self_s, calls = tr.self_times(), tr.counts()
    ops = max(acc["groundings"], 1)
    graphs = max(acc["graphs"], 1)
    steps = calls.get("learner.gradient", 0)
    expansions = acc["expansions"]

    def ms(name, per):
        return self_s.get(name, 0.0) * 1e3 / per

    def frac(a, b):
        return a / b if b else 0.0

    plain = median(run.op_s)
    traced = median(run.traced_op_s)
    values = {
        "parser.parse_ms": run.setup["parse_s"] * 1e3,
        "facts.load_s": run.setup["load_s"],
        "facts.rows": run.setup["rows"],
        "facts.match_calls": calls.get("facts.match", 0) / ops,
        "facts.match_ms": ms("facts.match", ops),
        "facts.match_per_expand": frac(calls.get("facts.match", 0),
                                       expansions),
        "grounder.expand_calls": expansions / ops,
        "grounder.expand_ms": ms("grounder.expand", ops),
        "grounder.push_ms": ms("grounder.push", ops),
        "grounder.full_ms": ms("grounder.full", ops),
        "grounder.pushes": acc["pushes"] / ops,
        "grounder.nodes_discovered": acc["nodes_discovered"] / ops,
        "grounder.nodes_kept": acc["nodes_kept"] / ops,
        "grounder.kept_frac": frac(acc["nodes_kept"],
                                   acc["nodes_discovered"]),
        "grounder.expand_useful_frac": frac(acc["useful"], expansions),
        "grounder.edges_kept": acc["edges_kept"] / ops,
        "grounder.residual_mass": acc["residual_mass"] / ops,
        "grounder.work_frac": acc["work_frac"] / ops,
        "weights.transition_ms": ms("weights.transition", ops),
        "graph.numeric_ms": ms("graph.numeric", graphs),
        "graph.serialize_ms": ms("graph.serialize", graphs),
        "graph.deserialize_ms": ms("graph.deserialize", graphs),
        "graph.bytes": acc["graph_bytes"] / graphs,
        "inference.power_ms": ms("inference.power", ops),
        "inference.extract_ms": ms("inference.extract", ops),
        "kernels.power_ms": ms("kernels.power", graphs),
        "kernels.grad_ms": ms("kernels.grad", graphs),
        "kernels.grad_edge_updates": acc["grad_edge_updates"] / graphs,
        "learner.sgd_step_ms": frac(sum(run.traced_op_s), steps) * 1e3,
        "learner.gradient_ms": ms("learner.gradient", max(steps, 1)),
        "learner.ppr_gradient_ms": ms("learner.ppr_gradient",
                                      max(acc["usable"], 1)),
        "learner.label_ms": ms("learner.label", ops),
        "learner.usable_frac": frac(acc["usable"], acc["examples"]),
        "learner.pairs_used_frac": frac(acc["pairs_used"],
                                        acc["pairs_total"]),
        "learner.features": acc["features"],
        "trace.overhead_frac": traced / plain - 1.0 if plain else 0.0,
    }
    notes = {"traced_ops": len(run.traced_op_s),
             "op_ms.p50.untraced": plain * 1e3,
             "op_ms.p50.traced": traced * 1e3,
             "spans": len(tr.spans)}
    return values, notes


def environment() -> dict:
    import numpy

    from pprlog.kernels import backend_name
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "backend": backend_name(),
            "machine": platform.machine()}


def load_reference(workload: str, size: str, seed: int):
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    return refs.get(workload, {}).get(size, {}).get(str(seed))


def run_one(args, spec) -> int:
    from workloads import SIZES, run_workload

    if args.workload not in SIZES:
        print(f"error\tunknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    # A fixed toy-size input with recorded outputs, checked on every run
    # whatever the seed; the seeded run is checked against the reference
    # too when the reference has that seed.
    fixed = None
    if args.size != "toy":
        fixed = run_workload(args.workload, 0, 0, "toy", False,
                             load_reference(args.workload, "toy", 0))
    run = run_workload(args.workload, args.seed, seconds, args.size,
                       bool(args.trace),
                       load_reference(args.workload, args.size,
                                      args.seed))
    if not run.op_s or not run.pass_s:
        run.fail("no operation completed")
    values, notes = per_layer(run) if args.trace else end_to_end(run)
    attempted, failed = run.attempted, run.failed
    problems = list(run.problems)
    if fixed is not None:
        attempted += fixed.attempted
        failed += fixed.failed
        problems += [f"fixed input: {p}" for p in fixed.problems]

    env = environment()
    print(f"workload\t{args.workload}\tseed {args.seed}\tsize {args.size}"
          f"\ttrace {args.trace}\tseconds {seconds:g}")
    print("env\t" + "\t".join(f"{k}={v}" for k, v in env.items()))
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric\t{m['name']}\t{values[m['name']]!r}\t{m['unit']}")
    for k, v in notes.items():
        print(f"note\t{k}\t{v!r}")
    for p in problems:
        print(f"failure\t{p}")
    print(f"failed_frac\t{failed / max(attempted, 1)!r}\t"
          f"({failed} of {attempted} operations)")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": seconds, "env": env,
        "metrics": values, "notes": notes, "attempted": attempted,
        "failed": failed, "problems": problems}, indent=1) + "\n")
    if run.tracer is not None:
        run.tracer.write(OUT / f"{stem}-spans.jsonl")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, spec) -> int:
    """Every workload, each in a fresh process; a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", wl["name"], "--seed", str(args.seed),
               "--trace", str(args.trace), "--size", args.size]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error\tworkload {wl['name']} exited "
                  f"{proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{wl['name']}/{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    # One thread per process, set before numpy loads its BLAS.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    args = parse_args(argv)
    if not (SRC / "pprlog" / "__init__.py").is_file():
        print(f"error\tno pprlog sources under {SRC}; run from the root of "
              f"a pprlog checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

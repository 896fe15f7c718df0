"""Tests of the benchmark itself, at toy size.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from pprlog.grounder import (_ProverExpander, Prover, approximate_ground,  # noqa: E402
                             pagerank_nibble, start_node)
from pprlog.weights import ParameterVector  # noqa: E402

import run as bench  # noqa: E402
from spans import Tracer, traced_ground, traced_store  # noqa: E402
from workloads import (FN, PARAMS, Run, make_inputs,  # noqa: E402
                       run_workload, set_up)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"]) and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"]
                                                      for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds",
                     "0", "--trace", str(trace), "--size", "toy")
    result = last_json(proc)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"metric\t{m['name']}\t" in proc.stdout
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "env\tnproc=" in proc.stdout and "backend=" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_fails_a_check(workload):
    entry = copy.deepcopy(bench.load_reference(workload, "toy", 0))
    if "losses" in entry:
        entry["losses"][-1] += 1e-6
    else:
        answers = next(iter(entry["answers"].values()))
        answers[0][1] += 1e-6
    run = run_workload(workload, 0, 0, "toy", False, entry)
    assert run.failed >= 1
    assert any("reference" in p for p in run.problems)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_expander_reproduces_p_and_r():
    inputs = make_inputs("hyperlink-answer", 3, "toy")
    program, store = set_up(Run("hyperlink-answer", 3, "toy"), inputs)
    tracer = Tracer()
    tstore = traced_store(store, tracer)
    w = ParameterVector()
    for q in inputs["queries"][:4]:
        v0 = start_node(q)
        p, r, _, stats = pagerank_nibble(
            v0, _ProverExpander(Prover(program, store), PARAMS, w, FN, v0),
            PARAMS.alpha_prime, PARAMS.epsilon, PARAMS.node_budget)
        g, tp, tr, tstats, expanded = traced_ground(q, program, tstore,
                                                    PARAMS, w, FN, tracer)
        assert tp == p and tr == r and tstats == stats
        g2, p2, _ = approximate_ground(q, program, store, PARAMS, w, FN)
        assert tp == p2 and g.solutions == g2.solutions
        assert len(expanded) == len(set(expanded))
    assert tracer.counts()["facts.match"] > 0


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    (_, a0, a1, _, _), (_, b0, b1, _, _), (_, b2, b3, _, _), \
        (_, c0, c1, _, _) = tracer.spans
    self_s = tracer.self_times()
    assert self_s["a"] == pytest.approx((a1 - a0) - (b1 - b0) - (b3 - b2))
    assert self_s["b"] == pytest.approx((b1 - b0) + (b3 - b2) - (c1 - c0))
    assert tracer.counts() == {"a": 1, "b": 2, "c": 1}


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    xs = list(range(1, 41))
    value, pct = bench.tail(xs)
    assert sum(x > value for x in xs) == 10 and pct == 75.0
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)

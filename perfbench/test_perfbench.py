"""Smoke tests of the benchmark itself (small inputs, a few seconds each).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
from common import DETERMINISTIC_COUNTS, END_TO_END, PARTITION, PER_LAYER  # noqa: E402

WORKLOADS = ("cold-paper", "batch-warm", "serve-mixed")


def bench(workload: str, trace: int, seed: int = 3, cwd: str = ROOT,
          script: str = os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_pairs():
    """Two traced runs per workload with the same seed."""
    return {w: (result_of(bench(w, 1)), result_of(bench(w, 1))) for w in WORKLOADS}


def test_benchmark_json_names_every_metric_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = result_of(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert result["metrics"]["ok_frac"]["value"] == 1.0  # failed_frac == 0
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_partition_time_and_repeat_counts(workload, traced_pairs):
    first, second = traced_pairs[workload]
    for result in (first, second):
        assert result["correct"] is True and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    values = {k: v["value"] for k, v in first["metrics"].items()}
    named = sum(values[metric] / scale for metric, scale in PARTITION.values())
    parts = named + values["serve.wire_ms"] / 1000.0 + values["trace.other_s"]
    assert parts == pytest.approx(values["trace.total_s"], rel=1e-9)
    assert values["trace.other_s"] >= -1e-9
    assert values["trace.overhead"] > 0
    again = {k: v["value"] for k, v in second["metrics"].items()}
    if workload == "serve-mixed" and values["serve.flush_size"] * again["serve.flush_size"] != 1:
        pytest.skip("a flush coalesced two requests; served counts are exact at width 1")
    assert {k: values[k] for k in DETERMINISTIC_COUNTS} == \
        {k: again[k] for k in DETERMINISTIC_COUNTS}


def test_wrappers_are_restored_after_an_in_process_traced_run():
    targets = [(importlib.import_module(m), c, a) for m, c, a, *_ in layers._TARGETS]
    owners = [(getattr(mod, c) if c else mod, a) for mod, c, a in targets]
    before = [owner.__dict__[attr] for owner, attr in owners]
    import run

    args = run.parse_args(["--workload", "batch-warm", "--seed", "5",
                           "--seconds", "0.2", "--trace", "1", "--smoke"])
    assert run.run(args)["correct"] is True
    after = [owner.__dict__[attr] for owner, attr in owners]
    assert all(a is b for a, b in zip(after, before))


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("cold-paper", 0, cwd=str(tmp_path),
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_coalesced_flushes_are_judged_by_their_members():
    """A flush's report depends on who shared it, not only on its size."""
    import serving
    import workloads
    from common import Outcome
    from repro.serve.registry import parse_graph_spec

    scale = workloads.SMOKE
    name, graph = parse_graph_spec(scale.serve_spec)
    pool = serving.make_pool(graph, 11, scale)
    argv = [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
            "--warmup", scale.serve_spec]
    service = serving.Service(argv, workloads.src_env(os.path.join(ROOT, "src")), name)
    try:
        exchanges, _ = serving.drive(service.port, pool, 2.0, clients=6)
    finally:
        service.stop()
    outcome = Outcome()
    verdicts = serving.Verdicts(graph, pool, outcome)
    bodies = verdicts.judge_all(exchanges, "coalesced")
    assert outcome.problems == [] and all(b is not None for b in bodies)
    assert max(verdicts.flush_sizes) > 1

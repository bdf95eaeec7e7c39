"""The in-process workloads: ``cold-paper`` and ``batch-warm``.

Both drive the program's public API only.  Operations repeat a fixed,
seed-derived input cycle (one iteration for ``cold-paper``, ``batch_sets``
root sets for ``batch-warm``) so simulated results and work counters are
exact per seed, while host time is the median over many operations.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from common import (
    DETERMINISTIC_COUNTS,
    Outcome,
    digest,
    layer_metrics,
    median,
    peak_rss_mb,
    report_key,
    run_cycles,
)
from checks import BFSChecker
import layers

COLD_DATASETS = ("rmat25", "twitter_rv")


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark mode."""

    cold_divisor: int
    batch_divisor: int
    batch_roots: int
    batch_sets: int
    serve_spec: str
    serve_pool: int
    serve_sssp: int
    serve_min_bfs: int
    setup_repeats: int


#: The measured configuration (sizes as in the workload table of README.md).
FULL = Scale(
    cold_divisor=256,
    batch_divisor=1024,
    batch_roots=64,
    batch_sets=3,
    serve_spec="g@rmat:scale=14,edge_factor=16,seed=7",
    serve_pool=60,
    serve_sssp=6,
    serve_min_bfs=200,
    setup_repeats=5,
)

#: The smoke configuration the benchmark's own tests run: same code paths,
#: inputs small enough for a few seconds per workload.
SMOKE = Scale(
    cold_divisor=8192,
    batch_divisor=16384,
    batch_roots=8,
    batch_sets=2,
    serve_spec="g@rmat:scale=9,edge_factor=8,seed=7",
    serve_pool=10,
    serve_sssp=1,
    serve_min_bfs=0,
    setup_repeats=2,
)


def src_env(src_dir: str) -> Dict[str, str]:
    """Environment for a child Python that imports the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
    return env


class CountTracker:
    """Per-input count deltas of a traced loop, to prove they repeat."""

    def __init__(self, recorder: "layers.Recorder") -> None:
        self.recorder = recorder
        self._last = self._counts()
        self.by_input: Dict[int, Dict[str, int]] = {}
        self.mismatches: List[int] = []

    def _counts(self) -> Dict[str, int]:
        counts = self.recorder.snapshot()["counts"]
        return {name: counts.get(name, 0) for name in DETERMINISTIC_COUNTS}

    def mark(self, key: int) -> None:
        now = self._counts()
        delta = {k: now[k] - self._last[k] for k in now}
        self._last = now
        if key in self.by_input and self.by_input[key] != delta:
            self.mismatches.append(key)
        self.by_input.setdefault(key, delta)


class Answers:
    """Fingerprints of answers per input; repeats must be bit-identical.

    The first answer for an input is the one validated against the
    reference; every later answer for it (traced or not) must equal it.
    """

    def __init__(self, outcome: Outcome) -> None:
        self.outcome = outcome
        self.first: Dict[int, object] = {}
        self.bad_ops = 0

    def add(self, key: int, fingerprint) -> bool:
        """Record one answer; True when it is the first for ``key``."""
        if key not in self.first:
            self.first[key] = fingerprint
            return True
        if self.first[key] != fingerprint:
            self.bad_ops += 1
            self.outcome.fail(
                f"input {key}: simulated results (levels, parents or IOReport) "
                "differ from its first, untraced answer")
        return False


def _traced_loop(outcome: Outcome, seconds: float, cycle_len: int, op,
                 untraced_s: float) -> int:
    """Run ``op`` traced for whole cycles and fill the per-layer metrics.

    Input 0 ran untraced just before (``untraced_s``); the ratio of its
    traced to untraced time is the tracing overhead.  Returns the number
    of traced operations.
    """
    recorder = layers.Recorder()
    installation = layers.install(recorder)
    try:
        tracker = CountTracker(recorder)
        times: List[float] = []

        def traced(i: int) -> float:
            elapsed = op(i)
            tracker.mark(i % cycle_len)
            times.append(elapsed)
            return elapsed

        run_cycles(cycle_len, seconds, traced)
        snapshot = recorder.snapshot()
    finally:
        installation.uninstall()
    if tracker.mismatches:
        outcome.fail(f"work counts differ between repeats of inputs {tracker.mismatches}")
    ops = len(times)
    first_input = [t for i, t in enumerate(times) if i % cycle_len == 0]
    outcome.metrics.update(layer_metrics(
        snapshot, ops, sum(times) / ops,
        extra={"trace.overhead": median(first_input) / untraced_s},
    ))
    return ops


# ----------------------------------------------------------------------
# cold-paper
# ----------------------------------------------------------------------
_COLD_PROBE = (
    "from repro.analysis.harness import ExperimentRunner\n"
    "from repro.analysis.calibration import scaled_fastbfs_config\n"
    "from repro.core.engine import FastBFSEngine\n"
    "runner = ExperimentRunner(divisor={divisor}, seed={seed})\n"
    "runner.machine()\n"
    "FastBFSEngine(scaled_fastbfs_config(runner.divisor, threads=4))\n"
)


def cold_paper(seed: int, seconds: float, trace: bool, scale: Scale,
               src_dir: str) -> Outcome:
    """Fresh dataset build + stage + one FastBFS query, per paper dataset."""
    from repro.analysis.calibration import scaled_fastbfs_config
    from repro.analysis.harness import ExperimentRunner, default_root
    from repro.core.engine import FastBFSEngine
    from repro.graph import datasets

    outcome = Outcome()
    # Set-up: a fresh interpreter importing the program and building the
    # harness, as a new `fastbfs run` process does before any work.
    probe = _COLD_PROBE.format(divisor=scale.cold_divisor, seed=seed)
    setups = []
    for _ in range(0 if trace else scale.setup_repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", probe], env=src_env(src_dir),
                       check=True, timeout=120)
        setups.append(time.perf_counter() - start)
    runner = ExperimentRunner(divisor=scale.cold_divisor, seed=seed)
    answers = Answers(outcome)
    results = []
    invalid: List[str] = []

    def op(i: int) -> float:
        runs = []
        start = time.perf_counter()
        for name in COLD_DATASETS:
            # cache=False: every iteration regenerates, as a new process would.
            graph = datasets.build_dataset(
                name, divisor=runner.divisor, seed=seed, cache=False)
            engine = FastBFSEngine(scaled_fastbfs_config(runner.divisor, threads=4))
            root = default_root(graph)
            runs.append((graph, root, engine.run(graph, runner.machine(), root=root)))
        elapsed = time.perf_counter() - start
        fingerprint = tuple(
            (digest(r.levels, r.parents), report_key(r.report)) for _, _, r in runs)
        if answers.add(0, fingerprint):
            for graph, root, result in runs:
                results.append(result)
                problem = BFSChecker(graph).check(root, result.levels, result.parents)
                if problem is not None:
                    invalid.append(f"{graph.name} root {root}: {problem}")
                    outcome.fail(invalid[-1])
        return elapsed

    if trace:
        op(0)  # warm-up; also the validated first answer
        untraced_s = op(0)
        outcome.attempted = 2 + _traced_loop(outcome, seconds, 1, op, untraced_s)
        # A wrong first answer makes every (identical) repeat wrong too.
        outcome.failed = outcome.attempted if invalid else answers.bad_ops
        return outcome

    # Warm-up, untimed: the first iteration runs ~10% slower (first-touch
    # allocations, lazy imports); it is also the validated first answer.
    op(0)
    times: List[float] = []

    def timed(i: int) -> float:
        times.append(op(i))
        return times[-1]

    run_cycles(1, seconds, timed)
    rss = peak_rss_mb()
    outcome.notes["op_times_s"] = [round(t, 4) for t in times]
    outcome.attempted = 1 + len(times)
    outcome.failed = outcome.attempted if invalid else answers.bad_ops
    outcome.metrics.update({
        "setup_s": median(setups),
        "op_s": median(times),
        "queries_per_s": len(COLD_DATASETS) * len(times) / sum(times),
        "sim_s_per_query": sum(r.execution_time for r in results) / len(results),
        "resp_kb": sum(r.levels.nbytes + r.parents.nbytes for r in results)
        / len(results) / 1024.0,
        "peak_rss_mb": rss,
    })
    return outcome


# ----------------------------------------------------------------------
# batch-warm
# ----------------------------------------------------------------------
def batch_warm(seed: int, seconds: float, trace: bool, scale: Scale,
               src_dir: str) -> Outcome:
    """One MS-BFS batch of Graph500-sampled roots against a staged graph."""
    from repro.algorithms.graph500 import sample_roots
    from repro.analysis.calibration import scaled_fastbfs_config, scaled_machine
    from repro.core.engine import FastBFSEngine
    from repro.engines import session as sessions
    from repro.graph import datasets

    outcome = Outcome()
    setups = []
    for _ in range(1 if trace else scale.setup_repeats):
        start = time.perf_counter()
        graph = datasets.build_dataset(
            "rmat25", divisor=scale.batch_divisor, seed=seed, cache=False)
        machine = scaled_machine(divisor=scale.batch_divisor)
        engine = FastBFSEngine(scaled_fastbfs_config(scale.batch_divisor, threads=4))
        staged = engine.stage(graph, machine)
        checkpoint = machine.checkpoint()
        setups.append(time.perf_counter() - start)

    rng = np.random.default_rng(seed)
    root_sets = [
        [int(r) for r in sample_roots(graph, scale.batch_roots, seed=rng)]
        for _ in range(scale.batch_sets)
    ]
    checker = BFSChecker(graph)
    answers = Answers(outcome)
    wrong_sets: set = set()
    sims: List[float] = []
    sizes: List[int] = []
    times: List[float] = []
    inputs: List[int] = []

    def op(i: int) -> float:
        k = i % len(root_sets)
        roots = root_sets[k]
        start = time.perf_counter()
        batch = sessions.run_staged_queries(
            engine, staged, checkpoint, roots, mode="batched")
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        inputs.append(k)
        fingerprint = (
            tuple(digest(q.levels, q.parents) for q in batch.queries),
            report_key(batch.queries[0].report),
        )
        if answers.add(k, fingerprint):
            # First answer for this root set: validate every query (outside
            # the timed call); repeats must be bit-identical to it.
            sims.append(sum(batch.batch_times))
            sizes.extend(q.levels.nbytes + q.parents.nbytes for q in batch.queries)
            for root, q in zip(roots, batch.queries):
                problem = checker.check(root, q.levels, q.parents)
                if problem is not None:
                    wrong_sets.add(k)
                    outcome.fail(f"root {root}: {problem}")
        return elapsed

    if trace:
        op(0)  # warm-up; also the validated first answer
        untraced_s = op(0)
        outcome.attempted = 2 + _traced_loop(
            outcome, seconds, len(root_sets), op, untraced_s)
        outcome.failed = answers.bad_ops + sum(k in wrong_sets for k in inputs)
        return outcome

    run_cycles(len(root_sets), seconds, op)
    rss = peak_rss_mb()
    outcome.notes["op_times_s"] = [round(t, 4) for t in times]
    outcome.attempted = len(times)
    outcome.failed = answers.bad_ops + sum(k in wrong_sets for k in inputs)
    outcome.metrics.update({
        "setup_s": median(setups),
        "op_s": median(times),
        "queries_per_s": len(times) * scale.batch_roots / sum(times),
        "sim_s_per_query": sum(sims) / (len(sims) * scale.batch_roots),
        "resp_kb": sum(sizes) / len(sizes) / 1024.0,
        "peak_rss_mb": rss,
    })
    return outcome

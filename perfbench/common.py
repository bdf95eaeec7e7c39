"""Shared pieces of the host-cost benchmark: results, timing loop, host facts."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: End-to-end metrics (tracing off), with units; every workload reports all.
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "queries_per_s": "1/s",
    "sim_s_per_query": "s",
    "resp_kb": "KiB",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}

#: Per-layer metrics (traced run), with units; every workload reports all.
#: ``*_s`` self times are seconds per operation, ``*_ms`` milliseconds per
#: request (``serve.flush_ms``: per flush), counts are per operation.
PER_LAYER = {
    "graph.build_s": "s",
    "graph.edges": "count",
    "engines.stage_s": "s",
    "engines.query_self_s": "s",
    "engines.iterations": "count",
    "engines.edges_scanned": "count",
    "core.staystream_s": "s",
    "core.stay_cancelled": "count",
    "algorithms.scatter_s": "s",
    "algorithms.gather_s": "s",
    "algorithms.batched_scatter_s": "s",
    "algorithms.batched_gather_s": "s",
    "algorithms.kernel_calls": "count",
    "bits.popcount_s": "s",
    "bits.popcount_calls": "count",
    "bits.popcount_masks": "count",
    "storage.stream_s": "s",
    "storage.seal_s": "s",
    "storage.seal_calls": "count",
    "storage.submit_s": "s",
    "storage.device_requests": "count",
    "storage.restore_s": "s",
    "storage.bytes_read": "B",
    "storage.bytes_written": "B",
    "obs.flush_telemetry_ms": "ms",
    "obs.spans_per_flush": "count",
    "serve.parse_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.flush_ms": "ms",
    "serve.flush_size": "count",
    "serve.encode_ms": "ms",
    "serve.sssp_ms": "ms",
    "serve.wire_ms": "ms",
    "serve.flush_retries": "count",
    "serve.serial_fallbacks": "count",
    "trace.total_s": "s",
    "trace.other_s": "s",
    "trace.overhead": "ratio",
}

#: Count metrics that must repeat exactly across traced runs of one seed.
DETERMINISTIC_COUNTS = (
    "graph.edges",
    "engines.iterations",
    "engines.edges_scanned",
    "core.stay_cancelled",
    "algorithms.kernel_calls",
    "bits.popcount_calls",
    "bits.popcount_masks",
    "storage.seal_calls",
    "storage.device_requests",
    "storage.bytes_read",
    "storage.bytes_written",
)

#: Self-time bucket -> (per-layer metric, scale from seconds per op).
#: These metrics plus ``trace.other_s`` (and ``serve.wire_ms`` on the
#: served path) partition ``trace.total_s``.
PARTITION = {
    "graph.build": ("graph.build_s", 1.0),
    "engines.stage": ("engines.stage_s", 1.0),
    "engines.query_self": ("engines.query_self_s", 1.0),
    "core.staystream": ("core.staystream_s", 1.0),
    "algorithms.scatter": ("algorithms.scatter_s", 1.0),
    "algorithms.gather": ("algorithms.gather_s", 1.0),
    "algorithms.batched_scatter": ("algorithms.batched_scatter_s", 1.0),
    "algorithms.batched_gather": ("algorithms.batched_gather_s", 1.0),
    "bits.popcount": ("bits.popcount_s", 1.0),
    "storage.stream": ("storage.stream_s", 1.0),
    "storage.seal": ("storage.seal_s", 1.0),
    "storage.submit": ("storage.submit_s", 1.0),
    "storage.restore": ("storage.restore_s", 1.0),
    "obs.flush_telemetry": ("obs.flush_telemetry_ms", 1000.0),
    "serve.parse": ("serve.parse_ms", 1000.0),
    "serve.queue_wait": ("serve.queue_wait_ms", 1000.0),
    "serve.encode": ("serve.encode_ms", 1000.0),
}


class BenchError(Exception):
    """The benchmark could not run (not a wrong answer)."""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def run_cycles(cycle_len: int, seconds: float, op: Callable[[int], object]) -> None:
    """Call ``op(i)`` for i = 0, 1, ... until ``seconds`` of wall time passed.

    Stops only at a multiple of ``cycle_len`` (at least one cycle), so every
    input of the cycle ran equally often and per-cycle counts are exact.
    """
    start = time.perf_counter()
    i = 0
    while True:
        op(i)
        i += 1
        if i % cycle_len == 0 and time.perf_counter() - start >= seconds:
            return


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of ``pid`` (default: this process), MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raise BenchError(f"cannot read peak RSS of process {pid}")


def digest(*arrays) -> str:
    """Stable fingerprint of result arrays (bytes + dtype + shape)."""
    h = hashlib.sha1()
    for arr in arrays:
        h.update(str((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def report_key(report) -> str:
    """Canonical text of an IOReport, for bit-identity comparisons."""
    return json.dumps(report.to_dict(), sort_keys=True)


def calibration() -> Dict[str, object]:
    """Host record printed with every run (informational, never gated)."""
    import numpy as np

    rng = np.random.default_rng(12345)
    data = rng.random(1 << 20)
    keys = rng.integers(0, 1 << 16, size=1 << 20)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        np.sort(data)
        np.bincount(keys, minlength=1 << 16)
        np.unique(keys)
        times.append(time.perf_counter() - start)
    return {
        "calib_loop_s": round(median(times), 6),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
    }


def layer_metrics(snapshot: dict, ops: int, total_s: float, wire_s: float = 0.0,
                  extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Per-layer metrics from a :class:`layers.Recorder` snapshot.

    ``total_s`` is the traced time per operation; the self-time buckets
    plus ``wire_s`` (client latency outside the handler) plus
    ``trace.other_s`` add up to it.
    """
    self_s = snapshot["self_s"]
    counts = snapshot["counts"]
    incl = snapshot["incl_s"]
    out = {name: 0.0 for name in PER_LAYER}
    named = 0.0
    for bucket, (metric, scale) in PARTITION.items():
        per_op = self_s.get(bucket, 0.0) / ops
        named += per_op
        out[metric] = per_op * scale
    for name in DETERMINISTIC_COUNTS:
        out[name] = counts.get(name, 0) / ops
    flushes = counts.get("obs.flushes", 0)
    out["obs.spans_per_flush"] = counts.get("obs.spans", 0) / flushes if flushes else 0.0
    for name in ("serve.flush", "serve.sssp"):
        calls = counts.get(name + ".calls", 0)
        out[name + "_ms"] = 1000.0 * incl.get(name, 0.0) / calls if calls else 0.0
    out["serve.wire_ms"] = 1000.0 * wire_s
    out["trace.total_s"] = total_s
    out["trace.other_s"] = total_s - named - wire_s
    if extra:
        out.update(extra)
    return out

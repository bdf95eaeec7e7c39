"""Per-layer host-time attribution by wrapping the program's public calls.

Nothing here edits the program: :func:`install` replaces module and class
attributes with timing wrappers and returns a handle whose ``uninstall()``
puts every original object back.  Each wrapper is a span on a per-thread
stack; its *self* time (duration minus the time of spans nested inside
it) is charged to one layer bucket, so the buckets of one thread
partition the wrapped time exactly.  Time in no span, and the
self time of the HTTP handler's own routing (bucket ``other``), is the
residual ``trace.other_s``.

Counters (edges built, device requests, bytes, kernel calls, ...) are
collected at the same boundaries from arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

class Recorder:
    """Thread-safe accumulator of span self times, inclusive times, counts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] += int(value)

    def record(self, bucket: str, self_time: float,
               inclusive: Optional[str], duration: float) -> None:
        with self._lock:
            self.self_s[bucket] += self_time
            if inclusive is not None:
                self.incl_s[inclusive] += duration
                self.counts[inclusive + ".calls"] += 1

    def timed(self, fn: Callable, bucket: str, inclusive: Optional[str] = None,
              after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped as a span charged to ``bucket``.

        ``inclusive`` also accumulates the span's whole duration under that
        name; ``after(recorder, args, kwargs, result)`` collects counters.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                recorder.record(bucket, duration - children, inclusive, duration)
            if after is not None:
                after(recorder, args, kwargs, out)
            return out

        return wrapper

    def span_time(self, bucket: str, duration: float) -> None:
        """Charge an externally timed interval (e.g. a lock wait) as a span."""
        stack = self._stack()
        if stack:
            stack[-1] += duration
        self.record(bucket, duration, None, duration)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s),
                "counts": dict(self.counts),
            }

    def reset(self) -> None:
        with self._lock:
            self.self_s.clear()
            self.incl_s.clear()
            self.counts.clear()


# ----------------------------------------------------------------------
# counters collected at span exit
# ----------------------------------------------------------------------
def _count_graph(rec, args, kwargs, graph):
    rec.count("graph.edges", graph.num_edges)


def _count_query(rec, args, kwargs, result):
    rec.count("engines.iterations", len(result.iterations))
    rec.count("engines.edges_scanned", result.edges_scanned)


def _count_batch(rec, args, kwargs, results):
    session = args[0]
    rec.count("engines.iterations", len(session.shared_iterations))
    rec.count("engines.edges_scanned",
              sum(it.edges_scanned for it in session.shared_iterations))


def _count_kernel(rec, args, kwargs, out):
    rec.count("algorithms.kernel_calls")


def _count_popcount(rec, args, kwargs, out):
    rec.count("bits.popcount_calls")
    rec.count("bits.popcount_masks", len(args[0]))


def _count_submit(rec, args, kwargs, req):
    # Device.submit(self, submit_time, kind, nbytes, ...)
    kind = kwargs.get("kind", args[2] if len(args) > 2 else None)
    nbytes = kwargs.get("nbytes", args[3] if len(args) > 3 else 0)
    rec.count("storage.device_requests")
    rec.count("storage.bytes_read" if kind == "read" else "storage.bytes_written",
              nbytes)


def _count_seal(rec, args, kwargs, out):
    rec.count("storage.seal_calls")


def _count_cancel(rec, args, kwargs, out):
    rec.count("core.stay_cancelled")


def _count_spans(rec, args, kwargs, out):
    # CounterRegistry.ingest_spans(self, source, ...): one call per flush or
    # serial execution on the served path.
    source = args[1] if len(args) > 1 else kwargs.get("source")
    spans = getattr(source, "spans", source)
    rec.count("obs.flushes")
    rec.count("obs.spans", len(spans) if spans is not None else 0)


# (module, class or None, attribute, bucket, inclusive metric, counter)
_TARGETS: Tuple[tuple, ...] = (
    # graph: dataset builder and the generators it calls
    ("repro.graph.datasets", None, "build_dataset", "graph.build", None, _count_graph),
    ("repro.graph.datasets", None, "rmat_graph", "graph.build", None, None),
    ("repro.graph.datasets", None, "powerlaw_graph", "graph.build", None, None),
    ("repro.graph.datasets", None, "attach_whiskers", "graph.build", None, None),
    # engines: staging, query sessions, the staged-query runner
    ("repro.engines.base", "EdgeCentricEngine", "stage", "engines.stage", None, None),
    ("repro.engines.base", "EdgeCentricEngine", "run", "engines.query_self", None, None),
    ("repro.engines.session", "QuerySession", "run", "engines.query_self", None,
     _count_query),
    ("repro.engines.session", "BatchedQuerySession", "run", "engines.query_self",
     None, _count_batch),
    ("repro.engines.session", None, "run_staged_queries", "engines.query_self",
     None, None),
    ("repro.serve.admission", None, "run_staged_queries", "engines.query_self",
     None, None),
    ("repro.serve.app", None, "run_staged_queries", "engines.query_self", None, None),
    # core: the FastBFS stay-stream manager
    ("repro.core.staystream", "StayStreamManager", "resolve_input",
     "core.staystream", None, None),
    ("repro.core.staystream", "StayStreamManager", "open", "core.staystream", None,
     None),
    ("repro.core.staystream", "StayStreamManager", "append", "core.staystream",
     None, None),
    ("repro.core.staystream", "StayStreamManager", "finish_partition",
     "core.staystream", None, None),
    ("repro.core.staystream", "StayStreamManager", "discard_all", "core.staystream",
     None, None),
    ("repro.core.staystream", "StayStreamManager", "finalize", "core.staystream",
     None, None),
    ("repro.core.staystream", "StayStreamManager", "_cancel", "core.staystream",
     None, _count_cancel),
    # algorithms: serial BFS/SSSP kernels and the batched MS-BFS kernel
    ("repro.algorithms.streaming", "BFSAlgorithm", "scatter", "algorithms.scatter",
     None, _count_kernel),
    ("repro.algorithms.streaming", "BFSAlgorithm", "gather", "algorithms.gather",
     None, _count_kernel),
    ("repro.algorithms.sssp", "WeightedSSSPAlgorithm", "scatter",
     "algorithms.scatter", None, _count_kernel),
    ("repro.algorithms.sssp", "WeightedSSSPAlgorithm", "gather", "algorithms.gather",
     None, _count_kernel),
    ("repro.algorithms.streaming", "BatchedBFSAlgorithm", "scatter",
     "algorithms.batched_scatter", None, _count_kernel),
    ("repro.algorithms.streaming", "BatchedBFSAlgorithm", "gather",
     "algorithms.batched_gather", None, _count_kernel),
    # utils.bits: popcount primitives, wherever they were imported by name
    ("repro.utils.bits", None, "popcount64", "bits.popcount", None, _count_popcount),
    ("repro.utils.bits", None, "mask_bit_counts", "bits.popcount", None,
     _count_popcount),
    ("repro.algorithms.streaming", None, "popcount64", "bits.popcount", None,
     _count_popcount),
    ("repro.algorithms.streaming", None, "mask_bit_counts", "bits.popcount", None,
     _count_popcount),
    ("repro.engines.costs", None, "popcount64", "bits.popcount", None,
     _count_popcount),
    # storage: streams, VFS, device submit, checkpoint restore
    ("repro.storage.streams", "StreamReader", "__next__", "storage.stream", None,
     None),
    ("repro.storage.streams", "StreamWriter", "append", "storage.stream", None, None),
    ("repro.storage.streams", "StreamWriter", "flush", "storage.stream", None, None),
    ("repro.storage.streams", "StreamWriter", "drain", "storage.stream", None, None),
    ("repro.storage.streams", "StreamWriter", "close", "storage.stream", None, None),
    ("repro.storage.streams", "AsyncStreamWriter", "append", "storage.stream", None,
     None),
    ("repro.storage.streams", "AsyncStreamWriter", "cancel", "storage.stream", None,
     None),
    ("repro.storage.vfs", "VirtualFile", "append_records", "storage.stream", None,
     None),
    ("repro.storage.vfs", "VirtualFile", "read_records", "storage.stream", None,
     None),
    ("repro.storage.vfs", "VirtualFile", "seal", "storage.seal", None, _count_seal),
    ("repro.storage.device", "Device", "submit", "storage.submit", None,
     _count_submit),
    ("repro.storage.machine", "Machine", "restore", "storage.restore", None, None),
    # obs: per-flush telemetry ingestion and the service-wide merge
    ("repro.obs.counters", "CounterRegistry", "from_report", "obs.flush_telemetry",
     None, None),
    ("repro.obs.counters", "CounterRegistry", "ingest_result", "obs.flush_telemetry",
     None, None),
    ("repro.obs.counters", "CounterRegistry", "ingest_spans", "obs.flush_telemetry",
     None, _count_spans),
    ("repro.serve.app", "GraphService", "_merge_metrics", "obs.flush_telemetry",
     None, None),
    # serve: HTTP handler, query dispatch, admission, encode
    ("repro.serve.app", "_Handler", "do_POST", "other", "serve.handler", None),
    ("repro.serve.app", "_Handler", "_read_json", "serve.parse", None, None),
    ("repro.serve.app", "_Handler", "_send_json", "serve.encode", None, None),
    ("repro.serve.app", "GraphService", "handle_query", "serve.encode", None, None),
    ("repro.serve.app", "GraphService", "_handle_serial", "serve.encode",
     "serve.sssp", None),
    ("repro.serve.admission", "AdmissionController", "submit", "serve.queue_wait",
     None, None),
    ("repro.serve.admission", "AdmissionController", "flush", "serve.queue_wait",
     None, None),
    ("repro.serve.admission", "AdmissionController", "_execute", "serve.queue_wait",
     "serve.flush", None),
)


class Installation:
    """The patched attributes of one :func:`install`; undo with uninstall()."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def install(recorder: Recorder) -> Installation:
    """Wrap every target in :data:`_TARGETS`; returns the undo handle."""
    inst = Installation()
    try:
        for module_name, cls_name, attr, bucket, inclusive, after in _TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(
                    recorder.timed(raw.__func__, bucket, inclusive, after))
            else:
                replacement = recorder.timed(raw, bucket, inclusive, after)
            inst.patch(owner, attr, replacement)
    except BaseException:
        inst.uninstall()
        raise
    return inst


class TimedLock:
    """Lock proxy that charges the wait to acquire to ``serve.queue_wait``.

    Installed over a registered graph's entry lock so time a request spends
    blocked behind another execution is attributed as queueing, not as the
    work of the span that happened to be waiting.
    """

    def __init__(self, lock, recorder: Recorder) -> None:
        self._lock = lock
        self._recorder = recorder

    def acquire(self, *args, **kwargs):
        start = time.perf_counter()
        got = self._lock.acquire(*args, **kwargs)
        self._recorder.span_time("serve.queue_wait", time.perf_counter() - start)
        return got

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

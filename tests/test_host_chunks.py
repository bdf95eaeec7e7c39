"""Host chunks vs simulated buffers: chunked kernels, per-buffer results.

The engines run each kernel once per host chunk of whole stream buffers
and replay every buffer's simulated work (reads, charges, stay and update
appends) from per-chunk prefix sums.  These tests run every kernel through
the chunked engine and through a per-buffer oracle — the engines with the
one-kernel-call-per-buffer loops restored below — and require the outputs,
the full ``IOReport``, every ``IterationStats`` field, the span trace, the
machine counters and the batched per-query demux to be identical, over
chunk sizes that cut files at every kind of boundary: files shorter than
one buffer, exact multiples of the chunk, ragged tails, several
partitions, and a crash inside a chunk followed by ``recover()``.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engines.base as engine_base
from repro.algorithms.pagerank import PageRankAlgorithm
from repro.algorithms.sssp import WeightedSSSPAlgorithm
from repro.algorithms.streaming import (
    BFSAlgorithm,
    BatchedBFSAlgorithm,
    UnitSSSPAlgorithm,
    WCCAlgorithm,
)
from repro.core.config import FastBFSConfig
from repro.core.engine import FastBFSEngine
from repro.engines.session import QuerySession
from repro.engines.xstream import XStreamEngine
from repro.errors import CrashError
from repro.graph.generators import random_graph
from repro.obs.counters import CounterRegistry
from repro.obs.tracer import Tracer
from repro.storage.faults import FaultPlan, FaultSpec
from repro.storage.machine import Machine
from repro.storage.streams import StreamReader

EDGE_BYTES = 8  # EDGE_DTYPE record
SERIAL_UPDATE_BYTES = 8  # UPDATE_DTYPE record


class PerBufferLoops:
    """The oracle: one kernel call per simulated buffer, each buffer's
    charges and appends made right after its own kernel call."""

    def _scatter_partition(self, rt, p, ctx, stats):
        cfg = self.config
        cm = cfg.cost_model
        machine = rt.machine
        lo, hi = rt.partitioning.range_of(p)
        state_view = rt.state[lo:hi]
        with machine.tracer.span("scatter", partition=p) as sc_span:
            in_file = self._edge_input_file(rt, p, ctx, stats)
            self._pre_partition_scatter(rt, p, ctx)
            reader = StreamReader(
                machine.clock, in_file, cfg.edge_buffer_bytes,
                prefetch=cfg.num_edge_buffers, group=f"edges:p{p}",
                retry=cfg.retry,
            )
            generated = 0
            streamed = 0
            for buf in reader:
                stats.edges_scanned += len(buf)
                streamed += len(buf)
                cm.charge(machine.clock, "scatter", cm.scatter_per_edge,
                          len(buf), cfg.threads, machine.cores)
                src_local = buf["src"].astype(np.int64) - lo
                updates, _, eliminate = rt.algo.scatter(
                    ctx, state_view, src_local, buf["src"], buf["dst"]
                )
                keep = self._surviving_edges(rt, p, state_view, src_local, eliminate)
                if keep is not None:
                    survivors = buf[keep]
                    self._on_scatter_buffer(
                        rt, p, survivors, len(buf) - len(survivors), stats
                    )
                if len(updates):
                    weights = rt.algo.update_weights(updates)
                    weight = len(updates) if weights is None else int(weights.sum())
                    cm.charge(machine.clock, "shuffle", cm.shuffle_per_update,
                              weight, cfg.threads, machine.cores)
                    for j, (_, part) in rt.partitioning.split_by_partition(
                        updates["dst"], updates
                    ):
                        rt.update_writers[j].append(part)
                    generated += len(updates)
            state_view["active"][:] = 0
            rt.algo.after_partition_scatter(ctx, state_view)
            self._post_partition_scatter(rt, p, ctx)
            sc_span.set(edges_streamed=streamed, updates_produced=generated)
        return generated

    def _gather_partition(self, rt, p, ctx, update_file):
        cfg = self.config
        cm = cfg.cost_model
        machine = rt.machine
        lo, hi = rt.partitioning.range_of(p)
        state_view = rt.state[lo:hi]
        with machine.tracer.span("gather", partition=p) as g_span:
            reader = StreamReader(
                machine.clock, update_file, cfg.update_buffer_bytes,
                prefetch=cfg.num_edge_buffers, group=f"updates:p{p}",
                retry=cfg.retry,
            )
            activated = 0
            gathered = 0
            for buf in reader:
                gathered += len(buf)
                weights = rt.algo.update_weights(buf)
                weight = len(buf) if weights is None else int(weights.sum())
                cm.charge(machine.clock, "gather", cm.gather_per_update,
                          weight, cfg.threads, machine.cores)
                dst_local = buf["dst"].astype(np.int64) - lo
                activated += rt.algo.gather(
                    ctx, state_view, dst_local, rt.algo.gather_payload(buf)
                )
            g_span.set(updates_gathered=gathered, activated=activated)
        return activated


class PerBufferFastBFS(PerBufferLoops, FastBFSEngine):
    pass


class PerBufferXStream(PerBufferLoops, XStreamEngine):
    pass


ENGINES = {
    "fastbfs": (FastBFSEngine, PerBufferFastBFS),
    "x-stream": (XStreamEngine, PerBufferXStream),
}


@contextlib.contextmanager
def chunk_records(n):
    saved = engine_base.HOST_CHUNK_RECORDS
    engine_base.HOST_CHUNK_RECORDS = n
    try:
        yield
    finally:
        engine_base.HOST_CHUNK_RECORDS = saved


def _array_key(arr):
    arr = np.asarray(arr)
    return (arr.dtype.str, arr.shape, arr.tobytes())


def result_key(r):
    return (
        r.engine,
        r.algorithm,
        sorted((k, _array_key(v)) for k, v in r.output.items()),
        r.report,
        r.iterations,
        sorted(r.extras.items()),
    )


def machine_key(machine):
    spans = [(s.name, s.start, s.end, sorted(s.attrs.items()))
             for s in machine.tracer.spans]
    return spans, CounterRegistry.from_machine(machine).as_dict()


def fresh_machine():
    machine = Machine.commodity_server(memory="64MB")
    machine.attach_tracer(Tracer())
    return machine


def make_algorithm(name, graph):
    if name == "bfs":
        return BFSAlgorithm()
    if name == "unit-sssp":
        return UnitSSSPAlgorithm()
    if name == "wcc":
        return WCCAlgorithm()
    if name == "sssp":
        return WeightedSSSPAlgorithm()
    return PageRankAlgorithm(graph.out_degrees())


def run_both(engine_name, graph, config, chunk, run):
    """``run(engine, machine)`` through the chunked engine and the oracle;
    returns both (outcome, machine state) pairs."""
    chunked_cls, oracle_cls = ENGINES[engine_name]
    out = []
    for cls in (chunked_cls, oracle_cls):
        machine = fresh_machine()
        with chunk_records(chunk):
            outcome = run(cls(config), machine)
        out.append((outcome, machine_key(machine)))
    return out


@st.composite
def layouts(draw, update_record_bytes):
    """Engine config plus a host chunk size: buffers of 1..64 records,
    chunks from one buffer up to the shipped constant."""
    edge_rpb = draw(st.sampled_from([1, 2, 3, 8, 64]))
    update_rpb = draw(st.sampled_from([1, 2, 5, 32]))
    chunk = draw(st.sampled_from([1, 4, 6, 16, engine_base.HOST_CHUNK_RECORDS]))
    config = FastBFSConfig(
        threads=draw(st.sampled_from([1, 4])),
        edge_buffer_bytes=edge_rpb * EDGE_BYTES,
        update_buffer_bytes=update_rpb * update_record_bytes,
        num_partitions=draw(st.sampled_from([1, 2, 3])),
        allow_in_memory=draw(st.booleans()),
        extended_trim=draw(st.booleans()),
        stay_buffer_bytes=draw(st.sampled_from([16, 256, 4096])),
    )
    per_chunk = edge_rpb * max(1, -(-chunk // edge_rpb))
    # Exact multiples of the chunk, ragged tails and sub-buffer files.
    num_edges = draw(st.one_of(
        st.integers(0, 400),
        st.sampled_from([per_chunk, 2 * per_chunk, 3 * per_chunk + 1]),
    ))
    return config, chunk, num_edges


HYPOTHESIS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(max_examples=60, **HYPOTHESIS)
@given(
    engine_name=st.sampled_from(sorted(ENGINES)),
    algorithm=st.sampled_from(["bfs", "unit-sssp", "wcc", "sssp", "pagerank"]),
    layout=layouts(SERIAL_UPDATE_BYTES),
    num_vertices=st.integers(1, 120),
    seed=st.integers(0, 2**16),
    root_pick=st.integers(0, 2**16),
)
def test_serial_kernels_match_per_buffer_oracle(
    engine_name, algorithm, layout, num_vertices, seed, root_pick
):
    config, chunk, num_edges = layout
    graph = random_graph(num_vertices, num_edges, seed=seed)
    if algorithm == "wcc":
        graph = graph.symmetrized()
    if algorithm == "pagerank":
        config = config.with_(max_iterations=3)
    root = root_pick % num_vertices

    def run(engine, machine):
        return result_key(engine.run(
            graph, machine, algorithm=make_algorithm(algorithm, graph), root=root
        ))

    chunked, oracle = run_both(engine_name, graph, config, chunk, run)
    assert chunked == oracle


@settings(max_examples=40, **HYPOTHESIS)
@given(
    engine_name=st.sampled_from(sorted(ENGINES)),
    width=st.sampled_from([1, 7, 64]),
    layout=layouts(BatchedBFSAlgorithm(1).update_dtype.itemsize),
    num_vertices=st.integers(1, 120),
    seed=st.integers(0, 2**16),
    root_seed=st.integers(0, 2**16),
)
def test_batched_bfs_matches_per_buffer_oracle(
    engine_name, width, layout, num_vertices, seed, root_seed
):
    config, chunk, num_edges = layout
    graph = random_graph(num_vertices, num_edges, seed=seed)
    rng = np.random.default_rng(root_seed)
    roots = [int(r) for r in rng.integers(0, num_vertices, width)]

    def run(engine, machine):
        batch = engine.run_many(graph, machine, roots, mode="batched")
        return (
            [result_key(q) for q in batch.queries],
            batch.shared_iterations,
            batch.batch_times,
            batch.staging_report,
        )

    chunked, oracle = run_both(engine_name, graph, config, chunk, run)
    assert chunked == oracle


@pytest.mark.parametrize("extra", [0, 37], ids=["exact-multiple", "ragged-tail"])
@pytest.mark.parametrize("width", [None, 64], ids=["serial", "batched64"])
def test_shipped_chunk_size_on_multi_chunk_files(extra, width):
    """The shipped constant on files of two whole chunks, and two chunks
    plus a ragged tail, cut into 16 KB edge buffers (2,048 edges)."""
    chunk = engine_base.HOST_CHUNK_RECORDS
    graph = random_graph(3000, 2 * chunk + extra, seed=5)
    config = FastBFSConfig(edge_buffer_bytes="16KB", update_buffer_bytes="8KB")
    hub = int(np.argmax(graph.out_degrees()))
    roots = [hub] + [int(r) for r in np.arange(63) * 41 % 3000]

    def run(engine, machine):
        if width is None:
            return result_key(engine.run(graph, machine, root=hub))
        batch = engine.run_many(graph, machine, roots[:width], mode="batched")
        return [result_key(q) for q in batch.queries], batch.shared_iterations

    chunked, oracle = run_both("fastbfs", graph, config, chunk, run)
    assert chunked == oracle


def test_kernel_calls_drop_to_one_per_chunk():
    """Scatter runs once per host chunk, not once per simulated buffer."""
    calls = {"scatter": 0}
    graph = random_graph(400, 1000, seed=3)
    config = FastBFSConfig(edge_buffer_bytes=10 * EDGE_BYTES, num_partitions=1,
                           allow_in_memory=False)

    class CountingBFS(BFSAlgorithm):
        def scatter(self, *args):
            calls["scatter"] += 1
            return super().scatter(*args)

    hub = int(np.argmax(graph.out_degrees()))
    with chunk_records(100):  # 10 buffers of 10 edges per chunk
        result = FastBFSEngine(config).run(
            graph, fresh_machine(), algorithm=CountingBFS(), root=hub
        )
    scanned = sum(it.edges_scanned for it in result.iterations)
    buffers = sum(-(-it.edges_scanned // 10) for it in result.iterations)
    assert buffers > calls["scatter"] >= -(-scanned // 100)


def _crash_run(engine_cls, graph, config, root, crash_index, chunks):
    """Stage clean, attach torn stay writes plus one crash, run, recover.

    Returns the outcome to compare and whether the crash interrupted a
    chunk's replay (read off ``chunks``, the chunked engine's log of
    ``(reader, buffers read at the chunk's start, buffers in the chunk)``).
    """
    machine = fresh_machine()
    engine = engine_cls(config)
    staged = engine.stage(graph, machine)
    machine.attach_fault_plan(FaultPlan(
        specs=(
            FaultSpec(kind="torn_write", role="stay", probability=0.5),
            FaultSpec(kind="crash", after_index=crash_index, max_fires=1),
        ),
        seed=11,
    ))
    session = QuerySession(engine, staged, algorithm=BFSAlgorithm())
    crashed_at = None
    inside = False
    try:
        result = session.run(root=root)
    except CrashError:
        crashed_at = machine.clock.now
        if chunks:
            reader, start, buffers = chunks[-1]
            inside = 0 < reader.buffers_read - start < buffers
        result = session.recover()
    counts = machine.fault_injector.counts_snapshot()
    outcome = (crashed_at, result_key(result), sorted(counts.items()),
               machine_key(machine))
    return outcome, inside


def test_crash_inside_a_chunk_recovers_like_the_oracle(monkeypatch):
    """Torn stay writes plus a crash at a range of device requests: the
    crash time, the recovered result and the trace match the per-buffer
    oracle, and at least one crash lands inside a chunk's replay."""
    graph = random_graph(300, 2500, seed=9)
    config = FastBFSConfig(
        edge_buffer_bytes=16 * EDGE_BYTES, update_buffer_bytes=8 * EDGE_BYTES,
        stay_buffer_bytes=64, num_partitions=2, allow_in_memory=False,
    )
    hub = int(np.argmax(graph.out_degrees()))
    original = StreamReader.host_chunks
    chunks = []

    def logged_host_chunks(reader, min_records):
        for records, cuts, buffers in original(reader, min_records):
            chunks.append((reader, reader.buffers_read, len(cuts) - 1))
            yield records, cuts, buffers

    monkeypatch.setattr(StreamReader, "host_chunks", logged_host_chunks)
    inside = 0
    for crash_index in range(5, 400, 23):
        chunks.clear()
        with chunk_records(64):  # 4 edge buffers, 8 update buffers a chunk
            chunked, crashed_inside = _crash_run(
                FastBFSEngine, graph, config, hub, crash_index, chunks)
            oracle, _ = _crash_run(
                PerBufferFastBFS, graph, config, hub, crash_index, [])
        assert chunked[0] is not None, "the crash must fire"
        assert chunked == oracle
        inside += crashed_inside
    assert inside > 0

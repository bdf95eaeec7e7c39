"""Shared edge-centric BSP scaffolding (the X-Stream execution model).

One engine run executes an algorithm (BFS by default) as a sequence of
scatter/gather iterations over streaming partitions (paper §II-A):

1. an initial pass splits the raw edge list into per-partition out-edge
   files (a single sequential read + sequential writes — the "no expensive
   preprocessing" property);
2. iteration 0 is a pure scatter pass; every later pass merges "gather of
   iteration i" with "scatter of iteration i+1" per partition so each
   partition's vertex set is read once per pass (the staging optimization
   FastBFS inherits from X-Stream, §III);
3. updates are shuffled into per-destination-partition update files using
   two alternating stream sets (in/out parity, §III), with a drain barrier
   before the pass that consumes them;
4. when the whole working set fits the memory budget the run switches to
   in-memory mode: the input is read from disk once and every stream lives
   on the RAM pseudo-device (the Fig. 9 cliff).

Host chunks vs simulated buffers: the stream buffer is the simulated I/O
unit, but the kernels run once per *host chunk* — the whole buffers that
cover at least :data:`HOST_CHUNK_RECORDS` records.  Each buffer's simulated
work (its read and iowait, its scatter/trim/shuffle/gather charges, its
stay and update appends) is then replayed in the original order from
per-chunk prefix sums, so clocks, device timelines and files are exactly
those of a per-buffer loop.  Gather chunks only for kernels that declare
``chunked_gather``; label-correcting kernels gather buffer by buffer.

Subclass hooks (``_should_process_partition``, ``_edge_input_file``,
``_surviving_edges``, ``_on_scatter_buffer``, ``_post_partition_scatter``,
...) are where FastBFS adds trimming, cancellation and selective scheduling
without duplicating the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.algorithms.state import VertexState
from repro.algorithms.streaming import (
    AlgoContext,
    BFSAlgorithm,
    StreamingAlgorithm,
)
from repro.engines.costs import CostModel
from repro.engines.result import EngineResult, IterationStats
from repro.errors import ConfigError, EngineError
from repro.graph.graph import Graph
from repro.graph.partition import VertexPartitioning, plan_partition_count
from repro.sim.timeline import ScheduledRequest
from repro.storage.device import Device
from repro.storage.faults import RetryPolicy, submit_with_retry
from repro.storage.machine import Machine
from repro.storage.streams import StreamReader, StreamWriter
from repro.storage.vfs import VirtualFile
from repro.utils.units import KB, parse_bytes

#: Records per host chunk (at least; chunks hold whole buffers).  Large
#: enough to amortize the fixed cost of a numpy kernel call over many small
#: simulated buffers; bounded because BFS-style gathers filter against the
#: visited set between chunks, and one whole-partition gather loses that
#: filtering (measured about 2x slower on 64-query batches).
HOST_CHUNK_RECORDS = 8192


def _running_totals(weights: Optional[np.ndarray], cuts: np.ndarray) -> List[int]:
    """Running total of ``weights`` at each record offset in ``cuts``.

    ``weights`` is one value per record (a boolean mask counts its set
    entries), or None for one unit per record.  Differences of consecutive
    totals are the per-buffer sums the simulated charges replay.
    """
    if weights is None:
        return cuts.tolist()
    totals = np.zeros(len(weights) + 1, dtype=np.int64)
    np.cumsum(weights, out=totals[1:])
    return totals[cuts].tolist()


@dataclass
class EngineConfig:
    """Runtime knobs shared by the streaming engines.

    Sizes accept ints or strings ("64KB").  Defaults are pre-scaled for the
    reduced-scale reproduction datasets (see ``repro.analysis.calibration``
    for the scaling rules that map them back to the paper's values).
    """

    threads: int = 4
    #: Size of one edge streaming buffer (paper: chosen for sequential BW).
    edge_buffer_bytes: Union[int, str] = 64 * KB
    #: Number of edge buffers = read prefetch depth (paper §III).
    num_edge_buffers: int = 2
    #: Size of one update stream buffer.
    update_buffer_bytes: Union[int, str] = 32 * KB
    #: Fraction of working memory available for one partition's vertex set.
    vertex_memory_fraction: float = 0.25
    #: Override the planned partition count (None = derive from memory).
    num_partitions: Optional[int] = None
    #: Cap on scatter passes (None = run to convergence).  Fixed-round
    #: algorithms like PageRank set this; the final gather still runs.
    max_iterations: Optional[int] = None
    #: Allow switching to in-memory mode when the working set fits RAM.
    allow_in_memory: bool = True
    #: Working set estimate = in_memory_factor * edge bytes + vertex bytes.
    #: The factor covers input and output edge streams, both update stream
    #: sets, stream buffers and allocator slack; 6x edge bytes reproduces the
    #: paper's Fig. 9 behaviour (rmat22 fits at 4GB, not at 2GB).
    in_memory_factor: float = 6.0
    #: Disk index for edge/stay files (clamped to available disks).
    edge_disk: int = 0
    #: Disk index for update files.
    update_disk: int = 0
    #: Disk index for vertex set files.
    vertex_disk: int = 0
    cost_model: CostModel = field(default_factory=CostModel)
    #: Install the runtime sanitizer for this run (repro.tooling.sanitizer):
    #: VFS leak detection, clock monotonicity, stay-writer state machine and
    #: cost-charge coverage.  Violations raise SanitizerError at end of run.
    sanitize: bool = False
    #: Stream-layer recovery from transient I/O faults: bounded retries
    #: with simulated-clock backoff (see repro.storage.faults.RetryPolicy).
    #: Only matters when the machine carries a fault plan — fault-free
    #: runs never enter the retry loop.
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        self.edge_buffer_bytes = parse_bytes(self.edge_buffer_bytes)
        self.update_buffer_bytes = parse_bytes(self.update_buffer_bytes)
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.num_edge_buffers < 1:
            raise ConfigError("num_edge_buffers must be >= 1")
        if self.edge_buffer_bytes <= 0 or self.update_buffer_bytes <= 0:
            raise ConfigError("buffer sizes must be positive")
        if self.num_partitions is not None and self.num_partitions < 1:
            raise ConfigError("num_partitions must be >= 1")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not 0 < self.vertex_memory_fraction <= 1:
            raise ConfigError("vertex_memory_fraction must be in (0, 1]")
        if self.in_memory_factor < 1.0:
            raise ConfigError("in_memory_factor must be >= 1")
        for name in ("edge_disk", "update_disk", "vertex_disk"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")

    def with_(self, **kwargs) -> "EngineConfig":
        """Copy with some fields replaced (sweep helper)."""
        return replace(self, **kwargs)


class _RunState:
    """Mutable per-query bundle so engines stay reusable across queries.

    This is session-internal state: outside the ``engines``/``core``
    subsystems nothing may construct one or poke at an engine's ``_rt``
    (static-checker rule FB107) — go through ``engine.run()`` /
    ``engine.run_many()`` or a :class:`~repro.engines.session.QuerySession`.
    """

    def __init__(self) -> None:
        self.graph: Graph = None  # type: ignore[assignment]
        self.machine: Machine = None  # type: ignore[assignment]
        self.algo: StreamingAlgorithm = None  # type: ignore[assignment]
        self.state: VertexState = None  # type: ignore[assignment]
        self.partitioning: VertexPartitioning = None  # type: ignore[assignment]
        self.in_memory = False
        self.dev_edges: Device = None  # type: ignore[assignment]
        self.dev_updates: Device = None  # type: ignore[assignment]
        self.dev_vertices: Device = None  # type: ignore[assignment]
        self.edge_files: List[VirtualFile] = []
        self.vertex_files: List[VirtualFile] = []
        self.update_in: List[Optional[VirtualFile]] = []
        self.update_writers: List[StreamWriter] = []
        self.pending_vertex_writes: List[ScheduledRequest] = []
        self.iterations: List[IterationStats] = []
        self.extras: Dict[str, float] = {}
        #: Staged-artifact file names this query must not delete/displace
        #: (empty in the monolithic run() path).
        self.protected_files: frozenset = frozenset()
        # FastBFS session state (attached by FastBFSEngine._before_run;
        # declared here so the per-query ownership is explicit).
        self.stay = None  # StayStreamManager
        self.trim_policy = None  # TrimPolicy
        self.trim_active_iteration = -1
        self.trim_active = False


class EdgeCentricEngine:
    """X-Stream-style scatter/gather engine; subclass hooks add FastBFS."""

    name = "edge-centric"

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config if config is not None else EngineConfig()
        self._rt: Optional[_RunState] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(
        self,
        graph: Graph,
        machine: Machine,
        algorithm: Optional[StreamingAlgorithm] = None,
        root: int = 0,
        roots: Optional[Sequence[int]] = None,
    ) -> EngineResult:
        """Execute ``algorithm`` (default BFS from ``root``) on ``machine``.

        The machine must be fresh (zero clock, empty VFS) so the report
        covers exactly this run.  Internally this is ``stage()`` plus one
        :class:`~repro.engines.session.QuerySession` in monolithic mode
        (staged files are consumed by the query, the report is cumulative) —
        bit-for-bit identical to the historical single-phase pipeline.  For
        several traversals of one graph use :meth:`run_many`.
        """
        from repro.engines.session import QuerySession

        algo = algorithm if algorithm is not None else BFSAlgorithm()
        self._check_fresh(machine)
        sanitizer = self._ensure_sanitizer(machine)
        validated = algo.validate_roots(
            graph.num_vertices, roots if roots is not None else [root]
        )
        staged = self.stage(graph, machine, algorithm=algo)
        session = QuerySession(
            self, staged, algorithm=algo,
            protect_staged=False, cumulative_report=True,
        )
        result = session.run(root=root, roots=roots, validated_roots=validated)
        if sanitizer is not None:
            result.extras["sanitizer_past_waits"] = float(sanitizer.past_waits)
            sanitizer.finalize_run()
            result.extras["sanitizer_violations"] = float(
                len(sanitizer.violations)
            )
        return result

    def run_many(
        self,
        graph: Graph,
        machine: Machine,
        roots: Sequence,
        algorithm: Optional[StreamingAlgorithm] = None,
        mode: str = "serial",
    ):
        """Run one query per entry of ``roots``, staging the graph once.

        Each entry is a root vertex (or a sequence of roots for a
        multi-source query).  The graph is staged once; every root entry is
        validated up front (once — the sessions reuse the validated
        arrays), so a bad query fails before any machine state changes.

        ``mode="serial"`` (default, bit-for-bit the historical behaviour):
        between queries the machine is rewound to the post-staging
        checkpoint, so every query starts from an identical clock/VFS/
        device state and its report covers only that query.

        ``mode="batched"``: entries are packed into MS-BFS batches of up to
        :data:`~repro.algorithms.streaming.BATCH_WIDTH` queries, each batch
        advanced by one shared scatter/gather timeline (one edge scan for
        the whole batch) and demultiplexed into per-query results that are
        bit-identical to the serial ones.  The machine is rewound between
        *batches*; algorithms without a batched kernel (``algo.batched()``
        is None) silently fall back to the serial path, recorded as
        ``extras["batched_fallback"]``.

        Returns a :class:`~repro.engines.result.BatchResult`.
        """
        from repro.engines.session import (
            _validate_root_entries,
            run_staged_queries,
        )

        algo = algorithm if algorithm is not None else BFSAlgorithm()
        # Check every entry before any machine state changes.
        _validate_root_entries("run_many", algo, graph, roots, mode)
        self._check_fresh(machine)
        sanitizer = self._ensure_sanitizer(machine)
        staged = self.stage(graph, machine, algorithm=algo)
        checkpoint = machine.checkpoint()
        # The machine sits exactly at the checkpoint here, so the first
        # execution needs no rewind: restore_first=False keeps this path
        # bit-for-bit the historical behaviour.
        batch = run_staged_queries(
            self,
            staged,
            checkpoint,
            roots,
            algorithm=algo,
            mode=mode,
            restore_first=False,
        )
        if sanitizer is not None:
            batch.extras["sanitizer_past_waits"] = float(sanitizer.past_waits)
            sanitizer.finalize_run()
            batch.extras["sanitizer_violations"] = float(
                len(sanitizer.violations)
            )
        return batch

    def session(self, staged, algorithm: Optional[StreamingAlgorithm] = None):
        """A fresh single-use :class:`QuerySession` against ``staged``."""
        from repro.engines.session import QuerySession

        return QuerySession(self, staged, algorithm=algorithm)

    def _check_fresh(self, machine: Machine) -> None:
        if machine.clock.now != 0.0 or len(machine.vfs) != 0:
            raise EngineError(
                "machine has already been used; engines need a fresh Machine "
                "per run (use Machine.fresh(), or Machine.checkpoint()/"
                "restore() via run_many for repeated queries)"
            )

    def _ensure_sanitizer(self, machine: Machine):
        sanitizer = getattr(machine, "sanitizer", None)
        if sanitizer is None and self.config.sanitize:
            from repro.tooling.sanitizer import Sanitizer

            sanitizer = Sanitizer().install(machine)
        return sanitizer

    # ------------------------------------------------------------------
    # planning & input staging
    # ------------------------------------------------------------------
    def stage(
        self,
        graph: Graph,
        machine: Machine,
        algorithm: Optional[StreamingAlgorithm] = None,
    ):
        """Build the reusable staged artifact for ``graph`` on ``machine``.

        Plans the partitioning (memory-budget driven) and splits the raw
        edge list into per-partition edge files: one sequential read plus
        parallel sequential writes, charged like any other I/O (the input
        file pre-exists on disk 0; creating it is not charged).  Ends with
        a drain barrier, so the machine is quiescent — a valid
        :meth:`~repro.storage.machine.Machine.checkpoint` point.  Returns a
        :class:`~repro.engines.session.StagedGraph`.
        """
        cfg = self.config
        algo = algorithm if algorithm is not None else BFSAlgorithm()
        baseline = machine.report()
        with machine.tracer.span(
            "stage", engine=self.name, graph=graph.name, edges=graph.num_edges
        ) as stage_span:
            staged = self._stage_body(graph, machine, cfg, algo, baseline)
            stage_span.set(
                partitions=staged.partitioning.count, in_memory=staged.in_memory
            )
        return staged

    def _stage_body(self, graph, machine, cfg, algo, baseline):
        from repro.engines.session import StagedGraph

        # Plan: partition count and device placement.
        n = graph.num_vertices
        vertex_bytes = n * algo.disk_record_bytes
        working_set = graph.nbytes * cfg.in_memory_factor + vertex_bytes
        in_memory = bool(
            cfg.allow_in_memory and working_set <= machine.memory_bytes
        )
        count = cfg.num_partitions or plan_partition_count(
            n,
            algo.disk_record_bytes,
            machine.memory_bytes,
            cfg.vertex_memory_fraction,
        )
        part = VertexPartitioning(n, count)
        if in_memory:
            dev_edges = dev_updates = dev_vertices = machine.ram
        else:
            dev_edges = machine.disk(cfg.edge_disk)
            dev_updates = machine.disk(cfg.update_disk)
            dev_vertices = machine.disk(cfg.vertex_disk)

        vfs = machine.vfs
        input_file = vfs.create(f"input:{graph.name}", machine.disk(0))
        if graph.num_edges:
            input_file.append_records(graph.edges)
        input_file.seal()

        # Vertex set files (timing anchors; the state array is the data path).
        vertex_files = [vfs.create(f"vertices:p{p}", dev_vertices) for p in part]

        if part.count == 1 and dev_edges is machine.disk(0) and not in_memory:
            # Single streaming partition on the input disk: stream the input
            # directly, exactly like X-Stream with one partition.
            edge_files = [input_file]
        else:
            reader = StreamReader(
                machine.clock,
                input_file,
                cfg.edge_buffer_bytes,
                prefetch=cfg.num_edge_buffers,
                group="input",
                retry=cfg.retry,
            )
            writers = [
                StreamWriter(
                    machine.clock,
                    vfs.create(f"edges:p{p}", dev_edges),
                    cfg.edge_buffer_bytes,
                    group=f"partition:p{p}",
                    retry=cfg.retry,
                )
                for p in part
            ]
            cm = cfg.cost_model
            for buf in reader:
                cm.charge(
                    machine.clock,
                    "partition",
                    cm.partition_per_edge,
                    len(buf),
                    cfg.threads,
                    machine.cores,
                )
                for p, (_, chunk) in part.split_by_partition(buf["src"], buf):
                    writers[p].append(chunk)
            for w in writers:
                w.close(drain=False)
            last_ends = [w.last_end for w in writers if w.last_end is not None]
            if last_ends:
                machine.clock.wait_until(max(last_ends))
            edge_files = [w.file for w in writers]
        for f in edge_files:
            f.seal()

        return StagedGraph(
            graph=graph,
            machine=machine,
            config=cfg,
            record_bytes=algo.disk_record_bytes,
            partitioning=part,
            in_memory=in_memory,
            dev_edges=dev_edges,
            dev_updates=dev_updates,
            dev_vertices=dev_vertices,
            input_file=input_file,
            edge_files=edge_files,
            vertex_files=vertex_files,
            staging_report=machine.report().minus(baseline),
        )

    # ------------------------------------------------------------------
    # passes
    # ------------------------------------------------------------------
    def _scatter_only_pass(self, rt: _RunState) -> int:
        """Iteration 0: scatter the initial frontier, no gather yet."""
        ctx = AlgoContext(0)
        stats = IterationStats(iteration=0)
        rt.iterations.append(stats)
        part = rt.partitioning
        active_per_part = self._active_per_partition(rt)
        with rt.machine.tracer.span(
            "iteration", iteration=0, frontier=int(active_per_part.sum())
        ) as it_span:
            self._open_update_writers(rt, iteration=0)
            for p in part:
                if not self._should_process_partition(
                    rt, p, False, int(active_per_part[p])
                ):
                    stats.partitions_skipped += 1
                    continue
                stats.partitions_processed += 1
                self.config.cost_model.charge_phase(
                    rt.machine.clock, self.config.threads
                )
                self._read_vertices(rt, p)
                stats.updates_generated += self._scatter_partition(rt, p, ctx, stats)
                self._write_vertices(rt, p)
            self._finish_pass(rt, stats)
            it_span.set(
                edges_scanned=stats.edges_scanned,
                updates_generated=stats.updates_generated,
                partitions_processed=stats.partitions_processed,
                partitions_skipped=stats.partitions_skipped,
            )
        return stats.updates_generated

    def _merged_pass(self, rt: _RunState, iteration: int) -> int:
        """Gather iteration-1's updates and scatter this iteration, merged."""
        gather_ctx = AlgoContext(iteration - 1)
        scatter_ctx = AlgoContext(iteration)
        stats = IterationStats(iteration=iteration)
        rt.iterations.append(stats)
        prev_updates = rt.update_in
        frontier = sum(
            f.num_records for f in prev_updates if f is not None
        )
        with rt.machine.tracer.span(
            "iteration", iteration=iteration, frontier=int(frontier)
        ) as it_span:
            self._open_update_writers(rt, iteration=iteration)
            for p in rt.partitioning:
                update_file = prev_updates[p]
                has_updates = update_file is not None and update_file.num_records > 0
                if not self._should_process_partition(rt, p, has_updates, 0):
                    stats.partitions_skipped += 1
                    continue
                stats.partitions_processed += 1
                self.config.cost_model.charge_phase(
                    rt.machine.clock, self.config.threads
                )
                self._read_vertices(rt, p)
                activated = (
                    self._gather_partition(rt, p, gather_ctx, update_file)
                    if has_updates
                    else 0
                )
                lo, hi = rt.partitioning.range_of(p)
                rt.algo.after_gather(gather_ctx, rt.state[lo:hi])
                stats.activated += activated
                scatter_allowed = (
                    self.config.max_iterations is None
                    or iteration < self.config.max_iterations
                )
                if scatter_allowed and self._should_scatter(rt, p, activated):
                    stats.updates_generated += self._scatter_partition(
                        rt, p, scatter_ctx, stats
                    )
                self._write_vertices(rt, p)
            for f in prev_updates:
                if f is not None:
                    rt.machine.vfs.delete(f.name)
            self._finish_pass(rt, stats)
            it_span.set(
                edges_scanned=stats.edges_scanned,
                updates_generated=stats.updates_generated,
                activated=stats.activated,
                partitions_processed=stats.partitions_processed,
                partitions_skipped=stats.partitions_skipped,
            )
        return stats.updates_generated

    def _finish_pass(self, rt: _RunState, stats: IterationStats) -> None:
        """Barrier: updates (and vertex writes) durable before the next pass."""
        clock = rt.machine.clock
        with rt.machine.tracer.span(
            "shuffle", iteration=stats.iteration
        ) as shuffle_span:
            new_updates: List[Optional[VirtualFile]] = []
            ends = []
            for w in rt.update_writers:
                w.close(drain=False)
                if w.last_end is not None:
                    ends.append(w.last_end)
                if w.file.num_records > 0:
                    new_updates.append(w.file)
                else:
                    rt.machine.vfs.delete(w.file.name)
                    new_updates.append(None)
            ends.extend(r.end for r in rt.pending_vertex_writes)
            if ends:
                clock.wait_until(max(ends))
            shuffle_span.set(
                updates_persisted=sum(
                    f.num_records for f in new_updates if f is not None
                ),
                update_bytes=sum(f.nbytes for f in new_updates if f is not None),
            )
        rt.pending_vertex_writes = []
        rt.update_writers = []
        rt.update_in = new_updates
        stats.clock_end = clock.now

    # ------------------------------------------------------------------
    # per-partition work
    # ------------------------------------------------------------------
    def _scatter_partition(
        self, rt: _RunState, p: int, ctx: AlgoContext, stats: IterationStats
    ) -> int:
        cfg = self.config
        cm = cfg.cost_model
        machine = rt.machine
        algo = rt.algo
        lo, hi = rt.partitioning.range_of(p)
        state_view = rt.state[lo:hi]
        with machine.tracer.span("scatter", partition=p) as sc_span:
            in_file = self._edge_input_file(rt, p, ctx, stats)
            self._pre_partition_scatter(rt, p, ctx)
            reader = StreamReader(
                machine.clock,
                in_file,
                cfg.edge_buffer_bytes,
                prefetch=cfg.num_edge_buffers,
                group=f"edges:p{p}",
                retry=cfg.retry,
            )
            generated = 0
            streamed = 0
            for chunk, cuts, buffers in reader.host_chunks(HOST_CHUNK_RECORDS):
                # Scatter only reads the state, so one kernel call covers
                # the chunk; the loop below replays each buffer's share.
                src_local = chunk["src"].astype(np.int64) - lo
                updates, emitted, eliminate = algo.scatter(
                    ctx, state_view, src_local, chunk["src"], chunk["dst"]
                )
                edge_cuts = cuts.tolist()
                update_cuts = _running_totals(emitted, cuts)
                weight_cuts = _running_totals(
                    algo.update_weights(updates), np.asarray(update_cuts)
                )
                keep = self._surviving_edges(rt, p, state_view, src_local, eliminate)
                if keep is not None:
                    survivors = chunk[keep]
                    keep_cuts = _running_totals(keep, cuts)
                for b in buffers:
                    n = edge_cuts[b + 1] - edge_cuts[b]
                    stats.edges_scanned += n
                    streamed += n
                    cm.charge(
                        machine.clock,
                        "scatter",
                        cm.scatter_per_edge,
                        n,
                        cfg.threads,
                        machine.cores,
                    )
                    if keep is not None:
                        k0, k1 = keep_cuts[b], keep_cuts[b + 1]
                        self._on_scatter_buffer(
                            rt, p, survivors[k0:k1], n - (k1 - k0), stats
                        )
                    u0, u1 = update_cuts[b], update_cuts[b + 1]
                    if u1 == u0:
                        continue
                    # Batched kernels weight the charge by liveness-mask
                    # popcount (one unit per query served); serial kernels
                    # weight by record count.
                    cm.charge(
                        machine.clock,
                        "shuffle",
                        cm.shuffle_per_update,
                        weight_cuts[b + 1] - weight_cuts[b],
                        cfg.threads,
                        machine.cores,
                    )
                    buf_updates = updates[u0:u1]
                    for j, (_, part_updates) in rt.partitioning.split_by_partition(
                        buf_updates["dst"], buf_updates
                    ):
                        rt.update_writers[j].append(part_updates)
                    generated += u1 - u0
            state_view["active"][:] = 0
            algo.after_partition_scatter(ctx, state_view)
            self._post_partition_scatter(rt, p, ctx)
            sc_span.set(edges_streamed=streamed, updates_produced=generated)
        return generated

    def _gather_partition(
        self,
        rt: _RunState,
        p: int,
        ctx: AlgoContext,
        update_file: VirtualFile,
    ) -> int:
        cfg = self.config
        cm = cfg.cost_model
        machine = rt.machine
        algo = rt.algo
        lo, hi = rt.partitioning.range_of(p)
        state_view = rt.state[lo:hi]
        chunk_records = HOST_CHUNK_RECORDS if algo.chunked_gather else 1
        with machine.tracer.span("gather", partition=p) as g_span:
            reader = StreamReader(
                machine.clock,
                update_file,
                cfg.update_buffer_bytes,
                prefetch=cfg.num_edge_buffers,
                group=f"updates:p{p}",
                retry=cfg.retry,
            )
            activated = 0
            gathered = 0
            for chunk, cuts, buffers in reader.host_chunks(chunk_records):
                weight_cuts = _running_totals(algo.update_weights(chunk), cuts)
                for b in buffers:
                    cm.charge(
                        machine.clock,
                        "gather",
                        cm.gather_per_update,
                        weight_cuts[b + 1] - weight_cuts[b],
                        cfg.threads,
                        machine.cores,
                    )
                # Gather touches no clock, so applying the chunk after its
                # buffers' charges leaves the simulated timeline unchanged.
                gathered += len(chunk)
                dst_local = chunk["dst"].astype(np.int64) - lo
                activated += algo.gather(
                    ctx, state_view, dst_local, algo.gather_payload(chunk)
                )
            g_span.set(updates_gathered=gathered, activated=activated)
        return activated

    # ------------------------------------------------------------------
    # vertex set I/O (timing anchors; state array is the data path)
    # ------------------------------------------------------------------
    def _vertex_nbytes(self, rt: _RunState, p: int) -> int:
        return rt.partitioning.size_of(p) * rt.algo.disk_record_bytes

    def _read_vertices(self, rt: _RunState, p: int) -> None:
        f = rt.vertex_files[p]
        req = submit_with_retry(
            rt.machine.clock,
            f,
            kind="read",
            nbytes=self._vertex_nbytes(rt, p),
            offset=0,
            group="vertices",
            retry=self.config.retry,
        )
        rt.machine.clock.wait_until(req.end)

    def _write_vertices(self, rt: _RunState, p: int) -> None:
        f = rt.vertex_files[p]
        req = submit_with_retry(
            rt.machine.clock,
            f,
            kind="write",
            nbytes=self._vertex_nbytes(rt, p),
            offset=0,
            group="vertices",
            retry=self.config.retry,
        )
        rt.pending_vertex_writes.append(req)

    # ------------------------------------------------------------------
    # update stream plumbing
    # ------------------------------------------------------------------
    def _open_update_writers(self, rt: _RunState, iteration: int) -> None:
        cfg = self.config
        parity = iteration % 2
        device = self._update_device(rt, iteration)
        rt.update_writers = [
            StreamWriter(
                rt.machine.clock,
                rt.machine.vfs.create(f"updates:{parity}:p{p}", device),
                cfg.update_buffer_bytes,
                group=f"updates:{parity}:p{p}",
                retry=cfg.retry,
            )
            for p in rt.partitioning
        ]

    def _update_device(self, rt: _RunState, iteration: int) -> Device:
        """Device for the update streams written during ``iteration``."""
        return rt.dev_updates

    def _active_per_partition(self, rt: _RunState) -> np.ndarray:
        active = np.flatnonzero(rt.state["active"])
        counts = np.zeros(rt.partitioning.count, dtype=np.int64)
        if len(active):
            parts = rt.partitioning.partition_of(active)
            counts += np.bincount(parts, minlength=rt.partitioning.count)
        return counts

    # ------------------------------------------------------------------
    # subclass hooks (X-Stream semantics by default)
    # ------------------------------------------------------------------
    def _before_run(self, rt: _RunState) -> None:
        """Called after planning/staging, before iteration 0."""

    def _after_run(self, rt: _RunState) -> None:
        """Called after the final pass, before the result is assembled."""

    def _should_process_partition(
        self, rt: _RunState, p: int, has_updates: bool, initial_active: int
    ) -> bool:
        """X-Stream touches every partition every pass (its weakness)."""
        return True

    def _should_scatter(self, rt: _RunState, p: int, activated: int) -> bool:
        """X-Stream streams the full edge list even with an empty frontier."""
        return True

    def _edge_input_file(
        self, rt: _RunState, p: int, ctx: AlgoContext, stats: IterationStats
    ) -> VirtualFile:
        """Which edge file scatter streams for partition ``p``."""
        return rt.edge_files[p]

    def _pre_partition_scatter(self, rt: _RunState, p: int, ctx: AlgoContext) -> None:
        """Hook before streaming a partition's edges."""

    def _surviving_edges(
        self,
        rt: _RunState,
        p: int,
        state: VertexState,
        src_local: np.ndarray,
        eliminate: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        """Per host chunk: the mask of edges to keep in a stay stream, or
        None when this scatter writes none (X-Stream never does)."""
        return None

    def _on_scatter_buffer(
        self,
        rt: _RunState,
        p: int,
        survivors: np.ndarray,
        eliminated: int,
        stats: IterationStats,
    ) -> None:
        """Per edge buffer, when :meth:`_surviving_edges` gave a mask: that
        buffer's surviving edges and eliminated count (FastBFS writes the
        stay stream here)."""

    def _post_partition_scatter(self, rt: _RunState, p: int, ctx: AlgoContext) -> None:
        """Hook after a partition's scatter finished."""

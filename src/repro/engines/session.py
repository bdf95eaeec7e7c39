"""Staged-graph artifacts and query sessions.

A traversal has two phases with different lifetimes:

* **staging** — splitting the raw edge list into per-partition edge files
  (plus the vertex-set files), one sequential read + sequential writes.
  This depends only on (graph, machine profile, engine config, vertex
  record size) and is reusable across traversals;
* **querying** — one BFS/WCC/... execution: frontier state, update
  streams, the FastBFS stay/trim machinery, iteration stats.

A :class:`StagedGraph` is the sealed artifact produced by
``engine.stage()``.  A :class:`QuerySession` owns all per-query state and
runs one execution of any streaming algorithm against that artifact, with
one lifecycle: single-use guard, sanitizer session, crash/resume entry
checkpoint, delta report, crash capture and ``recover()``.  Its result
demux is the identity; :class:`BatchedQuerySession` runs an MS-BFS kernel
through the same lifecycle and demuxes the batch per query slot.

``engine.run()`` is ``stage()`` plus one session.  :func:`run_staged_queries`
(behind ``engine.run_many()`` and the serving layer) runs many sessions
against one artifact, rewinding the machine between them via
``Machine.checkpoint()/restore()``; :func:`_run_with_recovery` is the one
crash/replay loop around a session.

Session internals (the ``_RunState`` bundle) are private to the engine
layer; external code must go through the session API (enforced by
static-checker rule FB107).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.algorithms.streaming import (
    BatchedBFSAlgorithm,
    BFSAlgorithm,
    StreamingAlgorithm,
)
from repro.engines.result import EngineResult, IterationStats
from repro.errors import ConfigError, CrashError, EngineError
from repro.graph.graph import Graph
from repro.graph.partition import VertexPartitioning
from repro.storage.device import Device
from repro.storage.machine import IOReport, Machine
from repro.storage.vfs import VirtualFile

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.engines.base import EdgeCentricEngine


@dataclass
class StagedGraph:
    """The reusable partitioning artifact of one ``engine.stage()`` call.

    Holds the partitioning plan, the sealed per-partition edge files and
    the vertex-set files, all living in ``machine``'s VFS.  The artifact is
    valid for any algorithm whose ``disk_record_bytes`` matches
    ``record_bytes`` (the value the partition count was planned with), on
    this machine, under the config it was staged with.
    """

    graph: Graph
    machine: Machine
    config: object  # EngineConfig (kept loose to avoid an import cycle)
    record_bytes: int
    partitioning: VertexPartitioning
    in_memory: bool
    dev_edges: Device
    dev_updates: Device
    dev_vertices: Device
    input_file: VirtualFile
    edge_files: List[VirtualFile] = field(default_factory=list)
    vertex_files: List[VirtualFile] = field(default_factory=list)
    #: Delta report covering exactly the staging I/O and compute.
    staging_report: Optional[IOReport] = None

    @property
    def num_partitions(self) -> int:
        return self.partitioning.count

    @property
    def staging_time(self) -> float:
        return self.staging_report.execution_time if self.staging_report else 0.0

    def protected_names(self) -> frozenset:
        """VFS names a query session must never delete or displace."""
        names = {self.input_file.name}
        names.update(f.name for f in self.edge_files)
        names.update(f.name for f in self.vertex_files)
        return frozenset(names)

    def compatible_with(self, algorithm: StreamingAlgorithm) -> bool:
        """Whether the partition plan is valid for ``algorithm``."""
        return algorithm.disk_record_bytes == self.record_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StagedGraph({self.graph.name!r}, partitions={self.num_partitions}, "
            f"in_memory={self.in_memory})"
        )


def _assemble_run_state(
    engine: "EdgeCentricEngine",
    staged: StagedGraph,
    algo: StreamingAlgorithm,
    protect_staged: bool,
):
    """Build the per-query ``_RunState`` bundle from a staged artifact."""
    from repro.engines.base import _RunState  # local: avoid import cycle

    rt = _RunState()
    rt.graph = staged.graph
    rt.machine = staged.machine
    rt.algo = algo
    rt.partitioning = staged.partitioning
    rt.in_memory = staged.in_memory
    rt.dev_edges = staged.dev_edges
    rt.dev_updates = staged.dev_updates
    rt.dev_vertices = staged.dev_vertices
    rt.edge_files = list(staged.edge_files)
    rt.vertex_files = list(staged.vertex_files)
    rt.update_in = [None] * staged.partitioning.count
    rt.extras["partitions"] = float(staged.partitioning.count)
    rt.extras["in_memory"] = float(staged.in_memory)
    if protect_staged:
        rt.protected_files = staged.protected_names()
    return rt


def _drive_passes(engine: "EdgeCentricEngine", rt) -> None:
    """Run the scatter/gather timeline to convergence (shared by the
    serial and batched sessions — one timeline either way)."""
    engine._before_run(rt)
    pass_updates = engine._scatter_only_pass(rt)
    iteration = 0
    while pass_updates > 0:
        iteration += 1
        pass_updates = engine._merged_pass(rt, iteration)
    engine._after_run(rt)


def _release_swapped_files(staged: StagedGraph, rt, protect_staged: bool) -> None:
    """Delete per-query files swapped in over the staged edge files.

    Only meaningful with ``protect_staged``: the artifact's own files are
    untouched and any stay file a query promoted to edge-input duty is
    transient session state.
    """
    if not protect_staged:
        return
    vfs = staged.machine.vfs
    for p, f in enumerate(rt.edge_files):
        if f is not staged.edge_files[p]:
            vfs.delete_if_exists(f.name)


def _is_root_sequence(entry) -> bool:
    """Whether a roots entry is a multi-source root set."""
    return isinstance(entry, (list, tuple, np.ndarray))


def _validate_root_entries(
    caller: str, algo: StreamingAlgorithm, graph: Graph, roots: Sequence,
    mode: str,
) -> List[np.ndarray]:
    """Check a roots list and mode; validate every root entry once.

    The boundary check of ``run_many`` and :func:`run_staged_queries`:
    an empty list, an unknown mode or a bad root raises here, before any
    machine state changes.  Returns the validated root array per entry.
    """
    if len(roots) == 0:
        raise EngineError(f"{caller} needs at least one root entry")
    if mode not in ("serial", "batched"):
        raise ConfigError(
            f"{caller} mode must be 'serial' or 'batched', got {mode!r}"
        )
    return [
        algo.validate_roots(
            graph.num_vertices, entry if _is_root_sequence(entry) else [entry]
        )
        for entry in roots
    ]


def _run_with_recovery(session, max_recoveries: int, **call):
    """Run ``session.run(**call)``; on :class:`CrashError`, replay via
    ``session.recover()``.

    The one crash/replay loop, shared by :func:`run_staged_queries` (the
    serving layer's admission flushes) and the chaos harness.  Up to
    ``max_recoveries`` replays are attempted — each rewinds the machine to
    the session's entry checkpoint and re-runs, so a surviving replay is
    bit-identical to an uncrashed run.  With ``max_recoveries=0`` the
    first crash propagates untouched; once the budget is spent the first
    crash is re-raised.
    """
    try:
        return session.run(**call)
    except CrashError:
        for _ in range(max_recoveries):
            try:
                return session.recover()
            except CrashError:
                continue
        raise


def run_staged_queries(
    engine: "EdgeCentricEngine",
    staged: StagedGraph,
    checkpoint,
    roots: Sequence,
    algorithm: Optional[StreamingAlgorithm] = None,
    mode: str = "serial",
    restore_first: bool = True,
    span_attrs: Optional[dict] = None,
    max_recoveries: int = 0,
):
    """Run one query per ``roots`` entry against an existing artifact.

    The registry-safe core of ``engine.run_many``: instead of demanding a
    fresh machine and staging inline, this takes a :class:`StagedGraph`
    plus the post-staging :class:`~repro.storage.machine.MachineCheckpoint`
    and rewinds the machine to that quiescent point around every execution.
    A long-lived front door (``repro.serve``) stages once at registration
    and calls this for every request batch; the artifact's files are
    protected by the sessions, so the checkpoint stays valid forever.

    ``restore_first`` controls whether the machine is rewound before the
    *first* execution too: a server reusing a machine whose state is dirty
    from the previous batch needs it; ``run_many`` (whose machine is
    exactly at the checkpoint when the loop starts) passes False to stay
    bit-for-bit the historical behaviour.  Modes are as in ``run_many``:
    ``"serial"`` rewinds between queries, ``"batched"`` packs MS-BFS
    batches of up to :data:`~repro.algorithms.streaming.BATCH_WIDTH` and
    rewinds between batches, falling back to serial (recorded in
    ``extras["batched_fallback"]``) for algorithms without a batched
    kernel.  Returns a :class:`~repro.engines.result.BatchResult` whose
    ``staging_report`` is the artifact's (staging was paid when the
    artifact was built, not here).

    ``span_attrs`` attaches extra attributes to every ``query`` span this
    call opens (purely observational — attrs never touch the clock).  The
    serving layer uses it for end-to-end request tracing: it passes
    ``{"flush_id": ..., "request_ids": [...]}`` with one request id per
    root entry, and the ``request_ids`` list is sliced to match each
    batch chunk (serial mode: each query span carries its own single-id
    slice); batched query slots additionally carry their own
    ``request_id`` on the ``query_slot`` marker.

    ``max_recoveries > 0`` arms the crash/resume loop
    (:func:`_run_with_recovery`): a :class:`~repro.errors.CrashError`
    inside any session triggers up to that many replays (each counted in
    ``extras["recovered"]`` and traced as a ``recover`` span) before the
    crash propagates.  Only meaningful on fault-injected machines.
    """
    from repro.algorithms.streaming import BATCH_WIDTH
    from repro.engines.result import BatchResult

    algo = algorithm if algorithm is not None else BFSAlgorithm()
    validated = _validate_root_entries(
        "run_staged_queries", algo, staged.graph, roots, mode
    )
    machine = staged.machine
    extras: dict = {}
    batched = mode == "batched" and algo.batched(1) is not None
    if mode == "batched" and not batched:
        extras["batched_fallback"] = 1.0
    queries: List[EngineResult] = []
    shared_iterations: List[IterationStats] = []
    batch_times: List[float] = []

    def _sliced_attrs(start: int, count: int) -> Optional[dict]:
        if span_attrs is None:
            return None
        out = dict(span_attrs)
        ids = out.get("request_ids")
        if isinstance(ids, (list, tuple)):
            out["request_ids"] = list(ids[start:start + count])
        return out

    if batched:
        for num_batches, start in enumerate(
            range(0, len(validated), BATCH_WIDTH)
        ):
            chunk = validated[start:start + BATCH_WIDTH]
            if num_batches or restore_first:
                machine.restore(checkpoint)
            session = BatchedQuerySession(
                engine,
                staged,
                algo.batched(len(chunk)),
                batch_index=num_batches,
                span_attrs=_sliced_attrs(start, len(chunk)),
            )
            queries.extend(_run_with_recovery(
                session, max_recoveries, validated_roots=chunk
            ))
            shared_iterations.extend(session.shared_iterations)
            batch_times.append(session.report.execution_time)
        extras["num_batches"] = float(len(batch_times))
    else:
        for q, entry in enumerate(roots):
            if q or restore_first:
                machine.restore(checkpoint)
            session = QuerySession(
                engine, staged, algorithm=algo,
                span_attrs=_sliced_attrs(q, 1),
            )
            queries.append(_run_with_recovery(
                session,
                max_recoveries,
                roots=entry if _is_root_sequence(entry) else [entry],
                validated_roots=validated[q],
            ))
    for q, result in enumerate(queries):
        result.query_index = q
        result.extras["query_index"] = float(result.query_index)
    return BatchResult(
        engine=engine.name,
        algorithm=algo.name,
        graph_name=staged.graph.name,
        staging_report=staged.staging_report,
        queries=queries,
        extras=extras,
        mode="batched" if batched else "serial",
        shared_iterations=shared_iterations,
        batch_times=batch_times,
    )


class QuerySession:
    """One algorithm execution against a :class:`StagedGraph`.

    A session owns every piece of per-query state: the vertex state array,
    the update streams, the FastBFS stay-stream manager and trim policy,
    and the per-iteration stats.  Sessions are single-use — open a new one
    per query (``engine.session(staged)``), or let ``engine.run_many``
    drive the checkpoint/restore loop for you.

    This class holds the whole session lifecycle (:meth:`_execute` and
    :meth:`recover`) for any :class:`StreamingAlgorithm`; its result demux
    is the identity.  :class:`BatchedQuerySession` reuses the lifecycle
    with a per-slot demux.

    ``protect_staged=True`` (the default for reusable sessions) keeps the
    artifact intact: FastBFS stay-file swaps leave the staged edge files in
    place, and swapped-in per-query files are deleted when the session
    finishes.  ``protect_staged=False`` lets stay files replace the staged
    edge files in the VFS (the artifact is consumed), which is what
    ``engine.run()`` uses.

    ``cumulative_report=False`` (default) reports only what this session
    cost — the machine's counters at session end minus session start.
    ``engine.run()`` sets it to True so its report covers staging + query.

    On a fault-injected machine the session entry is checkpointed, and
    after a :class:`~repro.errors.CrashError` :meth:`recover` rewinds to
    that checkpoint and replays the same ``run()`` call.
    """

    def __init__(
        self,
        engine: "EdgeCentricEngine",
        staged: StagedGraph,
        algorithm: Optional[StreamingAlgorithm] = None,
        protect_staged: bool = True,
        cumulative_report: bool = False,
        span_attrs: Optional[dict] = None,
    ) -> None:
        self.engine = engine
        self.staged = staged
        self.algorithm = algorithm if algorithm is not None else BFSAlgorithm()
        # A batched kernel streams the files staged for its serial
        # algorithm's record width (it charges its own mask-word width for
        # per-pass vertex I/O), so the plan is checked against that one.
        planned = getattr(self.algorithm, "serial", self.algorithm)
        if not staged.compatible_with(planned):
            raise EngineError(
                f"staged artifact was planned for {staged.record_bytes}-byte "
                f"vertex records; algorithm {planned.name!r} uses "
                f"{planned.disk_record_bytes} — re-stage for this algorithm"
            )
        self.protect_staged = protect_staged
        self.cumulative_report = cumulative_report
        self.span_attrs = dict(span_attrs) if span_attrs else {}
        #: Delta report of the executed timeline (set by :meth:`run`).
        self.report: Optional[IOReport] = None
        #: Per-pass counters of the executed timeline (set by :meth:`run`).
        self.iterations: List[IterationStats] = []
        self._used = False
        # Crash/resume state: the quiescent entry checkpoint (taken only on
        # fault-injected machines) and the keyword arguments of the
        # ``run()`` call a crash interrupted.
        self._checkpoint = None
        self._crashed: Optional[dict] = None

    # ------------------------------------------------------------------
    def run(
        self,
        root: int = 0,
        roots: Optional[Sequence[int]] = None,
        validated_roots: Optional[np.ndarray] = None,
    ) -> EngineResult:
        """Execute the session's algorithm from ``root`` (or ``roots``).

        ``validated_roots`` is the boundary-validation passthrough: the
        engine front doors (``run``/``run_many``) validate every root entry
        exactly once before staging and hand the validated array here, so
        the session skips re-validation.  Callers driving a session
        directly may omit it — the algorithm then validates in
        ``init_state``.

        Returns an :class:`EngineResult` whose report covers this query
        only (unless ``cumulative_report``).  Raises on reuse: per-query
        state is consumed by the run.
        """
        return self._execute(
            root=root, roots=roots, validated_roots=validated_roots
        )

    # ------------------------------------------------------------------
    def _execute(self, **call):
        """The session lifecycle around one ``run(**call)``.

        Single-use guard, sanitizer session, crash/resume entry checkpoint
        and report baseline; the run state for ``call``; the scatter/gather
        timeline and the release of swapped-in files inside one ``query``
        span; finally the delta report and the demux of the run state into
        this session's result.  A :class:`CrashError` records ``call`` so
        :meth:`recover` can replay it.
        """
        if self._used:
            raise EngineError(
                f"{type(self).__name__} is single-use: open a new session "
                "per run (e.g. engine.session(staged))"
            )
        self._used = True
        engine = self.engine
        staged = self.staged
        machine = staged.machine
        sanitizer = getattr(machine, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.begin_session()
        if getattr(machine, "fault_injector", None) is not None:
            # Session entry is a quiescent point (post-staging barrier or
            # post-restore), so this checkpoint is the crash/resume anchor:
            # recover() rewinds here and replays the whole run.
            self._checkpoint = machine.checkpoint()
        baseline = None if self.cumulative_report else machine.report()

        rt = _assemble_run_state(engine, staged, self.algorithm, self.protect_staged)
        self._init_state(rt, **call)
        if "active" not in rt.state.dtype.names:
            raise EngineError("algorithm state must contain an 'active' field")

        engine._rt = rt
        try:
            with machine.tracer.span(
                "query",
                engine=engine.name,
                algorithm=self.algorithm.name,
                graph=staged.graph.name,
                **self._span_fields(call, query=True),
                **self.span_attrs,
            ) as q_span:
                _drive_passes(engine, rt)
                _release_swapped_files(staged, rt, self.protect_staged)
                q_span.set(iterations=len(rt.iterations))
                self._mark_slots(rt, call)
            if sanitizer is not None:
                sanitizer.finalize_session()
            report = machine.report()
            if baseline is not None:
                report = report.minus(baseline)
            self.report = report
            self.iterations = rt.iterations
            return self._demux(rt, report)
        except CrashError:
            # Remember what was being asked so recover() can replay it.
            # The injected "crash" span was already emitted by the fault
            # injector at the failure point; the open query/iteration spans
            # were closed by their context managers as the error unwound.
            self._crashed = call
            raise
        finally:
            engine._rt = None

    def _init_state(self, rt, root, roots, validated_roots) -> None:
        """Initial vertex state for :meth:`run`'s arguments."""
        algo = self.algorithm
        num_vertices = self.staged.graph.num_vertices
        if validated_roots is not None:
            rt.state = algo.init_state_validated(num_vertices, validated_roots)
        else:
            rt.state = algo.init_state(
                num_vertices, roots if roots is not None else [root]
            )

    def _span_fields(self, call: dict, query: bool) -> dict:
        """What ``run(**call)`` executes, as span attributes: for the
        ``query`` span when ``query``, else for the ``recover`` span."""
        roots = call["roots"] if call["roots"] is not None else [call["root"]]
        return {"roots": [int(r) for r in roots]}

    def _mark_slots(self, rt, call: dict) -> None:
        """Per-slot trace markers inside the ``query`` span (a serial
        session runs one query and has no slots)."""

    def _demux(self, rt, report: IOReport) -> EngineResult:
        """The session's result from the final run state: the identity
        demux, one query with the algorithm's own output."""
        algo = self.algorithm
        return EngineResult(
            engine=self.engine.name,
            algorithm=algo.name,
            graph_name=self.staged.graph.name,
            output=algo.result(rt.state),
            report=report,
            iterations=rt.iterations,
            extras=dict(rt.extras),
        )

    # ------------------------------------------------------------------
    def recover(self):
        """Resume after a :class:`CrashError` killed :meth:`run`.

        Rewinds the machine to this session's entry checkpoint (the sealed
        :class:`StagedGraph` is untouched by queries, so staging is never
        repeated) and replays the same ``run()`` call in a fresh copy of
        this session.  Because the simulation is deterministic and the
        fault injector's one-shot budgets are *not* rewound by restore, the
        replay runs past the crash point and produces bit-identical output
        to an uncrashed run.

        Returns what ``run()`` returns, each result with
        ``extras["recovered"]`` counting the recovery.  Raises
        :class:`EngineError` if the session did not crash.  If the replay
        crashes again (another crash fault with remaining budget), the new
        crash state is adopted so ``recover()`` may be called again.
        """
        if self._crashed is None:
            raise EngineError(
                "nothing to recover: the session did not crash "
                "(recover() is only valid after run() raised CrashError)"
            )
        if self._checkpoint is None:
            raise EngineError(
                "cannot recover: no entry checkpoint was taken "
                "(the machine has no fault injector)"
            )
        machine = self.staged.machine
        machine.restore(self._checkpoint)
        resumed_at = machine.clock.now
        call, self._crashed = self._crashed, None
        replay = copy.copy(self)
        replay._used = False
        try:
            outcome = replay.run(**call)
        except CrashError:
            # Adopt the replay's crash state so the caller can retry from
            # the same quiescent anchor.
            self._crashed = replay._crashed
            raise
        self.report = replay.report
        self.iterations = replay.iterations
        if machine.fault_injector is not None:
            machine.fault_injector.record_recovery()
        machine.tracer.emit(
            "recover",
            start=resumed_at,
            end=resumed_at,
            engine=self.engine.name,
            **self._span_fields(call, query=False),
        )
        for result in outcome if isinstance(outcome, list) else [outcome]:
            result.extras["recovered"] = result.extras.get("recovered", 0.0) + 1.0
        return outcome


def _slots(validated_roots: Sequence) -> List[np.ndarray]:
    """One root array per batch slot (multi-source slots allowed)."""
    return [np.atleast_1d(np.asarray(r)) for r in validated_roots]


class BatchedQuerySession(QuerySession):
    """One MS-BFS batch: ≤64 queries sharing a single scatter/gather
    timeline against a :class:`StagedGraph`.

    The session runs a :class:`~repro.algorithms.streaming.
    BatchedBFSAlgorithm` through the :class:`QuerySession` lifecycle —
    one `query` span, one sequence of iteration spans, one delta report,
    the same crash/recover protocol — and demultiplexes the batch state
    into per-query :class:`EngineResult`\\ s whose levels/parents are
    bit-identical to Q serial runs.  Per-query iteration stats are
    synthesized from the kernel's per-pass bookkeeping (updates/activated
    per query per pass); shared-scan counters (edges scanned, partitions
    processed) belong to the batch timeline and are exposed as
    :attr:`shared_iterations`, with each demuxed query reporting zero edge
    scans of its own.
    """

    def __init__(
        self,
        engine: "EdgeCentricEngine",
        staged: StagedGraph,
        algorithm: BatchedBFSAlgorithm,
        batch_index: int = 0,
        protect_staged: bool = True,
        cumulative_report: bool = False,
        span_attrs: Optional[dict] = None,
    ) -> None:
        super().__init__(
            engine,
            staged,
            algorithm,
            protect_staged=protect_staged,
            cumulative_report=cumulative_report,
            span_attrs=span_attrs,
        )
        self.batch_index = batch_index

    @property
    def shared_iterations(self) -> List[IterationStats]:
        """Per-pass counters of the shared timeline (set by :meth:`run`)."""
        return self.iterations

    # ------------------------------------------------------------------
    def run(self, validated_roots: Sequence) -> List[EngineResult]:
        """Execute the batch; one validated root entry per query slot.

        ``validated_roots`` comes from the engine boundary (``run_many``
        validates every entry once); each entry is the validated root
        array of one slot (multi-source slots are allowed).  Returns one
        demultiplexed :class:`EngineResult` per slot, in order.
        """
        return self._execute(validated_roots=validated_roots)

    def _init_state(self, rt, validated_roots) -> None:
        rt.extras["batch_size"] = float(self.algorithm.num_queries)
        rt.state = self.algorithm.init_state_validated(
            self.staged.graph.num_vertices, _slots(validated_roots)
        )

    def _span_fields(self, call: dict, query: bool) -> dict:
        fields = {
            "roots": [int(r) for slot in _slots(call["validated_roots"])
                      for r in slot],
            "batch": self.batch_index,
        }
        if query:
            fields["batch_size"] = self.algorithm.num_queries
        return fields

    def _mark_slots(self, rt, call: dict) -> None:
        # Zero-width per-slot markers inside the batch's query span;
        # purely observational (never touches the clock).
        tracer = self.staged.machine.tracer
        parent = tracer.current_id
        now = self.staged.machine.clock.now
        slot_ids = self.span_attrs.get("request_ids")
        for q, slot in enumerate(_slots(call["validated_roots"])):
            slot_attrs = {}
            if isinstance(slot_ids, (list, tuple)) and q < len(slot_ids):
                slot_attrs["request_id"] = slot_ids[q]
            tracer.emit(
                "query_slot",
                start=now,
                end=now,
                parent_id=parent,
                batch=self.batch_index,
                query_slot=q,
                roots=[int(r) for r in slot],
                iterations=self.algorithm.query_iterations(
                    q, len(rt.iterations)
                ),
                **slot_attrs,
            )

    def _demux(self, rt, report: IOReport) -> List[EngineResult]:
        return [
            self._demux_query(rt, report, q)
            for q in range(self.algorithm.num_queries)
        ]

    def _demux_query(self, rt, report: IOReport, q: int) -> EngineResult:
        """Per-query result: slot ``q``'s output columns plus iteration
        stats synthesized from the kernel's per-pass bookkeeping.

        ``updates_generated``/``activated`` match what a serial run of the
        slot would report per pass; edge scans and partition scheduling
        happened once for the whole batch and are *not* attributed to any
        query (they live in :attr:`shared_iterations`).
        """
        algo = self.algorithm
        num_passes = len(rt.iterations)
        iterations = []
        for i in range(algo.query_iterations(q, num_passes)):
            shared = rt.iterations[i] if i < num_passes else None
            iterations.append(
                IterationStats(
                    iteration=i,
                    updates_generated=int(algo.per_query_updates(i)[q]),
                    activated=int(algo.per_query_activated(i)[q]),
                    clock_end=shared.clock_end if shared else 0.0,
                )
            )
        extras = dict(rt.extras)
        extras["batch"] = float(self.batch_index)
        extras["query_slot"] = float(q)
        return EngineResult(
            engine=self.engine.name,
            algorithm=algo.serial.name,
            graph_name=self.staged.graph.name,
            output=algo.query_output(rt.state, q),
            report=report,
            iterations=iterations,
            extras=extras,
        )

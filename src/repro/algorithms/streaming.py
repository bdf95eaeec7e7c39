"""Scatter/gather algorithm kernels for the edge-centric engines.

The engines (X-Stream, FastBFS) are generic BSP scatter/gather machines; an
algorithm object supplies the per-edge and per-update semantics:

* ``state`` — a column-store :class:`~repro.algorithms.state.VertexState`,
  one array per field.  The ``active`` field marks vertices updated in the
  previous gather (the current frontier); the engine clears a partition's
  flags after scattering it.
* ``scatter`` — given the active flags and a run of edges, produce update
  records, the mask of edges that emitted them, and (optionally) the
  eliminate mask that drives FastBFS trimming.
* ``gather`` — apply a run of a partition's update stream, activating newly
  changed vertices; returns how many were activated (global termination =
  zero updates generated in a scatter pass).

The engines call both kernels once per *host chunk* — several simulated
stream buffers at once — and replay the per-buffer simulated work from the
returned masks (see ``repro.engines.base``).  Scatter only reads the state,
so any run of edges is valid input.  Gather over a concatenated run must
equal the per-buffer gathers, returned count included; ``chunked_gather``
declares that it does.

``supports_trimming`` is True only when "edge generated an update" implies
"edge is useless forever" — true for BFS-like monotone visits (paper §II-C1:
vertices are marked once and never revisited), false for label-correcting
algorithms like WCC/weighted SSSP, where the engines fall back to plain
streaming.  This is exactly the BFS-specific nature of the paper's
optimization, kept explicit in the API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.algorithms.state import VertexState
from repro.errors import EngineError
from repro.graph.types import NO_PARENT, UNVISITED, UPDATE_DTYPE
# popcount64 is unused here but stays importable from this module: the
# host-cost benchmark (perfbench/layers.py) patches it under this name.
from repro.utils.bits import mask_bit_counts, mask_bytes, popcount64, popcounts64  # noqa: F401

#: Width of one MS-BFS batch: one query per bit of a ``uint64`` mask word.
BATCH_WIDTH = 64

#: Update record for batched traversals: destination, parent payload, and
#: the liveness mask naming which queries of the batch this update serves.
BATCH_UPDATE_DTYPE = np.dtype(
    [("dst", "<u4"), ("payload", "<u4"), ("mask", "<u8")]
)


@dataclass
class AlgoContext:
    """Per-iteration context handed to scatter/gather."""

    iteration: int


class StreamingAlgorithm:
    """Base class; subclasses define state layout and kernels."""

    name: str = "abstract"
    #: True when update-generating edges can be eliminated (BFS pattern).
    supports_trimming: bool = False
    #: True when one gather over concatenated update buffers leaves the
    #: same state and returns the same count as gathering them one by one
    #: (first-update-wins claims, order-preserving sums).  False for
    #: label-correcting kernels, whose per-buffer "improved" counts are not
    #: additive: the engine then gathers buffer by buffer.
    chunked_gather: bool = False
    #: Column schema of the :class:`VertexState` (``(name, dtype)`` or
    #: ``(name, dtype, shape)`` entries).  Must contain an ``active`` u1
    #: field.
    state_fields: Tuple = (("active", "u1"),)
    #: Bytes per vertex as charged for on-disk vertex-set I/O.
    disk_record_bytes: int = 8
    #: On-disk layout of one update record (batched kernels widen this).
    update_dtype: np.dtype = UPDATE_DTYPE

    def init_state(self, num_vertices: int, roots) -> VertexState:
        raise NotImplementedError

    def init_state_validated(self, num_vertices: int, roots) -> VertexState:
        """Build state from roots the engine boundary already validated.

        ``engine.run()``/``run_many()`` validate every root entry before
        staging (so a bad query fails without touching the machine) and
        hand the validated arrays through the session to this entry point,
        avoiding a second validation pass.  The default simply defers to
        :meth:`init_state`; algorithms with non-trivial root checks
        override both and share the body.
        """
        return self.init_state(num_vertices, roots)

    def scatter(
        self,
        ctx: AlgoContext,
        state: VertexState,
        src_local: np.ndarray,
        src_global: np.ndarray,
        dst_global: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Return ``(updates, emitted, eliminate)`` for a run of edges.

        ``updates`` holds one record per edge whose ``emitted`` flag is
        set, in edge order, so the engine can cut it at any buffer
        boundary; ``eliminate`` is the trimming mask, or None when the
        algorithm cannot trim.
        """
        raise NotImplementedError

    def gather(
        self,
        ctx: AlgoContext,
        state: VertexState,
        dst_local: np.ndarray,
        payload: np.ndarray,
    ) -> int:
        """Apply updates to the partition state; return #newly activated."""
        raise NotImplementedError

    def after_gather(self, ctx: AlgoContext, state: VertexState) -> None:
        """Called once per partition after its update stream is consumed
        (and before that partition's next scatter).  Iterative numeric
        algorithms (e.g. PageRank) finalize the round's values here; the
        traversal algorithms need nothing."""

    def after_partition_scatter(
        self, ctx: AlgoContext, state: VertexState
    ) -> None:
        """Called right after the engine clears a partition's ``active``
        flags at the end of its scatter.  Batched kernels clear their
        frontier mask words here; the serial algorithms need nothing."""

    def gather_payload(self, buf: np.ndarray) -> np.ndarray:
        """Extract what :meth:`gather` consumes from one update buffer.

        The serial kernels take the ``payload`` column; batched kernels
        take the whole record (payload plus liveness mask).
        """
        return buf["payload"]

    def update_weights(self, updates: np.ndarray) -> Optional[np.ndarray]:
        """Serial-equivalent work units of each update record, or None
        when every record is one unit (the serial kernels).

        Batched kernels weight a record by its liveness-mask popcount, so
        per-update shuffle and gather cost scales with how many queries
        each record serves (see ``repro.engines.costs``).
        """
        return None

    def batched(self, num_queries: int) -> Optional["StreamingAlgorithm"]:
        """A batched (MS-BFS style) kernel advancing ``num_queries``
        traversals per edge scan, or None when this algorithm cannot be
        batched (label-correcting algorithms); the scheduler then falls
        back to the serial checkpoint/restore path."""
        return None

    def result(self, state: VertexState) -> Dict[str, np.ndarray]:
        """Extract the user-facing output arrays from the final state."""
        raise NotImplementedError

    def extended_eliminate(
        self, state: VertexState, src_local: np.ndarray, base_mask: np.ndarray
    ) -> np.ndarray:
        """Widen the eliminate mask beyond the paper's generate=>eliminate rule.

        Used by the ``extended_trim`` ablation; the default adds nothing.
        """
        return base_mask

    def validate_roots(self, num_vertices: int, roots) -> np.ndarray:
        """Public root validation (raises EngineError on a bad root set).

        The engines' front doors call this before staging so an invalid
        query fails without mutating the machine.
        """
        return self._check_roots(num_vertices, roots)

    def _check_roots(self, num_vertices: int, roots) -> np.ndarray:
        roots = np.atleast_1d(np.asarray(roots, dtype=np.int64))
        if len(roots) == 0:
            raise EngineError(f"{self.name} needs at least one root vertex")
        if roots.min() < 0 or roots.max() >= num_vertices:
            raise EngineError(
                f"root out of range [0, {num_vertices}): {roots.tolist()}"
            )
        return roots


def _make_updates(dst: np.ndarray, payload: np.ndarray) -> np.ndarray:
    updates = np.empty(len(dst), dtype=UPDATE_DTYPE)
    updates["dst"] = dst
    updates["payload"] = payload
    return updates


class BFSAlgorithm(StreamingAlgorithm):
    """Breadth-first search: level + parent per vertex, visited exactly once.

    Scatter: every out-edge of an active (just-visited) vertex emits an
    update carrying the parent id, and — the FastBFS insight — is thereby
    dead and eliminable.  Gather: the first update to reach an unvisited
    vertex claims it at level ``iteration + 1``.
    """

    name = "bfs"
    supports_trimming = True
    chunked_gather = True
    state_fields = (("level", "<i4"), ("parent", "<u4"), ("active", "u1"))
    #: Key the per-query hop-count array is published under in ``result()``
    #: (also used when demultiplexing a batched run).
    level_output_key = "level"

    def init_state(self, num_vertices: int, roots) -> VertexState:
        return self.init_state_validated(
            num_vertices, self._check_roots(num_vertices, roots)
        )

    def init_state_validated(self, num_vertices: int, roots) -> VertexState:
        roots = np.atleast_1d(np.asarray(roots, dtype=np.int64))
        state = VertexState.zeros(num_vertices, self.state_fields)
        state["level"][:] = UNVISITED
        state["parent"][:] = NO_PARENT
        state["level"][roots] = 0
        state["active"][roots] = 1
        return state

    def batched(self, num_queries: int) -> "BatchedBFSAlgorithm":
        return BatchedBFSAlgorithm(num_queries, serial=self)

    def scatter(self, ctx, state, src_local, src_global, dst_global):
        mask = state["active"][src_local] == 1
        updates = _make_updates(dst_global[mask], src_global[mask])
        return updates, mask, mask

    def gather(self, ctx, state, dst_local, payload) -> int:
        fresh = state["level"][dst_local] == UNVISITED
        if not fresh.any():
            return 0
        dst = dst_local[fresh]
        parents = payload[fresh]
        # First update to arrive wins (stream order), matching the paper's
        # "marks the corresponding destination vertices as visited".
        uniq, first_idx = np.unique(dst, return_index=True)
        state["level"][uniq] = ctx.iteration + 1
        state["parent"][uniq] = parents[first_idx]
        state["active"][uniq] = 1
        return len(uniq)

    def result(self, state):
        return {
            "level": state["level"].copy(),
            "parent": state["parent"].copy(),
        }

    def extended_eliminate(self, state, src_local, base_mask):
        """Also drop edges whose source was visited in an *earlier* level.

        Such edges already sent their updates (or entered the graph after
        their source converged, e.g. when an earlier stay write was
        cancelled) and can never contribute again.  Stricter than the
        paper's rule; exercised by the trimming ablation bench.
        """
        return base_mask | (state["level"][src_local] != UNVISITED)


class UnitSSSPAlgorithm(BFSAlgorithm):
    """Single-source shortest paths with unit weights.

    Identical traversal to BFS (hop counts *are* the distances); exposed as
    its own algorithm because the paper positions BFS as the building block
    for shortest-path computations, and it gives the engines' "more
    traversal algorithms" future-work hook a second trimming-capable client.
    """

    name = "unit-sssp"
    level_output_key = "distance"

    def result(self, state):
        out = super().result(state)
        out["distance"] = out.pop("level")
        return out


class WCCAlgorithm(StreamingAlgorithm):
    """Weakly connected components by min-label propagation.

    Label-correcting: a vertex may improve many times, so no edge is ever
    provably useless and ``supports_trimming`` stays False — running this on
    FastBFS exercises its graceful fallback to X-Stream behaviour.  Input
    must contain both directions of each edge (``Graph.symmetrized``).
    """

    name = "wcc"
    supports_trimming = False
    state_fields = (("label", "<u4"), ("active", "u1"))

    def init_state(self, num_vertices: int, roots=None) -> VertexState:
        state = VertexState.zeros(num_vertices, self.state_fields)
        state["label"][:] = np.arange(num_vertices, dtype=np.uint32)
        state["active"][:] = 1  # every vertex broadcasts its label once
        return state

    def scatter(self, ctx, state, src_local, src_global, dst_global):
        mask = state["active"][src_local] == 1
        updates = _make_updates(dst_global[mask], state["label"][src_local[mask]])
        return updates, mask, None

    def gather(self, ctx, state, dst_local, payload) -> int:
        before = state["label"][dst_local].copy()
        np.minimum.at(state["label"], dst_local, payload)
        improved_positions = state["label"][dst_local] < before
        improved = np.unique(dst_local[improved_positions])
        state["active"][improved] = 1
        return len(improved)

    def result(self, state):
        return {"label": state["label"].copy()}


class BatchedBFSAlgorithm(StreamingAlgorithm):
    """MS-BFS: up to :data:`BATCH_WIDTH` concurrent BFS traversals per scan.

    Per-vertex state packs one frontier bit and one visited bit per query
    into ``uint64`` mask words, plus per-query level/parent columns; the
    shared ``active`` flag (any frontier bit set) keeps the engines'
    selective scheduling working unchanged.  Scatter emits one update
    record per frontier edge carrying the *mask* of queries it serves;
    gather claims each destination per query bit with the same
    first-update-wins stream order as the serial kernel, so demultiplexed
    levels/parents are bit-identical to Q serial runs.

    Trimming generalizes the paper's rule to the batch: an edge is dead
    only when its source is visited for **every live query** (queries that
    stopped generating updates leave the liveness mask, re-arming the
    trim).  Liveness for pass *i* is exactly the OR of masks generated in
    pass *i-1*, tracked here per pass so interleaved gather(i-1)/scatter(i)
    contexts never race.
    """

    name = "batched-bfs"
    supports_trimming = True
    chunked_gather = True
    #: Per pass the two mask words round-trip through the vertex-set files
    #: (16 bytes); per-query levels/parents are written once at visit time
    #: and live with the result arrays, like the serial kernel's ``active``.
    disk_record_bytes = 16
    update_dtype = BATCH_UPDATE_DTYPE

    def __init__(
        self, num_queries: int, serial: Optional[BFSAlgorithm] = None
    ) -> None:
        if not 1 <= num_queries <= BATCH_WIDTH:
            raise EngineError(
                f"batch width must be in [1, {BATCH_WIDTH}], got {num_queries}"
            )
        self.num_queries = num_queries
        self.serial = serial if serial is not None else BFSAlgorithm()
        self.level_output_key = self.serial.level_output_key
        self.state_fields = (
            ("frontier", "<u8"),
            ("visited", "<u8"),
            ("level", "<i4", (num_queries,)),
            ("parent", "<u4", (num_queries,)),
            ("active", "u1"),
        )
        self._full_mask = np.uint64((1 << num_queries) - 1 if num_queries < 64
                                    else 0xFFFFFFFFFFFFFFFF)
        self.reset()

    def reset(self) -> None:
        """Clear per-run bookkeeping (a crash replay starts from scratch)."""
        #: OR of the masks of all updates generated during pass i.
        self._generated_mask: Dict[int, int] = {}
        #: Per-query update counts generated during pass i.
        self._updates_by_pass: Dict[int, np.ndarray] = {}
        #: Per-query vertices newly claimed at level i (gather of pass i).
        self._activated_by_pass: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------
    def init_state(self, num_vertices: int, roots) -> VertexState:
        entries = [self._check_roots(num_vertices, r) for r in roots]
        return self.init_state_validated(num_vertices, entries)

    def init_state_validated(self, num_vertices: int, roots) -> VertexState:
        """``roots`` is one entry per query slot: a root vertex or a root
        set for a multi-source slot (already validated at the boundary)."""
        slots = [np.atleast_1d(np.asarray(r, dtype=np.int64)) for r in roots]
        if len(slots) != self.num_queries:
            raise EngineError(
                f"batched kernel of width {self.num_queries} got "
                f"{len(slots)} root entries"
            )
        self.reset()
        state = VertexState.zeros(num_vertices, self.state_fields)
        state["level"][:] = UNVISITED
        state["parent"][:] = NO_PARENT
        frontier = state["frontier"]
        for q, slot_roots in enumerate(slots):
            bit = np.uint64(1 << q)
            frontier[slot_roots] |= bit
            state["level"][slot_roots, q] = 0
            state["active"][slot_roots] = 1
        state["visited"][:] = frontier
        return state

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def live_mask(self, iteration: int) -> np.uint64:
        """Queries that may still generate updates in pass ``iteration``:
        everyone at pass 0, afterwards whoever generated in the previous
        pass (a query that went silent has converged and drops out)."""
        if iteration <= 0:
            return self._full_mask
        return np.uint64(self._generated_mask.get(iteration - 1, 0))

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def scatter(self, ctx, state, src_local, src_global, dst_global):
        fmask = state["frontier"][src_local]
        sel = fmask != 0
        updates = np.empty(int(sel.sum()), dtype=BATCH_UPDATE_DTYPE)
        updates["dst"] = dst_global[sel]
        updates["payload"] = src_global[sel]
        updates["mask"] = fmask[sel]
        if len(updates):
            gen = self._generated_mask.get(ctx.iteration, 0)
            self._generated_mask[ctx.iteration] = gen | int(
                np.bitwise_or.reduce(updates["mask"])
            )
            counts = self._updates_by_pass.setdefault(
                ctx.iteration, np.zeros(self.num_queries, dtype=np.int64)
            )
            counts += mask_bit_counts(updates["mask"], self.num_queries)
        live = self.live_mask(ctx.iteration)
        if live == 0:
            eliminate = np.zeros(len(src_local), dtype=bool)
        else:
            eliminate = (state["visited"][src_local] & live) == live
        return updates, sel, eliminate

    def gather(self, ctx, state, dst_local, payload) -> int:
        """Claim every (destination, query) pair of a run of updates in
        a single pass.

        Only the query bits not yet visited at the destination can claim
        anything, so records with none are dropped first.  The survivors
        expand into (record, query) pairs in stream order; a stable unique
        over ``dst * 64 + q`` keeps the first pair per key — the serial
        kernel's first-update-wins tie-break, applied to every query at
        once.
        """
        buf = payload  # full records (see gather_payload)
        fresh = buf["mask"] & ~state["visited"][dst_local]
        keep = np.flatnonzero(fresh)
        if len(keep) == 0:
            return 0
        dst = dst_local[keep]
        bits = np.unpackbits(mask_bytes(fresh[keep]), axis=1, bitorder="little")
        rec, q = np.nonzero(bits)  # row-major: stream order, then query
        _, first = np.unique(dst[rec] * BATCH_WIDTH + q, return_index=True)
        rec, q = rec[first], q[first]
        v = dst[rec]  # ascending: the unique keys sort by vertex first
        level = ctx.iteration + 1
        state["level"][v, q] = level
        state["parent"][v, q] = buf["payload"][keep[rec]]
        starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
        claimed = np.bitwise_or.reduceat(
            np.left_shift(np.uint64(1), q.astype(np.uint64)), starts
        )
        v = v[starts]
        state["visited"][v] |= claimed
        state["frontier"][v] |= claimed
        state["active"][v] = 1
        per_q = self._activated_by_pass.setdefault(
            level, np.zeros(self.num_queries, dtype=np.int64)
        )
        per_q += np.bincount(q, minlength=self.num_queries)
        return len(q)

    def after_partition_scatter(self, ctx, state) -> None:
        state["frontier"][:] = 0

    def extended_eliminate(self, state, src_local, base_mask):
        """The batch rule is already liveness-aware; nothing to widen."""
        return base_mask

    def gather_payload(self, buf: np.ndarray) -> np.ndarray:
        return buf

    def update_weights(self, updates: np.ndarray) -> np.ndarray:
        return popcounts64(updates["mask"])

    def result(self, state):
        return {
            "level": state["level"].copy(),
            "parent": state["parent"].copy(),
        }

    # ------------------------------------------------------------------
    # per-query demultiplexing (consumed by BatchedQuerySession)
    # ------------------------------------------------------------------
    def per_query_updates(self, iteration: int) -> np.ndarray:
        """Updates generated for each query during ``iteration``."""
        counts = self._updates_by_pass.get(iteration)
        if counts is None:
            return np.zeros(self.num_queries, dtype=np.int64)
        return counts

    def per_query_activated(self, iteration: int) -> np.ndarray:
        """Vertices newly claimed at level ``iteration`` for each query."""
        counts = self._activated_by_pass.get(iteration)
        if counts is None:
            return np.zeros(self.num_queries, dtype=np.int64)
        return counts

    def query_iterations(self, q: int, num_passes: int) -> int:
        """How many passes a serial run of slot ``q`` would have executed:
        its last generating pass plus the draining gather pass, or the
        single silent scatter pass when the slot never generated."""
        last = -1
        for i in range(num_passes):
            if self.per_query_updates(i)[q] > 0:
                last = i
        return last + 2 if last >= 0 else 1

    def query_output(self, state: VertexState, q: int) -> Dict[str, np.ndarray]:
        """Demultiplex slot ``q``'s result arrays (serial key names)."""
        return {
            self.level_output_key: state["level"][:, q].copy(),
            "parent": state["parent"][:, q].copy(),
        }

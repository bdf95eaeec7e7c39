"""Unit tests for the scatter/gather algorithm kernels."""

import gc
import weakref

import numpy as np
import pytest

from repro.algorithms.streaming import (
    AlgoContext,
    BatchedBFSAlgorithm,
    BFSAlgorithm,
    UnitSSSPAlgorithm,
    WCCAlgorithm,
)
from repro.errors import EngineError
from repro.graph.types import NO_PARENT, UNVISITED


class TestVertexState:
    def test_columns_are_contiguous_and_slices_are_views(self):
        algo = BatchedBFSAlgorithm(3)
        state = algo.init_state(6, [[0], [1], [2]])
        assert state["frontier"].flags.c_contiguous
        assert state["level"].shape == (6, 3)
        part = state[2:5]
        part["level"][0, 1] = 7
        part["active"][:] = 1
        assert state["level"][2, 1] == 7
        assert state["active"].tolist() == [1, 1, 1, 1, 1, 0]
        assert "visited" in state and "missing" not in state
        assert all(name in state for name, *_ in algo.state_fields)

    def test_freed_without_the_cycle_collector(self):
        """No reference cycle: a batch's state goes with its last reference,
        not at the next garbage collection."""
        gc.disable()
        try:
            state = BatchedBFSAlgorithm(64).init_state(10, [[0]] * 64)
            column = weakref.ref(state["level"])
            view = state[3:7]
            del state, view
            assert column() is None
        finally:
            gc.enable()


class TestBFSInit:
    def test_init_state(self):
        algo = BFSAlgorithm()
        state = algo.init_state(5, [2])
        assert state["level"].tolist() == [-1, -1, 0, -1, -1]
        assert state["active"].tolist() == [0, 0, 1, 0, 0]
        assert state["parent"][2] == NO_PARENT

    def test_multiple_roots(self):
        state = BFSAlgorithm().init_state(4, [0, 3])
        assert state["active"].sum() == 2

    def test_root_out_of_range(self):
        with pytest.raises(EngineError):
            BFSAlgorithm().init_state(3, [3])

    def test_no_roots(self):
        with pytest.raises(EngineError):
            BFSAlgorithm().init_state(3, [])

    def test_trimming_supported(self):
        assert BFSAlgorithm.supports_trimming is True


class TestBFSScatter:
    def test_only_active_sources_generate(self):
        algo = BFSAlgorithm()
        state = algo.init_state(4, [1])
        src_local = np.array([0, 1, 1, 2])
        src_global = np.array([0, 1, 1, 2], dtype=np.uint32)
        dst_global = np.array([9, 5, 6, 7], dtype=np.uint32)
        updates, emitted, eliminate = algo.scatter(
            AlgoContext(0), state, src_local, src_global, dst_global
        )
        assert updates["dst"].tolist() == [5, 6]
        assert updates["payload"].tolist() == [1, 1]  # parent = source
        assert emitted.tolist() == [False, True, True, False]
        assert eliminate.tolist() == [False, True, True, False]

    def test_generate_implies_eliminate(self):
        """Paper §II-C1: an edge that generates an update is dead."""
        algo = BFSAlgorithm()
        state = algo.init_state(8, [0])
        src_local = np.arange(8)
        src_global = src_local.astype(np.uint32)
        dst_global = ((src_local + 1) % 8).astype(np.uint32)
        updates, emitted, eliminate = algo.scatter(
            AlgoContext(0), state, src_local, src_global, dst_global
        )
        assert int(eliminate.sum()) == len(updates) == int(emitted.sum())

    def test_extended_eliminate_drops_visited_sources(self):
        algo = BFSAlgorithm()
        state = algo.init_state(4, [0])
        state["level"][1] = 3  # visited earlier, not active
        src_local = np.array([0, 1, 2])
        base = np.array([True, False, False])
        extended = algo.extended_eliminate(state, src_local, base)
        assert extended.tolist() == [True, True, False]


class TestBFSGather:
    def test_first_update_wins(self):
        algo = BFSAlgorithm()
        state = algo.init_state(4, [0])
        state["active"][:] = 0
        dst_local = np.array([2, 2, 3])
        payload = np.array([7, 8, 9], dtype=np.uint32)
        activated = algo.gather(AlgoContext(1), state, dst_local, payload)
        assert activated == 2
        assert state["level"][2] == 2  # iteration + 1
        assert state["parent"][2] == 7  # stream order: first wins
        assert state["parent"][3] == 9
        assert state["active"][2] == 1

    def test_visited_vertices_ignored(self):
        algo = BFSAlgorithm()
        state = algo.init_state(3, [0])
        activated = algo.gather(
            AlgoContext(4), state, np.array([0]), np.array([2], dtype=np.uint32)
        )
        assert activated == 0
        assert state["level"][0] == 0  # unchanged
        assert state["parent"][0] == NO_PARENT

    def test_empty_updates(self):
        algo = BFSAlgorithm()
        state = algo.init_state(3, [0])
        assert algo.gather(
            AlgoContext(0), state, np.array([], dtype=np.int64),
            np.array([], dtype=np.uint32),
        ) == 0

    def test_result_copies(self):
        algo = BFSAlgorithm()
        state = algo.init_state(3, [0])
        out = algo.result(state)
        out["level"][0] = 99
        assert state["level"][0] == 0


class TestUnitSSSP:
    def test_result_key_is_distance(self):
        algo = UnitSSSPAlgorithm()
        state = algo.init_state(3, [0])
        out = algo.result(state)
        assert "distance" in out and "level" not in out

    def test_same_traversal_as_bfs(self):
        assert UnitSSSPAlgorithm.supports_trimming is True


class TestWCC:
    def test_init_all_active_own_label(self):
        algo = WCCAlgorithm()
        state = algo.init_state(4)
        assert state["label"].tolist() == [0, 1, 2, 3]
        assert state["active"].all()

    def test_no_trimming(self):
        assert WCCAlgorithm.supports_trimming is False

    def test_scatter_broadcasts_labels(self):
        algo = WCCAlgorithm()
        state = algo.init_state(3)
        updates, emitted, eliminate = algo.scatter(
            AlgoContext(0),
            state,
            np.array([0, 2]),
            np.array([0, 2], dtype=np.uint32),
            np.array([1, 1], dtype=np.uint32),
        )
        assert eliminate is None
        assert emitted.tolist() == [True, True]
        assert updates["payload"].tolist() == [0, 2]

    def test_gather_takes_min(self):
        algo = WCCAlgorithm()
        state = algo.init_state(4)
        state["active"][:] = 0
        activated = algo.gather(
            AlgoContext(0),
            state,
            np.array([3, 3, 2]),
            np.array([1, 0, 5], dtype=np.uint32),
        )
        assert state["label"][3] == 0
        assert state["label"][2] == 2  # 5 is not an improvement
        assert activated == 1
        assert state["active"][3] == 1
        assert state["active"][2] == 0

    def test_gather_duplicate_improvements_counted_once(self):
        algo = WCCAlgorithm()
        state = algo.init_state(3)
        state["active"][:] = 0
        activated = algo.gather(
            AlgoContext(0),
            state,
            np.array([2, 2]),
            np.array([0, 1], dtype=np.uint32),
        )
        assert activated == 1
        assert state["label"][2] == 0

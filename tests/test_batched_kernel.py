"""Kernel-level differential test for the MS-BFS gather.

``BatchedBFSAlgorithm.gather`` claims every (destination, query) pair of an
update buffer in one vectorized pass.  The oracle below is the plain
per-query formulation: for each query bit, keep the updates that carry it,
drop destinations already visited by that query, and let the first update
per destination win.  Both are fed the same random buffers — heavy
duplicate destinations, partially pre-visited vertices, masks using the top
bit — and must leave identical return values, state arrays and per-query
activation counts.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.streaming import (
    BATCH_UPDATE_DTYPE,
    AlgoContext,
    BatchedBFSAlgorithm,
)


def per_query_gather(algo, ctx, state, dst_local, buf) -> int:
    """One query bit at a time: the reference semantics of the gather."""
    masks = buf["mask"]
    level = ctx.iteration + 1
    activated = 0
    for q in range(algo.num_queries):
        bit = np.uint64(1 << q)
        has = (masks & bit) != 0
        dst = dst_local[has]
        fresh = (state["visited"][dst] & bit) == 0
        if not fresh.any():
            continue
        dst = dst[fresh]
        parents = buf["payload"][has][fresh]
        uniq, first_idx = np.unique(dst, return_index=True)
        state["visited"][uniq] |= bit
        state["frontier"][uniq] |= bit
        state["level"][uniq, q] = level
        state["parent"][uniq, q] = parents[first_idx]
        state["active"][uniq] = 1
        activated += len(uniq)
        per_q = algo._activated_by_pass.setdefault(
            level, np.zeros(algo.num_queries, dtype=np.int64)
        )
        per_q[q] += len(uniq)
    return activated


def _full(num_queries: int) -> int:
    return (1 << num_queries) - 1


@st.composite
def gather_cases(draw):
    q = draw(st.sampled_from([1, 2, 63, 64]))
    full = _full(q)
    n = draw(st.integers(1, 40))
    lo = draw(st.integers(0, 5))  # gather sees a partition view state[lo:]
    mask = st.one_of(
        st.integers(0, full),
        st.just(full),
        st.just(1 << (q - 1)),
        st.sampled_from([1 << b for b in range(q)]),
    )
    visited = draw(
        st.lists(st.one_of(st.just(0), mask), min_size=n, max_size=n)
    )
    # Few distinct destinations per buffer, so duplicates are the norm.
    hot = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    record = st.tuples(st.sampled_from(hot), st.integers(0, 2**32 - 1), mask)
    buffers = draw(
        st.lists(st.lists(record, max_size=120), min_size=1, max_size=3)
    )
    iteration = draw(st.integers(0, 5))
    return q, n, lo, visited, buffers, iteration


def _initial_state(algo, n, lo, visited):
    state = algo.init_state_validated(lo + n, [[0]] * algo.num_queries)
    state["visited"][lo:] = np.array(visited, dtype=np.uint64)
    state["frontier"][lo:] = 0
    state["active"][:] = 0
    return state


def _buffer(records) -> np.ndarray:
    buf = np.empty(len(records), dtype=BATCH_UPDATE_DTYPE)
    if records:
        dst, payload, mask = zip(*records)
        buf["dst"] = dst
        buf["payload"] = payload
        buf["mask"] = np.array(mask, dtype=np.uint64)
    return buf


@settings(max_examples=200, deadline=None)
@given(gather_cases())
def test_gather_matches_per_query_oracle(case):
    q, n, lo, visited, buffers, iteration = case
    kernel = BatchedBFSAlgorithm(q)
    oracle = BatchedBFSAlgorithm(q)
    got = _initial_state(kernel, n, lo, visited)
    want = _initial_state(oracle, n, lo, visited)
    ctx = AlgoContext(iteration=iteration)
    for records in buffers:
        buf = _buffer(records)
        dst_local = buf["dst"].astype(np.int64)
        got_n = kernel.gather(ctx, got[lo:], dst_local, buf)
        want_n = per_query_gather(oracle, ctx, want[lo:], dst_local, buf)
        assert got_n == want_n
    for field in ("visited", "frontier", "level", "parent", "active"):
        assert np.array_equal(got[field], want[field]), field
    assert np.array_equal(
        kernel.per_query_activated(iteration + 1),
        oracle.per_query_activated(iteration + 1),
    )
    assert kernel._activated_by_pass.keys() == oracle._activated_by_pass.keys()


def test_first_update_wins_per_query():
    algo = BatchedBFSAlgorithm(64)
    state = _initial_state(algo, 4, 0, [0, 0, 0, 1 << 63])
    top = 1 << 63
    buf = _buffer([
        (3, 10, top | 1),  # bit 63 already visited at 3; bit 0 claims
        (2, 11, 1),
        (2, 12, 1 | 2),  # bit 0 lost to payload 11; bit 1 claims
        (2, 13, top),
        (2, 14, top | 2),  # both bits already claimed in this buffer
    ])
    dst_local = buf["dst"].astype(np.int64)
    claimed = algo.gather(AlgoContext(iteration=1), state, dst_local, buf)
    assert claimed == 4
    assert state["parent"][2, [0, 1, 63]].tolist() == [11, 12, 13]
    assert state["parent"][3, 0] == 10
    assert state["level"][2, [0, 1, 63]].tolist() == [2, 2, 2]
    assert int(state["visited"][2]) == top | 3
    assert int(state["frontier"][3]) == 1
    assert state["active"].tolist() == [0, 0, 1, 1]
    assert algo.per_query_activated(2)[[0, 1, 63]].tolist() == [2, 1, 1]


def test_gather_of_nothing_fresh_claims_nothing():
    algo = BatchedBFSAlgorithm(2)
    state = _initial_state(algo, 3, 0, [3, 3, 3])
    fields = [name for name, *_ in algo.state_fields]
    before = {field: state[field].copy() for field in fields}
    buf = _buffer([(0, 5, 3), (2, 6, 1)])
    assert algo.gather(AlgoContext(0), state, buf["dst"].astype(np.int64), buf) == 0
    empty = _buffer([])
    assert algo.gather(AlgoContext(0), state, empty["dst"].astype(np.int64), empty) == 0
    for field in fields:
        assert np.array_equal(state[field], before[field]), field
    assert algo._activated_by_pass == {}

"""Tests for vertex-interval partitioning (paper §II-B invariants)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.graph.partition import VertexPartitioning, plan_partition_count
from repro.utils.units import MB


class TestPartitioning:
    def test_ranges_cover_disjointly(self):
        part = VertexPartitioning(100, 7)
        seen = []
        for p in part:
            lo, hi = part.range_of(p)
            seen.extend(range(lo, hi))
        assert seen == list(range(100))

    def test_balanced_sizes(self):
        part = VertexPartitioning(100, 7)
        sizes = [part.size_of(p) for p in part]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 100

    def test_single_partition(self):
        part = VertexPartitioning(10, 1)
        assert part.range_of(0) == (0, 10)

    def test_count_clamped_to_vertices(self):
        part = VertexPartitioning(3, 10)
        assert part.count == 3

    def test_partition_of_matches_ranges(self):
        part = VertexPartitioning(50, 4)
        ids = np.arange(50)
        owners = part.partition_of(ids)
        for p in part:
            lo, hi = part.range_of(p)
            assert (owners[lo:hi] == p).all()

    def test_partition_of_boundaries(self):
        part = VertexPartitioning(10, 2)
        assert part.partition_of(np.array([0])).tolist() == [0]
        assert part.partition_of(np.array([4])).tolist() == [0]
        assert part.partition_of(np.array([5])).tolist() == [1]
        assert part.partition_of(np.array([9])).tolist() == [1]

    def test_bad_args(self):
        with pytest.raises(PartitionError):
            VertexPartitioning(0, 1)
        with pytest.raises(PartitionError):
            VertexPartitioning(10, 0)
        with pytest.raises(PartitionError):
            VertexPartitioning(10, 2).range_of(2)

    @given(
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_disjoint_cover(self, n, count):
        part = VertexPartitioning(n, count)
        boundaries = part.boundaries
        assert boundaries[0] == 0
        assert boundaries[-1] == n
        assert (np.diff(boundaries) >= 1).all()


class TestSplitByPartition:
    def test_groups_updates_by_owner(self):
        part = VertexPartitioning(100, 4)
        rng = np.random.default_rng(1)
        dst = rng.integers(0, 100, 1000)
        payload = rng.integers(0, 100, 1000).astype(np.uint32)
        total = 0
        for p, (dst_p, payload_p) in part.split_by_partition(dst, payload):
            lo, hi = part.range_of(p)
            assert ((dst_p >= lo) & (dst_p < hi)).all()
            assert len(dst_p) == len(payload_p)
            total += len(dst_p)
        assert total == 1000

    def test_stable_within_partition(self):
        """Update order within a partition must follow stream order (the
        first update to reach a vertex claims it)."""
        part = VertexPartitioning(10, 2)
        dst = np.array([1, 6, 2, 1, 7, 0])
        tag = np.arange(6)
        groups = dict(part.split_by_partition(dst, tag))
        assert groups[0][1].tolist() == [0, 2, 3, 5]  # original order kept
        assert groups[1][1].tolist() == [1, 4]

    def test_empty_partitions_skipped(self):
        part = VertexPartitioning(100, 10)
        dst = np.array([5, 5, 5])
        groups = list(part.split_by_partition(dst))
        assert len(groups) == 1
        assert groups[0][0] == 0

    def test_empty_input(self):
        part = VertexPartitioning(10, 2)
        assert list(part.split_by_partition(np.array([], dtype=np.int64))) == []
        single = VertexPartitioning(10, 1)
        assert list(single.split_by_partition(np.array([], dtype=np.int64))) == []

    def test_single_partition_routes_inputs_uncopied(self):
        part = VertexPartitioning(50, 1)
        dst = np.array([7, 3, 49, 0, 3], dtype=np.uint32)
        records = np.zeros(5, dtype=[("dst", "<u4"), ("payload", "<u4")])
        [(p, (dst_p, records_p))] = part.split_by_partition(dst, records)
        assert p == 0
        assert dst_p is dst and records_p is records

    @settings(max_examples=150, deadline=None)
    @given(
        count=st.sampled_from([1, 2, 3, 7]),
        dst=st.lists(st.integers(0, 39), max_size=60),
    )
    def test_matches_per_partition_oracle(self, count, dst):
        """Every partition count, the single-partition fast path included,
        yields each owner's elements in stream order."""
        part = VertexPartitioning(40, count)
        dst = np.array(dst, dtype=np.uint32)
        tag = np.arange(len(dst))
        got = [(p, d.tolist(), t.tolist()) for p, (d, t) in part.split_by_partition(dst, tag)]
        want = []
        for p in part:
            lo, hi = part.range_of(p)
            sel = (dst >= lo) & (dst < hi)
            if sel.any():
                want.append((p, dst[sel].tolist(), tag[sel].tolist()))
        assert got == want


class TestPlanPartitionCount:
    def test_fits_in_budget(self):
        # 1M vertices * 8B = 8MB of vertex state; 25% of 16MB = 4MB budget.
        count = plan_partition_count(10**6, 8, 16 * MB, 0.25)
        assert count == 2

    def test_minimum_one(self):
        assert plan_partition_count(10, 8, 16 * MB) == 1

    def test_scales_inversely_with_memory(self):
        big = plan_partition_count(10**6, 8, 32 * MB, 0.25)
        small = plan_partition_count(10**6, 8, 8 * MB, 0.25)
        assert small > big

    def test_rejects_infeasible(self):
        with pytest.raises(PartitionError):
            plan_partition_count(10**9, 8, 1024, 0.25, max_partitions=100)

    def test_rejects_bad_budget(self):
        with pytest.raises(PartitionError):
            plan_partition_count(10, 8, 0)
        with pytest.raises(PartitionError):
            plan_partition_count(10, 8, MB, vertex_memory_fraction=0.0)

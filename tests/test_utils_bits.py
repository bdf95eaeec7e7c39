"""Tests for the MS-BFS bit primitives, on both popcount code paths.

``popcount64`` uses ``np.bitwise_count`` when numpy has it and a byte table
otherwise; the ``fallback`` fixture parameter forces the table so either
numpy major version covers both paths.  Results feed the cost model, so
they are checked for exact equality against an ``np.unpackbits`` oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.streaming import BATCH_UPDATE_DTYPE
from repro.utils import bits

ALL_ONES = 0xFFFFFFFFFFFFFFFF


@pytest.fixture(params=["native", "byte-table"])
def path(request, monkeypatch):
    if request.param == "byte-table":
        monkeypatch.setattr(bits, "_bitwise_count", None)
    elif bits._bitwise_count is None:
        pytest.skip("numpy < 2.0 has no bitwise_count")
    return request.param


def _oracle_bits(masks) -> np.ndarray:
    """(n, 64) matrix; column q is bit q of each mask."""
    flat = np.ascontiguousarray(masks, dtype="<u8")
    return np.unpackbits(
        flat.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    )


def _masks(values) -> np.ndarray:
    return np.array(values, dtype=np.uint64)


def _as_field(values) -> np.ndarray:
    """The same masks as a strided structured-field view, as engines pass."""
    updates = np.zeros(len(values), dtype=BATCH_UPDATE_DTYPE)
    updates["dst"] = np.arange(len(values))
    updates["mask"] = _masks(values)
    return updates["mask"]


CASES = {
    "empty": [],
    "zero": [0],
    "bit63": [1 << 63],
    "all-ones": [ALL_ONES] * 3,
    "mixed": [1, 1 << 63, ALL_ONES, 0x5555555555555555, 0x8000000000000001],
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("view", [_masks, _as_field], ids=["array", "field"])
def test_popcount_matches_oracle(path, name, view):
    masks = view(CASES[name])
    assert bits.popcount64(masks) == int(_oracle_bits(masks).sum())
    per_mask = bits.popcounts64(masks)
    assert per_mask.tolist() == _oracle_bits(masks).sum(axis=1).tolist()


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("view", [_masks, _as_field], ids=["array", "field"])
@pytest.mark.parametrize("width", [1, 2, 9, 63, 64])
def test_mask_bit_counts_matches_oracle(name, view, width):
    masks = view(CASES[name])
    got = bits.mask_bit_counts(masks, width)
    want = _oracle_bits(masks).sum(axis=0, dtype=np.int64)[:width]
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()


def test_known_values(path):
    assert bits.popcount64(_masks([])) == 0
    assert bits.popcount64(_masks([1 << 63])) == 1
    assert bits.popcount64(_masks([ALL_ONES] * 3)) == 192
    assert bits.mask_bit_counts(_masks([1 << 63, ALL_ONES]), 64)[63] == 2
    assert bits.mask_bit_counts(_masks([]), 5).tolist() == [0] * 5


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, ALL_ONES), max_size=300), st.booleans())
def test_random_masks_match_oracle(values, force_table):
    masks = _as_field(values)
    want = _oracle_bits(masks)
    saved = bits._bitwise_count
    try:
        if force_table:
            bits._bitwise_count = None
        assert bits.popcount64(masks) == int(want.sum())
    finally:
        bits._bitwise_count = saved
    assert bits.mask_bit_counts(masks, 64).tolist() == want.sum(axis=0).tolist()

"""Bit-manipulation primitives for the MS-BFS batched kernels.

Lives in ``utils`` (not ``engines``) so both the algorithm kernels and the
cost model can use it without an import cycle.
"""

from __future__ import annotations

import numpy as np

#: ``np.bitwise_count`` (numpy >= 2.0), or ``None`` on older numpy, where
#: :func:`popcount64` falls back to the byte table below.
_bitwise_count = getattr(np, "bitwise_count", None)

#: ``_BYTE_BITS[v, j]`` is bit ``j`` of byte value ``v`` (least significant
#: first), so a histogram of byte values times this table counts each bit.
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.int64)

#: Set bits per byte value.
_BYTE_POPCOUNT = _BYTE_BITS.sum(axis=1).astype(np.uint8)


def mask_bytes(masks: np.ndarray) -> np.ndarray:
    """``(n, 8)`` little-endian bytes of ``uint64`` masks; byte ``b`` of a
    row holds bits ``8b .. 8b+7``, so unpacking a row with
    ``bitorder="little"`` lists bits ``0..63`` in order."""
    return np.ascontiguousarray(masks, dtype="<u8").view(np.uint8).reshape(-1, 8)


def popcount64(masks: np.ndarray) -> int:
    """Total set bits across an array of ``uint64`` liveness masks.

    One set bit = one serial-equivalent unit of per-query update work; the
    batched kernels use this to weight shuffle/gather cost charging (see
    ``repro.engines.costs``).
    """
    if len(masks) == 0:
        return 0
    if _bitwise_count is not None:
        return int(_bitwise_count(np.asarray(masks, dtype=np.uint64))
                   .sum(dtype=np.int64))
    return int(_BYTE_POPCOUNT[mask_bytes(masks)].sum(dtype=np.int64))


def mask_bit_counts(masks: np.ndarray, width: int) -> np.ndarray:
    """Per-bit set counts over ``uint64`` masks, for bits ``0..width-1``.

    Column ``q`` is how many masks carry query ``q``'s bit — the per-query
    update counts a batched scatter pass generated.  Each byte column that
    holds a requested bit is histogrammed once, and the histogram is
    weighted by the bits of every byte value, so no per-bit matrix is ever
    built.
    """
    if len(masks) == 0:
        return np.zeros(width, dtype=np.int64)
    columns = mask_bytes(masks).T[: (width + 7) // 8]
    counts = np.stack(
        [np.bincount(col, minlength=256) @ _BYTE_BITS for col in columns]
    )
    return counts.reshape(-1)[:width]

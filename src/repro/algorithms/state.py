"""Column-store vertex state for the streaming kernels.

Every per-vertex field lives in its own contiguous array, so a kernel's
``state["frontier"][src_local]`` gathers from a dense ``uint64`` column
instead of striding over whole records (a 64-query batched record is 529
bytes wide).  Frontier and visited sets as dense arrays is also the layout
Buluç et al. (arXiv 1705.04590) recommend for BFS.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np


class VertexState:
    """Per-vertex fields stored as columns.

    ``state[name]`` is one field's array (axis 0 is the vertex);
    ``state[lo:hi]`` is a :class:`VertexState` of views of every column
    over that vertex range, so a partition's kernel writes land in the
    whole-graph state.  The object holds only its column dict: it forms no
    reference cycle and is freed as soon as the last reference goes.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
        self._columns = columns

    @classmethod
    def zeros(cls, num_vertices: int, fields: Sequence[Tuple]) -> "VertexState":
        """Zero-filled columns for a schema of ``(name, dtype)`` entries, or
        ``(name, dtype, shape)`` for a per-vertex sub-array."""
        columns = {}
        for name, dtype, *shape in fields:
            sub = tuple(shape[0]) if shape else ()
            columns[name] = np.zeros((num_vertices,) + sub, dtype=dtype)
        return cls(columns)

    def __getitem__(self, key):
        if isinstance(key, str):
            return self._columns[key]
        if isinstance(key, slice):
            return VertexState(
                {name: col[key] for name, col in self._columns.items()}
            )
        raise TypeError(
            f"VertexState indices are field names or vertex slices, "
            f"not {type(key).__name__}"
        )

    def __contains__(self, name: object) -> bool:
        return name in self._columns

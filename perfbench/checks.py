"""Correctness checks the benchmark applies to every answer it times."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.reference import bfs_levels
from repro.algorithms.sssp import hash_weights, reference_sssp
from repro.algorithms.validation import validate_bfs_result
from repro.graph.csr import CSRGraph
from repro.graph.types import NO_PARENT, UNVISITED


class BFSChecker:
    """Validates BFS answers (levels and parents) on one graph.

    Levels go through :func:`validate_bfs_result` against the
    :func:`bfs_levels` reference (Graph500 rules 1, 2, 4 and 5).  The parent
    tree (rule 3 and the one-level-down rule) is checked here against an
    edge-key index sorted once per graph: the library check rebuilds that
    index on every call, which costs ~0.3 s per answer at 0.5M edges and
    would make validating every answer of a run take minutes.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        self.csr = CSRGraph.from_graph(graph)
        n = np.uint64(graph.num_vertices)
        self._keys = np.sort(
            graph.edges["src"].astype(np.uint64) * n
            + graph.edges["dst"].astype(np.uint64)
        )

    def check(self, root: int, levels, parents) -> Optional[str]:
        """None when the answer is right, else a short description."""
        levels = np.asarray(levels)
        report = validate_bfs_result(
            self.graph, root, levels, reference_levels=bfs_levels(self.csr, root)
        )
        if not report.ok:
            return "; ".join(report.errors[:3])
        return self._check_parents(root, levels, np.asarray(parents))

    def _check_parents(self, root: int, levels, parents) -> Optional[str]:
        n = self.graph.num_vertices
        if parents.shape != (n,):
            return f"parents shape {parents.shape} != ({n},)"
        visited = levels != UNVISITED
        tree = visited.copy()
        tree[root] = False
        has_parent = parents != NO_PARENT
        if (tree & ~has_parent).any():
            return "visited non-root vertex without a parent"
        if (has_parent & ~visited).any():
            return "unvisited vertex claims a parent"
        child = np.flatnonzero(tree)
        parent = parents[child].astype(np.int64)
        if (parent >= n).any():
            return "parent id out of range"
        if (levels[parent] != levels[child] - 1).any():
            return "tree edges don't descend one level"
        keys = parent.astype(np.uint64) * np.uint64(n) + child.astype(np.uint64)
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        if not (self._keys[pos] == keys).all():
            return "claimed tree edges are not graph edges"
        return None


def check_sssp(graph, root: int, distances, max_weight: int = 8) -> Optional[str]:
    """Compare SSSP distances with the Bellman-Ford oracle."""
    expected = reference_sssp(graph, root, hash_weights(max_weight))
    got = np.asarray(distances, dtype=np.int64)
    if got.shape != expected.shape:
        return f"distances shape {got.shape} != {expected.shape}"
    if not np.array_equal(got, expected.astype(np.int64)):
        return f"distances differ from reference at {int((got != expected).sum())} vertices"
    return None

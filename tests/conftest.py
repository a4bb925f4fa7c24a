"""Shared fixtures: small deterministic graphs and workloads.

Tests avoid the full dataset twins (seconds of generation/partitioning
each) and instead use scaled-down synthetic graphs that exercise the
same code paths in milliseconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.csr import Graph
from repro.graph.generators import planted_partition, rmat


@pytest.fixture(scope="session")
def small_graph() -> Graph:
    """~300 vertices, power-law-ish, dense enough to cut everywhere."""
    return rmat(300, 2400, seed=3)


@pytest.fixture(scope="session")
def community_graph() -> Graph:
    """Planted-partition graph the partitioner should cut cleanly."""
    return planted_partition(400, 3200, num_communities=8, p_intra=0.9, seed=5)


@pytest.fixture()
def tiny_graph() -> Graph:
    """The hand-checkable 6-vertex example used in relation tests."""
    #    0 -> 1, 0 -> 2, 1 -> 2, 2 -> 3, 3 -> 4, 4 -> 5, 5 -> 0, 1 -> 4
    src = np.array([0, 0, 1, 2, 3, 4, 5, 1])
    dst = np.array([1, 2, 2, 3, 4, 5, 0, 4])
    return Graph(src, dst, 6)


def assert_valid_assignment(assignment: np.ndarray, num_vertices: int,
                            num_parts: int) -> None:
    assert assignment.shape == (num_vertices,)
    assert assignment.min() >= 0
    assert assignment.max() < num_parts


#: Label corruptions every trainer must reject at construction.
BAD_LABELS = ["negative", "num_classes", "float"]


def corrupt_labels(labels: np.ndarray, kind: str, num_classes: int) -> np.ndarray:
    """A copy of ``labels`` with one bad entry (or a bad dtype)."""
    if kind == "float":
        return labels.astype(np.float64)
    bad = labels.copy()
    bad[len(bad) // 2] = -1 if kind == "negative" else num_classes
    return bad

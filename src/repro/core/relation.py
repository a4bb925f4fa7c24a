"""Communication relation and per-device local graphs (paper §4.1).

Given a partitioned data graph, this module computes everything the
planner and the runtime need to know about *who needs whose embeddings*:

* per device ``d``: its local vertices ``V_l(d)``, its remote vertices
  ``V_r(d)`` (in-neighbors of local vertices living elsewhere) and its
  local edge set ``E(d)``;
* per device pair ``(d_i, d_j)``: the tuple ``(d_i, d_j, V_ij)`` listing
  the vertex embeddings ``d_i`` must ship to ``d_j``;
* per vertex ``u``: its source GPU ``s_u`` and destination set ``D_u`` —
  grouped into *multicast classes* (vertices sharing the same source and
  destination set), the unit the fast planner iterates over;
* the re-indexed local graph ``G_d`` that lets an unmodified single-GPU
  GNN system train on the partition (local vertices first, then remote).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import PartitionSpecError
from repro.graph.csr import Graph

__all__ = ["MulticastClass", "LocalGraph", "CommRelation"]


@dataclass(frozen=True)
class MulticastClass:
    """Vertices sharing one (source device, destination set) signature."""

    source: int
    destinations: Tuple[int, ...]
    vertices: np.ndarray  # global vertex ids, sorted

    @property
    def size(self) -> int:
        return int(self.vertices.size)


@dataclass(frozen=True)
class LocalGraph:
    """The graph a single device trains on, in device-local indices.

    Row layout of every embedding matrix on the device: the ``num_local``
    local vertices first (sorted by global id), then the ``num_remote``
    remote vertices (sorted by global id).  ``graph`` contains every edge
    whose head is local, with endpoints in this local numbering, so a
    single-GPU GNN aggregation over it is exactly the distributed layer.
    """

    device: int
    graph: Graph
    global_ids: np.ndarray  # local row -> global vertex id
    num_local: int
    num_remote: int

    def local_rows(self, global_vertices: np.ndarray) -> np.ndarray:
        """Rows of ``global_vertices`` in this device's embedding layout."""
        idx = np.searchsorted(self.global_ids[: self.num_local], global_vertices)
        local_hit = (idx < self.num_local) & (
            self.global_ids[np.minimum(idx, self.num_local - 1)] == global_vertices
        )
        rows = np.empty(global_vertices.size, dtype=np.int64)
        rows[local_hit] = idx[local_hit]
        remote = ~local_hit
        if remote.any():
            remote_ids = self.global_ids[self.num_local :]
            ridx = np.searchsorted(remote_ids, global_vertices[remote])
            if (ridx >= remote_ids.size).any() or (
                remote_ids[ridx] != global_vertices[remote]
            ).any():
                raise KeyError("vertex not present on device")
            rows[remote] = ridx + self.num_local
        return rows


def _checked_labels(
    assignment: np.ndarray, num_vertices: int, num_devices: int
) -> np.ndarray:
    """``assignment`` as int64 device labels, or :class:`PartitionSpecError`.

    Every vertex needs exactly one label, and every label must be an
    integral device id in ``[0, num_devices)``: a negative label would
    drop its vertex from every device, a fractional one would be
    silently truncated.
    """
    labels = np.asarray(assignment)
    if labels.ndim != 1 or labels.size != num_vertices:
        raise PartitionSpecError(
            f"assignment must label every vertex: expected shape "
            f"({num_vertices},), got {labels.shape}"
        )
    if not labels.size:
        return labels.astype(np.int64)
    if labels.dtype.kind == "f":
        if not (np.isfinite(labels).all() and (labels == np.floor(labels)).all()):
            raise PartitionSpecError(
                "assignment labels must be integral device ids"
            )
    elif labels.dtype.kind not in "iu":
        raise PartitionSpecError(
            f"assignment labels must be integral device ids, "
            f"got dtype {labels.dtype}"
        )
    low, high = labels.min(), labels.max()
    if low < 0 or high >= num_devices:
        raise PartitionSpecError(
            f"assignment references an unknown device: labels span "
            f"[{low}, {high}], devices are 0..{num_devices - 1}"
        )
    return labels.astype(np.int64, copy=False)


class CommRelation:
    """The full communication relation of a partitioned graph."""

    def __init__(self, graph: Graph, assignment: np.ndarray, num_devices: int) -> None:
        assignment = _checked_labels(assignment, graph.num_vertices, num_devices)
        self.graph = graph
        self.assignment = assignment
        self.num_devices = num_devices

        src, dst = graph.edges
        src_dev = assignment[src] if src.size else np.empty(0, np.int64)
        dst_dev = assignment[dst] if dst.size else np.empty(0, np.int64)
        cross = src_dev != dst_dev

        # (sender vertex, consumer device) pairs, unique.
        cu = src[cross]
        cd = dst_dev[cross]
        if cu.size:
            code = cu * np.int64(num_devices) + cd
            code = np.unique(code)
            cu = code // num_devices
            cd = code % num_devices
        self._cross_vertex = cu  # sorted by (vertex, consumer device)
        self._cross_consumer = cd

        # Local vertices per device.
        self.local_vertices: List[np.ndarray] = [
            np.flatnonzero(assignment == d) for d in range(num_devices)
        ]

        # Send sets V_ij and remote sets V_r(d).
        self._send: Dict[Tuple[int, int], np.ndarray] = {}
        if cu.size:
            pair_code = assignment[cu] * np.int64(num_devices) + cd
            order = np.argsort(pair_code, kind="stable")
            pair_sorted = pair_code[order]
            verts_sorted = cu[order]
            boundaries = np.flatnonzero(
                np.concatenate([[True], pair_sorted[1:] != pair_sorted[:-1]])
            )
            boundaries = np.append(boundaries, pair_sorted.size)
            for bi in range(boundaries.size - 1):
                s, e = boundaries[bi], boundaries[bi + 1]
                pair = int(pair_sorted[s])
                di, dj = pair // num_devices, pair % num_devices
                self._send[(di, dj)] = np.sort(verts_sorted[s:e])

        self.remote_vertices: List[np.ndarray] = []
        for d in range(num_devices):
            incoming = [v for (i, j), v in self._send.items() if j == d]
            if incoming:
                self.remote_vertices.append(
                    np.unique(np.concatenate(incoming))
                )
            else:
                self.remote_vertices.append(np.empty(0, dtype=np.int64))

        self._classes: List[MulticastClass] = self._build_classes()
        self._local_graphs: Dict[int, LocalGraph] = {}

    # ------------------------------------------------------------------
    def _build_classes(self) -> List[MulticastClass]:
        """Group cross-partition vertices by (source, destination set)."""
        cu, cd = self._cross_vertex, self._cross_consumer
        if cu.size == 0:
            return []
        # cu is sorted by vertex; gather each vertex's consumer list.
        boundaries = np.flatnonzero(np.concatenate([[True], cu[1:] != cu[:-1]]))
        boundaries = np.append(boundaries, cu.size)
        groups: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
        for bi in range(boundaries.size - 1):
            s, e = boundaries[bi], boundaries[bi + 1]
            vertex = int(cu[s])
            dests = tuple(sorted(int(x) for x in cd[s:e]))
            key = (int(self.assignment[vertex]), dests)
            groups.setdefault(key, []).append(vertex)
        classes = [
            MulticastClass(
                source=src,
                destinations=dests,
                vertices=np.asarray(vertices, dtype=np.int64),
            )
            for (src, dests), vertices in groups.items()
        ]
        classes.sort(key=lambda c: (c.source, c.destinations))
        return classes

    # ------------------------------------------------------------------
    @property
    def classes(self) -> List[MulticastClass]:
        """Multicast classes, ordered by (source, destination set)."""
        return list(self._classes)

    @property
    def num_cross_vertices(self) -> int:
        """Vertices that must be sent to at least one remote device."""
        return len(
            {int(v) for c in self._classes for v in c.vertices}
        )

    def send_set(self, src_dev: int, dst_dev: int) -> np.ndarray:
        """``V_ij``: vertex embeddings ``src_dev`` ships to ``dst_dev``."""
        return self._send.get((src_dev, dst_dev), np.empty(0, dtype=np.int64))

    def send_pairs(self) -> Dict[Tuple[int, int], np.ndarray]:
        """All ``(d_i, d_j) -> V_ij`` tuples with non-empty payloads."""
        return dict(self._send)

    def total_volume_vertices(self) -> int:
        """Total multicast payload counting each (vertex, destination)."""
        return int(sum(v.size for v in self._send.values()))

    # ------------------------------------------------------------------
    def local_graph(self, device: int) -> LocalGraph:
        """Re-indexed training graph of one device (cached)."""
        if device in self._local_graphs:
            return self._local_graphs[device]
        local = self.local_vertices[device]
        remote = self.remote_vertices[device]
        global_ids = np.concatenate([local, remote])
        lookup = np.full(self.graph.num_vertices, -1, dtype=np.int64)
        lookup[global_ids] = np.arange(global_ids.size)

        src, dst = self.graph.edges
        head_local = self.assignment[dst] == device if dst.size else np.empty(0, bool)
        e_src = lookup[src[head_local]]
        e_dst = lookup[dst[head_local]]
        if (e_src < 0).any():
            raise AssertionError("edge tail missing from local layout")
        local_graph = LocalGraph(
            device=device,
            graph=Graph(e_src, e_dst, global_ids.size, dedup=False),
            global_ids=global_ids,
            num_local=int(local.size),
            num_remote=int(remote.size),
        )
        self._local_graphs[device] = local_graph
        return local_graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CommRelation(devices={self.num_devices}, "
            f"classes={len(self._classes)}, "
            f"volume={self.total_volume_vertices()} vertex-sends)"
        )

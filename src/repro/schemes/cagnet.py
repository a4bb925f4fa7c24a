"""CAGNET-style communication-avoiding plans (Tripathy/Yelick/Buluç).

CAGNET's 1.5D and 2D algorithms broadcast feature blocks obliviously
along a fixed process grid instead of routing per-pair like DGCL's
SPST.  Reproduced over this library's plan machinery, each multicast
class keeps its own :class:`~repro.core.plan.VertexClassRoute` (the
compiled allgather requires exact class coverage) but the *tree shape*
is the dense algorithm's, independent of the data graph:

* **1.5D (ring relay)** — the source shifts its block systolically
  around the device ring, each hop one stage, far enough to cover the
  class's farthest destination.  Every link carries at most one block
  per stage, so stages pipeline with zero contention — the systolic
  structure bulk-synchronous dense algorithms get for free;
* **2D (row-column grid)** — devices form an ``R x C`` grid; the
  source broadcasts along its row (stage 0) to the columns holding
  destinations, then each row peer relays down its column (stage 1).
  At most two stages regardless of fan-out, trading the ring's long
  chains for bounded depth.

Both are *oblivious*: the tree for a class depends only on the device
ids involved, never on load — the gap against SPST (which sees
contention) is exactly what the widened tuner measures.  Relay devices
that are not destinations still receive and forward the block; the
compiled allgather's buffer maps already model that.

Falls back to the greedy static tree for any hop with no direct link
(never on the preset topologies, where every device pair has one).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.core.baseline_planners import _grow_static_tree
from repro.core.plan import CommPlan, VertexClassRoute
from repro.core.relation import CommRelation
from repro.topology.topology import Link, Topology

__all__ = ["cagnet_15d_plan", "cagnet_2d_plan", "grid_shape"]


def grid_shape(num_devices: int) -> Tuple[int, int]:
    """The ``(rows, cols)`` process grid CAGNET-2D lays devices on.

    CAGNET's 2D partition wants ``P = rows * cols`` exactly, so the
    nearest-to-square *divisor* pair is preferred (8 -> (2, 4),
    16 -> (4, 4), 12 -> (3, 4)); on 8-GPU boxes the rows then coincide
    with the NVLink quads.  Only device counts with no nontrivial
    factorisation (primes) fall back to a padded ceil-sqrt grid.
    """
    for rows in range(int(math.isqrt(num_devices)), 1, -1):
        if num_devices % rows == 0:
            return rows, num_devices // rows
    cols = max(1, int(math.ceil(math.sqrt(num_devices))))
    return int(math.ceil(num_devices / cols)), cols


def _direct(topology: Topology, src: int, dst: int) -> Link:
    link = topology.direct_link(src, dst)
    if link is None:
        raise LookupError(f"no direct link {src}->{dst}")
    return link


def _ring_edges(
    topology: Topology, source: int, destinations: Tuple[int, ...]
) -> Tuple[Tuple[Link, int], ...]:
    """Systolic ring walk from ``source`` covering every destination."""
    P = topology.num_devices
    span = max(((d - source) % P) for d in destinations)
    edges: List[Tuple[Link, int]] = []
    node = source
    for stage in range(span):
        nxt = (node + 1) % P
        edges.append((_direct(topology, node, nxt), stage))
        node = nxt
    return tuple(edges)


def _grid_edges_star(
    topology: Topology, source: int, destinations: Tuple[int, ...]
) -> Tuple[Tuple[Link, int], ...]:
    """Row broadcast (stage 0) + column relay (stage 1), direct sends.

    Used when the device count has no exact ``rows x cols``
    factorisation (padded grid): the ragged last row breaks the ring
    walks, so the grid degenerates to a two-stage star relay.
    """
    _, cols = grid_shape(topology.num_devices)
    r0, c0 = divmod(source, cols)
    # Destinations grouped by grid column; the source's own column is
    # served directly (no row hop to relay through).
    by_col: Dict[int, List[int]] = {}
    for d in destinations:
        if d == source:
            continue
        by_col.setdefault(d % cols, []).append(d)
    edges: List[Tuple[Link, int]] = []
    for col, dests in sorted(by_col.items()):
        if col == c0:
            for d in sorted(dests):
                edges.append((_direct(topology, source, d), 0))
            continue
        relay = r0 * cols + col
        if relay >= topology.num_devices or relay == source:
            # Ragged last row: no row peer in this column; send direct.
            for d in sorted(dests):
                edges.append((_direct(topology, source, d), 0))
            continue
        edges.append((_direct(topology, source, relay), 0))
        for d in sorted(dests):
            if d != relay:
                edges.append((_direct(topology, relay, d), 1))
    return tuple(edges)


def _grid_edges(
    topology: Topology, source: int, destinations: Tuple[int, ...]
) -> Tuple[Tuple[Link, int], ...]:
    """Pipelined row-ring walk, then column-ring walks, on the grid.

    The CAGNET-2D schedule proper: the source shifts its block along
    its *row ring* far enough to reach every grid column holding a
    destination; the block then turns and walks down each needed
    *column ring*.  Every hop is a grid-neighbour transfer, so on a
    matching torus (and on any all-pairs topology) each link carries at
    most one block per stage and the walks pipeline — depth is bounded
    by ``(cols - 1) + (rows - 1)`` instead of the ring's ``P - 1``.
    Device counts with no exact factorisation fall back to the
    two-stage star relay (:func:`_grid_edges_star`).
    """
    P = topology.num_devices
    rows, cols = grid_shape(P)
    if rows * cols != P:
        return _grid_edges_star(topology, source, destinations)
    r0, c0 = divmod(source, cols)
    by_col: Dict[int, List[int]] = {}
    for d in destinations:
        if d == source:
            continue
        by_col.setdefault(d % cols, []).append(d)
    edges: List[Tuple[Link, int]] = []
    # Row phase: walk the row ring through every needed relay column.
    col_arrival: Dict[int, int] = {c0: 0}
    row_span = max((((c - c0) % cols) for c in by_col), default=0)
    node_c = c0
    for hop in range(1, row_span + 1):
        nxt_c = (node_c + 1) % cols
        edges.append((_direct(topology, r0 * cols + node_c,
                              r0 * cols + nxt_c), hop - 1))
        col_arrival[nxt_c] = hop
        node_c = nxt_c
    # Column phase: each holder walks its column ring to the farthest
    # destination row, starting the stage after the block arrived.
    for col, dests in sorted(by_col.items()):
        start = col_arrival[col]
        col_span = max(((d // cols - r0) % rows) for d in dests)
        node_r = r0
        for hop in range(1, col_span + 1):
            nxt_r = (node_r + 1) % rows
            edges.append((_direct(topology, node_r * cols + col,
                                  nxt_r * cols + col), start + hop - 1))
            node_r = nxt_r
    return tuple(edges)


def _oblivious_plan(
    relation: CommRelation, topology: Topology, name: str, edge_fn
) -> CommPlan:
    """One route per multicast class, trees shaped by ``edge_fn``."""
    tree_cache: Dict[Tuple[int, Tuple[int, ...]], tuple] = {}
    routes: List[VertexClassRoute] = []
    for cls in relation.classes:
        dests = tuple(d for d in cls.destinations if d != cls.source)
        if not dests:
            # Self-only class: still listed so plan.validate sees it.
            routes.append(VertexClassRoute(
                source=cls.source, destinations=cls.destinations,
                vertices=cls.vertices, edges=(),
            ))
            continue
        key = (cls.source, dests)
        if key not in tree_cache:
            try:
                tree_cache[key] = edge_fn(topology, cls.source, dests)
            except LookupError:
                # Incomplete link graph: greedy static tree fallback.
                tree_cache[key] = _grow_static_tree(
                    topology, cls.source, dests
                )
        routes.append(VertexClassRoute(
            source=cls.source, destinations=cls.destinations,
            vertices=cls.vertices, edges=tree_cache[key],
        ))
    return CommPlan(topology, routes, name=name)


def cagnet_15d_plan(
    relation: CommRelation,
    topology: Topology,
    *,
    chunks_per_class: int = 4,
    seed: int = 0,
    staleness: int = 0,
) -> CommPlan:
    """CAGNET 1.5D: systolic ring-relay broadcast per multicast class.

    The routing knobs (``chunks_per_class``, ``seed``, ``staleness``)
    are accepted for builder-signature uniformity but cannot change an
    oblivious ring walk.
    """
    return _oblivious_plan(relation, topology, "cagnet-1.5d", _ring_edges)


def cagnet_2d_plan(
    relation: CommRelation,
    topology: Topology,
    *,
    chunks_per_class: int = 4,
    seed: int = 0,
    staleness: int = 0,
) -> CommPlan:
    """CAGNET 2D: row-broadcast + column-relay on the process grid."""
    return _oblivious_plan(relation, topology, "cagnet-2d", _grid_edges)

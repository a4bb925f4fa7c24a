"""Scalar reference of SPST tree growth (paper Algorithm 1).

This is the per-edge engine :mod:`repro.core.spst` once ran next to
its vectorised one: a heap Dijkstra that asks
:meth:`~repro.core.cost_model.StagedCostModel.incremental_cost` for
every edge it relaxes, and blocks tree nodes explicitly.  The library's
:meth:`~repro.core.spst.SPSTPlanner.grow_tree` over
:class:`~repro.core.cost_model.DenseCostState` must commit identical
trees; ``test_engine_equivalence.py`` checks cold plans and
:func:`repro.faults.repair.regrow_routes` against :func:`plan` and
:func:`regrow_routes` here, and ``benchmarks/bench_fastpath.py`` times
:func:`plan` as its "old" planner arm.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost_model import StagedCostModel
from repro.core.plan import CommPlan, VertexClassRoute
from repro.core.relation import CommRelation
from repro.core.spst import PlanUnit, SPSTPlanner
from repro.faults.policy import UnrecoverableFaultError
from repro.topology.topology import Link, Topology


def grow_tree(
    topology: Topology, model: StagedCostModel, unit: PlanUnit
) -> List[Tuple[Link, int]]:
    """Algorithm 1's inner loop for one unit; commits into ``model``."""
    depth: Dict[int, int] = {unit.source: 0}
    remaining = set(unit.destinations)
    remaining.discard(unit.source)
    tree_edges: List[Tuple[Link, int]] = []
    links_from = topology.links_from

    while remaining:
        # Multi-source Dijkstra from every current tree node.
        dist: Dict[int, float] = {node: 0.0 for node in depth}
        node_depth: Dict[int, int] = dict(depth)
        parent: Dict[int, Tuple[int, Link]] = {}
        settled: Dict[int, bool] = {}
        heap: List[Tuple[float, int, int]] = [
            (0.0, node, depth[node]) for node in depth
        ]
        heapq.heapify(heap)
        target: Optional[int] = None
        while heap:
            cost, node, d = heapq.heappop(heap)
            if settled.get(node):
                continue
            settled[node] = True
            node_depth[node] = d
            if node in remaining:
                target = node
                break
            if d + 1 >= model.num_stages + 1:
                # A path deeper than the stage budget cannot be
                # committed; the tree depth is bounded by |V'| - 1.
                continue
            for link in links_from(node):
                nxt = link.dst
                if settled.get(nxt) or nxt in depth:
                    continue
                if d >= model.num_stages:
                    continue
                new_cost = cost + model.incremental_cost(link, d, unit.weight)
                if new_cost < dist.get(nxt, float("inf")):
                    dist[nxt] = new_cost
                    parent[nxt] = (node, link)
                    heapq.heappush(heap, (new_cost, nxt, d + 1))
        if target is None:
            raise RuntimeError(
                f"destinations {sorted(remaining)} unreachable from "
                f"tree of device {unit.source}"
            )

        # Reconstruct and commit the path.
        path: List[Tuple[int, Link]] = []
        node = target
        while node not in depth:
            prev, link = parent[node]
            path.append((prev, link))
            node = prev
        path.reverse()
        d = depth[node]
        for prev, link in path:
            model.add(link, d, unit.weight)
            tree_edges.append((link, d))
            d += 1
            depth[link.dst] = d
            remaining.discard(link.dst)
    return tree_edges


def _route(unit: PlanUnit, edges) -> VertexClassRoute:
    return VertexClassRoute(
        source=unit.source,
        destinations=unit.destinations,
        vertices=unit.vertices,
        edges=tuple(edges),
    )


def plan(
    topology: Topology,
    relation: CommRelation,
    *,
    granularity: str = "chunk",
    chunks_per_class: int = 4,
    seed: int = 0,
    refine_passes: int = 0,
    name: str = "spst",
) -> CommPlan:
    """``SPSTPlanner(...).plan(relation)`` on the scalar engine."""
    units = SPSTPlanner(
        topology, granularity=granularity,
        chunks_per_class=chunks_per_class, seed=seed,
    )._units(relation.classes)
    model = StagedCostModel(topology)
    routes = [_route(unit, grow_tree(topology, model, unit)) for unit in units]

    rng = np.random.default_rng(seed + 1)
    for _ in range(refine_passes):
        improved = False
        for i in rng.permutation(len(routes)):
            route = routes[i]
            before = model.total_cost()
            model.remove_path(list(route.edges), route.weight)
            edges = grow_tree(topology, model, units[i])
            after = model.total_cost()
            if after < before - 1e-18:
                routes[i] = _route(units[i], edges)
                improved = True
            elif tuple(edges) != route.edges:
                # The re-route was not better: restore the original.
                model.remove_path(edges, route.weight)
                model.add_path(list(route.edges), route.weight)
        if not improved:
            break
    return CommPlan(topology, routes, name=name)


def regrow_routes(
    topology: Topology,
    kept: Sequence[VertexClassRoute],
    broken: Sequence[VertexClassRoute],
) -> List[VertexClassRoute]:
    """:func:`repro.faults.repair.regrow_routes` on the scalar engine."""
    model = StagedCostModel(topology)
    for route in kept:
        model.add_path(list(route.edges), route.weight)
    repaired: List[VertexClassRoute] = []
    for route in broken:
        unit = PlanUnit(route.source, route.destinations, route.vertices)
        try:
            edges = grow_tree(topology, model, unit)
        except RuntimeError:
            raise UnrecoverableFaultError(
                f"route {route.source}->{route.destinations}",
                attempts=0,
                detail="no surviving path",
            ) from None
        repaired.append(_route(unit, edges))
    return repaired

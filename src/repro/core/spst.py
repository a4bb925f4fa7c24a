"""The Shortest Path Spanning Tree (SPST) planner — paper Algorithm 1.

For every vertex (or batch of same-signature vertices), SPST grows a
communication tree rooted at the source GPU until it spans all
destination GPUs:

1. start with ``N_src = {s_u}``;
2. run a multi-source Dijkstra from the current tree where the weight of
   traversing link ``e`` out of a tree node at depth ``i`` is
   ``C(i, e)`` — the *incremental* blow-up of the global plan cost
   (Algorithm 2), computed on demand against everything committed so far;
3. commit the cheapest path to a still-unreached destination: its links
   join the cumulative plan at stages equal to their tree depths, its
   nodes join ``N_src``;
4. repeat until every destination is reached.

Because the edge weight is the *increase in total plan time*, SPST
automatically prefers fast links, fuses multicasts through forwarders,
avoids contended connections, and pours load onto under-utilised links
whose incremental cost is zero — the four §5 design goals.

Granularity
-----------
``granularity="vertex"`` runs Algorithm 1 verbatim: one tree per vertex.
``granularity="chunk"`` (default) groups vertices into multicast classes
(same source and destination set) and splits each class into a few
equal chunks planned as weighted units.  Chunks of one class may take
different trees, preserving the per-vertex load-balancing freedom the
paper argues for (§5.1) at a fraction of the planning cost.

Engine
------
One engine grows every tree — cold plans here, and the regrowth of
broken routes in :func:`repro.faults.repair.regrow_routes` (fault
repair, plan-cache patching, elastic handoffs).  It is a heap Dijkstra
fed from :class:`~repro.core.cost_model.DenseCostState`, which
materialises Algorithm 2's ``C(i, ·)`` one whole stage-row at a time
with NumPy and memoises rows until a commit dirties the stage.  Its
arithmetic matches the per-edge staged cost model of
:mod:`repro.core.cost_model` operation for operation, so the tests
check its plans bit for bit against a scalar per-edge oracle
(``tests/spst_oracle.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost_model import DenseCostState
from repro.core.plan import CommPlan, VertexClassRoute
from repro.core.relation import CommRelation, MulticastClass
from repro.topology.topology import Topology

__all__ = ["SPSTPlanner", "PlanUnit"]


@dataclass(frozen=True)
class PlanUnit:
    """One unit of planning work: a weighted batch of vertices."""

    source: int
    destinations: Tuple[int, ...]
    vertices: np.ndarray

    @property
    def weight(self) -> int:
        return int(self.vertices.size)


class SPSTPlanner:
    """Greedy communication planning over a fixed topology.

    Parameters
    ----------
    topology:
        The device/link graph ``D(V', E')``.
    granularity:
        ``"vertex"`` for the verbatim per-vertex Algorithm 1,
        ``"chunk"`` for class-chunked planning (default).
    chunks_per_class:
        With chunked granularity, how many independently-routed chunks
        each multicast class is split into.
    seed:
        Shuffle seed; the paper shuffles vertices before planning.
    """

    def __init__(
        self,
        topology: Topology,
        granularity: str = "chunk",
        chunks_per_class: int = 4,
        seed: int = 0,
        refine_passes: int = 0,
    ) -> None:
        if granularity not in ("vertex", "chunk"):
            raise ValueError("granularity must be 'vertex' or 'chunk'")
        if chunks_per_class < 1:
            raise ValueError("chunks_per_class must be positive")
        if refine_passes < 0:
            raise ValueError("refine_passes must be non-negative")
        self.topology = topology
        self.granularity = granularity
        self.chunks_per_class = chunks_per_class
        self.seed = seed
        self.refine_passes = refine_passes

    # ------------------------------------------------------------------
    def _units(self, classes: Sequence[MulticastClass]) -> List[PlanUnit]:
        units: List[PlanUnit] = []
        for cls in classes:
            dests = tuple(d for d in cls.destinations if d != cls.source)
            if not dests:
                continue
            if self.granularity == "vertex":
                for v in cls.vertices:
                    units.append(
                        PlanUnit(cls.source, dests, np.asarray([v], dtype=np.int64))
                    )
            else:
                # Equal split, first `size % k` pieces one longer —
                # np.array_split semantics without its per-call overhead.
                pieces = min(self.chunks_per_class, cls.size)
                base, rem = divmod(cls.size, pieces)
                start = 0
                for i in range(pieces):
                    end = start + base + (1 if i < rem else 0)
                    if end > start:
                        units.append(
                            PlanUnit(cls.source, dests, cls.vertices[start:end])
                        )
                    start = end
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(len(units))
        return [units[i] for i in order]

    def grow_tree(
        self, state: DenseCostState, unit: PlanUnit
    ) -> List[Tuple[int, int]]:
        """Algorithm 1's inner loop for one unit; commits into ``state``.

        Grows ``unit``'s multicast tree against everything ``state``
        already carries: repeated multi-source Dijkstras from the tree,
        each committing the cheapest path to a still-unreached
        destination.  Edge weights come from the memoised
        ``C(stage, ·)`` pair rows of :class:`DenseCostState` (parallel
        links pre-collapsed to the strictly cheapest, first on ties —
        what sequential strict-improvement relaxation keeps).  ``state``
        must be built on this planner's topology.

        Returns the committed ``(link id, stage)`` edges in commit
        order.  Raises ``RuntimeError`` when a destination is
        unreachable within the stage budget; edges committed before
        that stay in ``state``.
        """
        out = state.out_pairs
        num_devices = self.topology.num_devices
        links = self.topology.links
        depth: Dict[int, int] = {unit.source: 0}
        in_tree = bytearray(num_devices)
        in_tree[unit.source] = 1
        remaining = set(unit.destinations)
        remaining.discard(unit.source)
        is_target = bytearray(num_devices)
        for node in remaining:
            is_target[node] = 1
        tree_edges: List[Tuple[int, int]] = []
        weight = unit.weight
        num_stages = state.num_stages
        weight_row = state.weight_row
        inf = float("inf")
        heappush, heappop = heapq.heappush, heapq.heappop

        # Memoised C(stage, ·) rows survive across the Dijkstras of one
        # tree: a committed path only perturbs the stages it lands on,
        # so only those rows are dropped after each commit.
        rows: List[Optional[Tuple[List[float], List[int]]]] = (
            [None] * num_stages
        )
        # Seed entries grow with the tree; each Dijkstra restarts from a
        # plain copy of this list (the tuples are immutable and shared).
        seeds: List[Tuple[float, int, int]] = [(0.0, unit.source, 0)]
        while remaining:
            # No explicit blocked set: the strict `<` relaxation guard
            # already rejects every node a per-edge Dijkstra would block.
            # Tree seeds sit at dist 0.0 (no non-negative path beats
            # that), and a settled node's dist is final (pops are
            # non-decreasing, weights are >= 0, improvement is strict).
            dist: List[float] = [inf] * num_devices
            for node in depth:
                dist[node] = 0.0
            parent_link: List[int] = [-1] * num_devices
            heap: List[Tuple[float, int, int]] = seeds.copy()
            heapq.heapify(heap)
            target = -1
            # Best target distance seen so far.  Edge weights are >= 0,
            # so an entry strictly above this bound settles strictly
            # after the first target and can never influence its path —
            # pruning those pushes is exact, not heuristic.
            bound = inf
            while heap:
                cost, node, d = heappop(heap)
                # Stale entry: a cheaper push has already settled it
                # (seeds pop at exactly their 0.0 dist, so they process).
                if cost > dist[node]:
                    continue
                if is_target[node]:
                    target = node
                    break
                if d >= num_stages:
                    continue
                row = rows[d]
                if row is None:
                    row = rows[d] = weight_row(weight, d)
                pair_weight, pair_link = row
                d1 = d + 1
                for nxt, pair in out[node]:
                    new_cost = cost + pair_weight[pair]
                    if new_cost < dist[nxt] and new_cost <= bound:
                        dist[nxt] = new_cost
                        parent_link[nxt] = pair_link[pair]
                        heappush(heap, (new_cost, nxt, d1))
                        if is_target[nxt] and new_cost < bound:
                            bound = new_cost
            if target < 0:
                raise RuntimeError(
                    f"destinations {sorted(remaining)} unreachable from "
                    f"tree of device {unit.source}"
                )

            path: List[int] = []
            node = target
            while not in_tree[node]:
                link_id = parent_link[node]
                path.append(link_id)
                node = links[link_id].src
            path.reverse()
            d = depth[node]
            for link_id in path:
                state.add_link(link_id, d, weight)
                rows[d] = None  # this stage's costs just moved
                tree_edges.append((link_id, d))
                d += 1
                dst = links[link_id].dst
                depth[dst] = d
                in_tree[dst] = 1
                is_target[dst] = 0
                seeds.append((0.0, dst, d))
                remaining.discard(dst)
        return tree_edges

    # ------------------------------------------------------------------
    def plan(
        self, relation: CommRelation, name: str = "spst"
    ) -> CommPlan:
        """Plan the whole layer's communication for ``relation``.

        With ``refine_passes > 0``, after the greedy pass each unit is
        repeatedly withdrawn from the cost state and re-routed against
        everything else — a cheap local-search step that undoes early
        greedy commitments made against an emptier network.
        """
        if relation.num_devices > self.topology.num_devices:
            raise ValueError("relation references more devices than topology")
        state = DenseCostState(self.topology)
        links = self.topology.links
        units = self._units(relation.classes)
        edge_ids: List[List[Tuple[int, int]]] = [
            self.grow_tree(state, unit) for unit in units
        ]

        rng = np.random.default_rng(self.seed + 1)
        for _ in range(self.refine_passes):
            improved = False
            for i in rng.permutation(len(units)):
                unit = units[i]
                old_edges = edge_ids[i]
                before = state.total_cost()
                for link_id, stage in old_edges:
                    state.remove_link(link_id, stage, unit.weight)
                new_edges = self.grow_tree(state, unit)
                after = state.total_cost()
                if after < before - 1e-18:
                    edge_ids[i] = new_edges
                    improved = True
                elif new_edges != old_edges:
                    # The re-route was not better: restore the original.
                    for link_id, stage in new_edges:
                        state.remove_link(link_id, stage, unit.weight)
                    for link_id, stage in old_edges:
                        state.add_link(link_id, stage, unit.weight)
            if not improved:
                break

        routes = [
            VertexClassRoute(
                source=unit.source,
                destinations=unit.destinations,
                vertices=unit.vertices,
                edges=tuple([(links[lid], stage) for lid, stage in edges]),
            )
            for unit, edges in zip(units, edge_ids)
        ]
        return CommPlan(self.topology, routes, name=name)

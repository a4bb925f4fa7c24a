"""Plan repair: re-route around dead hardware, rebuilding only what broke.

Two levels of surgery, matching the recovery policies:

* :func:`repair_plan` — the *plan-level* repair the trainer invokes
  between epochs.  Routes whose tree touches a dead device or dead
  connection are withdrawn and re-grown by the SPST algorithm against
  the cost state of every surviving route, on a topology with the dead
  hardware filtered out — an incremental re-plan that rebuilds only the
  touched send/receive table entries.  A class SPST cannot re-route (no
  surviving path within the stage budget) makes the fault
  unrecoverable.

* :func:`alternate_path` — the *transfer-level* repair the hardened
  protocol uses mid-allgather: the cheapest surviving physical path
  between two devices under the current (possibly degraded) capacities,
  with host-memory staging (the Swap baseline's PCIe path) as the last
  resort.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.cost_model import DenseCostState
from repro.core.plan import CommPlan, VertexClassRoute
from repro.core.spst import PlanUnit, SPSTPlanner
from repro.errors import ElasticSpecError
from repro.faults.policy import UnrecoverableFaultError
from repro.topology.links import PhysicalConnection
from repro.topology.topology import Link, Topology

__all__ = ["RepairResult", "filter_topology", "repair_plan",
           "regrow_routes", "alternate_path"]


@dataclass
class RepairResult:
    """Outcome of one plan repair."""

    plan: CommPlan
    repaired_routes: int = 0
    untouched_routes: int = 0

    @property
    def touched(self) -> int:
        return self.repaired_routes


def filter_topology(
    topology: Topology,
    dead_connections: Sequence[str] = (),
    dead_devices: Sequence[int] = (),
) -> Topology:
    """The surviving topology: same devices, broken links removed.

    Device ids are preserved (a crashed device keeps its id but loses
    every link), so routes and relations keep addressing by the
    original numbering.

    Survival is *bidirectional*: a direction whose same-kind mirror
    died is dropped too.  Plans grown on the result feed training, and
    every forward transfer's gradient runs over the reverse link — a
    wire that only works one way cannot carry a route.  (The hardened
    protocol's transfer-level repair, :func:`alternate_path`, still
    uses surviving single directions.)
    """
    dead_conns = set(dead_connections)
    dead_devs = set(dead_devices)
    alive = [
        link
        for link in topology.links
        if link.src not in dead_devs
        and link.dst not in dead_devs
        and not any(c.name in dead_conns for c in link.connections)
    ]
    alive_pairs = {(link.src, link.dst, link.kind) for link in alive}
    links = [
        link
        for link in alive
        if (link.dst, link.src, link.kind) in alive_pairs
    ]
    host_paths = {
        dev: (topology.host_write_path(dev), topology.host_read_path(dev))
        for dev in topology.devices()
        if topology.has_host_staging(dev) and dev not in dead_devs
    }
    return Topology(
        num_devices=topology.num_devices,
        links=links,
        machine_of=topology.machine_of,
        socket_of=topology.socket_of,
        switch_of=topology.switch_of,
        host_paths=host_paths,
        memory_bytes=topology.memory_bytes,
        name=f"{topology.name}-degraded",
    )


def _link_key(link: Link) -> Tuple[int, int, Tuple[str, ...]]:
    """Structural identity of a logical link (survives re-filtering)."""
    return (link.src, link.dst, tuple(c.name for c in link.connections))


def _route_broken(
    route: VertexClassRoute, alive_keys: Set[tuple], dead_devs: Set[int]
) -> bool:
    """Does the route touch dead hardware — or a dropped direction?

    Checked against the *surviving* link set rather than the dead
    names, so a route riding a wire whose reverse twin died is broken
    too (its backward pass has nowhere to run).
    """
    if route.source in dead_devs or any(d in dead_devs for d in route.destinations):
        return True
    return any(_link_key(link) not in alive_keys for link, _ in route.edges)


def regrow_routes(
    topology: Topology,
    kept: Sequence[VertexClassRoute],
    broken: Sequence[VertexClassRoute],
    seed: int = 0,
) -> List[VertexClassRoute]:
    """Re-grow ``broken`` routes against the traffic ``kept`` commits.

    The shared engine of plan patching: every kept route's edges are
    charged into a fresh :class:`~repro.core.cost_model.DenseCostState`
    on ``topology``, then each broken route's multicast tree is re-grown
    by the cold planner's :meth:`~repro.core.spst.SPSTPlanner.grow_tree`
    against that state, each result charged before the next grows —
    only the broken routes' send/receive table entries change.  Both
    :func:`repair_plan` (mid-training fault recovery) and the autotune
    incremental replanner route through here.

    Returns the regrown routes, in ``broken`` order.  Raises
    :class:`UnrecoverableFaultError` when a broken route has no
    surviving tree within the stage budget, and
    :class:`~repro.errors.ElasticSpecError` when a broken route's
    endpoints name devices ``topology`` does not have — the caller
    handed a route set and a device set that disagree.
    """
    for route in broken:
        endpoints = {route.source, *route.destinations}
        bad = sorted(d for d in endpoints if not 0 <= d < topology.num_devices)
        if bad:
            raise ElasticSpecError(
                f"route {route.source}->{route.destinations} names unknown "
                f"device(s) {bad}: topology has {topology.num_devices} devices"
            )
    planner = SPSTPlanner(topology, seed=seed)
    state = DenseCostState(topology)
    for route in kept:
        state.add_path(route.edges, route.weight)

    links = topology.links
    repaired: List[VertexClassRoute] = []
    for route in broken:
        unit = PlanUnit(route.source, route.destinations, route.vertices)
        try:
            edges = planner.grow_tree(state, unit)
        except RuntimeError:
            raise UnrecoverableFaultError(
                f"route {route.source}->{route.destinations}",
                attempts=0,
                detail="no surviving path",
            ) from None
        repaired.append(
            VertexClassRoute(
                source=route.source,
                destinations=route.destinations,
                vertices=route.vertices,
                edges=tuple([(links[lid], stage) for lid, stage in edges]),
            )
        )
    return repaired


def _validated_elastic_sets(
    num_devices: int,
    dead_devices: Sequence[int],
    added_devices: Sequence[int],
    expanded_topology: Optional[Topology],
) -> Tuple[Set[int], Set[int]]:
    """Typed validation of the device sets a repair/expansion names.

    Raises :class:`~repro.errors.ElasticSpecError` on empty, unknown or
    overlapping sets; returns ``(dead, added)`` as clean sets.
    """
    dead_list = list(dead_devices)
    dead = set(dead_list)
    bad = sorted(d for d in dead if not 0 <= d < num_devices)
    if bad:
        raise ElasticSpecError(
            f"unknown dead device(s) {bad}: the plan's topology has "
            f"{num_devices} devices"
        )
    added_list = list(added_devices)
    added = set(added_list)
    if expanded_topology is not None and not added_list:
        raise ElasticSpecError(
            "expanded_topology given but the added device set is empty"
        )
    if not added_list:
        return dead, added
    if expanded_topology is None:
        raise ElasticSpecError(
            f"added device(s) {sorted(added)} need an expanded_topology "
            "to live on"
        )
    if len(added) != len(added_list):
        raise ElasticSpecError(
            f"added device set {added_list} repeats devices"
        )
    bad = sorted(
        d for d in added if not 0 <= d < expanded_topology.num_devices
    )
    if bad:
        raise ElasticSpecError(
            f"unknown added device(s) {bad}: the expanded topology has "
            f"{expanded_topology.num_devices} devices"
        )
    overlap = sorted(d for d in added if d < num_devices)
    if overlap:
        raise ElasticSpecError(
            f"added device(s) {overlap} overlap the plan's existing "
            f"devices 0..{num_devices - 1}"
        )
    expected = set(range(num_devices, expanded_topology.num_devices))
    if added != expected:
        raise ElasticSpecError(
            f"added device set {sorted(added)} must be exactly the "
            f"expanded topology's new ids {sorted(expected)}"
        )
    return dead, added


def repair_plan(
    plan: CommPlan,
    dead_connections: Sequence[str] = (),
    dead_devices: Sequence[int] = (),
    seed: int = 0,
    added_devices: Sequence[int] = (),
    expanded_topology: Optional[Topology] = None,
) -> RepairResult:
    """Incrementally re-plan around dead hardware — or onto new hardware.

    Surviving routes are kept verbatim (their send/receive table
    entries are untouched); broken routes are re-grown by SPST against
    the survivors' committed traffic.  Raises
    :class:`UnrecoverableFaultError` when a broken class has no
    surviving route at all.

    Device *additions* (the elastic scale-out path) pass
    ``added_devices`` plus an ``expanded_topology`` whose first
    ``plan.topology.num_devices`` ids are the plan's existing devices
    and whose tail ids are the new ones.  Kept trees are re-based onto
    the expanded topology by structural link reference; trees whose
    links the expansion does not carry are re-grown, and regrowth may
    route *through* the new devices.  Empty / unknown / overlapping
    device sets raise :class:`~repro.errors.ElasticSpecError`.

    Note: dead *devices* here must no longer be route endpoints — the
    trainer repartitions ownership first, then repairs transit routes.
    This function re-routes traffic that merely *forwarded through* the
    dead hardware.
    """
    dead_conns = set(dead_connections)
    dead_devs, added = _validated_elastic_sets(
        plan.topology.num_devices, dead_devices, added_devices,
        expanded_topology,
    )
    if not dead_conns and not dead_devs and not added:
        return RepairResult(plan=plan, untouched_routes=len(plan.routes))

    base = expanded_topology if added else plan.topology
    survivors = filter_topology(base, dead_conns, dead_devs)
    alive_keys = {_link_key(link) for link in survivors.links}

    kept: List[VertexClassRoute] = []
    broken: List[VertexClassRoute] = []
    for route in plan.routes:
        (broken if _route_broken(route, alive_keys, dead_devs) else kept).append(route)
    for route in broken:
        if route.source in dead_devs or any(d in dead_devs for d in route.destinations):
            raise UnrecoverableFaultError(
                f"route {route.source}->{route.destinations}",
                attempts=0,
                detail="a dead device owns or consumes these vertices; "
                "repartition ownership before repairing routes",
            )

    if added:
        # Re-base kept trees onto the expanded topology by structural
        # link identity; links the expansion does not carry put their
        # route back on the regrow list.
        from repro.core.serialize import link_table

        table = link_table(survivors)
        rebased: List[VertexClassRoute] = []
        for route in kept:
            edges: List[Tuple[Link, int]] = []
            for link, stage in route.edges:
                match = table.get(
                    (link.src, link.dst, tuple(c.name for c in link.connections))
                )
                if match is None:
                    break
                edges.append((match, stage))
            else:
                rebased.append(
                    VertexClassRoute(
                        source=route.source,
                        destinations=route.destinations,
                        vertices=route.vertices,
                        edges=tuple(edges),
                    )
                )
                continue
            broken.append(
                VertexClassRoute(
                    source=route.source,
                    destinations=route.destinations,
                    vertices=route.vertices,
                    edges=(),
                )
            )
        kept = rebased
    elif not broken:
        return RepairResult(plan=plan, untouched_routes=len(plan.routes))

    repaired = regrow_routes(survivors, kept, broken, seed=seed)

    suffix = "expanded" if added else "repaired"
    new_plan = CommPlan(
        survivors, kept + repaired, name=f"{plan.name}-{suffix}"
    )
    return RepairResult(
        plan=new_plan,
        repaired_routes=len(repaired),
        untouched_routes=len(kept),
    )


def alternate_path(
    topology: Topology,
    src: int,
    dst: int,
    capacity_of: Optional[Callable[[PhysicalConnection], float]] = None,
    avoid: Sequence[str] = (),
) -> Optional[Tuple[PhysicalConnection, ...]]:
    """Cheapest surviving physical path ``src -> dst`` for one transfer.

    Dijkstra over the logical links whose every hop still has capacity,
    weighted by ``1 / capacity`` of the slowest hop.  Falls back to
    host-memory staging (write ``src`` -> host, read host -> ``dst``)
    when no GPU route survives; returns None when even that is gone.
    """
    avoid_set = set(avoid)

    def live_capacity(conn: PhysicalConnection) -> float:
        if conn.name in avoid_set:
            return 0.0
        return capacity_of(conn) if capacity_of is not None else conn.bytes_per_second

    dist: Dict[int, float] = {src: 0.0}
    prev: Dict[int, Tuple[int, Link]] = {}
    heap: List[Tuple[float, int]] = [(0.0, src)]
    settled: Set[int] = set()
    while heap:
        cost, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == dst:
            path: List[PhysicalConnection] = []
            cur = dst
            while cur != src:
                parent, link = prev[cur]
                path = list(link.connections) + path
                cur = parent
            return tuple(path)
        for link in topology.links_from(node):
            capacities = [live_capacity(c) for c in link.connections]
            if min(capacities) <= 0.0:
                continue
            new_cost = cost + 1.0 / min(capacities)
            if new_cost < dist.get(link.dst, float("inf")):
                dist[link.dst] = new_cost
                prev[link.dst] = (node, link)
                heapq.heappush(heap, (new_cost, link.dst))

    # Last resort: stage through host memory over the PCIe/host paths.
    if topology.has_host_staging(src) and topology.has_host_staging(dst):
        staging = tuple(topology.host_write_path(src)) + tuple(
            topology.host_read_path(dst)
        )
        if all(live_capacity(c) > 0.0 for c in staging):
            return staging
    return None

"""The staged communication cost model ``t(S)`` of paper §5.1.

Communications are divided into *stages*: a tree edge at depth ``k`` of
its communication tree executes in stage ``k`` (0-based here; the paper
counts from 1).  The rules:

* per stage and per *physical connection*, traffic from all links that
  ride the connection is aggregated (this is how contention enters);
* a multi-hop link's time is the max over its hops;
* a stage's time is the max over links active in it — equivalently, the
  max over physical connections of ``traffic / bandwidth``;
* the plan's cost is the sum of stage times.

The model is linear in the per-vertex payload, so — as the paper notes —
the optimal plan is independent of the feature dimension.  We therefore
account traffic in abstract *units* (vertex embeddings) and scale by
``bytes_per_unit`` only when reporting seconds.

:meth:`StagedCostModel.incremental_cost` is Algorithm 2's ``C(i, e_j)``:
the cost blow-up of shipping one more unit over link ``e_j`` at stage
``i`` given everything already committed — computed on demand, which is
the ``O(|E'| log |E'|)`` refinement the paper sketches at the end of
§5.2.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.topology.topology import Link, Topology

__all__ = ["StagedCostModel", "DenseCostState"]


class StagedCostModel:
    """Mutable accumulator of per-stage, per-connection traffic.

    Traffic is measured in units (vertex embeddings); times returned by
    :meth:`incremental_cost` and :meth:`total_cost` are in
    *unit-seconds*: seconds per byte-of-unit, i.e. multiply by the
    payload bytes per unit to get wall-clock seconds.
    """

    def __init__(self, topology: Topology, num_stages: Optional[int] = None) -> None:
        self.topology = topology
        # A tree on m devices has depth at most m - 1.
        self.num_stages = num_stages or max(1, topology.num_devices - 1)
        # traffic[stage][connection name] -> units
        self._traffic: List[Dict[str, float]] = [dict() for _ in range(self.num_stages)]
        self._stage_time: List[float] = [0.0] * self.num_stages
        self._inv_bw: Dict[str, float] = {
            name: 1.0 / conn.bytes_per_second
            for name, conn in topology.connections.items()
        }

    # ------------------------------------------------------------------
    def _check_stage(self, stage: int) -> None:
        if not 0 <= stage < self.num_stages:
            raise ValueError(
                f"stage {stage} out of range [0, {self.num_stages})"
            )

    def incremental_cost(self, link: Link, stage: int, units: float = 1.0) -> float:
        """``C(stage, link)``: blow-up of adding ``units`` on ``link``.

        Zero when the link's hops are under-loaded relative to the
        current stage time — this is exactly what makes SPST balance
        loads (paper §5.2, "Load balancing").
        """
        self._check_stage(stage)
        traffic = self._traffic[stage]
        current = self._stage_time[stage]
        new_time = current
        for conn in link.connections:
            t = (traffic.get(conn.name, 0.0) + units) * self._inv_bw[conn.name]
            if t > new_time:
                new_time = t
        return new_time - current

    def path_cost(self, links: List[Tuple[Link, int]], units: float = 1.0) -> float:
        """Sum of incremental costs of edges on a path.

        Edges on one path sit in distinct stages, so their incremental
        costs are additive (paper §5.2).
        """
        return sum(self.incremental_cost(link, stage, units) for link, stage in links)

    def add(self, link: Link, stage: int, units: float = 1.0) -> None:
        """Commit ``units`` of traffic over ``link`` at ``stage``."""
        self._check_stage(stage)
        traffic = self._traffic[stage]
        for conn in link.connections:
            new = traffic.get(conn.name, 0.0) + units
            traffic[conn.name] = new
            t = new * self._inv_bw[conn.name]
            if t > self._stage_time[stage]:
                self._stage_time[stage] = t

    def add_path(self, links: List[Tuple[Link, int]], units: float = 1.0) -> None:
        """Commit every (link, stage) edge of a path."""
        for link, stage in links:
            self.add(link, stage, units)

    def remove(self, link: Link, stage: int, units: float = 1.0) -> None:
        """Withdraw committed traffic (used by plan refinement).

        Removal can lower a stage's bottleneck, so the stage maximum is
        recomputed from the surviving counters.
        """
        self._check_stage(stage)
        traffic = self._traffic[stage]
        for conn in link.connections:
            remaining = traffic.get(conn.name, 0.0) - units
            if remaining < -1e-9:
                raise ValueError(
                    f"removing more traffic than committed on {conn.name}"
                )
            if remaining <= 1e-12:
                traffic.pop(conn.name, None)
            else:
                traffic[conn.name] = remaining
        self._stage_time[stage] = max(
            (t * self._inv_bw[name] for name, t in traffic.items()),
            default=0.0,
        )

    def remove_path(self, links: List[Tuple[Link, int]], units: float = 1.0) -> None:
        """Withdraw every (link, stage) edge of a path."""
        for link, stage in links:
            self.remove(link, stage, units)

    # ------------------------------------------------------------------
    def stage_time(self, stage: int) -> float:
        """Current time of one stage (unit-seconds)."""
        self._check_stage(stage)
        return self._stage_time[stage]

    def stage_times(self) -> List[float]:
        """Per-stage times (unit-seconds)."""
        return list(self._stage_time)

    def total_cost(self) -> float:
        """``t(S)`` in unit-seconds (multiply by bytes/unit for seconds)."""
        return sum(self._stage_time)

    def total_seconds(self, bytes_per_unit: float) -> float:
        """Plan cost in seconds for a given payload width."""
        return self.total_cost() * bytes_per_unit

    def busiest_connection(self, stage: int) -> Optional[Tuple[str, float]]:
        """The stage's bottleneck: (connection name, time in unit-seconds)."""
        self._check_stage(stage)
        traffic = self._traffic[stage]
        if not traffic:
            return None
        name = max(traffic, key=lambda n: traffic[n] * self._inv_bw[n])
        return name, traffic[name] * self._inv_bw[name]

    def clone(self) -> "StagedCostModel":
        """Independent deep copy of the accumulated state."""
        other = StagedCostModel(self.topology, self.num_stages)
        other._traffic = [dict(t) for t in self._traffic]
        other._stage_time = list(self._stage_time)
        return other

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        active = sum(1 for t in self._stage_time if t > 0)
        return (
            f"StagedCostModel(stages={self.num_stages}, active={active}, "
            f"cost={self.total_cost():.3e} unit-seconds)"
        )


class DenseCostState:
    """Array-backed twin of :class:`StagedCostModel` for the fast planner.

    Per-stage traffic lives in one dense ``(stages, connections)``
    float64 matrix instead of per-stage dicts, and Algorithm 2's
    ``C(i, e)`` is materialised a whole *row at a time*: one bulk NumPy
    pass yields the incremental cost of every link of the topology at a
    given stage for a given unit weight.  Rows are memoised per
    ``(weight, stage)`` and invalidated by a per-stage version counter
    that every commit bumps, so the planner's Dijkstra pays a handful of
    vector ops per relaxation *wave* instead of a Python-level
    ``incremental_cost`` call per edge.

    Every arithmetic expression matches :class:`StagedCostModel`
    operation for operation on IEEE doubles — ``(traffic + units) /
    bandwidth`` then ``max`` then subtract — so the two accumulators
    produce bit-identical costs, and SPST's plans equal those of a
    per-edge Dijkstra over :class:`StagedCostModel` (asserted against
    the scalar oracle by the equivalence tests).
    """

    def __init__(self, topology: Topology, num_stages: Optional[int] = None) -> None:
        self.topology = topology
        self.num_stages = num_stages or max(1, topology.num_devices - 1)
        conns = topology.connections  # insertion-ordered name -> connection
        self.conn_names: List[str] = list(conns)
        self._conn_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.conn_names)
        }
        self._inv_bw = np.array(
            [1.0 / conns[name].bytes_per_second for name in self.conn_names],
            dtype=np.float64,
        )
        self._inv_bw_list: List[float] = self._inv_bw.tolist()
        num_conns = len(self.conn_names)
        #: traffic[stage, conn] in units; absent == 0.0, like the dicts.
        self._T = np.zeros((self.num_stages, num_conns), dtype=np.float64)
        #: Python mirror of ``_T`` rows for scalar-speed reads.
        self._T_rows: List[List[float]] = [
            [0.0] * num_conns for _ in range(self.num_stages)
        ]
        self._stage_time: List[float] = [0.0] * self.num_stages

        links = topology.links
        self.num_links = len(links)
        #: hop connection ids per link, one Python list per link (commits).
        self._link_hops: List[List[int]] = [
            [self._conn_index[c.name] for c in link.connections] for link in links
        ]
        #: hop columns padded by repeating earlier hops (a repeated hop
        #: leaves the max unchanged): ``lt = max_j hop_time[col_j]`` runs
        #: as a chain of elementwise maxima, much faster than a reduction
        #: along a short axis.
        max_hops = max((len(h) for h in self._link_hops), default=1)
        self._hop_cols: List[np.ndarray] = [
            np.array(
                [(hops * max_hops)[j] for hops in self._link_hops] or [0],
                dtype=np.intp,
            )
            for j in range(max_hops)
        ]

        #: parallel links between one device pair collapse to a single
        #: relaxation candidate: the strictly cheapest link, first one
        #: on ties — exactly what a per-edge Dijkstra's sequential
        #: strict-improvement relaxation keeps.
        pair_index: Dict[Tuple[int, int], int] = {}
        self.pair_of_link: List[int] = []
        self._pair_first_lid: List[int] = []
        self._pair_second_lid: List[int] = []
        #: per-device ``(dst, pair_id)`` adjacency, links_from order.
        self.out_pairs: List[List[Tuple[int, int]]] = [
            [] for _ in range(topology.num_devices)
        ]
        for link_id, link in enumerate(links):
            key = (link.src, link.dst)
            pair = pair_index.get(key)
            if pair is None:
                pair = pair_index[key] = len(self._pair_first_lid)
                self._pair_first_lid.append(link_id)
                self._pair_second_lid.append(-1)
                self.out_pairs[link.src].append((link.dst, pair))
            elif self._pair_second_lid[pair] < 0:
                self._pair_second_lid[pair] = link_id
            else:  # pragma: no cover - >2 parallel links is unused
                raise ValueError(
                    f"more than two parallel links for device pair {key}"
                )
            self.pair_of_link.append(pair)
        self.num_pairs = len(self._pair_first_lid)
        self._first_np = np.array(self._pair_first_lid or [0], dtype=np.intp)
        #: second link clamped to the first for single-link pairs, so the
        #: vectorised ``second < first`` pick is False exactly there.
        self._second_np = np.array(
            [
                second if second >= 0 else first
                for first, second in zip(
                    self._pair_first_lid, self._pair_second_lid
                )
            ]
            or [0],
            dtype=np.intp,
        )
        self._has_dual = any(s >= 0 for s in self._pair_second_lid)
        #: connection -> its rider links, split into single-hop riders
        #: (which all share one patched value) and multi-hop riders
        #: ``(link_id, first hop, remaining hops)``.
        self._conn_riders: List[Tuple[List[int], List[Tuple[int, int, Tuple[int, ...]]]]] = [
            ([], []) for _ in range(num_conns)
        ]
        for link_id, hops in enumerate(self._link_hops):
            for conn in set(hops):
                if len(hops) == 1:
                    self._conn_riders[conn][0].append(link_id)
                else:
                    self._conn_riders[conn][1].append(
                        (link_id, hops[0], tuple(hops[1:]))
                    )
        self._conn_fanout: List[int] = [
            len(singles) + len(multis) for singles, multis in self._conn_riders
        ]
        #: per-stage epoch: bumped whenever the stage *time* moves (then
        #: every memoised row of the stage is stale in full).
        self._epoch: List[int] = [0] * self.num_stages
        #: per-stage log of connections whose traffic changed since the
        #: last epoch bump (then only the touched links' entries moved).
        self._dirty: List[List[int]] = [[] for _ in range(self.num_stages)]
        #: weight -> per-stage [epoch, log position, row] memo.
        self._rows: Dict[float, List[Optional[list]]] = {}

    # ------------------------------------------------------------------
    def _patch_pair(self, entry: list, link_id: int, value: float) -> None:
        """Refresh one link's entry and its pair's winning candidate."""
        row, pair_weight, pair_link = entry[2], entry[3], entry[4]
        row[link_id] = value
        pair = self.pair_of_link[link_id]
        second = self._pair_second_lid[pair]
        if second < 0:
            pair_weight[pair] = value
            return
        first = self._pair_first_lid[pair]
        a = row[first]
        b = row[second]
        if b < a:
            pair_weight[pair] = b
            pair_link[pair] = second
        else:
            pair_weight[pair] = a
            pair_link[pair] = first

    def weight_row(
        self, units: float, stage: int
    ) -> Tuple[List[float], List[int]]:
        """``C(stage, ·)`` per device pair: ``(weights, winning link ids)``.

        A memoised row survives commits that do not move the stage's
        bottleneck time: such commits only perturb the links sharing the
        committed connections, and those few entries are patched in
        place from the dirty-connection log.  Only when the stage time
        itself moves (a minority of commits), or the dirty fanout grows
        past a rebuild's worth of work, is the row rebuilt with one
        vector pass.
        """
        per_stage = self._rows.get(units)
        if per_stage is None:
            per_stage = self._rows[units] = [None] * self.num_stages
        dirty = self._dirty[stage]
        position = len(dirty)
        entry = per_stage[stage]
        if entry is not None and entry[0] == self._epoch[stage]:
            if entry[1] == position:
                return entry[3], entry[4]
            segment = dirty[entry[1]:position]
            fanout = self._conn_fanout
            touched = 0
            for conn in segment:
                touched += fanout[conn]
            if touched <= 32:
                current = self._stage_time[stage]
                traffic = self._T_rows[stage]
                inv_bw = self._inv_bw_list
                conn_riders = self._conn_riders
                patch = self._patch_pair
                for conn in segment:
                    singles, multis = conn_riders[conn]
                    t = (traffic[conn] + units) * inv_bw[conn]
                    shared = t - current if t > current else 0.0
                    for link_id in singles:
                        patch(entry, link_id, shared)
                    for link_id, first, rest in multis:
                        t = (traffic[first] + units) * inv_bw[first]
                        for h in rest:
                            other = (traffic[h] + units) * inv_bw[h]
                            if other > t:
                                t = other
                        patch(
                            entry, link_id, t - current if t > current else 0.0
                        )
                entry[1] = position
                return entry[3], entry[4]
        current = self._stage_time[stage]
        hop_time = (self._T[stage] + units) * self._inv_bw
        cols = self._hop_cols
        link_time = hop_time[cols[0]]
        for col in cols[1:]:
            np.maximum(link_time, hop_time[col], out=link_time)
        np.maximum(link_time, current, out=link_time)
        link_time -= current
        first_time = link_time[self._first_np]
        if self._has_dual:
            second_time = link_time[self._second_np]
            take_second = second_time < first_time
            pair_weight = np.where(take_second, second_time, first_time).tolist()
            pair_link = np.where(
                take_second, self._second_np, self._first_np
            ).tolist()
        else:
            pair_weight = first_time.tolist()
            pair_link = list(self._pair_first_lid)
        per_stage[stage] = [
            self._epoch[stage],
            position,
            link_time.tolist(),
            pair_weight,
            pair_link,
        ]
        return pair_weight, pair_link

    def add_link(self, link_id: int, stage: int, units: float) -> None:
        """Commit ``units`` over link ``link_id`` at ``stage``."""
        self._charge(self._link_hops[link_id], stage, units)

    def add_path(self, edges: Iterable[Tuple[Link, int]], units: float) -> None:
        """Commit every ``(link, stage)`` edge of a path, by connection name.

        The edges' :class:`Link` objects may belong to another
        :class:`Topology` object than this state's (a route kept across
        a topology filter): each hop is charged to this state's
        connection of the same name, exactly like
        :meth:`StagedCostModel.add_path`.
        """
        conn_index = self._conn_index
        for link, stage in edges:
            if not 0 <= stage < self.num_stages:
                raise ValueError(
                    f"stage {stage} out of range [0, {self.num_stages})"
                )
            self._charge(
                [conn_index[c.name] for c in link.connections], stage, units
            )

    def _charge(self, hops: List[int], stage: int, units: float) -> None:
        """Add ``units`` on every hop connection id of one edge at ``stage``."""
        row = self._T[stage]
        mirror = self._T_rows[stage]
        stage_time = before = self._stage_time[stage]
        inv_bw = self._inv_bw_list
        for conn in hops:
            new = mirror[conn] + units
            mirror[conn] = new
            row[conn] = new
            t = new * inv_bw[conn]
            if t > stage_time:
                stage_time = t
        if stage_time != before:
            self._stage_time[stage] = stage_time
            self._epoch[stage] += 1
            self._dirty[stage].clear()
        else:
            self._dirty[stage].extend(hops)

    def remove_link(self, link_id: int, stage: int, units: float) -> None:
        """Withdraw committed traffic (plan refinement's undo)."""
        row = self._T[stage]
        mirror = self._T_rows[stage]
        for conn in self._link_hops[link_id]:
            remaining = mirror[conn] - units
            if remaining < -1e-9:
                raise ValueError(
                    "removing more traffic than committed on "
                    f"{self.conn_names[conn]}"
                )
            # Mirror the dict engine, which pops near-zero entries.
            remaining = 0.0 if remaining <= 1e-12 else remaining
            mirror[conn] = remaining
            row[conn] = remaining
        self._stage_time[stage] = max(float((row * self._inv_bw).max()), 0.0)
        self._epoch[stage] += 1
        self._dirty[stage].clear()

    # ------------------------------------------------------------------
    def stage_times(self) -> List[float]:
        """Per-stage times (unit-seconds)."""
        return list(self._stage_time)

    def total_cost(self) -> float:
        """``t(S)`` in unit-seconds, summed exactly like the dict engine."""
        return sum(self._stage_time)

    def traffic_matrix(self) -> np.ndarray:
        """Copy of the dense ``(stages, connections)`` unit-traffic matrix."""
        return self._T.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        active = sum(1 for t in self._stage_time if t > 0)
        return (
            f"DenseCostState(stages={self.num_stages}, active={active}, "
            f"cost={self.total_cost():.3e} unit-seconds)"
        )

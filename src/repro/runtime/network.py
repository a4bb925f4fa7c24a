"""The fluid flow engine: max-min fair bandwidth sharing over time.

Each transfer is a *flow* along a path of physical connections.  At any
instant, the rate of every active flow is the max-min fair allocation:
connections divide their bandwidth equally among the flows crossing
them, and a flow's rate is set by its most contended hop (progressive
filling).  The engine advances from flow completion to flow completion,
recomputing rates — the classic fluid model of TCP-fair networks, which
reproduces the paper's Table 3 (attainable QPI bandwidth drops roughly
as 1/n with n concurrent users).  Every transfer also pays a fixed
startup latency ``alpha`` before it moves bytes.

Processes post transfers *while the clock runs*.  Whenever the active
set changes, the engine re-solves the allocation once for that
simulated instant — however many transfers began or ended in it — and
keeps exactly one pending completion event.  This is the only flow
engine: :class:`repro.simulator.network.NetworkSimulator` drives it for
a fixed flow set.

Chaos support: an optional ``capacity_of`` hook lets a fault injector
scale (or zero) a connection's bandwidth while flows are in flight —
``capacities_changed`` re-solves the allocation at the current instant.
Flows over a dead wire simply stop progressing; the hardened protocol
notices via its transfer timeout, calls :meth:`LiveNetwork.cancel`, and
re-issues the payload along a repaired path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.runtime.events import Event, Simulator
from repro.simulator.network import DEFAULT_ALPHA, _check_amount
from repro.topology.links import PhysicalConnection

__all__ = ["LiveNetwork", "TransferHandle"]


class TransferHandle:
    """The caller's view of one in-flight transfer."""

    __slots__ = ("done", "start_time", "finish_time", "size_bytes", "tag", "cancelled")

    def __init__(self, size_bytes: float, tag: object = None) -> None:
        self.done = Event()
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.size_bytes = size_bytes
        self.tag = tag
        self.cancelled = False


class _LiveFlow:
    __slots__ = ("path", "remaining", "rate", "handle")

    def __init__(self, path, size_bytes: float, handle: TransferHandle) -> None:
        self.path = path
        self.remaining = float(size_bytes)
        self.rate = 0.0
        self.handle = handle


def _drained(flow: _LiveFlow) -> bool:
    """Completion threshold: one micro-byte absolute, or the subtraction
    residue of a large transfer.  Without the relative term, a residue
    below the float resolution of the clock could stall it."""
    return flow.remaining <= max(1e-6, 1e-12 * flow.handle.size_bytes)


def _max_min_rates(
    active: List[_LiveFlow],
    capacity_of: Optional[Callable[[PhysicalConnection], float]] = None,
) -> None:
    """Assign max-min fair rates to ``active`` flows, in place.

    ``capacity_of`` optionally overrides each connection's bandwidth —
    the fault injector's hook for degraded (scaled) or dead (zero
    capacity) wires.  Flows crossing a zero-capacity hop get rate 0.
    """
    remaining_cap: Dict[str, float] = {}
    conn_flows: Dict[str, List[_LiveFlow]] = {}
    for af in active:
        caps = []
        for conn in af.path:
            if conn.name not in remaining_cap:
                remaining_cap[conn.name] = (
                    capacity_of(conn) if capacity_of is not None else conn.bytes_per_second
                )
                conn_flows[conn.name] = []
            caps.append(remaining_cap[conn.name])
        if capacity_of is not None and any(c <= 0.0 for c in caps):
            af.rate = 0.0  # stalled: left out of the filling below
            continue
        for conn in af.path:
            conn_flows[conn.name].append(af)

    unfixed_count = {name: len(flows) for name, flows in conn_flows.items()}
    fixed = set()
    while True:
        # The bottleneck connection is the one offering the lowest fair
        # share to its not-yet-fixed flows.
        best_name: Optional[str] = None
        best_share = float("inf")
        for name, count in unfixed_count.items():
            if count <= 0:
                continue
            share = remaining_cap[name] / count
            if share < best_share:
                best_share = share
                best_name = name
        if best_name is None:
            return
        for af in conn_flows[best_name]:
            if id(af) in fixed:
                continue
            af.rate = best_share
            fixed.add(id(af))
            for conn in af.path:
                remaining_cap[conn.name] -= best_share
                unfixed_count[conn.name] -= 1
        unfixed_count[best_name] = 0


class LiveNetwork:
    """Max-min fair bandwidth sharing with dynamic arrivals."""

    def __init__(
        self,
        sim: Simulator,
        alpha: float = DEFAULT_ALPHA,
        capacity_of: Optional[Callable[[PhysicalConnection], float]] = None,
    ) -> None:
        _check_amount("alpha", alpha)
        self.sim = sim
        self.alpha = alpha
        #: Optional bandwidth override (bytes/s) for fault injection.
        self.capacity_of = capacity_of
        self._active: List[_LiveFlow] = []
        self._last_update = 0.0
        self._completion_token = 0  # invalidates stale completion events
        self._solve_armed = False

    # ------------------------------------------------------------------
    def transfer(
        self,
        path: Tuple[PhysicalConnection, ...],
        size_bytes: float,
        tag: object = None,
    ) -> TransferHandle:
        """Start a transfer after the setup latency; returns its handle."""
        if not path:
            raise ValueError("transfer needs a non-empty path")
        _check_amount("transfer size", size_bytes)
        handle = TransferHandle(size_bytes, tag)

        def begin() -> None:
            if handle.cancelled:
                return
            handle.start_time = self.sim.now
            self._progress_to_now()
            if size_bytes == 0:
                self._finish(handle)
                return
            self._active.append(_LiveFlow(path, size_bytes, handle))
            self._changed()

        self.sim.schedule(self.alpha, begin)
        return handle

    def cancel(self, handle: TransferHandle) -> None:
        """Abort a transfer (idempotent); its ``done`` never triggers."""
        handle.cancelled = True
        survivors = [f for f in self._active if f.handle is not handle]
        if len(survivors) != len(self._active):
            self._progress_to_now()
            self._active = survivors
            self._changed()

    def capacities_changed(self) -> None:
        """Re-solve rates now — a connection's bandwidth just changed."""
        self._progress_to_now()
        self._changed()

    def remaining(self, handle: TransferHandle) -> float:
        """Bytes still to move for ``handle`` (exact at the current time).

        The hardened protocol polls this to tell a slow transfer (still
        progressing under contention or degradation) from a stalled one
        (crossing a dead wire).
        """
        if handle.done.triggered:
            return 0.0
        self._progress_to_now()
        for flow in self._active:
            if flow.handle is handle:
                return max(flow.remaining, 0.0)
        return handle.size_bytes  # queued, not yet begun

    # ------------------------------------------------------------------
    def _progress_to_now(self) -> None:
        dt = self.sim.now - self._last_update
        if dt > 0:
            for flow in self._active:
                flow.remaining -= flow.rate * dt
        self._last_update = self.sim.now

    def _finish(self, handle: TransferHandle) -> None:
        handle.finish_time = self.sim.now
        handle.done.trigger()

    def _changed(self) -> None:
        """The active set or a capacity changed: disarm the pending
        completion and re-solve once, later in this same instant."""
        self._completion_token += 1
        if not self._solve_armed:
            self._solve_armed = True
            self.sim.schedule(0.0, self._solve)

    def _solve(self) -> None:
        """Recompute rates and arm the next completion event.

        If every active flow crosses a dead wire, nothing is armed and
        the flows stall silently: the hardened protocol's transfer
        timeout cancels and re-routes them, a capacity recovery
        re-enters via :meth:`capacities_changed`, and
        :class:`~repro.simulator.network.NetworkSimulator` reports the
        flows left when the clock stops.
        """
        self._solve_armed = False
        if not self._active:
            return
        _max_min_rates(self._active, capacity_of=self.capacity_of)
        soonest: Optional[_LiveFlow] = None
        soonest_dt = float("inf")
        for flow in self._active:
            if flow.rate > 0:
                dt = flow.remaining / flow.rate
            elif flow.remaining <= 0:
                dt = 0.0
            else:
                continue
            if dt < soonest_dt:
                soonest, soonest_dt = flow, dt
        if soonest is None:
            return
        # Numerical sweep: drained residues complete immediately
        # instead of stalling the clock.
        if soonest_dt <= 0 or _drained(soonest):
            soonest_dt = 0.0
        token = self._completion_token

        def complete() -> None:
            if token != self._completion_token:
                return  # the active set changed; a newer event is armed
            self._progress_to_now()
            finished = [f for f in self._active if _drained(f)]
            if not finished:
                finished = [min(self._active, key=lambda f: f.remaining)]
            done = {id(f) for f in finished}
            self._active = [f for f in self._active if id(f) not in done]
            for flow in finished:
                self._finish(flow.handle)
            self._changed()

        self.sim.schedule(soonest_dt, complete)

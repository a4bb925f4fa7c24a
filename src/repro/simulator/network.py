"""Flow-level network simulation of a fixed flow set.

Each transfer is a :class:`Flow` along a path of physical connections.
:class:`NetworkSimulator` runs a flow set to completion on the fluid
engine of :mod:`repro.runtime.network` — max-min fair bandwidth sharing
on contended connections, the model that reproduces the paper's Table 3
(attainable QPI bandwidth drops roughly as 1/n with n concurrent users).

Flows also pay a fixed startup latency ``alpha`` (kernel launch, flag
check, NIC doorbell).  The planner's cost model ignores ``alpha``; the
small divergence this creates is exactly what Figure 10 measures.

Flows may be released while others are in flight (``release_time``), so
the executor can model the decentralized coordination protocol where
independent device pairs advance through stages without a global
barrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.topology.links import PhysicalConnection

__all__ = ["Flow", "FlowResult", "NetworkSimulator", "bottleneck_seconds"]

#: Default per-transfer startup latency (CUDA launch + flag spin).  The
#: real-hardware value is ~5 us; it is scaled by the same 1/100 factor as
#: the dataset twins so the latency:bandwidth ratio of the simulated
#: machine matches the testbed at twin scale.
DEFAULT_ALPHA = 5e-8


def _check_amount(name: str, value: float) -> None:
    """Require a finite, non-negative size, time or latency."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass
class Flow:
    """One transfer: ``size_bytes`` along ``path``.

    ``release_time`` is when the flow becomes eligible to start (its
    dependencies resolved); the flow actually begins moving bytes at
    ``release_time + alpha``.  ``tag`` is opaque caller data.
    """

    path: Tuple[PhysicalConnection, ...]
    size_bytes: float
    release_time: float = 0.0
    tag: object = None

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("a flow needs a non-empty path")
        _check_amount("flow size", self.size_bytes)
        _check_amount("flow release time", self.release_time)


@dataclass(frozen=True)
class FlowResult:
    """Completion record for one flow."""

    flow: Flow
    start_time: float
    finish_time: float

    @property
    def duration(self) -> float:
        return self.finish_time - self.flow.release_time


def bottleneck_seconds(
    bytes_by_conn: Dict[PhysicalConnection, float],
    capacity_of: Optional[Callable[[PhysicalConnection], float]] = None,
) -> float:
    """Serialization time of an aggregate load: ``max(bytes / capacity)``.

    The fluid model's lower bound for a set of flows released together —
    the most loaded connection must move all its bytes regardless of how
    fairly rates are shared.  ``capacity_of`` applies the same bandwidth
    overrides (fault injection) as :class:`NetworkSimulator`; bytes on a
    dead connection raise ``RuntimeError`` just like permanently stalled
    flows do.
    """
    worst = 0.0
    dead: List[str] = []
    for conn, size in bytes_by_conn.items():
        if size <= 0.0:
            continue
        cap = capacity_of(conn) if capacity_of is not None else conn.bytes_per_second
        if cap <= 0.0:
            dead.append(conn.name)
            continue
        t = size / cap
        if t > worst:
            worst = t
    if dead:
        raise RuntimeError(
            "flows permanently stalled on dead connections: "
            + ", ".join(sorted(dead))
        )
    return worst


class NetworkSimulator:
    """Runs a set of flows to completion; returns per-flow timings.

    A driver over :class:`~repro.runtime.network.LiveNetwork`: each run
    releases its flows into a fresh engine.  ``capacity_of`` optionally
    overrides connection bandwidths (the fault injector's static hook,
    e.g. a degraded QPI hop).  Flows left stalled on dead connections
    when the clock stops raise ``RuntimeError``.
    """

    def __init__(
        self,
        alpha: float = DEFAULT_ALPHA,
        capacity_of: Optional[Callable[[PhysicalConnection], float]] = None,
    ) -> None:
        _check_amount("alpha", alpha)
        self.alpha = alpha
        self.capacity_of = capacity_of

    def run(
        self,
        flows: Sequence[Flow],
        on_complete: Optional[Callable[[FlowResult, float], List[Flow]]] = None,
    ) -> List[FlowResult]:
        """Simulate ``flows``; optionally inject more on completions.

        ``on_complete(result, now)`` may return newly released flows
        (their ``release_time`` must be >= ``now``) — this is how the
        executor models dependency-triggered stage starts.
        """
        # Imported here: repro.runtime imports this module.
        from repro.runtime.events import Simulator
        from repro.runtime.network import LiveNetwork

        sim = Simulator()
        network = LiveNetwork(sim, self.alpha, self.capacity_of)
        handles = []
        results: List[FlowResult] = []

        def release(flow: Flow) -> None:
            handle = network.transfer(flow.path, flow.size_bytes, flow)
            handle.done.add_waiter(lambda: finished(handle))
            handles.append(handle)

        def post(flow: Flow) -> None:
            if flow.release_time < sim.now - 1e-12:
                raise ValueError("injected flow released in the past")
            sim.schedule(max(0.0, flow.release_time - sim.now), lambda: release(flow))

        def finished(handle) -> None:
            result = FlowResult(handle.tag, handle.start_time, handle.finish_time)
            results.append(result)
            if on_complete is not None:
                for flow in on_complete(result, sim.now):
                    post(flow)

        for flow in flows:
            post(flow)
        sim.run()
        if len(results) < len(handles):
            stuck = {c.name for h in handles if not h.done.triggered for c in h.tag.path}
            raise RuntimeError(
                "flows permanently stalled on dead connections: "
                + ", ".join(sorted(stuck))
            )
        return results

    def makespan(self, flows: Sequence[Flow]) -> float:
        """Time until the last of ``flows`` completes."""
        results = self.run(flows)
        return max((r.finish_time for r in results), default=0.0)

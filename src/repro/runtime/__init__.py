"""Protocol-level runtime: the DGCL master/client system of §4.1 & §6.1.

Where :mod:`repro.simulator.executor` times a plan at *transfer*
granularity, this package executes it at *protocol* granularity: every
device is a discrete-event process that spins on ready/done flags, posts
transfers to a live (max-min fair) network, and retrieves peer buffers
exactly as the paper's decentralized coordination prescribes — all
against a simulated clock, moving real numpy rows.

Components:

* :mod:`repro.runtime.events` — a small generator-coroutine
  discrete-event simulator (timeouts, conditions, flag waits);
* :mod:`repro.runtime.network` — the fluid flow engine (max-min fair
  bandwidth sharing with dynamic arrivals); the only one —
  :class:`~repro.simulator.network.NetworkSimulator` drives it for a
  fixed flow set;
* :mod:`repro.runtime.flags` — the ready/done flag boards peers poll
  (§6.1), with configurable remote-access latency;
* :mod:`repro.runtime.protocol` — the DGCL master and client processes
  and :class:`~repro.runtime.protocol.ProtocolRunner`, which runs one
  graphAllgather end to end and returns both the gathered rows and the
  per-device timeline.
"""

from repro.runtime.bootstrap import BootstrapReport, simulate_bootstrap
from repro.runtime.events import AnyOf, Flag, Simulator, Timeout, WaitFlag
from repro.runtime.flags import FlagBoard
from repro.runtime.network import LiveNetwork
from repro.runtime.protocol import ProtocolReport, ProtocolRunner

__all__ = [
    "Simulator",
    "Timeout",
    "WaitFlag",
    "Flag",
    "AnyOf",
    "LiveNetwork",
    "FlagBoard",
    "ProtocolRunner",
    "ProtocolReport",
    "simulate_bootstrap",
    "BootstrapReport",
]

"""Automatic communication method selection (paper §6.2).

DGCL picks a different peer-to-peer mechanism per device pair:

1. **CUDA virtual memory** for pairs under the same CPU socket — the
   sender writes the receiver's mapped buffer directly (cheapest setup);
2. **pinned CPU memory** for pairs under different sockets — a shared
   host buffer with DMA on both sides, "better performance than CUDA
   virtual memory in this case";
3. **NIC helper thread** for pairs on different machines — a thread
   stages data to a local buffer and drives the NIC (GPU RDMA when
   available).

We model a method as (setup-latency multiplier, bandwidth efficiency).
The *matching* method runs at full efficiency; a forced mismatch pays
the penalty the paper's measurement motivated (e.g. CUDA virtual memory
across sockets crawls).  :func:`select_method` reproduces DGCL's
automatic choice from the topology's placement metadata.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.topology.topology import Topology

__all__ = ["CommMethod", "MethodProfile", "select_method", "method_profile",
           "MethodTable"]


class CommMethod(enum.Enum):
    """The three §6.2 transfer mechanisms."""

    CUDA_VIRTUAL_MEMORY = "cuda-vm"
    PINNED_HOST_MEMORY = "pinned-host"
    NIC_HELPER = "nic-helper"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class MethodProfile:
    """Cost signature of one mechanism on one pair class.

    ``alpha_factor`` multiplies the per-transfer setup latency;
    ``efficiency`` derates the attainable bandwidth.
    """

    method: CommMethod
    alpha_factor: float
    efficiency: float

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if self.alpha_factor < 1.0:
            raise ValueError("alpha_factor cannot be below 1")


#: (pair class, method) -> profile.  Pair classes: "socket" (same
#: socket), "machine" (same machine, different socket), "remote"
#: (different machines).  The matching method is always the best entry
#: of its row — that is what §6.2's automatic selection exploits.
_PROFILES: Dict[str, Dict[CommMethod, MethodProfile]] = {
    "socket": {
        CommMethod.CUDA_VIRTUAL_MEMORY: MethodProfile(
            CommMethod.CUDA_VIRTUAL_MEMORY, 1.0, 1.0),
        CommMethod.PINNED_HOST_MEMORY: MethodProfile(
            CommMethod.PINNED_HOST_MEMORY, 2.0, 0.75),
        CommMethod.NIC_HELPER: MethodProfile(
            CommMethod.NIC_HELPER, 6.0, 0.4),
    },
    "machine": {
        # The paper measured pinned host memory beating CUDA virtual
        # memory across sockets.
        CommMethod.CUDA_VIRTUAL_MEMORY: MethodProfile(
            CommMethod.CUDA_VIRTUAL_MEMORY, 1.0, 0.55),
        CommMethod.PINNED_HOST_MEMORY: MethodProfile(
            CommMethod.PINNED_HOST_MEMORY, 2.0, 1.0),
        CommMethod.NIC_HELPER: MethodProfile(
            CommMethod.NIC_HELPER, 6.0, 0.5),
    },
    "remote": {
        CommMethod.NIC_HELPER: MethodProfile(
            CommMethod.NIC_HELPER, 6.0, 1.0),
    },
}


def _pair_class(topology: Topology, src: int, dst: int) -> str:
    if not topology.same_machine(src, dst):
        return "remote"
    if topology.same_socket(src, dst):
        return "socket"
    return "machine"


def select_method(topology: Topology, src: int, dst: int) -> CommMethod:
    """DGCL's automatic choice for one device pair (§6.2)."""
    pair = _pair_class(topology, src, dst)
    if pair == "socket":
        return CommMethod.CUDA_VIRTUAL_MEMORY
    if pair == "machine":
        return CommMethod.PINNED_HOST_MEMORY
    return CommMethod.NIC_HELPER


def method_profile(
    topology: Topology, src: int, dst: int,
    method: Optional[CommMethod] = None,
) -> MethodProfile:
    """Cost profile of ``method`` (default: the automatic pick)."""
    pair = _pair_class(topology, src, dst)
    chosen = method or select_method(topology, src, dst)
    row = _PROFILES[pair]
    if chosen not in row:
        raise ValueError(
            f"{chosen} cannot serve a {pair!r} pair "
            f"({src} -> {dst}); only {sorted(m.value for m in row)}"
        )
    return row[chosen]


class MethodTable:
    """Per-pair method assignment for a whole topology.

    With ``force`` unset every pair gets the automatic §6.2 choice;
    forcing one mechanism everywhere reproduces the mismatch penalty the
    ablation benchmark measures.  Pairs a forced mechanism cannot serve
    (virtual memory across machines) fall back to the automatic pick.
    """

    def __init__(self, topology: Topology,
                 force: Optional[CommMethod] = None) -> None:
        self.topology = topology
        self.force = force
        self._profiles: Dict[tuple, MethodProfile] = {}
        for a in topology.devices():
            for b in topology.devices():
                if a == b:
                    continue
                if force is not None:
                    try:
                        profile = method_profile(topology, a, b, force)
                    except ValueError:
                        profile = method_profile(topology, a, b)
                else:
                    profile = method_profile(topology, a, b)
                self._profiles[(a, b)] = profile

    def profile(self, src: int, dst: int) -> MethodProfile:
        """Cost profile assigned to the (src, dst) pair."""
        return self._profiles[(src, dst)]

    def summary(self) -> Dict[CommMethod, int]:
        """Count of pairs per assigned mechanism."""
        counts: Dict[CommMethod, int] = {}
        for profile in self._profiles.values():
            counts[profile.method] = counts.get(profile.method, 0) + 1
        return counts

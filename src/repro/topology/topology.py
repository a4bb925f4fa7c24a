"""Topology graph: devices, logical links, physical connections.

A :class:`Topology` is the ``D(V', E')`` graph of §5 in the paper: nodes
are compute devices (GPUs) and edges are *logical links*.  A logical link
is an ordered path of :class:`~repro.topology.links.PhysicalConnection`
objects — a single NVLink, or e.g. ``PCIe -> QPI -> PCIe`` for a
cross-socket pair.  Links are directed; duplex hardware is expressed by a
pair of links whose hops are per-direction connection objects.

Device placement metadata (machine / socket / PCIe switch) is kept on the
topology because hierarchical partitioning and the Swap baseline need it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.topology.links import BANDWIDTH_GBPS, LinkKind, PhysicalConnection

__all__ = ["Link", "Topology", "TopologyBuilder"]


@dataclass(frozen=True)
class Link:
    """A directed logical link between two devices.

    Attributes
    ----------
    src, dst:
        Device ids.
    connections:
        Physical hops, in traversal order.  Sharing a connection object
        with another link means contending with it.
    """

    src: int
    dst: int
    connections: Tuple[PhysicalConnection, ...]

    def __post_init__(self) -> None:
        if not self.connections:
            raise ValueError("a link needs at least one physical connection")
        if self.src == self.dst:
            raise ValueError("self links are not allowed")
        # Links key the hot dicts of plan compilation; hashing the
        # connection tuple on every lookup dominates, so do it once.
        object.__setattr__(
            self, "_hash", hash((self.src, self.dst, self.connections))
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def bottleneck_bandwidth(self) -> float:
        """GB/s of the slowest hop; an upper bound on the link's speed."""
        return min(c.bandwidth for c in self.connections)

    @property
    def kind(self) -> LinkKind:
        """The kind of the slowest hop — the label used in reports."""
        return min(self.connections, key=lambda c: c.bandwidth).kind

    @property
    def is_nvlink(self) -> bool:
        """True when every hop is NVLink (the 'fast link' class of §3)."""
        return all(c.kind.is_nvlink for c in self.connections)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        path = "-".join(str(c.kind) for c in self.connections)
        return f"Link({self.src}->{self.dst} via {path})"


class Topology:
    """An immutable device graph.  Build one with :class:`TopologyBuilder`."""

    def __init__(
        self,
        num_devices: int,
        links: Sequence[Link],
        machine_of: Sequence[int],
        socket_of: Sequence[int],
        switch_of: Sequence[int],
        host_paths: Dict[int, Tuple[Tuple[PhysicalConnection, ...], Tuple[PhysicalConnection, ...]]],
        memory_bytes: Sequence[int],
        name: str = "custom",
    ) -> None:
        if len(machine_of) != num_devices or len(socket_of) != num_devices:
            raise ValueError("placement metadata must cover every device")
        self._n = num_devices
        self._links: Tuple[Link, ...] = tuple(links)
        self.machine_of = tuple(machine_of)
        self.socket_of = tuple(socket_of)
        self.switch_of = tuple(switch_of)
        self._host_paths = dict(host_paths)
        self.memory_bytes = tuple(memory_bytes)
        self.name = name

        self._out: List[List[Link]] = [[] for _ in range(num_devices)]
        self._pair: Dict[Tuple[int, int], List[Link]] = {}
        for link in self._links:
            if not (0 <= link.src < num_devices and 0 <= link.dst < num_devices):
                raise ValueError(f"link endpoint out of range: {link}")
            self._out[link.src].append(link)
            self._pair.setdefault((link.src, link.dst), []).append(link)

        self._connections: Dict[str, PhysicalConnection] = {}
        for link in self._links:
            for conn in link.connections:
                existing = self._connections.setdefault(conn.name, conn)
                if existing is not conn:
                    raise ValueError(
                        f"two distinct PhysicalConnection objects named {conn.name!r}"
                    )

    # ------------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return self._n

    @property
    def links(self) -> Tuple[Link, ...]:
        return self._links

    @property
    def num_links(self) -> int:
        return len(self._links)

    @property
    def connections(self) -> Dict[str, PhysicalConnection]:
        """All physical connections by name."""
        return dict(self._connections)

    def devices(self) -> range:
        """Iterable of device ids."""
        return range(self._n)

    def links_from(self, device: int) -> List[Link]:
        """Outgoing links of one device."""
        return list(self._out[device])

    def links_between(self, src: int, dst: int) -> List[Link]:
        """All parallel logical links from ``src`` to ``dst``."""
        return list(self._pair.get((src, dst), []))

    def direct_link(self, src: int, dst: int) -> Optional[Link]:
        """The fastest direct link from ``src`` to ``dst``, or None."""
        candidates = self._pair.get((src, dst))
        if not candidates:
            return None
        return max(candidates, key=lambda l: l.bottleneck_bandwidth)

    def host_write_path(self, device: int) -> Tuple[PhysicalConnection, ...]:
        """Physical path for dumping data from ``device`` to host memory.

        Used by the Swap baseline; raises for topologies built without
        host staging.
        """
        try:
            return self._host_paths[device][0]
        except KeyError:
            raise KeyError(f"device {device} has no host staging path") from None

    def host_read_path(self, device: int) -> Tuple[PhysicalConnection, ...]:
        """Physical path for loading data from host memory to ``device``."""
        try:
            return self._host_paths[device][1]
        except KeyError:
            raise KeyError(f"device {device} has no host staging path") from None

    def has_host_staging(self, device: int) -> bool:
        """True when the device can stage through host memory."""
        return device in self._host_paths

    def same_socket(self, a: int, b: int) -> bool:
        """True when both devices share a machine and CPU socket."""
        return (
            self.machine_of[a] == self.machine_of[b]
            and self.socket_of[a] == self.socket_of[b]
        )

    def same_machine(self, a: int, b: int) -> bool:
        """True when both devices share a machine."""
        return self.machine_of[a] == self.machine_of[b]

    def num_machines(self) -> int:
        """Number of distinct machines in the topology."""
        return len(set(self.machine_of)) if self._n else 0

    def machine_members(self) -> Dict[int, List[int]]:
        """Device ids grouped by machine id."""
        groups: Dict[int, List[int]] = {}
        for dev in range(self._n):
            groups.setdefault(self.machine_of[dev], []).append(dev)
        return groups

    def is_strongly_connected(self) -> bool:
        """Every device can reach every other device over links."""
        if self._n <= 1:
            return True
        for start in (0,):
            seen = {start}
            stack = [start]
            while stack:
                cur = stack.pop()
                for link in self._out[cur]:
                    if link.dst not in seen:
                        seen.add(link.dst)
                        stack.append(link.dst)
            if len(seen) != self._n:
                return False
        # Directed connectivity both ways: repeat on the reverse graph.
        reverse: List[List[int]] = [[] for _ in range(self._n)]
        for link in self._links:
            reverse[link.dst].append(link.src)
        seen = {0}
        stack = [0]
        while stack:
            cur = stack.pop()
            for nxt in reverse[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == self._n

    def restrict(self, devices: Sequence[int], name: Optional[str] = None) -> "Topology":
        """Sub-topology induced on ``devices`` (relabelled 0..k-1)."""
        devices = list(devices)
        index = {dev: i for i, dev in enumerate(devices)}
        links = [
            Link(index[l.src], index[l.dst], l.connections)
            for l in self._links
            if l.src in index and l.dst in index
        ]
        host_paths = {
            index[dev]: path for dev, path in self._host_paths.items() if dev in index
        }
        return Topology(
            num_devices=len(devices),
            links=links,
            machine_of=[self.machine_of[d] for d in devices],
            socket_of=[self.socket_of[d] for d in devices],
            switch_of=[self.switch_of[d] for d in devices],
            host_paths=host_paths,
            memory_bytes=[self.memory_bytes[d] for d in devices],
            name=name or f"{self.name}[{len(devices)}]",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology({self.name!r}, devices={self._n}, links={len(self._links)}, "
            f"machines={self.num_machines()})"
        )


class TopologyBuilder:
    """Incremental construction of a :class:`Topology`.

    The builder keeps a registry of physical connections so that several
    logical links can share one wire, and offers ``add_duplex_link`` which
    creates per-direction connection objects for full-duplex hardware.
    """

    def __init__(self, name: str = "custom") -> None:
        self.name = name
        self._machine: List[int] = []
        self._socket: List[int] = []
        self._switch: List[int] = []
        self._memory: List[int] = []
        self._links: List[Link] = []
        self._conns: Dict[str, PhysicalConnection] = {}
        self._host_paths: Dict[
            int, Tuple[Tuple[PhysicalConnection, ...], Tuple[PhysicalConnection, ...]]
        ] = {}

    # ------------------------------------------------------------------
    def add_device(
        self,
        machine: int = 0,
        socket: int = 0,
        switch: int = 0,
        memory_bytes: int = 160_000_000,
    ) -> int:
        """Register a device; returns its id."""
        self._machine.append(machine)
        self._socket.append(socket)
        self._switch.append(switch)
        self._memory.append(int(memory_bytes))
        return len(self._machine) - 1

    def connection(
        self, name: str, kind: LinkKind, bandwidth: float = 0.0
    ) -> PhysicalConnection:
        """Get-or-create a shared physical connection by name."""
        if name not in self._conns:
            self._conns[name] = PhysicalConnection(name, kind, bandwidth)
        return self._conns[name]

    def add_link(
        self, src: int, dst: int, connections: Sequence[PhysicalConnection]
    ) -> None:
        """Add one directed logical link along existing connections."""
        self._links.append(Link(src, dst, tuple(connections)))

    def add_duplex_link(
        self,
        a: int,
        b: int,
        kind: LinkKind,
        bandwidth: float = 0.0,
        name: Optional[str] = None,
    ) -> None:
        """Add a full-duplex point-to-point wire between ``a`` and ``b``.

        Creates one physical connection per direction, so opposing
        traffic does not contend (NVLink, PCIe and QPI are full duplex).
        """
        base = name or f"{kind.value.lower()}:{a}-{b}"
        fwd = self.connection(f"{base}:{a}->{b}", kind, bandwidth)
        rev = self.connection(f"{base}:{b}->{a}", kind, bandwidth)
        self.add_link(a, b, (fwd,))
        self.add_link(b, a, (rev,))

    def set_host_path(
        self,
        device: int,
        write: Sequence[PhysicalConnection],
        read: Sequence[PhysicalConnection],
    ) -> None:
        """Register host-memory staging paths for the Swap baseline."""
        self._host_paths[device] = (tuple(write), tuple(read))

    def build(self) -> Topology:
        """Freeze the builder into an immutable Topology."""
        return Topology(
            num_devices=len(self._machine),
            links=self._links,
            machine_of=self._machine,
            socket_of=self._socket,
            switch_of=self._switch,
            host_paths=self._host_paths,
            memory_bytes=self._memory,
            name=self.name,
        )

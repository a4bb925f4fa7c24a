"""Hierarchy-aware graph partitioning.

§4.1 of the paper: "There are usually hierarchies in the communication
topology ... In these cases, we use hierarchical graph partitioning to
prioritize communication reduction on slow links."

The idea: first split the graph across *machines* (so the scarce
inter-machine bandwidth carries as few cross edges as possible), then
split each machine's share across its *sockets*, and finally across the
GPUs of each socket.  Every level reuses the multilevel partitioner of
:mod:`repro.partition.metis` on the induced subgraph.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.graph.csr import Graph
from repro.partition.metis import PartitionResult, _check_args, edge_cut, partition
from repro.topology.topology import Topology

__all__ = ["hierarchical_partition", "partition_tree", "recursive_partition"]

#: A nested grouping of device ids: either a device id or a list of subtrees.
GroupTree = Union[int, List["GroupTree"]]


def partition_tree(topology: Topology) -> GroupTree:
    """Build the machine -> socket -> device grouping of a topology.

    Levels where every group has a single member are collapsed, so a
    one-machine one-socket box degenerates to a flat list of devices.
    """
    machines: dict = {}
    for dev in topology.devices():
        key = topology.machine_of[dev]
        machines.setdefault(key, {})
        machines[key].setdefault(topology.socket_of[dev], []).append(dev)

    tree: List[GroupTree] = []
    for _, sockets in sorted(machines.items()):
        socket_groups: List[GroupTree] = []
        for _, devs in sorted(sockets.items()):
            if len(devs) == 1:
                socket_groups.append(devs[0])
            else:
                socket_groups.append(sorted(devs))
        if len(socket_groups) == 1:
            tree.append(socket_groups[0])
        else:
            tree.append(socket_groups)
    if len(tree) == 1:
        return tree[0]
    return tree


def _leaf_count(tree: GroupTree) -> int:
    if isinstance(tree, int):
        return 1
    return sum(_leaf_count(child) for child in tree)


def _flatten(tree: GroupTree) -> List[int]:
    if isinstance(tree, int):
        return [tree]
    out: List[int] = []
    for child in tree:
        out.extend(_flatten(child))
    return out


def recursive_partition(
    graph: Graph,
    tree: GroupTree,
    seed: int = 0,
    balance_factor: float = 1.05,
) -> np.ndarray:
    """Recursively split ``graph`` following a :data:`GroupTree`.

    Each internal node becomes one multilevel split (weighted by the
    number of devices beneath each child), so cuts at the top of the
    tree — the slow links — are minimised first.  Returns the per-vertex
    device assignment.
    """
    n = graph.num_vertices
    if isinstance(tree, int):
        return np.full(n, tree, dtype=np.int64)
    if all(isinstance(child, int) for child in tree):
        result = partition(graph, len(tree), seed=seed, balance_factor=balance_factor)
        device_ids = np.asarray(tree, dtype=np.int64)
        return device_ids[result.assignment]

    sizes = [_leaf_count(child) for child in tree]
    total = sum(sizes)
    if len(set(sizes)) == 1:
        top = partition(graph, len(tree), seed=seed, balance_factor=balance_factor)
        top_assignment = top.assignment
    else:
        # Unequal children: cut into `total` equal slots, merge per child.
        fine = partition(graph, total, seed=seed, balance_factor=balance_factor)
        slot_to_child = np.empty(total, dtype=np.int64)
        slot = 0
        for ci, size in enumerate(sizes):
            slot_to_child[slot : slot + size] = ci
            slot += size
        top_assignment = slot_to_child[fine.assignment]

    assignment = np.zeros(n, dtype=np.int64)
    for ci, child in enumerate(tree):
        members = np.flatnonzero(top_assignment == ci)
        if members.size == 0:
            continue
        if isinstance(child, int):
            assignment[members] = child
            continue
        flat = _flatten(child)
        if members.size < len(flat):
            # Degenerate split: too few vertices; spread them round robin.
            assignment[members] = np.asarray(flat, dtype=np.int64)[
                np.arange(members.size) % len(flat)
            ]
            continue
        sub, original = graph.subgraph(members)
        sub_assignment = recursive_partition(
            sub, child, seed=seed + 101 + ci, balance_factor=balance_factor
        )
        assignment[original] = sub_assignment
    return assignment


def hierarchical_partition(
    graph: Graph,
    topology: Topology,
    seed: int = 0,
    balance_factor: float = 1.05,
) -> PartitionResult:
    """Partition ``graph`` across the devices of ``topology``.

    Cuts across machines first (slowest links), then within machines
    across sockets, then within sockets across GPUs.  Degenerates to the
    flat multilevel partitioner for single-machine single-socket boxes.
    """
    _check_args(seed, balance_factor)
    num_devices = topology.num_devices
    n = graph.num_vertices
    if num_devices == 1:
        return PartitionResult(np.zeros(n, dtype=np.int64), 1, 0, 1.0)

    tree = partition_tree(topology)
    assignment = recursive_partition(graph, tree, seed=seed,
                                     balance_factor=balance_factor)
    sizes = np.bincount(assignment, minlength=num_devices)
    imbalance = float(sizes.max() / (n / num_devices)) if n else 0.0
    return PartitionResult(
        assignment=assignment,
        num_parts=num_devices,
        edge_cut=edge_cut(graph, assignment),
        imbalance=imbalance,
    )

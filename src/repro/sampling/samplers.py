"""Seeded, deterministic subgraph samplers over the CSR twins.

Mini-batch GNN training (DistDGL, DGL's GraphBolt) never touches the
full graph: each step trains on a *sampled subgraph* around a batch of
seed vertices.  Two sampler variants are provided, both walking the
in-CSR (the direction aggregation consumes):

* :class:`NeighborSampler` — uniform fanout-per-layer neighbor
  sampling: every frontier vertex draws at most ``fanouts[l]`` of its
  in-neighbors per layer, so frontier growth is capped;
* :class:`KHopSampler` — the full ``k``-hop expansion (every
  in-neighbor, every layer): the exact receptive field, used when the
  graph is small enough to afford it.

Both emit :class:`SampledSubgraph` batches — the induced local-id
:class:`~repro.graph.csr.Graph`, the layer-wise frontiers, and the
seed→local vertex map — and both are pure functions of
``(sampler seed, batch index, seed vertices)``: the same inputs yield
bit-identical batches, which the chaos determinism oracle and the
Hypothesis property suite both pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.graph.csr import Graph

__all__ = [
    "SampledSubgraph",
    "NeighborSampler",
    "KHopSampler",
    "gather_in_edges",
    "finish_batch",
]


@dataclass(frozen=True)
class SampledSubgraph:
    """One sampled mini-batch: a local-id subgraph plus its maps.

    ``vertices`` is the sorted global-id array of every sampled vertex;
    its index order *is* the local numbering of ``graph``.  ``seeds``
    are the batch's training vertices (global ids, sorted unique) and
    ``frontiers[l]`` is the cumulative global-id frontier after ``l``
    expansion layers (``frontiers[0] == seeds``, the last frontier
    equals ``vertices``).  ``graph`` holds the sampled edges in local
    ids — every one of them exists in the parent CSR.
    """

    seeds: np.ndarray
    vertices: np.ndarray
    graph: Graph
    frontiers: Tuple[np.ndarray, ...]

    @property
    def num_vertices(self) -> int:
        """Sampled vertex count (rows of every batch matrix)."""
        return int(self.vertices.size)

    @property
    def num_edges(self) -> int:
        """Sampled edge count."""
        return self.graph.num_edges

    @property
    def num_seeds(self) -> int:
        """Seed (loss-bearing) vertex count."""
        return int(self.seeds.size)

    @property
    def seed_rows(self) -> np.ndarray:
        """Local rows of the seed vertices (the seed→local map)."""
        return np.searchsorted(self.vertices, self.seeds)

    def local_rows(self, global_ids: np.ndarray) -> np.ndarray:
        """Local rows of ``global_ids``; raises if any were not sampled."""
        global_ids = np.asarray(global_ids, dtype=np.int64)
        rows = np.searchsorted(self.vertices, global_ids)
        if (rows >= self.vertices.size).any() or (
            self.vertices[np.minimum(rows, self.vertices.size - 1)]
            != global_ids
        ).any():
            raise KeyError("vertex not present in the sampled subgraph")
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SampledSubgraph(seeds={self.num_seeds}, "
            f"vertices={self.num_vertices}, edges={self.num_edges}, "
            f"layers={len(self.frontiers) - 1})"
        )


def finish_batch(
    parent: Graph,
    seeds: np.ndarray,
    frontiers: Tuple[np.ndarray, ...],
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
) -> SampledSubgraph:
    """Relabel sampled (global) edges into a local-id subgraph."""
    vertices = frontiers[-1]
    lookup = np.full(parent.num_vertices, -1, dtype=np.int64)
    lookup[vertices] = np.arange(vertices.size, dtype=np.int64)
    # Dedup edges sampled at more than one layer (same global pair).
    if edge_src.size:
        codes = edge_src * np.int64(parent.num_vertices) + edge_dst
        codes = np.unique(codes)
        edge_src = codes // parent.num_vertices
        edge_dst = codes % parent.num_vertices
    sub = Graph(
        lookup[edge_src], lookup[edge_dst], vertices.size, dedup=False
    )
    return SampledSubgraph(
        seeds=seeds, vertices=vertices, graph=sub, frontiers=frontiers
    )


def gather_in_edges(
    graph: Graph, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All in-edges of ``frontier``: (tails, heads, per-head degrees).

    Edges come grouped by head in ``frontier`` order (repeats included),
    each group in CSR order.  One index array addresses every group's
    slice of ``in_indices``, so there is no per-vertex loop.
    """
    starts = graph.in_indptr[frontier]
    degrees = graph.in_indptr[frontier + 1] - starts
    total = int(degrees.sum())
    group_start = np.cumsum(degrees) - degrees
    index = np.repeat(starts - group_start, degrees) + np.arange(total)
    tails = graph.in_indices[index].astype(np.int64, copy=False)
    heads = np.repeat(frontier, degrees)
    return tails, heads, degrees


class NeighborSampler:
    """Uniform fanout-per-layer neighbor sampling (the GraphBolt shape).

    ``fanouts`` has one entry per GNN layer; layer ``l`` samples at
    most ``fanouts[l]`` in-neighbors of every vertex in the current
    frontier (all of them when the in-degree is smaller).  Draws are
    made without replacement by a generator seeded from
    ``(seed, batch_index)``, so a batch stream replays bit-identically.
    """

    def __init__(
        self, graph: Graph, fanouts: Sequence[int], seed: int = 0
    ) -> None:
        if not fanouts:
            raise ValueError("need at least one fanout (one per layer)")
        fanouts = tuple(int(f) for f in fanouts)
        if any(f < 1 for f in fanouts):
            raise ValueError(f"fanouts must be >= 1, got {fanouts}")
        self.graph = graph
        self.fanouts = fanouts
        self.seed = int(seed)

    @property
    def num_layers(self) -> int:
        """Expansion depth (one hop per fanout entry)."""
        return len(self.fanouts)

    def sample(self, seeds: np.ndarray, batch_index: int = 0) -> SampledSubgraph:
        """Sample the mini-batch subgraph around ``seeds``.

        ``batch_index`` decorrelates draws across the batches of a
        stream while keeping each batch a pure function of its inputs.
        """
        graph = self.graph
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        if seeds.size and int(seeds.max()) >= graph.num_vertices:
            raise ValueError("seed vertex outside the parent graph")
        rng = np.random.default_rng((self.seed, int(batch_index)))
        member = np.zeros(graph.num_vertices, dtype=bool)
        member[seeds] = True
        frontiers = [seeds]
        edge_src_parts = []
        edge_dst_parts = []
        frontier = seeds
        for fanout in self.fanouts:
            if frontier.size == 0:
                frontiers.append(frontiers[-1])
                continue
            tails, heads, degrees = gather_in_edges(graph, frontier)
            if tails.size == 0:
                frontiers.append(frontiers[-1])
                continue
            keep = np.ones(tails.size, dtype=bool)
            offsets = np.concatenate([[0], np.cumsum(degrees)])
            for i, deg in enumerate(degrees):
                if deg > fanout:
                    s = offsets[i]
                    picked = rng.choice(int(deg), size=fanout, replace=False)
                    keep[s : s + deg] = False
                    keep[s + np.sort(picked)] = True
            tails, heads = tails[keep], heads[keep]
            edge_src_parts.append(tails)
            edge_dst_parts.append(heads)
            fresh = np.unique(tails)
            fresh = fresh[~member[fresh]]
            member[fresh] = True
            frontiers.append(np.flatnonzero(member))
            frontier = np.union1d(frontier, fresh)
        edge_src = (
            np.concatenate(edge_src_parts) if edge_src_parts
            else np.empty(0, dtype=np.int64)
        )
        edge_dst = (
            np.concatenate(edge_dst_parts) if edge_dst_parts
            else np.empty(0, dtype=np.int64)
        )
        return finish_batch(
            graph, seeds, tuple(frontiers), edge_src, edge_dst
        )


class KHopSampler:
    """Full ``k``-hop receptive-field expansion (no fanout cap).

    The sampled vertex set is
    :meth:`~repro.graph.csr.Graph.k_hop_in_neighborhood` of the seeds
    and the edges are the parent's *induced* edges on it — the exact
    subgraph a ``hops``-layer GNN needs to compute the seeds' outputs.
    Deterministic by construction (no random draws).
    """

    def __init__(self, graph: Graph, hops: int) -> None:
        if hops < 1:
            raise ValueError("hops must be >= 1")
        self.graph = graph
        self.hops = int(hops)

    @property
    def num_layers(self) -> int:
        """Expansion depth in hops."""
        return self.hops

    def sample(self, seeds: np.ndarray, batch_index: int = 0) -> SampledSubgraph:
        """Expand ``seeds`` by ``hops`` full in-neighbor layers.

        ``batch_index`` is accepted for interface parity with
        :class:`NeighborSampler` and ignored (nothing is random).
        """
        graph = self.graph
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        if seeds.size and int(seeds.max()) >= graph.num_vertices:
            raise ValueError("seed vertex outside the parent graph")
        frontiers = [seeds]
        for hop in range(1, self.hops + 1):
            frontiers.append(graph.k_hop_in_neighborhood(seeds, hop))
        vertices = frontiers[-1]
        sub, _ = graph.subgraph(vertices)
        return SampledSubgraph(
            seeds=seeds,
            vertices=vertices,
            graph=sub,
            frontiers=tuple(frontiers),
        )

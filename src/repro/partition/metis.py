"""Multilevel k-way graph partitioning in the METIS style.

The paper partitions the input graph with METIS "to minimize the number
of cross-partition edges for communication reduction and also ensure
that each partition has a similar number of vertices for load balancing"
(§4.1).  METIS itself is not available here, so this module implements
the same multilevel scheme from scratch:

1. **Coarsening** — repeated heavy-edge matching contracts the graph
   until it is small (a few dozen vertices per requested part).
2. **Initial partitioning** — greedy region growing on the coarsest
   graph, seeding parts far apart and absorbing the most-connected
   boundary vertex that keeps the balance constraint.
3. **Uncoarsening + refinement** — the partition is projected back level
   by level, running boundary Kernighan–Lin/FM-style passes (move a
   vertex to the adjacent part with the best edge-cut gain, subject to
   balance) at every level.  Refinement keeps a per-vertex, per-part
   connectivity table, updated from a moved vertex's neighbours, so a
   visit costs O(parts) rather than O(degree); ties go to the lighter
   part, then to the part seen first among the vertex's neighbours.

The partitioner works on the symmetrised weighted graph; edge cut is
reported on the original directed graph.  Its output is deterministic
in the seed: the tests pin sha256 digests of the assignment on the
dataset twins, and check every vectorised step against a scalar
reference scan.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import PartitionSpecError
from repro.graph.csr import Graph

__all__ = ["PartitionResult", "partition", "edge_cut"]


@dataclass(frozen=True)
class PartitionResult:
    """A vertex-to-part assignment plus quality metrics."""

    assignment: np.ndarray
    num_parts: int
    edge_cut: int
    imbalance: float

    def parts(self) -> List[np.ndarray]:
        """Vertex ids of each part, ascending within a part."""
        return [np.flatnonzero(self.assignment == p) for p in range(self.num_parts)]

    def part_sizes(self) -> np.ndarray:
        """Vertex count of every part."""
        return np.bincount(self.assignment, minlength=self.num_parts)


def edge_cut(graph: Graph, assignment: np.ndarray) -> int:
    """Number of directed edges whose endpoints live in different parts."""
    src, dst = graph.edges
    if src.size == 0:
        return 0
    return int((assignment[src] != assignment[dst]).sum())


# ----------------------------------------------------------------------
# Internal weighted-graph representation used during the multilevel walk.
# ----------------------------------------------------------------------
class _WeightedGraph:
    """Undirected weighted CSR used by coarsening/refinement."""

    __slots__ = ("n", "indptr", "indices", "eweights", "vweights")

    def __init__(
        self,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        eweights: np.ndarray,
        vweights: np.ndarray,
    ) -> None:
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.eweights = eweights
        self.vweights = vweights

    @classmethod
    def from_graph(cls, graph: Graph) -> "_WeightedGraph":
        src, dst = graph.edges
        n = graph.num_vertices
        # Symmetrise and merge parallel edges, accumulating weights.
        all_src = np.concatenate([src, dst])
        all_dst = np.concatenate([dst, src])
        keep = all_src != all_dst
        all_src, all_dst = all_src[keep], all_dst[keep]
        return cls._from_edges(n, all_src, all_dst,
                               np.ones(all_src.size, dtype=np.int64),
                               np.ones(n, dtype=np.int64))

    @classmethod
    def _from_edges(
        cls,
        n: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
        vweights: np.ndarray,
    ) -> "_WeightedGraph":
        if src.size == 0:
            indptr = np.zeros(n + 1, dtype=np.int64)
            return cls(n, indptr, np.empty(0, np.int64), np.empty(0, np.int64), vweights)
        code = src * np.int64(n) + dst
        # Order within a group of parallel edges only feeds an integer
        # sum, so an unstable sort merges them to the same weights.
        order = np.argsort(code)
        code, weights = code[order], weights[order]
        boundary = np.empty(code.size, dtype=bool)
        boundary[0] = True
        boundary[1:] = code[1:] != code[:-1]
        starts = np.flatnonzero(boundary)
        merged_w = np.add.reduceat(weights, starts)
        merged_src, merged_dst = np.divmod(code[starts], n)
        counts = np.bincount(merged_src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(n, indptr, merged_dst, merged_w, vweights)

    def sources(self) -> np.ndarray:
        """The source vertex of every edge, in CSR order."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))


#: Above this degree, matching picks a vertex's partner with one numpy
#: argmax over its neighbour slice; at or below it a Python scan of the
#: slice is cheaper (the low-degree coarse levels of e.g. wiki-talk).
_VECTOR_MATCH_DEGREE = 32


def _heavy_edge_matching(wg: _WeightedGraph, rng: np.random.Generator) -> np.ndarray:
    """Match each vertex with its heaviest unmatched neighbor.

    Vertices are visited in a random order; a visited vertex pairs with
    the first neighbour, in CSR order, of the largest edge weight among
    those still unmatched.  Returns ``match`` with ``match[v]`` = partner
    (or ``v`` for vertices left single); it is an involution.
    """
    order = rng.permutation(wg.n)
    match = np.full(wg.n, -1, dtype=np.int64)
    partner = match.tolist()  # Python mirror of ``match`` for scalar reads
    indptr, indices, eweights = wg.indptr.tolist(), wg.indices, wg.eweights
    for v in order.tolist():
        if partner[v] != -1:
            continue
        s, e = indptr[v], indptr[v + 1]
        best = v
        if e - s > _VECTOR_MATCH_DEGREE:
            # Weights are at least 1, so -1 marks a matched neighbour;
            # argmax returns the first maximum, as a strict ``>`` scan.
            w = np.where(match[indices[s:e]] == -1, eweights[s:e], -1)
            i = int(w.argmax())
            if w[i] >= 0:
                best = int(indices[s + i])
        else:
            best_w = -1
            for u, w in zip(indices[s:e].tolist(), eweights[s:e].tolist()):
                if partner[u] == -1 and w > best_w:
                    best, best_w = u, w
        match[v] = best
        match[best] = v
        partner[v] = best
        partner[best] = v
    return match


def _contract(wg: _WeightedGraph, match: np.ndarray) -> Tuple[_WeightedGraph, np.ndarray]:
    """Contract matched pairs; returns the coarse graph and the mapping.

    Each pair (or single) becomes one coarse vertex, numbered in order
    of its smaller member.
    """
    n = wg.n
    first = np.minimum(np.arange(n, dtype=np.int64), match)
    is_first = first == np.arange(n)
    next_id = int(is_first.sum())
    coarse_id = (np.cumsum(is_first) - 1)[first]
    vweights = np.bincount(coarse_id, weights=wg.vweights, minlength=next_id).astype(np.int64)

    # Re-express edges in coarse ids and drop intra-cluster edges.
    csrc = coarse_id[wg.sources()]
    cdst = coarse_id[wg.indices]
    keep = csrc != cdst
    coarse = _WeightedGraph._from_edges(
        next_id, csrc[keep], cdst[keep], wg.eweights[keep], vweights
    )
    return coarse, coarse_id


def _farthest_seeds(
    wg: _WeightedGraph, num_parts: int, rng: np.random.Generator
) -> np.ndarray:
    """Pick seeds spread apart by BFS distance (disconnected first)."""
    src = wg.sources()
    seeds = [int(rng.integers(wg.n))]
    for _ in range(num_parts - 1):
        # Multi-source BFS from the current seeds, one level per step.
        dist = np.full(wg.n, -1, dtype=np.int64)
        dist[seeds] = 0
        frontier = dist == 0
        level = 0
        while frontier.any():
            level += 1
            reached = wg.indices[frontier[src]]
            reached = reached[dist[reached] == -1]
            dist[reached] = level
            frontier = dist == level
        unreached = np.flatnonzero(dist == -1)
        if unreached.size:
            seeds.append(int(rng.choice(unreached)))
        else:
            far = np.flatnonzero(dist == dist.max())
            seeds.append(int(rng.choice(far)))
    return np.asarray(seeds, dtype=np.int64)


def _weighted_cut(wg: _WeightedGraph, assignment: np.ndarray) -> int:
    crossing = assignment[wg.sources()] != assignment[wg.indices]
    return int(wg.eweights[crossing].sum())


def _initial_partition(
    wg: _WeightedGraph,
    num_parts: int,
    max_part_weight: float,
    rng: np.random.Generator,
    restarts: int = 4,
) -> np.ndarray:
    """Greedy region growing, best of several far-apart seedings."""
    best: Optional[np.ndarray] = None
    best_cut = np.iinfo(np.int64).max
    for _ in range(restarts):
        assignment = _grow_regions(wg, num_parts, max_part_weight, rng)
        cut = _weighted_cut(wg, assignment)
        if cut < best_cut:
            best, best_cut = assignment, cut
    return best


def _grow_regions(
    wg: _WeightedGraph, num_parts: int, max_part_weight: float, rng: np.random.Generator
) -> np.ndarray:
    assignment = np.full(wg.n, -1, dtype=np.int64)
    part_weight = np.zeros(num_parts, dtype=np.int64)
    seeds = _farthest_seeds(wg, num_parts, rng)
    order_parts = rng.permutation(num_parts)
    for p, seed in zip(order_parts, seeds):
        assignment[seed] = p
        part_weight[p] = wg.vweights[seed]

    # Grow parts: repeatedly take the lightest part and absorb its most
    # connected unassigned neighbor (or any unassigned vertex).  Edges
    # are in CSR order (member ascending), so the first heaviest edge
    # from the part to a free vertex is the one a scan of the part's
    # members picks.  ``src_part`` is every edge's source part.
    indptr, indices, eweights = wg.indptr, wg.indices, wg.eweights
    src_part = np.repeat(assignment, np.diff(indptr))
    full = np.iinfo(np.int64).max
    unassigned = wg.n - num_parts
    while unassigned > 0:
        p = int(np.argmin(np.where(part_weight < max_part_weight, part_weight, full)))
        cand = np.flatnonzero((src_part == p) & (assignment[indices] == -1))
        if cand.size:
            best = int(indices[cand[np.argmax(eweights[cand])]])
        else:
            best = int(np.flatnonzero(assignment == -1)[0])
        assignment[best] = p
        part_weight[p] += wg.vweights[best]
        src_part[indptr[best]:indptr[best + 1]] = p
        unassigned -= 1
    return assignment


def _refine(
    wg: _WeightedGraph,
    assignment: np.ndarray,
    num_parts: int,
    max_part_weight: float,
    passes: int,
    rng: np.random.Generator,
) -> None:
    """Boundary FM-style refinement, in place.

    ``conn[v, p]`` is v's edge weight into part ``p``.  It is built once
    and updated from a moved vertex's neighbour slice, so deciding a
    visit costs O(num_parts) rather than O(degree).  A visited vertex
    moves to the feasible adjacent part of highest positive gain; a
    vertex of an overweight part also moves at no gain.  Ties go to the
    lightest part, then to the part seen first among the neighbours.
    """
    n, indptr, indices, eweights = wg.n, wg.indptr, wg.indices, wg.eweights
    conn = np.bincount(wg.sources() * num_parts + assignment[indices], weights=eweights,
                       minlength=n * num_parts).astype(np.int64).reshape(n, num_parts)
    total = conn.sum(axis=1)
    rows = np.arange(n)
    # Python mirrors for the per-visit scalar reads.  Part weights are
    # integer-valued floats, so they compare exactly as numpy's would.
    part_weight = np.bincount(assignment, weights=wg.vweights, minlength=num_parts).tolist()
    vweights, ptr = wg.vweights.tolist(), indptr.tolist()
    part_of = assignment.tolist()
    for _ in range(passes):
        moved = 0
        boundary = np.flatnonzero(conn[rows, assignment] != total)
        order = boundary[rng.permutation(boundary.size)]
        for v in order.tolist():
            home = part_of[v]
            row = conn[v].tolist()
            internal = row[home]
            if max(row) == internal and part_weight[home] <= max_part_weight:
                continue  # no move gains (e.g. interior), home not overweight
            vw = vweights[v]
            feasible = [p for p, w in enumerate(row) if w and p != home
                        and part_weight[p] + vw <= max_part_weight]
            if not feasible:
                continue
            top = max([row[p] for p in feasible])
            if top > internal:  # the parts of highest (positive) gain
                tied = [p for p in feasible if row[p] == top]
            elif part_weight[home] > max_part_weight:
                tied = feasible  # a zero-gain move out of an overweight part
            else:
                continue
            if len(tied) > 1:  # the lightest, then the first seen
                lightest = min([part_weight[p] for p in tied])
                tied = [p for p in tied if part_weight[p] == lightest]
            s, e = ptr[v], ptr[v + 1]
            best_part = tied[0] if len(tied) == 1 else next(
                p for p in assignment[indices[s:e]].tolist() if p in tied)
            part_weight[home] -= vw
            part_weight[best_part] += vw
            assignment[v] = part_of[v] = best_part
            nbrs, ws = indices[s:e], eweights[s:e]
            conn[nbrs, home] -= ws
            conn[nbrs, best_part] += ws
            moved += 1
        if moved == 0:
            break


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_args(seed, balance_factor) -> None:
    """Reject a seed or balance factor the partitioner cannot honour."""
    if not _is_int(seed) or seed < 0:
        raise PartitionSpecError(f"seed must be a non-negative integer, got {seed!r}")
    if (not isinstance(balance_factor, numbers.Real) or isinstance(balance_factor, bool)
            or not math.isfinite(balance_factor) or balance_factor < 1):
        raise PartitionSpecError(
            f"balance_factor must be a finite number >= 1, got {balance_factor!r}")


def partition(
    graph: Graph,
    num_parts: int,
    seed: int = 0,
    balance_factor: float = 1.05,
    refine_passes: int = 4,
    coarsen_until: Optional[int] = None,
) -> PartitionResult:
    """Partition ``graph`` into ``num_parts`` balanced parts, minimising cut.

    Parameters
    ----------
    graph:
        The directed data graph.
    num_parts:
        Number of partitions (= number of GPUs).
    seed:
        Seed for the randomised matching/refinement orders.
    balance_factor:
        Maximum allowed part weight relative to the perfectly balanced
        weight (METIS' ``ufactor`` analogue).
    refine_passes:
        Boundary-refinement passes per level.
    coarsen_until:
        Stop coarsening when at most this many vertices remain
        (default: ``max(32 * num_parts, 128)``).
    """
    n = graph.num_vertices
    _check_args(seed, balance_factor)
    if not _is_int(num_parts) or not 1 <= num_parts <= max(n, 1):
        raise PartitionSpecError(
            f"cannot split {n} vertices into {num_parts!r} parts: num_parts "
            f"must be an integer in [1, {max(n, 1)}]")
    if num_parts == 1:
        return PartitionResult(np.zeros(n, dtype=np.int64), 1, 0, 1.0 if n else 0.0)

    rng = np.random.default_rng(seed)
    target = coarsen_until or max(32 * num_parts, 128)

    # 1. Coarsen.
    levels: List[Tuple[_WeightedGraph, np.ndarray]] = []
    wg = _WeightedGraph.from_graph(graph)
    while wg.n > target:
        match = _heavy_edge_matching(wg, rng)
        coarse, mapping = _contract(wg, match)
        if coarse.n >= wg.n * 0.95:  # matching stalled (e.g. star graphs)
            break
        levels.append((wg, mapping))
        wg = coarse

    total_weight = float(wg.vweights.sum())
    max_part_weight = balance_factor * total_weight / num_parts

    # 2. Initial partition on the coarsest graph.
    assignment = _initial_partition(wg, num_parts, max_part_weight, rng)
    _refine(wg, assignment, num_parts, max_part_weight, refine_passes, rng)

    # 3. Uncoarsen with refinement at every level.
    for finer, mapping in reversed(levels):
        assignment = assignment[mapping]
        _refine(finer, assignment, num_parts, max_part_weight, refine_passes, rng)

    sizes = np.bincount(assignment, minlength=num_parts)
    imbalance = float(sizes.max() / (n / num_parts)) if n else 0.0
    return PartitionResult(
        assignment=assignment,
        num_parts=num_parts,
        edge_cut=edge_cut(graph, assignment),
        imbalance=imbalance,
    )

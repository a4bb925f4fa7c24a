"""Scalar reference scans of the multilevel partitioner.

These are the straightforward per-edge loops that
:mod:`repro.partition.metis` once ran: heavy-edge matching by a strict
``>`` scan, seeding by a vertex-at-a-time BFS, region growing by
rescanning every member of the lightest part, and FM refinement that
rebuilds each vertex's part connectivity in a dict whose insertion
order breaks ties.  The library's vectorised
versions must return identical arrays; ``test_partition_oracle.py``
checks that on small drawn graphs built to force ties.
"""

from __future__ import annotations

import numpy as np


def _neighbors(wg, v: int):
    s, e = wg.indptr[v], wg.indptr[v + 1]
    return wg.indices[s:e], wg.eweights[s:e]


def farthest_seeds(wg, num_parts: int, rng: np.random.Generator) -> np.ndarray:
    """Seeds spread apart by a vertex-at-a-time multi-source BFS."""
    seeds = [int(rng.integers(wg.n))]
    for _ in range(num_parts - 1):
        dist = np.full(wg.n, -1, dtype=np.int64)
        frontier = list(seeds)
        for s in frontier:
            dist[s] = 0
        level = 0
        while frontier:
            level += 1
            nxt = []
            for v in frontier:
                nbrs, _ = _neighbors(wg, v)
                for u in nbrs:
                    if dist[u] == -1:
                        dist[u] = level
                        nxt.append(int(u))
            frontier = nxt
        unreached = np.flatnonzero(dist == -1)
        if unreached.size:
            seeds.append(int(rng.choice(unreached)))
        else:
            far = np.flatnonzero(dist == dist.max())
            seeds.append(int(rng.choice(far)))
    return np.asarray(seeds, dtype=np.int64)


def heavy_edge_matching(wg, rng: np.random.Generator) -> np.ndarray:
    """Match each vertex with its heaviest unmatched neighbor."""
    order = rng.permutation(wg.n)
    match = np.full(wg.n, -1, dtype=np.int64)
    indptr, indices, eweights = wg.indptr, wg.indices, wg.eweights
    for v in order:
        if match[v] != -1:
            continue
        s, e = indptr[v], indptr[v + 1]
        best, best_w = v, -1
        for i in range(s, e):
            u = indices[i]
            if match[u] == -1 and u != v and eweights[i] > best_w:
                best, best_w = u, eweights[i]
        match[v] = best
        match[best] = v
    return match


def contract_ids(match: np.ndarray) -> np.ndarray:
    """Number each matched pair (or single) in order of first member."""
    n = match.size
    coarse_id = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if coarse_id[v] != -1:
            continue
        coarse_id[v] = next_id
        partner = match[v]
        if partner != v and coarse_id[partner] == -1:
            coarse_id[partner] = next_id
        next_id += 1
    return coarse_id


def grow_regions(
    wg, num_parts: int, max_part_weight: float, rng: np.random.Generator
) -> np.ndarray:
    """Greedy region growing that rescans the lightest part's members."""
    assignment = np.full(wg.n, -1, dtype=np.int64)
    part_weight = np.zeros(num_parts, dtype=np.int64)
    seeds = farthest_seeds(wg, num_parts, rng)
    order_parts = rng.permutation(num_parts)
    for p, seed in zip(order_parts, seeds):
        assignment[seed] = p
        part_weight[p] = wg.vweights[seed]

    unassigned = wg.n - num_parts
    while unassigned > 0:
        p = int(np.argmin(np.where(part_weight < max_part_weight, part_weight,
                                   np.iinfo(np.int64).max)))
        members = np.flatnonzero(assignment == p)
        best, best_conn = -1, -1
        for v in members:
            nbrs, ws = _neighbors(wg, v)
            for u, w in zip(nbrs, ws):
                if assignment[u] == -1 and w > best_conn:
                    best, best_conn = u, w
        if best == -1:
            remaining = np.flatnonzero(assignment == -1)
            best = int(remaining[0])
        assignment[best] = p
        part_weight[p] += wg.vweights[best]
        unassigned -= 1
    return assignment


def refine(
    wg,
    assignment: np.ndarray,
    num_parts: int,
    max_part_weight: float,
    passes: int,
    rng: np.random.Generator,
) -> None:
    """Boundary FM-style refinement with a per-visit dict, in place."""
    part_weight = np.bincount(assignment, weights=wg.vweights, minlength=num_parts)
    indptr, indices, eweights = wg.indptr, wg.indices, wg.eweights
    degrees = np.diff(indptr)
    for _ in range(passes):
        moved = 0
        edge_src_part = np.repeat(assignment, degrees)
        crossing = edge_src_part != assignment[indices]
        boundary = np.flatnonzero(
            np.bincount(np.repeat(np.arange(wg.n), degrees),
                        weights=crossing, minlength=wg.n) > 0
        )
        order = boundary[rng.permutation(boundary.size)]
        for v in order:
            s, e = indptr[v], indptr[v + 1]
            if s == e:
                continue
            home = assignment[v]
            nbr_parts = assignment[indices[s:e]]
            if (nbr_parts == home).all():
                continue
            conn: dict = {}
            for u_part, w in zip(nbr_parts, eweights[s:e]):
                conn[u_part] = conn.get(u_part, 0) + w
            internal = conn.get(home, 0)
            best_part, best_gain = home, 0
            for p, w in conn.items():
                if p == home:
                    continue
                if part_weight[p] + wg.vweights[v] > max_part_weight:
                    continue
                gain = w - internal
                if gain > best_gain or (
                    gain == best_gain
                    and best_part != home
                    and part_weight[p] < part_weight[best_part]
                ):
                    best_part, best_gain = p, gain
            if best_part == home and part_weight[home] > max_part_weight:
                candidates = [p for p in conn if p != home
                              and part_weight[p] + wg.vweights[v] <= max_part_weight]
                if candidates:
                    best_part = min(candidates, key=lambda p: part_weight[p])
            if best_part != home:
                part_weight[home] -= wg.vweights[v]
                part_weight[best_part] += wg.vweights[v]
                assignment[v] = best_part
                moved += 1
        if moved == 0:
            break

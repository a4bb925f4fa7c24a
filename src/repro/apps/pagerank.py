"""PageRank over the DGCL communication stack.

Power iteration shares GNN training's access pattern: every vertex
combines values from its in-neighbors, so each iteration needs exactly
one graphAllgather of a 1-wide "embedding" (the rank vector).  The
distributed implementation below reuses the partition, relation, plan
and :class:`~repro.comm.allgather.CompiledAllgather` unchanged —
demonstrating the paper's claim that the library generalises beyond GNNs.

Scalar reductions (dangling mass, convergence residual) ride the ring
allreduce used for model synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.comm.allgather import CompiledAllgather
from repro.comm.collectives import RingAllreduce
from repro.core.plan import CommPlan
from repro.core.relation import CommRelation
from repro.gnn.functional import segment_sum
from repro.graph.csr import Graph
from repro.simulator.executor import PlanExecutor

__all__ = ["pagerank", "DistributedPageRank", "PageRankResult"]


def pagerank(
    graph: Graph,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iters: int = 100,
) -> np.ndarray:
    """Reference single-machine PageRank (power iteration).

    Dangling vertices (no out-edges) spread their rank uniformly.
    """
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.float64)
    out_degree = graph.out_degree().astype(np.float64)
    dangling = out_degree == 0
    rank = np.full(n, 1.0 / n, dtype=np.float64)
    for _ in range(max_iters):
        contrib = np.where(dangling, 0.0, rank / np.maximum(out_degree, 1.0))
        gathered = segment_sum(contrib, graph.in_indptr, graph.in_indices)
        dangling_mass = rank[dangling].sum() / n
        new_rank = (1.0 - damping) / n + damping * (gathered + dangling_mass)
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta < tol:
            break
    return rank


@dataclass
class PageRankResult:
    """Converged ranks plus distributed-execution accounting."""

    ranks: np.ndarray
    iterations: int
    residual: float
    simulated_comm_seconds: float = 0.0
    residual_history: List[float] = field(default_factory=list)


class DistributedPageRank:
    """Power iteration over a partitioned graph and a DGCL plan."""

    def __init__(
        self,
        relation: CommRelation,
        plan: CommPlan,
        damping: float = 0.85,
        executor: Optional[PlanExecutor] = None,
    ) -> None:
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        self.relation = relation
        self.damping = damping
        self.allgather = CompiledAllgather(relation, plan)
        self.plan = plan
        self.executor = executor or PlanExecutor(plan.topology)
        self.allreduce = RingAllreduce(plan.topology)

        graph = relation.graph
        self.num_vertices = graph.num_vertices
        out_degree = graph.out_degree().astype(np.float64)
        self._dangling_global = out_degree == 0
        self.num_devices = relation.num_devices

        # Per-device constants in local layout (local rows then remote).
        self._contexts = []
        for d in range(self.num_devices):
            lg = relation.local_graph(d)
            layout = lg.global_ids
            self._contexts.append({
                "local_graph": lg,
                "out_degree": out_degree[layout],
                "dangling_local": self._dangling_global[
                    relation.local_vertices[d]
                ],
            })

    def run(self, tol: float = 1e-8, max_iters: int = 100) -> PageRankResult:
        """Iterate to convergence; ranks really travel the plan."""
        rel = self.relation
        n = self.num_vertices
        local_ranks = [
            np.full((rel.local_vertices[d].size, 1), 1.0 / n, dtype=np.float64)
            for d in range(self.num_devices)
        ]
        comm_seconds = 0.0
        history: List[float] = []
        iterations = 0
        residual = float("inf")
        allgather_time = self.executor.execute(self.plan, 8).total_time

        for iterations in range(1, max_iters + 1):
            # Scalar pre-reduction: dangling mass and (later) residual.
            dangling_blocks = [
                np.array([
                    local_ranks[d][ctx["dangling_local"], 0].sum()
                ])
                for d, ctx in enumerate(self._contexts)
            ]
            dangling_mass = self.allreduce.reduce(dangling_blocks)[0][0] / n

            # graphAllgather of the rank-over-degree contributions.
            contribs = []
            for d, ctx in enumerate(self._contexts):
                local_deg = ctx["out_degree"][: local_ranks[d].shape[0]]
                contrib = np.where(
                    local_deg[:, None] > 0,
                    local_ranks[d] / np.maximum(local_deg[:, None], 1.0),
                    0.0,
                )
                contribs.append(contrib)
            full = self.allgather.forward(contribs)
            comm_seconds += allgather_time

            # Local update and residual.
            residual_blocks = []
            new_ranks = []
            for d, ctx in enumerate(self._contexts):
                lg = ctx["local_graph"]
                gathered = segment_sum(
                    full[d],
                    lg.graph.in_indptr[: lg.num_local + 1],
                    lg.graph.in_indices,
                )
                updated = (1.0 - self.damping) / n + self.damping * (
                    gathered + dangling_mass
                )
                residual_blocks.append(
                    np.array([np.abs(updated - local_ranks[d]).sum()])
                )
                new_ranks.append(updated)
            local_ranks = new_ranks
            residual = float(self.allreduce.reduce(residual_blocks)[0][0])
            history.append(residual)
            if residual < tol:
                break

        ranks = np.zeros(n, dtype=np.float64)
        for d in range(self.num_devices):
            ranks[rel.local_vertices[d]] = local_ranks[d][:, 0]
        return PageRankResult(
            ranks=ranks,
            iterations=iterations,
            residual=residual,
            simulated_comm_seconds=comm_seconds,
            residual_history=history,
        )

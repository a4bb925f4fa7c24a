"""Forward-only plan derivation (satellite of the serving PR).

Inference never runs the backward half of a training plan.  These
tests pin the contract of :mod:`repro.serve.forward`: the forward
byte count is exactly half the round trip, the backward accessor is a
typed error, a batch's subgraph holds exactly its seeds' fresh
cross-partition in-edges, and every priced batch plan delivers a row
to exactly the devices that read it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CommRelation, SPSTPlanner
from repro.errors import ForwardOnlyPlanError
from repro.graph.generators import rmat
from repro.partition import partition
from repro.sampling import BatchPlanner
from repro.serve import build_scenario, server
from repro.serve.forward import (
    ForwardOnlyPlan,
    cross_in_edges,
    forward_only,
    plan_connections,
    restrict_forward,
)
from repro.topology import topology_for_gpu_count


@pytest.fixture(scope="module")
def workload():
    graph = rmat(120, 700, seed=1)
    topo = topology_for_gpu_count(4)
    assignment = partition(graph, topo.num_devices, seed=0).assignment
    rel = CommRelation(graph, assignment, topo.num_devices)
    plan = SPSTPlanner(topo, seed=0).plan(rel)
    return graph, topo, plan


def _units(tuples) -> int:
    return int(sum(t.units for t in tuples))


class TestForwardOnly:
    def test_forward_units_are_half_the_round_trip(self, workload):
        _, _, plan = workload
        fwd = forward_only(plan)
        round_trip = _units(plan.tuples()) + _units(plan.backward_tuples())
        assert _units(fwd.tuples()) > 0
        assert 2 * _units(fwd.tuples()) == round_trip

    def test_backward_half_is_a_typed_error(self, workload):
        _, _, plan = workload
        fwd = forward_only(plan)
        with pytest.raises(ForwardOnlyPlanError):
            fwd.backward_tuples()

    def test_name_and_route_sharing(self, workload):
        _, _, plan = workload
        fwd = forward_only(plan)
        assert isinstance(fwd, ForwardOnlyPlan)
        assert fwd.name == f"{plan.name}+forward"
        assert fwd.routes is plan.routes  # zero-copy derivation

    def test_plan_connections_nonempty(self, workload):
        _, _, plan = workload
        names = plan_connections(forward_only(plan))
        assert names and all(isinstance(n, str) for n in names)


class TestRestrictForward:
    def test_keeps_fresh_cross_partition_in_edges(self, workload):
        graph, topo, _ = workload
        owner = partition(graph, topo.num_devices, seed=0).assignment
        seeds = np.array([7, 3, 7, 40], dtype=np.int64)
        tails, heads = cross_in_edges(graph, owner, seeds)
        assert tails.size and (owner[tails] != owner[heads]).all()
        fresh = np.unique(tails)[::2]
        sub = restrict_forward(graph, owner, seeds, fresh)
        src, dst = sub.graph.edges
        kept = {(int(sub.vertices[u]), int(sub.vertices[v]))
                for u, v in zip(src, dst)}
        assert kept == {(int(u), int(v)) for u, v in zip(tails, heads)
                        if u in fresh}
        assert sub.seeds.tolist() == sorted({v for _, v in kept})

    def test_no_fresh_rows_is_an_empty_batch(self, workload):
        graph, topo, _ = workload
        owner = partition(graph, topo.num_devices, seed=0).assignment
        sub = restrict_forward(graph, owner, np.array([7, 3]),
                               np.empty(0, dtype=np.int64))
        assert sub.num_edges == 0 and sub.num_vertices == 0


def _reader_pairs(graph, owner, seeds):
    """(row, device) pairs a one-layer pass over ``seeds`` reads remotely,
    by a plain scan of every seed's in-neighbours."""
    pairs = set()
    for s in seeds.tolist():
        lo, hi = graph.in_indptr[s], graph.in_indptr[s + 1]
        for u in graph.in_indices[lo:hi].tolist():
            if owner[u] != owner[s]:
                pairs.add((u, int(owner[s])))
    return pairs


class TestBatchPlansDeliverOnlyToReaders:
    """Paper §4.1: the allgather sends a row only to the devices hosting
    a vertex that reads it.  Every priced serve batch plan must deliver
    exactly the (row, reader device) pairs of its seeds' in-edges."""

    @pytest.mark.parametrize("scenario", ["poisson", "hotspot"])
    def test_every_priced_plan_delivers_exactly_to_readers(
        self, scenario, monkeypatch
    ):
        planned, batches = [], []
        plan_batch = BatchPlanner.plan_batch
        dispatch = server._RunState.dispatch

        def spy_plan(self, batch):
            out = plan_batch(self, batch)
            planned.append(out)
            return out

        def spy_dispatch(self, batch):
            seeds = np.unique(np.concatenate(
                [r.vertices for r in batch.requests]
            ))
            first = len(planned)
            dispatch(self, batch)
            batches.append((seeds, planned[first:]))

        monkeypatch.setattr(BatchPlanner, "plan_batch", spy_plan)
        monkeypatch.setattr(server._RunState, "dispatch", spy_dispatch)
        session = build_scenario(scenario)
        report = session.run(seed=0)
        # No replica or fault split here: every remote read moves.
        assert report.stale_rows == 0 and not report.fault_log
        assert planned, "no batch was planned through the BatchPlanner"
        owner = session.full.assignment
        for seeds, plans in batches:
            expected = _reader_pairs(session.graph, owner, seeds)
            assert len(plans) == (1 if expected else 0)
            for out in plans:
                rows = out.subgraph.vertices
                delivered = {
                    (int(rows[v]), int(d))
                    for route in out.plan.routes
                    for v in route.vertices
                    for d in route.destinations
                }
                assert delivered == expected

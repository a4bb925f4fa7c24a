"""Golden digests of every tree-regrowth consumer, bit for bit.

Fault repair (:func:`repro.faults.repair.repair_plan`), the plan-cache
patch rung (:func:`repro.autotune.replan.incremental_replan`) and the
incremental mini-batch planner all regrow broken multicast trees
against the traffic of the trees they keep.  A change to how regrowth
runs that is meant to leave plans alone must leave these sha256
digests unchanged.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.autotune.replan import incremental_replan
from repro.core.relation import CommRelation
from repro.core.serialize import plan_to_jsonable
from repro.core.spst import SPSTPlanner
from repro.faults.policy import UnrecoverableFaultError
from repro.faults.repair import repair_plan
from repro.graph.generators import rmat
from repro.partition import partition
from repro.sampling import BatchPlanner, NeighborSampler, SeedLoader
from repro.topology import dgx1

#: sha256 over ``repair_plan`` of one dgx1 SPST plan on
#: ``rmat(400, 3000, seed)`` for every single dead connection, in
#: connection-name order.
_REPAIR_DIGESTS = {
    0: "1f22b6dc25aa2579cc523d650c6fcf3cf5078c3f989ddfc4b3c33942741f56ab",
    1: "2508bb64eda1b35a8e400e8e1b25f741a26c6a06f2565dfdae915ee4a1b02d77",
    2: "ad1720320a55c79be7891ca775f02536e309ee8b1f2567930859922db2c711f9",
}

#: sha256 of one ``incremental_replan`` of the seed-0 partition's plan
#: onto the seed-1 partition of the same graph.
_REPLAN_DIGEST = (
    "d82043bb0baba60be4598d338c494fcaa506e72c12c76d9a979c1bf5b3915147")

#: sha256 of the first 12 plans of an incremental ``BatchPlanner``.
_STREAM_DIGEST = (
    "1423bd86ad8faf96ef584ae078a56fe6646ac33daa680042bceed2b9a66ffc91")


def _plan_record(plan) -> str:
    return json.dumps(plan_to_jsonable(plan), sort_keys=True)


def _digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(hashlib.sha256(record.encode()).digest())
    return h.hexdigest()


class TestGoldenRegrowth:
    @pytest.mark.parametrize("seed", list(_REPAIR_DIGESTS))
    def test_repair_each_dead_connection(self, seed):
        topology = dgx1()
        graph = rmat(400, 3000, seed=seed)
        assignment = np.random.default_rng(seed).integers(
            0, topology.num_devices, graph.num_vertices)
        relation = CommRelation(graph, assignment, topology.num_devices)
        plan = SPSTPlanner(topology, seed=seed).plan(relation)
        records = []
        for name in sorted(topology.connections):
            try:
                result = repair_plan(plan, dead_connections=[name], seed=seed)
            except UnrecoverableFaultError as exc:
                records.append(f"{name}:{type(exc).__name__}:{exc}")
                continue
            records.append(
                f"{name}:{result.repaired_routes}:{result.untouched_routes}:"
                + _plan_record(result.plan)
            )
        assert _digest(records) == _REPAIR_DIGESTS[seed]

    def test_replan_onto_reseeded_partition(self):
        topology = dgx1()
        graph = rmat(400, 3000, seed=0)
        before = CommRelation(
            graph, partition(graph, 8, seed=0).assignment, 8)
        after = CommRelation(
            graph, partition(graph, 8, seed=1).assignment, 8)
        plan = SPSTPlanner(topology, seed=0).plan(before)
        result = incremental_replan(
            {"plan": plan_to_jsonable(plan), "meta": {}}, after, topology)
        record = (
            f"{result.source}:{result.reused_routes}:{result.regrown_routes}:"
            f"{result.dropped_routes}:" + _plan_record(result.plan)
        )
        assert _digest([record]) == _REPLAN_DIGEST

    def test_incremental_batch_stream(self):
        topology = dgx1()
        graph = rmat(400, 3000, seed=0)
        planner = BatchPlanner(
            graph, partition(graph, 8, seed=0).assignment, topology)
        sampler = NeighborSampler(graph, (4, 4), seed=2)
        loader = SeedLoader(graph, batch_size=32, seed=1)
        batches = [
            sampler.sample(seeds, i)
            for i, seeds in enumerate(loader.batches(0))
        ][:12]
        assert len(batches) == 12
        records = [
            f"{p.plan_source}:" + _plan_record(p.plan)
            for p in planner.plan_stream(batches)
        ]
        assert records[0].startswith("planned:")
        assert sum(r.startswith("patched:") for r in records) > 0
        assert _digest(records) == _STREAM_DIGEST

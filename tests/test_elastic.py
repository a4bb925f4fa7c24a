"""Tests for elastic device sets: planned handoffs, contention pricing,
the multi-job scheduler, session wiring, and the mixed chaos soak."""

import numpy as np
import pytest

from repro.api import DGCLSession
from repro.chaos import ElasticScheduleGenerator, SoakConfig, SoakRunner
from repro.core import CommRelation, SPSTPlanner
from repro.core.serialize import plan_to_jsonable
from repro.elastic import (
    ElasticController,
    ElasticPolicy,
    ElasticScheduler,
    ElasticSpecError,
    JobSpec,
    interference_report,
    plan_traffic,
    uniform_traffic,
    validate_disjoint,
)
from repro.faults.repair import regrow_routes, repair_plan
from repro.gnn import SingleDeviceTrainer, build_gcn
from repro.gnn.checkpoint import restore, snapshot
from repro.graph.generators import rmat
from repro.partition import hierarchical_partition, partition
from repro.simulator.executor import PlanExecutor
from repro.simulator.timeline import timeline_events
from repro.topology import dgx1


@pytest.fixture(scope="module")
def task():
    g = rmat(200, 1400, seed=4)
    rng = np.random.default_rng(0)
    features = rng.standard_normal((g.num_vertices, 6)).astype(np.float32)
    labels = rng.integers(0, 4, g.num_vertices)
    return g, features, labels


def _model():
    return build_gcn(6, 8, 4, seed=7)


def _controller(task, **kwargs):
    g, features, labels = task
    return ElasticController(g, dgx1(), _model(), features, labels, **kwargs)


class TestElasticController:
    def test_gradient_parity_across_three_transitions(self, task):
        g, features, labels = task
        trainer = _controller(task)
        report = trainer.train_with_schedule(6, [
            (1, "shrink", (6, 7)),
            (3, "shrink", (4, 5)),
            (4, "grow", (4, 5, 6, 7)),
        ])
        assert len(trainer.transitions) == 3
        reference = SingleDeviceTrainer(g, _model(), features, labels)
        ref = reference.train(6)
        assert np.allclose(ref, report.losses, rtol=1e-4)

    def test_grow_back_hits_plan_memo_equal_to_cold_plan(self, task):
        g, _, _ = task
        trainer = _controller(task)
        first_doc = plan_to_jsonable(trainer.plan)
        trainer.shrink([6, 7])
        assert sorted(trainer.devices) == list(range(6))
        trainer.grow([6, 7])
        assert trainer.transitions[-1].plan_source == "memo"
        # The memoised plan is byte-for-byte the cold plan of that set.
        assert plan_to_jsonable(trainer.plan) == first_doc
        part = hierarchical_partition(g, dgx1(), seed=trainer.seed)
        relation = CommRelation(g, part.assignment, 8)
        cold = SPSTPlanner(dgx1(), chunks_per_class=4,
                           seed=trainer.seed).plan(relation)
        assert plan_to_jsonable(trainer.plan) == plan_to_jsonable(cold)

    def test_repeated_grow_shrink_grow_cycles(self, task):
        g, features, labels = task
        trainer = _controller(task)
        trainer.train(1)
        for _ in range(2):
            trainer.shrink([7])
            trainer.train(trainer.epoch + 1)
            trainer.grow([7])
            trainer.train(trainer.epoch + 1)
        assert sorted(trainer.devices) == list(range(8))
        # Re-entered device sets come from the memo, not a re-plan.
        sources = [t.plan_source for t in trainer.transitions]
        assert sources[2:] == ["memo", "memo"]
        reference = SingleDeviceTrainer(g, _model(), features, labels)
        ref = reference.train(trainer.epoch)
        assert np.allclose(ref, trainer.losses, rtol=1e-4)

    def test_checkpoint_round_trip_integrity(self, task):
        trainer = _controller(task)
        trainer.train(2)
        trainer.shrink([6, 7])
        ckpt = trainer._checkpoint
        assert ckpt.epoch == 2 and ckpt.nbytes() > 0
        fresh = _model()
        restore(ckpt, fresh)
        again = snapshot(fresh, epoch=ckpt.epoch,
                         loss_history=ckpt.loss_history)
        assert again.nbytes() == ckpt.nbytes()
        for a, b in zip(ckpt.params, again.params):
            assert sorted(a) == sorted(b)
            for name in a:
                assert np.array_equal(a[name], b[name])

    def test_transition_pricing_and_log(self, task):
        trainer = _controller(task)
        t = trainer.shrink([6, 7])
        assert t.downtime_seconds > 0
        assert t.finish > t.start
        assert t.drain_seconds > 0
        assert t.checkpoint_seconds > 0
        assert t.bootstrap_seconds > 0
        assert trainer.clock == t.finish
        counts = trainer.log.interventions()
        assert counts["scale-in"] == 1 and counts["scale-out"] == 0
        trainer.grow([6, 7])
        counts = trainer.log.interventions()
        assert counts["scale-out"] == 1
        actions = {r.action for r in trainer.log}
        assert {"scale-in", "scale-out", "checkpoint"} <= actions

    def test_scale_records_render_as_gantt_marks(self, task):
        trainer = _controller(task)
        trainer.shrink([7])
        report = PlanExecutor(trainer.topology).execute(trainer.plan, 1024)
        events = timeline_events(report, fault_log=trainer.log)
        assert any(e.label.startswith("! scale-in") for e in events)

    def test_initial_device_subset(self, task):
        trainer = _controller(task, devices=[0, 1, 2, 3])
        assert sorted(trainer.devices) == [0, 1, 2, 3]
        assert trainer.topology.num_devices == 4
        trainer.grow([4, 5])
        assert trainer.topology.num_devices == 6

    def test_validation_errors(self, task):
        trainer = _controller(
            task, elastic=ElasticPolicy(min_devices=2, max_devices=8)
        )
        with pytest.raises(ElasticSpecError):
            trainer.grow([])
        with pytest.raises(ElasticSpecError):
            trainer.grow([3])          # already active
        with pytest.raises(ElasticSpecError):
            trainer.grow([11])         # unknown id
        with pytest.raises(ElasticSpecError):
            trainer.shrink([9])        # not active
        with pytest.raises(ElasticSpecError):
            trainer.shrink([1, 2, 3, 4, 5, 6, 7])  # below the floor

    def test_bad_initial_subset_rejected(self, task):
        with pytest.raises(ElasticSpecError):
            _controller(task, devices=[])
        with pytest.raises(ElasticSpecError):
            _controller(task, devices=[0, 1, 42])

    def test_policy_validation(self):
        with pytest.raises(ElasticSpecError):
            ElasticPolicy(min_devices=0)
        with pytest.raises(ElasticSpecError):
            ElasticPolicy(min_devices=4, max_devices=2)
        with pytest.raises(ElasticSpecError):
            ElasticPolicy(replan="sometimes")


class TestRepairPlanAdditions:
    def _plan(self, devices=6):
        g = rmat(150, 900, seed=13)
        topo = dgx1().restrict(list(range(devices)))
        part = partition(g, devices, seed=0)
        relation = CommRelation(g, part.assignment, devices)
        return SPSTPlanner(topo, seed=0).plan(relation), relation

    def test_expand_onto_new_devices(self):
        plan, _ = self._plan(6)
        result = repair_plan(
            plan, added_devices=(6, 7), expanded_topology=dgx1()
        )
        assert result.plan.topology.num_devices == 8
        assert result.plan.name.endswith("-expanded")
        assert len(result.plan.routes) == len(plan.routes)
        # Every surviving route must be addressable on the expansion.
        for route in result.plan.routes:
            for link, _ in route.edges:
                assert 0 <= link.src < 8 and 0 <= link.dst < 8

    def test_added_devices_need_expanded_topology(self):
        plan, _ = self._plan(6)
        with pytest.raises(ElasticSpecError):
            repair_plan(plan, added_devices=(6, 7))

    def test_expanded_topology_needs_added_devices(self):
        plan, _ = self._plan(6)
        with pytest.raises(ElasticSpecError):
            repair_plan(plan, expanded_topology=dgx1())

    def test_added_overlap_rejected(self):
        plan, _ = self._plan(6)
        with pytest.raises(ElasticSpecError):
            repair_plan(plan, added_devices=(5, 6, 7),
                        expanded_topology=dgx1())

    def test_added_must_match_expansion_tail(self):
        plan, _ = self._plan(6)
        with pytest.raises(ElasticSpecError):
            repair_plan(plan, added_devices=(6,), expanded_topology=dgx1())

    def test_regrow_rejects_unknown_endpoints(self):
        plan, _ = self._plan(6)
        small = dgx1().restrict([0, 1, 2, 3])
        with pytest.raises(ElasticSpecError):
            regrow_routes(small, [], plan.routes)

    def test_directional_loss_breaks_both_directions(self):
        """A dead wire takes its reverse out of the planning topology:
        training runs every edge backwards, so one-way links are not
        plannable (the latent backward-pass crash of mixed soaks)."""
        plan, _ = self._plan(8)
        result = repair_plan(plan, dead_connections=["qpi:m0:1->0"])
        assert result.plan.backward_tuples()  # must not raise


class TestContention:
    def test_validate_disjoint(self):
        topo = dgx1()
        ok = validate_disjoint(topo, {"a": (0, 1), "b": (2, 3)})
        assert ok == {"a": (0, 1), "b": (2, 3)}
        with pytest.raises(ElasticSpecError):
            validate_disjoint(topo, {"a": (0, 1), "b": (1, 2)})
        with pytest.raises(ElasticSpecError):
            validate_disjoint(topo, {"a": ()})
        with pytest.raises(ElasticSpecError):
            validate_disjoint(topo, {"a": (0, 99)})

    def test_single_job_is_clean(self):
        topo = dgx1()
        rep = interference_report(
            topo, [uniform_traffic(topo, "solo", range(8))]
        )
        assert rep.is_clean and rep.total == 0.0

    def test_affinity_split_is_clean_striped_is_not(self):
        topo = dgx1()
        clean = interference_report(topo, [
            uniform_traffic(topo, "a", [0, 1, 2, 3]),
            uniform_traffic(topo, "b", [4, 5, 6, 7]),
        ])
        assert clean.is_clean
        striped = interference_report(topo, [
            uniform_traffic(topo, "a", [0, 2, 4, 6]),
            uniform_traffic(topo, "b", [1, 3, 5, 7]),
        ])
        assert striped.total > 0.0
        assert any("qpi" in name for name in striped.per_connection)

    def test_plan_traffic_prices_route_weights(self):
        g = rmat(150, 900, seed=13)
        topo = dgx1().restrict([0, 1, 2, 3])
        part = partition(g, 4, seed=0)
        relation = CommRelation(g, part.assignment, 4)
        plan = SPSTPlanner(topo, seed=0).plan(relation)
        traffic = plan_traffic("a", (0, 1, 2, 3), plan)
        assert traffic.conn_units
        assert all(units > 0 for units in traffic.conn_units.values())


class TestScheduler:
    def test_aware_beats_naive_on_two_jobs(self):
        scheduler = ElasticScheduler(dgx1())
        jobs = [JobSpec("a", 4), JobSpec("b", 4)]
        aware = scheduler.place(jobs)
        naive = scheduler.naive_place(jobs)
        assert aware.interference.total == 0.0
        assert naive.interference.total > 0.0
        assert set(aware.assignments["a"]) in ({0, 1, 2, 3}, {4, 5, 6, 7})

    def test_place_validation(self):
        scheduler = ElasticScheduler(dgx1())
        with pytest.raises(ElasticSpecError):
            scheduler.place([])
        with pytest.raises(ElasticSpecError):
            scheduler.place([JobSpec("a", 5), JobSpec("a", 3)])
        with pytest.raises(ElasticSpecError):
            scheduler.place([JobSpec("a", 6), JobSpec("b", 6)])
        with pytest.raises(ElasticSpecError):
            JobSpec("bad", 0)

    def test_autoscale_emits_bounded_actions(self):
        scheduler = ElasticScheduler(dgx1())
        jobs = [JobSpec("a", 3, min_devices=2, max_devices=4),
                JobSpec("b", 3, min_devices=3)]
        placement = scheduler.place(jobs)
        actions = scheduler.autoscale(
            placement, {"a": 0.95, "b": 0.1}, jobs=jobs
        )
        by_job = {a.job: a for a in actions}
        assert by_job["a"].kind == "grow" and len(by_job["a"].devices) == 1
        assert "b" not in by_job  # floored at min_devices=3
        calm = scheduler.autoscale(placement, {"a": 0.5, "b": 0.5}, jobs=jobs)
        assert calm == []


class TestSessionElastic:
    def _session(self, **kwargs):
        sess = DGCLSession(dgx1(), **kwargs)
        g = rmat(150, 900, seed=13)
        sess.build_comm_info(g)
        return sess, g

    def test_shrink_grow_round_trip_delivers_bytes(self):
        sess, g = self._session()
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((g.num_vertices, 4)).astype(np.float32)
        report = sess.shrink([6, 7])
        assert report.kind == "shrink"
        assert sess.active_devices == list(range(6))
        assert sess.topology.num_devices == 6
        blocks = sess.dispatch_features(feats)
        out = sess.graph_allgather(blocks)
        for d, lg in enumerate(sess.local_graphs()):
            assert np.array_equal(out[d], feats[lg.global_ids])
        sess.grow([6, 7])
        assert sess.active_devices == list(range(8))
        counts = sess.fault_log.interventions()
        assert counts["scale-in"] == 1 and counts["scale-out"] == 1

    def test_policy_floor_enforced(self):
        sess, _ = self._session(elastic=ElasticPolicy(min_devices=4))
        with pytest.raises(ElasticSpecError):
            sess.shrink([3, 4, 5, 6, 7])

    def test_transitions_recorded(self):
        sess, _ = self._session()
        sess.shrink([7])
        sess.grow([7])
        kinds = [t.kind for t in sess.transitions]
        assert kinds == ["shrink", "grow"]
        for t in sess.transitions:
            assert t.downtime_seconds > 0
            assert t.epoch == -1  # session transitions have no epochs


class TestChaosElastic:
    def test_schedule_generator_deterministic_and_legal(self):
        gen = ElasticScheduleGenerator(8, 5, min_devices=2, density=3.0)
        for seed in range(20):
            schedule = gen.sample(seed)
            assert schedule == gen.sample(seed)
            active = set(range(8))
            for epoch, kind, devices in schedule:
                assert 1 <= epoch < 5
                if kind == "shrink":
                    assert set(devices) <= active
                    active -= set(devices)
                else:
                    assert not set(devices) & active
                    active |= set(devices)
                assert len(active) >= 2

    def test_forbidden_devices_never_grow(self):
        gen = ElasticScheduleGenerator(8, 5, min_devices=2, forbidden=[5])
        for seed in range(20):
            for _, kind, devices in gen.sample(seed):
                if kind == "grow":
                    assert 5 not in devices

    def test_mixed_soak_seed_passes_oracles(self):
        runner = SoakRunner(SoakConfig(elastic_every=1, elastic_epochs=4))
        result = runner.run_seed(0, elastic=True)
        assert result.passed, [v.as_dict() for v in result.violations]

    def test_config_knobs_exported(self):
        knobs = SoakConfig(elastic_every=3).knobs()
        assert knobs["elastic_every"] == 3
        assert "elastic_epochs" in knobs

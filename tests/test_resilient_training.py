"""End-to-end fault-tolerant training: checkpoints, rollback, chaos.

The acceptance bar from the robustness issue: a seeded plan with a
permanent device crash and a degraded link must train to completion
with a final model matching the fault-free single-GPU reference, and a
zero-fault run must cost nothing extra and leave an empty fault log.
"""

import numpy as np
import pytest

import repro.api as dgcl
from repro.faults import (
    DeviceCrash,
    DeviceLostError,
    DeviceStall,
    FaultPlan,
    FlagDrop,
    LinkDegrade,
    LinkLoss,
)
from repro.gnn import (
    Adam,
    ResilientTrainer,
    SingleDeviceTrainer,
    build_gcn,
    restore,
    snapshot,
)
from repro.graph.generators import rmat
from repro.topology import dgx1


@pytest.fixture(scope="module")
def task():
    g = rmat(200, 1400, seed=4)
    rng = np.random.default_rng(0)
    features = rng.standard_normal((g.num_vertices, 6)).astype(np.float32)
    labels = rng.integers(0, 4, g.num_vertices)
    return g, features, labels


def fresh_model():
    return build_gcn(6, 8, 4, seed=7)


@pytest.fixture(scope="module")
def reference(task):
    g, features, labels = task
    trainer = SingleDeviceTrainer(g, fresh_model(), features, labels)
    for _ in range(4):
        trainer.run_epoch()
    return trainer.run_epoch(update=False).logits


@pytest.fixture(scope="module")
def fault_free(task):
    g, features, labels = task
    trainer = ResilientTrainer(
        g, dgx1(), fresh_model(), features, labels, checkpoint_every=2
    )
    report = trainer.train(4)
    return trainer, report


class TestCheckpoint:
    def test_roundtrip_sgd(self, task):
        model = fresh_model()
        ckpt = snapshot(model, epoch=3, loss_history=[1.0, 0.9, 0.8])
        before = [
            {k: v.copy() for k, v in layer.params.items()}
            for layer in model.layers
        ]
        for layer in model.layers:
            for p in layer.params.values():
                p += 1.0
        assert restore(ckpt, model) == 3
        for layer, saved in zip(model.layers, before):
            for name, value in saved.items():
                assert np.array_equal(layer.params[name], value)

    def test_roundtrip_adam(self, task):
        g, features, labels = task
        model = fresh_model()
        opt = Adam(model, lr=0.01)
        trainer = SingleDeviceTrainer(g, model, features, labels,
                                      optimizer=opt)
        trainer.run_epoch()
        ckpt = snapshot(model, opt, epoch=1)
        assert ckpt.opt_state is not None and ckpt.nbytes() > 0
        step_before = opt.step_count
        m_before = [{k: v.copy() for k, v in d.items()} for d in opt._m]
        trainer.run_epoch()  # diverge
        restore(ckpt, model, opt)
        assert opt.step_count == step_before
        for restored, saved in zip(opt._m, m_before):
            for name, value in saved.items():
                assert np.array_equal(restored[name], value)

    def test_mismatched_model_rejected(self):
        ckpt = snapshot(fresh_model())
        with pytest.raises(ValueError):
            restore(ckpt, build_gcn(6, 8, 4, num_layers=3, seed=7))

    def test_stateful_optimizer_needs_state(self):
        model = fresh_model()
        ckpt = snapshot(model)  # no optimizer captured
        with pytest.raises(ValueError):
            restore(ckpt, model, Adam(model))


class TestFaultFree:
    def test_zero_cost_and_empty_log(self, fault_free):
        _, report = fault_free
        assert report.log.is_empty
        assert report.overhead_seconds == pytest.approx(0.0, abs=1e-12)
        assert report.rollbacks == 0 and report.lost_devices == []
        assert report.epochs == report.epochs_executed == 4

    def test_matches_single_device(self, fault_free, reference):
        trainer, _ = fault_free
        assert np.allclose(
            trainer.gather_logits(), reference, rtol=1e-4, atol=1e-5
        )


class TestChaosWithoutTopologyChange:
    def test_bit_identical_to_fault_free(self, task, fault_free):
        """Degrades, drops and stalls slow the clock, never the math."""
        g, features, labels = task
        ff_trainer, ff_report = fault_free
        plan = FaultPlan(
            [
                LinkDegrade(
                    connection="nv:m0:0-1:0->1", time=1e-7, factor=0.3
                ),
                FlagDrop(kind="done", device=0, stage=0, peer=1, count=2),
                DeviceStall(
                    device=2,
                    time=ff_report.total_seconds * 0.5,
                    duration=2e-6,
                ),
            ],
            seed=1,
        )
        trainer = ResilientTrainer(
            g, dgx1(), fresh_model(), features, labels,
            fault_plan=plan, checkpoint_every=2,
        )
        report = trainer.train(4)
        assert np.array_equal(
            trainer.gather_logits(), ff_trainer.gather_logits()
        )
        assert report.losses == ff_report.losses
        assert report.total_seconds > ff_report.total_seconds
        assert not report.log.is_empty

    def test_dead_wire_repaired_between_epochs(self, task, fault_free):
        g, features, labels = task
        ff_trainer, ff_report = fault_free
        plan = FaultPlan(
            [LinkLoss(connection="nv:m0:0-1:0->1", time=1e-7)], seed=5
        )
        trainer = ResilientTrainer(
            g, dgx1(), fresh_model(), features, labels,
            fault_plan=plan, checkpoint_every=2,
        )
        report = trainer.train(4)
        assert np.array_equal(
            trainer.gather_logits(), ff_trainer.gather_logits()
        )
        assert report.lost_devices == []

    def test_bug_in_plan_repair_propagates(self, task, monkeypatch):
        """Only repair_plan's typed errors fall through to the degraded
        path; any other error is a bug and must surface."""
        def broken(*args, **kwargs):
            raise TypeError("bug inside repair_plan")

        monkeypatch.setattr("repro.gnn.resilient.repair_plan", broken)
        g, features, labels = task
        plan = FaultPlan(
            [LinkLoss(connection="nv:m0:0-1:0->1", time=1e-7)], seed=5
        )
        trainer = ResilientTrainer(
            g, dgx1(), fresh_model(), features, labels,
            fault_plan=plan, checkpoint_every=2,
        )
        with pytest.raises(TypeError, match="bug inside repair_plan"):
            trainer.train(4)


class TestCrashRecovery:
    def test_rollback_and_repartition(self, task, fault_free, reference):
        """The acceptance scenario: crash + degraded QPI hop."""
        g, features, labels = task
        _, ff_report = fault_free
        t_crash = ff_report.total_seconds * 0.6
        plan = FaultPlan(
            [
                DeviceCrash(device=3, time=float(t_crash)),
                LinkDegrade(
                    connection="qpi:m0:0->1", time=1e-7, factor=0.4
                ),
            ],
            seed=2,
        )
        trainer = ResilientTrainer(
            g, dgx1(), fresh_model(), features, labels,
            fault_plan=plan, checkpoint_every=2,
        )
        report = trainer.train(4)
        assert report.rollbacks >= 1
        assert report.lost_devices == [3]
        assert report.epochs == 4
        assert report.epochs_executed > 4 or report.rollbacks == 1
        assert trainer.topology.num_devices == 7
        assert np.allclose(
            trainer.gather_logits(), reference, rtol=1e-4, atol=1e-5
        )
        actions = report.log.counts()
        assert actions.get("rollback", 0) >= 1
        assert actions.get("detect", 0) >= 1

    def test_total_loss_of_cluster_is_typed(self, task):
        g, features, labels = task
        plan = FaultPlan(
            [DeviceCrash(device=d, time=1e-6) for d in range(8)], seed=3
        )
        trainer = ResilientTrainer(
            g, dgx1(), fresh_model(), features, labels, fault_plan=plan
        )
        with pytest.raises(DeviceLostError):
            trainer.train(4)

    def test_reproducible_report(self, task, fault_free):
        g, features, labels = task
        _, ff_report = fault_free
        t_crash = float(ff_report.total_seconds * 0.6)

        def run():
            plan = FaultPlan([DeviceCrash(device=3, time=t_crash)], seed=2)
            trainer = ResilientTrainer(
                g, dgx1(), fresh_model(), features, labels,
                fault_plan=plan, checkpoint_every=2,
            )
            report = trainer.train(4)
            return report.total_seconds, report.log.signature()

        assert run() == run()


class TestSessionAPI:
    def test_listing1_with_chaos(self, task, tmp_path):
        g, features, labels = task
        clean = dgcl.DGCLSession(dgx1())
        clean.build_comm_info(g)
        local = clean.dispatch_features(features)
        clean_rows = clean.graph_allgather(local)
        clean_seconds = clean.simulated_comm_seconds

        spec = tmp_path / "faults.json"
        FaultPlan(
            [LinkDegrade(connection="qpi:m0:0->1", time=0.0, factor=0.2)],
            seed=9,
        ).save(spec)
        chaotic = dgcl.DGCLSession(dgx1())
        chaotic.build_comm_info(g)
        chaotic.inject_faults(spec)  # accepts a --fault-spec path
        rows = chaotic.graph_allgather(chaotic.dispatch_features(features))
        assert all(np.array_equal(a, b) for a, b in zip(rows, clean_rows))
        assert chaotic.simulated_comm_seconds >= clean_seconds

    def test_dead_wire_repairs_session_plan(self, task):
        g, features, labels = task
        session = dgcl.DGCLSession(
            dgx1(),
            fault_plan=FaultPlan(
                [LinkLoss(connection="nv:m0:0-1:0->1", time=0.0)], seed=4
            ),
        )
        session.build_comm_info(g)
        clean = dgcl.DGCLSession(dgx1())
        clean.build_comm_info(g)
        rows = session.graph_allgather(session.dispatch_features(features))
        expected = clean.graph_allgather(clean.dispatch_features(features))
        assert all(np.array_equal(a, b) for a, b in zip(rows, expected))
        assert len(session.fault_log.by_action("repair")) >= 1

    def test_session_fault_surface(self, task):
        g, _, _ = task
        with dgcl.session(dgx1()) as s:
            s.build_comm_info(g)
            assert s.fault_log.is_empty
            injector = s.inject_faults(
                FaultPlan([LinkLoss(connection="nv:m0:0-1:0->1", time=0.0)])
            )
            assert injector.is_armed
            assert injector.log is s.fault_log


class TestCLI:
    def test_fault_spec_flag_parses(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["train", "--fault-spec", "chaos.json", "--checkpoint-every", "3"]
        )
        assert args.fault_spec == "chaos.json"
        assert args.checkpoint_every == 3

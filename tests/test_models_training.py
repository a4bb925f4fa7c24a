"""Tests for model builders, the reference trainer, and distributed
training equivalence — the library's central correctness property."""

import numpy as np
import pytest

from repro.core import CommRelation, SPSTPlanner, peer_to_peer_plan
from repro.errors import ReproError, TrainingSpecError
from repro.gnn import (
    SGD,
    SingleDeviceTrainer,
    build_commnet,
    build_gcn,
    build_gin,
    build_model,
)
from repro.gnn.distributed import DistributedTrainer
from repro.graph.datasets import synthetic_features, synthetic_labels
from repro.graph.generators import rmat
from repro.partition import partition
from repro.topology import dgx1, pcie_only, ring
from tests.conftest import BAD_LABELS, corrupt_labels


class TestBuilders:
    def test_layer_dims(self):
        m = build_gcn(32, 16, 5, num_layers=3)
        assert m.layer_dims == [32, 16, 16, 5]
        assert m.num_layers == 3

    def test_memory_dims_gin_includes_hidden(self):
        m = build_gin(32, 16, 5)
        assert m.memory_dims() == [32, 32, 16, 10, 5]

    def test_memory_dims_gcn(self):
        m = build_gcn(32, 16, 5)
        assert m.memory_dims() == [32, 16, 5]

    def test_build_model_by_name(self):
        for name in ("gcn", "commnet", "gin"):
            m = build_model(name, 8, 4, 3)
            assert m.name == name

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            build_model("transformer", 8, 4, 3)

    def test_parameter_counts(self):
        gcn = build_gcn(8, 4, 3)
        # layer1: 8*4 + 4; layer2: 4*3 + 3
        assert gcn.parameter_count() == 8 * 4 + 4 + 4 * 3 + 3
        commnet = build_commnet(8, 4, 3)
        assert commnet.parameter_count() == 2 * 8 * 4 + 4 + 2 * 4 * 3 + 3

    def test_state_bytes(self):
        m = build_gcn(8, 4, 3)
        assert m.state_bytes() == m.parameter_count() * 4

    def test_compute_cost_positive_and_additive(self):
        m = build_gcn(32, 16, 5)
        c = m.compute_cost(100, 150, 600)
        assert c.agg_bytes > 0 and c.dense_flops > 0

    def test_empty_model_rejected(self):
        from repro.gnn.models import GNNModel

        with pytest.raises(ValueError):
            GNNModel([])

    def test_unknown_model_is_typed(self):
        from repro.errors import UnknownModelError

        with pytest.raises(UnknownModelError) as exc:
            build_model("gcnn", 8, 4, 3)
        assert isinstance(exc.value, (ReproError, KeyError, ValueError))
        assert exc.value.name == "gcnn"
        assert "gcn" in str(exc.value) and "gin" in str(exc.value)

    @pytest.mark.parametrize("num_layers", [0, -1])
    def test_layerless_model_is_typed(self, num_layers):
        with pytest.raises(TrainingSpecError):
            build_model("gcn", 8, 4, 3, num_layers=num_layers)

    def test_disjoint_layer_widths_rejected(self):
        from repro.gnn.layers import GCNLayer
        from repro.gnn.models import GNNModel

        with pytest.raises(TrainingSpecError, match="layer 1"):
            GNNModel([GCNLayer(8, 4), GCNLayer(5, 3)])

    def test_backward_returns_weight_grads_only(self):
        from repro.gnn.layers import GraphContext

        g = rmat(30, 150, seed=1)
        model = build_gin(6, 4, 3)
        ctx = GraphContext.from_graph(g)
        h = np.random.default_rng(0).standard_normal((30, 6)).astype(np.float32)
        out, caches = model.forward(ctx, h)
        grads = model.backward(ctx, caches, out)
        assert [set(gr) for gr in grads] == [set(l.params) for l in model.layers]


class TestSingleDeviceTrainer:
    @pytest.fixture()
    def task(self):
        g = rmat(120, 700, seed=6)
        feats = synthetic_features(g, 16, seed=2)
        labels = synthetic_labels(g, 4, seed=2)
        return g, feats, labels

    def test_loss_decreases(self, task):
        g, feats, labels = task
        model = build_gcn(16, 8, 4, seed=0)
        trainer = SingleDeviceTrainer(g, model, feats, labels, lr=0.5)
        losses = trainer.train(12)
        assert losses[-1] < losses[0]

    def test_no_update_keeps_loss(self, task):
        g, feats, labels = task
        model = build_gcn(16, 8, 4, seed=0)
        trainer = SingleDeviceTrainer(g, model, feats, labels)
        l1 = trainer.run_epoch(update=False).loss
        l2 = trainer.run_epoch(update=False).loss
        assert l1 == pytest.approx(l2)

    def test_shape_checks(self, task):
        g, feats, labels = task
        model = build_gcn(16, 8, 4)
        with pytest.raises(ValueError):
            SingleDeviceTrainer(g, model, feats[:-1], labels)
        with pytest.raises(ValueError):
            SingleDeviceTrainer(g, model, feats[:, :8], labels)

    @pytest.mark.parametrize("kind", BAD_LABELS)
    def test_bad_labels_rejected(self, task, kind):
        g, feats, labels = task
        with pytest.raises(TrainingSpecError):
            SingleDeviceTrainer(g, build_gcn(16, 8, 4), feats,
                                corrupt_labels(labels, kind, 4))

    def test_sgd_mismatched_grads(self, task):
        model = build_gcn(16, 8, 4)
        with pytest.raises(ValueError):
            SGD(model).step([])


class TestDistributedEquivalence:
    """The paper's invariant: every communication scheme computes the
    same result as single-GPU training."""

    @pytest.fixture(scope="class")
    def task(self):
        g = rmat(220, 1500, seed=7)
        feats = synthetic_features(g, 24, seed=3)
        labels = synthetic_labels(g, 5, seed=3)
        r = partition(g, 8, seed=0)
        rel = CommRelation(g, r.assignment, 8)
        return g, feats, labels, rel

    @pytest.mark.parametrize("builder", [build_gcn, build_commnet, build_gin])
    def test_matches_reference_over_epochs(self, task, builder):
        g, feats, labels, rel = task
        plan = SPSTPlanner(dgx1(), seed=0).plan(rel)
        ref = SingleDeviceTrainer(g, builder(24, 12, 5, seed=9), feats,
                                  labels, lr=0.1)
        dist = DistributedTrainer(rel, plan, builder(24, 12, 5, seed=9),
                                  feats, labels, lr=0.1)
        for _ in range(3):
            a = ref.run_epoch()
            b = dist.run_epoch()
            assert a.loss == pytest.approx(b.loss, rel=1e-5)
            assert np.allclose(a.logits, b.logits, atol=1e-4)

    @pytest.mark.parametrize("plan_kind", ["p2p", "ring"])
    def test_plan_choice_does_not_change_results(self, task, plan_kind):
        g, feats, labels, rel = task
        if plan_kind == "p2p":
            plan = peer_to_peer_plan(rel, dgx1())
        else:
            plan = SPSTPlanner(ring(8), seed=0).plan(rel)
        ref = SingleDeviceTrainer(g, build_gcn(24, 12, 5, seed=1), feats,
                                  labels, lr=0.1)
        dist = DistributedTrainer(rel, plan, build_gcn(24, 12, 5, seed=1),
                                  feats, labels, lr=0.1)
        a = ref.run_epoch()
        b = dist.run_epoch()
        assert np.allclose(a.logits, b.logits, atol=1e-4)

    def test_three_layer_model(self, task):
        g, feats, labels, rel = task
        plan = SPSTPlanner(dgx1(), seed=0).plan(rel)
        ref = SingleDeviceTrainer(
            g, build_gcn(24, 12, 5, num_layers=3, seed=2), feats, labels
        )
        dist = DistributedTrainer(
            rel, plan, build_gcn(24, 12, 5, num_layers=3, seed=2),
            feats, labels,
        )
        a = ref.run_epoch()
        b = dist.run_epoch()
        assert np.allclose(a.logits, b.logits, atol=1e-4)

    def test_layer_zero_scatters_nothing(self, task, monkeypatch):
        """Input features need no gradient, so a GIN pass scatters only
        for layer 1 (input width 12), never at layer 0's width 24."""
        import repro.gnn.layers as layers

        g, feats, labels, rel = task
        widths = []
        original = layers.scatter_back

        def recording(grad, *args, **kwargs):
            widths.append(grad.shape[1])
            return original(grad, *args, **kwargs)

        monkeypatch.setattr(layers, "scatter_back", recording)
        plan = SPSTPlanner(dgx1(), seed=0).plan(rel)
        DistributedTrainer(rel, plan, build_gin(24, 12, 5), feats,
                           labels).run_epoch()
        assert widths == [12] * rel.num_devices

    def test_loss_decreases_distributed(self, task):
        g, feats, labels, rel = task
        plan = SPSTPlanner(dgx1(), seed=0).plan(rel)
        dist = DistributedTrainer(rel, plan, build_gcn(24, 12, 5, seed=3),
                                  feats, labels, lr=0.5)
        losses = dist.train(10)
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("kind", BAD_LABELS)
    def test_bad_labels_rejected(self, task, kind):
        g, feats, labels, rel = task
        plan = peer_to_peer_plan(rel, dgx1())
        with pytest.raises(TrainingSpecError):
            DistributedTrainer(rel, plan, build_gcn(24, 12, 5), feats,
                               corrupt_labels(labels, kind, 5))

    def test_feature_shape_checked(self, task):
        g, feats, labels, rel = task
        plan = SPSTPlanner(dgx1(), seed=0).plan(rel)
        with pytest.raises(ValueError):
            DistributedTrainer(rel, plan, build_gcn(24, 12, 5), feats[:-1],
                               labels)
        # Short labels and too-wide features fail at construction, not
        # as an index or matmul error inside the first epoch.
        with pytest.raises(ValueError):
            DistributedTrainer(rel, plan, build_gcn(24, 12, 5), feats,
                               labels[:-5])
        with pytest.raises(ValueError):
            DistributedTrainer(rel, plan, build_gcn(24, 12, 5),
                               np.concatenate([feats, feats], axis=1), labels)


@pytest.mark.slow
class TestSixteenGpuTraining:
    """End-to-end distributed training across two machines (16 GPUs)."""

    def test_matches_reference_over_ib(self):
        from repro.partition import hierarchical_partition
        from repro.topology import dual_dgx1

        g = rmat(400, 2600, seed=21)
        feats = synthetic_features(g, 16, seed=6)
        labels = synthetic_labels(g, 4, seed=6)
        topo = dual_dgx1()
        assignment = hierarchical_partition(g, topo, seed=0).assignment
        rel = CommRelation(g, assignment, 16)
        plan = SPSTPlanner(topo, seed=0).plan(rel)
        plan.validate(rel)

        ref = SingleDeviceTrainer(g, build_gcn(16, 8, 4, seed=11), feats,
                                  labels, lr=0.1)
        dist = DistributedTrainer(rel, plan, build_gcn(16, 8, 4, seed=11),
                                  feats, labels, lr=0.1)
        for _ in range(2):
            a = ref.run_epoch()
            b = dist.run_epoch()
            assert a.loss == pytest.approx(b.loss, rel=1e-5)
            assert np.allclose(a.logits, b.logits, atol=1e-4)

    def test_cross_machine_plan_uses_ib_sparingly(self):
        """The hierarchical partition + SPST keep most traffic off IB."""
        from repro.partition import hierarchical_partition
        from repro.topology import LinkKind, dual_dgx1

        g = rmat(400, 2600, seed=21)
        topo = dual_dgx1()
        assignment = hierarchical_partition(g, topo, seed=0).assignment
        rel = CommRelation(g, assignment, 16)
        plan = SPSTPlanner(topo, seed=0).plan(rel)
        volumes = plan.volume_by_kind()
        ib = volumes.get(LinkKind.IB, 0)
        total = sum(volumes.values())
        assert ib < 0.5 * total


class TestAdam:
    @pytest.fixture()
    def task(self):
        g = rmat(120, 700, seed=6)
        feats = synthetic_features(g, 16, seed=2)
        labels = synthetic_labels(g, 4, seed=2)
        return g, feats, labels

    def test_adam_trains(self, task):
        from repro.gnn import Adam

        g, feats, labels = task
        model = build_gcn(16, 8, 4, seed=0)
        trainer = SingleDeviceTrainer(
            g, model, feats, labels, optimizer=Adam(model, lr=0.02)
        )
        losses = trainer.train(15)
        assert losses[-1] < losses[0]

    def test_adam_distributed_matches_reference(self, task):
        from repro.gnn import Adam

        g, feats, labels = task
        r = partition(g, 4, seed=0)
        rel = CommRelation(g, r.assignment, 4)
        plan = SPSTPlanner(dgx1(4), seed=0).plan(rel)
        m_ref = build_gcn(16, 8, 4, seed=7)
        m_dist = build_gcn(16, 8, 4, seed=7)
        ref = SingleDeviceTrainer(g, m_ref, feats, labels,
                                  optimizer=Adam(m_ref, lr=0.02))
        dist = DistributedTrainer(rel, plan, m_dist, feats, labels,
                                  optimizer=Adam(m_dist, lr=0.02))
        for _ in range(3):
            a = ref.run_epoch()
            b = dist.run_epoch()
            assert a.loss == pytest.approx(b.loss, rel=1e-4)

    def test_adam_state_accounting(self):
        from repro.gnn import Adam

        model = build_gcn(8, 4, 3)
        opt = Adam(model)
        # two float64 moments per float32 parameter
        assert opt.state_bytes() == model.parameter_count() * 8 * 2

    def test_adam_invalid_betas(self):
        from repro.gnn import Adam

        with pytest.raises(ValueError):
            Adam(build_gcn(8, 4, 3), beta1=1.0)

    def test_adam_grad_count_checked(self):
        from repro.gnn import Adam

        with pytest.raises(ValueError):
            Adam(build_gcn(8, 4, 3)).step([])

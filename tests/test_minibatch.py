"""Mini-batch trainer: oracle gradient parity and the session surface."""

import numpy as np
import pytest

from repro.api import DGCLSession
from repro.errors import TrainingSpecError
from repro.gnn import (
    MiniBatchOracle,
    MiniBatchTrainer,
    build_gcn,
)
from repro.graph.datasets import synthetic_features, synthetic_labels
from repro.graph.generators import rmat
from repro.partition import partition
from repro.sampling import BatchPlanner, NeighborSampler, SeedLoader
from repro.topology import topology_for_gpu_count
from tests.conftest import BAD_LABELS, corrupt_labels

FEATURES, HIDDEN, CLASSES = 6, 8, 4


@pytest.fixture(scope="module")
def workload():
    g = rmat(200, 1400, seed=4)
    return (
        g,
        synthetic_features(g, FEATURES, seed=0),
        synthetic_labels(g, CLASSES, seed=0),
    )


def make_pipeline(g, seed=1, gpus=4):
    topology = topology_for_gpu_count(gpus)
    assignment = partition(g, gpus, seed=0).assignment
    loader = SeedLoader(g, batch_size=32, seed=seed)
    sampler = NeighborSampler(g, (5, 5), seed=seed)
    planner = BatchPlanner(g, assignment, topology)
    return loader, sampler, planner


class TestGradientParity:
    def test_per_batch_gradients_match_oracle(self, workload):
        """The acceptance bar: distributed grads == oracle grads."""
        g, features, labels = workload
        loader, sampler, planner = make_pipeline(g)
        trainer = MiniBatchTrainer(
            build_gcn(FEATURES, HIDDEN, CLASSES, seed=7),
            features, labels, sampler, loader, planner,
        )
        oracle = MiniBatchOracle(
            build_gcn(FEATURES, HIDDEN, CLASSES, seed=7), features, labels
        )
        checked = 0
        for planned in trainer.batch_stream(0):
            loss_d, grads_d = trainer.batch_gradients(planned)
            loss_o, grads_o = oracle.batch_gradients(planned.subgraph)
            assert np.allclose(loss_d, loss_o, rtol=1e-5, atol=1e-8)
            for layer_d, layer_o in zip(grads_d, grads_o):
                assert layer_d.keys() == layer_o.keys()
                for name in layer_o:
                    assert np.allclose(
                        layer_d[name], layer_o[name],
                        rtol=1e-5, atol=1e-7,
                    ), name
            # Step both so parity holds along the whole trajectory,
            # not just at the shared initialisation.
            trainer.optimizer.step(grads_d)
            oracle.optimizer.step(grads_o)
            checked += 1
        assert checked == loader.num_batches

    def test_loss_trajectory_matches_over_epochs(self, workload):
        g, features, labels = workload
        loader, sampler, planner = make_pipeline(g)
        trainer = MiniBatchTrainer(
            build_gcn(FEATURES, HIDDEN, CLASSES, seed=7),
            features, labels, sampler, loader, planner,
        )
        trainer.train(2)
        oracle = MiniBatchOracle(
            build_gcn(FEATURES, HIDDEN, CLASSES, seed=7), features, labels
        )
        for epoch in range(2):
            base = epoch * loader.num_batches
            for i, seeds in enumerate(loader.batches(epoch)):
                oracle.run_batch(sampler.sample(seeds, batch_index=base + i))
        assert np.allclose(
            trainer.loss_history, oracle.loss_history, rtol=1e-4, atol=1e-6
        )

    def test_training_is_deterministic(self, workload):
        g, features, labels = workload

        def run():
            loader, sampler, planner = make_pipeline(g)
            trainer = MiniBatchTrainer(
                build_gcn(FEATURES, HIDDEN, CLASSES, seed=7),
                features, labels, sampler, loader, planner,
            )
            trainer.train(1)
            return trainer.loss_history, [
                r.plan_source for r in trainer.results
            ]

        assert run() == run()

    def test_results_carry_plan_sources(self, workload):
        g, features, labels = workload
        loader, sampler, planner = make_pipeline(g)
        trainer = MiniBatchTrainer(
            build_gcn(FEATURES, HIDDEN, CLASSES, seed=7),
            features, labels, sampler, loader, planner,
        )
        results = trainer.train_epoch(0)
        assert results[0].plan_source == "planned"
        assert all(
            r.plan_source in ("patched", "replanned") for r in results[1:]
        )
        assert all(r.num_seeds == 32 for r in results)

    def test_input_validation(self, workload):
        g, features, labels = workload
        loader, sampler, planner = make_pipeline(g)
        with pytest.raises(ValueError):
            MiniBatchTrainer(
                build_gcn(FEATURES + 1, HIDDEN, CLASSES, seed=7),
                features, labels, sampler, loader, planner,
            )
        with pytest.raises(ValueError):
            MiniBatchOracle(
                build_gcn(FEATURES, HIDDEN, CLASSES, seed=7),
                features[:-1], labels,
            )

    @pytest.mark.parametrize("kind", BAD_LABELS)
    def test_trainer_rejects_bad_labels(self, workload, kind):
        g, features, labels = workload
        loader, sampler, planner = make_pipeline(g)
        with pytest.raises(TrainingSpecError):
            MiniBatchTrainer(
                build_gcn(FEATURES, HIDDEN, CLASSES, seed=7), features,
                corrupt_labels(labels, kind, CLASSES), sampler, loader,
                planner,
            )

    @pytest.mark.parametrize("kind", BAD_LABELS)
    def test_oracle_rejects_bad_labels(self, workload, kind):
        g, features, labels = workload
        with pytest.raises(TrainingSpecError):
            MiniBatchOracle(build_gcn(FEATURES, HIDDEN, CLASSES, seed=7),
                            features, corrupt_labels(labels, kind, CLASSES))


class TestSessionSurface:
    def test_sample_loader_round_trip(self, workload):
        g, features, labels = workload
        with DGCLSession(topology_for_gpu_count(4)) as session:
            loader, sampler, planner = session.sample_loader(
                g, batch_size=32, fanouts=(5, 5)
            )
            trainer = MiniBatchTrainer(
                build_gcn(FEATURES, HIDDEN, CLASSES, seed=7),
                features, labels, sampler, loader, planner,
            )
            results = trainer.train_epoch(0)
            assert len(results) == loader.num_batches
            assert all(np.isfinite(r.loss) for r in results)

    def test_sample_loader_uses_session_cache(self, workload, tmp_path):
        g, _, _ = workload
        topology = topology_for_gpu_count(4)
        with DGCLSession(topology, plan_cache=str(tmp_path)) as session:
            loader, sampler, planner = session.sample_loader(
                g, batch_size=32, fanouts=(5, 5)
            )
            for i, seeds in enumerate(loader.batches(0)):
                planner.plan_batch(sampler.sample(seeds, batch_index=i))
            stored = session.plan_cache.stats.stores
            assert stored == loader.num_batches
        with DGCLSession(topology, plan_cache=str(tmp_path)) as session:
            loader, sampler, planner = session.sample_loader(
                g, batch_size=32, fanouts=(5, 5)
            )
            planned = [
                planner.plan_batch(sampler.sample(seeds, batch_index=i))
                for i, seeds in enumerate(loader.batches(0))
            ]
            assert all(p.plan_source == "cache" for p in planned)

    def test_sample_loader_reuses_build_partition(self, workload,
                                                  monkeypatch):
        import repro.api as api

        calls = []
        real = api.hierarchical_partition

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(api, "hierarchical_partition", counting)
        g, _, _ = workload
        with DGCLSession(topology_for_gpu_count(4)) as session:
            session.build_comm_info(g)
            _, _, planner = session.sample_loader(
                g, batch_size=32, fanouts=(5, 5)
            )
            assert len(calls) == 1
            assert planner.assignment is session.relation.assignment
            session.sample_loader(g, batch_size=32, fanouts=(5,), seed=3)
            assert len(calls) == 2  # another seed partitions afresh

    def test_sample_loader_khop_and_validation(self, workload):
        g, _, _ = workload
        with DGCLSession(topology_for_gpu_count(4)) as session:
            loader, sampler, planner = session.sample_loader(
                g, batch_size=16, hops=1
            )
            batch = sampler.sample(next(loader.batches(0)))
            assert planner.plan_batch(batch).plan_source == "planned"
            with pytest.raises(ValueError):
                session.sample_loader(g, batch_size=16)
            with pytest.raises(ValueError):
                session.sample_loader(
                    g, batch_size=16, fanouts=(4,), hops=1
                )

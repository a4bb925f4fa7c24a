"""The pluggable scheme registry and the communication-avoiding schemes.

Covers the registry round-trip (register -> resolve -> tune -> cache
fingerprint), the typed unknown-scheme error across every surface, the
CAGNET 1.5D/2D oblivious plans (structure, validation, exact gradient
parity with the single-device oracle), DistGNN delayed aggregation
(bit-parity at staleness 0, the tolerance-ladder degradation contract,
amortised pricing) and cost-vs-event ranking agreement for the widened
candidate space.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as dgcl
from repro.autotune import AutoTuner, CandidateScheme, SearchSpace
from repro.baselines.strategies import Workload, evaluate_scheme
from repro.chaos.soak import staleness_tolerance
from repro.comm.allgather import CompiledAllgather
from repro.core import CommRelation
from repro.core.baseline_planners import peer_to_peer_plan
from repro.errors import ReproError, UnknownSchemeError
from repro.gnn import SingleDeviceTrainer, build_gcn
from repro.gnn.distributed import DistributedTrainer
from repro.graph.datasets import synthetic_features, synthetic_labels
from repro.graph.generators import rmat
from repro.obs import Telemetry, Tracer
from repro.obs.tracer import TRAINER_TRACK
from repro.partition import partition
from repro.schemes import (
    get_scheme,
    global_registry,
    plan_scheme_names,
    register_scheme,
    resolve_strategy,
    scheme_names,
    session_strategy_names,
)
from repro.schemes.cagnet import cagnet_2d_plan, grid_shape
from repro.schemes.distgnn import DelayedAllgather, DistGNNTrainer
from repro.topology.presets import dgx1, dual_dgx1, ring, torus

NEW_SCHEMES = ("cagnet-1.5d", "cagnet-2d", "distgnn-delayed")


@pytest.fixture(scope="module")
def task():
    """A partitioned training task shared by the parity tests."""
    g = rmat(220, 1500, seed=7)
    feats = synthetic_features(g, 12, seed=3)
    labels = synthetic_labels(g, 5, seed=3)
    rel = CommRelation(g, partition(g, 8, seed=0).assignment, 8)
    return g, feats, labels, rel


class TestRegistry:
    def test_builtins_registered(self):
        names = scheme_names()
        for name in ("dgcl", "dgcl-cache", "peer-to-peer", "swap",
                     "replication", "dgcl-r") + NEW_SCHEMES:
            assert name in names
        assert len(names) >= 6  # the tuner prices >= 6 scheme families

    def test_aliases_resolve(self):
        assert get_scheme("spst").name == "dgcl"
        assert get_scheme("p2p").name == "peer-to-peer"
        assert CandidateScheme("spst").strategy == "dgcl"

    def test_plan_based_subset(self):
        plan_based = set(plan_scheme_names())
        assert set(NEW_SCHEMES) <= plan_based
        assert "swap" not in plan_based and "replication" not in plan_based

    def test_unknown_scheme_error_type_and_message(self):
        with pytest.raises(UnknownSchemeError) as exc:
            get_scheme("quantum")
        err = exc.value
        assert isinstance(err, ReproError)
        assert isinstance(err, KeyError) and isinstance(err, ValueError)
        assert str(err).startswith("unknown strategy 'quantum'")
        assert "dgcl" in str(err) and "register_scheme" in str(err)
        assert "quantum" == err.name and "dgcl" in err.registered

    def test_unknown_rejected_everywhere(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            CandidateScheme(strategy="quantum")
        with pytest.raises(ValueError, match="unknown strategy"):
            dgcl.session(dgx1(), strategy="quantum")
        with pytest.raises(KeyError):
            evaluate_scheme(Workload("reddit", "gcn", dgx1(num_gpus=2)),
                            scheme="quantum")

    def test_resolve_strategy_session_vocabulary(self):
        assert resolve_strategy("auto") is None
        assert resolve_strategy("spst").name == "dgcl"
        with pytest.raises(UnknownSchemeError) as exc:
            resolve_strategy("swap")  # evaluation-only: not executable
        assert "auto" in exc.value.registered
        assert set(dgcl.SESSION_STRATEGIES) <= set(session_strategy_names())

    def test_register_requires_builder_or_cost_fn(self):
        with pytest.raises(ValueError, match="builder"):
            register_scheme("empty-scheme")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme("dgcl", builder=lambda *a, **k: None)


class TestRegistryRoundTrip:
    """register -> session/tuner/cache all see the custom scheme."""

    @pytest.fixture()
    def custom(self):
        def builder(relation, topology, *, chunks_per_class=4, seed=0,
                    staleness=0):
            return peer_to_peer_plan(relation, topology, name="mirror-p2p")

        spec = register_scheme("mirror-p2p", builder=builder, version="7",
                               description="test-only p2p twin")
        yield spec
        global_registry().unregister("mirror-p2p")

    def test_tune_over_custom_scheme(self, custom, small_graph):
        space = SearchSpace(dgx1(), strategies=("mirror-p2p",),
                            partitioners=("hierarchical",))
        report = AutoTuner(small_graph, dgx1(), space=space).tune()
        assert report.candidate.strategy == "mirror-p2p"
        plan = report.build_plan()
        assert plan.name == "mirror-p2p"
        # Its generic pricing agrees with the real peer-to-peer scheme.
        p2p = SearchSpace(dgx1(), strategies=("peer-to-peer",),
                          partitioners=("hierarchical",), methods=(None,))
        ref = AutoTuner(small_graph, dgx1(), space=p2p).tune()
        assert report.best.cost == pytest.approx(ref.best.cost, rel=1e-9)

    def test_fingerprint_includes_name_and_version(self, custom):
        config = CandidateScheme("mirror-p2p").config()
        assert config["strategy"] == "mirror-p2p"
        assert config["scheme_version"] == "7"

    def test_session_accepts_custom_scheme(self, custom, small_graph,
                                           tmp_path):
        with dgcl.session(dgx1(), strategy="mirror-p2p",
                          plan_cache=str(tmp_path)) as s:
            report = s.build_comm_info(small_graph)
            assert report.plan.name == "mirror-p2p"
            assert report.plan_source == "planned"
        with dgcl.session(dgx1(), strategy="mirror-p2p",
                          plan_cache=str(tmp_path)) as s:
            report = s.build_comm_info(small_graph)
            assert report.plan_source == "cache"

    def test_version_bump_invalidates_cache(self, custom, small_graph,
                                            tmp_path):
        with dgcl.session(dgx1(), strategy="mirror-p2p",
                          plan_cache=str(tmp_path)) as s:
            s.build_comm_info(small_graph)
        global_registry().unregister("mirror-p2p")
        register_scheme("mirror-p2p", builder=custom.builder, version="8")
        with dgcl.session(dgx1(), strategy="mirror-p2p",
                          plan_cache=str(tmp_path)) as s:
            report = s.build_comm_info(small_graph)
            assert report.plan_source != "cache"


class TestSearchSpaceWidening:
    def test_new_schemes_enumerated(self):
        strategies = {c.strategy for c in SearchSpace(dgx1()).candidates()}
        for name in NEW_SCHEMES:
            assert name in strategies
        assert len(strategies) >= 6

    def test_staleness_swept_only_for_distgnn(self):
        cands = SearchSpace(dgx1()).candidates()
        by_strategy = {}
        for c in cands:
            by_strategy.setdefault(c.strategy, set()).add(c.staleness)
        assert by_strategy["distgnn-delayed"] == set(
            get_scheme("distgnn-delayed").staleness_options
        )
        assert by_strategy["dgcl"] == {0}
        assert by_strategy["cagnet-1.5d"] == {0}

    def test_staleness_options_pin(self):
        space = SearchSpace(dgx1(), plan_based_only=True,
                            staleness_options=(0,))
        assert {c.staleness for c in space.candidates()} == {0}

    def test_cagnet_knobs_pinned(self):
        space = SearchSpace(dgx1(), strategies=("cagnet-2d",),
                            partitioners=("hierarchical",),
                            methods=(None, "cuda-vm"), chunk_options=(1, 4))
        assert len(space.candidates()) == 1  # oblivious tree: no knobs


class TestCagnetPlans:
    def test_grid_shape(self):
        assert grid_shape(4) == (2, 2)
        assert grid_shape(8) == (2, 4)   # exact factorisation: NVLink quads
        assert grid_shape(16) == (4, 4)
        assert grid_shape(12) == (3, 4)
        assert grid_shape(7) == (3, 3)   # prime: padded ceil-sqrt grid

    @pytest.mark.parametrize("scheme", ["cagnet-1.5d", "cagnet-2d"])
    def test_plan_validates_and_delivers(self, task, scheme):
        g, feats, labels, rel = task
        plan = get_scheme(scheme).build_plan(rel, dgx1())
        runtime = CompiledAllgather(rel, plan)  # validates class coverage
        blocks = [feats[rel.local_vertices[d]] for d in range(8)]
        gathered = runtime.forward(blocks)
        ref = CompiledAllgather(rel, peer_to_peer_plan(rel, dgx1()))
        expected = ref.forward(blocks)
        for got, want in zip(gathered, expected):
            assert np.array_equal(got, want)

    def test_15d_is_a_ring_walk(self, task):
        g, feats, labels, rel = task
        plan = get_scheme("cagnet-1.5d").build_plan(rel, ring(8))
        for route in plan.routes:
            for link, _stage in route.edges:
                # Every hop of the systolic walk moves one step around
                # the ring from the source.
                assert (link.dst - link.src) % 8 == 1

    def test_2d_depth_bounded_by_grid(self, task):
        g, feats, labels, rel = task
        rows, cols = grid_shape(8)
        plan = get_scheme("cagnet-2d").build_plan(rel, dgx1())
        # Pipelined row walk then column walks: depth is bounded by the
        # grid semi-perimeter, not the ring's P - 1.
        assert plan.num_stages <= (rows - 1) + (cols - 1)

    def test_2d_walks_are_grid_neighbour_hops(self, task):
        g, feats, labels, rel = task
        rows, cols = grid_shape(8)
        plan = get_scheme("cagnet-2d").build_plan(rel, torus(rows, cols))
        for route in plan.routes:
            for link, _stage in route.edges:
                r1, c1 = divmod(link.src, cols)
                r2, c2 = divmod(link.dst, cols)
                row_hop = r1 == r2 and (c2 - c1) % cols == 1
                col_hop = c1 == c2 and (r2 - r1) % rows == 1
                assert row_hop or col_hop

    @pytest.mark.parametrize("scheme", ["cagnet-1.5d", "cagnet-2d"])
    def test_exact_gradient_parity(self, task, scheme):
        g, feats, labels, rel = task
        plan = get_scheme(scheme).build_plan(rel, dgx1())
        ref = SingleDeviceTrainer(g, build_gcn(12, 8, 5, seed=9), feats,
                                  labels, lr=0.1)
        dist = DistributedTrainer(rel, plan, build_gcn(12, 8, 5, seed=9),
                                  feats, labels, lr=0.1)
        for _ in range(3):
            a, b = ref.run_epoch(), dist.run_epoch()
            assert a.loss == pytest.approx(b.loss, rel=1e-5)
            assert np.allclose(a.logits, b.logits, atol=1e-4)


class TestDistGNN:
    def test_staleness_zero_bit_parity(self, task):
        g, feats, labels, rel = task
        plan = get_scheme("distgnn-delayed").build_plan(rel, dgx1())
        exact = DistributedTrainer(rel, plan, build_gcn(12, 8, 5, seed=2),
                                   feats, labels, lr=0.1)
        delayed = DistGNNTrainer(rel, plan, build_gcn(12, 8, 5, seed=2),
                                 feats, labels, lr=0.1, staleness=0)
        for _ in range(3):
            a, b = exact.run_epoch(), delayed.run_epoch()
            assert a.loss == b.loss  # bit-identical, not approximately
            assert np.array_equal(a.logits, b.logits)

    def test_degradation_ladder(self, task):
        g, feats, labels, rel = task
        plan = get_scheme("distgnn-delayed").build_plan(rel, dgx1())
        ref = SingleDeviceTrainer(g, build_gcn(12, 8, 5, seed=2), feats,
                                  labels, lr=0.1)
        ref_losses = [float(ref.run_epoch().loss) for _ in range(4)]
        gaps = []
        for staleness in (0, 1, 2, 4):
            t = DistGNNTrainer(rel, plan, build_gcn(12, 8, 5, seed=2),
                               feats, labels, lr=0.1, staleness=staleness)
            losses = [float(t.run_epoch().loss) for _ in range(4)]
            rtol, atol = staleness_tolerance(staleness)
            assert np.allclose(losses, ref_losses, rtol=rtol, atol=atol), \
                f"staleness {staleness} left its tolerance rung"
            gaps.append(max(abs(a - b)
                            for a, b in zip(losses, ref_losses)))
        # Monotone degradation (with float slack): staler aggregates
        # are never *more* accurate than fresher ones.
        for lo, hi in zip(gaps, gaps[1:]):
            assert hi + 1e-6 + 0.25 * lo >= lo

    def test_refresh_cadence(self, task):
        g, feats, labels, rel = task
        plan = get_scheme("distgnn-delayed").build_plan(rel, dgx1())
        ag = DelayedAllgather(rel, plan, staleness=2)
        cadence = []
        for _ in range(6):
            ag.begin_epoch()
            cadence.append(ag.fresh)
        assert cadence == [True, False, False, True, False, False]

    def test_stale_epoch_moves_no_bytes(self, task):
        g, feats, labels, rel = task
        plan = get_scheme("distgnn-delayed").build_plan(rel, dgx1())
        blocks = [feats[rel.local_vertices[d]] for d in range(8)]
        ag = DelayedAllgather(rel, plan, staleness=1)
        ag.begin_epoch()
        fresh = ag.forward(blocks)
        ag.begin_epoch()
        stale = ag.forward(blocks)
        for a, b in zip(fresh, stale):
            assert np.array_equal(a, b)  # embeddings unchanged: cache hit
        grads = [np.ones_like(f) for f in fresh]
        kept = ag.backward(grads)
        for d, got in enumerate(kept):
            assert got.shape[0] == rel.local_vertices[d].size

    def test_stale_epoch_traces_no_comm(self, task):
        """Armed, a stale epoch prices no allgather and no scatter."""
        g, feats, labels, rel = task
        plan = get_scheme("distgnn-delayed").build_plan(rel, dgx1())

        def run(tracer):
            return DistGNNTrainer(
                rel, plan, build_gcn(12, 8, 5, seed=2), feats, labels,
                lr=0.1, staleness=1, telemetry=Telemetry(tracer=tracer),
            ).train(2)

        tracer = Tracer()
        assert run(tracer) == run(None)
        epochs: list = [[]]
        for span in tracer.spans:
            if span.track == TRAINER_TRACK:
                epochs[-1].append(span.name)
                if span.cat == "epoch":
                    epochs.append([])

        def comm(names, kind):
            return sum(name.startswith(kind) for name in names)

        fresh, stale, _ = epochs
        assert comm(fresh, "allgather") == 2 and comm(fresh, "scatter") == 1
        assert comm(stale, "allgather") == 0 and comm(stale, "scatter") == 0
        assert "L0 forward" in stale  # compute is still priced

    def test_amortised_pricing(self):
        workload = Workload("reddit", "gcn", dgx1())
        exact = evaluate_scheme(workload, scheme="distgnn-delayed",
                                staleness=0)
        stale = evaluate_scheme(workload, scheme="distgnn-delayed",
                                staleness=4)
        assert stale.comm_time == pytest.approx(exact.comm_time / 5)
        assert stale.epoch_time < exact.epoch_time
        assert stale.detail["staleness"] == 4
        assert stale.detail["refresh_period"] == 5

    def test_staleness_ignored_for_exact_schemes(self):
        workload = Workload("reddit", "gcn", dgx1())
        a = evaluate_scheme(workload, scheme="dgcl", staleness=0)
        b = evaluate_scheme(workload, scheme="dgcl", staleness=3)
        assert a.epoch_time == b.epoch_time


class TestRankingAgreement:
    """Cost-only pricing ranks the new schemes like the event model."""

    @pytest.mark.parametrize("topology", [dgx1, dual_dgx1])
    def test_same_winner_both_fidelities(self, topology):
        workload = Workload("reddit", "gcn", topology())
        schemes = ("dgcl", "peer-to-peer") + NEW_SCHEMES

        def winner(fidelity):
            priced = {
                s: evaluate_scheme(workload, scheme=s, fidelity=fidelity)
                for s in schemes
            }
            return min(priced, key=lambda s: priced[s].epoch_time)

        assert winner("cost") == winner("event")

    def test_tuner_prices_six_plus_families(self, small_graph):
        report = AutoTuner(small_graph, dgx1()).tune()
        families = {t.candidate.strategy for t in report.trials}
        assert len(families) >= 6
        for name in NEW_SCHEMES:
            assert name in families

    @pytest.mark.parametrize("scheme", NEW_SCHEMES)
    def test_new_scheme_winner_compiles(self, small_graph, scheme):
        space = SearchSpace(dgx1(), strategies=(scheme,),
                            partitioners=("hierarchical",))
        report = AutoTuner(small_graph, dgx1(), space=space).tune()
        plan = report.build_plan()
        # The compiled winner must be executable on the tuned workload.
        workload = report.workload_for(report.candidate)
        CompiledAllgather(workload.relation, plan)

"""Auto-tuner selection correctness on Table-5 style fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autotune import (
    AutoTuner,
    CandidateScheme,
    ExhaustiveSearch,
    SearchSpace,
    SuccessiveHalving,
    select_driver,
)
from repro.baselines import strategies
from repro.baselines.strategies import evaluate_scheme
from repro.topology.presets import dgx1, dual_dgx1


@pytest.fixture(scope="module")
def single_machine_tuner(request):
    """Exhaustively tuned 8-GPU single-machine fixture."""
    small_graph = request.getfixturevalue("small_graph")
    tuner = AutoTuner(small_graph, dgx1(), seed=0)
    return tuner, tuner.tune()


@pytest.fixture(scope="module")
def dual_machine_tuner(request):
    """16-GPU dual-machine fixture — the Table 5 setting (dgcl-r lives)."""
    community_graph = request.getfixturevalue("community_graph")
    tuner = AutoTuner(community_graph, dual_dgx1(), seed=0)
    return tuner, tuner.tune()


class TestSpace:
    """Feasibility and dedup of the candidate enumeration."""

    def test_swap_only_single_machine(self):
        single = {c.strategy for c in SearchSpace(dgx1()).candidates()}
        dual = {c.strategy for c in SearchSpace(dual_dgx1()).candidates()}
        assert "swap" in single and "dgcl-r" not in single
        assert "dgcl-r" in dual and "swap" not in dual

    def test_canonicalisation_dedupes(self):
        # Replication ignores method and chunking: the sweep collapses.
        space = SearchSpace(
            dgx1(), strategies=("replication",),
            partitioners=("hierarchical",),
            methods=(None, "cuda-vm"), chunk_options=(1, 4),
        )
        assert len(space.candidates()) == 1

    def test_plan_based_only_filter(self):
        space = SearchSpace(dual_dgx1(), plan_based_only=True)
        assert all(c.plan_based for c in space.candidates())

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            CandidateScheme(strategy="quantum")


class TestSelection:
    """The pick is never worse than any hand-picked fixed strategy."""

    def test_auto_beats_fixed_single_machine(self, single_machine_tuner):
        tuner, report = single_machine_tuner
        for cand in tuner.space.candidates():
            trial = tuner.evaluate(cand)  # memoised: costs nothing extra
            assert report.best.cost <= trial.cost + 1e-12, cand.label()

    def test_auto_beats_fixed_dual_machine(self, dual_machine_tuner):
        tuner, report = dual_machine_tuner
        strategies = {c.strategy for c in tuner.space.candidates()}
        assert "dgcl-r" in strategies  # the Table 5 hybrid is in the race
        for cand in tuner.space.candidates():
            trial = tuner.evaluate(cand)
            assert report.best.cost <= trial.cost + 1e-12, cand.label()

    def test_plan_based_winner_compiles(self, small_graph):
        tuner = AutoTuner(
            small_graph, dgx1(),
            space=SearchSpace(dgx1(), plan_based_only=True),
        )
        report = tuner.tune()
        plan = report.build_plan()
        workload = report.workload_for(report.candidate)
        plan.validate(workload.relation)

    def test_method_dimension_sweeps(self, small_graph):
        space = SearchSpace(
            dgx1(), strategies=("dgcl",), partitioners=("hierarchical",),
            methods=(None, "cuda-vm", "pinned-host"),
        )
        tuner = AutoTuner(small_graph, dgx1(), space=space)
        report = tuner.tune()
        methods = {t.candidate.method for t in report.trials}
        assert methods == {None, "cuda-vm", "pinned-host"}
        # Forcing everything through pinned host memory cannot beat the
        # automatic per-pair selection on an NVLink machine.
        by_method = {t.candidate.method: t.cost for t in report.trials}
        assert by_method[None] <= by_method["pinned-host"] + 1e-12

    def test_partitioner_dimension_sweeps(self, single_machine_tuner):
        _, report = single_machine_tuner
        assert {t.candidate.partitioner for t in report.trials} == {
            "hierarchical", "metis",
        }


class TestDrivers:
    """Exhaustive and successive-halving agreement."""

    def test_halving_agrees_with_exhaustive(self, community_graph):
        topo = dgx1()
        exhaustive = AutoTuner(
            community_graph, topo, driver=ExhaustiveSearch()
        ).tune()
        halving = AutoTuner(
            community_graph, topo, driver=SuccessiveHalving(eta=2)
        ).tune()
        assert halving.best.candidate == exhaustive.best.candidate
        assert halving.best.cost == pytest.approx(exhaustive.best.cost)

    def test_halving_final_rung_is_full_fidelity(self, community_graph):
        report = AutoTuner(
            community_graph, dgx1(), driver=SuccessiveHalving(eta=3)
        ).tune()
        assert report.best.fidelity == 1.0
        assert any(t.fidelity < 1.0 for t in report.trials)  # short runs ran

    def test_select_driver_threshold(self):
        assert isinstance(select_driver(3), ExhaustiveSearch)
        assert isinstance(select_driver(100), SuccessiveHalving)


class TestMemoisation:
    """evaluate_scheme memoises identical (plan, topology) pricing."""

    def test_repeat_evaluation_hits(self, single_machine_tuner):
        tuner, _ = single_machine_tuner
        cand = tuner.space.candidates()[0]
        first = tuner.evaluate(cand)
        entries = len(strategies._MEMO)
        second = tuner.evaluate(cand)
        assert len(strategies._MEMO) == entries  # a hit builds nothing
        assert second.result.epoch_time == first.result.epoch_time

    def test_memo_returns_independent_copies(self, small_graph):
        tuner = AutoTuner(small_graph, dgx1())
        cand = tuner.space.candidates()[0]
        a = tuner.evaluate(cand).result
        a.detail["poisoned"] = 1.0
        b = tuner.evaluate(cand).result
        assert "poisoned" not in b.detail

    def test_telemetry_bypasses_memo(self, single_machine_tuner):
        from repro.obs import MetricsRegistry, Telemetry, Tracer

        tuner, _ = single_machine_tuner
        workload = tuner._workload(CandidateScheme("dgcl"), 1.0)
        tracer, metrics = Tracer(), MetricsRegistry()
        result = evaluate_scheme(
            workload, scheme="dgcl",
            telemetry=Telemetry(tracer=tracer, metrics=metrics),
        )
        assert result.ok and len(tracer.events()) > 0

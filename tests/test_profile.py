"""Tests for the plan profiler, cost-model auditor and regression gate.

Covers the flight-recorder stack end to end: the deterministic quantile
digest, the predicted-vs-actual auditor (whose aggregate error is the
Figure-10 quantity by construction), critical-path extraction, profile
serialisation/diffing, the session and CLI surfaces, plan-cache
annotation, and the ``benchmarks/compare.py`` perf gate.
"""

import json

import numpy as np
import pytest

from repro.core import CommRelation, SPSTPlanner
from repro.graph.generators import rmat
from repro.obs import (
    CostModelAuditor,
    FlightRecorder,
    MetricsRegistry,
    QuantileDigest,
    RunProfile,
    Telemetry,
    Tracer,
    critical_path,
    diff_profiles,
    load_profile,
    profile_json,
    render_diff,
    render_profile,
    write_profile,
)
from repro.partition import partition
from repro.simulator.executor import PlanExecutor
from repro.topology import dgx1
from repro.__main__ import main


@pytest.fixture(scope="module")
def planned():
    graph = rmat(250, 1800, seed=4)
    r = partition(graph, 8, seed=0)
    rel = CommRelation(graph, r.assignment, 8)
    plan = SPSTPlanner(dgx1(), seed=0).plan(rel)
    return graph, rel, plan


def recorded_run(plan, bpu=1024, runs=2):
    """Auditor + recorder armed executor, ``runs`` executions."""
    auditor = CostModelAuditor()
    recorder = FlightRecorder()
    executor = PlanExecutor(
        plan.topology,
        telemetry=Telemetry(auditor=auditor, recorder=recorder),
    )
    for i in range(runs):
        executor.execute_tuples(list(plan.tuples()), bpu, label=f"run {i}")
    return auditor, recorder


class TestQuantileDigest:
    def test_exact_matches_numpy_under_cap(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(100)
        d = QuantileDigest()
        d.observe_many(values)
        assert d.exact
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert d.quantile(q) == pytest.approx(
                np.percentile(values, q * 100), rel=1e-12
            )

    def test_compressed_stays_close_and_bounded(self):
        rng = np.random.default_rng(7)
        values = rng.exponential(size=5000)
        d = QuantileDigest(max_centroids=64)
        d.observe_many(values)
        assert not d.exact
        assert len(d.centroids()) <= 64
        for q in (0.5, 0.9, 0.99):
            truth = np.percentile(values, q * 100)
            assert d.quantile(q) == pytest.approx(truth, rel=0.05)
        assert d.quantile(0.0) == values.min()
        assert d.quantile(1.0) == values.max()

    def test_deterministic_across_runs(self):
        def build():
            d = QuantileDigest(max_centroids=32)
            for i in range(1000):
                d.observe((i * 2654435761 % 997) / 997.0)
            return d.quantiles()

        assert build() == build()

    def test_empty_reports_zeros(self):
        assert QuantileDigest().quantiles() == {
            "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }


class TestAuditor:
    def test_signed_error_matches_fig10_quantity(self, planned):
        """Auditor error == (actual - estimated_cost) / estimated."""
        _, _, plan = planned
        bpu = 1024
        estimated = plan.estimated_cost(bpu)
        actual = PlanExecutor(plan.topology).execute(plan, bpu).total_time
        fig10 = (actual - estimated) / estimated

        auditor = CostModelAuditor()
        PlanExecutor(
            plan.topology, telemetry=Telemetry(auditor=auditor)
        ).execute(plan, bpu)
        (record,) = auditor.records
        assert record.signed_error == pytest.approx(fig10, abs=1e-12)
        assert abs(record.signed_error - fig10) < 0.01  # acceptance bound
        assert record.predicted_total == pytest.approx(estimated)
        assert record.actual_total == pytest.approx(actual)

    def test_flags_stages_over_threshold(self, planned):
        _, _, plan = planned
        strict = CostModelAuditor(threshold=1e-9)
        PlanExecutor(
            plan.topology, telemetry=Telemetry(auditor=strict)
        ).execute(plan, 1024)
        (record,) = strict.records
        # Near-zero tolerance: every diverging stage is flagged.
        diverging = [s for s in record.stages
                     if abs(s.signed_error) > 1e-9]
        assert len(record.flagged_stages) == len(diverging) > 0
        assert "flag" in strict.table()

    def test_as_dict_round_trips_through_json(self, planned):
        _, _, plan = planned
        auditor, _ = recorded_run(plan)
        doc = auditor.as_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["aggregate"]["flagged_stages"] == sum(
            len(r.flagged_stages) for r in auditor.records
        )


class TestCriticalPath:
    def test_path_ends_at_finish_and_is_causal(self, planned):
        _, _, plan = planned
        report = PlanExecutor(plan.topology).execute(plan, 1024)
        hops = critical_path(report)
        assert hops
        assert hops[-1].finish_time == pytest.approx(report.total_time)
        for earlier, later in zip(hops, hops[1:]):
            a, b = earlier.flow.tag, later.flow.tag
            assert a.stage < b.stage
            assert earlier.finish_time <= later.finish_time
            # consecutive hops share an endpoint (the dependency chain)
            assert {a.src, a.dst} & {b.src, b.dst}

    def test_deterministic(self, planned):
        _, _, plan = planned

        def hops():
            report = PlanExecutor(plan.topology).execute(plan, 1024)
            return [
                (h.flow.tag.stage, h.flow.tag.src, h.flow.tag.dst,
                 h.start_time, h.finish_time)
                for h in critical_path(report)
            ]

        assert hops() == hops()


class TestRunProfile:
    def test_attribution_and_rendering(self, planned):
        _, _, plan = planned
        auditor, recorder = recorded_run(plan)
        profile = RunProfile.from_recorder(recorder, audit=auditor,
                                           meta={"source": "test"})
        assert len(profile.collectives) == 2
        assert profile.total_seconds > 0
        assert 0 < profile.critical_seconds() <= profile.total_seconds
        hot = profile.hottest_connections(3)
        assert hot == sorted(hot, key=lambda c: (-c.busy_seconds, c.name))
        for conn in hot:
            assert 0 <= conn.utilization <= 1.0
            assert conn.contention >= 1.0
        text = render_profile(profile)
        assert "critical path" in text and "cost-model audit" in text

    def test_document_round_trip_and_diff(self, planned, tmp_path):
        _, _, plan = planned
        auditor, recorder = recorded_run(plan)
        profile = RunProfile.from_recorder(recorder, audit=auditor)
        path = tmp_path / "prof.json"
        write_profile(profile, path)
        loaded = load_profile(path)
        assert loaded == profile.as_dict()
        assert profile_json(loaded) == profile_json(profile)

        auditor2, recorder2 = recorded_run(plan, bpu=4096)
        other = RunProfile.from_recorder(recorder2, audit=auditor2)
        diff = diff_profiles(profile, other)
        assert diff["total_seconds"]["candidate"] > \
            diff["total_seconds"]["base"]
        assert "->" in render_diff(diff)

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError):
            load_profile(path)


class TestSessionProfile:
    def test_profile_requires_armed_recorder(self, planned):
        from repro.api import DGCLSession

        graph, _, _ = planned
        session = DGCLSession(dgx1())
        session.build_comm_info(graph, seed=0)
        with pytest.raises(RuntimeError, match="arm_telemetry"):
            session.profile()

    def test_profile_and_cache_annotation(self, planned, tmp_path):
        from repro.api import DGCLSession

        graph, _, _ = planned
        session = DGCLSession(dgx1(), plan_cache=tmp_path / "cache")
        session.build_comm_info(graph, seed=0)
        session.arm_telemetry()
        features = np.zeros((graph.num_vertices, 4), dtype=np.float32)
        blocks = session.dispatch_features(features)
        out = session.graph_allgather(blocks)
        session.scatter_gradients([np.zeros_like(b) for b in out])

        profile = session.profile()
        assert len(profile.collectives) == 2
        assert profile.meta["source"] == "session"
        assert profile.audit is not None

        # Annotation updated the entry's meta without a second store.
        stats = session.plan_cache.stats.as_dict()
        assert stats["stores"] == 1
        assert stats["annotations"] == 2
        entry = json.loads(
            session.plan_cache.path_for(session._cache_key).read_text()
        )
        assert entry["meta"]["audited_runs"] == 2
        assert isinstance(entry["meta"]["observed_error"], float)


class TestPlanCacheAnnotate:
    def test_missing_entry_is_silent(self, planned, tmp_path):
        from repro.autotune.cache import PlanCache
        from repro.autotune.fingerprint import cache_key

        graph, rel, _ = planned
        cache = PlanCache(tmp_path)
        key = cache_key(graph, rel.assignment, dgx1(), {"strategy": "spst"})
        assert cache.annotate(key, observed_error=0.1) is None
        assert cache.stats.annotations == 0

    def test_annotate_merges_meta(self, planned, tmp_path):
        from repro.autotune.cache import PlanCache
        from repro.autotune.fingerprint import cache_key

        graph, rel, plan = planned
        cache = PlanCache(tmp_path)
        key = cache_key(graph, rel.assignment, dgx1(), {"strategy": "spst"})
        cache.put(key, plan, meta={"strategy": "spst"})
        path = cache.annotate(key, observed_error=0.05, audited_runs=3)
        doc = json.loads(path.read_text())
        assert doc["meta"] == {
            "strategy": "spst", "observed_error": 0.05, "audited_runs": 3,
        }
        assert cache.stats.stores == 1
        assert cache.stats.annotations == 1
        # The annotated entry still loads as a plan.
        assert cache.get(key, dgx1()) is not None


class TestCli:
    def test_profile_verb_renders_and_saves(self, tmp_path, capsys):
        out = tmp_path / "prof.json"
        assert main(["profile", "--dataset", "web-google", "--gpus", "8",
                     "--output", str(out)]) == 0
        text = capsys.readouterr().out
        assert "critical path" in text and "cost-model audit" in text
        doc = json.loads(out.read_text())
        assert doc["kind"] == "dgcl-profile"

    def test_report_verb_single_and_diff(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        main(["profile", "--dataset", "web-google", "--gpus", "8",
              "--output", str(base)])
        main(["profile", "--dataset", "wiki-talk", "--gpus", "8",
              "--output", str(cand)])
        capsys.readouterr()
        assert main(["report", str(base)]) == 0
        assert "stage attribution" in capsys.readouterr().out
        assert main(["report", str(base), "--against", str(cand)]) == 0
        assert "->" in capsys.readouterr().out

    def test_report_rejects_missing_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.json")]) == 2


class TestCompareGate:
    def _obs_doc(self):
        return {
            "benchmark": "obs",
            "format": 1,
            "payload": {
                "workload": {"datasets": ["web-google"], "num_gpus": 8},
                "total_simulated_seconds": 1e-4,
                "critical_path_seconds": 4e-5,
                "audit": {"mean_abs_stage_error": 0.05,
                          "fig10_match": True},
                "profile_deterministic": True,
            },
        }

    def _dirs(self, tmp_path):
        base_dir = tmp_path / "base"
        cand_dir = tmp_path / "cand"
        base_dir.mkdir()
        cand_dir.mkdir()
        return base_dir, cand_dir

    def test_identical_artifacts_pass(self, tmp_path):
        from benchmarks.compare import main as compare_main

        base_dir, cand_dir = self._dirs(tmp_path)
        doc = self._obs_doc()
        (base_dir / "BENCH_obs.json").write_text(json.dumps(doc))
        (cand_dir / "BENCH_obs.json").write_text(json.dumps(doc))
        assert compare_main(["--baseline", str(base_dir),
                             "--candidate", str(cand_dir),
                             "--skip-wall"]) == 0

    def test_injected_ten_percent_regression_fails(self, tmp_path, capsys):
        from benchmarks.compare import main as compare_main

        base_dir, cand_dir = self._dirs(tmp_path)
        doc = self._obs_doc()
        (base_dir / "BENCH_obs.json").write_text(json.dumps(doc))
        doc["payload"]["total_simulated_seconds"] *= 1.10
        (cand_dir / "BENCH_obs.json").write_text(json.dumps(doc))
        assert compare_main(["--baseline", str(base_dir),
                             "--candidate", str(cand_dir),
                             "--skip-wall"]) == 1
        assert "REGRESSION total_simulated_seconds" in capsys.readouterr().out

    def test_workload_mismatch_skips(self, tmp_path):
        from benchmarks.compare import compare_payload

        base = self._obs_doc()["payload"]
        cand = json.loads(json.dumps(base))
        cand["workload"]["num_gpus"] = 4
        cand["total_simulated_seconds"] *= 5  # would fail if gated
        verdict = compare_payload("obs", base, cand)
        assert verdict["status"] == "skipped"
        assert "mismatch" in verdict["reason"]

    def test_missing_candidate_artifact_fails(self, tmp_path):
        from benchmarks.compare import compare_dirs

        base_dir, cand_dir = self._dirs(tmp_path)
        (base_dir / "BENCH_obs.json").write_text(json.dumps(self._obs_doc()))
        verdict = compare_dirs(base_dir, cand_dir)
        assert not verdict["passed"]

    def test_wall_metrics_skippable(self, tmp_path):
        from benchmarks.compare import compare_payload

        payload = {
            "workload": {"smoke": False},
            "composite_speedup": 5.0,
            "planner_speedup": 3.0,
        }
        slower = dict(payload, composite_speedup=1.0, planner_speedup=1.0)
        gated = compare_payload("fastpath", payload, slower, skip_wall=False)
        assert gated["status"] == "fail"
        skipped = compare_payload("fastpath", payload, slower, skip_wall=True)
        assert skipped["status"] == "pass"

"""Unit tests for the serving control plane (``repro.serve``).

Covers the admission primitives (token bucket, bounded queue, WFQ),
the coalescing batcher, the arrival processes, the degradation ladder
and replica store, and the healthy-scenario end-to-end behaviour:
full SLO attainment, typed-only outcomes and bit-identical reruns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServeSpecError
from repro.serve import (
    ArrivalSpec,
    BoundedQueue,
    Batch,
    CoalescingBatcher,
    DegradationLadder,
    FairPicker,
    InferenceRequest,
    LEVELS,
    OUTCOMES,
    ReplicaStore,
    SeedSampler,
    ServeConfig,
    ServeSession,
    TokenBucket,
    arrival_times,
    build_scenario,
)


def _request(rid: int, tenant: str = "t", arrival: float = 0.0,
             deadline: float = 1.0) -> InferenceRequest:
    return InferenceRequest(
        rid=rid, tenant=tenant, arrival=arrival, deadline=deadline,
        vertices=np.array([rid], dtype=np.int64),
    )


class TestTokenBucket:
    def test_starts_full_and_refills(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst spent
        # 0.1s at 10 tokens/s refills one token.
        assert bucket.try_take(0.1)
        assert not bucket.try_take(0.1)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3.0)
        assert bucket.available(10.0) == 3.0

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=2.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestBoundedQueue:
    def test_push_pop_fifo_and_capacity(self):
        q = BoundedQueue(2)
        assert q.push(_request(0))
        assert q.push(_request(1))
        assert q.full
        assert not q.push(_request(2))  # typed queue-full shed
        assert q.pop().rid == 0
        assert q.peek().rid == 1

    def test_expire_removes_only_past_deadline(self):
        q = BoundedQueue(4)
        q.push(_request(0, deadline=0.5))
        q.push(_request(1, deadline=2.0))
        expired = q.expire(1.0)
        assert [r.rid for r in expired] == [0]
        assert len(q) == 1 and q.peek().rid == 1


class TestFairPicker:
    def test_picks_smallest_virtual_time(self):
        picker = FairPicker({"a": 1.0, "b": 1.0})
        picker.backlog("a")
        picker.backlog("b")
        picker.charge("a", 4.0)
        assert picker.pick(["a", "b"]) == "b"

    def test_weights_scale_charges(self):
        picker = FairPicker({"heavy": 4.0, "light": 1.0})
        picker.backlog("heavy")
        picker.backlog("light")
        picker.charge("heavy", 4.0)  # vtime 1.0
        picker.charge("light", 2.0)  # vtime 2.0
        assert picker.pick(["heavy", "light"]) == "heavy"

    def test_idle_tenant_is_not_punished(self):
        picker = FairPicker({"a": 1.0, "b": 1.0})
        picker.backlog("a")
        picker.charge("a", 10.0)
        picker.drain("a")
        picker.backlog("b")
        picker.charge("b", 6.0)
        # a re-activates: its vtime floors to the active minimum, it
        # does not owe the work it never had queued.
        picker.backlog("a")
        assert picker.vtime["a"] >= 6.0

    def test_deterministic_tie_break_by_name(self):
        picker = FairPicker({"b": 1.0, "a": 1.0})
        picker.backlog("a")
        picker.backlog("b")
        assert picker.pick(["b", "a"]) == "a"

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            FairPicker({"a": 0.0})


class TestCoalescingBatcher:
    def test_full_batch_closes_immediately(self):
        batcher = CoalescingBatcher(max_batch=2, window=1.0)
        q = BoundedQueue(4)
        q.push(_request(0))
        q.push(_request(1))
        assert batcher.close_time(q, now=5.0, est_service=0.1,
                                  slo=10.0, scale=1.0) == 5.0

    def test_window_waits_within_headroom(self):
        batcher = CoalescingBatcher(max_batch=8, window=0.5)
        q = BoundedQueue(4)
        q.push(_request(0, arrival=0.0))
        close = batcher.close_time(q, now=0.0, est_service=1.0,
                                   slo=10.0, scale=1.0)
        assert close == 0.5  # full window fits inside the headroom

    def test_headroom_clamps_the_window(self):
        batcher = CoalescingBatcher(max_batch=8, window=5.0)
        q = BoundedQueue(4)
        q.push(_request(0, arrival=0.0))
        close = batcher.close_time(q, now=0.0, est_service=1.0,
                                   slo=2.0, scale=1.0)
        assert close == pytest.approx(1.0)  # slo - est_service

    def test_ladder_scale_zero_disables_coalescing(self):
        batcher = CoalescingBatcher(max_batch=8, window=5.0)
        q = BoundedQueue(4)
        q.push(_request(0))
        assert batcher.close_time(q, now=3.0, est_service=0.1,
                                  slo=10.0, scale=0.0) == 3.0

    def test_form_pops_up_to_max_batch(self):
        batcher = CoalescingBatcher(max_batch=2, window=0.0)
        q = BoundedQueue(4)
        for rid in range(3):
            q.push(_request(rid))
        batch = batcher.form(q, now=0.0)
        assert isinstance(batch, Batch)
        assert [r.rid for r in batch.requests] == [0, 1]
        assert batch.size == 2 and len(q) == 1


class TestArrivals:
    def test_same_seed_same_stream(self):
        spec = ArrivalSpec(kind="bursty", rate=2e6, burst_factor=3.0)
        a = arrival_times(spec, 1e-4, np.random.default_rng(7))
        b = arrival_times(spec, 1e-4, np.random.default_rng(7))
        assert a == b and a == sorted(a)

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_mean_rate_is_roughly_respected(self, kind):
        spec = ArrivalSpec(kind=kind, rate=1e6)
        times = arrival_times(spec, 1e-3, np.random.default_rng(0))
        # ~1000 expected; allow generous slack for the bursty phases.
        assert 500 < len(times) < 2000

    def test_spec_validation(self):
        with pytest.raises(ServeSpecError):
            ArrivalSpec(kind="thundering-herd")
        with pytest.raises(ServeSpecError):
            ArrivalSpec(rate=0.0)
        with pytest.raises(ServeSpecError):
            ArrivalSpec(burst_factor=0.5)
        with pytest.raises(ServeSpecError):
            ArrivalSpec(amplitude=1.5)

    def test_seed_sampler_sorted_unique(self):
        sampler = SeedSampler(100, seeds_per_request=5, seed=3)
        picks = sampler.sample(np.random.default_rng(0))
        assert picks.dtype == np.int64
        assert list(picks) == sorted(set(picks.tolist()))

    def test_hot_fraction_one_stays_in_hot_set(self):
        sampler = SeedSampler(100, seeds_per_request=3,
                              hot_fraction=1.0, seed=3)
        hot = set(sampler.hot.tolist())
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert set(sampler.sample(rng).tolist()) <= hot


class TestDegradationLadder:
    def test_engages_and_recovers_with_hysteresis(self):
        ladder = DegradationLadder(engage_after=2, recover_after=2)
        assert ladder.feedback(True, 0.0, 0) is None  # streak 1
        t = ladder.feedback(True, 1.0, 1)             # streak 2: engage
        assert t is not None and t.direction == "engage"
        assert LEVELS[ladder.level] == "shrink"
        assert ladder.window_scale == 0.0
        assert ladder.feedback(False, 2.0, 2) is None
        t = ladder.feedback(False, 3.0, 3)
        assert t is not None and t.direction == "recover"
        assert LEVELS[ladder.level] == "normal"
        assert ladder.window_scale == 1.0

    def test_rung_properties(self):
        ladder = DegradationLadder(engage_after=1, recover_after=99)
        for _ in range(3):
            ladder.feedback(True, 0.0, 0)
        assert LEVELS[ladder.level] == "shed"
        assert ladder.stale_serve and ladder.shed_tenant

    def test_replica_store_ttl_split(self):
        store = ReplicaStore(ttl=1.0)
        store.record(np.array([1, 2], dtype=np.int64), now=0.0)
        fresh, stale = store.split(np.array([1, 2, 3], dtype=np.int64),
                                   now=0.5)
        assert list(stale) == [1, 2] and list(fresh) == [3]
        fresh, stale = store.split(np.array([1, 2], dtype=np.int64),
                                   now=5.0)
        assert list(fresh) == [1, 2] and list(stale) == []
        store.clear()
        assert not store.covers(np.array([1], dtype=np.int64), now=0.0)


class TestHealthyScenario:
    def test_poisson_attains_slo_with_typed_outcomes(self):
        report = build_scenario("poisson", horizon_scale=0.5).run(seed=0)
        assert report.unaccounted == 0
        assert report.completed > 0
        counts = report.outcome_counts()
        assert set(counts) == set(OUTCOMES)
        assert report.final_level == "normal" and not report.ladder
        for stats in report.tenants.values():
            assert stats["slo_attainment"] == 1.0

    def test_run_twice_is_bit_identical(self):
        session = build_scenario("bursty", horizon_scale=0.4)
        a = session.run(seed=3)
        b = session.run(seed=3)
        assert a.signature() == b.signature()
        c = session.run(seed=4)
        assert c.signature() != a.signature()

    def test_bursty_sheds_with_typed_rejections_only(self):
        report = build_scenario("bursty", horizon_scale=0.5).run(seed=0)
        assert report.shed > 0
        assert report.unaccounted == 0

    def test_hotspot_hits_the_batch_plan_cache(self):
        # Needs the full horizon: hot-set batch repeats are rare early.
        report = build_scenario("hotspot").run(seed=0)
        assert report.batch_cache["hits"] > 0
        assert report.batch_cache["plans"] <= (
            report.batch_cache["misses"]
        )

    def test_plan_cache_reuse_across_sessions(self, tmp_path):
        from repro.autotune.cache import PlanCache

        cache = PlanCache(tmp_path / "plans")
        first = build_scenario("poisson", horizon_scale=0.2,
                               plan_cache=cache)
        assert first.plan_cache_source == "planned"
        second = build_scenario("poisson", horizon_scale=0.2,
                                plan_cache=cache)
        assert second.plan_cache_source == "cache"
        # The cached plan serves identically to the freshly planned
        # one — only the provenance field may differ.
        a = first.run(seed=1).as_dict()
        b = second.run(seed=1).as_dict()
        assert a.pop("plan_cache_source") == "planned"
        assert b.pop("plan_cache_source") == "cache"
        assert a == b

    def test_plan_cache_hit_skips_planning(self, tmp_path, monkeypatch):
        from repro.autotune.cache import PlanCache
        from repro.core.spst import SPSTPlanner

        cache = PlanCache(tmp_path / "plans")
        calls = []
        plan = SPSTPlanner.plan
        monkeypatch.setattr(
            SPSTPlanner, "plan",
            lambda self, *a, **k: calls.append(1) or plan(self, *a, **k),
        )
        build_scenario("poisson", horizon_scale=0.2, plan_cache=cache)
        cold = len(calls)
        build_scenario("poisson", horizon_scale=0.2, plan_cache=cache)
        # The scenario's SLO probe plans both times; the deployment
        # plans cold and loads its plan warm.
        assert (cold, len(calls) - cold) == (2, 1)

    def test_session_rejects_empty_and_duplicate_tenants(self):
        from repro.graph.generators import rmat
        from repro.serve import TenantSpec
        from repro.topology import topology_for_gpu_count

        graph = rmat(60, 300, seed=0)
        topo = topology_for_gpu_count(4)
        with pytest.raises(ServeSpecError):
            ServeSession(graph, topo, [])
        dup = [TenantSpec(name="a", slo=1e-5),
               TenantSpec(name="a", slo=2e-5)]
        with pytest.raises(ServeSpecError):
            ServeSession(graph, topo, dup)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field,value", [
    ("horizon", NAN),            # empty campaign
    ("horizon", INF),            # never ends
    ("batch_overhead", NAN),     # never ends
    ("compute_seconds", -1.0),   # negative latencies
    ("retry_backoff", -1.0),
    ("bytes_per_unit", -16.0),
    ("bytes_per_unit", NAN),
    ("max_batch", 0),
    ("coalesce_window", -1.0),
    ("engage_after", 0),
    ("recover_after", 0),
    ("stale_ttl", -1.0),
    ("stale_ttl", NAN),
    ("partition_seed", -1),
])
def test_config_rejects_values_that_hang_or_corrupt_a_run(field, value):
    with pytest.raises(ServeSpecError, match=field):
        ServeConfig(**{field: value})

"""Acceptance test for the serving PR: overload + faults.

Under a pinned 2x overload burst — with and without concurrently
injected device/link faults — the control plane must:

* shed load through **typed rejections only** (zero silent drops),
* engage the degradation ladder and bring every tenant's windowed
  p99 back within its SLO by the end of the horizon, and
* produce bit-identical reports across two seeded executions.
"""

from __future__ import annotations

import pytest

from repro.chaos.oracles import check_serve_accounting, check_serve_deadline
from repro.faults import DeviceCrash, FaultPlan, LinkLoss
from repro.serve import build_scenario


@pytest.fixture(scope="module")
def session():
    return build_scenario("overload")


@pytest.fixture(scope="module")
def report(session):
    return session.run(seed=0)


@pytest.fixture(scope="module")
def fault_plan(session):
    # One link sacrificed for the whole run plus a mid-horizon crash,
    # both aimed at the small (pre-autoscale) deployment.
    conn = sorted(session.small.connections)[0]
    horizon = session.config.horizon
    return FaultPlan([
        LinkLoss(connection=conn, time=0.0),
        DeviceCrash(device=1, time=0.45 * horizon),
    ], seed=0)


class TestOverloadWithoutFaults:
    def test_typed_outcomes_only_zero_silent_drops(self, report):
        assert report.unaccounted == 0
        assert check_serve_accounting(report) == []
        assert check_serve_deadline(report) == []

    def test_overload_actually_sheds(self, report):
        counts = report.outcome_counts()
        assert counts["rejected-queue"] + counts["rejected-shed"] > 0
        assert report.completed > 0

    def test_ladder_engages_and_slo_recovers(self, report):
        engagements = [t for t in report.ladder if t["direction"] == "engage"]
        assert engagements, "2x overload must climb the ladder"
        first_engage = engagements[0]["window"]
        # Pain was real: some window at or after the engagement had a
        # violating tenant ...
        assert any(w["violating"] for w in report.windows[first_engage:-1])
        # ... and after the ladder (and autoscale) have acted, the
        # windowed p99 of every tenant is back inside its SLO.
        assert report.windows[-1]["violating"] == []

    def test_autoscale_grows_under_sustained_violation(self, report):
        assert report.autoscale, "sustained violation must trigger growth"
        event = report.autoscale[0]
        assert event["to_devices"] > event["from_devices"]

    def test_bit_identical_across_reruns(self, session, report):
        again = session.run(seed=0)
        assert again.signature() == report.signature()


class TestOverloadWithFaults:
    def test_faults_keep_outcomes_typed(self, session, fault_plan):
        report = session.run(seed=0, fault_plan=fault_plan)
        assert report.unaccounted == 0
        assert check_serve_accounting(report) == []
        assert check_serve_deadline(report) == []
        assert report.completed > 0

    def test_faulted_run_is_deterministic(self, session, fault_plan):
        a = session.run(seed=0, fault_plan=fault_plan)
        b = session.run(seed=0, fault_plan=fault_plan)
        assert a.signature() == b.signature()

    def test_faults_change_the_run(self, session, fault_plan, report):
        faulted = session.run(seed=0, fault_plan=fault_plan)
        assert faulted.signature() != report.signature()

    def test_bug_in_plan_repair_propagates(
        self, session, fault_plan, monkeypatch
    ):
        """Only repair_plan's typed errors become a degrade; any other
        error is a bug and must surface."""
        def broken(*args, **kwargs):
            raise TypeError("bug inside repair_plan")

        monkeypatch.setattr("repro.serve.server.repair_plan", broken)
        with pytest.raises(TypeError, match="bug inside repair_plan"):
            session.run(seed=0, fault_plan=fault_plan)

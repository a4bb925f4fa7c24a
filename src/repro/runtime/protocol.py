"""The DGCL master/client protocol, executed message by message.

This is §4.1 + §6.1 of the paper running for real against a simulated
clock:

1. every client registers with the master; the master scatters the
   "start layer" signal once all are connected (§6.3's gather/scatter
   bootstrap);
2. per stage, a client raises its ready flag, then for every planned
   send it spin-waits on the peer's ready flag, pushes the payload over
   the live network, and raises its per-peer done flag; for every
   planned receive it waits on the sender's done flag and retrieves the
   rows from its buffer;
3. a client becomes ready for stage ``k+1`` only when its stage-``k``
   sends and retrieves have all completed — no global barrier, so
   independent pairs drift apart and a transient straggler delays only
   the peers that actually talk to it (asserted in the test suite);
4. when its last stage completes, the client notifies the master, which
   declares the allgather finished when all clients have.

The ``centralized`` mode replaces (3) with a master-driven stage
barrier, paying a control round-trip per stage — the design §6.1
rejects; keeping both makes the trade-off measurable.

A receiver's done flag counts transfers: when several vertex classes
share one (sender, receiver, stage) — on dgx1, SPST may send them over
both links of a pair — the receiver waits for all of them.

There is one protocol body.  Its fault hooks act only when a
:class:`~repro.faults.injector.FaultInjector` with at least one
scheduled fault is attached (*armed*): flag waits then carry per-stage
timeouts with exponential backoff and bounded retries (a timed-out
waiter re-fetches the peer's state, one control round-trip each);
transfers are stall-checked against actual byte progress and, on a
confirmed stall, retried, re-routed around the dead wire
(:func:`repro.faults.repair.alternate_path`) or degraded to host-memory
staging, as chosen by the :class:`~repro.faults.policy.RecoveryPolicy`;
every wait races the device's crash event; clients emit heartbeats and
a master-side failure detector declares a device dead after
``miss_limit`` silent windows, aborting the run with a typed
:class:`~repro.faults.policy.DeviceLostError` for the trainer to catch.
Unarmed, every hook is a no-op: waits are yielded bare, with no timer,
crash race, heartbeat or monitor, and an armed run whose faults all
fire after it ends has exactly the unarmed timings.

Embeddings really move: the runner returns the gathered per-device
blocks, which the tests compare against
:class:`~repro.comm.allgather.CompiledAllgather`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.allgather import BufferMaps
from repro.core.plan import CommPlan, CommTuple
from repro.core.relation import CommRelation
from repro.faults.policy import (
    DefaultPolicy,
    DeviceLostError,
    RecoveryPolicy,
    UnrecoverableFaultError,
)
from repro.faults.repair import alternate_path
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import connection_track, device_track
from repro.runtime.events import (
    AllOf,
    AnyOf,
    Event,
    Flag,
    Simulator,
    Timeout,
    WaitEvent,
    WaitFlag,
)
from repro.runtime.flags import DEFAULT_FLAG_LATENCY, FlagBoard
from repro.runtime.network import LiveNetwork
from repro.simulator.network import DEFAULT_ALPHA, _check_amount

__all__ = ["ProtocolRunner", "ProtocolReport"]

#: Control-plane latency of one master<->client message; ~20 us on
#: hardware (socket round trip), scaled by the twin factor.
DEFAULT_CONTROL_LATENCY = 2e-7


@dataclass
class ProtocolReport:
    """Timing record of one protocol-level graphAllgather."""

    total_time: float
    device_finish: Dict[int, float] = field(default_factory=dict)
    stage_finish: Dict[Tuple[int, int], float] = field(default_factory=dict)
    transfers: int = 0


class ProtocolRunner:
    """Runs one graphAllgather through the full master/client protocol."""

    def __init__(
        self,
        relation: CommRelation,
        plan: CommPlan,
        coordination: str = "decentralized",
        alpha: float = DEFAULT_ALPHA,
        flag_latency: float = DEFAULT_FLAG_LATENCY,
        control_latency: float = DEFAULT_CONTROL_LATENCY,
        device_delays: Optional[Dict[int, float]] = None,
        injector=None,
        policy: Optional[RecoveryPolicy] = None,
        telemetry: Telemetry = Telemetry(),
    ) -> None:
        if coordination not in ("decentralized", "centralized"):
            raise ValueError("coordination must be decentralized or centralized")
        _check_amount("alpha", alpha)
        _check_amount("flag_latency", flag_latency)
        _check_amount("control_latency", control_latency)
        for device, delay in (device_delays or {}).items():
            if device not in range(relation.num_devices):
                raise ValueError(
                    f"device_delays names device {device!r}; the relation "
                    f"has devices 0..{relation.num_devices - 1}"
                )
            _check_amount(f"device_delays[{device}]", delay)
        plan.validate(relation)
        self.relation = relation
        self.plan = plan
        self.coordination = coordination
        self.alpha = alpha
        self.flag_latency = flag_latency
        self.control_latency = control_latency
        self.device_delays = dict(device_delays or {})
        #: Fault machinery; its hooks act only when the injector
        #: actually schedules faults — otherwise they are no-ops.
        self.injector = injector
        self.policy = policy if policy is not None else DefaultPolicy()
        #: Telemetry sinks.  Recording is purely observational — spans
        #: never yield into the simulator, so armed tracing leaves the
        #: event schedule (and therefore all timings) untouched.
        self.telemetry = telemetry
        # Fault-hook tunables (simulated seconds).
        self.flag_timeout = control_latency * 20
        self.flag_timeout_cap = self.flag_timeout * 64
        self.stall_check = max(alpha * 4, control_latency * 4)
        self.stall_checks_limit = 3
        self.heartbeat_interval = control_latency * 5
        self.miss_timeout = control_latency * 12
        self.miss_limit = 3

        #: The simulator of the most recent run — inspected by the
        #: cleanup regression tests (all processes must be finished or
        #: closed after an aborted run).
        self._last_sim: Optional[Simulator] = None

        self._tuples = sorted(plan.tuples(), key=lambda t: t.stage)
        self._maps = BufferMaps(relation, self._tuples)
        self.num_devices = relation.num_devices
        self.num_stages = plan.num_stages

        # Per-device send/receive schedules: stage -> list of tuple idx.
        self._sends: List[Dict[int, List[int]]] = [
            {} for _ in range(self.num_devices)
        ]
        self._recvs: List[Dict[int, List[int]]] = [
            {} for _ in range(self.num_devices)
        ]
        for i, t in enumerate(self._tuples):
            self._sends[t.src].setdefault(t.stage, []).append(i)
            self._recvs[t.dst].setdefault(t.stage, []).append(i)

    # ------------------------------------------------------------------
    @property
    def _armed(self) -> bool:
        return self.injector is not None and self.injector.is_armed

    def _staging_path(self, src: int, dst: int):
        """Host-memory staging route (degrade fallback), if still alive."""
        topo = self.plan.topology
        if not (topo.has_host_staging(src) and topo.has_host_staging(dst)):
            return None
        path = tuple(topo.host_write_path(src)) + tuple(topo.host_read_path(dst))
        if all(self.injector.capacity_of(c) > 0.0 for c in path):
            return path
        return None

    def run(
        self, local_embeddings: Sequence[np.ndarray]
    ) -> Tuple[List[np.ndarray], ProtocolReport]:
        """Execute the allgather; returns (gathered blocks, report).

        With an armed fault injector this may raise
        :class:`~repro.faults.policy.DeviceLostError` (confirmed device
        death — roll back and repartition) or
        :class:`~repro.faults.policy.UnrecoverableFaultError` (retry
        budget exhausted with no surviving route).
        """
        armed = self._armed
        injector = self.injector if armed else None
        policy = self.policy
        log = injector.log if armed else None
        topo = self.plan.topology
        sim = Simulator()
        network = LiveNetwork(
            sim, alpha=self.alpha,
            capacity_of=injector.capacity_of if armed else None,
        )
        flags = FlagBoard(sim, flag_latency=self.flag_latency, injector=injector)
        buffers = self._maps.make_buffers(list(local_embeddings))
        report = ProtocolReport(total_time=0.0)
        telemetry = self.telemetry
        base = telemetry.now
        if armed:
            injector.arm(sim, network=network)

        registered = [Event() for _ in range(self.num_devices)]
        start_signal = Event()
        finished = [Event() for _ in range(self.num_devices)]
        all_done = Event()
        stage_go = [Event() for _ in range(self.num_stages)]
        stage_go_done = [Event() for _ in range(self.num_stages)]
        stage_done_count = [
            {"left": self.num_devices} for _ in range(self.num_stages)
        ]
        heartbeats = [Flag(f"hb[d{d}]") for d in range(self.num_devices)]
        done_total = Counter((t.src, t.dst, t.stage) for t in self._tuples)

        def race(*conditions):
            """Wait for the first of ``conditions``; the yield evaluates
            to the winner's index.  Unarmed, no timeout or crash can win,
            so the first condition is waited on bare (the yield evaluates
            to None, which reads as "the first one won")."""
            return AnyOf(conditions) if armed else conditions[0]

        def crash_of(device: int) -> Optional[WaitEvent]:
            return WaitEvent(injector.crash_event(device)) if armed else None

        def master():
            yield AllOf([WaitEvent(e) for e in registered])
            yield Timeout(self.control_latency)  # scatter "start"
            start_signal.trigger()
            if self.coordination == "centralized":
                for k in range(self.num_stages):
                    yield Timeout(self.control_latency)
                    stage_go[k].trigger()
                    yield WaitEvent(stage_go_done[k])
            yield AllOf([WaitEvent(e) for e in finished])
            report.total_time = sim.now
            all_done.trigger()

        def heartbeat(device: int):
            crash = crash_of(device)
            while True:
                winner = yield AnyOf(
                    [Timeout(self.heartbeat_interval), crash, WaitEvent(all_done)]
                )
                if winner != 0:
                    return  # crashed (silence) or protocol over
                heartbeats[device].increment()

        def monitor(device: int):
            # Master-side failure detector: a device is declared dead
            # after miss_limit consecutive silent windows.
            hb = heartbeats[device]
            target = 1
            misses = 0
            while True:
                winner = yield AnyOf(
                    [
                        WaitFlag(hb, target),
                        Timeout(self.miss_timeout),
                        WaitEvent(all_done),
                    ]
                )
                if winner == 2:
                    return
                if winner == 0:
                    target = hb.value + 1
                    misses = 0
                    continue
                misses += 1
                log.append(
                    sim.now,
                    "device",
                    "detect",
                    f"device {device}",
                    f"missed heartbeat ({misses}/{self.miss_limit})",
                )
                if misses >= self.miss_limit:
                    # Sweep every peer already known crashed so one
                    # abort reports simultaneous losses together.
                    dead = sorted(
                        {device}
                        | {
                            d
                            for d in range(self.num_devices)
                            if injector.is_crashed(d)
                        }
                    )
                    log.append(
                        sim.now,
                        "device",
                        "abort",
                        f"device {device}",
                        f"confirmed dead; lost devices {dead}",
                    )
                    raise DeviceLostError(
                        dead, sim.now, fault_log=log, report=report
                    )

        def await_flag(flag, target, kind, fdev, peer, stage, crash, subject):
            """Flag wait with timeout, re-fetch and exponential backoff.

            Returns True when the flag reached ``target``, False when
            our own device crashed mid-wait.  Raises
            UnrecoverableFaultError when the drop budget keeps eating
            re-fetches.
            """
            yield Timeout(self.flag_latency)  # remote poll latency
            timeout = self.flag_timeout
            attempt = 0
            while True:
                winner = yield race(WaitFlag(flag, target), Timeout(timeout), crash)
                if not winner:
                    return True
                if winner == 2:
                    return False
                log.append(
                    sim.now,
                    "control",
                    "detect",
                    subject,
                    f"wait timed out after {timeout * 1e6:.1f} us",
                )
                yield Timeout(self.control_latency * 2)  # re-fetch RTT
                if kind == "ready":
                    verdict = flags.refetch_ready(fdev, stage)
                else:
                    verdict = flags.refetch_done(fdev, peer, stage)
                if verdict == "recovered":
                    # One lost increment released; loop re-checks the
                    # target (done flags may need several increments).
                    log.append(
                        sim.now,
                        "control",
                        "recover",
                        subject,
                        "re-fetch released a lost flag increment",
                    )
                    continue
                if verdict == "dropped":
                    attempt += 1
                    telemetry.count("fault.flag_refetches")
                    log.append(
                        sim.now,
                        "control",
                        "retry",
                        subject,
                        f"re-fetch lost too (attempt {attempt})",
                    )
                    if attempt > policy.max_retries:
                        log.append(
                            sim.now,
                            "control",
                            "giveup",
                            subject,
                            "flag retry budget exhausted",
                        )
                        raise UnrecoverableFaultError(
                            subject, attempt, "flag retry budget exhausted"
                        )
                # "absent": the peer is just slow — back off and re-wait.
                timeout = min(timeout * 2, self.flag_timeout_cap)

        def run_transfer(t, size, idx, crash, subject):
            """One payload with stall detection and the recovery ladder.

            Returns True on delivery, False if our device crashed.
            """
            path = t.link.connections
            attempt = 0
            while True:
                attempt_start = sim.now
                handle = network.transfer(path, size, tag=idx)
                last_remaining = float("inf")
                stalls = 0
                stalled = False
                rem = size
                while not stalled:
                    winner = yield race(
                        WaitEvent(handle.done), Timeout(self.stall_check), crash
                    )
                    if not winner:
                        for conn in path:
                            telemetry.span(
                                f"{t.src}->{t.dst} s{t.stage}", "comm",
                                connection_track(conn.name),
                                base + attempt_start, base + sim.now,
                                bytes=size, src=t.src, dst=t.dst,
                                stage=t.stage, attempt=attempt,
                            )
                            telemetry.count("comm.bytes", size,
                                            conn=conn.name)
                        telemetry.count("comm.flows")
                        return True
                    if winner == 2:
                        network.cancel(handle)
                        return False
                    rem = network.remaining(handle)
                    if rem < last_remaining - 1e-9:
                        last_remaining = rem
                        stalls = 0
                    else:
                        stalls += 1
                        stalled = stalls >= self.stall_checks_limit
                network.cancel(handle)
                attempt += 1
                telemetry.count("fault.transfer_retries")
                log.append(
                    sim.now,
                    "link",
                    "detect",
                    subject,
                    f"transfer stalled with {rem:.0f} B left "
                    f"(attempt {attempt})",
                )
                if attempt > policy.max_retries:
                    log.append(
                        sim.now, "link", "giveup", subject,
                        "transfer retry budget exhausted",
                    )
                    raise UnrecoverableFaultError(
                        subject, attempt, "transfer retry budget exhausted"
                    )
                decision = policy.decide("transfer-timeout", attempt)
                if decision == "retry":
                    log.append(
                        sim.now, "link", "retry", subject,
                        "re-issuing on the same path",
                    )
                    continue
                new_path = None
                action = decision
                if decision == "repair":
                    new_path = alternate_path(
                        topo, t.src, t.dst, capacity_of=injector.capacity_of
                    )
                if new_path is None:
                    action = "degrade"
                    new_path = self._staging_path(t.src, t.dst)
                if new_path is None:
                    # Full partition: no GPU route and no host staging.
                    # If the injector has a capacity transition still
                    # ahead (typically the partition's scheduled heal),
                    # sleeping until it beats burning retries on wires
                    # we know are dark — so the wait does not count
                    # against the retry budget.  Transitions are finite,
                    # so this branch runs at most once per transition.
                    heal_at = injector.next_transition_after(sim.now)
                    if heal_at is not None:
                        log.append(
                            sim.now, "link", "degrade", subject,
                            f"partitioned; waiting for heal at "
                            f"{heal_at * 1e6:.1f} us",
                        )
                        winner = yield AnyOf(
                            [Timeout(heal_at - sim.now + self.flag_latency), crash]
                        )
                        if winner == 1:
                            return False
                        attempt -= 1  # the wait was not a retry
                        path = t.link.connections
                        continue
                    log.append(
                        sim.now, "link", "giveup", subject,
                        "no surviving path, even via host staging",
                    )
                    raise UnrecoverableFaultError(
                        subject,
                        attempt,
                        "no surviving path, even via host staging",
                    )
                path = new_path
                hops = "+".join(c.name for c in path)
                log.append(sim.now, "link", action, subject, f"re-routed via {hops}")

        def sender(device: int, idx: int, done_event: Event):
            t = self._tuples[idx]
            crash = crash_of(device)
            subject = f"send[{t.src}->{t.dst},s{t.stage}]"
            wait_start = sim.now
            ok = yield from await_flag(
                flags.ready_flag(t.dst, t.stage), 1,
                "ready", t.dst, None, t.stage, crash, subject,
            )
            if not ok:
                return
            telemetry.span(
                f"wait ready[{t.dst},s{t.stage}]", "flag",
                device_track(device), base + wait_start, base + sim.now,
                peer=t.dst,
            )
            telemetry.observe("flag.wait_seconds", sim.now - wait_start)
            size = t.units * self._bytes_per_unit
            ok = yield from run_transfer(t, size, idx, crash, subject)
            if not ok:
                return
            _, _, src_rows, dst_rows = self._maps.ops[idx]
            buffers[t.dst][dst_rows] = buffers[device][src_rows]
            flags.set_done(t.src, t.dst, t.stage)
            report.transfers += 1
            done_event.trigger()

        def receiver(device: int, idx: int, done_event: Event):
            t = self._tuples[idx]
            crash = crash_of(device)
            subject = f"recv[{t.src}->{t.dst},s{t.stage}]"
            # Several vertex classes can share this (src, dst, stage),
            # each on its own link: gate on ALL of their transfers, or
            # rows still in flight could be forwarded in the next stage.
            target = done_total[(t.src, t.dst, t.stage)]
            wait_start = sim.now
            ok = yield from await_flag(
                flags.done_flag(t.src, t.dst, t.stage), target,
                "done", t.src, t.dst, t.stage, crash, subject,
            )
            if not ok:
                return
            telemetry.span(
                f"wait done[{t.src}->{t.dst},s{t.stage}]", "flag",
                device_track(device), base + wait_start, base + sim.now,
                peer=t.src,
            )
            telemetry.observe("flag.wait_seconds", sim.now - wait_start)
            done_event.trigger()

        def client(device: int):
            crash = crash_of(device)
            winner = yield race(Timeout(self.control_latency), crash)
            if winner:
                return
            registered[device].trigger()
            winner = yield race(WaitEvent(start_signal), crash)
            if winner:
                return
            extra = self.device_delays.get(device, 0.0)
            if extra:
                winner = yield race(Timeout(extra), crash)
                if winner:
                    return
            for k in range(self.num_stages):
                stall = injector.stall_remaining(device, sim.now) if armed else 0.0
                if stall > 0:
                    winner = yield AnyOf([Timeout(stall), crash])
                    if winner:
                        return
                if self.coordination == "centralized":
                    winner = yield race(WaitEvent(stage_go[k]), crash)
                    if winner:
                        return
                stage_start = sim.now
                flags.set_ready(device, k)
                waits = []
                for idx in self._sends[device].get(k, []):
                    ev = Event()
                    sim.spawn(sender(device, idx, ev), f"send{idx}")
                    waits.append(ev)
                for idx in self._recvs[device].get(k, []):
                    ev = Event()
                    sim.spawn(receiver(device, idx, ev), f"recv{idx}")
                    waits.append(ev)
                for ev in waits:
                    winner = yield race(WaitEvent(ev), crash)
                    if winner:
                        return
                report.stage_finish[(device, k)] = sim.now
                telemetry.span(
                    f"stage {k}", "stage", device_track(device),
                    base + stage_start, base + sim.now,
                )
                if self.coordination == "centralized":
                    counter = stage_done_count[k]
                    counter["left"] -= 1
                    if counter["left"] == 0:
                        stage_go_done[k].trigger()
            yield Timeout(self.control_latency)  # notify the master
            report.device_finish[device] = sim.now
            finished[device].trigger()

        sim.spawn(master(), "master")
        for d in range(self.num_devices):
            sim.spawn(client(d), f"client{d}")
        if armed:
            for d in range(self.num_devices):
                sim.spawn(heartbeat(d), f"hb{d}")
                sim.spawn(monitor(d), f"mon{d}")
        self._last_sim = sim
        try:
            sim.run()
        except (DeviceLostError, UnrecoverableFaultError):
            report.total_time = sim.now
            raise
        finally:
            # On abort, sender/receiver/heartbeat/monitor coroutines are
            # still suspended mid-yield; close them so their frames (and
            # the buffers/network they pin) never leak across the many
            # runs of a chaos soak.  A clean finish makes this a no-op.
            sim.shutdown()
        gathered = [
            buffers[d][self._maps.out_rows[d]] for d in range(self.num_devices)
        ]
        return gathered, report

    def run_timed(self, bytes_per_unit: float) -> ProtocolReport:
        """Timing-only run with synthetic one-column payloads."""
        self._bytes_per_unit = bytes_per_unit
        blocks = [
            np.zeros((self.relation.local_vertices[d].size, 1), dtype=np.float32)
            for d in range(self.num_devices)
        ]
        _, report = self.run(blocks)
        return report

    _bytes_per_unit: float = 4.0

    def run_data(
        self, local_embeddings: Sequence[np.ndarray], bytes_per_float: int = 4
    ) -> Tuple[List[np.ndarray], ProtocolReport]:
        """Run with real embedding payloads (bytes from the row width)."""
        dim = local_embeddings[0].shape[1] if local_embeddings[0].ndim == 2 else 1
        self._bytes_per_unit = dim * bytes_per_float
        return self.run(local_embeddings)

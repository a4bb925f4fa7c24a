"""Ready/done flag boards for decentralized coordination (paper §6.1).

"When a GPU is ready for communication in a stage, it sets its ready
flag to be true and waits for the ready flags of its peer GPUs. ...
Once all data have been sent to the buffer of the peer GPU, it sets its
done flag for that peer. ... The flags of a GPU can be accessed by its
peer GPUs directly."

A :class:`FlagBoard` owns one monotone ready flag per (device, stage)
and one done flag per (sender, receiver, stage).  Peer access latency
(the cost of the remote flag poll over the interconnect) is paid by the
waiting process, not the setter.

Chaos hooks: with an optional
:class:`~repro.faults.injector.FaultInjector` attached, every set passes
through the injector's control-plane filter, which may drop the message
(the *value* is held injector-side — the setter's local state is fine,
only the notification was lost), delay it, or duplicate it (stale extra
copies arrive late; the board suppresses them by sequence number unless
the test-only :attr:`FlagBoard.dedupe` hook is off).  A timed-out
waiter calls
``refetch_ready``/``refetch_done`` to re-read the setter's state at the
cost of an extra control round-trip.  With no injector attached (an
unarmed protocol run), every set is delivered at once.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.runtime.events import Flag, Simulator

__all__ = ["FlagBoard"]

#: Remote flag access latency; ~1 us on hardware (MMIO over PCIe/NVLink),
#: scaled by the twin factor (1/100) like every latency constant.
DEFAULT_FLAG_LATENCY = 1e-8


class FlagBoard:
    """All coordination flags of one training job."""

    #: Suppress duplicated flag deliveries (sequence-number dedupe, the
    #: correct behaviour: done flags are transfer *counters*, so a stale
    #: duplicate would release a receiver before its payload landed).
    #: Test-only hook — chaos tests flip this to False to simulate a
    #: board without dedupe and watch the delivery oracle catch it.
    dedupe = True

    def __init__(
        self,
        sim: Simulator,
        flag_latency: float = DEFAULT_FLAG_LATENCY,
        injector=None,
    ):
        self.sim = sim
        self.flag_latency = flag_latency
        #: Optional FaultInjector filtering flag-message deliveries.
        self.injector = injector
        self._ready: Dict[Tuple[int, int], Flag] = {}
        self._done: Dict[Tuple[int, int, int], Flag] = {}

    # ------------------------------------------------------------------
    def ready_flag(self, device: int, stage: int) -> Flag:
        """The (device, stage) ready flag, created on first use."""
        key = (device, stage)
        if key not in self._ready:
            self._ready[key] = Flag(f"ready[d{device},s{stage}]")
        return self._ready[key]

    def done_flag(self, src: int, dst: int, stage: int) -> Flag:
        """The (src, dst, stage) done flag, created on first use."""
        key = (src, dst, stage)
        if key not in self._done:
            self._done[key] = Flag(f"done[{src}->{dst},s{stage}]")
        return self._done[key]

    # ------------------------------------------------------------------
    def set_ready(self, device: int, stage: int) -> None:
        """Raise a device's ready flag for a stage."""
        self._filtered_set("ready", device, None, stage, self.ready_flag(device, stage))

    def set_done(self, src: int, dst: int, stage: int) -> None:
        """Count one completed transfer on the (src, dst, stage) flag.

        The flag counts transfers: several vertex classes can ride the
        same (src, dst, stage) triple, and a receiver gating on the pair
        waits for *all* of them (it passes the tuple count as the wait
        target).  With a single class per triple this degenerates to the
        paper's boolean done flag.
        """
        self._filtered_set("done", src, dst, stage, self.done_flag(src, dst, stage))

    def _filtered_set(
        self, kind: str, device: int, peer: Optional[int], stage: int, flag: Flag
    ) -> None:
        if self.injector is None:
            flag.increment()
            return
        verdict = self.injector.filter_flag(kind, device, peer, stage, self.sim.now)
        if verdict == "deliver":
            flag.increment()
        elif verdict == "drop":
            pass  # value held injector-side; a waiter re-fetch releases it
        elif verdict[0] == "delay":
            self.sim.schedule(verdict[1], flag.increment)
        else:  # ("duplicate", copies, jitter)
            _, copies, jitter = verdict
            flag.increment()  # the genuine delivery goes through on time
            injector = self.injector

            def stale_copy() -> None:
                if self.dedupe:
                    injector.log.append(
                        self.sim.now,
                        "control",
                        "detect",
                        flag.name,
                        "stale duplicate suppressed",
                    )
                else:
                    flag.increment()

            for _ in range(copies):
                self.sim.schedule(jitter, stale_copy)

    def refetch_ready(self, device: int, stage: int) -> str:
        """Re-read a peer's ready state after a timed-out wait.

        Returns the injector verdict (``"recovered"``, ``"dropped"`` or
        ``"absent"``); on recovery the flag is set for all waiters.
        """
        if self.injector is None:
            return "absent"
        verdict = self.injector.refetch_flag("ready", device, None, stage, self.sim.now)
        if verdict == "recovered":
            self.ready_flag(device, stage).increment()
        return verdict

    def refetch_done(self, src: int, dst: int, stage: int) -> str:
        """Re-read a sender's done state after a timed-out wait."""
        if self.injector is None:
            return "absent"
        verdict = self.injector.refetch_flag("done", src, dst, stage, self.sim.now)
        if verdict == "recovered":
            self.done_flag(src, dst, stage).increment()
        return verdict

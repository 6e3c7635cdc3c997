"""What a protocol needs from its host, and what a harness drives.

Every protocol in the stack is a :class:`~repro.sim.party.ProtocolInstance`
state machine attached to a :class:`~repro.sim.party.Party`.  The party, in
turn, talks to its host exclusively through the :class:`PartyRuntime`
context API defined here -- ``submit_message`` / ``fan_out`` /
``schedule_timer`` / ``dispatch`` plus the static execution parameters
(``n``, ``field``, ``delta``, ``now``, ``corrupt_parties``).  Protocol
classes therefore never depend on a concrete event loop: the same
unmodified protocol code runs on the one scheduler,
:class:`~repro.sim.simulator.Simulator`, whether it runs as fast as it can
or paced by the wall clock and over sockets
(:class:`~repro.runtime.asyncio_backend.AsyncioBackend`).

:class:`ExecutionBackend` is the driver interface the harnesses
(``run_mpc``, the service, the benchmarks) program against, and
:class:`RunResult` the backend-agnostic outcome object they all return.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.sim import messages


class PartyRuntime:
    """The party-context API: everything a :class:`Party` may ask its host.

    The :class:`~repro.sim.simulator.Simulator` implements this interface
    (the :class:`~repro.runtime.asyncio_backend.AsyncioBackend` is a paced
    simulator); protocol code reaches it only through the ``Party``
    conveniences (``send`` / ``send_all`` / ``schedule_at`` / ``now`` /
    ``delta``), never through a concrete class.
    """

    # -- static execution parameters ---------------------------------------
    # Declared as annotations (not properties) so implementations are free to
    # use plain attributes or computed properties for each of them.
    #: number of parties
    n: int
    #: ids of the statically corrupted parties
    corrupt_parties: Set[int]
    #: the finite field every protocol computes over
    field: Any
    #: the network's (assumed) synchronous delivery bound Delta
    delta: float
    #: the current party-local time
    now: float
    #: the backend rng the per-party rngs are derived from
    rng: Any
    #: crash-stopped party ids
    crashed: Set[int]
    #: Per-party count of crashes so far.  A timer remembers its owner's
    #: count, so what an earlier incarnation scheduled never fires after a
    #: revive (see :func:`incarnation_timer`).
    crash_epochs: Dict[int, int]
    #: the :class:`~repro.faults.plan.FaultPlan` of the run, if any
    faults: Any

    #: ``(payload, message bits)`` while :meth:`fan_out` is sending it.
    _fan_out_sized: Optional[Tuple[Any, int]] = None

    # -- channel and timer primitives --------------------------------------
    def submit_message(self, sender: int, recipient: int, tag: str, payload: Any) -> None:
        """Send over the private channel (the sender's behaviour applies)."""
        raise NotImplementedError

    def fan_out(self, sender: int, tag: str, payload: Any) -> None:
        """Send ``payload`` to every party, the sender included.

        The payload is measured once; every copy then takes the ordinary
        :meth:`submit_message` path (behaviour filter, delay draw, send
        accounting), where :meth:`sized_bits` hands the measurement to the
        ``Message`` being built.  A copy the sender's behaviour rewrites is
        a new ``Message`` and measures its own payload.
        """
        self._fan_out_sized = (payload, messages.message_bits(payload))
        try:
            for recipient in range(1, self.n + 1):
                self.submit_message(sender, recipient, tag, payload)
        finally:
            # The measurement dies with the call: the same (mutable) object
            # sent again later is measured again.
            self._fan_out_sized = None

    def sized_bits(self, payload: Any) -> Optional[int]:
        """The fan-out's measurement if ``payload`` is the object it measured."""
        sized = self._fan_out_sized
        if sized is not None and sized[0] is payload:
            return sized[1]
        return None

    def schedule_timer(self, time: float, callback: Callable[[], None], owner: int = 0) -> None:
        """Run ``callback`` at absolute local time ``time``."""
        raise NotImplementedError

    def dispatch(self, message) -> None:
        """Put an already-filtered message on the wire (adversary re-injection)."""
        raise NotImplementedError


def account_dispatch(runtime, message) -> float:
    """Draw a message's delivery delay and record its send metrics.

    The single accounting path of the scheduler, so the bit-accounting
    contract -- self-delivery local and free, delays drawn from the runtime
    rng at dispatch, sends bucketed into Delta-rounds -- holds on every
    backend.  A fault plan's extra latency (per-link schedules, sender clock
    skew) stretches the delay here, on the nominal due instant.  Returns the
    delay.
    """
    if message.sender == message.recipient:
        # Self-delivery is local: immediate-ish and free of charge.
        return 1e-9
    delay = runtime.network.delay(message, runtime.rng)
    if delay < 1e-9:
        delay = 1e-9
    delta = runtime.network.delta
    round_index = int(runtime.now / delta) if delta > 0 else 0
    runtime.metrics.record_send(
        message, message.sender in runtime.corrupt_parties, round_index
    )
    faults = runtime.faults
    if faults is not None:
        delay += faults.extra_delay(message.sender, message.recipient, message.send_time)
    return delay


class IncarnationTimer:
    """A timer callback bound to the incarnation of the party that set it.

    Crash-stop means the party performs no local step from the crash on,
    revived or not: calling this does nothing while ``owner`` is crashed or
    once it has crashed since the timer was set.  The scheduler queues its
    owned timers through :func:`incarnation_timer`.  (A class with slots,
    not a closure: thousands are pending at a time.)
    """

    __slots__ = ("runtime", "callback", "owner", "epoch")

    def __init__(self, runtime: PartyRuntime, callback: Callable[[], None], owner: int):
        self.runtime = runtime
        self.callback = callback
        self.owner = owner
        self.epoch = runtime.crash_epochs.get(owner, 0)

    def __call__(self) -> None:
        runtime, owner = self.runtime, self.owner
        if owner not in runtime.crashed and runtime.crash_epochs.get(owner, 0) == self.epoch:
            self.callback()


def incarnation_timer(
    runtime: PartyRuntime, callback: Callable[[], None], owner: int
) -> Callable[[], None]:
    """What the scheduler queues for ``callback``; ``owner`` 0 is the system,
    whose timers fire whoever has crashed."""
    return IncarnationTimer(runtime, callback, owner) if owner else callback


class RunResult:
    """Outcome of a protocol execution across all parties (any backend)."""

    def __init__(self, backend: "ExecutionBackend", instances: Dict[int, Any]):
        self.backend = backend
        self.instances = instances

    @property
    def metrics(self):
        return self.backend.metrics

    def output_of(self, party_id: int) -> Any:
        return self.instances[party_id].output

    def output_time_of(self, party_id: int) -> Optional[float]:
        return self.instances[party_id].output_time

    def honest_outputs(self) -> Dict[int, Any]:
        return {
            pid: self.instances[pid].output
            for pid in self.backend.honest_party_ids()
            if self.instances[pid].has_output
        }

    def honest_output_times(self) -> Dict[int, float]:
        return {
            pid: self.instances[pid].output_time
            for pid in self.backend.honest_party_ids()
            if self.instances[pid].has_output
        }

    def all_honest_done(self) -> bool:
        return all(
            self.instances[pid].has_output for pid in self.backend.honest_party_ids()
        )


class ExecutionBackend:
    """Driver interface: instantiate a protocol at every party and run it.

    ``factory(party)`` must return the root protocol instance for that
    party.  ``run`` drives the execution until every honest party has an
    output (or a limit is hit) and returns a :class:`RunResult`.
    """

    # Annotations, not properties: implementations choose plain attributes
    # or computed properties.
    n: int
    corrupt_parties: Set[int]
    parties: Dict[int, Any]
    field: Any
    metrics: Any

    def honest_party_ids(self) -> List[int]:
        return [i for i in range(1, self.n + 1) if i not in self.corrupt_parties]

    def set_behavior(self, party_id: int, behavior) -> None:
        """Attach a Byzantine behaviour to a (corrupt) party."""
        raise NotImplementedError

    def run(
        self,
        factory: Callable[[Any], Any],
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
        wait_for_all_honest: bool = True,
        extra_predicate: Optional[Callable[[], bool]] = None,
    ) -> RunResult:
        raise NotImplementedError

    # -- shared driver helpers ---------------------------------------------
    def _instantiate(self, factory: Callable[[Any], Any]) -> Dict[int, Any]:
        """Create the root instance at every party, then start them all.

        Two passes (create everything, then start everything) so that no
        party's first messages race the creation of its peers' endpoints --
        the same order the simulator harness has always used.
        """
        instances = {pid: factory(party) for pid, party in self.parties.items()}
        for instance in instances.values():
            instance.start()
        return instances

    def _done_predicate(
        self,
        instances: Dict[int, Any],
        wait_for_all_honest: bool,
        extra_predicate: Optional[Callable[[], bool]],
    ) -> Callable[[], bool]:
        def done() -> bool:
            if extra_predicate is not None and extra_predicate():
                return True
            if not wait_for_all_honest:
                return False
            # Evaluated before every event.  The corrupt set is read each
            # time because crash_party/revive_party change it mid-run.
            corrupt = self.corrupt_parties
            for pid, instance in instances.items():
                if not instance.has_output and pid not in corrupt:
                    return False
            return True

        return done

"""MpcService: a long-lived best-of-both-worlds MPC deployment.

One service owns a persistent party runtime (the deterministic simulator)
across a *stream* of circuit evaluations, instead of the one-shot
:func:`~repro.mpc.engine.run_mpc` lifecycle.  Three things make the stream
sustainable:

* **Reservoir preprocessing** -- Beaver triples are circuit-independent, so
  the service generates them in the background with the round-sharded
  ΠPreProcessing and banks them in a :class:`TripleReservoir` kept between a
  low and a high watermark.  Evaluations then run with ``triples=...``
  supplied, skipping per-evaluation preprocessing entirely; the
  preprocessing cost is amortized over the stream and overlaps evaluation
  latency (a refill round and an evaluation progress concurrently in
  simulated time).
* **Checkpoint/restore** -- :meth:`checkpoint` drains the event queue to a
  quiescent point and saves every party's durable state (rng state,
  reservoir shares, watermarks) plus the results log as one versioned wire
  blob; :meth:`restore` rebuilds a service that continues **bit-identically**
  (the synchronous dispatch path draws no backend randomness, so restoring
  the rng states and the clock reproduces the uninterrupted execution).
* **Crash-rejoin** -- :meth:`crash_party` crash-stops a party (its in-memory
  state, including its reservoir shares, is gone); :meth:`rejoin_party`
  revives it from the latest snapshot, runs a retrying/backoff handshake
  with the survivors, reconciles the reservoir by watermark arithmetic, and
  replays the results the party missed.  Evaluations submitted while a
  party is down either run *degraded* (the survivors evaluate; the crashed
  party's input defaults to 0 because it cannot enter the common subset) or
  are refused, per :attr:`ServiceConfig.allow_degraded`.

Degradation is always explicit: a full queue raises
:class:`BackpressureError`, an uncoverable evaluation raises
:class:`ReservoirDrainedError`, a failed handshake raises
:class:`RejoinTimeoutError`, and a stopped stream raises
:class:`PartialResultError` carrying the completed prefix.
"""

from __future__ import annotations

import re
import time as _time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.circuits.circuit import Circuit
from repro.field.gf import GF, FieldElement
from repro.mpc.engine import check_parameters, check_party_ids
from repro.mpc.protocol import CircuitEvaluation, cir_eval_time_bound
from repro.runtime.sim_backend import SimBackend
from repro.service.checkpoint import (
    CheckpointStore,
    PartySnapshot,
    ServiceSnapshot,
)
from repro.service.errors import (
    BackpressureError,
    PartialResultError,
    PartyCrashedError,
    RejoinTimeoutError,
    ReservoirDrainedError,
    ServiceClosedError,
)
from repro.service.reservoir import TripleReservoir
from repro.sim.network import NetworkModel
from repro.sim.party import Party, ProtocolInstance
from repro.timing import next_multiple_of_delta
from repro.triples.preprocessing import Preprocessing, preprocessing_time_bound


@dataclass
class ServiceConfig:
    """Tuning knobs for a long-lived service."""

    #: Refill the reservoir when the usable level drops below this.
    low_watermark: int = 8
    #: Refill rounds target this level.
    high_watermark: int = 32
    #: ΠTripSh round sharding for refill rounds (None = unsharded).
    shard_size: Optional[int] = None
    #: Offline pipeline for background refill rounds: "tripsh" (per-dealer
    #: reference) or "him" (hyper-invertible-matrix batch extraction; see
    #: :mod:`repro.triples.him`).
    offline: str = "tripsh"
    #: Auto-checkpoint after every k completed evaluations (0 = manual only).
    checkpoint_every: int = 0
    #: Submission-queue bound; exceeding it raises :class:`BackpressureError`.
    max_pending: int = 64
    #: Rejoin handshake deadline in simulated time units.
    rejoin_deadline: float = 64.0
    #: Handshake attempts before the rejoiner gives up retrying.
    rejoin_max_attempts: int = 5
    #: First retry delay in Δ units; later retries back off geometrically.
    rejoin_backoff_deltas: float = 3.0
    rejoin_backoff_factor: float = 2.0
    #: Peer acks required to admit a rejoiner (default 2·t_s at build time).
    rejoin_quorum: Optional[int] = None
    #: Whether evaluations run (degraded) while parties are crashed.
    allow_degraded: bool = True
    #: Safety multiple of the nominal time bound before declaring a stall.
    stall_margin: float = 20.0
    #: Completed evaluations kept un-retired (their instances still accept
    #: residual termination chatter); older ones are garbage-collected.
    retire_lag: int = 2


@dataclass
class EvalResult:
    """One completed evaluation of the stream."""

    eval_id: int
    outputs: List[FieldElement]
    degraded: bool
    parties: Tuple[int, ...]
    sim_time: float

    @property
    def output_values(self) -> List[int]:
        return [int(v) for v in self.outputs]


@dataclass
class RecoveryReport:
    """Accounting of one crash→rejoin recovery."""

    party_id: int
    snapshot_version: int
    attempts: int
    sim_recovery_time: float
    wall_recovery_time: float
    #: Reservoir entries discarded by reconciliation (survivor truncation +
    #: stale snapshot entries) -- the preprocessing work the crash cost.
    triples_discarded: int
    #: Results completed while the party was down, replayed to it on rejoin.
    replayed_results: int


class RejoinProtocol(ProtocolInstance):
    """Crash-rejoin admission handshake with retry and exponential backoff.

    The rejoiner sends ``hello`` to every peer it has not heard from and
    retries with geometric backoff up to ``max_attempts``; peers answer
    every ``hello`` with an idempotent ``welcome``.  The rejoiner outputs
    the sorted acker list once ``quorum`` distinct peers have answered --
    proof that enough of the survivor set acknowledges it as live again.
    The deadline is enforced by the service (the protocol itself just stops
    retrying), mirroring how a deployment's supervisor would.
    """

    def __init__(
        self,
        party: Party,
        tag: str,
        rejoiner: int,
        quorum: int,
        max_attempts: int = 5,
        backoff: Optional[float] = None,
        backoff_factor: float = 2.0,
    ):
        super().__init__(party, tag)
        self.rejoiner = rejoiner
        self.quorum = quorum
        self.max_attempts = max_attempts
        self.backoff = backoff if backoff is not None else 3.0 * party.delta
        self.backoff_factor = backoff_factor
        self.attempts = 0
        self._acks: set = set()

    def start(self) -> None:
        if self.me == self.rejoiner:
            self._attempt()

    def _attempt(self) -> None:
        if self.has_output or self.attempts >= self.max_attempts:
            return
        self.attempts += 1
        for pid in self.party.all_party_ids():
            if pid != self.me and pid not in self._acks:
                self.send(pid, ("hello", self.attempts))
        delay = self.backoff * (self.backoff_factor ** (self.attempts - 1))
        self.schedule_after(delay, self._attempt)

    def receive(self, sender: int, payload: Any) -> None:
        if not isinstance(payload, tuple):
            return
        if payload[0] == "hello" and self.me != self.rejoiner and sender == self.rejoiner:
            self.send(sender, ("welcome",))
        elif payload[0] == "welcome" and self.me == self.rejoiner:
            self._acks.add(sender)
            if len(self._acks) >= self.quorum and not self.has_output:
                self.set_output(sorted(self._acks))


_EVAL_TAG = re.compile(r"^eval\[(\d+)\]")
_PREPROC_TAG = re.compile(r"^svc-preproc\[(\d+)\]")


class MpcService:
    """A persistent MPC deployment evaluating a stream of circuits."""

    def __init__(
        self,
        n: int,
        ts: int,
        ta: int,
        network: Optional[NetworkModel] = None,
        field: Optional[GF] = None,
        seed: int = 0,
        config: Optional[ServiceConfig] = None,
        store: Optional[CheckpointStore] = None,
    ):
        check_parameters(n, ts, ta)
        self.n = n
        self.ts = ts
        self.ta = ta
        self.config = config or ServiceConfig()
        self.backend = SimBackend(n, network=network, field=field, seed=seed)
        self.sim = self.backend.simulator
        self.store = store or CheckpointStore()
        self.reservoir = TripleReservoir(
            range(1, n + 1),
            self.config.low_watermark,
            self.config.high_watermark,
        )
        #: Completed results in stream order (the service's client outbox).
        self.results: List[EvalResult] = []
        self.recoveries: List[RecoveryReport] = []
        self._queue: Deque[Tuple[int, Circuit, Dict[int, Any]]] = deque()
        self._next_submit = 0
        self._eval_seq = 0
        self._preproc_round = 0
        self._rejoin_seq = 0
        self._inflight: Optional[Dict[int, Preprocessing]] = None
        self._inflight_round: int = -1
        self._abandoned_rounds: set = set()
        self._closed = False

    # -- basic state ---------------------------------------------------------
    @property
    def field(self) -> GF:
        return self.sim.field

    @property
    def delta(self) -> float:
        return self.sim.delta

    @property
    def now(self) -> float:
        return self.sim.now

    def live_parties(self) -> List[int]:
        return [pid for pid in range(1, self.n + 1) if pid not in self.sim.crashed]

    @property
    def crashed_parties(self) -> List[int]:
        return sorted(self.sim.crashed)

    @property
    def pending(self) -> int:
        return len(self._queue)

    def close(self) -> None:
        self._closed = True

    # -- submission / stream processing --------------------------------------
    def submit(self, circuit: Circuit, inputs: Dict[int, Any]) -> int:
        """Enqueue an evaluation; returns its stream id.

        Raises :class:`BackpressureError` when the queue is at
        ``max_pending`` -- the client must :meth:`process` before submitting
        more (the degradation contract: the service sheds load explicitly
        instead of buffering without bound while e.g. a rejoin is pending).
        """
        if self._closed:
            raise ServiceClosedError()
        if len(self._queue) >= self.config.max_pending:
            raise BackpressureError(len(self._queue), self.config.max_pending)
        check_party_ids("inputs", inputs, self.n)
        eval_id = self._next_submit
        self._next_submit += 1
        self._queue.append((eval_id, circuit, dict(inputs)))
        return eval_id

    def process(self) -> List[EvalResult]:
        """Run every queued evaluation; returns the newly completed results.

        On failure the unfinished submission stays queued (retryable after
        e.g. a rejoin) and a :class:`PartialResultError` carries the prefix
        completed by *this* call.
        """
        completed: List[EvalResult] = []
        while self._queue:
            eval_id, circuit, inputs = self._queue[0]
            try:
                result = self._run_eval(eval_id, circuit, inputs)
            except Exception as exc:
                raise PartialResultError(completed, eval_id, exc) from exc
            self._queue.popleft()
            completed.append(result)
            if (
                self.config.checkpoint_every
                and not self.sim.crashed
                and self._eval_seq % self.config.checkpoint_every == 0
            ):
                self.checkpoint()
        return completed

    def evaluate(self, circuit: Circuit, inputs: Dict[int, Any]) -> EvalResult:
        """Submit one evaluation and process the queue up to it."""
        self.submit(circuit, inputs)
        return self.process()[-1]

    def results_since(self, eval_seq: int) -> List[EvalResult]:
        return [r for r in self.results if r.eval_id >= eval_seq]

    # -- one evaluation -------------------------------------------------------
    def _run_eval(self, eval_id: int, circuit: Circuit, inputs: Dict[int, Any]) -> EvalResult:
        crashed = set(self.sim.crashed)
        if crashed and not self.config.allow_degraded:
            raise PartyCrashedError(crashed, f"evaluate eval[{eval_id}]")
        if len(crashed) > self.ts:
            raise PartyCrashedError(
                crashed, f"evaluate eval[{eval_id}] (crash tolerance t_s={self.ts} exceeded)"
            )
        live = self.live_parties()
        need = circuit.multiplication_count
        self._ensure_triples(need, live)
        taken = self.reservoir.take(live, need)

        tag = f"eval[{eval_id}]"
        anchor = next_multiple_of_delta(self.sim.now, self.delta)
        instances: Dict[int, CircuitEvaluation] = {}
        for pid in live:
            party = self.sim.parties[pid]
            value = inputs.get(pid, 0)
            my_inputs = list(value) if isinstance(value, (list, tuple)) else [value]
            instances[pid] = CircuitEvaluation(
                party,
                tag,
                circuit=circuit,
                ts=self.ts,
                ta=self.ta,
                my_inputs=my_inputs,
                anchor=anchor,
                delta=self.delta,
                triples=taken[pid],
            )
        for inst in instances.values():
            inst.start()

        def done() -> bool:
            return all(
                instances[pid].has_output
                for pid in instances
                if pid not in self.sim.crashed
            )

        bound = cir_eval_time_bound(
            self.n, self.ts, circuit.multiplicative_depth, self.delta,
            c_m=max(1, need),
        )
        self.sim.run(until=done, max_time=anchor + self.config.stall_margin * bound)
        if not done():
            raise PartyCrashedError(
                self.sim.crashed or set(),
                f"complete eval[{eval_id}] (stalled past {self.config.stall_margin}x "
                "its nominal time bound)",
            )

        survivors = [pid for pid in instances if pid not in self.sim.crashed]
        outputs = {pid: [int(v) for v in instances[pid].output] for pid in survivors}
        distinct = {tuple(vals) for vals in outputs.values()}
        if len(distinct) != 1:
            raise AssertionError(f"eval[{eval_id}] honest outputs disagree: {outputs}")
        first = instances[survivors[0]]
        result = EvalResult(
            eval_id=eval_id,
            outputs=list(first.output),
            degraded=bool(crashed) or len(survivors) < len(instances),
            parties=tuple(survivors),
            sim_time=self.sim.now,
        )
        self.results.append(result)
        self._eval_seq = eval_id + 1
        self._retire(eval_id)
        return result

    # -- reservoir refill -----------------------------------------------------
    def _ensure_triples(self, need: int, live: List[int]) -> None:
        """Make ``need`` triples available at every live party.

        Kicks a background refill round when the level is below the low
        watermark; only blocks (runs the simulator until the round lands)
        when the next evaluation cannot be covered without it.
        """
        self._reap_inflight()
        available = self.reservoir.available(live)
        if self._inflight is None and available < max(need, self.config.low_watermark):
            target = max(need, self.config.high_watermark) - available
            self._spawn_round(target, live)
        guard = 0
        while self.reservoir.available(live) < need:
            if self._inflight is None:
                self._spawn_round(need - self.reservoir.available(live), live)
            self._await_round(need)
            guard += 1
            if guard > 4:  # a round always yields >= its target among the live
                raise ReservoirDrainedError(
                    need, self.reservoir.available(live),
                    reason="refill rounds repeatedly under-delivered",
                )

    def _spawn_round(self, target: int, live: List[int]) -> None:
        if len(self.sim.crashed) > self.ts:
            raise ReservoirDrainedError(
                target, self.reservoir.available(live),
                reason=f"parties {self.crashed_parties} crashed; cannot preprocess",
            )
        round_index = self._preproc_round
        self._preproc_round += 1
        base = self.reservoir.begin_round()
        tag = f"svc-preproc[{round_index}]"
        anchor = next_multiple_of_delta(self.sim.now, self.delta)
        instances: Dict[int, Preprocessing] = {}
        for pid in live:
            instances[pid] = Preprocessing(
                self.sim.parties[pid],
                tag,
                ts=self.ts,
                ta=self.ta,
                num_triples=max(1, target),
                anchor=anchor,
                delta=self.delta,
                shard_size=self.config.shard_size,
                mode=self.config.offline,
            )
            instances[pid].on_output(
                lambda triples, pid=pid, base=base, r=round_index: self._deposit(
                    r, pid, base, triples
                )
            )
        for inst in instances.values():
            inst.start()
        self._inflight = instances
        self._inflight_round = round_index

    def _deposit(self, round_index: int, pid: int, base: int, triples: List) -> None:
        # An abandoned round (see _settle_inflight) must not deposit: its
        # sequence base predates a rejoin reconciliation, so its entries
        # would misalign the reservoir heads.
        if round_index in self._abandoned_rounds:
            return
        self.reservoir.deposit(pid, base, triples)

    def _inflight_done(self) -> bool:
        assert self._inflight is not None
        return all(
            inst.has_output
            for pid, inst in self._inflight.items()
            if pid not in self.sim.crashed
        )

    def _reap_inflight(self) -> None:
        if self._inflight is not None and self._inflight_done():
            self._inflight = None

    def _settle_inflight(self) -> None:
        """Run an in-flight refill round to completion, or abandon it.

        A round that cannot complete (too many parties down) is marked
        abandoned so that a later, post-reconciliation output can never
        deposit with its stale sequence base.
        """
        if self._inflight is None:
            return
        target = max(inst.num_triples for inst in self._inflight.values())
        bound = preprocessing_time_bound(
            self.n, self.ts, self.delta, shard_size=self.config.shard_size,
            c_m=target, offline=self.config.offline,
        )
        self.sim.run(
            until=self._inflight_done,
            max_time=self.sim.now + self.config.stall_margin * bound,
        )
        if not self._inflight_done():
            self._abandoned_rounds.add(self._inflight_round)
        self._inflight = None

    def _await_round(self, need: int) -> None:
        assert self._inflight is not None
        target = max(inst.num_triples for inst in self._inflight.values())
        bound = preprocessing_time_bound(
            self.n, self.ts, self.delta, shard_size=self.config.shard_size,
            c_m=target, offline=self.config.offline,
        )
        self.sim.run(
            until=self._inflight_done,
            max_time=self.sim.now + self.config.stall_margin * bound,
        )
        if not self._inflight_done():
            raise ReservoirDrainedError(
                need, self.reservoir.available(self.live_parties()),
                reason="preprocessing round stalled",
            )
        self._inflight = None

    # -- instance retirement (keeps 1000-eval streams bounded) ---------------
    def _retire(self, completed_eval_id: int) -> None:
        """Purge protocol instances and buffers of long-finished work.

        Instances of evaluation ``k`` (and refill rounds that completed
        before it) still exchange residual termination chatter for a short
        while after the output, so retirement lags ``retire_lag``
        evaluations behind; without this a 1000-evaluation stream would hold
        every instance tree it ever ran.
        """
        eval_cut = completed_eval_id - self.config.retire_lag
        preproc_cut = (self._preproc_round - 1) if self._inflight is None else (
            self._preproc_round - 2
        )

        def stale(tag: str) -> bool:
            m = _EVAL_TAG.match(tag)
            if m:
                return int(m.group(1)) <= eval_cut
            m = _PREPROC_TAG.match(tag)
            if m:
                return int(m.group(1)) < preproc_cut
            return False

        for party in self.sim.parties.values():
            party.retire(stale)

    # -- checkpoint / restore -------------------------------------------------
    def checkpoint(self) -> int:
        """Drain to quiescence and save a versioned snapshot; returns its id.

        Requires every party live: a snapshot must contain *every* party's
        durable state, and a crashed party has none to offer (rejoin it
        first).  Draining the queue makes the snapshot deterministic -- no
        in-flight message or pending timer is lost, so a restored service
        continues bit-identically to the uninterrupted one.
        """
        if self.sim.crashed:
            raise PartyCrashedError(self.sim.crashed, "checkpoint")
        self.sim.run()  # drain to quiescence (finite: no perpetual timers)
        self._reap_inflight()
        parties: Dict[int, PartySnapshot] = {}
        for pid in range(1, self.n + 1):
            first_seq, triples = self.reservoir.snapshot_party(pid)
            parties[pid] = PartySnapshot(
                party_id=pid,
                rng_state=self.sim.parties[pid].rng.getstate(),
                reservoir_first_seq=first_seq,
                reservoir_triples=triples,
            )
        snapshot = ServiceSnapshot(
            n=self.n,
            ts=self.ts,
            ta=self.ta,
            field_modulus=self.field.modulus,
            now=self.sim.now,
            eval_seq=self._eval_seq,
            preproc_round=self._preproc_round,
            consumed=self.reservoir.consumed,
            produced=self.reservoir.produced,
            backend_rng_state=self.sim.rng.getstate(),
            results=[(r.eval_id, r.output_values) for r in self.results],
            parties=parties,
        )
        return self.store.save(snapshot)

    @classmethod
    def restore(
        cls,
        store: CheckpointStore,
        version: Optional[int] = None,
        network: Optional[NetworkModel] = None,
        config: Optional[ServiceConfig] = None,
    ) -> "MpcService":
        """Rebuild a service from a snapshot; continues bit-identically.

        The simulator's synchronous dispatch draws no backend randomness and
        the snapshot was taken at quiescence, so restoring the clock, the
        backend rng and every party rng reproduces the exact event sequence
        the uninterrupted service would have run.
        """
        snapshot = store.load(version)
        service = cls(
            snapshot.n,
            snapshot.ts,
            snapshot.ta,
            network=network,
            field=GF(snapshot.field_modulus, check_prime=False),
            config=config,
            store=store,
        )
        service.sim.rng.setstate(snapshot.backend_rng_state)
        service.sim.now = snapshot.now
        service._eval_seq = snapshot.eval_seq
        service._next_submit = snapshot.eval_seq
        service._preproc_round = snapshot.preproc_round
        service.reservoir.consumed = snapshot.consumed
        service.reservoir.produced = snapshot.produced
        for pid, party_snap in snapshot.parties.items():
            service.sim.parties[pid].rng.setstate(party_snap.rng_state)
            service.reservoir.restore_party(
                pid, party_snap.reservoir_first_seq, party_snap.reservoir_triples
            )
        field = service.field
        service.results = [
            EvalResult(
                eval_id=eval_id,
                outputs=[FieldElement(v, field) for v in residues],
                degraded=False,
                parties=tuple(range(1, snapshot.n + 1)),
                sim_time=snapshot.now,
            )
            for eval_id, residues in snapshot.results
        ]
        return service

    # -- crash / rejoin -------------------------------------------------------
    def crash_party(self, party_id: int, at_time: Optional[float] = None) -> None:
        """Crash-stop a party now or at a simulated time (mid-protocol).

        The party's in-memory state -- including its reservoir shares --
        dies with it; recovery goes through :meth:`rejoin_party`.
        """
        if not 1 <= party_id <= self.n:
            raise ValueError(f"no party {party_id} (parties are numbered 1..{self.n})")

        def _crash() -> None:
            self.sim.crash_party(party_id)
            self.reservoir.clear_party(party_id)

        if at_time is None:
            _crash()
        else:
            self.sim.schedule_timer(max(at_time, self.sim.now), _crash)

    def rejoin_party(self, party_id: int, version: Optional[int] = None) -> RecoveryReport:
        """Bring a crashed party back from the latest (or given) snapshot.

        Revives the party, restores its rng from the snapshot, runs the
        retry/backoff admission handshake against the survivors, reconciles
        the reservoir (survivors drop triples the snapshot never saw; the
        rejoiner drops stale entries), and replays the results the party
        missed.  A handshake that misses its deadline re-crashes the party
        and raises :class:`RejoinTimeoutError` -- the service degrades
        rather than admitting a half-joined member.
        """
        if party_id not in self.sim.crashed:
            raise ValueError(f"party {party_id} is not crashed")
        wall_start = _time.monotonic()
        sim_start = self.sim.now
        # A refill round still in flight keeps completing among the
        # survivors; let it land now (its deposits are then dropped by the
        # truncation below) or abandon it, so no deposit with a pre-crash
        # sequence base arrives *after* reconciliation and misaligns the
        # reservoir heads.
        self._settle_inflight()
        snapshot = self.store.load(version)
        snapshot_version = version if version is not None else self.store.latest_version
        party = self.sim.revive_party(party_id)
        party.rng.setstate(snapshot.parties[party_id].rng_state)

        quorum = self.config.rejoin_quorum
        if quorum is None:
            quorum = max(1, 2 * self.ts)
        handshake_tag = f"svc-rejoin[{self._rejoin_seq}]"
        self._rejoin_seq += 1
        joiner: Optional[RejoinProtocol] = None
        for pid in self.live_parties():
            instance = RejoinProtocol(
                self.sim.parties[pid],
                handshake_tag,
                rejoiner=party_id,
                quorum=quorum,
                max_attempts=self.config.rejoin_max_attempts,
                backoff=self.config.rejoin_backoff_deltas * self.delta,
                backoff_factor=self.config.rejoin_backoff_factor,
            )
            if pid == party_id:
                joiner = instance
        assert joiner is not None
        for pid in self.live_parties():
            self.sim.parties[pid].instances[handshake_tag].start()

        deadline = sim_start + self.config.rejoin_deadline
        self.sim.run(until=lambda: joiner.has_output, max_time=deadline)
        if not joiner.has_output:
            # Re-crash: a party that cannot prove itself live to a quorum
            # stays out (its epoch bump silences the handshake's timers).
            self.sim.crash_party(party_id)
            self.reservoir.clear_party(party_id)
            raise RejoinTimeoutError(
                party_id, joiner.attempts, self.config.rejoin_deadline
            )

        party_snap = snapshot.parties[party_id]
        discarded = self.reservoir.truncate_from(snapshot.produced)
        discarded += self.reservoir.restore_party(
            party_id, party_snap.reservoir_first_seq, party_snap.reservoir_triples
        )
        replayed = self.results_since(snapshot.eval_seq)
        report = RecoveryReport(
            party_id=party_id,
            snapshot_version=snapshot_version or 0,
            attempts=joiner.attempts,
            sim_recovery_time=self.sim.now - sim_start,
            wall_recovery_time=_time.monotonic() - wall_start,
            triples_discarded=discarded,
            replayed_results=len(replayed),
        )
        self.recoveries.append(report)
        return report

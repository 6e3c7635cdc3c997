"""Supervised multi-process MPC service: crash-restart over real TCP.

:class:`~repro.service.service.MpcService` proved checkpoint/restore and
crash-rejoin on the deterministic simulator; this module extends that
service lifecycle to the multi-process TCP backend, where "crash" means an
OS process dying (``SIGKILL``, OOM) and "recovery" means a *supervisor*
respawning it.  Both sides ride the :mod:`~repro.runtime.launcher` pool:

* :class:`TcpMpcService` is the supervisor: a
  :class:`~repro.runtime.launcher.PartyPool` of one service party process
  per party, a stream of circuit evaluations driven over the control
  channel, and a monitor task that detects child death (deliberate
  :meth:`~TcpMpcService.kill_party` or unexpected exit), has the pool's
  launcher fork it again to resume from its snapshot, drives the existing
  :class:`~repro.service.service.RejoinProtocol` over TCP to readmit it,
  replays the results it missed, and re-issues any evaluation the death
  interrupted.  Every recovery is recorded as a
  :class:`~repro.service.service.RecoveryReport`.
* A :class:`ServiceSpec` party process runs a persistent
  :class:`~repro.runtime.launcher.TcpPartyBackend` hosting one party,
  taking eval/go/abandon/record/rejoin commands and checkpointing its
  durable state (rng, results watermark) through
  :class:`~repro.service.checkpoint.CheckpointStore` after every recorded
  result -- the snapshot a resumed restart restores.  An ``eval``
  carries its circuit as rows of the wire codec (:meth:`~repro.circuits.
  circuit.Circuit.rows`).

Correctness of restart-and-retry: evaluation *outputs* are functions of the
circuit and the inputs alone (preprocessing randomness is masking that
cancels), so an attempt interrupted by a process death can be abandoned and
re-run after recovery with a fresh tag -- the recorded output values are
bit-identical to an uninterrupted run's, which the chaos tests assert.

The service has **one epoch**: the supervisor stamps a ``time.monotonic()``
instant into the spec before it spawns anyone, and every child -- a restarted
one too, which joins at the instant the wall clock has reached -- paces its
nominal clock from it (``CLOCK_MONOTONIC`` is system-wide, and the supervisor
spawns every child on its own host).  So the per-evaluation anchor is one
number: the ``go`` command carries the service's nominal now plus
:data:`GO_SLACK`, and every party's round boundaries fall on the same
nominal instants whenever it was started.  A control command enters a
child's nominal time as an event at the instant the wall clock has reached
(:meth:`~repro.runtime.launcher.TcpPartyBackend.inject`).
"""

from __future__ import annotations

import asyncio
import os
import re
import tempfile
import threading
import time as _time
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, List, Optional, Set, Tuple

from repro.circuits.circuit import Circuit
from repro.field.gf import GF, FieldElement, default_field
from repro.mpc.engine import check_parameters, check_party_ids
from repro.mpc.protocol import CircuitEvaluation
from repro.runtime.errors import ScheduleMiss
from repro.runtime.launcher import DEFAULT_TIME_SCALE, PartyPool, PartySession, PartySpec
from repro.service.checkpoint import CheckpointStore, PartySnapshot, ServiceSnapshot
from repro.service.service import EvalResult, RecoveryReport, RejoinProtocol
from repro.sim.network import NetworkModel, SynchronousNetwork
from repro.sim.simulator import SimulationMetrics

_EVAL_TAG = re.compile(r"^eval\[(\d+)\]")

#: Offline pipeline of every evaluation's preprocessing.
OFFLINE = "tripsh"
#: Nominal slack between the supervisor's ``go`` and the anchor it names.
GO_SLACK = 5.0
#: The RejoinProtocol's attempts, first backoff (in Δ) and backoff growth.
REJOIN_MAX_ATTEMPTS = 8
REJOIN_BACKOFF_DELTAS = 3.0
REJOIN_BACKOFF_FACTOR = 2.0
#: Wall-clock bound on the eval-ready connectivity barrier (a party holds
#: its ready until its outbound channels are all live, so an attempt never
#: starts while a crash-restart heal is mid-backoff).
READY_CONNECT_S = 20.0
#: Completed evaluations kept un-retired (instance GC lag).
RETIRE_LAG = 2
#: Wall-clock bounds of the supervisor: start-up, each phase of an attempt,
#: and one recovery; and the attempts one evaluation gets.
STARTUP_TIMEOUT_S = 60.0
EVAL_TIMEOUT_S = 300.0
RECOVERY_TIMEOUT_S = 120.0
MAX_EVAL_ATTEMPTS = 4


@dataclass(kw_only=True)
class ServiceSpec(PartySpec):
    """Everything a *service* party process needs beyond the pool's fields."""

    ts: int
    ta: int
    snapshot_dir: str
    #: ``time.monotonic()`` at the service's nominal 0, for every child.
    clock_epoch: float

    # Channels ride out a peer's restart; heartbeats prune idle replay
    # buffers and feed the failure detector.  The replay buffer (in frames:
    # a channel's share of one instant) absorbs what an in-flight evaluation
    # sends during the outage -- an overflow kills this process, needlessly.
    transport_options: ClassVar[Dict[str, Any]] = {
        "heartbeat_interval": 0.5,
        "max_reconnect_attempts": 240,
        "reconnect_cap": 0.5,
        "send_buffer_frames": 1 << 17,
    }

    def program(self, session: PartySession, resume: bool) -> "_ServiceParty":
        return _ServiceParty(session, self, resume)


# -- child side (one persistent party process) -------------------------------

class _ServiceParty:
    """A :class:`ServiceSpec` party: the service's epoch, driven until the
    stop, with evaluations, rejoins and durable records on command."""

    def __init__(self, session: PartySession, spec: ServiceSpec, resume: bool):
        self.session = session
        self.spec = spec
        self.resume = resume
        backend = session.backend
        self.party = backend.parties[session.party_id]
        self.store = CheckpointStore(
            directory=os.path.join(spec.snapshot_dir, f"party-{session.party_id}")
        )
        #: The client-visible outbox: (eval_id, output residues) in stream order.
        self.results: List[Tuple[int, List[int]]] = []
        self.eval_seq = 0
        self.snapshot_version = 0
        if resume:
            snapshot = self.store.load()  # latest on disk: the predecessor's state
            self.snapshot_version = self.store.latest_version or 0
            self.party.rng.setstate(snapshot.parties[session.party_id].rng_state)
            backend.rng.setstate(snapshot.backend_rng_state)
            self.results = [(eid, list(res)) for eid, res in snapshot.results]
            self.eval_seq = snapshot.eval_seq
        self.pending: Dict[Tuple[int, int], Tuple[Circuit, Dict[int, Any]]] = {}

    def hello(self) -> Dict[str, Any]:
        # The service's epoch, joined where the wall clock has got to; the
        # scheduler drives until told to stop, not until a root outputs.
        backend = self.session.backend
        backend.clock.start(self.spec.clock_epoch)
        backend.now = max(backend.now, backend.clock.elapsed())
        return {
            "resumed": self.resume,
            "snapshot_version": self.snapshot_version,
            "eval_seq": self.eval_seq,
            "now": backend.now,
        }

    async def run(self) -> None:
        await self.session.backend.drive(self.session.stop.is_set)

    def save_snapshot(self) -> int:
        backend, party_id = self.session.backend, self.session.party_id
        return self.store.save(ServiceSnapshot(
            n=self.spec.n,
            ts=self.spec.ts,
            ta=self.spec.ta,
            field_modulus=self.spec.field_modulus,
            now=backend.now,
            eval_seq=self.eval_seq,
            preproc_round=0,
            consumed=0,
            produced=0,
            backend_rng_state=backend.rng.getstate(),
            results=[(eid, list(res)) for eid, res in self.results],
            parties={party_id: PartySnapshot(party_id, self.party.rng.getstate(), 0, [])},
        ))

    def retire(self) -> None:
        cut = self.eval_seq - RETIRE_LAG

        def stale(tag: str) -> bool:
            m = _EVAL_TAG.match(tag)
            return bool(m) and int(m.group(1)) < cut

        self.party.retire(stale)

    def handle(self, msg: Dict[str, Any]) -> None:
        session, backend = self.session, self.session.backend
        party_id, kind = session.party_id, msg["type"]
        if kind == "eval":
            key = (msg["eval_id"], msg["attempt"])
            circuit = Circuit.from_rows(backend.field, msg["gates"], msg["outputs"])
            self.pending[key] = (circuit, msg["inputs"])
            peers = [p for p in range(1, self.spec.n + 1) if p != party_id]
            transport = session.transport

            async def _ready(key=key, peers=peers):
                # Connectivity barrier: hold this party's ready until every
                # outbound channel is live.  After a crash-restart the
                # survivors' channels to the reborn party (and its channels
                # back) can still be mid-backoff; starting the
                # round-sensitive evaluation then can vote the healing
                # party out of the common subset -- a safe but degraded
                # completion that breaks the bit-identical-rerun guarantee.
                for peer in peers:
                    transport.prime_channel(party_id, peer)
                deadline = asyncio.get_running_loop().time() + READY_CONNECT_S
                while not transport.channels_connected(party_id, peers):
                    if asyncio.get_running_loop().time() > deadline:
                        # Report ready regardless: a genuinely dead peer is
                        # the supervisor's eval timeout / monitor's problem,
                        # not a reason to wedge the whole barrier.
                        break
                    await asyncio.sleep(0.02)
                session.report("eval-ready", eval_id=key[0], attempt=key[1])

            asyncio.get_running_loop().create_task(_ready())
        elif kind == "go":
            key = (msg["eval_id"], msg["attempt"])
            circuit, inputs = self.pending.pop(key)
            value = inputs.get(party_id, 0)
            my_inputs = list(value) if isinstance(value, (list, tuple)) else [value]
            instance = CircuitEvaluation(
                self.party,
                f"eval[{key[0]}]a{key[1]}",
                circuit=circuit,
                ts=self.spec.ts,
                ta=self.spec.ta,
                my_inputs=my_inputs,
                anchor=msg["anchor"],
                delta=backend.delta,
                offline=OFFLINE,
            )
            instance.on_output(lambda _out, inst=instance, key=key: session.report(
                "output",
                eval_id=key[0],
                attempt=key[1],
                output=[int(v) for v in inst.output],
                time=inst.output_time,
            ))
            instance.start()
        elif kind == "abandon":
            # The attempt is doomed (a peer's process died); drop our
            # instance so its tag never collides with the retry and its
            # chatter stops being interpreted.
            tag = f"eval[{msg['eval_id']}]a{msg['attempt']}"
            self.pending.pop((msg["eval_id"], msg["attempt"]), None)
            self.party.retire(tag.__eq__)
        elif kind == "record":
            # Durable-commit barrier: append every result we have not seen
            # (the supervisor replays the full outbox, so a rejoiner catches
            # up on what it missed), snapshot, and ack with the version.
            for eid, res in msg["results"]:
                if eid >= self.eval_seq:
                    self.results.append((eid, list(res)))
                    self.eval_seq = eid + 1
            version = self.save_snapshot()
            self.retire()
            session.report("checkpointed", version=version, eval_seq=self.eval_seq)
        elif kind == "rejoin":
            instance = RejoinProtocol(
                self.party,
                msg["tag"],
                rejoiner=msg["rejoiner"],
                quorum=msg["quorum"],
                max_attempts=REJOIN_MAX_ATTEMPTS,
                backoff=REJOIN_BACKOFF_DELTAS * backend.delta,
                backoff_factor=REJOIN_BACKOFF_FACTOR,
            )
            if msg["rejoiner"] == party_id:
                instance.on_output(lambda acks, inst=instance, tag=msg["tag"]: session.report(
                    "rejoined", tag=tag, attempts=inst.attempts, acks=list(acks), now=backend.now,
                ))
            instance.start()


# -- supervisor side ----------------------------------------------------------

class TcpMpcService:
    """Parent-side supervisor of a long-lived multi-process MPC service.

    The public API is synchronous (``start`` / ``evaluate`` / ``kill_party``
    / ``close``) and safe to call from the test or application thread; the
    asyncio machinery (the pool's control server, child monitor, recovery
    driver) runs on a dedicated background event-loop thread.

    ``kill_party`` SIGKILLs a child mid-stream; the monitor treats that
    exactly like any *unexpected* child death (the distinction is recorded,
    not acted on differently -- self-healing is the point): it has the
    party forked again to resume from its snapshot, waits for the restored
    hello, drives the RejoinProtocol handshake over TCP against the
    survivors, replays the results log, and bumps the roster epoch so an
    interrupted evaluation is abandoned and re-issued under a fresh attempt
    tag.
    """

    def __init__(
        self,
        n: int,
        ts: int,
        ta: int,
        network: Optional[NetworkModel] = None,
        field: Optional[GF] = None,
        seed: int = 0,
        snapshot_dir: Optional[str] = None,
        host: str = "127.0.0.1",
        time_scale: float = DEFAULT_TIME_SCALE,
    ):
        check_parameters(n, ts, ta)
        self.n = n
        self.ts = ts
        self.ta = ta
        self.network = network or SynchronousNetwork()
        self.field = field or default_field()
        self.seed = seed
        self.snapshot_dir = snapshot_dir or tempfile.mkdtemp(prefix="repro-svc-")
        self.host = host
        self.time_scale = time_scale

        self.results: List[EvalResult] = []
        self.recoveries: List[RecoveryReport] = []
        self.metrics = SimulationMetrics()
        #: The children's schedule misses, collected at :meth:`close`.
        self.schedule_misses: List[ScheduleMiss] = []

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._pool: Optional[PartyPool] = None
        self._spec: Optional[ServiceSpec] = None
        self._ready: Dict[Tuple[int, int], Set[int]] = {}
        self._outputs: Dict[Tuple[int, int], Dict[int, Dict[str, Any]]] = {}
        self._ckpt_acks: Dict[int, int] = {}
        self._rejoined: Dict[str, Dict[str, Any]] = {}
        #: Parties whose recovery failed (never claimed again).
        self._dead: Dict[int, Optional[int]] = {}
        self._recovering: Dict[int, asyncio.Task] = {}
        self._recovery_failures: List[BaseException] = []
        self._epoch = 0
        self._eval_seq = 0
        self._rejoin_seq = 0
        self._monitor_task: Optional[asyncio.Task] = None
        self._closing = False

    # -- synchronous facade --------------------------------------------------
    def _call(self, coro, timeout: float):
        assert self._loop is not None, "service not started"
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    def start(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        self._thread = threading.Thread(
            target=loop.run_forever, name="tcp-mpc-service", daemon=True
        )
        self._thread.start()
        try:
            self._call(self._start(), STARTUP_TIMEOUT_S + 30.0)
        except BaseException:
            self.close()
            raise

    def evaluate(self, circuit: Circuit, inputs: Dict[int, Any]) -> EvalResult:
        """Evaluate one circuit across the party processes; self-healing.

        Blocks until the result is durably recorded (every live child has
        checkpointed it).  A child death mid-evaluation triggers recovery
        and a re-issued attempt transparently.
        """
        check_party_ids("inputs", inputs, self.n)
        budget = MAX_EVAL_ATTEMPTS * (EVAL_TIMEOUT_S + RECOVERY_TIMEOUT_S)
        return self._call(self._evaluate(circuit, dict(inputs)), budget + 30.0)

    def kill_party(self, party_id: int) -> None:
        """SIGKILL a party's process (the chaos/crash experiment trigger)."""
        self._call(self._kill(party_id), 30.0)

    def wait_recovered(self, timeout: float = 120.0) -> None:
        """Block until no recovery is in flight and every child is alive."""
        self._call(self._settle(timeout), timeout + 10.0)

    def close(self) -> None:
        if self._loop is None:
            return
        try:
            self._call(self._close(), 60.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=10.0)
            self._loop.close()
            self._loop = None
            self._thread = None

    # -- async internals ------------------------------------------------------
    async def _start(self) -> None:
        os.makedirs(self.snapshot_dir, exist_ok=True)
        self._pool = PartyPool(self.n, self.host, self._report)
        self._spec = ServiceSpec(
            n=self.n,
            seed=self.seed,
            field_modulus=self.field.modulus,
            network=self.network,
            time_scale=self.time_scale,
            ts=self.ts,
            ta=self.ta,
            snapshot_dir=self.snapshot_dir,
            clock_epoch=_time.monotonic(),
        )
        # Nothing may die during start-up: the monitor is not running yet,
        # so nobody would claim the corpse.
        await self._pool.start(self._spec, STARTUP_TIMEOUT_S)
        self._monitor_task = asyncio.get_running_loop().create_task(self._monitor())

    def _report(self, msg: Dict[str, Any]) -> None:
        kind, pid = msg["type"], msg["party"]
        if kind == "eval-ready":
            self._ready.setdefault((msg["eval_id"], msg["attempt"]), set()).add(pid)
        elif kind == "output":
            self._outputs.setdefault((msg["eval_id"], msg["attempt"]), {})[pid] = msg
        elif kind == "checkpointed":
            self._ckpt_acks[pid] = msg["eval_seq"]
        elif kind == "rejoined":
            self._rejoined[msg["tag"]] = msg

    def _dead_unclaimed(self) -> Dict[int, Optional[int]]:
        """Dead children (:meth:`PartyPool.dead`: a reported failure counts,
        restart-from-snapshot is its remedy too) no recovery has claimed."""
        return {
            pid: returncode
            for pid, returncode in self._pool.dead().items()
            if pid not in self._recovering and pid not in self._dead
        }

    async def _monitor(self) -> None:
        """Detect child death and drive recovery (the supervisor proper)."""
        while not self._closing:
            await asyncio.sleep(0.1)
            for pid, returncode in self._dead_unclaimed().items():
                self._recovering[pid] = asyncio.get_running_loop().create_task(
                    self._recover_guard(pid, returncode)
                )

    async def _recover_guard(self, pid: int, returncode: Optional[int]) -> None:
        try:
            await self._recover(pid)
        except Exception as exc:  # noqa: BLE001 - re-raised by evaluate()
            self._recovery_failures.append(exc)
            self._dead[pid] = returncode
        finally:
            self._recovering.pop(pid, None)
            self._epoch += 1

    async def _recover(self, pid: int) -> RecoveryReport:
        loop = asyncio.get_running_loop()
        pool = self._pool
        wall_start = _time.monotonic()
        deadline = loop.time() + RECOVERY_TIMEOUT_S
        pool.scheduled.discard(pid)  # a kill was the last incarnation's
        pool.spawn(pid, resume=True)
        await pool.wait_hellos([pid], RECOVERY_TIMEOUT_S)
        hello = pool.hellos[pid]

        def until(condition: Callable[[], bool], what: str):
            return pool.wait(condition, deadline - loop.time(), lambda: what, parties=())

        tag = f"svc-rejoin[{self._rejoin_seq}]"
        self._rejoin_seq += 1
        await pool.broadcast({
            "type": "rejoin", "tag": tag, "rejoiner": pid, "quorum": max(1, 2 * self.ts),
        })
        await until(lambda: tag in self._rejoined,
                    f"party {pid} rejoin handshake ({tag}) missed its deadline")
        rejoined = self._rejoined[tag]

        # Replay the outbox it missed and wait for the durable-commit ack.
        await pool.send(pid, {
            "type": "record",
            "results": [[r.eval_id, r.output_values] for r in self.results],
        })
        await until(lambda: self._ckpt_acks.get(pid, -1) >= self._eval_seq,
                    f"party {pid} never acked its catch-up record")

        report = RecoveryReport(
            party_id=pid,
            snapshot_version=hello.get("snapshot_version") or 0,
            attempts=rejoined.get("attempts", 1),
            sim_recovery_time=rejoined.get("now", 0.0) - hello.get("now", 0.0),
            wall_recovery_time=_time.monotonic() - wall_start,
            triples_discarded=0,
            replayed_results=self._eval_seq - hello.get("eval_seq", 0),
        )
        self.recoveries.append(report)
        return report

    def _raise_failures(self) -> None:
        if self._recovery_failures:
            raise self._recovery_failures[0]

    async def _settle(self, timeout: float) -> None:
        """Wait until no recovery is in flight and all children reported in."""

        def settled() -> bool:
            self._raise_failures()
            return (not self._recovering and not self._dead_unclaimed()
                    and len(self._pool.hellos) >= self.n)

        await self._pool.wait(
            settled, timeout, lambda: "service did not settle after recovery", parties=()
        )

    async def _await_attempt(
        self, condition: Callable[[], bool], timeout: float, epoch: int
    ) -> bool:
        """Wait for a per-attempt condition; False = attempt doomed, retry."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while not condition():
            self._raise_failures()
            if self._recovering or self._dead_unclaimed() or self._epoch != epoch:
                return False  # a death interrupted this attempt
            if loop.time() > deadline:
                raise TimeoutError(
                    f"evaluation attempt timed out after {timeout}s with no "
                    "process death to blame"
                )
            await asyncio.sleep(0.02)
        return True

    async def _evaluate(self, circuit: Circuit, inputs: Dict[int, Any]) -> EvalResult:
        pool = self._pool
        eval_id = self._eval_seq
        job = {"gates": circuit.rows(), "outputs": circuit.outputs, "inputs": inputs}
        attempt = 0
        while True:
            attempt += 1
            if attempt > MAX_EVAL_ATTEMPTS:
                raise RuntimeError(
                    f"eval[{eval_id}] failed {MAX_EVAL_ATTEMPTS} attempts "
                    "(a party process kept dying)"
                )
            await self._settle(RECOVERY_TIMEOUT_S * 2)
            epoch = self._epoch
            key = (eval_id, attempt)
            self._ready.setdefault(key, set())
            self._outputs.setdefault(key, {})
            await pool.broadcast({
                "type": "eval", "eval_id": eval_id, "attempt": attempt, **job,
            })
            if not await self._await_attempt(
                lambda: len(self._ready[key]) >= self.n, EVAL_TIMEOUT_S, epoch
            ):
                continue
            # One anchor for every party, GO_SLACK ahead of the instant the
            # service's shared clock has reached.
            spec = self._spec
            now = (_time.monotonic() - spec.clock_epoch) / spec.time_scale
            await pool.broadcast({
                "type": "go", "eval_id": eval_id, "attempt": attempt,
                "anchor": now + GO_SLACK,
            })
            if not await self._await_attempt(
                lambda: len(self._outputs[key]) >= self.n, EVAL_TIMEOUT_S, epoch
            ):
                # The attempt lost a party: tell survivors to drop it, let
                # recovery finish, re-issue under the next attempt tag.
                await pool.broadcast({
                    "type": "abandon", "eval_id": eval_id, "attempt": attempt,
                })
                continue
            reports = self._outputs[key]
            distinct = {tuple(rep["output"]) for rep in reports.values()}
            if len(distinct) != 1:
                raise AssertionError(
                    f"eval[{eval_id}]a{attempt} outputs disagree: "
                    f"{ {pid: rep['output'] for pid, rep in reports.items()} }"
                )
            residues = list(distinct.pop())
            result = EvalResult(
                eval_id=eval_id,
                outputs=[FieldElement(v, self.field) for v in residues],
                degraded=False,
                parties=tuple(sorted(reports)),
                sim_time=max(rep.get("time") or 0.0 for rep in reports.values()),
            )
            self.results.append(result)
            self._eval_seq = eval_id + 1
            # Durable-commit barrier: every child checkpoints the extended
            # outbox before the result is returned to the caller.
            await pool.broadcast({
                "type": "record",
                "results": [[r.eval_id, r.output_values] for r in self.results],
            })
            if not await self._await_attempt(
                lambda: all(
                    self._ckpt_acks.get(pid, -1) >= self._eval_seq
                    for pid in range(1, self.n + 1)
                ),
                EVAL_TIMEOUT_S,
                epoch,
            ):
                # A death during the commit barrier: the result itself is
                # decided; recovery replays it to the restarted party.
                await self._settle(RECOVERY_TIMEOUT_S * 2)
            return result

    async def _kill(self, party_id: int) -> None:
        proc = self._pool.procs.get(party_id)
        if proc is not None and proc.poll() is None:
            self._pool.scheduled.add(party_id)
            proc.kill()
            # Wait for the launcher to reap it so the death is visible (and
            # the monitor can claim it) the moment kill_party returns.
            while proc.poll() is None:
                await asyncio.sleep(0.01)

    async def _close(self) -> None:
        self._closing = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        for task in list(self._recovering.values()):
            task.cancel()
        if self._pool is not None:
            await self._pool.close()
            self.metrics = self._pool.metrics
            self.schedule_misses = self._pool.schedule_misses

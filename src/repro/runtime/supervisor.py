"""Supervised multi-process MPC service: crash-restart over real TCP.

:class:`~repro.service.service.MpcService` proved checkpoint/restore and
crash-rejoin on the deterministic simulator; this module extends that
service lifecycle to the multi-process TCP backend, where "crash" means an
OS process dying (``SIGKILL``, OOM, a chaos plan's :class:`~repro.faults.
plan.ProcessFault`) and "recovery" means a *supervisor* respawning it.

* :class:`TcpMpcService` is the launcher-side supervisor: it spawns one
  ``python -m repro.launch --service`` process per party, drives a stream of
  circuit evaluations over a control channel, and runs a monitor task that
  detects child death (deliberate :meth:`kill_party` or unexpected exit),
  respawns the process with ``--resume``, drives the existing
  :class:`~repro.service.service.RejoinProtocol` over TCP to readmit it,
  replays the results it missed, and re-issues any evaluation the death
  interrupted.  Every recovery is recorded as a
  :class:`~repro.service.service.RecoveryReport`.
* :func:`run_service_party` is the child entry point: a persistent
  :class:`~repro.runtime.launcher.TcpPartyBackend` hosting one party, taking
  eval/rejoin/record commands from the control channel and checkpointing its
  durable state (rng, results watermark) through
  :class:`~repro.service.checkpoint.CheckpointStore` after every recorded
  result -- the snapshot a ``--resume`` restart restores.

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
``go_slack``, and every party's round boundaries fall on the same nominal
instants whenever it was started.  A control command enters a child's
nominal time as an event at the instant the wall clock has reached
(:meth:`~repro.runtime.launcher.TcpPartyBackend.inject`).
"""

from __future__ import annotations

import asyncio
import logging
import os
import pickle
import re
import socket
import subprocess
import sys
import tempfile
import threading
import time as _time
from dataclasses import dataclass, field as _dc_field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.field.gf import GF, FieldElement, default_field
from repro.mpc.engine import check_parameters, check_party_ids
from repro.mpc.protocol import CircuitEvaluation
from repro.runtime.errors import PartyProcessDied
from repro.runtime.launcher import (
    DEFAULT_TIME_SCALE,
    TcpPartyBackend,
    _dial,
    _merge_metrics,
    _metrics_dict,
    reserve_roster,
    spawn_party_process,
)
from repro.runtime.tcp_transport import TcpTransport
from repro.runtime.wire import decode_payload, encode_payload, frame, read_frame
from repro.service.checkpoint import CheckpointStore, PartySnapshot, ServiceSnapshot
from repro.service.service import EvalResult, RecoveryReport, RejoinProtocol
from repro.sim.network import NetworkModel, SynchronousNetwork
from repro.sim.simulator import SimulationMetrics

_log = logging.getLogger("repro.runtime.supervisor")

_EVAL_TAG = re.compile(r"^eval\[(\d+)\]")


@dataclass
class ServiceSpec:
    """Everything a *service* party process needs (pickled by the supervisor)."""

    n: int
    ts: int
    ta: int
    seed: int
    field_modulus: int
    network: Optional[NetworkModel]
    roster: Dict[int, Tuple[str, int]]
    control: Tuple[str, int]
    snapshot_dir: str
    #: ``time.monotonic()`` at the service's nominal 0, for every child.
    clock_epoch: float
    time_scale: float = DEFAULT_TIME_SCALE
    #: Extra :class:`TcpTransport` keyword arguments for every child; a
    #: network :class:`~repro.faults.plan.FaultPlan` goes here as ``faults``
    #: (the child hands it to its party backend).
    transport_opts: Dict[str, Any] = _dc_field(default_factory=dict)
    #: Offline pipeline for per-evaluation preprocessing.
    offline: str = "tripsh"
    #: Nominal slack between the supervisor's ``go`` and the anchor it names.
    go_slack: float = 5.0
    rejoin_max_attempts: int = 8
    rejoin_backoff_deltas: float = 3.0
    rejoin_backoff_factor: float = 2.0
    #: Wall-clock bound on the eval-ready connectivity barrier (a party
    #: holds its ready until its outbound channels are all live, so an
    #: attempt never starts while a crash-restart heal is mid-backoff).
    ready_connect_timeout: float = 20.0
    #: Completed evaluations kept un-retired (instance GC lag).
    retire_lag: int = 2


# -- child side (one persistent party process) -------------------------------

def run_service_party(
    party_id: int,
    spec: ServiceSpec,
    resume: bool = False,
    listener: Optional[socket.socket] = None,
) -> None:
    """Entry point of a service party process (``repro.launch --service``)."""
    if os.environ.get("REPRO_SVC_DEBUG"):
        logging.basicConfig(level=logging.DEBUG)
    asyncio.run(_service_party_main(party_id, spec, resume, listener))


async def _service_party_main(
    party_id: int, spec: ServiceSpec, resume: bool, listener: Optional[socket.socket]
) -> None:
    transport_opts = dict(spec.transport_opts)
    faults = transport_opts.pop("faults", None)
    transport_opts.setdefault("reconnect_seed", spec.seed ^ party_id)
    # Service channels must ride out a peer's restart (interpreter start on
    # a busy host takes seconds), and heartbeats both prune idle replay
    # buffers and feed the failure detector.
    transport_opts.setdefault("heartbeat_interval", 0.5)
    transport_opts.setdefault("max_reconnect_attempts", 240)
    transport_opts.setdefault("reconnect_cap", 0.5)
    # A peer's crash-restart outage lasts seconds while an in-flight
    # evaluation keeps generating frames at full tilt; the replay buffer
    # must absorb that window (an overflow kills this process -- which the
    # supervisor also heals, but needlessly).  The bound counts frames, and
    # a frame is one channel's share of what one instant sent.
    transport_opts.setdefault("send_buffer_frames", 1 << 17)
    transport = TcpTransport(
        roster=dict(spec.roster),
        local_parties=[party_id],
        **transport_opts,
    )
    if listener is not None:
        transport.adopt_listener(party_id, listener)
    backend = TcpPartyBackend(
        spec.n,
        local_party=party_id,
        network=spec.network,
        field=GF(spec.field_modulus, check_prime=False),
        seed=spec.seed,
        time_scale=spec.time_scale,
        transport=transport,
        faults=faults,
    )
    party = backend.parties[party_id]

    store = CheckpointStore(
        directory=os.path.join(spec.snapshot_dir, f"party-{party_id}")
    )
    #: The client-visible outbox: (eval_id, output residues) in stream order.
    results: List[Tuple[int, List[int]]] = []
    eval_seq = 0
    snapshot_version = 0
    if resume:
        snapshot = store.load()  # latest on disk: the predecessor's state
        snapshot_version = store.latest_version or 0
        party.rng.setstate(snapshot.parties[party_id].rng_state)
        backend.rng.setstate(snapshot.backend_rng_state)
        results = [(eid, list(res)) for eid, res in snapshot.results]
        eval_seq = snapshot.eval_seq

    # The service's epoch, joined where the wall clock has got to; the
    # scheduler drives until told to stop, not until a root outputs.
    await backend.open()
    backend.clock.start(spec.clock_epoch)
    backend.now = max(backend.now, backend.clock.elapsed())
    stop = asyncio.Event()
    driver = asyncio.create_task(backend.drive(stop.is_set))

    reader, writer = await _dial(*spec.control, timeout=30.0)
    lock = asyncio.Lock()

    async def send(obj: Dict[str, Any]) -> None:
        async with lock:
            writer.write(frame(encode_payload(obj)))
            await writer.drain()

    def post(obj: Dict[str, Any]) -> None:
        """Fire-and-forget send from a sync protocol callback."""
        asyncio.get_running_loop().create_task(send(obj))

    await send({
        "type": "hello",
        "party": party_id,
        "resumed": resume,
        "snapshot_version": snapshot_version,
        "eval_seq": eval_seq,
        "now": backend.now,
    })

    def save_snapshot() -> int:
        return store.save(ServiceSnapshot(
            n=spec.n,
            ts=spec.ts,
            ta=spec.ta,
            field_modulus=spec.field_modulus,
            now=backend.now,
            eval_seq=eval_seq,
            preproc_round=0,
            consumed=0,
            produced=0,
            backend_rng_state=backend.rng.getstate(),
            results=[(eid, list(res)) for eid, res in results],
            parties={party_id: PartySnapshot(party_id, party.rng.getstate(), 0, [])},
        ))

    def retire() -> None:
        cut = eval_seq - spec.retire_lag

        def stale(tag: str) -> bool:
            m = _EVAL_TAG.match(tag)
            return bool(m) and int(m.group(1)) < cut

        party.retire(stale)

    pending: Dict[Tuple[int, int], Tuple[Any, Dict[int, Any]]] = {}

    def handle_command(msg: Dict[str, Any]) -> None:
        nonlocal eval_seq
        kind = msg.get("type")
        _log.debug("party %d: %s at %.3f", party_id, kind, backend.now)
        if kind == "eval":
            key = (msg["eval_id"], msg["attempt"])
            pending[key] = pickle.loads(msg["job"])
            peers = [p for p in range(1, spec.n + 1) if p != party_id]

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
                deadline = (
                    asyncio.get_running_loop().time()
                    + spec.ready_connect_timeout
                )
                while not transport.channels_connected(party_id, peers):
                    if asyncio.get_running_loop().time() > deadline:
                        # Report ready regardless: a genuinely dead peer is
                        # the supervisor's eval timeout / monitor's problem,
                        # not a reason to wedge the whole barrier.
                        break
                    await asyncio.sleep(0.02)
                await send({"type": "eval-ready", "party": party_id,
                            "eval_id": key[0], "attempt": key[1]})

            asyncio.get_running_loop().create_task(_ready())
        elif kind == "go":
            key = (msg["eval_id"], msg["attempt"])
            circuit, inputs = pending.pop(key)
            value = inputs.get(party_id, 0)
            my_inputs = list(value) if isinstance(value, (list, tuple)) else [value]
            tag = f"eval[{key[0]}]a{key[1]}"
            instance = CircuitEvaluation(
                party,
                tag,
                circuit=circuit,
                ts=spec.ts,
                ta=spec.ta,
                my_inputs=my_inputs,
                anchor=msg["anchor"],
                delta=backend.delta,
                offline=spec.offline,
            )
            def _report(_out, inst=instance, key=key):
                _log.debug("party %d: %s output at %.3f, subset %s", party_id,
                           tag, inst.output_time, inst.common_subset)
                post({
                    "type": "output",
                    "party": party_id,
                    "eval_id": key[0],
                    "attempt": key[1],
                    "output": [int(v) for v in inst.output],
                    "time": inst.output_time,
                })
            instance.on_output(_report)
            instance.start()
        elif kind == "abandon":
            # The attempt is doomed (a peer's process died); drop our
            # instance so its tag never collides with the retry and its
            # chatter stops being interpreted.
            tag = f"eval[{msg['eval_id']}]a{msg['attempt']}"
            pending.pop((msg["eval_id"], msg["attempt"]), None)
            party.retire(tag.__eq__)
        elif kind == "record":
            # Durable-commit barrier: append every result we have not seen
            # (the supervisor replays the full outbox, so a rejoiner catches
            # up on what it missed), snapshot, and ack with the version.
            for eid, res in msg["results"]:
                if eid >= eval_seq:
                    results.append((eid, list(res)))
                    eval_seq = eid + 1
            version = save_snapshot()
            retire()
            post({"type": "checkpointed", "party": party_id,
                  "version": version, "eval_seq": eval_seq})
        elif kind == "rejoin":
            instance = RejoinProtocol(
                party,
                msg["tag"],
                rejoiner=msg["rejoiner"],
                quorum=msg["quorum"],
                max_attempts=spec.rejoin_max_attempts,
                backoff=spec.rejoin_backoff_deltas * backend.delta,
                backoff_factor=spec.rejoin_backoff_factor,
            )
            if msg["rejoiner"] == party_id:
                instance.on_output(lambda acks, inst=instance, tag=msg["tag"]: post({
                    "type": "rejoined",
                    "party": party_id,
                    "tag": tag,
                    "attempts": inst.attempts,
                    "acks": list(acks),
                    "now": backend.now,
                }))
            instance.start()
        elif kind == "stop":
            stop.set()

    failure: List[BaseException] = []

    async def command_loop() -> None:
        """Each command enters nominal time as an event at the wall instant."""
        try:
            while True:
                msg = decode_payload(await read_frame(reader))
                backend.inject(partial(handle_command, msg))
                if msg.get("type") == "stop":
                    return
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # supervisor went away: treat as stop
        except Exception as exc:  # noqa: BLE001 - shipped to the supervisor
            failure.append(exc)
        backend.inject(stop.set)

    cmd_task = asyncio.create_task(command_loop())
    try:
        # Handler and transport failures end the scheduler, raised.
        await driver
    except Exception as exc:  # noqa: BLE001 - shipped to the supervisor
        failure.append(exc)
    cmd_task.cancel()
    await asyncio.gather(cmd_task, return_exceptions=True)
    try:
        await send({
            "type": "done",
            "party": party_id,
            "error": repr(failure[0]) if failure else None,
            "metrics": _metrics_dict(backend.metrics),
        })
    except (ConnectionError, OSError):
        pass
    transport.close()
    writer.close()
    if failure:
        raise failure[0]


# -- supervisor side ----------------------------------------------------------

class TcpMpcService:
    """Launcher-side supervisor of a long-lived multi-process MPC service.

    The public API is synchronous (``start`` / ``evaluate`` / ``kill_party``
    / ``close``) and safe to call from the test or application thread; the
    asyncio machinery (control server, child monitor, recovery driver) runs
    on a dedicated background event-loop thread.

    ``kill_party`` SIGKILLs a child mid-stream; the monitor treats that
    exactly like any *unexpected* child death (the distinction is recorded,
    not acted on differently -- self-healing is the point): it respawns the
    process with ``--resume``, waits for the restored hello, drives the
    RejoinProtocol handshake over TCP against the survivors, replays the
    results log, and bumps the roster epoch so an interrupted evaluation is
    abandoned and re-issued under a fresh attempt tag.
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
        transport_opts: Optional[Dict[str, Any]] = None,
        offline: str = "tripsh",
        python: Optional[str] = None,
        startup_timeout: float = 60.0,
        eval_timeout: float = 300.0,
        recovery_timeout: float = 120.0,
        max_eval_attempts: int = 4,
        rejoin_quorum: Optional[int] = None,
        auto_restart: bool = True,
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
        self.transport_opts = dict(transport_opts or {})
        self.offline = offline
        self.python = python or sys.executable
        self.startup_timeout = startup_timeout
        self.eval_timeout = eval_timeout
        self.recovery_timeout = recovery_timeout
        self.max_eval_attempts = max_eval_attempts
        self.rejoin_quorum = rejoin_quorum
        self.auto_restart = auto_restart

        self.results: List[EvalResult] = []
        self.recoveries: List[RecoveryReport] = []
        self.metrics = SimulationMetrics()
        self.roster: Dict[int, Tuple[str, int]] = {}
        self._listeners: Dict[int, socket.socket] = {}

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._procs: Dict[int, subprocess.Popen] = {}
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._hellos: Dict[int, Dict[str, Any]] = {}
        self._ready: Dict[Tuple[int, int], Set[int]] = {}
        self._outputs: Dict[Tuple[int, int], Dict[int, Dict[str, Any]]] = {}
        self._ckpt_acks: Dict[int, int] = {}
        self._rejoined: Dict[str, Dict[str, Any]] = {}
        self._dones: Dict[int, Dict[str, Any]] = {}
        self._dead: Dict[int, Optional[int]] = {}
        self._killed: Set[int] = set()
        self._recovering: Dict[int, asyncio.Task] = {}
        self._recovery_failures: List[BaseException] = []
        self._epoch = 0
        self._eval_seq = 0
        self._rejoin_seq = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._monitor_task: Optional[asyncio.Task] = None
        self._spec: Optional[ServiceSpec] = None
        self._spec_path: Optional[str] = None
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
            self._call(self._start(), self.startup_timeout + 30.0)
        except BaseException:
            self.close()
            raise

    def evaluate(self, circuit, inputs: Dict[int, Any]) -> EvalResult:
        """Evaluate one circuit across the party processes; self-healing.

        Blocks until the result is durably recorded (every live child has
        checkpointed it).  A child death mid-evaluation triggers recovery
        and a re-issued attempt transparently.
        """
        check_party_ids("inputs", inputs, self.n)
        budget = self.max_eval_attempts * (self.eval_timeout + self.recovery_timeout)
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
        loop = asyncio.get_running_loop()
        os.makedirs(self.snapshot_dir, exist_ok=True)
        # Kept bound for the service's life: a restarted party inherits the
        # same socket, so its port cannot be lost while it is down.
        self.roster, self._listeners = reserve_roster(self.n, self.host)

        async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
            try:
                while True:
                    msg = decode_payload(await read_frame(reader))
                    kind = msg.get("type")
                    pid = msg.get("party")
                    if kind == "hello":
                        self._writers[pid] = writer
                        self._hellos[pid] = msg
                    elif kind == "eval-ready":
                        key = (msg["eval_id"], msg["attempt"])
                        self._ready.setdefault(key, set()).add(pid)
                    elif kind == "output":
                        key = (msg["eval_id"], msg["attempt"])
                        self._outputs.setdefault(key, {})[pid] = msg
                    elif kind == "checkpointed":
                        self._ckpt_acks[pid] = msg["eval_seq"]
                    elif kind == "rejoined":
                        self._rejoined[msg["tag"]] = msg
                    elif kind == "done":
                        self._dones[pid] = msg
            except (asyncio.IncompleteReadError, ConnectionError):
                pass  # child exited; the monitor watches the process
            except asyncio.CancelledError:
                pass

        self._server = await asyncio.start_server(handle, host=self.host, port=0)
        control = self._server.sockets[0].getsockname()[:2]
        self._spec = ServiceSpec(
            n=self.n,
            ts=self.ts,
            ta=self.ta,
            seed=self.seed,
            field_modulus=self.field.modulus,
            network=self.network,
            roster=self.roster,
            control=control,
            snapshot_dir=self.snapshot_dir,
            clock_epoch=_time.monotonic(),
            time_scale=self.time_scale,
            transport_opts=self.transport_opts,
            offline=self.offline,
        )
        fd, self._spec_path = tempfile.mkstemp(prefix="repro-svc-", suffix=".pkl")
        with os.fdopen(fd, "wb") as handle_file:
            pickle.dump(self._spec, handle_file, protocol=pickle.HIGHEST_PROTOCOL)

        for party_id in range(1, self.n + 1):
            self._spawn(party_id, resume=False)
        deadline = loop.time() + self.startup_timeout
        while len(self._hellos) < self.n:
            # Strict: nothing should die during startup (the monitor is not
            # running yet, so nobody would claim the corpse).
            self._check_children(strict=True)
            if loop.time() > deadline:
                missing = sorted(set(range(1, self.n + 1)) - set(self._hellos))
                raise TimeoutError(
                    f"service part(y|ies) {missing} did not report in within "
                    f"{self.startup_timeout}s"
                )
            await asyncio.sleep(0.02)
        self._monitor_task = loop.create_task(self._monitor())

    def _spawn(self, party_id: int, resume: bool) -> None:
        args = ["--service", "--party", str(party_id), "--spec", self._spec_path]
        if resume:
            args.append("--resume")
        self._procs[party_id] = spawn_party_process(
            self.python, args, self._listeners.get(party_id)
        )

    def _dead_unclaimed(self) -> Dict[int, Optional[int]]:
        """Dead children no recovery task has claimed yet (monitor lag).

        A child that exited cleanly after the stop barrier (``done`` with no
        error) is not dead in the recovery sense; one that reported a typed
        failure before exiting is -- restart-from-snapshot is the remedy for
        those too.
        """
        return {
            pid: proc.returncode
            for pid, proc in self._procs.items()
            if proc.poll() is not None
            and pid not in self._recovering
            and pid not in self._dead
            and not (pid in self._dones and not self._dones[pid].get("error"))
        }

    def _check_children(self, strict: bool = False) -> None:
        for pid, done_msg in self._dones.items():
            if done_msg.get("error") and (strict or not self.auto_restart):
                raise RuntimeError(
                    f"service party process {pid} failed: {done_msg['error']}"
                )
        if self._dead:
            # The permanent graveyard: auto_restart off, or recovery failed.
            raise PartyProcessDied(
                dict(self._dead),
                scheduled=sorted(set(self._dead) & self._killed),
            )
        if strict:
            dead = self._dead_unclaimed()
            if dead:
                raise PartyProcessDied(
                    dead, scheduled=sorted(set(dead) & self._killed)
                )

    async def _monitor(self) -> None:
        """Detect child death and drive recovery (the supervisor proper)."""
        while not self._closing:
            await asyncio.sleep(0.1)
            for pid, returncode in self._dead_unclaimed().items():
                if self.auto_restart:
                    self._recovering[pid] = asyncio.get_running_loop().create_task(
                        self._recover_guard(pid, returncode)
                    )
                else:
                    self._dead[pid] = returncode

    async def _recover_guard(self, pid: int, returncode: Optional[int]) -> None:
        try:
            await self._recover(pid, returncode)
        except Exception as exc:  # noqa: BLE001 - re-raised by evaluate()
            self._recovery_failures.append(exc)
            self._dead[pid] = returncode
        finally:
            self._recovering.pop(pid, None)
            self._epoch += 1

    async def _recover(self, pid: int, returncode: Optional[int]) -> RecoveryReport:
        loop = asyncio.get_running_loop()
        wall_start = _time.monotonic()
        deliberate = pid in self._killed
        self._killed.discard(pid)
        self._hellos.pop(pid, None)
        self._writers.pop(pid, None)
        self._dones.pop(pid, None)  # the dead incarnation's final report
        self._spawn(pid, resume=True)
        deadline = loop.time() + self.recovery_timeout
        while pid not in self._hellos:
            proc = self._procs[pid]
            if proc.poll() is not None:
                raise PartyProcessDied(
                    {pid: proc.returncode},
                    scheduled=[pid] if deliberate else (),
                )
            if loop.time() > deadline:
                raise TimeoutError(
                    f"restarted party {pid} did not report in within "
                    f"{self.recovery_timeout}s"
                )
            await asyncio.sleep(0.02)
        hello = self._hellos[pid]

        tag = f"svc-rejoin[{self._rejoin_seq}]"
        self._rejoin_seq += 1
        quorum = self.rejoin_quorum
        if quorum is None:
            quorum = max(1, 2 * self.ts)
        await self._broadcast({
            "type": "rejoin", "tag": tag, "rejoiner": pid, "quorum": quorum,
        })
        while tag not in self._rejoined:
            if loop.time() > deadline:
                raise TimeoutError(
                    f"party {pid} rejoin handshake ({tag}) missed its deadline"
                )
            await asyncio.sleep(0.02)
        rejoined = self._rejoined[tag]

        # Replay the outbox it missed and wait for the durable-commit ack.
        await self._send(pid, {
            "type": "record",
            "results": [[r.eval_id, r.output_values] for r in self.results],
        })
        while self._ckpt_acks.get(pid, -1) < self._eval_seq:
            if loop.time() > deadline:
                raise TimeoutError(f"party {pid} never acked its catch-up record")
            await asyncio.sleep(0.02)

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

    async def _send(self, pid: int, obj: Dict[str, Any]) -> None:
        writer = self._writers.get(pid)
        if writer is None:
            return
        try:
            writer.write(frame(encode_payload(obj)))
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # dead child: the monitor owns the response

    async def _broadcast(self, obj: Dict[str, Any]) -> None:
        for pid in sorted(self._writers):
            await self._send(pid, obj)

    def _raise_failures(self) -> None:
        if self._recovery_failures:
            raise self._recovery_failures[0]
        self._check_children()

    async def _settle(self, timeout: float) -> None:
        """Wait until no recovery is in flight and all children reported in."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            self._raise_failures()
            if (
                not self._recovering
                and not self._dead_unclaimed()
                and len(self._hellos) >= self.n
            ):
                return
            if loop.time() > deadline:
                raise TimeoutError("service did not settle after recovery")
            await asyncio.sleep(0.05)

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

    async def _evaluate(self, circuit, inputs: Dict[int, Any]) -> EvalResult:
        eval_id = self._eval_seq
        job = pickle.dumps((circuit, inputs), protocol=pickle.HIGHEST_PROTOCOL)
        attempt = 0
        while True:
            attempt += 1
            if attempt > self.max_eval_attempts:
                raise RuntimeError(
                    f"eval[{eval_id}] failed {self.max_eval_attempts} attempts "
                    "(a party process kept dying)"
                )
            await self._settle(self.recovery_timeout * 2)
            epoch = self._epoch
            key = (eval_id, attempt)
            self._ready.setdefault(key, set())
            self._outputs.setdefault(key, {})
            await self._broadcast({
                "type": "eval", "eval_id": eval_id, "attempt": attempt, "job": job,
            })
            if not await self._await_attempt(
                lambda: len(self._ready[key]) >= self.n, self.eval_timeout, epoch
            ):
                continue
            # One anchor for every party, go_slack ahead of the instant the
            # service's shared clock has reached.
            spec = self._spec
            now = (_time.monotonic() - spec.clock_epoch) / spec.time_scale
            await self._broadcast({
                "type": "go", "eval_id": eval_id, "attempt": attempt,
                "anchor": now + spec.go_slack,
            })
            if not await self._await_attempt(
                lambda: len(self._outputs[key]) >= self.n, self.eval_timeout, epoch
            ):
                # The attempt lost a party: tell survivors to drop it, let
                # recovery finish, re-issue under the next attempt tag.
                await self._broadcast({
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
            await self._broadcast({
                "type": "record",
                "results": [[r.eval_id, r.output_values] for r in self.results],
            })
            if not await self._await_attempt(
                lambda: all(
                    self._ckpt_acks.get(pid, -1) >= self._eval_seq
                    for pid in range(1, self.n + 1)
                ),
                self.eval_timeout,
                epoch,
            ):
                # A death during the commit barrier: the result itself is
                # decided; recovery replays it to the restarted party.
                await self._settle(self.recovery_timeout * 2)
            return result

    async def _kill(self, party_id: int) -> None:
        proc = self._procs.get(party_id)
        if proc is not None and proc.poll() is None:
            self._killed.add(party_id)
            proc.kill()
            # Wait for the OS to reap it so the death is visible (and the
            # monitor can claim it) the moment kill_party returns.
            while proc.poll() is None:
                await asyncio.sleep(0.01)

    async def _close(self) -> None:
        self._closing = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        for task in list(self._recovering.values()):
            task.cancel()
        await self._broadcast({"type": "stop"})
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 10.0
        while len(self._dones) < len(self._procs) and loop.time() < deadline:
            if all(proc.poll() is not None for proc in self._procs.values()):
                break
            await asyncio.sleep(0.02)
        for writer in self._writers.values():
            writer.close()
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs.values():
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for sock in self._listeners.values():
            sock.close()
        self._listeners = {}
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._spec_path is not None:
            try:
                os.unlink(self._spec_path)
            except OSError:
                pass
        self.metrics = SimulationMetrics()
        for done_msg in self._dones.values():
            _merge_metrics(self.metrics, done_msg["metrics"])

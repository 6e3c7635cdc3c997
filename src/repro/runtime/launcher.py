"""Multi-process runs: one OS process per party over TCP sockets.

The deployment shape of a real MPC run -- n independent processes, each
hosting one party, talking over :class:`~repro.runtime.tcp_transport.
TcpTransport` sockets -- behind one pool:

* :class:`PartyPool` is the parent side every multi-process driver shares:
  it reserves the roster, serves the control channel, writes the spec file,
  spawns one ``python -m repro.launch --party i`` process per party, waits
  for their hellos, tells scheduled from unexpected deaths, and tears the
  processes down, merging what they report when they are done.
* :class:`PartySession` is the child side: it builds the party's transport
  and :class:`TcpPartyBackend`, opens them, dials the control channel, says
  hello, turns each command into an event, and sends one ``done`` report.
  What the process runs in between -- its *program* -- comes from the
  spec's type: a :class:`JobSpec` runs one protocol to its output, a
  :class:`~repro.runtime.supervisor.ServiceSpec` a persistent service party.
* :class:`TcpBackend` is the pool plus one job: the
  :class:`~repro.runtime.api.ExecutionBackend` of ``run_mpc(backend="tcp")``.

A job's go barrier hands every child one epoch, a ``time.monotonic()``
instant :data:`GO_LEAD_S` ahead at which nominal 0 is due:
``CLOCK_MONOTONIC`` is system-wide, so the parties of one host share one
nominal clock.  A hop that arrives after its due instant was served is a
schedule miss (:mod:`repro.runtime.asyncio_backend`), merged into
:attr:`TcpBackend.schedule_misses`.

The control channel is a TCP connection per child carrying the same
length-prefixed :mod:`~repro.runtime.wire` frames as the transport itself;
reports and commands cross it as typed payloads (packed field vectors
included), so the parent-side :class:`~repro.runtime.api.RunResult` carries
the same values an in-process backend would have produced.
"""

from __future__ import annotations

import asyncio
import operator
import os
import pickle
import socket
import subprocess
import sys
import tempfile
import time as _time
from dataclasses import astuple, dataclass, field as _dc_field
from typing import Any, Callable, ClassVar, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.field.gf import GF, default_field
from repro.runtime.api import ExecutionBackend, RunResult
from repro.faults.plan import FaultPlan
from repro.runtime.errors import PartyProcessDied, ScheduleMiss
from repro.runtime.asyncio_backend import AsyncioBackend
from repro.runtime.tcp_transport import TcpTransport
from repro.runtime.wire import decode_payload, encode_payload, frame, read_frame
from repro.sim.network import NetworkModel, SynchronousNetwork
from repro.sim.simulator import SimulationMetrics

#: Default real seconds per nominal time unit for multi-process runs --
#: roomier than the in-process default (0.001): a hop misses its instant when
#: the sender's lag plus the socket's latency exceed a Δ of wall time.
DEFAULT_TIME_SCALE = 0.02

#: Wall seconds between the go barrier and the epoch it hands out: the
#: control-channel hop and each child's start-up work fit before nominal 0.
GO_LEAD_S = 0.1

#: Wall seconds between two looks at the children (reports and deaths).
POLL_S = 0.02

#: Wall seconds a child keeps dialling the control channel.
CONTROL_DIAL_S = 30.0

#: Wall seconds the teardown waits for the stopped children's ``done``.
STOP_WAIT_S = 10.0

#: The transport counters every ``done`` report carries and the pool sums.
_COUNTERS = ("frames_sent", "messages_framed", "bundles_decoded", "bundle_memo_hits")


@dataclass(kw_only=True)
class PartySpec:
    """What every party process of a pool is given (pickled to the spec file).

    The pool fills in ``roster`` and ``control``; a subclass adds what its
    program needs and names the program (:meth:`program`).
    """

    n: int
    seed: int
    field_modulus: int
    network: Optional[NetworkModel] = None
    time_scale: float = DEFAULT_TIME_SCALE
    faults: Optional[FaultPlan] = None
    roster: Dict[int, Tuple[str, int]] = _dc_field(default_factory=dict)
    control: Tuple[str, int] = ("", 0)

    #: :class:`TcpTransport` keyword arguments of this program's channels.
    transport_options: ClassVar[Dict[str, Any]] = {}

    def program(self, session: "PartySession", resume: bool) -> Any:
        """What a party process of this spec runs: an object with ``hello()``
        (extra hello fields), ``handle(command)`` and ``async run()``."""
        raise NotImplementedError


@dataclass(kw_only=True)
class JobSpec(PartySpec):
    """One protocol run: the root instance ``factory`` builds at each party.

    All fields must pickle (factories are top-level classes, such as those
    of :mod:`repro.runtime.programs`; a field travels as its modulus).
    """

    factory: Callable[[Any], Any]
    max_time: Optional[float] = None
    corrupt: Dict[int, Any] = _dc_field(default_factory=dict)
    crash_schedule: Dict[int, Optional[float]] = _dc_field(default_factory=dict)

    def program(self, session: "PartySession", resume: bool) -> "_Job":
        return _Job(session, self)


class TcpPartyBackend(AsyncioBackend):
    """An AsyncioBackend hosting only ``local_party`` of the n parties.

    All n :class:`~repro.sim.party.Party` objects are still constructed (in
    party order, so the per-party rng derivation from the backend seed is
    identical to every other backend), but only the local party gets a
    transport endpoint and a protocol instance; its peers live in other
    processes behind the roster.
    """

    def __init__(self, n: int, local_party: int, **kwargs: Any):
        super().__init__(n, **kwargs)
        #: the full party table (rng-derivation order); ``parties`` below is
        #: what the driver loops iterate, restricted to the local one.
        self.all_parties = self.parties
        self.parties = {local_party: self.all_parties[local_party]}

    def set_behavior(self, party_id: int, behavior) -> None:
        self.corrupt_parties.add(party_id)
        self.all_parties[party_id].behavior = behavior

    def inject(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` as an event at the instant the wall clock has
        reached: how what comes in from outside the run (a control command)
        enters nominal time."""
        time = self.clock.elapsed()
        self.schedule_timer(time, callback)
        self._wake(time)


def _metrics_dict(metrics: SimulationMetrics) -> Dict[str, Any]:
    """A party process's counters as a ``done`` report carries them."""
    return {name: dict(value) if isinstance(value, dict) else value
            for name, value in vars(metrics).items()}


def _merge_metrics(total: SimulationMetrics, part: Dict[str, Any]) -> None:
    """Fold one party process's counters into the parent-side aggregate.

    Sends are counted in the sender's process and deliveries in the
    recipient's, so summing across processes counts each exactly once; the
    max-message trackers take the max (per tag prefix and round alike).
    """
    for name, value in part.items():
        merge = max if name.startswith("max_") else operator.add
        mine = getattr(total, name)
        if isinstance(value, dict):
            for key, bits in value.items():
                mine[key] = merge(mine.get(key, 0), bits)
        else:
            setattr(total, name, merge(mine, value))


# -- child side (one party process) -----------------------------------------

def run_party(party_id: int, spec_path: str,
              listener: Optional[socket.socket] = None, resume: bool = False) -> None:
    """Entry point of a party process (``python -m repro.launch --party i``).

    ``listener`` is the party's roster port, already bound by the pool and
    inherited; without one the party binds its roster address itself.
    ``resume`` restarts a service party from its latest snapshot.
    """
    with open(spec_path, "rb") as handle:
        spec = pickle.load(handle)  # written by PartyPool.start (see there)
    asyncio.run(PartySession(party_id, spec, listener).run(resume))


class PartySession:
    """One party process: its transport, its backend and its control channel."""

    def __init__(self, party_id: int, spec: PartySpec, listener: Optional[socket.socket]):
        self.party_id = party_id
        self.spec = spec
        self.transport = TcpTransport(
            roster=dict(spec.roster),
            local_parties=[party_id],
            reconnect_seed=spec.seed ^ party_id,
            **spec.transport_options,
        )
        if listener is not None:
            self.transport.adopt_listener(party_id, listener)
        self.backend = TcpPartyBackend(
            spec.n,
            local_party=party_id,
            network=spec.network,
            field=GF(spec.field_modulus, check_prime=False),
            seed=spec.seed,
            time_scale=spec.time_scale,
            transport=self.transport,
            faults=spec.faults,
        )
        #: Set by the pool's stop command, or by the pool going away.
        self.stop = asyncio.Event()
        self._writer: Optional[asyncio.StreamWriter] = None

    def report(self, kind: str, **fields: Any) -> None:
        """Send the pool one report (written whole; ``run`` drains the last)."""
        body = {"type": kind, "party": self.party_id, **fields}
        self._writer.write(frame(encode_payload(body)))

    async def run(self, resume: bool) -> None:
        program = self.spec.program(self, resume)
        backend, transport = self.backend, self.transport
        # Listening before reporting in: once the go comes, every peer can dial.
        await backend.open()
        reader, self._writer = await _dial(*self.spec.control, timeout=CONTROL_DIAL_S)
        self.report("hello", **program.hello())
        commands = asyncio.create_task(self._commands(reader, program))
        failure: Optional[BaseException] = None
        try:
            # Handler and transport failures end the program, raised.
            await program.run()
        except Exception as exc:  # noqa: BLE001 - shipped to the pool
            failure = exc
        commands.cancel()
        (outcome,) = await asyncio.gather(commands, return_exceptions=True)
        if failure is None and isinstance(outcome, Exception):
            failure = outcome
        self.report(
            "done",
            error=repr(failure) if failure is not None else None,
            metrics=_metrics_dict(backend.metrics),
            schedule_misses=[astuple(miss) for miss in backend.schedule_misses],
            **{key: getattr(transport, key) for key in _COUNTERS},
        )
        try:
            await self._writer.drain()
        except (ConnectionError, OSError):
            pass
        transport.close()
        self._writer.close()
        if failure is not None:
            raise failure

    async def _commands(self, reader: asyncio.StreamReader, program: Any) -> None:
        try:
            while True:
                command = decode_payload(await read_frame(reader))
                self._enter(program, command)
                if command["type"] == "stop":
                    return
        except (asyncio.IncompleteReadError, ConnectionError):
            self._enter(program, {"type": "stop"})  # the pool went away
        except Exception:
            self._enter(program, {"type": "stop"})  # what does not decode fails the party
            raise

    def _enter(self, program: Any, command: Dict[str, Any]) -> None:
        """A command enters nominal time as an event at the instant the wall
        clock has reached; before the clock starts (a job's go names its
        epoch) it is handled at once."""

        def handle() -> None:
            if command["type"] == "stop":
                self.stop.set()
            program.handle(command)

        if self.backend.clock.epoch is None:
            handle()
        else:
            self.backend.inject(handle)


class _Job:
    """A :class:`JobSpec` party: at the go barrier's epoch its root instance
    starts, its output is reported, and it runs until the stop."""

    def __init__(self, session: PartySession, spec: JobSpec):
        self.session = session
        self.spec = spec
        backend = session.backend
        for party_id, behavior in spec.corrupt.items():
            backend.set_behavior(party_id, behavior)
        for crashed, at_time in spec.crash_schedule.items():
            backend.crash_party(crashed, at_time)
        self.go = asyncio.Event()
        self.epoch: Optional[float] = None

    def hello(self) -> Dict[str, Any]:
        return {}

    def handle(self, command: Dict[str, Any]) -> None:
        if not self.go.is_set():  # the go barrier, or a stop before it
            self.epoch = command.get("epoch")
            self.go.set()

    async def run(self) -> None:
        await self.go.wait()
        if self.epoch is not None:
            await self.session.backend._main(
                self._root,
                max_time=self.spec.max_time,
                max_events=None,
                wait_for_all_honest=False,
                extra_predicate=self.session.stop.is_set,
                epoch=self.epoch,
            )

    def _root(self, party: Any) -> Any:
        root = self.spec.factory(party)
        root.on_output(lambda output: self.session.report(
            "output",
            output=output,
            time=root.output_time,
            common_subset=getattr(root, "common_subset", None),
        ))
        return root


async def _dial(host: str, port: int, timeout: float):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        try:
            return await asyncio.open_connection(host, port)
        except OSError:
            if loop.time() > deadline:
                raise
            await asyncio.sleep(0.05)


# -- parent side --------------------------------------------------------------

def reserve_roster(
    n: int, host: str = "127.0.0.1"
) -> Tuple[Dict[int, Tuple[str, int]], Dict[int, socket.socket]]:
    """Bind one ephemeral port per party and keep it: (roster, listeners).

    The sockets are bound exclusively (no ``SO_REUSEADDR``) and not yet
    listening; each party process inherits its own and listens on it, so
    between the roster being published and the party serving it the port
    can be given to nobody else -- not to a sibling's outbound connection,
    not to another process's bind.  The caller closes the sockets.
    """
    roster: Dict[int, Tuple[str, int]] = {}
    listeners: Dict[int, socket.socket] = {}
    for party_id in range(1, n + 1):
        sock = socket.socket()
        sock.bind((host, 0))
        listeners[party_id] = sock
        roster[party_id] = (host, sock.getsockname()[1])
    return roster, listeners


def free_roster(n: int, host: str = "127.0.0.1") -> Dict[int, Tuple[str, int]]:
    """Pick one free localhost port per party and release it again.

    For callers that bind the addresses themselves (a roster passed to
    :class:`TcpBackend` or :class:`TcpTransport`); until they do, the ports
    are anybody's.  The pool uses :func:`reserve_roster` instead.
    """
    sockets = [socket.socket() for _ in range(n)]
    for sock in sockets:  # all bound at once, so the ports are distinct
        sock.bind((host, 0))
    roster = {pid: (host, sock.getsockname()[1]) for pid, sock in enumerate(sockets, 1)}
    for sock in sockets:
        sock.close()
    return roster


def spawn_party_process(
    args: List[str], listener: Optional[socket.socket] = None
) -> subprocess.Popen:
    """Start ``python -m repro.launch *args`` as a party process.

    The child runs the parent's interpreter and imports the same code (and
    unpickles factories defined in test/bench modules), so it gets the
    parent's import path; ``listener`` is inherited under its own
    descriptor number.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    argv = [sys.executable, "-m", "repro.launch", *args]
    pass_fds: Tuple[int, ...] = ()
    if listener is not None:
        argv += ["--listen-fd", str(listener.fileno())]
        pass_fds = (listener.fileno(),)
    return subprocess.Popen(argv, env=env, pass_fds=pass_fds)


class PartyPool:
    """The parent side of n party processes running one spec.

    ``start`` reserves the roster (unless one is given), serves the control
    channel, writes the spec file, spawns every party and waits for their
    hellos; ``send`` / ``broadcast`` carry commands, ``wait`` polls for a
    driver's condition while watching the children, ``spawn`` restarts one,
    and ``close`` tears everything down.  The control server records each
    child's ``hello`` and ``done`` itself and hands every other report to
    ``on_report``.

    **Trust boundary.**  The spec file is the one pickle of a multi-process
    run: the pool creates it with ``tempfile.mkstemp`` (readable by its
    owner only) and passes its path to the children it spawns on its own
    host, which unpickle it (:func:`run_party`) -- parent to child, trusted
    as the parent is.  Nothing read from a socket is unpickled: peers and
    the control channel speak the :mod:`~repro.runtime.wire` codec only.
    """

    def __init__(
        self,
        n: int,
        host: str,
        on_report: Callable[[Dict[str, Any]], None],
        roster: Optional[Dict[int, Tuple[str, int]]] = None,
    ):
        self.n = n
        self.host = host
        self.roster = dict(roster) if roster else None
        self.on_report = on_report
        #: Parties whose death is part of the experiment (a scheduled crash,
        #: a deliberate kill): :meth:`check` does not raise for them alone.
        self.scheduled: Set[int] = set()
        self.procs: Dict[int, subprocess.Popen] = {}
        self.hellos: Dict[int, Dict[str, Any]] = {}
        self.dones: Dict[int, Dict[str, Any]] = {}
        #: Wall seconds from the first spawn to the last hello of ``start``
        #: (interpreter + import cost x n, serialized on few-core hosts).
        self.startup_seconds: Optional[float] = None
        #: What ``close`` merged from the ``done`` reports.
        self.metrics = SimulationMetrics()
        self.counters: Dict[str, int] = dict.fromkeys(_COUNTERS, 0)
        self.schedule_misses: List[ScheduleMiss] = []
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._listeners: Dict[int, socket.socket] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._spec_path: Optional[str] = None

    async def start(self, spec: PartySpec, timeout: float) -> None:
        if self.roster is None:
            # Kept bound until close: a party -- a restarted one too --
            # inherits its socket, so its port cannot be lost while it is down.
            self.roster, self._listeners = reserve_roster(self.n, self.host)
        self._server = await asyncio.start_server(self._serve, host=self.host, port=0)
        spec.roster = self.roster
        spec.control = self._server.sockets[0].getsockname()[:2]
        fd, self._spec_path = tempfile.mkstemp(prefix="repro-spec-", suffix=".pkl")
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(spec, handle, protocol=pickle.HIGHEST_PROTOCOL)
        started = _time.monotonic()
        for party_id in range(1, self.n + 1):
            self.spawn(party_id)
        await self.wait_hellos(range(1, self.n + 1), timeout)
        self.startup_seconds = _time.monotonic() - started

    async def _serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            while True:
                report = decode_payload(await read_frame(reader))
                kind, party_id = report["type"], report["party"]
                if kind == "hello":
                    self._writers[party_id] = writer
                    self.hellos[party_id] = report
                elif kind == "done":
                    self.dones[party_id] = report
                else:
                    self.on_report(report)
        except (asyncio.IncompleteReadError, ConnectionError, asyncio.CancelledError):
            pass  # the child exited (death detection watches it), or teardown

    def spawn(self, party_id: int, resume: bool = False) -> None:
        """Start party ``party_id``'s process (``resume``: a service party
        restored from its latest snapshot), forgetting its last one's hello
        and ``done``."""
        self.hellos.pop(party_id, None)
        self.dones.pop(party_id, None)
        writer = self._writers.pop(party_id, None)
        if writer is not None:  # the last incarnation's control connection
            writer.close()
        args = ["--party", str(party_id), "--spec", self._spec_path]
        if resume:
            args.append("--resume")
        self.procs[party_id] = spawn_party_process(args, self._listeners.get(party_id))

    def dead(self) -> Dict[int, Optional[int]]:
        """The children that exited without a clean ``done``: party -> exit code."""
        return {
            pid: proc.returncode
            for pid, proc in self.procs.items()
            if proc.poll() is not None
            and (pid not in self.dones or self.dones[pid]["error"])
        }

    def check(self, parties: Optional[Iterable[int]] = None) -> None:
        """Raise for a child among ``parties`` (default: every one) that
        reported a failure, or that died and was not scheduled to: a
        deliberately crashed party's process may exit early -- that is the
        experiment -- but any other death is fatal and typed."""
        parties = set(self.procs if parties is None else parties)
        for pid in sorted(parties & set(self.dones)):
            if self.dones[pid]["error"]:
                raise RuntimeError(f"party process {pid} failed: {self.dones[pid]['error']}")
        dead = {pid: code for pid, code in self.dead().items() if pid in parties}
        if set(dead) - self.scheduled:
            raise PartyProcessDied(dead, scheduled=sorted(set(dead) & self.scheduled))

    async def wait(
        self,
        condition: Callable[[], bool],
        timeout: float,
        describe: Callable[[], str],
        parties: Optional[Iterable[int]] = None,
    ) -> None:
        """Poll until ``condition()``, checking ``parties`` (default: every
        child) each time; ``TimeoutError(describe())`` after ``timeout`` s."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while not condition():
            self.check(parties)
            if loop.time() > deadline:
                raise TimeoutError(describe())
            await asyncio.sleep(POLL_S)

    async def wait_hellos(self, parties: Sequence[int], timeout: float) -> None:
        missing = lambda: [pid for pid in parties if pid not in self.hellos]  # noqa: E731
        await self.wait(
            lambda: not missing(),
            timeout,
            lambda: f"party process(es) {missing()} did not report in within {timeout}s",
            parties,
        )

    async def send(self, party_id: int, command: Dict[str, Any]) -> None:
        writer = self._writers.get(party_id)
        if writer is None:
            return
        try:
            writer.write(frame(encode_payload(command)))
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # a dead child: death detection owns the response

    async def broadcast(self, command: Dict[str, Any]) -> None:
        for party_id in sorted(self._writers):
            await self.send(party_id, command)

    async def close(self) -> None:
        """Stop the children, then terminate, then kill what is left; close
        the listeners, the server and the spec file; merge the ``done``
        reports into :attr:`metrics`, :attr:`counters` and
        :attr:`schedule_misses`."""
        stopped = sorted(self._writers)
        await self.broadcast({"type": "stop"})
        loop = asyncio.get_running_loop()
        deadline = loop.time() + STOP_WAIT_S
        while loop.time() < deadline and any(
            pid not in self.dones and self.procs[pid].poll() is None for pid in stopped
        ):
            await asyncio.sleep(POLL_S)
        for writer in self._writers.values():
            writer.close()
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs.values():
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for sock in self._listeners.values():
            sock.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._spec_path is not None:
            try:
                os.unlink(self._spec_path)
            except OSError:
                pass
        for done in self.dones.values():
            _merge_metrics(self.metrics, done["metrics"])
            for key in _COUNTERS:
                self.counters[key] += done[key]
            self.schedule_misses += [ScheduleMiss(*miss) for miss in done["schedule_misses"]]


class RemoteInstance:
    """Stand-in for a remote party's root protocol instance.

    Carries exactly the surface :class:`~repro.runtime.api.RunResult` and
    the harnesses read back: output / has_output / output_time plus the
    ``common_subset`` attribute the MPC result inspects.
    """

    def __init__(self, party_id: int, report: Optional[Dict[str, Any]]):
        self.party_id = party_id
        self.output = report.get("output") if report else None
        self.has_output = report is not None
        self.output_time = report.get("time") if report else None
        self.common_subset = report.get("common_subset") if report else None

    def __repr__(self) -> str:
        return f"RemoteInstance(party={self.party_id}, has_output={self.has_output})"


class TcpBackend(ExecutionBackend):
    """Execution backend that runs every party in its own OS process.

    ``run`` starts a :class:`PartyPool` of ``n`` party processes, hands them
    the go barrier's epoch, waits until every expected party has reported
    its root output, stops them, and aggregates the per-process
    :class:`SimulationMetrics` into one parent-side view.  Without a
    ``roster`` the parties get reserved localhost ports; pass one (and run
    the launch CLI per host) for genuinely distributed deployments.
    """

    def __init__(
        self,
        n: int,
        network: Optional[NetworkModel] = None,
        field: Optional[GF] = None,
        seed: int = 0,
        corrupt: Optional[Dict[int, Any]] = None,
        roster: Optional[Dict[int, Tuple[str, int]]] = None,
        host: str = "127.0.0.1",
        time_scale: float = DEFAULT_TIME_SCALE,
        faults: Optional[FaultPlan] = None,
        startup_timeout: float = 30.0,
        run_timeout: float = 600.0,
    ):
        self.n = n
        self.network = network or SynchronousNetwork()
        self.field = field or default_field()
        self.seed = seed
        self.corrupt_spec: Dict[int, Any] = dict(corrupt or {})
        self.corrupt_parties = set(self.corrupt_spec)
        self.metrics = SimulationMetrics()
        self.roster = dict(roster) if roster else None
        self.host = host
        self.time_scale = time_scale
        self.faults = faults
        self.startup_timeout = startup_timeout
        self.run_timeout = run_timeout
        self.crash_schedule: Dict[int, Optional[float]] = {}
        #: Wall seconds from first spawn to the last hello of the latest run;
        #: benchmarks report it separately from the steady-state run time.
        self.startup_seconds: Optional[float] = None
        #: Data frames the party processes of the latest run put a wire seq
        #: on, and the logical messages those frames carried.
        self.frames_sent = 0
        self.messages_framed = 0
        #: Bundle values the party processes of the latest run decoded, and
        #: those their decode memos served unparsed.
        self.bundles_decoded = 0
        self.bundle_memo_hits = 0
        #: Every party process's schedule misses in the latest run.
        self.schedule_misses: List[ScheduleMiss] = []
        #: No in-process parties -- they live in the child processes.
        self.parties: Dict[int, Any] = {}

    def set_behavior(self, party_id: int, behavior) -> None:
        """Attach a (picklable) Byzantine behaviour, shipped via the spec."""
        self.corrupt_spec[party_id] = behavior
        self.corrupt_parties.add(party_id)

    def crash_party(self, party_id: int, at_time: Optional[float] = None) -> None:
        """Crash-stop a party (at a simulated time); applied in every process."""
        self.crash_schedule[party_id] = at_time
        self.corrupt_parties.add(party_id)

    def run(
        self,
        factory: Callable[[Any], Any],
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
        wait_for_all_honest: bool = True,
        extra_predicate: Optional[Callable[[], bool]] = None,
    ) -> RunResult:
        if max_events is not None:
            raise ValueError(
                "max_events is per-process state and is not supported by the "
                "multi-process tcp backend (use max_time)"
            )
        if extra_predicate is not None:
            raise ValueError(
                "extra_predicate closes over launcher-process state the party "
                "processes cannot evaluate; not supported by the tcp backend"
            )
        if not wait_for_all_honest:
            raise ValueError(
                "the tcp backend's stop barrier is all-honest-outputs; "
                "wait_for_all_honest=False is not supported"
            )
        return RunResult(self, asyncio.run(self._launch(factory, max_time)))

    async def _launch(self, factory, max_time) -> Dict[int, Any]:
        expected = [pid for pid in range(1, self.n + 1)
                    if pid not in self.corrupt_parties]
        outputs: Dict[int, Dict[str, Any]] = {}
        missing = lambda: sorted(set(expected) - set(outputs))  # noqa: E731
        pool = PartyPool(
            self.n, self.host,
            on_report=lambda report: outputs.__setitem__(report["party"], report),
            roster=self.roster,
        )
        pool.scheduled = set(self.crash_schedule)
        spec = JobSpec(
            n=self.n,
            seed=self.seed,
            field_modulus=self.field.modulus,
            network=self.network,
            time_scale=self.time_scale,
            faults=self.faults,
            factory=factory,
            max_time=max_time,
            corrupt=self.corrupt_spec,
            crash_schedule=self.crash_schedule,
        )
        try:
            await pool.start(spec, self.startup_timeout)
            self.startup_seconds = pool.startup_seconds
            # The go barrier: one epoch on the host's monotonic clock.
            await pool.broadcast({"type": "go", "epoch": _time.monotonic() + GO_LEAD_S})
            await pool.wait(
                lambda: not missing(),
                self.run_timeout,
                lambda: f"timed out after {self.run_timeout}s waiting for "
                        f"outputs from parties {missing()}",
            )
        finally:
            # The stop barrier: every expected output is in (or the run
            # failed); children drain, report their metrics, and exit.
            await pool.close()
        self.metrics = pool.metrics
        self.schedule_misses = pool.schedule_misses
        for key, value in pool.counters.items():
            setattr(self, key, value)
        return {
            pid: RemoteInstance(pid, outputs.get(pid))
            for pid in range(1, self.n + 1)
        }

"""Multi-process run harness: one OS process per party over TCP sockets.

The deployment shape of a real MPC run -- n independent processes, each
hosting one party, talking over :class:`~repro.runtime.tcp_transport.
TcpTransport` sockets -- driven from a single call site:

* :class:`TcpBackend` is the :class:`~repro.runtime.api.ExecutionBackend`
  the harnesses see (``run_mpc(backend="tcp", ...)``, ``make_backend("tcp",
  ...)``).  Its ``run`` picks a localhost roster (or takes one for genuinely
  distributed hosts), pickles a :class:`JobSpec`, spawns one ``python -m
  repro.launch --party i`` process per party, and collects outputs and
  metrics over a control channel.
* :func:`run_party` is the child entry point: it rebuilds the execution
  environment from the spec (field, network, factory, fault plan, crash
  schedule), opens its listener, reports in, and on the launcher's **go
  barrier** runs a real-clock :class:`TcpPartyBackend` hosting just its own
  party; it reports the root instance's output to the launcher and exits on
  the launcher's stop barrier.

The go barrier hands every child one epoch, a ``time.monotonic()`` instant
:data:`GO_LEAD_S` ahead at which nominal 0 is due: ``CLOCK_MONOTONIC`` is
system-wide, so the parties of one host share one nominal clock.  A hop that
arrives after its due instant was served is a schedule miss
(:mod:`repro.runtime.asyncio_backend`), merged into
:attr:`TcpBackend.schedule_misses`.

The control channel is a TCP connection per child using the same
length-prefixed :mod:`~repro.runtime.wire` frames as the transport itself;
outputs cross it as typed payloads (packed field vectors included), so the
launcher-side :class:`~repro.runtime.api.RunResult` carries the same values
an in-process backend would have produced.

Everything in the spec must pickle, which is why the standard protocol
factories live as top-level classes in :mod:`repro.runtime.programs` and
:class:`~repro.mpc.engine.CircuitEvaluationFactory` (closures cannot cross
the process boundary).
"""

from __future__ import annotations

import asyncio
import os
import pickle
import socket
import subprocess
import sys
import tempfile
import time as _time
from dataclasses import astuple, dataclass, field as _dc_field
from typing import Any, Callable, Dict, List, Optional, Tuple

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


@dataclass
class JobSpec:
    """Everything a party process needs to run its share of the job.

    Pickled once by the launcher and loaded by every child; all fields must
    survive pickling (factories are top-level classes, fields travel as
    their modulus).
    """

    n: int
    seed: int
    field_modulus: int
    network: Optional[NetworkModel]
    factory: Callable[[Any], Any]
    roster: Dict[int, Tuple[str, int]]
    control: Tuple[str, int]
    time_scale: float = DEFAULT_TIME_SCALE
    max_time: Optional[float] = None
    corrupt: Dict[int, Any] = _dc_field(default_factory=dict)
    crash_schedule: Dict[int, Optional[float]] = _dc_field(default_factory=dict)
    faults: Optional[FaultPlan] = None
    #: Extra :class:`TcpTransport` keyword arguments (heartbeat interval,
    #: send buffer depth, reconnect budget, ...) applied in every child.
    transport_opts: Dict[str, Any] = _dc_field(default_factory=dict)


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
        self.local_party = local_party
        #: the full party table (rng-derivation order); ``parties`` below is
        #: what the driver loops iterate, restricted to the local one.
        self.all_parties = self.parties
        self.parties = {local_party: self.all_parties[local_party]}

    def set_behavior(self, party_id: int, behavior) -> None:
        self.corrupt_parties.add(party_id)
        parties = getattr(self, "all_parties", None) or self.parties
        parties[party_id].behavior = behavior

    def inject(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` as an event at the instant the wall clock has
        reached: how what comes in from outside the run (a control command)
        enters nominal time."""
        time = self.clock.elapsed()
        self.schedule_timer(time, callback)
        self._wake(time)


def _metrics_dict(metrics: SimulationMetrics) -> Dict[str, Any]:
    return {
        "messages_sent": metrics.messages_sent,
        "messages_delivered": metrics.messages_delivered,
        "honest_bits": metrics.honest_bits,
        "total_bits": metrics.total_bits,
        "bits_by_tag_prefix": dict(metrics.bits_by_tag_prefix),
        "bits_by_round": dict(metrics.bits_by_round),
        "max_message_bits": metrics.max_message_bits,
        "max_message_bits_by_tag_prefix": dict(metrics.max_message_bits_by_tag_prefix),
        "max_message_bits_by_round": dict(metrics.max_message_bits_by_round),
    }


def _merge_metrics(total: SimulationMetrics, part: Dict[str, Any]) -> None:
    """Fold one party process's counters into the launcher-side aggregate.

    Sends are counted in the sender's process and deliveries in the
    recipient's, so summing across processes counts each exactly once; the
    max-message trackers take the max.
    """
    total.messages_sent += part["messages_sent"]
    total.messages_delivered += part["messages_delivered"]
    total.honest_bits += part["honest_bits"]
    total.total_bits += part["total_bits"]
    for key, bits in part["bits_by_tag_prefix"].items():
        total.bits_by_tag_prefix[key] = total.bits_by_tag_prefix.get(key, 0) + bits
    for key, bits in part["bits_by_round"].items():
        total.bits_by_round[key] = total.bits_by_round.get(key, 0) + bits
    total.max_message_bits = max(total.max_message_bits, part["max_message_bits"])
    for key, bits in part["max_message_bits_by_tag_prefix"].items():
        if bits > total.max_message_bits_by_tag_prefix.get(key, 0):
            total.max_message_bits_by_tag_prefix[key] = bits
    for key, bits in part["max_message_bits_by_round"].items():
        if bits > total.max_message_bits_by_round.get(key, 0):
            total.max_message_bits_by_round[key] = bits


# -- child side (one party process) -----------------------------------------

def run_party(
    party_id: int, spec: JobSpec, listener: Optional[socket.socket] = None
) -> None:
    """Entry point of a party process (``python -m repro.launch --party i``).

    ``listener`` is the party's roster port, already bound by the launcher
    and inherited; without one the party binds its roster address itself.
    """
    asyncio.run(_party_main(party_id, spec, listener))


async def _party_main(
    party_id: int, spec: JobSpec, listener: Optional[socket.socket]
) -> None:
    transport_opts = dict(spec.transport_opts)
    transport_opts.setdefault("reconnect_seed", spec.seed ^ party_id)
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
        corrupt=spec.corrupt,
        time_scale=spec.time_scale,
        transport=transport,
        faults=spec.faults,
    )
    for crashed, at_time in spec.crash_schedule.items():
        backend.crash_party(crashed, at_time)
    # Listening before reporting in: once the go comes, every peer can dial.
    await backend.open()

    reader, writer = await _dial(*spec.control, timeout=15.0)

    async def send(obj: Dict[str, Any]) -> None:
        writer.write(frame(encode_payload(obj)))
        await writer.drain()

    async def command() -> Dict[str, Any]:
        try:
            return decode_payload(await read_frame(reader))
        except (asyncio.IncompleteReadError, ConnectionError):
            return {"type": "stop"}  # launcher went away: treat as stop

    await send({"type": "hello", "party": party_id})
    go = await command()  # the go barrier: every party process gets one epoch
    stop = asyncio.Event()

    async def control_reader() -> None:
        while (await command()).get("type") != "stop":
            pass
        backend.inject(stop.set)

    def reporting(party: Any) -> Any:
        root = spec.factory(party)
        # Written whole from the handler; the "done" report drains it.
        root.on_output(lambda output: writer.write(frame(encode_payload({
            "type": "output",
            "party": party_id,
            "output": output,
            "time": root.output_time,
            "common_subset": getattr(root, "common_subset", None),
        }))))
        return root

    ctrl_task = asyncio.create_task(control_reader())
    failure: Optional[BaseException] = None
    try:
        await backend._main(
            reporting,
            max_time=spec.max_time,
            max_events=None,
            wait_for_all_honest=False,
            extra_predicate=stop.is_set,
            epoch=go.get("epoch"),
        )
    except Exception as exc:  # noqa: BLE001 - shipped to the launcher
        failure = exc
    await send({
        "type": "done",
        "party": party_id,
        "error": repr(failure) if failure is not None else None,
        "metrics": _metrics_dict(backend.metrics),
        "frames_sent": transport.frames_sent,
        "messages_framed": transport.messages_framed,
        "bundles_decoded": transport.bundles_decoded,
        "bundle_memo_hits": transport.bundle_memo_hits,
        "schedule_misses": [astuple(miss) for miss in backend.schedule_misses],
    })
    ctrl_task.cancel()
    await asyncio.gather(ctrl_task, return_exceptions=True)
    writer.close()
    if failure is not None:
        raise failure


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


# -- launcher side -----------------------------------------------------------

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
    are anybody's.  The launchers use :func:`reserve_roster` instead.
    """
    roster, listeners = reserve_roster(n, host)
    for sock in listeners.values():
        sock.close()
    return roster


def spawn_party_process(
    python: str, args: List[str], listener: Optional[socket.socket] = None
) -> subprocess.Popen:
    """Start ``python -m repro.launch *args`` as a party process.

    The child imports the same code as the parent (and unpickles factories
    defined in test/bench modules), so it gets the parent's import path;
    ``listener`` is inherited under its own descriptor number.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    argv = [python, "-m", "repro.launch", *args]
    pass_fds: Tuple[int, ...] = ()
    if listener is not None:
        argv += ["--listen-fd", str(listener.fileno())]
        pass_fds = (listener.fileno(),)
    return subprocess.Popen(argv, env=env, pass_fds=pass_fds)


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

    ``run`` spawns ``n`` child processes (``python -m repro.launch``), waits
    until every expected party has reported its root output over the control
    channel, broadcasts the stop barrier, and aggregates the per-process
    :class:`SimulationMetrics` into one launcher-side view.  Without a
    ``roster`` the parties get ephemeral localhost ports; pass one (and run
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
        python: Optional[str] = None,
        startup_timeout: float = 30.0,
        run_timeout: float = 600.0,
        transport_opts: Optional[Dict[str, Any]] = None,
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
        self.python = python or sys.executable
        self.startup_timeout = startup_timeout
        self.run_timeout = run_timeout
        self.transport_opts: Dict[str, Any] = dict(transport_opts or {})
        self.crash_schedule: Dict[int, Optional[float]] = {}
        #: Wall seconds from first spawn to the last hello of the latest run
        #: (interpreter + import cost x n, serialized on few-core hosts);
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
        instances = asyncio.run(self._launch(factory, max_time))
        return RunResult(self, instances)

    async def _launch(self, factory, max_time) -> Dict[int, Any]:
        loop = asyncio.get_running_loop()
        listeners: Dict[int, socket.socket] = {}
        if self.roster:
            roster = dict(self.roster)
        else:
            roster, listeners = reserve_roster(self.n, self.host)
        expected = [pid for pid in range(1, self.n + 1)
                    if pid not in self.corrupt_parties]
        hellos: set = set()
        outputs: Dict[int, Dict[str, Any]] = {}
        dones: Dict[int, Dict[str, Any]] = {}
        all_reported = asyncio.Event()
        if not expected:
            all_reported.set()
        writers: Dict[int, asyncio.StreamWriter] = {}

        async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
            party_id = None
            try:
                while True:
                    msg = decode_payload(await read_frame(reader))
                    kind = msg.get("type")
                    if kind == "hello":
                        party_id = msg["party"]
                        writers[party_id] = writer
                        hellos.add(party_id)
                    elif kind == "output":
                        outputs[msg["party"]] = msg
                        if all(pid in outputs for pid in expected):
                            all_reported.set()
                    elif kind == "done":
                        dones[msg["party"]] = msg
            except (asyncio.IncompleteReadError, ConnectionError):
                pass  # child exited; liveness is watched via the processes
            except asyncio.CancelledError:
                pass  # loop teardown cancels handlers still draining

        server = await asyncio.start_server(handle, host=self.host, port=0)
        control = server.sockets[0].getsockname()[:2]
        spec = JobSpec(
            n=self.n,
            seed=self.seed,
            field_modulus=self.field.modulus,
            network=self.network,
            factory=factory,
            roster=roster,
            control=control,
            time_scale=self.time_scale,
            max_time=max_time,
            corrupt=self.corrupt_spec,
            crash_schedule=self.crash_schedule,
            faults=self.faults,
            transport_opts=self.transport_opts,
        )
        fd, spec_path = tempfile.mkstemp(prefix="repro-job-", suffix=".pkl")
        with os.fdopen(fd, "wb") as handle_file:
            pickle.dump(spec, handle_file, protocol=pickle.HIGHEST_PROTOCOL)
        procs: Dict[int, subprocess.Popen] = {}
        try:
            spawn_started = loop.time()
            for party_id in range(1, self.n + 1):
                procs[party_id] = spawn_party_process(
                    self.python,
                    ["--party", str(party_id), "--spec", spec_path],
                    listeners.get(party_id),
                )

            def check_children() -> None:
                for pid, done_msg in dones.items():
                    if done_msg.get("error"):
                        raise RuntimeError(
                            f"party process {pid} failed: {done_msg['error']}"
                        )
                dead = {
                    pid: procs[pid].returncode
                    for pid, proc in procs.items()
                    if proc.poll() is not None and pid not in dones
                }
                scheduled = sorted(set(dead) & set(self.crash_schedule))
                # A deliberately-crashed party's process may exit early;
                # that is the experiment, not a failure.  Any *other* death
                # is fatal and typed, so harnesses can tell the two apart.
                if set(dead) - set(scheduled):
                    raise PartyProcessDied(dead, scheduled=scheduled)

            deadline = loop.time() + self.startup_timeout
            while len(hellos) < self.n:
                check_children()
                if loop.time() > deadline:
                    missing = sorted(set(range(1, self.n + 1)) - hellos)
                    raise TimeoutError(
                        f"party process(es) {missing} did not report in within "
                        f"{self.startup_timeout}s"
                    )
                await asyncio.sleep(0.02)
            self.startup_seconds = loop.time() - spawn_started
            # The go barrier: one epoch on the host's monotonic clock.
            go = frame(encode_payload({"type": "go", "epoch": _time.monotonic() + GO_LEAD_S}))
            for writer in writers.values():
                writer.write(go)

            deadline = loop.time() + self.run_timeout
            while not all_reported.is_set():
                check_children()
                if loop.time() > deadline:
                    missing = sorted(set(expected) - set(outputs))
                    raise TimeoutError(
                        f"timed out after {self.run_timeout}s waiting for "
                        f"outputs from parties {missing}"
                    )
                await asyncio.sleep(0.02)

            # Stop barrier: every expected output is in; children drain,
            # report their metrics, and exit.
            stop = frame(encode_payload({"type": "stop"}))
            for writer in writers.values():
                writer.write(stop)
            deadline = loop.time() + self.startup_timeout
            while len(dones) < self.n and loop.time() < deadline:
                if all(proc.poll() is not None for proc in procs.values()):
                    break
                await asyncio.sleep(0.02)
        finally:
            for writer in writers.values():
                writer.close()
            for proc in procs.values():
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs.values():
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            for sock in listeners.values():
                sock.close()
            server.close()
            await server.wait_closed()
            try:
                os.unlink(spec_path)
            except OSError:
                pass

        self.metrics = SimulationMetrics()
        self.frames_sent = self.messages_framed = 0
        self.bundles_decoded = self.bundle_memo_hits = 0
        self.schedule_misses = []
        for done_msg in dones.values():
            _merge_metrics(self.metrics, done_msg["metrics"])
            self.frames_sent += done_msg["frames_sent"]
            self.messages_framed += done_msg["messages_framed"]
            self.bundles_decoded += done_msg["bundles_decoded"]
            self.bundle_memo_hits += done_msg["bundle_memo_hits"]
            self.schedule_misses += [
                ScheduleMiss(*fields) for fields in done_msg["schedule_misses"]
            ]
        return {
            pid: RemoteInstance(pid, outputs.get(pid))
            for pid in range(1, self.n + 1)
        }

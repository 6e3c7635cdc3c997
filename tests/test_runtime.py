"""The pluggable execution runtime: backend parity, network faults,
reproducibility, and the protocols-never-touch-the-Simulator contract.

The acceptance bar for the runtime:

* ``SimBackend`` is the historical simulator bit for bit (the scenario
  matrix in ``test_scenario_matrix.py`` runs through it unchanged).
* ``AsyncioBackend`` is that simulator paced by the wall clock: it runs the
  scenario-matrix diagonal (honest + crash, sync + async network) with the
  simulator's honest outputs and transcript fingerprint, because it is the
  same scheduler -- one ``step``, one event ordering, one rng discipline.
* Network faults (crash-stop endpoints, duplicated and reordered
  deliveries) go through the scheduler's one fault gate without protocol
  changes.
* A seeded run replays identically.
* No protocol module imports the Simulator: protocols depend only on the
  :class:`~repro.runtime.api.PartyRuntime` context API.
"""

from __future__ import annotations

import ast
import gc
import pathlib
import re

import pytest

from repro.broadcast.acast import AcastProtocol
from repro.circuits import multiplication_circuit
from repro.faults import FaultPlan, LinkFault
from repro.field import default_field
from repro.mpc import run_mpc
from repro.runtime import AsyncioBackend, SimBackend, make_backend
from repro.runtime.tcp_transport import TcpTransport
from repro.service import MpcService, ServiceConfig
from repro.sim import SynchronousNetwork
from repro.sim.party import ProtocolInstance
from repro.sim.simulator import Simulator
from repro.triples.preprocessing import Preprocessing, auto_shard_size, triples_per_dealer

from test_scenario_matrix import (
    Scenario,
    canonical_outputs,
    digest,
    transcript_fingerprint,
    triples_are_valid,
)

FIELD = default_field()


def run_preprocessing_on(scenario: Scenario, backend, **backend_options):
    """One scenario cell on an arbitrary backend."""
    built = make_backend(
        backend,
        scenario.n,
        network=scenario.build_network(),
        seed=scenario.scenario_seed,
        corrupt=scenario.build_corrupt(),
        **backend_options,
    )
    return built.run(
        lambda party: Preprocessing(
            party,
            "preproc",
            ts=scenario.ts,
            ta=scenario.ta,
            num_triples=scenario.num_triples,
            anchor=0.0,
            shard_size=scenario.shard_size,
        ),
        max_time=5_000_000.0,
    )


#: The acceptance diagonal: honest + crash faults, in a synchronous and an
#: asynchronous network.  The crash+async cell needs the (5, 1, 1) setting
#: so one crash stays within t_a and liveness holds; the honest+async cell
#: runs at n=4 (zero corruptions are within any t_a).
DIAGONAL = [
    Scenario(4, 1, 0, "honest", "sync", None),
    Scenario(4, 1, 0, "crash", "sync", None),
    Scenario(4, 1, 0, "honest", "async", None),
    Scenario(5, 1, 1, "crash", "async", None),
]


@pytest.mark.parametrize(
    "scenario", DIAGONAL, ids=lambda s: f"{s.n}p-{s.adversary}-{s.network}"
)
def test_asyncio_backend_matches_sim_backend_on_diagonal(scenario):
    """Honest outputs (and the whole transcript) equal across backends."""
    sim = run_preprocessing_on(scenario, "sim")
    concurrent = run_preprocessing_on(scenario, "asyncio")
    assert canonical_outputs(concurrent) == canonical_outputs(sim), scenario
    assert transcript_fingerprint(concurrent) == transcript_fingerprint(sim), scenario
    assert len(sim.honest_outputs()) == scenario.n - scenario.corruptions
    assert triples_are_valid(concurrent, scenario.ts)


def test_run_mpc_backend_knob_end_to_end():
    circuit = multiplication_circuit(FIELD, 4)
    inputs = {1: 3, 2: 5, 3: 7, 4: 11}
    expected = circuit.evaluate({pid: FIELD(v) for pid, v in inputs.items()})
    sim = run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=11)
    concurrent = run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=11, backend="asyncio")
    assert sim.outputs == concurrent.outputs == expected
    assert sim.metrics.total_bits == concurrent.metrics.total_bits


def test_asyncio_real_clock_completes_correctly():
    """The real clock paces the simulator's own queue: the run is the
    simulated one, slowed to wall time -- the same outputs, the same
    transcript, the same events, the same nominal output instant -- whatever
    the host's lag (at 0.2 ms per Δ every handler runs late)."""
    circuit = multiplication_circuit(FIELD, 4)
    inputs = {1: 2, 2: 3, 3: 4, 4: 5}
    sim = run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=3)
    result = run_mpc(
        circuit, inputs, n=4, ts=1, ta=0, seed=3,
        backend="asyncio", time_scale=0.0002,
    )
    assert result.completed and result.agreed
    assert result.outputs == sim.outputs == circuit.evaluate(
        {pid: FIELD(v) for pid, v in inputs.items()})
    assert digest(result, result.common_subset) == digest(sim, sim.common_subset)
    assert result.run.simulator.events_processed == sim.run.simulator.events_processed == 7964
    assert max(result.output_times.values()) == pytest.approx(145.052)
    assert result.run.backend.schedule_misses == []


# -- network faults -----------------------------------------------------------


def test_crash_party_mid_protocol():
    """A crash-stop mid-run: the survivors still finish."""
    scenario = Scenario(4, 1, 0, "honest", "sync", None)
    backend = AsyncioBackend(
        4, network=scenario.build_network(), seed=scenario.scenario_seed
    )
    # Crash P_4's endpoint once the protocol is well underway (the ΠTripSh
    # row distribution is long past t=5Δ but the BA banks are not done).
    backend.crash_party(4, at_time=5.0)
    result = backend.run(
        lambda party: Preprocessing(party, "preproc", ts=1, ta=0, num_triples=2, anchor=0.0),
        max_time=5_000_000.0,
    )
    assert 4 in backend.corrupt_parties
    outputs = result.honest_outputs()
    assert set(outputs) == {1, 2, 3}
    assert triples_are_valid(result, 1)


def test_stale_timer_of_a_crashed_incarnation_is_inert_on_both_backends():
    """crash -> revive -> a timer the old incarnation set: it must not fire.

    Every party sets a timer for t=5 that sends to all.  Party 2 crashes at
    t=1 and is revived (blank) at t=2; the discarded incarnation's timer
    would otherwise send under the reborn party's id.
    """
    def run(backend_name):
        backend = make_backend(backend_name, 4, network=SynchronousNetwork(), seed=3)
        fired, delivered = [], []

        class LateSender(ProtocolInstance):
            def start(self):
                self.schedule_at(5.0, self.fire)

            def fire(self):
                fired.append((self.now, self.me))
                self.send_all(("late", self.me))

            def receive(self, sender, payload):
                delivered.append((self.now, self.me, sender, payload))

        backend.crash_party(2, at_time=1.0)
        runtime = backend.parties[1].runtime
        runtime.schedule_timer(2.0, lambda: backend.revive_party(2))
        backend.run(
            lambda party: LateSender(party, "late"), wait_for_all_honest=False, max_time=20.0
        )
        return fired, delivered

    sim_fired, sim_delivered = run("sim")
    assert sim_fired == [(5.0, 1), (5.0, 3), (5.0, 4)]
    assert not [entry for entry in sim_delivered if entry[2] == 2]
    assert len(sim_delivered) == 3 * 3  # the reborn party 2 has no endpoint: buffered
    assert run("asyncio") == (sim_fired, sim_delivered)


def test_duplicated_deliveries_are_idempotent():
    """Duplicating every delivery must not change any honest output."""
    scenario = Scenario(4, 1, 0, "honest", "sync", None)
    clean = run_preprocessing_on(scenario, "asyncio")
    noisy = run_preprocessing_on(
        scenario, "asyncio", faults=FaultPlan(7, link_faults=[LinkFault(duplicate=1.0)])
    )
    assert canonical_outputs(noisy) == canonical_outputs(clean)
    # Duplication is pure waste: same sends, strictly more handling.
    assert noisy.metrics.messages_sent == clean.metrics.messages_sent


def test_reordered_deliveries_still_terminate_with_valid_triples():
    """Adjacent-swap reordering at hand-out: async-safe protocols cope."""
    scenario = Scenario(4, 1, 0, "honest", "sync", None)
    result = run_preprocessing_on(
        scenario, "asyncio", faults=FaultPlan(13, link_faults=[LinkFault(reorder=0.4)])
    )
    outputs = result.honest_outputs()
    assert len(outputs) == 4
    assert triples_are_valid(result, 1)


def test_asyncio_virtual_clock_is_seed_reproducible():
    """Same seed, same transcript -- including under transport faults."""
    scenario = Scenario(4, 1, 0, "random_drop", "async", None)

    def once():
        return run_preprocessing_on(
            scenario,
            "asyncio",
            faults=FaultPlan(
                scenario.scenario_seed,
                link_faults=[LinkFault(duplicate=0.2, reorder=0.2)],
            ),
        )

    first, second = once(), once()
    assert canonical_outputs(first) == canonical_outputs(second)
    assert transcript_fingerprint(first) == transcript_fingerprint(second)


def test_asyncio_backend_propagates_protocol_exceptions():
    """A handler that raises must fail run() like the sim backend does."""
    class Exploding(ProtocolInstance):
        def start(self):
            if self.me == 1:
                self.send_all("boom")

        def receive(self, sender, payload):
            raise RuntimeError("handler blew up")

    for backend_name in ("sim", "asyncio"):
        backend = make_backend(backend_name, 3, network=SynchronousNetwork(), seed=0)
        with pytest.raises(RuntimeError, match="handler blew up"):
            backend.run(lambda party: Exploding(party, "x"), max_time=50.0)


class EchoChatter(ProtocolInstance):
    """Every party sends to all, and answers what it hears while its budget lasts."""

    def __init__(self, party, tag, log):
        super().__init__(party, tag)
        self.log = log
        self.budget = 5

    def start(self):
        self.send_all(("hello", self.me))
        self.schedule_after(1.0, self.start_again)

    def start_again(self):
        self.send_all(("again", self.me))

    def receive(self, sender, payload):
        self.log.append((self.now, self.me, sender, payload))
        if self.budget and sender != self.me:
            self.budget -= 1
            self.send(sender, ("echo", self.me, self.budget))


def run_echo_chatter(backend_name, max_events=None):
    backend = make_backend(backend_name, 4, network=SynchronousNetwork(), seed=5)
    backend.crash_party(2, at_time=1.5)
    log = []
    result = backend.run(
        lambda party: EchoChatter(party, "echo", log),
        wait_for_all_honest=False, max_events=max_events,
    )
    metrics = result.metrics
    counts = (metrics.messages_sent, metrics.messages_delivered, metrics.honest_bits)
    return result.simulator.events_processed, counts, log


def test_a_delivery_lost_to_a_crash_is_one_event_on_both_backends():
    """What is queued for a crashed party is handed out and discarded: it
    counts as an event, not as a delivery, under either scheduler."""
    events, counts, log = run_echo_chatter("sim")
    sent, delivered, _bits = counts
    lost = [entry for entry in log if entry[1] == 2 and entry[0] > 1.5]
    assert not lost and delivered < sent + 8  # 8 self-deliveries are not sends
    assert events > delivered + 4 + 1  # the timers, the crash, and the lost ones
    assert run_echo_chatter("asyncio") == (events, counts, log)


def test_max_events_stops_both_backends_at_the_same_point():
    total = run_echo_chatter("sim")[0]
    for limit in range(0, total + 2, 3):
        sim = run_echo_chatter("sim", max_events=limit)
        assert sim[0] == min(limit, total)
        assert run_echo_chatter("asyncio", max_events=limit) == sim, limit


# -- envelopes on the real clock ----------------------------------------------


class RoundBursts(ProtocolInstance):
    """Three timer-driven rounds; each sends numbered bursts on every channel."""

    ROUNDS, BURST = 3, 4

    def __init__(self, party, tag, emitted, received):
        super().__init__(party, tag)
        self.emitted = emitted
        self.received = received
        self.round = 0

    def start(self):
        for index in range(self.BURST):
            for recipient in range(1, self.n + 1):
                payload = (self.round, index)
                self.emitted.setdefault((self.me, recipient), []).append(payload)
                self.send(recipient, payload)
        payload = (self.round, "all")
        for recipient in range(1, self.n + 1):
            self.emitted.setdefault((self.me, recipient), []).append(payload)
        self.send_all(payload)
        self.round += 1
        if self.round < self.ROUNDS:
            self.schedule_after(2.0, self.start)

    def receive(self, sender, payload):
        self.received.setdefault((sender, self.me), []).append(payload)


class RecordingTransport(TcpTransport):
    """Keeps every envelope the backend sends, as handed over."""

    def __init__(self):
        super().__init__()
        self.envelopes = []

    def send(self, envelope):
        self.envelopes.append(list(envelope))
        super().send(envelope)


@pytest.mark.tcp
def test_real_clock_flushes_envelopes_and_every_channel_stays_fifo():
    """Over a socket, what a process sends at one nominal instant leaves as
    one envelope, each entry with its due instant, one frame per channel;
    per-channel delivery order is emission order within an envelope and
    across all of them; the logical counts and events are the simulator's."""
    emitted, received = {}, {}
    transport = RecordingTransport()
    backend = AsyncioBackend(4, network=SynchronousNetwork(), seed=3,
                             time_scale=0.002, transport=transport)
    result = backend.run(lambda party: RoundBursts(party, "bursts", emitted, received),
                         wait_for_all_honest=False, max_time=1_000.0)
    assert received == emitted

    # One envelope per round (the four parties' bursts are due at one
    # instant), self-deliveries never on the wire.
    envelopes = transport.envelopes
    assert len(envelopes) == RoundBursts.ROUNDS
    assert sum(len(envelope) for envelope in envelopes) == \
        4 * 3 * RoundBursts.ROUNDS * (RoundBursts.BURST + 1)
    for index, envelope in enumerate(envelopes):
        assert {message.send_time for message, _ in envelope} == {2.0 * index}
        assert {due for _, due in envelope} == {2.0 * index + 1.0}
        assert all(message.sender != message.recipient for message, _ in envelope)
    assert transport.frames_sent == 12 * RoundBursts.ROUNDS
    # Flush order is emission order on every channel.
    flushed = {}
    for envelope in envelopes:
        for message, _ in envelope:
            flushed.setdefault((message.sender, message.recipient), []).append(message.payload)
    assert flushed == {channel: payloads for channel, payloads in emitted.items()
                       if channel[0] != channel[1]}

    sim_emitted, sim_received = {}, {}
    sim = make_backend("sim", 4, network=SynchronousNetwork(), seed=3).run(
        lambda party: RoundBursts(party, "bursts", sim_emitted, sim_received),
        wait_for_all_honest=False,
    )
    assert sim_received == received
    assert (result.metrics.messages_sent, result.metrics.messages_delivered,
            result.metrics.honest_bits) == (
        sim.metrics.messages_sent, sim.metrics.messages_delivered,
        sim.metrics.honest_bits)
    assert backend.events_processed == sim.simulator.events_processed
    assert backend.schedule_misses == []


# -- the collector around the simulated-time loops ---------------------------


class Hoarder(ProtocolInstance):
    """Two parties bounce one message; each delivery keeps 200 more containers
    alive, the kind of heap that has the collector schedule full passes."""

    def __init__(self, party, tag):
        super().__init__(party, tag)
        self.kept = []

    def start(self):
        if self.me == 1:
            self.send(2, 0)

    def receive(self, sender, payload):
        self.kept.append([[payload] for _ in range(200)])
        self.send(sender, payload + 1)


@pytest.mark.parametrize("backend_name", ["sim", "asyncio"])
def test_no_full_collection_while_a_simulated_time_loop_runs(backend_name):
    """Seen from ``gc.callbacks``: young passes go on inside the loop, the
    oldest generation waits until it has returned.  (Each bounce is an
    instant of its own: the paced run goes at a microsecond per Δ.)"""
    pace = {"time_scale": 1e-6} if backend_name == "asyncio" else {}
    backend = make_backend(backend_name, 2, network=SynchronousNetwork(), seed=0, **pace)
    in_loop = False
    passes = {"young": 0, "full": 0, "full_after": 0}

    def watch(phase, info):
        if phase == "start":
            if in_loop:
                passes["full" if info["generation"] == 2 else "young"] += 1
            elif info["generation"] == 2:
                passes["full_after"] += 1

    def enough():
        # Called by the loop before each event; the loop returns on True.
        nonlocal in_loop
        in_loop = len(backend.parties[1].instances["hoard"].kept) < 3000
        return not in_loop

    gc.collect()
    before = gc.get_threshold()
    gc.callbacks.append(watch)
    try:
        backend.run(lambda party: Hoarder(party, "hoard"), extra_predicate=enough)
        assert gc.get_threshold() == before
        spare = [[index] for index in range(10 * before[0])]  # a few young passes' worth
    finally:
        gc.callbacks.remove(watch)
    assert len(spare) and passes["young"] > 100
    assert passes["full"] == 0
    assert passes["full_after"] >= 1  # put off, not cancelled


def collector_state():
    return gc.isenabled(), gc.get_threshold()


MPC_CIRCUIT = multiplication_circuit(FIELD, 4)
MPC_INPUTS = {1: 3, 2: 5, 3: 7, 4: 11}


@pytest.mark.parametrize("backend_name", ["sim", "asyncio"])
def test_run_mpc_leaves_the_collector_as_it_found_it(backend_name, monkeypatch):
    before = collector_state()
    result = run_mpc(MPC_CIRCUIT, MPC_INPUTS, n=4, ts=1, ta=0, seed=2, backend=backend_name)
    assert result.completed and collector_state() == before

    stopped = run_mpc(
        MPC_CIRCUIT, MPC_INPUTS, n=4, ts=1, ta=0, seed=2, backend=backend_name, max_events=3000
    )
    assert not stopped.completed and collector_state() == before

    # The caller's own settings, whatever they are, are what comes back.
    gc.set_threshold(901, 7, 5)
    gc.disable()
    try:
        run_mpc(
            MPC_CIRCUIT, MPC_INPUTS, n=4, ts=1, ta=0, seed=2, backend=backend_name,
            max_events=3000,
        )
        assert collector_state() == (False, (901, 7, 5))
    finally:
        gc.enable()
        gc.set_threshold(*before[1])

    def exploding(self, sender, payload):
        raise RuntimeError("handler blew up")

    monkeypatch.setattr(AcastProtocol, "receive", exploding)
    with pytest.raises(RuntimeError, match="handler blew up"):
        run_mpc(MPC_CIRCUIT, MPC_INPUTS, n=4, ts=1, ta=0, seed=2, backend=backend_name)
    assert collector_state() == before


def test_nested_simulator_runs_restore_to_the_enclosing_state():
    """A handler that drives another simulator: the inner loop's exit must
    not end the outer loop's deferral."""
    before = collector_state()
    seen = []
    inner = Simulator(2)
    inner.schedule_timer(1.0, lambda: seen.append(("inner", gc.get_threshold())))
    outer = Simulator(2)
    outer.schedule_timer(1.0, inner.run)
    outer.schedule_timer(2.0, lambda: seen.append(("outer", gc.get_threshold())))
    outer.run()
    assert [where for where, _ in seen] == ["inner", "outer"]
    assert seen[0][1] == seen[1][1] != before[1]
    assert collector_state() == before


def test_service_evaluations_leave_the_collector_as_they_found_it():
    before = collector_state()
    service = MpcService(4, 1, 0, config=ServiceConfig(low_watermark=2, high_watermark=6), seed=4)
    for _ in range(2):
        service.evaluate(MPC_CIRCUIT, MPC_INPUTS)
        assert collector_state() == before
    service.close()


# -- adaptive sharding --------------------------------------------------------


def test_auto_shard_size_picks_largest_fitting_shard():
    from repro.analysis.metrics import sharded_triple_message_bound

    n, ts, c_m = 4, 1, 3
    bits = FIELD.element_bits()
    per_dealer = triples_per_dealer(n, ts, c_m)
    assert per_dealer >= 3
    # A budget big enough for everything: stay unsharded.
    assert auto_shard_size(n, ts, c_m, bits, sharded_triple_message_bound(per_dealer, ts, bits)) is None
    # A budget that fits exactly two triples per round.
    two = sharded_triple_message_bound(2, ts, bits)
    assert auto_shard_size(n, ts, c_m, bits, two) == 2
    # A budget nothing fits: clamp to the minimum shard of one.
    assert auto_shard_size(n, ts, c_m, bits, 1) == 1


def test_run_mpc_auto_shard_respects_bandwidth_budget():
    from repro.analysis.metrics import (
        bundle_message_bound,
        sharded_triple_message_bound,
        sibling_sharings,
    )
    from repro.circuits import millionaires_product_circuit

    circuit = millionaires_product_circuit(FIELD, 4)
    inputs = {1: 3, 2: 5, 3: 7, 4: 11}
    expected = circuit.evaluate({pid: FIELD(v) for pid, v in inputs.items()})
    # Two terms: the shard's triple payload, and a carrier's message (a
    # broadcast bundle or a ΠABA vector), whose size no shard_size lowers and
    # which is the floor of any budget.
    shard_bound = sharded_triple_message_bound(1, 1, FIELD.element_bits())
    floor = bundle_message_bound(4, 1, sibling_sharings(4), FIELD.element_bits())
    budget = max(shard_bound, floor)
    result = run_mpc(
        circuit, inputs, n=4, ts=1, ta=0, seed=9,
        shard_size="auto", bandwidth_budget=budget,
    )
    assert result.completed and result.outputs == expected
    assert shard_bound < result.metrics.max_message_bits <= budget
    with pytest.raises(ValueError, match=f"{floor}-bit floor of a broadcast bundle or ΠABA vector"):
        run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=9,
                shard_size="auto", bandwidth_budget=floor - 1)
    with pytest.raises(ValueError):
        run_mpc(circuit, inputs, n=4, ts=1, ta=0, shard_size="auto")
    with pytest.raises(ValueError):
        run_mpc(circuit, inputs, n=4, ts=1, ta=0, bandwidth_budget=budget)


# -- the decoupling contract --------------------------------------------------


def test_no_protocol_module_imports_the_simulator():
    """Protocols see only the PartyRuntime context, never the Simulator.

    Walks every module outside ``repro.sim`` / ``repro.runtime`` and asserts
    none of them imports ``repro.sim.simulator`` (or the ``Simulator`` name
    from anywhere): the execution engine stays swappable.
    """
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    offenders = []
    for path in src.rglob("*.py"):
        relative = path.relative_to(src)
        if relative.parts[0] in ("sim", "runtime"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any("sim.simulator" in alias.name for alias in node.names):
                    offenders.append(str(relative))
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if "sim.simulator" in module or any(
                    alias.name == "Simulator" for alias in node.names
                ):
                    offenders.append(str(relative))
    assert not offenders, f"protocol modules importing the Simulator: {offenders}"


def test_the_simulator_is_the_only_scheduler():
    """One scheduler: only ``sim/simulator.py`` builds an ``EventQueue``, and
    ``AsyncioBackend`` is a ``Simulator`` that defines none of
    ``submit_message``, ``step``, ``crash_party`` or ``revive_party`` -- it
    inherits them and only paces them."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    queue_sites = []
    for path in sorted((src / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "EventQueue":
                queue_sites.append(str(path.relative_to(src)))
    assert queue_sites == ["repro/sim/simulator.py"]
    assert issubclass(AsyncioBackend, Simulator)
    for name in ("submit_message", "step", "crash_party", "revive_party"):
        assert name not in vars(AsyncioBackend), name


def test_the_party_pool_is_the_only_multiprocess_driver():
    """One pool: under ``runtime/`` each party-process chore has one call
    site, in ``PartyPool`` -- spawning, reserving the roster, serving control
    (``TcpTransport``'s peer listener is the other server), writing the spec
    file (the one pickle, read back only by ``run_party``) and merging the
    children's metrics."""
    runtime = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "runtime"
    chores = ("spawn_party_process", "reserve_roster", "asyncio.start_server",
              "tempfile.mkstemp", "_merge_metrics", "pickle.dump", "pickle.load")
    sites = {chore: [] for chore in chores}

    def visit(node, file, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in sites:
            sites[ast.unparse(node.func)].append(f"{file}:{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, file, scope)

    for path in sorted(runtime.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, ())
    assert sites == {
        "spawn_party_process": ["launcher.py:PartyPool.spawn"],
        "reserve_roster": ["launcher.py:PartyPool.start"],
        "asyncio.start_server": ["launcher.py:PartyPool.start",
                                 "tcp_transport.py:TcpTransport.open"],
        "tempfile.mkstemp": ["launcher.py:PartyPool.start"],
        "_merge_metrics": ["launcher.py:PartyPool.close"],
        "pickle.dump": ["launcher.py:PartyPool.start"],
        "pickle.load": ["launcher.py:run_party"],
    }
    assert "pickle" not in (runtime / "supervisor.py").read_text(encoding="utf-8")


def test_fault_plan_is_the_only_fault_injector():
    """One mechanism: only ``FaultPlan`` defines ``decide``, exactly one
    function asks it (the gate), and ``runtime/`` spells no other injector's
    name and no ``latency`` identifier -- not as a definition, import,
    parameter, dataclass field, attribute or export."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    # Spelt in halves so a repo-wide grep for the deleted names stays empty.
    banned = re.compile(r"latency|\w*Faults|Fault" r"Schedule|Latency" r"Shim")
    deciders, askers, offenders = [], [], []
    for path in sorted((src / "repro").rglob("*.py")):
        relative = str(path.relative_to(src))
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        deciders += [
            f"{relative}:{node.name}"
            for node in nodes
            if isinstance(node, ast.ClassDef)
            and any(getattr(item, "name", None) == "decide" for item in node.body)
        ]
        askers += [
            f"{relative}:{node.name}"
            for node in nodes
            if isinstance(node, ast.FunctionDef)
            and any(
                isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "decide"
                for call in ast.walk(node)
            )
        ]
        if not relative.startswith("repro/runtime/"):
            continue
        for node in nodes:
            # Identifiers, and string constants for __all__ / the lazy table.
            spelt = [getattr(node, f, None) for f in ("name", "id", "arg", "attr", "value")]
            spelt += [a.name for a in getattr(node, "names", ()) if isinstance(a, ast.alias)]
            offenders += [
                f"{relative}:{name}"
                for name in spelt
                if isinstance(name, str) and banned.fullmatch(name)
            ]
    assert deciders == ["repro/faults/plan.py:FaultPlan"]
    assert askers == ["repro/faults/plan.py:admit"]
    assert not offenders


# -- the sync-mode real-clock schedulability bound ----------------------------


def test_missed_regular_mode_deadlines_stall_crash_sync_only(monkeypatch):
    """Pins the root cause of the tier-2 crash+sync-over-real-clock exclusion
    (see test_tcp.py::test_tier2_preprocessing_grid_over_tcp).

    Under a real clock, handler CPU consumes wall time that the virtual
    simulation does not account: whenever the peak per-Δ handler CPU exceeds
    ``time_scale * Δ`` real seconds (true during the protocol's startup
    burst on this container even at time_scale=0.2 s/unit), the clock runs
    ahead of computation and *every* synchronous deadline is missed -- the
    ΠBC regular-mode SBA is then fed ⊥ everywhere, so regular mode yields ⊥,
    every WPS votes 1, and the BA falls back to the star2 path that (at
    t_a=0) needs a full n-clique of the live parties.

    This test models exactly that failure mode on the deterministic sim
    backend (so it is environment-independent): with every regular-mode SBA
    fed ⊥,

    * the honest+sync diagonal cell still completes -- the fallback star
      search finds the full clique, which is the reason honest cells pass
      under a real clock, while
    * the crash+sync cell stalls with no honest outputs -- one crashed party
      breaks the n-clique the t_a=0 fallback requires, which is the reason
      that one cell (and only that one) hangs under a real clock.

    Backend parity for the crash+sync cell on the in-process paced run is
    covered by test_asyncio_backend_matches_sim_backend_on_diagonal.
    """
    from repro.ba.sba import PhaseKingSBA
    from repro.broadcast.bc import BroadcastCarrier

    def overrun_start_sba(self):
        # The timer fires "late" (after the clock ran ahead of computation),
        # before the Acast delivered: the SBA input defaults to ⊥.
        self._sba = self.spawn(
            PhaseKingSBA, "sba", faults=self.faults, value=None, delta=self.delta
        )
        self._sba.start()

    monkeypatch.setattr(BroadcastCarrier, "_start_sba", overrun_start_sba)

    honest = run_preprocessing_on(DIAGONAL[0], "sim")
    assert honest.all_honest_done(), (
        "honest+sync must survive missed regular-mode deadlines via the "
        "fallback star path (full clique available)"
    )
    assert triples_are_valid(honest, DIAGONAL[0].ts)

    crashed = run_preprocessing_on(DIAGONAL[1], "sim")
    assert not crashed.all_honest_done(), (
        "crash+sync completed despite missed regular-mode deadlines: the "
        "t_a=0 fallback no longer needs a full clique, so the real-clock "
        "exclusion in test_tcp.py can likely be re-enabled"
    )

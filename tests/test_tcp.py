"""TcpTransport, the wire codec, and the multi-process launcher.

Layers under test:

* the length-prefixed typed codec (:mod:`repro.runtime.wire`) roundtrips
  every payload shape the protocols use, preserving ``payload_bits`` so
  communication accounting agrees across process boundaries;
* single-process TCP (all parties in one :class:`AsyncioBackend`, every
  non-self message over a real localhost socket) produces the same outputs
  and send metrics as the sim backend -- the wire-parity mode;
* one seeded :class:`~repro.faults.FaultPlan` faults the *same* messages on
  the simulator and over :class:`TcpTransport` (seeded fault-replay
  equivalence: one gate, run where a message is handed out);
* the multi-process harness (:class:`TcpBackend` + the ``python -m
  repro.launch`` launcher, which forks one OS process per party)
  reassembles outputs and metrics in the calling process.

Everything socket-touching is ``tcp``-marked: tests/conftest.py arms a
SIGALRM per-test timeout so a wedged socket can never hang tier-1.
"""

from __future__ import annotations

import asyncio
import fractions
import os
import pickle
import resource
import signal
import threading
import time
from collections import OrderedDict
from math import isfinite

import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast.acast import Bundle, PackedFieldVector
from repro.field import GF, default_field
from repro.field.gf import FieldElement
from repro.field.polynomial import Polynomial
from repro.mpc import run_mpc
from repro.circuits import multiplication_circuit
from repro.faults import FaultPlan, LinkFault, LinkLatency
from repro.runtime import AsyncioBackend, make_backend
from repro.runtime.launcher import STOP_WAIT_S, JobSpec, TcpBackend, TcpPartyBackend, free_roster
from repro.runtime.programs import AcastFactory, MultiAcastFactory
from repro.runtime.errors import PartyProcessDied, ScheduleMiss, WireDecodeError
from repro.runtime.supervisor import ServiceSpec
from repro.runtime.tcp_transport import TcpTransport
from repro.runtime.wire import (
    DecodeMemo,
    decode_envelope,
    decode_message,
    decode_payload,
    encode_entry,
    encode_envelope,
    encode_message,
    encode_payload,
    frame,
    read_frame,
)
from repro.sharing.wps import NOK_VERDICT, PackedPolynomialRows
from repro.sim import AsynchronousNetwork
from repro.sim.messages import Message, payload_bits
from repro.sim.party import ProtocolInstance
from repro.sim.simulator import SimulationMetrics

from protocol_helpers import ExitingFactory, RaisingFactory, SpinningFactory
from test_chaos_tcp import _take, _until, arrivals

FIELD = default_field()


# -- wire codec --------------------------------------------------------------

CODEC_PAYLOADS = [
    None,
    True,
    False,
    0,
    -17,
    2 ** 200 + 3,
    -(2 ** 80),
    3.25,
    "ready",
    "π/κ",
    b"\x00\xffbytes",
    (1, "a", None),
    [1, [2, [3]]],
    {1, 2, 3},
    frozenset({"x"}),
    {"tag": "echo", 4: (True, 2.0)},
    FIELD(1234567),
    GF(257)(99),
    Polynomial(FIELD, [1, 2, 3]),
    PackedFieldVector(FIELD, [0, 1, FIELD.modulus - 1]),
    PackedPolynomialRows.pack(
        FIELD, [Polynomial(FIELD, [5, 6]), Polynomial(FIELD, [7])]
    ),
    ("mixed", [FIELD(9), {"k": PackedFieldVector(FIELD, [4, 5])}]),
]


@pytest.mark.parametrize("payload", CODEC_PAYLOADS, ids=lambda p: type(p).__name__)
def test_codec_roundtrip(payload):
    decoded = decode_payload(encode_payload(payload))
    if isinstance(payload, PackedPolynomialRows):
        assert decoded.vector == payload.vector
        assert decoded.lengths == payload.lengths
    else:
        assert decoded == payload
    assert type(decoded) is type(payload)
    assert payload_bits(decoded) == payload_bits(payload)


def test_codec_roundtrip_large_modulus():
    """Residues over a >64-bit modulus take the per-int path, not the u64 array."""
    big = GF(2 ** 89 - 1, check_prime=False)
    vector = PackedFieldVector(big, [2 ** 70, 1, big.modulus - 1])
    decoded = decode_payload(encode_payload(vector))
    assert decoded == vector
    assert decoded.field.modulus == big.modulus


def test_codec_rejects_untagged_types_at_the_sender():
    # Nothing without a tag of its own crosses the wire: the sender learns
    # which type it tried to send, and no receiver ever unpickles.
    with pytest.raises(TypeError, match="Fraction"):
        encode_payload(fractions.Fraction(22, 7))
    with pytest.raises(TypeError, match="Fraction"):
        encode_payload(("nested", [fractions.Fraction(1, 3)]))


def test_codec_rejects_trailing_garbage():
    with pytest.raises(ValueError, match="trailing"):
        decode_payload(encode_payload(42) + b"\x00")


def test_message_roundtrip_preserves_accounting():
    message = Message(3, 7, "vss/wps[2]/echo", PackedFieldVector(FIELD, [1, 2, 3]), 12.5)
    decoded = decode_message(encode_message(message))
    assert (decoded.sender, decoded.recipient, decoded.tag) == (3, 7, "vss/wps[2]/echo")
    assert decoded.send_time == 12.5
    assert decoded.payload == message.payload
    assert decoded.bits == message.bits


def test_frame_roundtrip_over_stream():
    bodies = [encode_payload(p) for p in [1, "two", [3.0, None]]]

    async def roundtrip():
        reader = asyncio.StreamReader()
        for body in bodies:
            reader.feed_data(frame(body))
        reader.feed_eof()
        out = [await read_frame(reader) for _ in bodies]
        with pytest.raises(asyncio.IncompleteReadError):
            await read_frame(reader)
        return out

    assert asyncio.run(roundtrip()) == bodies


def test_decoded_field_is_interned():
    element = decode_payload(encode_payload(FIELD(5)))
    assert element.field is FIELD


def test_a_list_of_field_elements_is_one_residue_vector():
    """ΠWPS's ``("points", [...])``: tag, one modulus, a count and eight bytes
    a residue -- not a tag and a modulus per element -- boxed again on decode,
    and a fresh list on every decode (a receiver keeps and may extend it)."""
    points = [FIELD(5), FIELD(0), FIELD(FIELD.modulus - 1)]
    assert len(encode_payload(points)) == 1 + (1 + 8) + 4 + 1 + 8 * len(points)
    blob = encode_payload(("points", points))
    memo = DecodeMemo(FIELD.modulus)
    first, second = decode_payload(blob), decode_payload(blob, memo)
    for decoded in (first, second):
        assert decoded == ("points", points) and type(decoded[1]) is list
        assert all(type(e) is FieldElement and e.field is FIELD for e in decoded[1])
        assert payload_bits(decoded) == payload_bits(("points", points))
    assert decode_payload(blob, memo)[1] is not second[1]
    wide = GF(2 ** 127 - 1)
    assert decode_payload(encode_payload([wide(2 ** 100), wide(3)])) == [wide(2 ** 100), wide(3)]
    # Anything but a non-empty list of one field's elements keeps the general form.
    for other in ([], [FIELD(1), 2], [FIELD(1), GF(257)(1)], (FIELD(1), FIELD(2))):
        blob = encode_payload(other)
        assert blob[:1] in (b"l", b"t") and decode_payload(blob) == other


#: A field the sessions below are not over.
FOREIGN = GF(257)


@pytest.mark.parametrize("payload", [
    pytest.param(FOREIGN(3), id="E"),
    pytest.param(Polynomial(FOREIGN, [1, 2]), id="P"),
    pytest.param(PackedFieldVector(FOREIGN, [1, 2]), id="V"),
    pytest.param(PackedPolynomialRows.pack(FOREIGN, [Polynomial(FOREIGN, [1, 2])]), id="R"),
    pytest.param([FOREIGN(1), FOREIGN(2)], id="L"),
    pytest.param(Bundle(((None, (NOK_VERDICT, 1, FOREIGN(5))),), 4), id="a-NOK-line"),
    pytest.param(Bundle((None, (FOREIGN(4), 1)), 4), id="inside-a-bundle"),
])
def test_a_residue_over_another_modulus_is_rejected_by_a_session(payload):
    """A socket receiver's session is over one field: every residue-carrying
    value over another modulus is a ``WireDecodeError``, and a bundle holding
    one is not memoized.  Without a session modulus -- the control channels
    and checkpoints decode without a memo -- it is a value like any other."""
    blob = _envelope_bytes([_msg(1, 2, ("x", payload))])
    session = DecodeMemo(FIELD.modulus)
    with pytest.raises(WireDecodeError, match=f"modulus 257 in a session over {FIELD.modulus}"):
        decode_envelope(blob, memo=session)
    assert not session.bundles
    for memo in (None, DecodeMemo()):
        (message,) = decode_envelope(blob, memo=memo)
        assert encode_message(message) == encode_message(_msg(1, 2, ("x", payload)))
    assert decode_payload(encode_payload(payload)) == payload


# -- single-process TCP: wire parity with the in-process backends ------------

def run_acast_on(backend, n=4, seed=3, length=5, until_quiescent=False, **options):
    built = make_backend(backend, n, seed=seed, **options)
    factory = AcastFactory(sender=1, faults=(n - 1) // 3,
                           message=list(range(length)))
    return built.run(factory, max_time=100_000.0,
                     wait_for_all_honest=not until_quiescent)


@pytest.mark.tcp
def test_single_process_tcp_acast_matches_sim():
    sim = run_acast_on("sim")
    tcp = run_acast_on("asyncio", time_scale=0.001, transport=TcpTransport())
    assert tcp.honest_outputs() == sim.honest_outputs()
    assert tcp.metrics.messages_sent == sim.metrics.messages_sent
    assert tcp.metrics.total_bits == sim.metrics.total_bits
    assert tcp.metrics.max_message_bits == sim.metrics.max_message_bits


@pytest.mark.tcp
def test_single_process_tcp_acast_matches_sim_n16():
    sim = run_acast_on("sim", n=16, length=8)
    tcp = run_acast_on("asyncio", n=16, length=8, time_scale=0.001,
                       transport=TcpTransport())
    assert tcp.honest_outputs() == sim.honest_outputs()
    assert len(tcp.honest_outputs()) == 16
    assert tcp.metrics.messages_sent == sim.metrics.messages_sent
    assert tcp.metrics.total_bits == sim.metrics.total_bits


@pytest.mark.tcp
def test_single_process_tcp_with_latency_still_agrees():
    base, time_scale = 0.02, 0.001  # real seconds; LinkLatency is in Delta units
    plan = FaultPlan(1, latencies=[
        LinkLatency(base=base / time_scale, jitter=0.01 / time_scale)])
    started = time.monotonic()
    tcp = run_acast_on(
        "asyncio", time_scale=time_scale, transport=TcpTransport(), faults=plan,
    )
    elapsed = time.monotonic() - started
    assert tcp.honest_outputs() == run_acast_on("sim").honest_outputs()
    # propose -> echo -> ready is at least two dependent socket hops, each
    # delayed by the rule, so the wall time shows the injected WAN latency.
    assert elapsed >= 2 * base


# -- seeded fault-replay equivalence across fabrics ---------------------------

@pytest.mark.tcp
def test_fault_schedule_replays_identically_over_tcp():
    """One ``(spec, seed)`` faults the same ``(sender, recipient, seq)`` on
    the simulator and over sockets, with and without a latency rule
    stretching the links.

    Both runs go on to quiescence, so every message of the broadcast is
    handed off on both and the logs are comparable in full; the global
    delivery order differs, the per-channel numbering does not.
    """
    link_faults = [LinkFault(duplicate=0.15, reorder=0.15)]
    slow_sender = [LinkLatency(sender=1, base=20.0, jitter=10.0)]
    for latencies in ((), slow_sender):
        in_process = FaultPlan(11, link_faults=link_faults, latencies=latencies)
        over_tcp = in_process.fresh()
        run_a = run_acast_on("sim", until_quiescent=True, faults=in_process)
        run_b = run_acast_on(
            "asyncio", until_quiescent=True, time_scale=0.001,
            transport=TcpTransport(), faults=over_tcp)
        assert run_a.honest_outputs() == run_b.honest_outputs()
        assert len(run_a.honest_outputs()) == 4
        # Equal as multisets of (cause, sender, recipient, seq), hence
        # channel by channel.
        assert sorted(in_process.log) == sorted(over_tcp.log)
        assert {cause for cause, *_ in in_process.log} == \
            {"deliver", "duplicate", "hold"}


# -- multi-process launcher --------------------------------------------------

@pytest.mark.tcp
def test_multiprocess_acast_smoke():
    sim = run_acast_on("sim")
    tcp = run_acast_on("tcp")
    assert tcp.honest_outputs() == sim.honest_outputs()
    assert tcp.metrics.messages_sent == sim.metrics.messages_sent
    assert tcp.metrics.total_bits == sim.metrics.total_bits


@pytest.mark.tcp
def test_multiprocess_acast_with_crashed_party():
    """Crash-stop one party's process endpoint; the broadcast still lands.

    n=4 tolerates one crash (2f+1 = 3 live parties reach the echo and ready
    thresholds); the crashed party is excluded from the launcher's stop
    barrier, so the run terminates without it.
    """
    n = 4
    backend = TcpBackend(n, seed=5, roster=free_roster(n))
    backend.crash_party(4)
    result = backend.run(
        AcastFactory(sender=1, faults=1, message=[9, 8, 7]), max_time=100_000.0
    )
    outputs = result.honest_outputs()
    assert sorted(outputs) == [1, 2, 3]
    assert {tuple(out.values) for out in outputs.values()} == {(9, 8, 7)}


@pytest.mark.tcp(timeout=240)
def test_run_mpc_over_tcp_backend():
    field = default_field()
    circuit = multiplication_circuit(field, n_parties=4)
    inputs = {1: 3, 2: 5, 3: 7, 4: 11}
    sim = run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=2)
    # The default time_scale (0.02 s/unit) leaves the synchronous-round
    # deadlines comfortable headroom over localhost socket latency; a much
    # smaller scale can push an input sharing past its round deadline, which
    # excludes that party's input from the common subset (a correct but
    # different execution).
    tcp = run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=2, backend="tcp")
    assert tcp.completed and tcp.agreed
    assert tcp.outputs == sim.outputs == [field(3 * 5 * 7 * 11)]
    assert tcp.common_subset == [1, 2, 3, 4]


@pytest.mark.parametrize("spec", [
    JobSpec(n=4, seed=0, field_modulus=FIELD.modulus,
            factory=AcastFactory(sender=1, faults=1, message=[1, 2])),
    ServiceSpec(n=4, seed=0, field_modulus=FIELD.modulus,
                ts=1, ta=0, snapshot_dir="snapshots", clock_epoch=12.5),
], ids=lambda spec: type(spec).__name__)
def test_job_spec_pickles(spec):
    """Both spec kinds cross the spec file whole, the fault plan in its one
    ``faults`` field; the type names the child's program."""
    spec.roster = {1: ("127.0.0.1", 7001)}
    spec.control = ("127.0.0.1", 7000)
    spec.faults = FaultPlan(3, latencies=[LinkLatency(base=0.5)])
    clone = pickle.loads(pickle.dumps(spec))
    assert type(clone) is type(spec)
    assert clone.roster == spec.roster and clone.control == spec.control
    assert clone.faults.seed == 3
    assert clone.faults.latencies[0].base == 0.5
    if isinstance(spec, JobSpec):
        assert clone.factory.message == [1, 2]
    else:
        assert (clone.ts, clone.ta, clone.clock_epoch) == (1, 0, 12.5)
        assert clone.transport_options["heartbeat_interval"] == 0.5


def test_tcp_backend_rejects_unsupported_run_options():
    backend = TcpBackend(4)
    with pytest.raises(ValueError, match="max_events"):
        backend.run(AcastFactory(1, 1, [1]), max_events=10)
    with pytest.raises(ValueError, match="extra_predicate"):
        backend.run(AcastFactory(1, 1, [1]), extra_predicate=lambda: True)


def _launch_processes():
    """This process group's live ``repro.launch`` processes: pid -> parent.

    The launcher is a child of this process and the parties are its forks,
    so they are matched by process group, which an orphan keeps when it is
    re-parented."""
    found = {}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                command = handle.read()
        except OSError:  # exited while we looked
            continue
        if int(fields[2]) == os.getpgrp() and b"repro.launch" in command:
            found[int(pid)] = int(fields[1])
    return found


def _party_children():
    """The live ``repro.launch`` processes of this process group."""
    return sorted(_launch_processes())


@pytest.mark.tcp
def test_a_party_process_that_dies_is_a_typed_unexpected_death():
    """Party 2's process exits mid-run: the pool raises PartyProcessDied
    naming it as an unexpected death with its exit code, and tears every
    other party process down."""
    backend = TcpBackend(4, seed=3)
    with pytest.raises(PartyProcessDied) as raised:
        backend.run(ExitingFactory(party=2, code=3), max_time=100_000.0)
    assert raised.value.unexpected == [2]
    assert raised.value.exit_codes[2] == 3
    assert _party_children() == []


@pytest.mark.tcp
def test_a_handler_that_raises_fails_the_run_naming_its_party():
    backend = TcpBackend(4, seed=3)
    with pytest.raises(RuntimeError, match=r"^party process 2 failed: RuntimeError\('party 2 refuses"):
        backend.run(RaisingFactory(party=2), max_time=100_000.0)
    assert _party_children() == []


@pytest.mark.tcp
def test_a_launcher_that_dies_is_every_party_dying_and_leaves_nothing():
    """SIGKILL the launcher once it forked the four parties (party 1 is
    crashed, so nobody outputs and the run is still waiting): the run raises
    PartyProcessDied naming every party, none reported done, and no process
    of the launcher's is left -- the orphaned parties exit on their own, at
    once."""
    backend = TcpBackend(4, seed=3, run_timeout=60.0)
    backend.crash_party(1)
    killed = []

    def kill_the_launcher():
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            found = _launch_processes()
            launchers = [pid for pid, parent in found.items() if parent == os.getpid()]
            if len(launchers) == 1 and len(found) == 5:
                os.kill(launchers[0], signal.SIGKILL)
                killed.append(time.monotonic())
                return
            time.sleep(0.02)

    killer = threading.Thread(target=kill_the_launcher)
    killer.start()
    with pytest.raises(PartyProcessDied) as raised:
        backend.run(AcastFactory(sender=1, faults=1, message=[1, 2]), max_time=100_000.0)
    killer.join()
    # The orphans went by themselves: the teardown did not wait them out.
    assert killed and time.monotonic() - killed[0] < STOP_WAIT_S
    assert sorted(raised.value.exit_codes) == [1, 2, 3, 4]
    assert raised.value.unexpected == [2, 3, 4] and raised.value.scheduled == [1]
    assert set(raised.value.exit_codes.values()) == {-signal.SIGKILL}
    assert _party_children() == []


@pytest.mark.tcp
def test_the_callers_cpu_accounting_sees_every_party_process():
    """Each party reports its own CPU in its ``done``; the caller's
    ``RUSAGE_CHILDREN`` grows by at least their sum across ``run`` -- the
    launcher reaped every party before the pool reaped the launcher."""
    def children_cpu():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    backend = TcpBackend(4, seed=3)
    before = children_cpu()
    run = backend.run(SpinningFactory(0.25), max_time=100_000.0)
    grew = children_cpu() - before
    assert len(run.honest_outputs()) == 4
    assert backend.children_cpu_s >= 4 * 0.25
    assert grew >= backend.children_cpu_s
    assert _party_children() == []


# -- tier-2: the full grid over real sockets ---------------------------------

@pytest.mark.tier2
@pytest.mark.tcp(timeout=600)
@pytest.mark.parametrize("scenario_index", [0, 2, 3])
def test_tier2_preprocessing_grid_over_tcp(scenario_index):
    """The runtime acceptance diagonal, re-run with every message crossing a
    real localhost socket (single process, per-party listeners).

    DIAGONAL[1] (crash + sync) is excluded, with the root cause pinned (see
    test_runtime.py::test_missed_regular_mode_deadlines_stall_crash_sync_only
    for the environment-independent regression test): the cell completes iff
    the real-time schedulability bound holds -- peak per-Δ handler CPU must
    stay below ``time_scale * Δ`` real seconds.  When it does not (true
    during the startup burst on this container even at time_scale=0.2
    s/unit, an order of magnitude above this test's 0.001), the clock runs
    ahead of computation, every regular-mode deadline is missed, ΠBC regular
    mode yields ⊥ everywhere, and the BA falls back to the star2 path that
    at t_a=0 needs a full n-clique -- which the crashed party breaks,
    stalling the run.  Honest cells pass because the clique is intact; async
    cells pass because they take no synchronous deadlines; the in-process
    grid in test_runtime.py covers the cell itself because one process
    hands every event out at its nominal instant.  Not a transport
    property."""
    from test_runtime import DIAGONAL, run_preprocessing_on
    from test_scenario_matrix import triples_are_valid

    scenario = DIAGONAL[scenario_index]
    tcp = run_preprocessing_on(
        scenario, "asyncio", time_scale=0.001, transport=TcpTransport(),
    )
    # Real-clock scheduling is nondeterministic (so no bit-for-bit sim
    # comparison, exactly like the in-process real-clock tests): the
    # acceptance is agreement and validity of the produced triples.
    assert tcp.all_honest_done()
    assert triples_are_valid(tcp, scenario.ts)


@pytest.mark.tier2
@pytest.mark.tcp(timeout=600)
def test_tier2_multiprocess_multiacast_n7_with_latency():
    n = 7
    factory = MultiAcastFactory(faults=2, length=4)
    sim = make_backend("sim", n, seed=9).run(factory, max_time=100_000.0)
    # 5 ms + up to 2 ms of jitter per hop at the backend's 20 ms per Delta.
    tcp = TcpBackend(n, seed=9, faults=FaultPlan(
        9, latencies=[LinkLatency(base=0.25, jitter=0.1)]))
    run = tcp.run(factory, max_time=100_000.0)
    assert run.honest_outputs() == sim.honest_outputs()
    assert len(run.honest_outputs()) == n


# -- envelopes: the codec ------------------------------------------------------

def _msg(sender, recipient, payload, tag="env", send_time=0.0):
    return Message(sender, recipient, tag, payload, send_time)


def _envelope_bytes(messages):
    memo = {}
    return encode_envelope([encode_entry(message, message.send_time, memo)
                            for message in messages])


def _wire(envelope, due=0.0):
    """``envelope`` as the ``(message, due)`` pairs ``TcpTransport.send`` takes."""
    return [(message, due) for message in envelope]


def test_envelope_roundtrip_keeps_emission_order_and_message_bytes():
    shared = PackedFieldVector(FIELD, [7, 8, 9])
    messages = [
        _msg(1, 2, shared, tag="vss/wps[2]/echo", send_time=3.5),
        _msg(1, 2, ("vote", 1), tag="ba/sba[4]"),
        _msg(1, 2, shared, tag="vss/wps[3]/echo"),
    ]
    memo = {}
    entries = [encode_entry(message, message.send_time, memo) for message in messages]
    # An entry is encode_message behind its length; a recurring payload
    # object is encoded once per flush.
    for message, entry in zip(messages, entries):
        body = encode_message(message)
        assert entry == len(body).to_bytes(4, "big") + body
    assert len(memo) == 2
    decoded = decode_envelope(encode_envelope(entries))
    assert [encode_message(m) for m in decoded] == [encode_message(m) for m in messages]
    # The offset form is what the transport uses (kind byte + wire seq first).
    assert [m.tag for m in decode_envelope(b"D" + bytes(8) + encode_envelope(entries), 9)] \
        == [m.tag for m in messages]


@pytest.mark.parametrize("blob, reason", [
    (b"", "shorter than its count"),
    (b"\x00\x00\x00\x00", "claims 0 entries"),
    (b"\xff\xff\xff\xff" + bytes(64), "claims 4294967295 entries"),
    (b"\x00\x00\x00\x01\xff\xff\xff\xf0" + bytes(32), "claims 4294967280 bytes"),
])
def test_envelope_counts_are_bounded_before_anything_is_sized(blob, reason):
    with pytest.raises(WireDecodeError, match=reason):
        decode_envelope(blob)


def test_envelope_rejects_trailing_bytes_mixed_channels_and_bad_entries():
    good = _envelope_bytes([_msg(1, 2, "a"), _msg(1, 2, "b")])
    with pytest.raises(WireDecodeError, match="trailing"):
        decode_envelope(good + b"\x00")
    with pytest.raises(WireDecodeError, match="carries an entry for"):
        decode_envelope(_envelope_bytes([_msg(1, 2, "a"), _msg(3, 2, "b")]))
    with pytest.raises(WireDecodeError, match="carries an entry for"):
        decode_envelope(_envelope_bytes([_msg(1, 2, "a"), _msg(1, 3, "b")]))
    # An entry whose own bytes are wrong surfaces as the same type, with the
    # codec's error as its cause.
    broken = bytearray(good)
    broken[-1:] = b"?"  # the last payload's tag byte... of a 1-char string
    truncated_entry = good[:4] + (5).to_bytes(4, "big") + bytes(5)
    for blob in (bytes(broken[:-1]) + b"\xff", truncated_entry):
        with pytest.raises(WireDecodeError):
            decode_envelope(blob)


def test_residue_count_is_checked_against_the_bytes_that_follow():
    """``_r_residues`` used to hand a peer-chosen count to ``struct``."""
    honest = encode_payload(PackedFieldVector(FIELD, [1, 2, 3]))
    count_at = honest.index((3).to_bytes(4, "big"))
    for claimed in (4, 2 ** 32 - 1):
        forged = honest[:count_at] + claimed.to_bytes(4, "big") + honest[count_at + 4:]
        with pytest.raises(WireDecodeError, match="residue vector claims"):
            decode_payload(forged)
    big = GF(2 ** 89 - 1, check_prime=False)
    boxed = encode_payload(PackedFieldVector(big, [5, 6]))
    count_at = boxed.index((2).to_bytes(4, "big"))
    forged = boxed[:count_at] + (2 ** 31).to_bytes(4, "big") + boxed[count_at + 4:]
    with pytest.raises(WireDecodeError, match="residue vector claims"):
        decode_payload(forged)


def test_residues_outside_the_field_are_rejected():
    """``_r_residues`` feeds trusted constructors (``_normalized=True``,
    ``Polynomial.from_reduced_ints``): a modulus below 2 or a value outside
    ``[0, modulus)`` is a ``WireDecodeError``, in the packed u64 form and in
    the boxed per-int form alike."""
    p = FIELD.modulus
    for honest in (encode_payload(PackedFieldVector(FIELD, [1, 2, 3])),
                   encode_payload(Polynomial(FIELD, [1, 2, 3]))):
        # The last eight bytes are the last residue, little-endian.
        for last in (2 ** 64 - 1, p):
            with pytest.raises(WireDecodeError, match="outside its field"):
                decode_payload(honest[:-8] + last.to_bytes(8, "little"))
        # Tag, then the modulus as a length byte and eight bytes.
        for modulus in (b"\x01", b"\x00", b"\xfb"):
            with pytest.raises(WireDecodeError, match="over the modulus"):
                decode_payload(honest[:1] + b"\x01" + modulus + honest[10:])
        assert decode_payload(honest[:-8] + (p - 1).to_bytes(8, "little"))
    big = GF(2 ** 89 - 1, check_prime=False)
    boxed = encode_payload(PackedFieldVector(big, [5, 6]))
    assert boxed.endswith(b"\x01\x06")  # the last residue: length byte, value
    for forged_last in (b"\x01\xff",  # -1
                        b"\x0c" + big.modulus.to_bytes(12, "little", signed=True)):
        with pytest.raises(WireDecodeError, match="outside its field"):
            decode_payload(boxed[:-2] + forged_last)


def test_late_carriers_and_vote_vectors_cross_the_wire_without_pickle(monkeypatch):
    """Every late-carrier and ΠABA message of an asynchronous n = 5 evaluation,
    and a late bundle with a NOK and an (E', F'), round-trip through the codec
    with ``pickle`` unusable: equal payload and bits, the same bytes again."""
    sent = []
    record = SimulationMetrics.record_send

    def recording(metrics, message, *args, **kwargs):
        if "/late[" in message.tag or "/aba@" in message.tag:
            sent.append(message)
        return record(metrics, message, *args, **kwargs)

    monkeypatch.setattr(SimulationMetrics, "record_send", recording)
    result = run_mpc(multiplication_circuit(FIELD, 5), {pid: pid + 2 for pid in range(1, 6)},
                     n=5, ts=1, ta=1, offline="him", seed=7,
                     network=AsynchronousNetwork(max_delay=3.0))
    assert result.completed
    everyone = frozenset(range(1, 6))
    late = Bundle((None, (None, ("OK",), ("NOK", 0, FIELD(7)), None, None),
                   (everyone, frozenset({1, 2, 3}))), 5)
    sent.append(Message(2, 3, "mpc/bc@3000[2]/late[0]", ("ready", late), 40.0))

    def no_pickle(*args, **kwargs):
        raise AssertionError("a late carrier or a vote vector took the pickle fallback")

    monkeypatch.setattr(pickle, "dumps", no_pickle)
    monkeypatch.setattr(pickle, "loads", no_pickle)
    for message in sent:
        blob = encode_message(message)
        back = decode_message(blob)
        assert back.payload == message.payload and back.bits == message.bits
        assert encode_message(back) == blob
    assert {"late" if "/late[" in m.tag else "aba" for m in sent} == {"late", "aba"}


#: Entries' due instants off a corrupt peer: past ones decode (the receiver
#: records them as schedule misses), those that are not finite do not.
PAST_DUES = [-1e300, -3.5, 0.0]
NON_FINITE_DUES = [float("nan"), float("inf"), float("-inf")]

_FUZZ_SEEDS = [
    _envelope_bytes([_msg(1, 2, payload, tag=f"fuzz/{index}")
                     for index, payload in enumerate(CODEC_PAYLOADS)]),
    _envelope_bytes([_msg(1, 2, (kind, Bundle(((None, 0, 1, 1), None, (FIELD(3),)), 4)))
                     for kind in ("echo", "ready", "vote")]
                    + [_msg(1, 2, ("points", [FIELD(7), FIELD(8)]))]),
    _envelope_bytes([_msg(3, 1, PackedFieldVector(FIELD, list(range(40))))] * 3),
    _envelope_bytes([_msg(2, 4, None)]),
    _envelope_bytes([_msg(2, 4, "a", send_time=due) for due in PAST_DUES]),
    _envelope_bytes([_msg(2, 4, "a"), _msg(2, 4, "b", send_time=float("nan"))]),
    _envelope_bytes([_msg(2, 4, "a", send_time=float("inf"))]),
]


def test_an_entry_due_at_no_finite_instant_is_a_wire_decode_error():
    """NaN or an infinity would break the receiving scheduler's heap order;
    a due instant long past is a value like any other (an attributed miss
    once it arrives: see test_a_past_due_from_a_corrupt_peer_is_an_attributed_miss)."""
    for due in PAST_DUES:
        (message,) = decode_envelope(_envelope_bytes([_msg(2, 4, "a", send_time=due)]))
        assert message.send_time == due
    for due in NON_FINITE_DUES:
        with pytest.raises(WireDecodeError, match="not finite"):
            decode_message(encode_message(_msg(2, 4, "a", send_time=due)))
        with pytest.raises(WireDecodeError, match="not finite"):
            decode_envelope(_envelope_bytes([_msg(2, 4, "a"), _msg(2, 4, "b", send_time=due)]))


def mutated(draw, blob: bytes) -> bytes:
    """``blob`` after one to four flips, cuts, inserts, u32 overwrites or truncations."""
    blob = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(blob)))
        kind = draw(st.sampled_from(["flip", "cut", "insert", "u32", "truncate"]))
        if kind == "flip" and at < len(blob):
            blob[at] ^= draw(st.integers(1, 255))
        elif kind == "cut":
            del blob[at:at + draw(st.integers(1, 8))]
        elif kind == "insert":
            blob[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "u32":
            blob[at:at + 4] = draw(st.sampled_from(
                [0, 1, 2 ** 16, 2 ** 31, 2 ** 32 - 1])).to_bytes(4, "big")
        else:
            del blob[at:]
    return bytes(blob)


@st.composite
def _mutated_envelopes(draw):
    return mutated(draw, draw(st.sampled_from(_FUZZ_SEEDS)))


#: One memo for every example of the fuzz below, as one socket receiver keeps one.
_FUZZ_MEMO = DecodeMemo()


@given(blob=st.one_of(st.binary(max_size=256), _mutated_envelopes()))
@settings(max_examples=400, deadline=None)
def test_envelope_decoder_yields_messages_or_a_wire_decode_error(blob):
    """Arbitrary and mutated bytes: a value or ``WireDecodeError``, nothing
    else -- no ``struct.error``, no ``IndexError``, no absurd allocation.
    Through a memo shared by every example, the same bytes decode to what
    they decode to without one."""
    try:
        messages = decode_envelope(blob)
    except WireDecodeError:
        with pytest.raises(WireDecodeError):
            decode_envelope(blob, memo=_FUZZ_MEMO)
        return
    memoized = decode_envelope(blob, memo=_FUZZ_MEMO)
    assert [encode_message(m) for m in memoized] == [encode_message(m) for m in messages]
    assert messages and all(isinstance(message, Message) for message in messages)
    assert len({(message.sender, message.recipient) for message in messages}) == 1
    assert all(isfinite(message.send_time) for message in messages)


# -- envelopes: the transport --------------------------------------------------

async def _take_payloads(queue, count):
    return [message.payload for message in await _take(queue, count)]


@pytest.mark.tcp
def test_a_one_message_envelope_is_one_frame_carrying_its_due_byte_for_byte():
    message = _msg(1, 2, PackedFieldVector(FIELD, [4, 5]), tag="one", send_time=2.25)

    async def framed():
        transport = TcpTransport()
        await transport.open([1, 2])
        transport.send([(message, 3.25)])
        blob = transport._channel_states[(1, 2)].pending[1]
        assert (transport.frames_sent, transport.messages_framed) == (1, 1)
        transport.close()
        return blob

    body = encode_message(_msg(1, 2, message.payload, tag="one", send_time=3.25))
    assert asyncio.run(framed()) == (
        (1 + 8 + 4 + 4 + len(body)).to_bytes(4, "big")  # frame length
        + b"D" + (1).to_bytes(8, "big")                 # kind, wire seq
        + (1).to_bytes(4, "big")                        # count
        + len(body).to_bytes(4, "big") + body           # the one entry
    )
    # The header's time is the due instant, not the send time.
    assert decode_message(body).send_time == 3.25


@pytest.mark.tcp
def test_channel_order_is_emission_order_within_and_across_envelopes():
    async def scenario():
        transport = TcpTransport()
        received = arrivals(transport)
        await transport.open([1, 2, 3])
        sent = {2: [], 3: []}
        for envelope_index in range(4):
            envelope = []
            for index in range(25):
                recipient = 2 + index % 2
                payload = (envelope_index, index)
                sent[recipient].append(payload)
                envelope.append(_msg(1, recipient, payload))
            transport.send(_wire(envelope))
        got = {pid: await _take_payloads(received[pid], len(sent[pid])) for pid in (2, 3)}
        assert got == sent
        await _until(transport.quiescent, what="the in-flight count to settle")
        assert received[2].empty() and received[3].empty()
        # One frame per channel per envelope, every message in exactly one.
        assert transport.frames_sent == 2 * 4
        assert transport.messages_framed == 100
        transport.close()

    asyncio.run(scenario())


class _ScriptedFaults:
    """Decisions by channel seq on 1->2; everything else delivers, nothing
    is late."""

    def __init__(self, script):
        self.script = script
        self.log = []

    def decide(self, sender, recipient, seq, can_hold, send_time=0.0):
        decision = self.script.get(seq, "deliver") if (sender, recipient) == (1, 2) \
            else "deliver"
        if decision == "hold" and not can_hold:
            decision = "deliver"
        self.log.append((decision, sender, recipient, seq))
        return decision

    def extra_delay(self, sender, recipient, send_time):
        return 0.0


class _Rounds(ProtocolInstance):
    """P1 sends each round's ``(recipient, payload)`` list at one instant,
    2 Δ apart; every party logs what it receives, in order."""

    def __init__(self, party, tag, rounds, log):
        super().__init__(party, tag)
        self.rounds = rounds
        self.log = log
        self.index = 0

    def start(self):
        if self.me != 1:
            return
        for recipient, payload in self.rounds[self.index]:
            self.send(recipient, payload)
        self.index += 1
        if self.index < len(self.rounds):
            self.schedule_after(2.0, self.start)

    def receive(self, sender, payload):
        self.log.setdefault(self.me, []).append(payload)


class _WireRecorder(TcpTransport):
    """Keeps each recipient's payloads in the order they went on the wire."""

    def __init__(self):
        super().__init__()
        self.wire = {}

    def send(self, envelope):
        for message, _due in envelope:
            self.wire.setdefault(message.recipient, []).append(message.payload)
        super().send(envelope)


def _run_rounds(rounds, faults, transport=None):
    """The rounds on the simulator, or over ``transport`` (one process)."""
    if transport is None:
        backend = make_backend("sim", 3, seed=1, faults=faults)
    else:
        backend = AsyncioBackend(3, seed=1, time_scale=0.001, transport=transport,
                                 faults=faults)
    log = {}
    backend.run(lambda party: _Rounds(party, "rounds", rounds, log),
                wait_for_all_honest=False, max_time=1_000.0)
    return log


@pytest.mark.tcp
def test_faults_are_decided_per_logical_message_inside_one_envelope():
    """HOLD is released behind the next entry for that recipient, DUPLICATE
    is two entries, DROP is none, a hold still open when the envelope ends
    goes last -- and the log is the simulator's."""
    script = {0: "hold", 2: "duplicate", 3: "drop", 5: "hold"}
    rounds = [[(2, index) for index in range(6)] + [(3, "other")]]
    expected = {2: [1, 0, 2, 2, 4, 5], 3: ["other"]}

    in_faults = _ScriptedFaults(script)
    assert _run_rounds(rounds, in_faults) == expected

    tcp_faults = _ScriptedFaults(script)
    transport = TcpTransport()
    assert _run_rounds(rounds, tcp_faults, transport) == expected
    # One frame per channel for the envelope: the duplicate and both
    # released holds, the last one at the envelope's end, are entries of
    # the same frame as their neighbours.
    assert (transport.frames_sent, transport.messages_framed) == (2, 7)
    assert tcp_faults.log == in_faults.log
    assert [seq for _, s, r, seq in tcp_faults.log if (s, r) == (1, 2)] == list(range(6))


@pytest.mark.tcp
def test_seeded_fault_schedule_gives_one_log_on_both_transports_per_envelope():
    rule = LinkFault(duplicate=0.2, reorder=0.2, drop=0.1)
    rounds = [
        [(2 + index % 2, (round_index, index)) for index in range(40)]
        for round_index in range(3)
    ]

    in_faults = FaultPlan(21, link_faults=[rule])
    in_got = _run_rounds(rounds, in_faults)
    tcp_faults = in_faults.fresh()
    transport = _WireRecorder()
    tcp_got = _run_rounds(rounds, tcp_faults, transport)
    # What goes on the wire, channel by channel, is what the simulator hands
    # out.  A released hold keeps its own due, so the receiver may hand it
    # out ahead of the entry that released it: compare what lands as sets.
    assert transport.wire == in_got
    assert {pid: sorted(got) for pid, got in tcp_got.items()} == \
        {pid: sorted(got) for pid, got in in_got.items()}
    # One ordered log, not just equal multisets: a single sender hands both
    # fabrics the same global sequence.
    assert tcp_faults.log == in_faults.log
    assert {decision for decision, *_ in in_faults.log} == \
        {"deliver", "duplicate", "hold", "drop"}


class _CrashingSender(ProtocolInstance):
    """P1 opens an envelope, then crashes itself and P3 before it flushes."""

    def __init__(self, party, tag, log):
        super().__init__(party, tag)
        self.log = log

    def start(self):
        if self.me != 1:
            return
        runtime = self.party.runtime
        self.send(2, "before the crash")
        self.send(3, "for the party that dies first")
        runtime.crash_party(3)
        self.send(3, "to the dead")
        runtime.crash_party(1)
        self.send(2, "after the crash")

    def receive(self, sender, payload):
        self.log.append((self.me, sender, payload))


@pytest.mark.tcp
def test_an_open_envelope_outlives_its_sender_and_skips_crashed_recipients():
    transport = TcpTransport()
    backend = AsyncioBackend(4, seed=1, time_scale=0.001, transport=transport)
    log = []
    backend.run(lambda party: _CrashingSender(party, "crash", log),
                wait_for_all_honest=False, max_time=1_000.0)
    # The entry handed over before the crash lands; the send after it never
    # entered an envelope; nothing was framed for the crashed recipient.
    assert log == [(2, 1, "before the crash")]
    assert (transport.frames_sent, transport.messages_framed) == (1, 1)
    assert backend.metrics.messages_sent == 3
    assert backend.metrics.messages_delivered == 1


@pytest.mark.tcp
def test_reconnect_replays_unacked_envelopes_once_and_drops_landed_ones_whole(monkeypatch):
    """Three envelopes land but are never acked (ack_every=16); the
    connection is cut; three more are committed into the outage.  The redial
    replays all six: the receiver drops the landed three whole, re-acks its
    high-water mark, and delivers the other three once, in order."""
    roster = free_roster(2)
    connections = []
    open_connection = asyncio.open_connection

    async def recording_open_connection(*args, **kwargs):
        reader, writer = await open_connection(*args, **kwargs)
        connections.append(writer)
        return reader, writer

    monkeypatch.setattr(asyncio, "open_connection", recording_open_connection)

    def envelope(index):
        return [_msg(1, 2, (index, entry)) for entry in range(4)]

    async def scenario():
        receiver = TcpTransport(roster=dict(roster), local_parties=[2])
        received = arrivals(receiver)
        await receiver.open([1, 2])
        sender = TcpTransport(
            roster=dict(roster), local_parties=[1],
            max_reconnect_attempts=400, reconnect_base=0.01, reconnect_cap=0.05,
        )
        await sender.open([1, 2])
        for index in range(3):
            sender.send(_wire(envelope(index)))
        landed = await _take_payloads(received[2], 12)
        assert landed == [(i, e) for i in range(3) for e in range(4)]
        state = sender._channel_states[(1, 2)]
        assert list(state.pending) == [1, 2, 3]  # one wire seq per envelope

        connections[-1].transport.abort()
        for index in range(3, 6):
            sender.send(_wire(envelope(index)))
        replayed = await _take_payloads(received[2], 12)
        assert replayed == [(i, e) for i in range(3, 6) for e in range(4)]
        # The re-ack of the landed high-water mark prunes exactly those.
        await _until(lambda: list(state.pending) == [4, 5, 6], what="the re-ack")
        assert received[2].empty()  # the landed envelopes stayed dropped
        assert receiver._recv_wseq[(1, 2)] == 6
        assert sender.reconnects == 1
        assert (sender.frames_sent, sender.messages_framed) == (6, 24)
        assert sender._error is None and receiver._error is None
        sender.close()
        receiver.close()

    asyncio.run(scenario())


@pytest.mark.tcp
def test_a_misrouted_envelope_is_a_typed_error_on_the_receiver():
    roster = free_roster(2)

    async def scenario():
        receiver = TcpTransport(roster=dict(roster), local_parties=[2])
        received = arrivals(receiver)
        await receiver.open([1, 2])
        _, writer = await asyncio.open_connection(*roster[2])
        wrong = _envelope_bytes([_msg(1, 3, "not for P2")])
        writer.write(frame(b"D" + (1).to_bytes(8, "big") + wrong))
        await writer.drain()
        await _until(lambda: receiver._error is not None, what="the decode error")
        assert isinstance(receiver._error, WireDecodeError)
        assert "misrouted" in str(receiver._error)
        assert received[2].empty()
        writer.close()
        receiver.close()

    asyncio.run(scenario())


@pytest.mark.tcp
def test_a_frame_over_another_field_is_a_typed_error_at_a_backend_socket():
    """The backend hands its field's modulus to its transport as it opens
    it; a frame carrying a residue over another is then a typed error."""
    roster = free_roster(2)

    async def scenario():
        receiver = TcpTransport(roster=dict(roster), local_parties=[2])
        assert receiver.modulus is None
        await TcpPartyBackend(2, local_party=2, transport=receiver).open()
        assert receiver.modulus == FIELD.modulus
        _, writer = await asyncio.open_connection(*roster[2])
        writer.write(frame(b"D" + (1).to_bytes(8, "big")
                           + _envelope_bytes([_msg(1, 2, ("points", [FOREIGN(1)]))])))
        await writer.drain()
        await _until(lambda: receiver._error is not None, what="the decode error")
        assert isinstance(receiver._error, WireDecodeError)
        assert "modulus 257" in str(receiver._error)
        writer.close()
        receiver.close()

    asyncio.run(scenario())


@pytest.mark.tcp
def test_a_past_due_from_a_corrupt_peer_is_an_attributed_miss():
    """An entry due before the instant its receiver has served is handled at
    once, as an asynchronous delivery, and recorded as the receiver's
    schedule miss naming the sender -- never dropped."""
    roster = free_roster(2)
    transport = TcpTransport(roster=dict(roster), local_parties=[2])
    backend = TcpPartyBackend(2, local_party=2, seed=1, time_scale=0.01, transport=transport)
    log = []

    async def forge():
        _, writer = await asyncio.open_connection(*roster[2])
        writer.write(frame(b"D" + (1).to_bytes(8, "big")
                           + _envelope_bytes([_msg(1, 2, "forged", tag="x", send_time=0.5)])))
        await writer.drain()
        writer.close()

    class Victim(ProtocolInstance):
        def start(self):
            self.schedule_at(2.0, lambda: asyncio.ensure_future(forge()))

        def receive(self, sender, payload):
            log.append((self.now, sender, payload))

    backend.run(lambda party: Victim(party, "x"), wait_for_all_honest=False, max_time=6.0)
    assert backend.schedule_misses == [ScheduleMiss(2, 1, "x", 0.5, 2.0)]
    assert backend.schedule_misses[0].lag == 1.5
    assert log == [(2.0, 1, "forged")]


# -- the channel writer sends from its cursor ----------------------------------

class _CountingBuffer(OrderedDict):
    """A replay buffer that counts the entries an iteration walks over."""

    visited = 0

    def _counted(self, iterator):
        for item in iterator:
            self.visited += 1
            yield item

    def __iter__(self):
        return self._counted(super().__iter__())

    def keys(self):
        return self._counted(super().keys())

    def values(self):
        return self._counted(super().values())

    def items(self):
        return self._counted(super().items())


@pytest.mark.tcp
def test_writer_drains_a_backlog_once_and_never_rescans_the_unacked(monkeypatch):
    """4,096 frames queue up before the peer exists; it then connects and
    never acknowledges.  Draining takes exactly 4,096 data writes, and each
    later wake walks O(1) buffer entries with all of them still unacked
    (it used to copy the whole buffer on every wake)."""
    backlog, later = 4096, 64
    roster = free_roster(2)
    received = []

    async def sink(reader, writer):
        try:
            while True:
                body = await read_frame(reader)
                if body[:1] == b"D":
                    received.append(int.from_bytes(body[1:9], "big"))
        except (asyncio.IncompleteReadError, ConnectionError):
            pass

    data_writes = []
    stream_write = asyncio.StreamWriter.write

    def counting_write(self, data):
        if data[4:5] == b"D":
            data_writes.append(len(data))
        return stream_write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)

    async def scenario():
        sender = TcpTransport(roster=dict(roster), local_parties=[1])
        await sender.open([1, 2])
        for index in range(backlog):
            sender.send([(_msg(1, 2, index), 0.0)])
        state = sender._channel_states[(1, 2)]
        assert len(state.pending) == backlog and not state.ever_connected
        buffer = state.pending = _CountingBuffer(state.pending)

        server = await asyncio.start_server(sink, *roster[2])
        await _until(lambda: len(received) == backlog, what="the backlog to drain")
        assert received == list(range(1, backlog + 1))
        assert len(data_writes) == backlog
        assert buffer.visited <= 2  # the cursor's starting point, not a scan

        buffer.visited = 0
        for index in range(later):
            sender.send([(_msg(1, 2, backlog + index), 0.0)])
            await _until(lambda: len(received) == backlog + index + 1)
        assert len(state.pending) == backlog + later  # nothing was acked
        assert len(data_writes) == backlog + later
        assert buffer.visited <= 2 * later
        sender.close()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())


# -- the launcher keeps the roster ports bound ---------------------------------

@pytest.mark.tcp
def test_a_squatter_cannot_take_a_roster_port_between_selection_and_spawn(monkeypatch):
    """``free_roster`` released the ports it picked, so until each child
    bound its own anything could be handed one (a sibling's outbound
    connection was, 1 run in 31: ``OSError(98)``).  Here a squatter tries to
    bind and listen on every roster port right before the first spawn."""
    import socket
    import subprocess

    squatted = []
    refused = []
    popen = subprocess.Popen

    def squatting_popen(argv, *args, **kwargs):
        if not squatted and not refused:
            with open(argv[argv.index("--spec") + 1], "rb") as handle:
                roster = pickle.load(handle).roster
            for address in roster.values():
                sock = socket.socket()
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                try:
                    sock.bind(tuple(address))
                    sock.listen()
                except OSError as exc:
                    refused.append(exc.errno)
                    sock.close()
                else:
                    squatted.append(sock)
        return popen(argv, *args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", squatting_popen)
    try:
        tcp = run_acast_on("tcp")
    finally:
        for sock in squatted:
            sock.close()
    assert not squatted and len(refused) == 4
    assert tcp.honest_outputs() == run_acast_on("sim").honest_outputs()


# -- parity and the frame ledger on whole evaluations ---------------------------

@pytest.mark.tcp(timeout=240)
def test_mpc_over_tcp_envelopes_matches_the_per_message_fabric():
    """An n=4 ``him`` evaluation, three ways: the simulator, the simulator
    paced by the wall clock, and the paced simulator over TCP envelopes in
    one process.  Every message carries its nominal due
    instant, so all three take the simulator's path: the same outputs, the
    same messages and bits, no late carrier anywhere (one would be the
    fallback a real clock used to force, every run)."""
    from repro.mpc.engine import CircuitEvaluationFactory

    circuit = multiplication_circuit(FIELD, n_parties=4)
    inputs = {1: 3, 2: 5, 3: 7, 4: 11}
    factory = CircuitEvaluationFactory(circuit, 1, 0, inputs, n=4, offline="him")
    sim = make_backend("sim", 4, seed=2).run(factory, max_time=10_000.0)

    def real(transport):
        return make_backend("asyncio", 4, seed=2, time_scale=0.002,
                            transport=transport).run(factory, max_time=10_000.0)

    queues = real(None)
    transport = TcpTransport()
    frame_sizes = []
    commit = transport._commit_frame

    def recording_commit(key, entries):
        frame_sizes.append(len(entries))
        commit(key, entries)

    transport._commit_frame = recording_commit
    tcp = real(transport)

    assert tcp.honest_outputs() == queues.honest_outputs() == sim.honest_outputs()
    assert len(tcp.honest_outputs()) == 4
    for run in (queues, tcp):
        assert (run.metrics.messages_sent, run.metrics.honest_bits) == \
            (sim.metrics.messages_sent, sim.metrics.honest_bits)
        assert run.backend.schedule_misses == []
        assert not any("/late[" in tag for root in run.instances.values()
                       for tag in root.party.instances)
    # Every counted send is an entry of exactly one frame, no frame is empty.
    assert min(frame_sizes) >= 1
    assert sum(frame_sizes) == transport.messages_framed == tcp.metrics.messages_sent
    assert len(frame_sizes) == transport.frames_sent


@pytest.mark.tcp
def test_one_process_over_sockets_never_misses_and_sends_the_simulators_messages():
    """Within one process lag never makes a message late: at 0.5 ms per Δ
    every handler runs late, yet the frames to the process's own parties
    land before anything else is handed out, so the evaluation takes the
    simulator's path -- 1,704 messages, 1,746,816 bits, output at 145.052 Δ
    -- in 1,152 frames, one per channel per instant a party sends on it."""
    circuit = multiplication_circuit(FIELD, n_parties=4)
    inputs = {1: 3, 2: 5, 3: 7, 4: 11}
    sim = run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=1)
    transport = TcpTransport()
    backend = AsyncioBackend(4, seed=1, time_scale=0.0005, transport=transport)
    tcp = run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=1, backend=backend)
    assert backend.schedule_misses == []
    assert tcp.outputs == sim.outputs and tcp.common_subset == [1, 2, 3, 4]
    assert (tcp.metrics.messages_sent, tcp.metrics.honest_bits) == \
        (sim.metrics.messages_sent, sim.metrics.honest_bits) == (1704, 1746816)
    assert max(tcp.output_times.values()) == pytest.approx(145.052)
    assert (transport.frames_sent, transport.messages_framed) == (1152, 1704)
    # One session over the run's field: its 1,536 bundle values are 17
    # distinct lines, each parsed once.
    assert transport.modulus == FIELD.modulus
    assert (transport.bundles_decoded, transport.bundle_memo_hits) == (1536, 1519)


@pytest.mark.tcp(timeout=120)
def test_party_processes_that_fall_behind_record_attributed_schedule_misses():
    """At 0.5 ms of wall clock per Δ no party process keeps its deadlines:
    hops arrive after the instant they were due was served.  Each is handled
    at once, as an asynchronous delivery, and recorded -- naming the
    receiving party, its sender and how late, in Δ -- in the launcher's
    merged list; the evaluation still outputs the circuit on the inputs of
    its common subset."""
    circuit = multiplication_circuit(FIELD, n_parties=4)
    inputs = {1: 3, 2: 5, 3: 7, 4: 11}
    backend = TcpBackend(4, seed=1, time_scale=0.0005)
    result = run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=1, backend=backend)
    assert result.completed and result.agreed
    included = result.common_subset
    assert result.outputs == circuit.evaluate(
        {pid: FIELD(inputs[pid] if pid in included else 0) for pid in inputs})
    misses = backend.schedule_misses
    assert misses
    for miss in misses:
        assert miss.party != miss.sender and {miss.party, miss.sender} <= {1, 2, 3, 4}
        assert miss.lag == miss.handled_at - miss.due >= 0
    assert max(miss.lag for miss in misses) > 1.0  # later than a whole Δ


@pytest.mark.tcp(timeout=240)
def test_multiprocess_evaluation_frames_carry_several_messages_each():
    """The count guard on the ``tcp_n4_tripsh`` shape: four party processes,
    one frame per channel per instant a party sends on it, not one per
    message.  With no schedule miss it is the simulator's evaluation: 1,704
    messages in 1,152 frames.  That frame count is pinned exactly: the rows
    and points of one channel-instant, which one frame already held, are one
    message of the root's post now, and so are the ΠTripSh openings of one,
    in the preprocessing's opening post, so frames no longer hold two
    messages each on average (3,372 in the same 1,152 frames before the
    sharing post, 1,932 before the opening post).  While
    the real clock stamped wall time it was ~2,000-2,400 frames for
    5,700-9,200 messages (2.5-4 each), the late carriers' fallback included,
    and 19-23 each before them."""
    circuit = multiplication_circuit(FIELD, n_parties=4)
    inputs = {1: 3, 2: 5, 3: 7, 4: 11}
    backend = TcpBackend(4, seed=2)
    tcp = run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=2, backend=backend)
    assert tcp.completed and tcp.agreed
    assert tcp.outputs == [FIELD(3 * 5 * 7 * 11)]
    assert backend.messages_framed == tcp.metrics.messages_sent
    assert 1 <= backend.frames_sent <= backend.messages_framed
    assert 0 < backend.bundle_memo_hits < backend.bundles_decoded
    if not backend.schedule_misses:  # a loaded host may make a child late
        assert (tcp.metrics.messages_sent, tcp.metrics.honest_bits) == (1704, 1746816)
        assert (backend.frames_sent, max(tcp.output_times.values())) == \
            (1152, pytest.approx(145.052))

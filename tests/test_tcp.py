"""TcpTransport, the wire codec, and the multi-process launcher.

Layers under test:

* the length-prefixed typed codec (:mod:`repro.runtime.wire`) roundtrips
  every payload shape the protocols use, preserving ``payload_bits`` so
  communication accounting agrees across process boundaries;
* single-process TCP (all parties in one :class:`AsyncioBackend`, every
  non-self message over a real localhost socket) produces the same outputs
  and send metrics as the sim backend -- the wire-parity mode;
* one seeded :class:`~repro.faults.FaultPlan` faults the *same* messages
  under :class:`InProcessTransport` and :class:`TcpTransport` (seeded
  fault-replay equivalence);
* the multi-process harness (:class:`TcpBackend` + ``python -m
  repro.launch``) runs one OS process per party and reassembles outputs and
  metrics at the launcher.

Everything socket-touching is ``tcp``-marked: tests/conftest.py arms a
SIGALRM per-test timeout so a wedged socket can never hang tier-1.
"""

from __future__ import annotations

import asyncio
import pickle
import time
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast.acast import PackedFieldVector
from repro.field import GF, default_field
from repro.field.polynomial import Polynomial
from repro.mpc import run_mpc
from repro.circuits import multiplication_circuit
from repro.faults import FaultPlan, LinkFault, LinkLatency
from repro.runtime import AsyncioBackend, InProcessTransport, make_backend
from repro.runtime.launcher import TcpBackend, free_roster
from repro.runtime.programs import AcastFactory, MultiAcastFactory
from repro.runtime.errors import WireDecodeError
from repro.runtime.tcp_transport import TcpTransport
from repro.runtime.wire import (
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
from repro.sharing.wps import PackedPolynomialRows
from repro.sim.messages import Message, payload_bits
from repro.sim.party import ProtocolInstance

from test_chaos_tcp import _until

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


def test_codec_pickle_fallback_for_unknown_types():
    # Anything without a tag of its own (e.g. a payload forged by a
    # Byzantine behavior hook) rides the pickle fallback.
    import fractions

    forged = fractions.Fraction(22, 7)
    assert decode_payload(encode_payload(forged)) == forged


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


# -- single-process TCP: wire parity with the in-process backends ------------

def run_acast_on(backend, n=4, seed=3, length=5, until_quiescent=False, **options):
    built = make_backend(backend, n, seed=seed, **options)
    factory = AcastFactory(sender=1, faults=(n - 1) // 3,
                           message=list(range(length)))
    return built.run(factory, max_time=100_000.0,
                     wait_for_all_honest=not until_quiescent)


def test_tcp_requires_real_clock():
    with pytest.raises(ValueError, match="virtual clock"):
        AsyncioBackend(4, transport=TcpTransport())


@pytest.mark.tcp
def test_single_process_tcp_acast_matches_sim():
    sim = run_acast_on("sim")
    tcp = run_acast_on("asyncio", clock="real", time_scale=0.001,
                       transport=TcpTransport())
    assert tcp.honest_outputs() == sim.honest_outputs()
    assert tcp.metrics.messages_sent == sim.metrics.messages_sent
    assert tcp.metrics.total_bits == sim.metrics.total_bits
    assert tcp.metrics.max_message_bits == sim.metrics.max_message_bits


@pytest.mark.tcp
def test_single_process_tcp_acast_matches_sim_n16():
    sim = run_acast_on("sim", n=16, length=8)
    tcp = run_acast_on("asyncio", n=16, length=8, clock="real",
                       time_scale=0.001, transport=TcpTransport())
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
        "asyncio", clock="real", time_scale=time_scale,
        transport=TcpTransport(faults=plan),
    )
    elapsed = time.monotonic() - started
    assert tcp.honest_outputs() == run_acast_on("sim").honest_outputs()
    # propose -> echo -> ready is at least two dependent socket hops, each
    # delayed by the rule, so the wall time shows the injected WAN latency.
    assert elapsed >= 2 * base


# -- seeded fault-replay equivalence across transports -----------------------

@pytest.mark.tcp
def test_fault_schedule_replays_identically_over_tcp():
    """One ``(spec, seed)`` faults the same ``(sender, recipient, seq)`` on
    both transports, with and without a latency rule stretching the links.

    Both runs go on to quiescence, so every message of the broadcast is
    handed off on both and the logs are comparable in full; the global
    delivery order differs, the per-channel numbering does not.
    """
    link_faults = [LinkFault(duplicate=0.15, reorder=0.15)]
    slow_sender = [LinkLatency(sender=1, base=20.0, jitter=10.0)]
    for latencies in ((), slow_sender):
        in_process = FaultPlan(11, link_faults=link_faults, latencies=latencies)
        over_tcp = in_process.fresh()
        run_a = run_acast_on(
            "asyncio", until_quiescent=True,
            transport=InProcessTransport(faults=in_process))
        run_b = run_acast_on(
            "asyncio", until_quiescent=True, clock="real", time_scale=0.001,
            transport=TcpTransport(faults=over_tcp))
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


def test_job_spec_pickles():
    from repro.runtime.launcher import JobSpec

    spec = JobSpec(
        n=4, seed=0, field_modulus=FIELD.modulus, network=None,
        factory=AcastFactory(sender=1, faults=1, message=[1, 2]),
        roster={1: ("127.0.0.1", 7001)}, control=("127.0.0.1", 7000),
        faults=FaultPlan(3, latencies=[LinkLatency(base=0.5)]),
    )
    clone = pickle.loads(pickle.dumps(spec))
    assert clone.factory.message == [1, 2]
    assert clone.faults.seed == 3
    assert clone.faults.latencies[0].base == 0.5


def test_tcp_backend_rejects_unsupported_run_options():
    backend = TcpBackend(4)
    with pytest.raises(ValueError, match="max_events"):
        backend.run(AcastFactory(1, 1, [1]), max_events=10)
    with pytest.raises(ValueError, match="extra_predicate"):
        backend.run(AcastFactory(1, 1, [1]), extra_predicate=lambda: True)


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
    cells pass because they take no synchronous deadlines; the virtual-clock
    grid in test_runtime.py covers the cell itself because virtual time
    cannot run ahead of computation.  Not a transport property."""
    from test_runtime import DIAGONAL, run_preprocessing_on
    from test_scenario_matrix import triples_are_valid

    scenario = DIAGONAL[scenario_index]
    tcp = run_preprocessing_on(
        scenario, "asyncio", clock="real", time_scale=0.001,
        transport=TcpTransport(),
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
    return encode_envelope([encode_entry(message, memo) for message in messages])


def test_envelope_roundtrip_keeps_emission_order_and_message_bytes():
    shared = PackedFieldVector(FIELD, [7, 8, 9])
    messages = [
        _msg(1, 2, shared, tag="vss/wps[2]/echo", send_time=3.5),
        _msg(1, 2, ("vote", 1), tag="ba/sba[4]"),
        _msg(1, 2, shared, tag="vss/wps[3]/echo"),
    ]
    memo = {}
    entries = [encode_entry(message, memo) for message in messages]
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


_FUZZ_SEEDS = [
    _envelope_bytes([_msg(1, 2, payload, tag=f"fuzz/{index}")
                     for index, payload in enumerate(CODEC_PAYLOADS)]),
    _envelope_bytes([_msg(3, 1, PackedFieldVector(FIELD, list(range(40))))] * 3),
    _envelope_bytes([_msg(2, 4, None)]),
]


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


@given(blob=st.one_of(st.binary(max_size=256), _mutated_envelopes()))
@settings(max_examples=400, deadline=None)
def test_envelope_decoder_yields_messages_or_a_wire_decode_error(blob):
    """Arbitrary and mutated bytes: a value or ``WireDecodeError``, nothing
    else -- no ``struct.error``, no ``IndexError``, no absurd allocation."""
    try:
        messages = decode_envelope(blob)
    except WireDecodeError:
        return
    assert messages and all(isinstance(message, Message) for message in messages)
    assert len({(message.sender, message.recipient) for message in messages}) == 1


# -- envelopes: the transport --------------------------------------------------

async def _take(queue, count, timeout=30.0):
    return [
        (await asyncio.wait_for(queue.get(), timeout))[0].payload
        for _ in range(count)
    ]


@pytest.mark.tcp
def test_deliver_is_deliver_many_of_one_byte_for_byte():
    message = _msg(1, 2, PackedFieldVector(FIELD, [4, 5]), tag="one", send_time=2.25)

    async def framed(send):
        transport = TcpTransport()
        await transport.open([1, 2])
        send(transport)
        blob = transport._channel_states[(1, 2)].pending[1]
        assert (transport.frames_sent, transport.messages_framed) == (1, 1)
        transport.close()
        return blob

    single = asyncio.run(framed(lambda t: t.deliver(message)))
    many = asyncio.run(framed(lambda t: t.deliver_many((message,))))
    body = encode_message(message)
    assert single == many == (
        (1 + 8 + 4 + 4 + len(body)).to_bytes(4, "big")  # frame length
        + b"D" + (1).to_bytes(8, "big")                 # kind, wire seq
        + (1).to_bytes(4, "big")                        # count
        + len(body).to_bytes(4, "big") + body           # the one entry
    )


@pytest.mark.tcp
def test_channel_order_is_emission_order_within_and_across_envelopes():
    async def scenario():
        transport = TcpTransport()
        await transport.open([1, 2, 3])
        sent = {2: [], 3: []}
        for envelope_index in range(4):
            envelope = []
            for index in range(25):
                recipient = 2 + index % 2
                payload = (envelope_index, index)
                sent[recipient].append(payload)
                envelope.append(_msg(1, recipient, payload))
            transport.deliver_many(envelope)
        got = {pid: await _take(transport.inbox(pid), len(sent[pid])) for pid in (2, 3)}
        assert got == sent
        await _until(transport.quiescent, what="the in-flight count to settle")
        assert transport.inbox(2).empty() and transport.inbox(3).empty()
        # One frame per channel per envelope, every message in exactly one.
        assert transport.frames_sent == 2 * 4
        assert transport.messages_framed == 100
        transport.close()

    asyncio.run(scenario())


class _ScriptedFaults:
    """Decisions by handoff seq on channel 1->2; everything else delivers."""

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


@pytest.mark.tcp
def test_faults_are_decided_per_logical_message_inside_one_envelope():
    """HOLD is released behind the next entry for that recipient, DUPLICATE
    is two entries, DROP is none -- and the log is InProcessTransport's."""
    script = {0: "hold", 2: "duplicate", 3: "drop", 5: "hold"}
    envelope = [_msg(1, 2, index) for index in range(6)] + [_msg(1, 3, "other")]
    expected = [1, 0, 2, 2, 4]  # 5 stays held until the flush

    in_faults = _ScriptedFaults(script)
    in_process = InProcessTransport(faults=in_faults)
    in_process.open([1, 2, 3])
    pairs = in_process.deliver_many(envelope)
    assert [m.payload for m, _ in pairs if m.recipient == 2] == expected

    tcp_faults = _ScriptedFaults(script)

    async def over_tcp():
        transport = TcpTransport(faults=tcp_faults)
        await transport.open([1, 2, 3])
        assert transport.deliver_many(envelope) == []
        assert await _take(transport.inbox(2), 5) == expected
        assert await _take(transport.inbox(3), 1) == ["other"]
        # One frame per channel; the duplicate and the released hold are
        # entries of the same frame as their neighbours.
        assert (transport.frames_sent, transport.messages_framed) == (2, 6)
        transport.flush_reordered()
        assert await _take(transport.inbox(2), 1) == [5]
        await _until(transport.quiescent)
        assert transport.inbox(2).empty()
        transport.close()

    asyncio.run(over_tcp())
    assert tcp_faults.log == in_faults.log
    assert [seq for _, s, r, seq in tcp_faults.log if (s, r) == (1, 2)] == list(range(6))


@pytest.mark.tcp
def test_seeded_fault_schedule_gives_one_log_on_both_transports_per_envelope():
    rule = LinkFault(duplicate=0.2, reorder=0.2, drop=0.1)
    envelopes = [
        [_msg(1, 2 + index % 2, (round_index, index)) for index in range(40)]
        for round_index in range(3)
    ]

    in_faults = FaultPlan(21, link_faults=[rule])
    in_process = InProcessTransport(faults=in_faults)
    in_process.open([1, 2, 3])
    in_got = {2: [], 3: []}
    for envelope in envelopes:
        for message, _ in in_process.deliver_many(envelope):
            in_got[message.recipient].append(message.payload)
    for message, _ in in_process.flush_reordered():
        in_got[message.recipient].append(message.payload)

    tcp_faults = in_faults.fresh()

    async def over_tcp():
        transport = TcpTransport(faults=tcp_faults)
        await transport.open([1, 2, 3])
        for envelope in envelopes:
            transport.deliver_many(envelope)
        transport.flush_reordered()
        got = {pid: await _take(transport.inbox(pid), len(in_got[pid])) for pid in (2, 3)}
        await _until(transport.quiescent)
        assert transport.inbox(2).empty() and transport.inbox(3).empty()
        transport.close()
        return got

    assert asyncio.run(over_tcp()) == in_got
    # One ordered log, not just equal multisets: a single sender hands both
    # transports the same global sequence.
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
    backend = AsyncioBackend(4, seed=1, clock="real", time_scale=0.001,
                             transport=transport)
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
        await receiver.open([1, 2])
        sender = TcpTransport(
            roster=dict(roster), local_parties=[1],
            max_reconnect_attempts=400, reconnect_base=0.01, reconnect_cap=0.05,
        )
        await sender.open([1, 2])
        for index in range(3):
            sender.deliver_many(envelope(index))
        landed = await _take(receiver.inbox(2), 12)
        assert landed == [(i, e) for i in range(3) for e in range(4)]
        state = sender._channel_states[(1, 2)]
        assert list(state.pending) == [1, 2, 3]  # one wire seq per envelope

        connections[-1].transport.abort()
        for index in range(3, 6):
            sender.deliver_many(envelope(index))
        replayed = await _take(receiver.inbox(2), 12)
        assert replayed == [(i, e) for i in range(3, 6) for e in range(4)]
        # The re-ack of the landed high-water mark prunes exactly those.
        await _until(lambda: list(state.pending) == [4, 5, 6], what="the re-ack")
        assert receiver.inbox(2).empty()  # the landed envelopes stayed dropped
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
        await receiver.open([1, 2])
        _, writer = await asyncio.open_connection(*roster[2])
        wrong = _envelope_bytes([_msg(1, 3, "not for P2")])
        writer.write(frame(b"D" + (1).to_bytes(8, "big") + wrong))
        await writer.drain()
        await _until(lambda: receiver._error is not None, what="the decode error")
        assert isinstance(receiver._error, WireDecodeError)
        assert "misrouted" in str(receiver._error)
        assert receiver.inbox(2).empty()
        writer.close()
        receiver.close()

    asyncio.run(scenario())


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
            sender.deliver(_msg(1, 2, index))
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
            sender.deliver(_msg(1, 2, backlog + index))
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
    """An n=4 ``him`` evaluation, three ways: the simulator, the real clock
    over per-message in-process queues, and the real clock over TCP
    envelopes.  Outputs agree everywhere; the two real-clock fabrics send
    and deliver the same logical messages (the simulator's count differs by
    construction -- under any real clock a sharing's regular-mode deadline
    passes while its verdicts are still in flight, so the ``star2``
    fallback runs where the simulator takes ``star`` -- which is why the
    per-message fabric, not the simulator, is the reference for counts)."""
    from repro.mpc.engine import CircuitEvaluationFactory

    circuit = multiplication_circuit(FIELD, n_parties=4)
    inputs = {1: 3, 2: 5, 3: 7, 4: 11}
    factory = CircuitEvaluationFactory(circuit, 1, 0, inputs, n=4, offline="him")
    sim = make_backend("sim", 4, seed=2).run(factory, max_time=10_000.0)

    def real(transport):
        return make_backend("asyncio", 4, seed=2, clock="real", time_scale=0.02,
                            transport=transport).run(factory, max_time=10_000.0)

    queues = real(InProcessTransport())
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
    assert tcp.metrics.messages_sent == queues.metrics.messages_sent
    assert tcp.metrics.messages_delivered == queues.metrics.messages_delivered
    # Every counted send is an entry of exactly one frame, no frame is empty.
    assert min(frame_sizes) >= 1
    assert sum(frame_sizes) == transport.messages_framed == tcp.metrics.messages_sent
    assert len(frame_sizes) == transport.frames_sent


@pytest.mark.tcp(timeout=240)
def test_multiprocess_evaluation_frames_are_a_twentieth_of_its_messages():
    """The count guard on the ``tcp_n4_tripsh`` shape: four party processes,
    one frame per channel per flush (measured ~100 messages per frame; at
    the parent commit every message was its own frame)."""
    circuit = multiplication_circuit(FIELD, n_parties=4)
    inputs = {1: 3, 2: 5, 3: 7, 4: 11}
    backend = TcpBackend(4, seed=2)
    tcp = run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=2, backend=backend)
    assert tcp.completed and tcp.agreed
    assert tcp.outputs == [FIELD(3 * 5 * 7 * 11)]
    assert backend.messages_framed == tcp.metrics.messages_sent
    assert 1 <= backend.frames_sent <= backend.messages_framed // 20

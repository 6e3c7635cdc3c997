"""The carrier's value as a type: ``repro.broadcast.bc.Bundle``.

What a bundle costs (the price list of ``repro.broadcast.bc``), what it is
to Acast's and phase-king's tallies (one cached digest, identity first),
its wire encoding (``repro.runtime.wire``: the bitmaps the price list
counts) and the decoder as a trust boundary.  The carrier's own parser and
the protocol-level attacks are in ``tests/test_bc_carrier.py``.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast.acast import PackedFieldVector
from repro.broadcast.bc import (
    ABSENT,
    OTHER,
    STAR,
    VERDICTS,
    VOTES,
    BroadcastCarrier,
    Bundle,
    entry_kind,
)
from repro.circuits import multiplication_circuit
from repro.field import GF, default_field
from repro.field.gf import FieldElement
from repro.mpc import run_mpc
from repro.runtime.errors import WireDecodeError
from repro.runtime.wire import decode_payload, encode_payload
from repro.sharing.wps import NOK_VERDICT, OK_VERDICT, PackedPolynomialRows
from repro.sim import AsynchronousNetwork
from repro.sim.messages import payload_bits

from test_tcp import mutated

FIELD = default_field()
BITS = FIELD.element_bits()
OK = (OK_VERDICT,)
NOK = (NOK_VERDICT, 2, FIELD(12345))
EVERYONE = frozenset({1, 2, 3, 4})


# -- the price list --------------------------------------------------------------------------------


@pytest.mark.parametrize("entry,kind,bits", [
    pytest.param(None, ABSENT, 1, id="absent"),
    pytest.param((1, None, 0, 1), VOTES, 8, id="votes"),
    pytest.param((0,), VOTES, 2, id="one-vote"),
    pytest.param((None, None, None, None), VOTES, 8, id="nothing-in-four-slots"),
    pytest.param((), VOTES, 0, id="no-slots"),
    pytest.param((None, OK, OK, OK), VERDICTS, 8, id="all-ok"),
    pytest.param((None, OK, NOK, OK), VERDICTS, 8 + 64 + BITS, id="one-nok"),
    pytest.param((NOK, NOK), VERDICTS, 4 + 2 * (64 + BITS), id="two-noks"),
    pytest.param((EVERYONE, frozenset({2, 3}), frozenset()), STAR, 12, id="star"),
    pytest.param((EVERYONE, EVERYONE), STAR, 8, id="star2-shaped"),
    # Anything else is charged what payload_bits charges a plain value.
    pytest.param(12345, OTHER, 64, id="an-int"),
    pytest.param((0, 2), OTHER, 128, id="a-vote-of-2"),
    pytest.param((True, 0), OTHER, 65, id="a-bool-is-not-a-vote"),
    pytest.param((1.0, 0), OTHER, 128, id="a-float-is-not-a-vote"),
    pytest.param((frozenset({1, 5}),), OTHER, 128, id="an-id-above-n"),
    pytest.param((frozenset({0}),), OTHER, 64, id="an-id-below-1"),
    pytest.param((frozenset({True}),), OTHER, 1, id="a-bool-id"),
    pytest.param(({1, 2},), OTHER, 128, id="a-set-is-not-a-frozenset"),
    pytest.param((OK, 1), OTHER, 16 + 64, id="verdicts-and-votes-mixed"),
    pytest.param((("NOK",),), OTHER, 24, id="a-nok-without-evidence"),
    pytest.param((("NOK", -1, FIELD(1)),), OTHER, 24 + 64 + BITS, id="a-negative-index"),
    pytest.param((("NOK", True, FIELD(1)),), OTHER, 24 + 1 + BITS, id="a-bool-index"),
    pytest.param((("NOK", 0, FIELD(1)), ("NOK", 0, GF(101)(1))), OTHER,
                 2 * (24 + 64) + BITS + 7, id="noks-of-two-fields"),
    pytest.param((0,) * 256, OTHER, 256 * 64, id="more-slots-than-a-length-byte"),
    pytest.param([0, 1], OTHER, 128, id="a-list"),
    pytest.param("OK", OTHER, 16, id="a-string"),
])
def test_price_list(entry, kind, bits):
    assert entry_kind(entry, 4) == kind
    assert Bundle((entry,), 4).payload_bits() == bits
    if kind == OTHER:
        assert bits == payload_bits(entry)


def test_a_bundle_is_the_sum_of_its_entries_and_measured_once(monkeypatch):
    entries = ((None, OK, NOK, OK), (1, None, 0, 1), (EVERYONE,) * 3, None, "x")
    bundle = Bundle(entries, 4)
    assert payload_bits(bundle) == (8 + 64 + BITS) + 8 + 12 + 1 + 8
    assert payload_bits(("echo", bundle)) == 32 + payload_bits(bundle)
    monkeypatch.setattr("repro.broadcast.bc.entry_kind", None)  # a second pricing would raise
    assert bundle.payload_bits() == payload_bits(bundle)


def test_a_bundle_inside_a_bundle_is_an_entry_like_any_other():
    inner = Bundle(((0, 1),), 4)
    outer = Bundle((inner, None), 4)
    assert entry_kind(inner, 4) == OTHER
    assert outer.payload_bits() == inner.payload_bits() + 1 == 5


def test_packed_payloads_still_account_like_the_values_they_carry():
    """``payload_bits`` lets a payload report its own size.  A packed vector
    is the same value held differently and must cost what the list costs; a
    bundle is a denser encoding and must not (it would be 49 + 256 + 1)."""
    elements = [FIELD(7), FIELD(8), FIELD(9)]
    packed = PackedFieldVector.pack(FIELD, elements)
    assert packed.payload_bits() == payload_bits(packed) == payload_bits(elements) == 3 * BITS
    rows = PackedPolynomialRows(PackedFieldVector.pack(FIELD, elements), (2, 1))
    assert payload_bits(rows) == 3 * BITS
    assert payload_bits(Bundle(((None, OK, OK, OK), (0, 1, 1, 0), None), 4)) == 8 + 8 + 1


# -- one digest, identity first ----------------------------------------------------------------------


def test_equal_bundles_are_equal_and_hash_alike_and_a_tuple_is_not_a_bundle():
    entries = ((None, OK, OK, OK), (EVERYONE,) * 3, None)
    a, b = Bundle(entries, 4), Bundle(tuple(list(entries)), 4)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Bundle(entries[:-1], 4) and a != Bundle(entries, 5)
    assert a != entries and entries != a and a != "x" and a is not None
    assert {("echo", a): 1}[("echo", b)] == 1  # how Acast and phase-king tally them


def test_the_digest_is_taken_once_and_the_same_object_is_never_compared():
    class Counted:
        hashes = compares = 0

        def __hash__(self):
            Counted.hashes += 1
            return 7

        def __eq__(self, other):
            Counted.compares += 1
            return self is other

    bundle = Bundle((Counted(), (0, 1)), 4)
    tally = {}
    for _ in range(81):
        tally[bundle] = tally.get(bundle, 0) + 1
        assert bundle == bundle
    assert tally == {bundle: 81}
    assert (Counted.hashes, Counted.compares) == (1, 0)


@pytest.mark.parametrize("entry", [[1, 2], {1: 2}, ([1],), ({1, 2},)])
def test_an_unhashable_entry_makes_an_unhashable_bundle_every_time(entry):
    bundle = Bundle((None, entry), 4)  # never out of the constructor
    for _ in range(2):
        with pytest.raises(TypeError):
            hash(bundle)
    assert bundle.payload_bits() == 1 + payload_bits(entry)
    decoded = decode_payload(encode_payload(bundle))  # nor out of the decoder
    assert decoded == bundle
    with pytest.raises(TypeError):
        hash(decoded)


# -- the wire: exactly those bitmaps -----------------------------------------------------------------


def _exact(value):
    """``value`` with every type spelled out, so that 1 is not True."""
    if type(value) in (tuple, list):
        return (type(value).__name__, [_exact(item) for item in value])
    if type(value) in (set, frozenset):
        return (type(value).__name__, sorted(_exact(item) for item in value))
    if type(value) is FieldElement:
        return ("FieldElement", value.value, value.field.modulus)
    if type(value) is Bundle:
        return ("Bundle", value.n, _exact(value.entries))
    return (type(value).__name__, repr(value))


def assert_round_trips(bundle, slack_per_entry=4):
    blob = encode_payload(bundle)
    decoded = decode_payload(blob)
    assert type(decoded) is Bundle and decoded == bundle and hash(decoded) == hash(bundle)
    assert _exact(decoded) == _exact(bundle)
    assert payload_bits(decoded) == payload_bits(bundle)
    assert decoded.wire == blob == encode_payload(decoded)
    assert len(blob) <= -(-payload_bits(bundle) // 8) + slack_per_entry * len(bundle.entries) + 8
    return blob


def test_every_line_of_the_price_list_crosses_the_wire_at_its_price():
    bundle = Bundle((
        None,
        (1, None, 0, 1),
        (None, OK, OK, OK),
        (None, OK, NOK, ("NOK", 2 ** 32 - 1, FIELD(0))),
        (EVERYONE, frozenset({2, 3}), frozenset()),
        (),
    ), 4)
    blob = assert_round_trips(bundle)
    # 'B', n, count; then kind, slots, bitmap per entry (the NOKs: modulus, index + value each).
    assert blob[:6] == b"B\x04" + (6).to_bytes(4, "big")
    assert blob[6:] == (
        bytes([ABSENT])
        + bytes([VOTES, 4, 0b10_01_00_10])
        + bytes([VERDICTS, 4, 0b01_01_01_00])
        + bytes([VERDICTS, 4, 0b10_10_01_00, 8]) + FIELD.modulus.to_bytes(8, "little")
        + (2).to_bytes(4, "big") + (12345).to_bytes(8, "little")
        + (2 ** 32 - 1).to_bytes(4, "big") + bytes(8)
        + bytes([STAR, 3, 0b0110_1111, 0b0000])
        + bytes([VOTES, 0])
    )


def test_entries_off_the_price_list_cross_the_wire_in_the_general_codec(monkeypatch):
    monkeypatch.setattr(pickle, "dumps", lambda *a, **k: pytest.fail("pickled"))
    bundle = Bundle((
        PackedFieldVector.pack(FIELD, [FIELD(7), FIELD(8), FIELD(9)]),
        (True, 0), (frozenset({1, 9}), frozenset({True})), (0, 2), "text", 5,
        Bundle(((0, 1), None), 4),
        (("NOK", 0, FIELD(1)), ("NOK", 0, GF(101)(1))),
    ), 4)
    assert_round_trips(bundle, slack_per_entry=64)


def test_a_nok_over_a_wide_field_keeps_its_width():
    wide = GF(2 ** 127 - 1)
    assert_round_trips(Bundle(((OK, ("NOK", 7, wide(2 ** 100 + 3))),), 2), slack_per_entry=24)


def test_the_encoding_is_built_once_and_a_decoded_bundle_keeps_the_bytes_it_came_in(monkeypatch):
    bundle = Bundle(((None, OK, OK, OK), (EVERYONE,) * 3), 4)
    first = encode_payload(("echo", bundle))
    monkeypatch.setattr("repro.runtime.wire.entry_kind", None)  # a second encoding would raise
    assert encode_payload(("ready", bundle))[-len(bundle.wire):] == bundle.wire == first[-len(bundle.wire):]
    kind, decoded = decode_payload(first)
    assert kind == "echo" and decoded.wire == bundle.wire
    assert encode_payload((3, decoded)).endswith(bundle.wire)


@pytest.mark.parametrize("n", [0, 256])
def test_a_party_count_outside_one_byte_has_no_encoding(n):
    with pytest.raises(ValueError):
        encode_payload(Bundle((None,), n))


# -- the decoder is a trust boundary --------------------------------------------------------------


def _bundle_bytes(n, *entries, count=None):
    count = len(entries) if count is None else count
    return b"B" + bytes([n]) + count.to_bytes(4, "big") + b"".join(entries)


@pytest.mark.parametrize("blob", [
    pytest.param(b"B", id="no-header"),
    pytest.param(b"B\x04\x00\x00", id="half-a-count"),
    pytest.param(_bundle_bytes(4, count=2 ** 32 - 1), id="four-billion-entries-in-six-bytes"),
    pytest.param(_bundle_bytes(4, bytes([ABSENT]), count=2), id="one-entry-short"),
    pytest.param(_bundle_bytes(0, bytes([STAR, 255])), id="255-id-sets-among-no-parties"),
    pytest.param(_bundle_bytes(4, bytes([9])), id="unknown-kind"),
    pytest.param(_bundle_bytes(4, bytes([VOTES])), id="votes-without-a-length"),
    pytest.param(_bundle_bytes(4, bytes([VOTES, 255, 0])), id="255-slots-in-one-byte"),
    pytest.param(_bundle_bytes(255, bytes([STAR, 255, 0xFF])), id="8-KB-of-id-sets-in-one-byte"),
    pytest.param(_bundle_bytes(4, bytes([VOTES, 4, 0b11])), id="slot-code-3"),
    pytest.param(_bundle_bytes(4, bytes([VERDICTS, 4, 0b11])), id="verdict-code-3"),
    pytest.param(_bundle_bytes(4, bytes([VERDICTS, 1, 0b10])), id="a-nok-and-nothing-after"),
    pytest.param(_bundle_bytes(4, bytes([VERDICTS, 1, 0b10, 1, 0])), id="modulus-0"),
    pytest.param(_bundle_bytes(4, bytes([VERDICTS, 1, 0b10, 1, 0x81])), id="a-negative-modulus"),
    pytest.param(_bundle_bytes(4, bytes([VERDICTS, 2, 0b1010, 1, 7]) + bytes(4) + b"\x01"),
                 id="two-noks-claimed-one-present"),
    pytest.param(_bundle_bytes(4, bytes([VERDICTS, 1, 0b10, 1, 7]) + bytes(4) + b"\x07"),
                 id="a-residue-that-is-not-one"),
    pytest.param(_bundle_bytes(4, bytes([OTHER]) + b"p" + (4).to_bytes(4, "big") + b"\x80\x04N."),
                 id="a-pickle-is-never-opened-inside-a-bundle"),
    pytest.param(_bundle_bytes(4, bytes([OTHER]) + b"t" + (1).to_bytes(4, "big") + b"p"
                               + (4).to_bytes(4, "big") + b"\x80\x04N."),
                 id="nor-one-level-down"),
    pytest.param(_bundle_bytes(4, bytes([OTHER]) + b"Z" + (1).to_bytes(4, "big") + b"l" + bytes(4)),
                 id="a-frozenset-of-a-list"),
    pytest.param(_bundle_bytes(4, bytes([OTHER]) + b"s" + (1).to_bytes(4, "big") + b"\xff"),
                 id="bad-utf8"),
    pytest.param(_bundle_bytes(4, bytes([ABSENT])) + b"N", id="trailing-bytes"),
    pytest.param((b"B\x04" + (1).to_bytes(4, "big") + bytes([OTHER])) * 3_000,
                 id="bundles-nested-past-the-recursion-limit"),
])
def test_malformed_bundle_bytes_are_a_wire_decode_error(blob):
    with pytest.raises(WireDecodeError):
        decode_payload(blob)


def test_a_pickle_outside_a_bundle_is_still_opened():
    assert decode_payload(b"p" + (4).to_bytes(4, "big") + b"\x80\x04N.") is None


_SEED_BUNDLES = [
    encode_payload(Bundle(((None, OK, NOK, OK), (1, None, 0, 1), (EVERYONE,) * 3, None, (0, 2),
                           Bundle((None,), 4)), 4)),
    encode_payload(Bundle(((None, OK, OK, OK, OK),) * 20 + ((EVERYONE,) * 3,) * 5, 5)),
]


@st.composite
def _bundle_shaped_bytes(draw):
    if draw(st.booleans()):
        return b"B" + draw(st.binary(max_size=64))
    return b"B" + mutated(draw, draw(st.sampled_from(_SEED_BUNDLES)))[1:]


@given(blob=_bundle_shaped_bytes())
@settings(max_examples=600, deadline=None)
def test_bundle_decoder_yields_a_bundle_or_a_wire_decode_error(blob):
    """Arbitrary and mutated bytes behind the tag: a ``Bundle`` that holds no
    more than the frame could (a slot is two bits; an id, and an id set, at
    least one) and is priced, re-encoded and tallied without an exception --
    or ``WireDecodeError``."""
    try:
        bundle = decode_payload(blob)
    except WireDecodeError:
        return
    assert type(bundle) is Bundle and bundle.wire == blob == encode_payload(bundle)
    assert len(bundle.entries) <= len(blob)
    assert sum(len(e) for e in bundle.entries if type(e) is tuple) <= 8 * len(blob)
    assert sum(len(part) for e in bundle.entries if entry_kind(e, bundle.n) == STAR
               for part in e) <= 8 * len(blob)
    assert bundle.payload_bits() >= 0
    try:
        hash(bundle)
    except TypeError:
        pass
    again = decode_payload(encode_payload(Bundle(bundle.entries, bundle.n)))
    assert again == bundle and _exact(again) == _exact(bundle)


# -- the accounting is the encoding ------------------------------------------------------------------


def _bundles_sent(monkeypatch, **run):
    sent = []
    publish = BroadcastCarrier._publish

    def recording(carrier):
        publish(carrier)
        if carrier.me == carrier.sender:
            sent.append(carrier._acast.message)

    monkeypatch.setattr(BroadcastCarrier, "_publish", recording)
    n = run["n"]
    result = run_mpc(multiplication_circuit(FIELD, n), {pid: pid + 2 for pid in range(1, n + 1)},
                     **run)
    assert result.completed
    return sent


@pytest.mark.parametrize("run,carriers,expected", [
    pytest.param(dict(n=4, ts=1, ta=0, seed=1), 32, {VOTES, VERDICTS, STAR}, id="sync-n4-tripsh"),
    # No dealer has found a star by the anchor of its ΠBC: it goes out as ``star2``.
    pytest.param(dict(n=5, ts=1, ta=1, seed=7, offline="him",
                      network=AsynchronousNetwork(max_delay=3.0)), 35, {ABSENT, VOTES, VERDICTS},
                 id="async-n5-him"),
])
def test_every_bundle_of_an_evaluation_costs_on_the_wire_what_it_is_charged(
        monkeypatch, run, carriers, expected):
    """What ``payload_bits`` counts for a bundle is what ``runtime.wire`` ships:
    within a kind byte, a length byte and a byte of rounding per entry."""
    sent = _bundles_sent(monkeypatch, **run)
    n = run["n"]
    assert len(sent) == carriers and all(type(b) is Bundle and b.n == n for b in sent)
    kinds = set()
    for bundle in sent:
        assert_round_trips(bundle)
        kinds.update(entry_kind(entry, n) for entry in bundle.entries)
    assert kinds == expected  # nothing an honest party broadcasts falls off the price list

"""Length-prefixed wire codec for :class:`~repro.sim.messages.Message`.

The TCP transport moves protocol messages between party processes as
*frames*: a 4-byte big-endian length prefix followed by a typed binary body.
A data frame's body carries an *envelope* -- everything one channel has to
move in one flush::

    envelope := count:u32  entry * count        (count >= 1)
    entry    := length:u32  sender:i32  recipient:i32  due:f64
                tag-length:u32  tag  payload

All entries of an envelope share one ``(sender, recipient)`` channel; ``due``
is the finite nominal instant the entry is to be handed over.
:func:`encode_entry` writes an entry and encodes a payload object that
recurs within one flush (a ``send_all`` fan-out) once; :func:`decode_envelope`
bounds ``count`` and every length by the bytes that follow *before* it
allocates or unpacks, and turns every way a peer's bytes can be wrong into
one :class:`~repro.runtime.errors.WireDecodeError`.

The per-message codec is tag-dispatched and self-describing -- every value
is one tag byte plus tag-specific data -- and covers the whole payload zoo
the protocols put on the wire:

* the scalar primitives (``None``, bools, ints of any magnitude, floats,
  strings, bytes) and the containers (tuple/list/set/frozenset/dict),
* field-carrying types, serialized as **int residues plus the modulus**,
  never as boxed objects: :class:`~repro.field.gf.FieldElement`,
  :class:`~repro.field.polynomial.Polynomial`, and the packed batch payloads
  :class:`~repro.broadcast.acast.PackedFieldVector` /
  :class:`~repro.sharing.wps.PackedPolynomialRows`.  Packed vectors over a
  sub-64-bit modulus (the default field) ride a flat ``struct`` array --
  eight bytes per residue, no per-element boxing on either side; decoding
  re-interns the field through ``GF(modulus)``, so receivers share the
  process-wide cached-matrix field instance,
* a non-empty ``list`` of field elements of one field (tag ``L``, ΠWPS's
  ``("points", [...])``): the same residue vector, boxed again on decode --
  one modulus for the list instead of one per element,
* a broadcast :class:`~repro.broadcast.acast.Bundle`, as the bitmaps its price
  list counts, behind the line's byte length (:func:`_bundle_bytes`)::

      bundle := 'B'  length:u32  n:u8  count:u32  entry * count

  built once per object and kept on it, so the ~9 fan-outs a party makes of
  one bundle encode it once; the decoder keeps the line it read as the new
  object's encoding.

Nothing else crosses the wire: encoding a value of any other type raises
``TypeError`` naming it, at the sender.  A receiver therefore builds only
the types above from a peer's bytes and never runs code a frame names -- it
trusts no peer, Byzantine or not, with more than a malformed value of one of
these types, which the protocols must reject anyway.

A socket receiver decodes through a :class:`DecodeMemo`, one per transport.
Fig 1 moves one bundle many times (a SEND, n ECHOs and n READYs, then a
phase-king vote per round), so a party process receives byte-identical
bundle lines again and again; the memo maps a line's **exact bytes** to the
``Bundle`` it decoded to, and a copy hands back that object without parsing.
A peer therefore cannot poison it -- other bytes are another key -- only
evict lines, which costs a re-parse: it is bounded by :data:`MEMO_BUNDLES`
lines and :data:`MEMO_BYTES` bytes, oldest out first.  Messages then share
one decoded ``Bundle``, as they share one object in the simulator's
``send_all``; a bundle is immutable apart from its idempotent caches, and
one that does not hash (it holds a mutable container) is decoded fresh each
time.  The memo also carries the session field's modulus: a residue over any
other (``E``, ``P``, ``V``, ``R``, ``L``, a NOK line) is a
``WireDecodeError``, checked before a bundle is memoized, so a hit needs no
check.  Called without a memo (the control channels, checkpoints) the codec
parses every value and takes any modulus.

The codec is accounting-transparent: decoding reconstructs payloads whose
:func:`~repro.sim.messages.payload_bits` equals the sender's, so the
per-party communication metrics agree with the in-process backends.
"""

from __future__ import annotations

import asyncio
import struct
from collections import OrderedDict
from math import isfinite
from typing import Any, Dict, List, Optional, Sequence

from repro.broadcast.acast import (
    ABSENT,
    NOK,
    OK_SLOT,
    OTHER,
    STAR,
    VERDICTS,
    VOTES,
    Bundle,
    PackedFieldVector,
    entry_bits,
    entry_kind,
)
from repro.field.gf import GF, FieldElement
from repro.field.polynomial import Polynomial
from repro.runtime.errors import WireDecodeError
from repro.sharing.wps import PackedPolynomialRows
from repro.sim.messages import Message

#: Hard cap on a single frame (1 GiB): a corrupt length prefix must fail
#: loudly instead of attempting an absurd allocation.
MAX_FRAME_BYTES = 1 << 30

_U32 = struct.Struct(">I")
_HEADER = struct.Struct(">iid")  # sender, recipient, due
_F64 = struct.Struct(">d")
#: An envelope entry up to its tag: entry length, routing header, tag length.
_ENTRY_HEAD = struct.Struct(">IiidI")
#: The smallest entry a peer can honestly send: its length field, the
#: routing header, an empty tag's length and a one-byte payload.
_MIN_ENTRY_BYTES = _ENTRY_HEAD.size + 1
#: A bundle line up to its entries: 'B', its length, n, the entry count.
_BUNDLE_HEAD = 10

#: The bound of a :class:`DecodeMemo`.  A party process of an n = 4 product
#: evaluation decodes ~109 distinct bundle lines of ~80 bytes each, so this
#: holds about nine evaluations' worth; a longer line is never kept.
MEMO_BUNDLES = 1024
MEMO_BYTES = 1 << 17


class DecodeMemo:
    """One receiving session's decode state (see the module docstring): the
    session field's ``modulus`` (None: any) and a bounded memo from a bundle
    line's exact bytes to the :class:`Bundle` it decoded to."""

    __slots__ = ("modulus", "bundles", "size", "decoded", "hits")

    def __init__(self, modulus: Optional[int] = None):
        self.modulus = modulus
        #: line -> bundle, oldest first; ``size`` is the lines' total bytes.
        self.bundles: "OrderedDict[bytes, Bundle]" = OrderedDict()
        self.size = 0
        #: Bundle values decoded through this memo, and how many were hits.
        self.decoded = 0
        self.hits = 0

    def keep(self, line: bytes, bundle: Bundle) -> None:
        """Memoize ``bundle`` under ``line``, evicting the oldest lines
        until both bounds hold."""
        if len(line) > MEMO_BYTES:
            return
        bundles = self.bundles
        while len(bundles) >= MEMO_BUNDLES or self.size + len(line) > MEMO_BYTES:
            old, _ = bundles.popitem(last=False)
            self.size -= len(old)
        bundles[line] = bundle
        self.size += len(line)


def _field(modulus: int, memo: Optional[DecodeMemo]) -> GF:
    """The field of residues read over ``modulus``: with a session modulus,
    any other is a ``WireDecodeError``."""
    if memo is not None and memo.modulus is not None and modulus != memo.modulus:
        raise WireDecodeError(
            f"a residue over the modulus {modulus} in a session over {memo.modulus}")
    return GF(modulus, check_prime=False)


def _w_uint(buf: bytearray, value: int) -> None:
    buf += _U32.pack(value)


def _w_int(buf: bytearray, value: int) -> None:
    """Arbitrary-precision signed int: 1-byte length + signed little-endian.

    Field residues and moduli fit 9 bytes; protocol counters fit 1-2.  Ints
    needing more than 255 bytes take the 4-byte escape (length 255 + u32).
    """
    length = (value.bit_length() + 8) // 8 or 1
    if length < 255:
        buf.append(length)
    else:
        buf.append(255)
        _w_uint(buf, length)
    buf += value.to_bytes(length, "little", signed=True)


def _r_int(data: bytes, pos: int) -> tuple:
    length = data[pos]
    pos += 1
    if length == 255:
        (length,) = _U32.unpack_from(data, pos)
        pos += 4
    value = int.from_bytes(data[pos:pos + length], "little", signed=True)
    return value, pos + length


def _w_residues(buf: bytearray, modulus: int, values) -> None:
    """A homogeneous residue vector: count + flat u64 array when it fits."""
    _w_int(buf, modulus)
    _w_uint(buf, len(values))
    if modulus.bit_length() <= 64:
        buf.append(1)
        buf += struct.pack(f"<{len(values)}Q", *values)
    else:
        buf.append(0)
        for value in values:
            _w_int(buf, value)


def _r_residues(data: bytes, pos: int, memo: Optional[DecodeMemo]) -> tuple:
    """A residue vector as ``(field, values, pos)``.

    The values go into trusted constructors (``_normalized=True``,
    :meth:`~repro.field.polynomial.Polynomial.from_reduced_ints`), so a
    modulus below 2 (or not the session's) or a value outside
    ``[0, modulus)`` is rejected here.
    """
    modulus, pos = _r_int(data, pos)
    if modulus < 2:
        raise WireDecodeError(f"residue vector over the modulus {modulus}")
    field = _field(modulus, memo)
    (count,) = _U32.unpack_from(data, pos)
    pos += 4
    packed = data[pos]
    pos += 1
    # The count is the peer's: check it against the bytes actually present
    # (8 per packed residue, at least 2 per boxed one) before sizing a
    # struct format or a list from it.
    if count * (8 if packed else 2) > len(data) - pos:
        raise WireDecodeError(
            f"residue vector claims {count} entries with "
            f"{len(data) - pos} bytes left"
        )
    if packed:
        values = struct.unpack_from(f"<{count}Q", data, pos)
        pos += 8 * count
    else:
        out: List[int] = []
        for _ in range(count):
            value, pos = _r_int(data, pos)
            out.append(value)
        values = tuple(out)
    if values and (min(values) < 0 or max(values) >= modulus):
        raise WireDecodeError("residue vector holds a value outside its field")
    return field, values, pos


def _bundle_bytes(bundle: Bundle) -> bytes:
    """``bundle``'s encoding, built on first use and kept on the object::

        bundle := 'B'  length:u32  n:u8  count:u32  entry * count
        entry  := ABSENT
                | VOTES     k:u8  two bits a slot: 0 none, 1 vote 0, 2 vote 1
                | VERDICTS  k:u8  two bits a slot: 0 none, 1 OK, 2 NOK
                            [modulus:int  (index:u32 residue) per NOK, if any]
                | STAR      k:u8  n bits a set: bit (id - 1) of set s at s*n
                | OTHER     value, in the general codec

    (:func:`~repro.broadcast.acast.entry_kind` picks the line, as it does for
    the bit count; ``length`` counts the bytes after it.)  ``n`` outside
    1..255 has no encoding: ValueError.
    """
    if bundle.wire is not None:
        return bundle.wire
    n = bundle.n
    if not 0 < n < 256:
        raise ValueError(f"a bundle among {n} parties has no wire encoding")
    buf = bytearray(b"B\0\0\0\0")
    buf.append(n)
    _w_uint(buf, len(bundle.entries))
    for entry in bundle.entries:
        kind = entry_kind(entry, n)
        buf.append(kind)
        if kind == ABSENT:
            continue
        if kind == OTHER:
            _encode(buf, entry)
            continue
        buf.append(len(entry))
        bits = 0
        noks = []
        if kind == STAR:
            width = n
            for index, part in enumerate(entry):
                for pid in part:
                    bits |= 1 << (index * n + pid - 1)
        else:
            width = 2
            for index, slot in enumerate(entry):
                if slot is None:
                    continue
                if kind == VOTES:
                    code = slot + 1
                elif len(slot) == 1:
                    code = 1
                else:
                    code = 2
                    noks.append(slot)
                bits |= code << (2 * index)
        buf += bits.to_bytes((len(entry) * width + 7) // 8, "little")
        if noks:
            modulus = noks[0][2].field.modulus
            _w_int(buf, modulus)
            for _, index, element in noks:
                buf += _U32.pack(index)
                buf += element.value.to_bytes((modulus.bit_length() + 7) // 8, "little")
    _U32.pack_into(buf, 1, len(buf) - 5)
    bundle.wire = bytes(buf)
    return bundle.wire


def _r_bitmap(data: bytes, pos: int, bits: int) -> tuple:
    size = (bits + 7) // 8
    if size > len(data) - pos:
        raise WireDecodeError(f"a {bits}-bit map with {len(data) - pos} bytes left")
    return int.from_bytes(data[pos:pos + size], "little"), pos + size


def _r_bundle_entry(data: bytes, pos: int, n: int, memo: Optional[DecodeMemo]) -> tuple:
    """One entry as ``(value, pos, price)``: the line it was read from prices it."""
    kind = data[pos]
    pos += 1
    if kind == ABSENT:
        return None, pos, 1
    if kind == OTHER:
        value, pos = _decode(data, pos, memo)
        return value, pos, entry_bits(value, n)
    if kind not in (VOTES, VERDICTS, STAR):
        raise WireDecodeError(f"unknown bundle entry kind {kind}")
    slots = data[pos]
    pos += 1
    if kind == STAR:
        bits, pos = _r_bitmap(data, pos, slots * n)
        return tuple(
            frozenset(pid for pid in range(1, n + 1) if bits >> (s * n + pid - 1) & 1)
            for s in range(slots)
        ), pos, n * slots
    bits, pos = _r_bitmap(data, pos, 2 * slots)
    codes = [bits >> (2 * index) & 3 for index in range(slots)]
    if 3 in codes:
        raise WireDecodeError("slot code 3 in a bundle vector")
    if kind == VOTES:
        return tuple(None if code == 0 else code - 1 for code in codes), pos, 2 * slots
    field = size = None
    noks = codes.count(2)
    if noks:
        modulus, pos = _r_int(data, pos)
        if modulus < 2:
            raise WireDecodeError(f"NOK values over the modulus {modulus}")
        field = _field(modulus, memo)
        size = (modulus.bit_length() + 7) // 8
        if noks * (4 + size) > len(data) - pos:
            raise WireDecodeError("bundle ends inside a verdict vector's NOKs")
    verdicts: List[Any] = []
    for code in codes:
        if code == 2:
            (index,) = _U32.unpack_from(data, pos)
            residue = int.from_bytes(data[pos + 4:pos + 4 + size], "little")
            pos += 4 + size
            if residue >= field.modulus:
                raise WireDecodeError("NOK value is not a residue of its modulus")
            verdicts.append((NOK, index, FieldElement(residue, field)))
        else:
            verdicts.append(OK_SLOT if code else None)
    price = 2 * slots + (noks * (64 + field.element_bits()) if noks else 0)
    return tuple(verdicts), pos, price


def _r_bundle(data: bytes, start: int, memo: Optional[DecodeMemo]) -> tuple:
    """Decode the bundle line whose ``'B'`` is at ``data[start]``, priced as
    it is read -- or, if ``memo`` holds these exact bytes, hand back the
    bundle they decoded to.  Peer bytes: the line's length, the entry count
    and every vector length are checked against the bytes left before
    anything is sized from them, the entries must end exactly at the length,
    and whatever else is wrong with them (struct, index, unicode, recursion)
    leaves as one WireDecodeError."""
    try:
        (length,) = _U32.unpack_from(data, start + 1)
        end = start + 5 + length
        if end > len(data):
            raise WireDecodeError(
                f"bundle claims {length} bytes with {len(data) - start - 5} left")
        line = bytes(data[start:end])
        if memo is not None:
            memo.decoded += 1
            bundle = memo.bundles.get(line)
            if bundle is not None:
                memo.hits += 1
                return bundle, end
        n = line[5]
        (count,) = _U32.unpack_from(line, 6)
        pos = _BUNDLE_HEAD
        if n == 0 or count > len(line) - pos:
            raise WireDecodeError(
                f"bundle of n={n} claims {count} entries with {len(line) - pos} bytes left")
        entries, price = [], 0
        for _ in range(count):
            entry, pos, bits = _r_bundle_entry(line, pos, n, memo)
            entries.append(entry)
            price += bits
        if pos != len(line):
            raise WireDecodeError(
                f"bundle entries end at byte {pos} of a {len(line)}-byte line")
    except WireDecodeError:
        raise
    except Exception as exc:  # noqa: BLE001 - see the docstring
        raise WireDecodeError(f"bundle does not decode: {exc!r}") from exc
    bundle = Bundle(tuple(entries), n, wire=line, bits=price)
    if memo is not None:
        try:
            hash(bundle)
        except TypeError:
            return bundle, end  # a mutable entry: never shared
        memo.keep(line, bundle)
    return bundle, end


def _of_one_field(items: list) -> bool:
    """Whether ``items`` are all field elements of one field object."""
    if not isinstance(items[0], FieldElement):
        return False
    field = items[0].field
    return all(isinstance(item, FieldElement) and item.field is field for item in items)


def _encode(buf: bytearray, obj: Any) -> None:
    if obj is None:
        buf += b"N"
    elif obj is True:
        buf += b"T"
    elif obj is False:
        buf += b"F"
    elif type(obj) is int:
        buf += b"i"
        _w_int(buf, obj)
    elif type(obj) is float:
        buf += b"f"
        buf += _F64.pack(obj)
    elif type(obj) is str:
        raw = obj.encode("utf-8")
        buf += b"s"
        _w_uint(buf, len(raw))
        buf += raw
    elif type(obj) is bytes:
        buf += b"y"
        _w_uint(buf, len(obj))
        buf += obj
    elif type(obj) is list and obj and _of_one_field(obj):
        buf += b"L"
        _w_residues(buf, obj[0].field.modulus, [element.value for element in obj])
    elif type(obj) is tuple or type(obj) is list:
        buf += b"t" if type(obj) is tuple else b"l"
        _w_uint(buf, len(obj))
        for item in obj:
            _encode(buf, item)
    elif type(obj) is set or type(obj) is frozenset:
        buf += b"S" if type(obj) is set else b"Z"
        _w_uint(buf, len(obj))
        for item in obj:
            _encode(buf, item)
    elif type(obj) is dict:
        buf += b"d"
        _w_uint(buf, len(obj))
        for key, value in obj.items():
            _encode(buf, key)
            _encode(buf, value)
    elif isinstance(obj, FieldElement):
        buf += b"E"
        _w_int(buf, obj.field.modulus)
        _w_int(buf, obj.value)
    elif isinstance(obj, Polynomial):
        buf += b"P"
        _w_residues(buf, obj.field.modulus, obj.residues)
    elif isinstance(obj, PackedFieldVector):
        buf += b"V"
        _w_residues(buf, obj.field.modulus, obj.values)
    elif type(obj) is Bundle:
        buf += _bundle_bytes(obj)
    elif isinstance(obj, PackedPolynomialRows):
        buf += b"R"
        _w_residues(buf, obj.vector.field.modulus, obj.vector.values)
        _w_uint(buf, len(obj.lengths))
        for length in obj.lengths:
            _w_int(buf, length)
    else:
        raise TypeError(f"no wire encoding for {type(obj).__name__} values")


def _decode(data: bytes, pos: int, memo: Optional[DecodeMemo]) -> tuple:
    tag = data[pos:pos + 1]
    pos += 1
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"F":
        return False, pos
    if tag == b"i":
        return _r_int(data, pos)
    if tag == b"f":
        (value,) = _F64.unpack_from(data, pos)
        return value, pos + 8
    if tag == b"s":
        (length,) = _U32.unpack_from(data, pos)
        pos += 4
        return data[pos:pos + length].decode("utf-8"), pos + length
    if tag == b"y":
        (length,) = _U32.unpack_from(data, pos)
        pos += 4
        return bytes(data[pos:pos + length]), pos + length
    if tag in (b"t", b"l", b"S", b"Z"):
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode(data, pos, memo)
            items.append(item)
        if tag == b"t":
            return tuple(items), pos
        if tag == b"l":
            return items, pos
        if tag == b"S":
            return set(items), pos
        return frozenset(items), pos
    if tag == b"d":
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        out = {}
        for _ in range(count):
            key, pos = _decode(data, pos, memo)
            value, pos = _decode(data, pos, memo)
            out[key] = value
        return out, pos
    if tag == b"E":
        modulus, pos = _r_int(data, pos)
        value, pos = _r_int(data, pos)
        return FieldElement(value, _field(modulus, memo)), pos
    if tag == b"L":
        field, values, pos = _r_residues(data, pos, memo)
        return [FieldElement(value, field) for value in values], pos
    if tag == b"P":
        field, values, pos = _r_residues(data, pos, memo)
        return Polynomial.from_reduced_ints(field, values), pos
    if tag == b"V":
        field, values, pos = _r_residues(data, pos, memo)
        return PackedFieldVector(field, values, _normalized=True), pos
    if tag == b"R":
        field, values, pos = _r_residues(data, pos, memo)
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        lengths = []
        for _ in range(count):
            length, pos = _r_int(data, pos)
            lengths.append(length)
        vector = PackedFieldVector(field, values, _normalized=True)
        return PackedPolynomialRows(vector, tuple(lengths)), pos
    if tag == b"B":
        return _r_bundle(data, pos - 1, memo)
    raise WireDecodeError(f"unknown wire tag {tag!r} at offset {pos - 1}")


def encode_payload(obj: Any) -> bytes:
    """Encode one payload value to its typed binary form."""
    buf = bytearray()
    _encode(buf, obj)
    return bytes(buf)


def decode_payload(data: bytes, memo: Optional[DecodeMemo] = None) -> Any:
    """Decode a payload produced by :func:`encode_payload` (through ``memo``
    if given: see :class:`DecodeMemo`)."""
    obj, pos = _decode(data, 0, memo)
    if pos != len(data):
        raise WireDecodeError(
            f"trailing garbage after payload ({len(data) - pos} bytes)"
        )
    return obj


def encode_message(message: Message) -> bytes:
    """Encode a full Message (routing header + tag + payload), unframed."""
    buf = bytearray()
    buf += _HEADER.pack(message.sender, message.recipient, message.send_time)
    tag = message.tag.encode("utf-8")
    _w_uint(buf, len(tag))
    buf += tag
    _encode(buf, message.payload)
    return bytes(buf)


def decode_message(data: bytes, memo: Optional[DecodeMemo] = None) -> Message:
    """Decode :func:`encode_message` output back to an equivalent Message
    (through ``memo`` if given).

    Off a socket the header's time is the entry's due instant (it comes back
    as ``send_time``); one that is not finite has no place in a scheduler's
    order and is a ``WireDecodeError``.  The codec preserves
    ``payload_bits``, so sender- and receiver-side accounting agree.
    """
    sender, recipient, time = _HEADER.unpack_from(data, 0)
    if not isfinite(time):
        raise WireDecodeError(f"message time {time!r} is not finite")
    pos = _HEADER.size
    (length,) = _U32.unpack_from(data, pos)
    pos += 4
    tag = data[pos:pos + length].decode("utf-8")
    pos += length
    payload, pos = _decode(data, pos, memo)
    if pos != len(data):
        raise WireDecodeError(
            f"trailing garbage after message ({len(data) - pos} bytes)"
        )
    return Message(sender, recipient, tag, payload, time)


def encode_entry(message: Message, due: float, memo: Dict[int, bytes]) -> bytes:
    """One envelope entry: :func:`encode_message` output behind its length,
    with ``due`` as the header's time.

    ``memo`` maps ``id(payload)`` to that payload's encoding, so the object a
    ``send_all`` hands to every recipient is encoded once per flush.  The
    caller owns it and must drop it with the flush: it is only sound while
    the messages it saw are alive and no handler has run in between.
    """
    payload = message.payload
    encoded = memo.get(id(payload))
    if encoded is None:
        encoded = memo[id(payload)] = encode_payload(payload)
    tag = message.tag.encode("utf-8")
    return _ENTRY_HEAD.pack(
        _HEADER.size + 4 + len(tag) + len(encoded),
        message.sender, message.recipient, due, len(tag),
    ) + tag + encoded


def encode_envelope(entries: Sequence[bytes]) -> bytes:
    """Join one channel's :func:`encode_entry` outputs behind their count."""
    return _U32.pack(len(entries)) + b"".join(entries)


def decode_envelope(data: bytes, offset: int = 0,
                    memo: Optional[DecodeMemo] = None) -> List[Message]:
    """Decode the envelope at ``data[offset:]``: its messages, emission order
    (a socket receiver passes its session's ``memo``).

    Returns at least one message, all of one ``(sender, recipient)`` channel,
    each carrying its entry's ``due`` as ``send_time``, or raises
    :class:`WireDecodeError` -- for a count or length that overruns the
    buffer (checked before anything is sized from it), an entry that does
    not decode (a ``due`` that is not finite included), a second channel, or
    trailing bytes.
    """
    end = len(data)
    if end - offset < 4:
        raise WireDecodeError("envelope is shorter than its count field")
    (count,) = _U32.unpack_from(data, offset)
    pos = offset + 4
    if count < 1 or count * _MIN_ENTRY_BYTES > end - pos:
        raise WireDecodeError(
            f"envelope claims {count} entries with {end - pos} bytes left"
        )
    messages: List[Message] = []
    for index in range(count):
        if end - pos < 4:
            raise WireDecodeError(f"envelope ends before entry {index}")
        (length,) = _U32.unpack_from(data, pos)
        pos += 4
        if length > end - pos:
            raise WireDecodeError(
                f"entry {index} claims {length} bytes with {end - pos} left"
            )
        try:
            message = decode_message(data[pos:pos + length], memo)
        except WireDecodeError:
            raise
        except Exception as exc:  # noqa: BLE001 - peer bytes: struct, index,
            # unicode and constructor errors, as one type
            raise WireDecodeError(f"entry {index} does not decode: {exc!r}") from exc
        pos += length
        messages.append(message)
    if pos != end:
        raise WireDecodeError(f"trailing garbage after envelope ({end - pos} bytes)")
    channel = (messages[0].sender, messages[0].recipient)
    for message in messages:
        if (message.sender, message.recipient) != channel:
            raise WireDecodeError(
                f"envelope of channel {channel} carries an entry for "
                f"{(message.sender, message.recipient)}"
            )
    return messages


def frame(body: bytes) -> bytes:
    """Prefix a body with its 4-byte big-endian length."""
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES")
    return _U32.pack(len(body)) + body


async def read_frame(reader: asyncio.StreamReader) -> bytes:
    """Read one length-prefixed frame; raises IncompleteReadError at EOF."""
    header = await reader.readexactly(4)
    (length,) = _U32.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"incoming frame of {length} bytes exceeds MAX_FRAME_BYTES")
    return await reader.readexactly(length)

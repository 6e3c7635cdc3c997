"""Length-prefixed wire codec for :class:`~repro.sim.messages.Message`.

The TCP transport moves protocol messages between party processes as
*frames*: a 4-byte big-endian length prefix followed by a typed binary body.
A data frame's body carries an *envelope* -- everything one channel has to
move in one flush::

    envelope := count:u32  entry * count        (count >= 1)
    entry    := length:u32  encode_message(message)

All entries of an envelope share one ``(sender, recipient)`` channel.
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
* a broadcast :class:`~repro.broadcast.bc.Bundle`, as the bitmaps its price
  list counts (:func:`_bundle_bytes`): built once per object and kept on it,
  so the ~9 fan-outs a party makes of one bundle encode it once; the decoder
  keeps the slice it read as the new object's encoding,
* a pickle fallback for anything else (e.g. payloads forged by Byzantine
  :class:`~repro.sim.adversary.Behavior` hooks).  Frames are only ever
  exchanged between processes spawned by the same launcher from the same
  code base, which is the standing trust assumption for pickle here.
  Nothing inside a bundle is ever unpickled.

The codec is accounting-transparent: decoding reconstructs payloads whose
:func:`~repro.sim.messages.payload_bits` equals the sender's, so the
per-party communication metrics agree with the in-process backends.
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from typing import Any, Dict, List, Sequence

from repro.broadcast.acast import PackedFieldVector
from repro.broadcast.bc import (
    ABSENT,
    NOK,
    OK_SLOT,
    OTHER,
    STAR,
    VERDICTS,
    VOTES,
    Bundle,
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
_HEADER = struct.Struct(">iid")  # sender, recipient, send_time
_F64 = struct.Struct(">d")
#: An envelope entry up to its tag: entry length, routing header, tag length.
_ENTRY_HEAD = struct.Struct(">IiidI")
#: The smallest entry a peer can honestly send: its length field, the
#: routing header, an empty tag's length and a one-byte payload.
_MIN_ENTRY_BYTES = _ENTRY_HEAD.size + 1


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


def _r_residues(data: bytes, pos: int) -> tuple:
    modulus, pos = _r_int(data, pos)
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
    return modulus, values, pos


def _bundle_bytes(bundle: Bundle) -> bytes:
    """``bundle``'s encoding, built on first use and kept on the object::

        bundle := 'B'  n:u8  count:u32  entry * count
        entry  := ABSENT
                | VOTES     k:u8  two bits a slot: 0 none, 1 vote 0, 2 vote 1
                | VERDICTS  k:u8  two bits a slot: 0 none, 1 OK, 2 NOK
                            [modulus:int  (index:u32 residue) per NOK, if any]
                | STAR      k:u8  n bits a set: bit (id - 1) of set s at s*n
                | OTHER     value, in the general codec

    (:func:`~repro.broadcast.bc.entry_kind` picks the line, as it does for
    the bit count.)  ``n`` outside 1..255 has no encoding: ValueError.
    """
    if bundle.wire is not None:
        return bundle.wire
    n = bundle.n
    if not 0 < n < 256:
        raise ValueError(f"a bundle among {n} parties has no wire encoding")
    buf = bytearray((ord("B"), n))
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
    bundle.wire = bytes(buf)
    return bundle.wire


def _r_bitmap(data: bytes, pos: int, bits: int) -> tuple:
    size = (bits + 7) // 8
    if size > len(data) - pos:
        raise WireDecodeError(f"a {bits}-bit map with {len(data) - pos} bytes left")
    return int.from_bytes(data[pos:pos + size], "little"), pos + size


def _r_bundle_entry(data: bytes, pos: int, n: int) -> tuple:
    kind = data[pos]
    pos += 1
    if kind == ABSENT:
        return None, pos
    if kind == OTHER:
        return _decode(data, pos, unpickle=False)
    if kind not in (VOTES, VERDICTS, STAR):
        raise WireDecodeError(f"unknown bundle entry kind {kind}")
    slots = data[pos]
    pos += 1
    if kind == STAR:
        bits, pos = _r_bitmap(data, pos, slots * n)
        return tuple(
            frozenset(pid for pid in range(1, n + 1) if bits >> (s * n + pid - 1) & 1)
            for s in range(slots)
        ), pos
    bits, pos = _r_bitmap(data, pos, 2 * slots)
    codes = [bits >> (2 * index) & 3 for index in range(slots)]
    if 3 in codes:
        raise WireDecodeError("slot code 3 in a bundle vector")
    if kind == VOTES:
        return tuple(None if code == 0 else code - 1 for code in codes), pos
    field = size = None
    if 2 in codes:
        modulus, pos = _r_int(data, pos)
        if modulus < 2:
            raise WireDecodeError(f"NOK values over the modulus {modulus}")
        size = (modulus.bit_length() + 7) // 8
        if codes.count(2) * (4 + size) > len(data) - pos:
            raise WireDecodeError("bundle ends inside a verdict vector's NOKs")
        field = GF(modulus, check_prime=False)
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
    return tuple(verdicts), pos


def _r_bundle(data: bytes, start: int) -> tuple:
    """Decode the bundle whose ``'B'`` is at ``data[start]``.  Peer bytes: the
    entry count and every vector length are checked against the bytes left
    before anything is sized from them, and whatever else is wrong with them
    (struct, index, unicode, recursion) leaves as one WireDecodeError."""
    try:
        n = data[start + 1]
        (count,) = _U32.unpack_from(data, start + 2)
        pos = start + 6
        if n == 0 or count > len(data) - pos:
            raise WireDecodeError(
                f"bundle of n={n} claims {count} entries with {len(data) - pos} bytes left")
        entries = []
        for _ in range(count):
            entry, pos = _r_bundle_entry(data, pos, n)
            entries.append(entry)
    except WireDecodeError:
        raise
    except Exception as exc:  # noqa: BLE001 - see the docstring
        raise WireDecodeError(f"bundle does not decode: {exc!r}") from exc
    return Bundle(tuple(entries), n, wire=bytes(data[start:pos])), pos


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
        raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        buf += b"p"
        _w_uint(buf, len(raw))
        buf += raw


def _decode(data: bytes, pos: int, unpickle: bool = True) -> tuple:
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
            item, pos = _decode(data, pos, unpickle)
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
            key, pos = _decode(data, pos, unpickle)
            value, pos = _decode(data, pos, unpickle)
            out[key] = value
        return out, pos
    if tag == b"E":
        modulus, pos = _r_int(data, pos)
        value, pos = _r_int(data, pos)
        return FieldElement(value, GF(modulus, check_prime=False)), pos
    if tag == b"P":
        modulus, values, pos = _r_residues(data, pos)
        field = GF(modulus, check_prime=False)
        return Polynomial.from_reduced_ints(field, list(values)), pos
    if tag == b"V":
        modulus, values, pos = _r_residues(data, pos)
        field = GF(modulus, check_prime=False)
        return PackedFieldVector(field, values, _normalized=True), pos
    if tag == b"R":
        modulus, values, pos = _r_residues(data, pos)
        field = GF(modulus, check_prime=False)
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        lengths = []
        for _ in range(count):
            length, pos = _r_int(data, pos)
            lengths.append(length)
        vector = PackedFieldVector(field, values, _normalized=True)
        return PackedPolynomialRows(vector, tuple(lengths)), pos
    if tag == b"B":
        return _r_bundle(data, pos - 1)
    if tag == b"p" and unpickle:
        (length,) = _U32.unpack_from(data, pos)
        pos += 4
        return pickle.loads(data[pos:pos + length]), pos + length
    raise WireDecodeError(f"unknown wire tag {tag!r} at offset {pos - 1}")


def encode_payload(obj: Any) -> bytes:
    """Encode one payload value to its typed binary form."""
    buf = bytearray()
    _encode(buf, obj)
    return bytes(buf)


def decode_payload(data: bytes) -> Any:
    """Decode a payload produced by :func:`encode_payload`."""
    obj, pos = _decode(data, 0)
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


def decode_message(data: bytes) -> Message:
    """Decode :func:`encode_message` output back to an equivalent Message.

    The receiver-side Message recomputes ``bits`` from the decoded payload;
    the codec preserves ``payload_bits`` exactly, so sender- and
    receiver-side accounting agree.
    """
    sender, recipient, send_time = _HEADER.unpack_from(data, 0)
    pos = _HEADER.size
    (length,) = _U32.unpack_from(data, pos)
    pos += 4
    tag = data[pos:pos + length].decode("utf-8")
    pos += length
    payload, pos = _decode(data, pos)
    if pos != len(data):
        raise WireDecodeError(
            f"trailing garbage after message ({len(data) - pos} bytes)"
        )
    return Message(sender, recipient, tag, payload, send_time)


def encode_entry(message: Message, memo: Dict[int, bytes]) -> bytes:
    """One envelope entry: :func:`encode_message` output behind its length.

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
        message.sender, message.recipient, message.send_time, len(tag),
    ) + tag + encoded


def encode_envelope(entries: Sequence[bytes]) -> bytes:
    """Join one channel's :func:`encode_entry` outputs behind their count."""
    return _U32.pack(len(entries)) + b"".join(entries)


def decode_envelope(data: bytes, offset: int = 0) -> List[Message]:
    """Decode the envelope at ``data[offset:]``: its messages, emission order.

    Returns at least one message, all of one ``(sender, recipient)`` channel,
    or raises :class:`WireDecodeError` -- for a count or length that
    overruns the buffer (checked before anything is sized from it), an
    entry that does not decode, a second channel, or trailing bytes.
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
            message = decode_message(data[pos:pos + length])
        except WireDecodeError:
            raise
        except Exception as exc:  # noqa: BLE001 - peer bytes: struct, index,
            # unicode and whatever the pickle fallback raises, as one type
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

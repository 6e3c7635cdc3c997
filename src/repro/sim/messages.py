"""Messages exchanged over the simulated pairwise channels."""

from __future__ import annotations

from typing import Any, Optional

from repro.field.gf import FieldElement
from repro.field.polynomial import Polynomial

#: Fixed per-message header overhead (sender, tag routing, type) in bits.
HEADER_BITS = 64


class Message:
    """A point-to-point message on an authenticated channel.

    ``tag`` is the hierarchical protocol-instance address (e.g.
    ``"acs/vss[3]/wps[2]/ba"``); ``payload`` is an arbitrary picklable value
    whose communication cost is measured by :func:`payload_bits`.  ``bits``
    is the message's size when the caller has already measured this very
    payload (the copies of one fan-out); otherwise it is measured here.
    """

    __slots__ = ("sender", "recipient", "tag", "payload", "send_time", "bits")

    def __init__(
        self,
        sender: int,
        recipient: int,
        tag: str,
        payload: Any,
        send_time: float,
        bits: Optional[int] = None,
    ):
        self.sender = sender
        self.recipient = recipient
        self.tag = tag
        self.payload = payload
        self.send_time = send_time
        self.bits = message_bits(payload) if bits is None else bits

    def __repr__(self) -> str:
        return (
            f"Message({self.sender}->{self.recipient}, tag={self.tag!r}, "
            f"payload={self.payload!r})"
        )


def message_bits(payload: Any) -> int:
    """Size on the wire of a message carrying ``payload``: header + payload."""
    return HEADER_BITS + payload_bits(payload)


def payload_bits(payload: Any) -> int:
    """Estimate the size of a payload in bits.

    Field elements cost log|F| bits, integers 64 bits, booleans 1 bit,
    strings 8 bits per character; containers are summed recursively.  This is
    the accounting unit used for all communication-complexity experiments.
    """
    if type(payload) is tuple:
        # Nearly every payload is a flat tuple of ints and strs (or one
        # nested in another), and a sharing post's vectors are mostly None:
        # add those up without recursing or walking the isinstance chain.
        # Exact types only, so a bool still costs 1 bit.
        total = 0
        for item in payload:
            kind = type(item)
            if kind is int:
                total += 64
            elif kind is str:
                total += 8 * len(item)
            elif item is None:
                total += 1
            else:
                total += payload_bits(item)
        return total
    if payload is None:
        return 1
    if isinstance(payload, FieldElement):
        return payload.field.element_bits()
    if isinstance(payload, Polynomial):
        # One element per coefficient, without boxing any of them.
        return len(payload.residues) * payload.field.element_bits()
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return 64
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return 8 * len(payload)
    if isinstance(payload, bytes):
        return 8 * len(payload)
    if isinstance(payload, (tuple, list, set, frozenset)):
        return sum(payload_bits(item) for item in payload)
    if isinstance(payload, dict):
        return sum(payload_bits(k) + payload_bits(v) for k, v in payload.items())
    # Payloads that know their own size report it.  PackedFieldVector and
    # PackedPolynomialRows are a faster representation of a value and account
    # exactly like the unpacked list, so packing never changes a transcript's
    # bit totals; a broadcast Bundle is a denser *encoding* and deliberately
    # does not: it reports what its bitmaps cost (repro.broadcast.bc).
    own_bits = getattr(payload, "payload_bits", None)
    if callable(own_bits):
        return own_bits()
    # Unknown objects: charge a conservative flat cost.
    return 128

"""Bracha's asynchronous reliable broadcast (Acast), Appendix A / Lemma 2.4.

A designated sender S broadcasts a message m.  With t < n/3 corruptions the
protocol guarantees (asynchronously) liveness and validity for an honest S,
and consistency for a corrupt S; in a synchronous network an honest sender's
message is output by every honest party within 3*Delta.

Packed payloads and bundles
---------------------------

Acast's echo/ready counting keys every received value into dictionaries, so
a long vector of field elements is wrapped into a :class:`PackedFieldVector`
(int residues, digest computed once) by :meth:`AcastProtocol.provide_input`
and :meth:`AcastProtocol.start`; ``elements()`` recovers the boxed elements,
and the bits are counted as for the unpacked vector.

The carriers of :mod:`repro.broadcast.bc` and :mod:`repro.ba.aba` send a
:class:`Bundle`: positional entries as one value, hashed, priced and encoded
once per object.  The paper prices a ΠBC by the length ℓ of what is
broadcast, and :meth:`Bundle.payload_bits` prices each entry by its shape
(:func:`entry_kind` names the line):

==========================================================  =======================
an absent entry (``None``)                                  1 bit
a vector over {``None``, 0, 1} (a bank's votes)             2 bits per slot
a vector of ``None`` / OK / NOK verdicts                    2 bits per slot, plus
                                                            64 + log|F| per NOK
a tuple of sets of party ids in 1..n (a dealer's W, E, F)   n bits per set
anything else                                               ``payload_bits(entry)``
==========================================================  =======================

:mod:`repro.runtime.wire` encodes a bundle as exactly those bitmaps, so the
bits counted are the bytes a TCP run moves.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.field.array import FieldArray
from repro.field.gf import GF, FieldElement
from repro.field.kernels import normalize
from repro.sim.messages import payload_bits
from repro.sim.party import Party, ProtocolInstance

_INIT = "init"
_ECHO = "echo"
_READY = "ready"


def acast_time_bound(delta: float) -> float:
    """Time by which honest parties output for an honest sender (sync): 3*Delta."""
    return 3.0 * delta


class PackedFieldVector:
    """A broadcast payload carrying many field elements as one packed vector.

    Stores plain int residues (the :class:`FieldArray` encoding) and caches
    its hash, so Bracha-style echo/ready counting pays one digest per payload
    object instead of one per element per dict operation.
    """

    __slots__ = ("field", "values", "_digest")

    def __init__(self, field: GF, values: Sequence, _normalized: bool = False):
        self.field = field
        self.values = tuple(values if _normalized else normalize(field.modulus, values))
        self._digest = hash((field.modulus, self.values))

    @classmethod
    def pack(cls, field: GF, elements: Sequence[FieldElement]) -> "PackedFieldVector":
        return cls(field, FieldArray.from_elements(field, list(elements)).values,
                   _normalized=True)

    def elements(self) -> List[FieldElement]:
        """Decode back to boxed field elements (via FieldArray)."""
        return FieldArray(self.field, self.values, _normalized=True).to_elements()

    def as_array(self) -> FieldArray:
        return FieldArray(self.field, self.values, _normalized=True)

    def payload_bits(self) -> int:
        """Same accounting as the unpacked element list (see sim.messages)."""
        return len(self.values) * self.field.element_bits()

    def __len__(self) -> int:
        return len(self.values)

    def __hash__(self) -> int:
        return self._digest

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedFieldVector):
            return (
                self._digest == other._digest
                and self.field.modulus == other.field.modulus
                and self.values == other.values
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"PackedFieldVector(len={len(self.values)})"


def maybe_pack_payload(message: Any) -> Any:
    """Pack a homogeneous vector of field elements.

    Anything that is not a list/tuple of at least two same-field
    :class:`FieldElement` values passes through untouched.
    """
    if isinstance(message, PackedFieldVector):
        return message
    if (
        isinstance(message, (list, tuple))
        and len(message) > 1
        and all(isinstance(v, FieldElement) for v in message)
    ):
        field = message[0].field
        if all(v.field.modulus == field.modulus for v in message):
            return PackedFieldVector.pack(field, message)
    return message


#: The lines of the price list; also the entry tags of the wire encoding.
ABSENT, VOTES, VERDICTS, STAR, OTHER = range(5)

#: A compact vector has at most this many slots (one length byte on the wire).
MAX_SLOTS = 255

#: The verdicts of :mod:`repro.sharing.wps` (which imports this module), by shape.
OK_SLOT = ("OK",)
NOK = "NOK"


def _is_verdict_vector(entry: Tuple) -> bool:
    """``None`` / ``("OK",)`` / ``("NOK", index, element)`` slots, the elements
    of one field, index a u32."""
    modulus = None
    for slot in entry:
        if slot is None:
            continue
        if type(slot) is not tuple or not slot or type(slot[0]) is not str:
            return False
        if slot == OK_SLOT:
            continue
        if not (len(slot) == 3 and slot[0] == NOK and type(slot[1]) is int
                and 0 <= slot[1] < 1 << 32 and type(slot[2]) is FieldElement):
            return False
        if modulus is None:
            modulus = slot[2].field.modulus
        elif slot[2].field.modulus != modulus:
            return False
    return True


def entry_kind(entry: Any, n: int) -> int:
    """The line of the price list ``entry`` falls on: its shape, exact types
    only (a ``bool`` is not a vote, a ``set`` is not a ``frozenset``)."""
    if entry is None:
        return ABSENT
    if type(entry) is not tuple or len(entry) > MAX_SLOTS:
        return OTHER
    if all(slot is None or (type(slot) is int and 0 <= slot <= 1) for slot in entry):
        return VOTES
    if _is_verdict_vector(entry):
        return VERDICTS
    if all(type(part) is frozenset
           and all(type(pid) is int and 1 <= pid <= n for pid in part) for part in entry):
        return STAR
    return OTHER


def entry_bits(entry: Any, n: int) -> int:
    """What one entry of a bundle among ``n`` parties costs (the price list)."""
    kind = entry_kind(entry, n)
    if kind == ABSENT:
        return 1
    if kind == VOTES:
        return 2 * len(entry)
    if kind == VERDICTS:
        return 2 * len(entry) + sum(
            64 + slot[2].field.element_bits() for slot in entry if slot and len(slot) == 3)
    if kind == STAR:
        return n * len(entry)
    return payload_bits(entry)


class Bundle:
    """What a carrier sends: the entries, as a value.

    ``entries`` are the Python values its ΠBCs (or slots) were given, untouched;
    ``n`` is the number of parties (the width of a party-id bitmap).  Hash,
    bit size and wire encoding are each computed on first use and kept, so
    Acast's and phase-king's tallies, :func:`~repro.sim.messages.payload_bits`
    and the TCP transport pay for one object once however often it is sent.
    A bundle with an unhashable entry is unhashable (``hash`` raises
    ``TypeError``, every time), like the tuple it replaces.
    """

    __slots__ = ("entries", "n", "_digest", "_bits", "wire")

    def __init__(self, entries: Tuple, n: int, wire: Optional[bytes] = None,
                 bits: Optional[int] = None):
        self.entries = tuple(entries)
        self.n = n
        self._digest: Optional[int] = None
        #: The price, if the caller knew it (the decoder reads each line).
        self._bits = bits
        #: The encoding, owned by :mod:`repro.runtime.wire`: set by the first
        #: encode, or by the decoder to the slice this object was read from.
        self.wire = wire

    def payload_bits(self) -> int:
        """The price list of the module docstring, summed over the entries."""
        if self._bits is None:
            self._bits = sum(entry_bits(entry, self.n) for entry in self.entries)
        return self._bits

    def __hash__(self) -> int:
        if self._digest is None:
            self._digest = hash((self.n, self.entries))
        return self._digest

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not Bundle:
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __repr__(self) -> str:
        return f"Bundle({len(self.entries)} entries, n={self.n})"


def vote_line(votes: Sequence[Optional[int]], n: int) -> Bundle:
    """ΠABA's and phase king's vote vectors: runs of at most :data:`MAX_SLOTS` slots."""
    return Bundle(tuple(tuple(votes[i:i + MAX_SLOTS]) for i in range(0, len(votes), MAX_SLOTS)), n)


def read_vote_line(value: Any, n: int, width: int) -> Optional[Tuple]:
    """A :func:`vote_line`'s ``width`` slots (their values unchecked), else ``None``."""
    if type(value) is not Bundle or value.n != n or not all(type(r) is tuple for r in value.entries):
        return None
    votes = tuple(vote for run in value.entries for vote in run)
    return votes if len(votes) == width else None


class AcastProtocol(ProtocolInstance):
    """One Acast instance.

    Every party instantiates the protocol with the same tag; only the party
    whose id equals ``sender`` uses ``message`` (its input).  The output is
    the delivered message (a :class:`PackedFieldVector` when the sender's
    input was a field-element vector).
    """

    def __init__(
        self,
        party: Party,
        tag: str,
        sender: int,
        faults: int,
        message: Any = None,
    ):
        super().__init__(party, tag)
        self.sender = sender
        self.faults = faults
        self.message = maybe_pack_payload(message) if message is not None else None
        self._echoed = False
        self._readied = False
        self._echo_counts: Dict[Any, Set[int]] = {}
        self._ready_counts: Dict[Any, Set[int]] = {}

    # -- thresholds ---------------------------------------------------------
    @property
    def _echo_threshold(self) -> int:
        # ceil((n + t + 1) / 2) distinct echo messages.
        return (self.n + self.faults + 2) // 2

    @property
    def _ready_amplify_threshold(self) -> int:
        return self.faults + 1

    @property
    def _ready_output_threshold(self) -> int:
        return 2 * self.faults + 1

    # -- protocol -----------------------------------------------------------
    def start(self) -> None:
        if self.me == self.sender and self.message is not None:
            self.send_all((_INIT, self.message))

    def provide_input(self, message: Any) -> None:
        """Late input injection for a sender that obtains m after start()."""
        self.message = maybe_pack_payload(message)
        if self.me == self.sender:
            self.send_all((_INIT, self.message))

    def receive(self, sender: int, payload: Any) -> None:
        """Total on what a peer may send: a payload that is not a ``(kind,
        value)`` pair, or whose value nobody can tally (unhashable), is absent."""
        try:
            kind, value = payload
        except (TypeError, ValueError):
            return
        if kind == _INIT:
            if sender != self.sender or self._echoed:
                return
            try:
                hash(value)
            except TypeError:
                return
            self._echoed = True
            self.send_all((_ECHO, value))
            return
        if kind != _ECHO and kind != _READY:
            return
        counts = self._echo_counts if kind == _ECHO else self._ready_counts
        try:
            voters = counts.setdefault(value, set())
        except TypeError:
            return
        if sender in voters:
            return
        voters.add(sender)
        if kind == _ECHO:
            if len(voters) >= self._echo_threshold and not self._readied:
                self._readied = True
                self.send_all((_READY, value))
            return
        if len(voters) >= self._ready_amplify_threshold and not self._readied:
            self._readied = True
            self.send_all((_READY, value))
        if len(voters) >= self._ready_output_threshold and not self.has_output:
            self.set_output(value)

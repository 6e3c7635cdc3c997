"""Bracha's asynchronous reliable broadcast (Acast), Appendix A / Lemma 2.4.

A designated sender S broadcasts a message m.  With t < n/3 corruptions the
protocol guarantees (asynchronously) liveness and validity for an honest S,
and consistency for a corrupt S; in a synchronous network an honest sender's
message is output by every honest party within 3*Delta.

Packed payloads
---------------

Acast's echo/ready counting keys every received value into dictionaries, so
broadcasting a long vector of field elements would hash and compare the
whole vector on every one of the O(n^2) protocol messages.  Such vectors are
therefore wrapped into a :class:`PackedFieldVector` -- int residues encoded
and decoded through :class:`~repro.field.array.FieldArray`, with the digest
computed once at construction -- so each dict lookup costs a single cached
hash instead of per-element hashing.  Packing happens transparently in
:meth:`AcastProtocol.provide_input`/:meth:`AcastProtocol.start`; the
delivered output is the packed vector, whose :meth:`PackedFieldVector.elements`
round-trips to the original boxed elements.  Bit accounting is identical to
the unpacked vector.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

from repro.field.array import FieldArray
from repro.field.gf import GF, FieldElement
from repro.field.kernels import get_kernel
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
        if _normalized:
            self.values = tuple(values)
        else:
            # Vectorized residue reduction under the numpy kernel (long
            # payload vectors are the whole point of packing).
            kernel = get_kernel()
            self.values = tuple(
                kernel.to_list(kernel.normalize(field.modulus, values))
            )
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

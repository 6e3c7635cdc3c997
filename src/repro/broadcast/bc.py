"""ΠBC: synchronous broadcast with asynchronous guarantees (Fig 1 / Thm 3.5).

The sender Acasts its message; at (relative) time 3Δ every party feeds the
Acast output (or ⊥) into an instance of the phase-king SBA; at time
3Δ + T_BGP the regular-mode output is the Acast value if it matches the SBA
output, and ⊥ otherwise.  Parties that output ⊥ in regular mode later switch
to the Acast value through the fallback mode (needed by the VSS layer).

⊥ is represented by ``None``.  A field-element vector is packed once into a
:class:`~repro.broadcast.acast.PackedFieldVector` (one cached digest for the
echo/ready counting and the SBA tallies); the output is then the packed
vector, and ``output.elements()`` recovers the boxed elements.

As built: one run of Fig 1 per sender per instant
-------------------------------------------------

The protocols above start their ΠBCs in large sibling groups at a handful
of commonly known anchors.  Fig 1 is therefore run once per (sender, anchor,
faults, Δ) at each party, by a :class:`BroadcastCarrier` whose value is the
*bundle*: a :class:`Bundle` of the inputs of every logical :class:`BroadcastProtocol`
of that sender anchored at that instant, in the order of their tags (``None``
= "no input by the anchor"), sent at the anchor even if all ``None``.  A
logical ΠBC is an entry of its carrier: it gets its regular-mode output at
anchor + T_BC and its fallback output when the carrier's Acast delivers,
exactly when its own Fig 1 run would have handed them out.  An input given
after the bundle went out (Fig 1's late sender) travels on that entry's own
bare Acast and is read *bundle first*: only once the bundle has been
delivered, in either mode, and lacks the entry.  That Acast is built by the late
input or the first message for it: an absent endpoint is one with no output.

The carrier's tag is ``<root>/bc@<ticks>[<sender>]``: ``root`` the first
component of the logical tags, ``ticks`` the anchor's distance from the root
instance's anchor in units of ε(Δ) -- anchors are sums of multiples of Δ and
ε, so this is an exact integer every party computes alike without reading a
clock.  The entries are the endpoints started before the carrier's anchor
timer fires; starting one later raises :class:`CarrierError`.

Why each logical ΠBC still meets Theorem 3.5 and Lemma 2.4, as a reduction
to k separate runs of Fig 1.  The carrier *is* Fig 1, run in full on the
bundle, so Theorem 3.5 holds for the bundle as the broadcast value; call
entry e of the delivered bundle, with the bundle's mode and time, the
*effective* broadcast of logical ΠBC e -- or, if that entry is ``None``, the
output of e's late Acast in fallback mode, at the later of its delivery and
the bundle's.

1. Honest sender, synchronous network.  The bundle holds every input the
   sender had at the anchor (whoever gives one *at* the anchor does so from
   inside the carrier's own anchor timer, :meth:`BroadcastProtocol.at_anchor`,
   so no backend can order the two the other way), and is regular-mode
   delivered to every honest party at anchor + T_BC (t-validity of the
   carrier): so is each entry -- t-liveness and t-validity of e.
2. Honest sender, any network.  Every honest party's regular-mode bundle is
   the sender's or ⊥, and the sender's bundle is eventually delivered in
   fallback mode (weak and fallback validity of the carrier): entry by entry
   the same statements for e.  A late input is delivered by Acast validity
   (Lemma 2.4) after a bundle that always arrives and has ``None`` at e.
3. Corrupt sender.  Honest parties that obtain a bundle obtain the same one,
   all of them at anchor + T_BC if any does so in regular mode in synchrony,
   and within 2Δ of each other in fallback mode (t-consistency and fallback
   consistency of the carrier; Lemma 2.4's spread): hence the same entry e
   with the same guarantees.  Where e is ``None`` the late Acast's
   consistency gives one common value, again within 2Δ, and whether it
   counts is a function of the common bundle.
4. The adversary gains nothing: a present entry is an input to ΠBC e given
   on time, a ``None`` entry with a late Acast one given late (fallback mode
   only), a ``None`` entry alone no input, a withheld bundle no input to any
   of the k (late Acasts are then never read), a value that is not a
   :class:`Bundle` of the agreed length -- a plain tuple of that length
   included -- the all-``None`` bundle (:meth:`BroadcastCarrier._parse`),
   one with an unhashable entry dropped by Acast and SBA like any unhashable
   value, and a late Acast contradicting a present entry is ignored like a
   second input to one ΠBC.  All-or-none delivery of k inputs is a behaviour
   k separate ΠBCs allow.  Each entry still passes its consumer's own total
   parser, as the Python value the sender put in: the type prices and encodes
   entries by their shape and never rejects or rewrites one.
   Privacy: a bundle reveals exactly what the k broadcasts reveal.

What a bundle costs
-------------------

The paper prices a ΠBC by the length ℓ of what is broadcast, and what rides
a bundle is a few bits an entry.  :meth:`Bundle.payload_bits` is that price,
entry by entry (:func:`entry_kind` names the line):

==========================================================  =======================
an absent entry (``None``)                                  1 bit
a vector over {``None``, 0, 1} (a bank's votes)             2 bits per slot
a vector of ``None`` / OK / NOK verdicts                    2 bits per slot, plus
                                                            64 + log|F| per NOK
a tuple of sets of party ids in 1..n (a dealer's W, E, F)   n bits per set
anything else                                               ``payload_bits(entry)``
==========================================================  =======================

:mod:`repro.runtime.wire` encodes a bundle as exactly those bitmaps, so the
bits counted are the bytes a TCP run moves.  Price, digest and encoding are
each computed once per object: the 81 copies Fig 1 makes of a bundle at
n = 4 (Acast's 27, phase-king's 54) share them.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.ba.sba import PhaseKingSBA, sba_time_bound
from repro.broadcast.acast import AcastProtocol, maybe_pack_payload
from repro.field.gf import FieldElement
from repro.sim.messages import payload_bits
from repro.sim.party import Party, ProtocolInstance
from repro.timing import epsilon


def bc_time_bound(n: int, t: int, delta: float) -> float:
    """T_BC: time (relative to the instance anchor) of the regular-mode output.

    The paper's T_BC is (12n-3)Δ for the recursive ΠBGP of [16]; with our
    phase-king instantiation it is 3Δ + 3(t+1)Δ, plus the simulation's
    tie-breaking epsilon.
    """
    return 3.0 * delta + sba_time_bound(n, t, delta) + 2 * epsilon(delta)


def carrier_tag(root: str, offset: float, sender: int, delta: float) -> str:
    """Tag of ``sender``'s carrier anchored ``offset`` after the ``root`` instance."""
    return f"{root}/bc@{round(offset / epsilon(delta))}[{sender}]"


class CarrierError(RuntimeError):
    """A logical ΠBC cannot join the carrier of its (sender, anchor)."""


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


def _entry_bits(entry: Any, n: int) -> int:
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
    """What a :class:`BroadcastCarrier` broadcasts: the entries, as a value.

    ``entries`` are the Python values the logical ΠBCs were given, untouched;
    ``n`` is the number of parties (the width of a party-id bitmap).  Hash,
    bit size and wire encoding are each computed on first use and kept, so
    Acast's and phase-king's tallies, :func:`~repro.sim.messages.payload_bits`
    and the TCP transport pay for one object once however often it is sent.
    A bundle with an unhashable entry is unhashable (``hash`` raises
    ``TypeError``, every time), like the tuple it replaces.
    """

    __slots__ = ("entries", "n", "_digest", "_bits", "wire")

    def __init__(self, entries: Tuple, n: int, wire: Optional[bytes] = None):
        self.entries = tuple(entries)
        self.n = n
        self._digest: Optional[int] = None
        self._bits: Optional[int] = None
        #: The encoding, owned by :mod:`repro.runtime.wire`: set by the first
        #: encode, or by the decoder to the slice this object was read from.
        self.wire = wire

    def payload_bits(self) -> int:
        """The price list of the module docstring, summed over the entries."""
        if self._bits is None:
            self._bits = sum(_entry_bits(entry, self.n) for entry in self.entries)
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


class BroadcastCarrier(ProtocolInstance):
    """Fig 1, once, for every ΠBC of ``sender`` anchored at ``anchor``."""

    def __init__(self, party: Party, tag: str, sender: int, faults: int,
                 anchor: float, delta: float):
        super().__init__(party, tag)
        self.sender = sender
        self.faults = faults
        self.anchor = anchor
        self.delta = delta
        #: The logical endpoints; positional (by tag) once :attr:`frozen`.
        self.entries: List[BroadcastProtocol] = []
        self.frozen = False
        #: The bundle as delivered, in either mode, entry per endpoint.
        self.bundle: Optional[Tuple] = None
        self._at_anchor: List[Callable[[], None]] = []
        self._acast: AcastProtocol = self.spawn(
            AcastProtocol, "acast", sender=sender, faults=faults
        )
        self._sba: Optional[PhaseKingSBA] = None

    def start(self) -> None:
        t_bc = bc_time_bound(self.n, self.faults, self.delta)
        self.schedule_at(self.anchor, self._publish)
        self.schedule_at(self.anchor + 3.0 * self.delta + epsilon(self.delta), self._start_sba)
        self.schedule_at(self.anchor + t_bc, self._decide_regular)
        self._acast.on_output(self._maybe_fallback)

    def _publish(self) -> None:
        """The anchor: inputs due now are given, then all of them ride one Acast."""
        for callback in self._at_anchor:
            callback()
        self.entries.sort(key=lambda endpoint: endpoint.tag)
        self.frozen = True
        if self.me == self.sender:
            # Set, not provide_input: a bundle is never packed as one vector.
            self._acast.message = Bundle(
                tuple(endpoint.message for endpoint in self.entries), self.n)
            self._acast.start()

    def _parse(self, bundle: Any) -> Tuple:
        """The trust boundary: the entries of a :class:`Bundle` of the frozen
        length, or those of the empty bundle."""
        if type(bundle) is Bundle and len(bundle.entries) == len(self.entries):
            return bundle.entries
        return (None,) * len(self.entries)

    def _start_sba(self) -> None:
        self._sba = self.spawn(
            PhaseKingSBA, "sba", faults=self.faults, delta=self.delta,
            value=self._acast.output if self._acast.has_output else None,
        )
        self._sba.start()

    def _decide_regular(self) -> None:
        acast_value = self._acast.output if self._acast.has_output else None
        sba_value = self._sba.output if (self._sba and self._sba.has_output) else None
        regular = acast_value if acast_value is not None and sba_value == acast_value else None
        self.set_output(regular)
        decided = self._parse(regular)  # ⊥ hands every entry ⊥, like the empty bundle
        if regular is not None:
            self.bundle = decided
        for endpoint, entry in zip(self.entries, decided):
            endpoint._decide(entry)
        # The Acast may already have delivered (fallback applies immediately).
        if regular is None and self._acast.has_output:
            self._maybe_fallback(self._acast.output)

    def _maybe_fallback(self, acast_value: Any) -> None:
        """Fallback mode: a ⊥ regular output switches to the Acast value."""
        if not self.has_output or self.bundle is not None or acast_value is None:
            return
        self.bundle = self._parse(acast_value)
        self.update_output(acast_value)
        for endpoint, entry in zip(self.entries, self.bundle):
            endpoint._fallback(entry)


class BroadcastProtocol(ProtocolInstance):
    """One logical ΠBC with a designated sender, an entry of its carrier.

    ``anchor`` is the commonly-known local time at which the instance starts
    counting (all its time-outs are relative to it); the enclosing protocol
    fixes it so that every honest party uses the same anchor.  The sender
    supplies its message at construction or via :meth:`provide_input`, by
    the anchor at the latest (a later input means the regular mode yields ⊥
    and delivery happens through the fallback mode, after the bundle's).
    """

    def __init__(
        self,
        party: Party,
        tag: str,
        sender: int,
        faults: int,
        message: Any = None,
        anchor: Optional[float] = None,
        delta: Optional[float] = None,
    ):
        super().__init__(party, tag)
        self.sender = sender
        self.faults = faults
        self.delta = delta if delta is not None else party.delta
        self.anchor = anchor
        self.message = maybe_pack_payload(message) if message is not None else None
        self.regular_output: Any = None
        self.regular_decided = False
        self._carrier: Optional[BroadcastCarrier] = None
        self._late: Optional[AcastProtocol] = None  # built by demand_child()

    # -- timing -------------------------------------------------------------
    @property
    def time_bound(self) -> float:
        return bc_time_bound(self.n, self.faults, self.delta)

    # -- input ---------------------------------------------------------------
    def provide_input(self, message: Any) -> None:
        """Sender-side: supply the message (field-element vectors are packed)."""
        self.message = maybe_pack_payload(message)
        if self.me == self.sender and self._carrier is not None and self._carrier.frozen:
            self.demand_child("acast").provide_input(self.message)

    def demand_child(self, name: str) -> Optional[AcastProtocol]:
        if name != "acast" or self._carrier is None:
            return None
        if self._late is None:
            self._late = self.spawn(AcastProtocol, "acast", sender=self.sender, faults=self.faults)
            self._late.on_output(self._read_late)
            self._late.start()
        return self._late

    def at_anchor(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the anchor, before the bundle goes out (after
        :meth:`start`): how an input determined *at* the anchor is given."""
        self._carrier._at_anchor.append(callback)

    # -- protocol --------------------------------------------------------------
    def start(self) -> None:
        if self.anchor is None:
            self.anchor = self.now
        root = self.tag.partition("/")[0]
        origin = getattr(self.party.get_instance(root), "anchor", None)
        if origin is None:
            raise CarrierError(f"{self.tag}: root instance {root!r} has no anchor")
        tag = carrier_tag(root, self.anchor - origin, self.sender, self.delta)
        carrier = self.party.get_instance(tag)
        if carrier is None:
            carrier = BroadcastCarrier(
                self.party, tag, self.sender, self.faults, self.anchor, self.delta
            )
            carrier.start()
        if carrier.frozen or (carrier.faults, carrier.delta) != (self.faults, self.delta):
            raise CarrierError(f"{self.tag} cannot join {carrier!r} (started late, or other t/Δ)")
        carrier.entries.append(self)
        self._carrier = carrier
        self.demand_buffered(("acast",))

    def _decide(self, entry: Any) -> None:
        """anchor + T_BC: my entry of the regular-mode bundle (None = ⊥)."""
        self.regular_output = entry
        self.regular_decided = True
        self.set_output(entry)
        if entry is None:
            self._read_late()

    def _fallback(self, entry: Any) -> None:
        """The bundle is delivered in fallback mode."""
        if entry is not None:
            self.update_output(entry)
        else:
            self._read_late()

    def _read_late(self, _value: Any = None) -> None:
        """Bundle first: a late input counts once the bundle is in and lacks it."""
        late = self._late.output if self._late is not None else None
        if self._carrier.bundle is not None and self.output is None and late is not None:
            self.update_output(late)

    # -- queries used by enclosing protocols -----------------------------------
    def output_via_regular_mode(self) -> Any:
        """The regular-mode output (None if ⊥ or not yet decided)."""
        return self.regular_output if self.regular_decided else None

    def on_delivery(self, callback) -> None:
        """Invoke ``callback(value)`` once a non-⊥ value is delivered.

        Fires immediately if a value is already available (regular mode);
        otherwise waits for the fallback mode (or, before the regular
        decision, for whichever mode delivers first).
        """
        if self.output is not None:
            callback(self.output)
            return

        def _filter(value: Any) -> None:
            if value is not None:
                callback(value)
            else:
                # Regular mode yielded ⊥; re-arm for the fallback delivery.
                self._output_callbacks.append(_filter)

        self._output_callbacks.append(_filter)

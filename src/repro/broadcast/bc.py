"""ΠBC: synchronous broadcast with asynchronous guarantees (Fig 1 / Thm 3.5).

The sender Acasts its message; at (relative) time 3Δ every party feeds the
Acast output (or ⊥) into an instance of the phase-king SBA; at time
3Δ + T_BGP the regular-mode output is the Acast value if it matches the SBA
output, and ⊥ otherwise.  Parties that output ⊥ in regular mode later switch
to the Acast value through the fallback mode (needed by the VSS layer).  As
built, the SBA agrees on one bit, "I hold the Acast value", and the SBAs of
the n senders' runs anchored at one instant share one phase-king bank
(below).

⊥ is represented by ``None``.  A field-element vector is packed once into a
:class:`~repro.broadcast.acast.PackedFieldVector` (one cached digest for the
echo/ready counting and the SBA tallies); the output is then the packed
vector, and ``output.elements()`` recovers the boxed elements.

As built: one run of Fig 1 per sender per instant
-------------------------------------------------

The protocols above start their ΠBCs in large sibling groups at a handful
of commonly known anchors.  Fig 1 is therefore run once per (sender, anchor,
faults, Δ) at each party, by a :class:`BroadcastCarrier` whose value is the
*bundle* (:class:`~repro.broadcast.acast.Bundle`, priced there): the inputs of
every logical :class:`BroadcastProtocol` of that sender anchored at that
instant, in the order of their tags (``None`` = "no input by the anchor"),
sent at the anchor even if all ``None``.  A logical ΠBC is an entry of its
carrier, a record the carrier owns and not a registered instance: it gets its
regular-mode output at anchor + T_BC and its fallback output when the
carrier's Acast delivers, exactly when its own Fig 1 run would have.  The
carrier's tag is ``<root>/bc@<ticks>[<sender>]``: ``root`` the first component
of the logical tags (a lone ΠBC is its own root), ``ticks`` the anchor's
:func:`~repro.timing.ticks` from the root's anchor.  It is a
:class:`~repro.sim.party.Gathering` frozen at the anchor (same instants).

The SBA stage: one binary phase-king bank per instant
-----------------------------------------------------

The carriers of all n senders anchored at one instant run their SBAs as one
binary :class:`~repro.ba.sba.PhaseKingSBA` of n slots,
``<root>/bc@<ticks>/sba``, slot s sender s's: each round a party sends one
vector of n votes at 2 bits a slot.  The first carrier of the instant at a
party builds the bank; its one timer, at anchor + 3Δ + ε, inputs slot s as
1 if carrier ``[s]``'s Acast has delivered here and 0 otherwise; a party
where that carrier does not exist inputs 0, as one whose Acast has not
delivered would, which any run allows.  At anchor + T_BC carrier s outputs its Acast
value if it holds it *and* slot s decided 1, and ⊥ otherwise.

Fig 1 runs the SBA on the Acast value itself, and its regular output is that
value iff the SBA output equals it.  By Acast consistency (Lemma 2.4) every
honest slot-s input is one value m_s or ⊥, so the SBA only has to agree on
which of the two it is: the bit.  The argument uses no hash, so the bank is
perfectly secure.

* Sync consistency.  If slot s decides 1, then by phase-king validity not
  every honest party input 0: some honest party held m_s at anchor + 3Δ + ε,
  and by the 2Δ spread of Lemma 2.4 every honest party holds m_s by
  anchor + 5Δ + ε, which is ≤ T_BC because T_BGP = 3(t+1)Δ ≥ 6Δ.  So every
  honest party outputs m_s in regular mode, or all output ⊥.
* Validity.  An honest sender's Acast delivers by anchor + 3Δ (Lemma 2.4), so
  every honest party inputs 1, the slot decides 1, and every honest party
  outputs the sender's value.
* Asynchrony.  Any non-⊥ regular output is the Acast value, m_s by Acast
  consistency; liveness comes from the timers alone: the bank outputs every
  slot at its start + T_BGP, whatever arrived.
* Lemma 3.2, slot by slot.  Binary phase king is a case of the multi-valued
  protocol.  Slot s's decision is a function of the slot-s components alone
  (tallies, candidate, strong flag and king value are per slot), and they
  follow the schedule of one run -- the same round instants, the same king
  per phase -- so T_BGP and all three properties of Lemma 3.2 hold for it.
* A corrupt party's options in the bank are a subset of its per-instance
  options.  One vector is one vote per slot, as n instances would take; it
  can withhold or garble all n of its votes in a round, which it could
  already do one instance at a time.  A payload that is not one vote line
  of n slots over {``None``, 0, 1} for one of the 3(t+1) rounds is absent in
  every slot, an absent king vector or king slot is 0, and the first payload
  per (sender, round) counts (:mod:`repro.ba.sba`).

Theorem 3.5 then holds per carrier, as argued below.

After the anchor of a carrier C, what its sender gives C's ΠBCs rides the
*late carriers*, Acasts ``<C>/late[k]`` it numbers k = 0, 1, ...: a late
input (Fig 1's late sender, read *bundle first*: once the bundle is in and
lacks the entry), or what an owner addresses to the entry instead
(:meth:`BroadcastProtocol.on_late`: :mod:`repro.sharing.wps` sends late
verdicts as slots of its vector's entry, (E', F') on its ``star``).  What is
given for one instant goes out from one timer of C as one bundle in C's
entry order -- positional, no tag strings, ``None`` where nothing is late.
A receiver builds ``late[k]`` once C froze and only below C's width n·|C|
(each honest late carrier holds an (entry, slot) never given before; an
entry has at most n slots), hands ``late[k]`` on only after
``late[0..k-1]``, and per (entry, slot) takes the first value.

Call an (entry, slot) a *name*: what the per-pair design ran one Acast for
(``ok[i,j]``, ``star2``, a late input).  First-in-sequence-order per name is
one Acast per name: each ``late[k]`` has one value at every honest party and
reaches all if it reaches one (Lemma 2.4, Bracha's totality), so all hand on
the same sequence and take the same first value for a name, once, within 2Δ
of each other in synchrony (the last of a common prefix of deliveries, each
within 2Δ).  An honest sender gives a name once and numbers without gaps, so
its names arrive (Acast validity), in synchrony within 3Δ of their flush.  A
corrupt sender's options are a subset of its per-name ones: names sharing a
carrier arrive together (a schedule the adversary could impose anyway); two
values for a name are one, the first; a withheld carrier silences its names
and every later carrier's (no input given); a malformed one -- not a
:class:`Bundle` of C's length, a plain tuple included -- is all-absent, an
ill-shaped entry absent, and the sequence goes on; a ``k`` past the width
builds nothing.  Only C's sender can fill in C's ΠBCs: its late Acasts take
its ``init`` alone.

Why each logical ΠBC still meets Theorem 3.5 and Lemma 2.4, as a reduction
to k separate runs of Fig 1.  The carrier *is* Fig 1, run in full on the
bundle (its SBA a slot of the instant's bank, agreeing on the bit above), so
Theorem 3.5 holds for the bundle as the broadcast value; call
entry e of the delivered bundle, with the bundle's mode and time, the
*effective* broadcast of logical ΠBC e -- or, if that entry is ``None``, e's
late input (its name's Acast, above), in fallback mode, at the later of its
hand-off and the bundle's.

1. Honest sender, synchronous network.  The bundle holds every input the
   sender had at the anchor (whoever gives one *at* the anchor does so from
   inside the carrier's anchor timer, :meth:`BroadcastProtocol.at_anchor`),
   and is regular-mode delivered to every honest party at anchor + T_BC
   (t-validity of the carrier): so is each entry -- t-liveness and validity.
2. Honest sender, any network.  Every honest party's regular-mode bundle is
   the sender's or ⊥, and the sender's bundle is eventually delivered in
   fallback mode (weak and fallback validity of the carrier): entry by entry
   the same for e, and a late input follows a bundle with ``None`` at e.
3. Corrupt sender.  Honest parties that obtain a bundle obtain the same one,
   all at anchor + T_BC if any does in regular mode in synchrony, within 2Δ
   of each other in fallback mode (t- and fallback consistency; Lemma 2.4's
   spread): hence the same entry e; where it is ``None``, the same late input
   (above), counted or not as a function of the common bundle.
4. The adversary gains nothing: a present entry is an input to ΠBC e given
   on time, a ``None`` entry with a late input one given late (fallback mode
   only), a ``None`` entry alone no input, a withheld bundle no input to any
   of the k (late inputs are then never read), a value that is not a
   :class:`Bundle` of the agreed length the all-``None`` bundle
   (:meth:`BroadcastCarrier._parse`), one with an unhashable entry dropped
   by Acast like any unhashable value, and a late input contradicting
   a present entry is ignored like a second input to one ΠBC.  All-or-none
   delivery of k inputs is a behaviour k separate ΠBCs allow.  Each entry
   still passes its consumer's own total parser.  Privacy: a bundle reveals
   what the k broadcasts reveal.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.ba import sba
from repro.broadcast.acast import AcastProtocol, Bundle, maybe_pack_payload
from repro.sim.party import CarrierError, Gathering, Outcome, Party
from repro.timing import epsilon, ticks


def bc_time_bound(n: int, t: int, delta: float) -> float:
    """T_BC: time (relative to the instance anchor) of the regular-mode output.

    The paper's T_BC is (12n-3)Δ for the recursive ΠBGP of [16]; with our
    phase-king instantiation it is 3Δ + 3(t+1)Δ, plus the simulation's
    tie-breaking epsilon.
    """
    return 3.0 * delta + sba.sba_time_bound(n, t, delta) + 2 * epsilon(delta)


def carrier_tag(root: str, offset: float, sender: int, delta: float) -> str:
    """Tag of ``sender``'s carrier anchored ``offset`` after the ``root`` instance."""
    return f"{root}/bc@{ticks(offset, delta)}[{sender}]"


#: The name of a late carrier, ``late[k]`` with k in plain decimal.
_LATE_NAME = re.compile(r"late\[(0|[1-9][0-9]*)\]")


class BroadcastCarrier(Gathering):
    """Fig 1, once, for every ΠBC (member) of ``sender`` anchored at ``anchor``
    (the freeze), its SBA a slot of the instant's phase-king bank; and the
    numbered late carriers ``late[k]`` for what those ΠBCs are given afterwards."""

    #: The late path's state, set on the carriers that take it.  Sender: flush
    #: instant -> position -> entry, the (position, slot)s given, how many went
    #: out.  Receiver: late[k]'s value until late[0..k-1] are handed on.
    _late_out: Optional[Dict[float, Dict[int, Any]]] = None
    _late_given: Optional[Set[Tuple[int, Optional[int]]]] = None
    _late_sent = 0
    _late_in: Optional[Dict[int, Any]] = None
    _late_next = 0

    def __init__(self, party: Party, tag: str, sender: int, faults: int,
                 anchor: float, delta: float):
        super().__init__(party, tag)
        self.sender = sender
        self.faults = faults
        self.anchor = anchor
        self.delta = delta
        #: The bundle as delivered, in either mode, entry per endpoint.
        self.bundle: Optional[Tuple] = None
        self._acast: AcastProtocol = self.spawn(
            AcastProtocol, "acast", sender=sender, faults=faults
        )
        self._sba = self._bank()

    def start(self) -> None:
        t_bc = bc_time_bound(self.n, self.faults, self.delta)
        self.schedule_at(self.anchor + t_bc, self._decide_regular)
        self._acast.on_output(self._maybe_fallback)

    def _bank(self) -> sba.PhaseKingSBA:
        """The phase-king bank ``<root>/bc@<ticks>/sba`` of my instant, slot s
        sender s's: the first carrier of the instant here builds it and sets
        its one timer."""
        group = self.tag.rpartition("[")[0]
        bank = self.party.get_instance(f"{group}/sba")
        if bank is None:
            bank = sba.PhaseKingSBA(self.party, f"{group}/sba", self.faults, delta=self.delta)
            bank.schedule_at(self.anchor + 3.0 * self.delta + epsilon(self.delta),
                             self._start_bank)
        elif (bank.faults, bank.delta) != (self.faults, self.delta):
            raise CarrierError(f"{self.tag} cannot share {bank!r} (other t/Δ)")
        return bank

    def _start_bank(self) -> None:
        """anchor + 3Δ + ε: slot s is 1 if carrier ``[s]``'s Acast has delivered
        here, 0 if it has not or that carrier does not exist here."""
        group = self.tag.rpartition("[")[0]
        carriers = (self.party.get_instance(f"{group}[{s}]") for s in range(1, self.n + 1))
        self._sba.provide_input(tuple(
            int(carrier is not None and carrier._acast.has_output) for carrier in carriers))
        self._sba.start()

    def _freeze(self) -> None:
        """The anchor: positions, then the inputs due now, then one Acast for all."""
        super()._freeze()
        if self.me == self.sender:
            # Set, not provide_input: a bundle is never packed as one vector.
            self._acast.message = Bundle(
                tuple(endpoint.message for endpoint in self.entries), self.n)
            self._acast.start()
        self.demand_buffered(f"late[{k}]" for k in range(self.late_width))

    # -- the late carriers (module docstring) -------------------------------------
    @property
    def late_width(self) -> int:
        return self.n * len(self.entries)

    def give_late(self, endpoint: "BroadcastProtocol", value: Any, slot: Optional[int],
                  at: float) -> None:
        """Sender: ``value`` is ``endpoint``'s entry -- or slot ``slot`` (1..n) of
        it, an n-tuple -- of the late carrier flushed at ``at``, if the first."""
        position = self.position[endpoint.tag]
        if self._late_out is None:
            self._late_out, self._late_given = {}, set()
        if (position, slot) in self._late_given:
            return
        self._late_given.add((position, slot))
        if at not in self._late_out:
            self._late_out[at] = {}
            self.schedule_at(at, lambda: self._flush_late(at))
        pending = self._late_out[at]
        if slot is not None:
            value = tuple(value if j == slot else v for j, v in
                          enumerate(pending.get(position, (None,) * self.n), 1))
        pending[position] = value

    def _flush_late(self, at: float) -> None:
        pending = self._late_out.pop(at)
        name = f"late[{self._late_sent}]"
        self._late_sent += 1
        late = self.party.get_instance(self.subtag(name)) or self.demand_child(name)
        late.provide_input(Bundle(tuple(map(pending.get, range(len(self.entries)))), self.n))

    def demand_child(self, name: str) -> Optional[AcastProtocol]:
        """``late[k]``: once frozen, k in plain decimal and below the width."""
        match = _LATE_NAME.fullmatch(name)
        if not (self.position is not None and match and int(match[1]) < self.late_width):
            return None
        k = int(match[1])
        late = self.spawn(AcastProtocol, name, sender=self.sender, faults=self.faults)
        late.on_output(lambda value: self._late_delivered(k, value))
        late.start()
        return late

    def _late_delivered(self, k: int, value: Any) -> None:
        """In sequence order: late[k] is handed on once late[0..k-1] have been."""
        self._late_in = self._late_in or {}
        self._late_in[k] = value
        while self._late_next in self._late_in:
            entries = self._parse(self._late_in.pop(self._late_next))
            self._late_next += 1
            for endpoint, entry in zip(self.entries, entries):
                if entry is not None:
                    (endpoint._on_late or endpoint._late_input)(entry)

    def _parse(self, bundle: Any) -> Tuple:
        """The trust boundary: the entries of a :class:`Bundle` of the frozen
        length, or those of the empty bundle."""
        if type(bundle) is Bundle and len(bundle.entries) == len(self.entries):
            return bundle.entries
        return (None,) * len(self.entries)

    def _decide_regular(self) -> None:
        """anchor + T_BC: the Acast value if it is held here and my slot decided 1."""
        held = self._acast.output if self._acast.has_output else None
        confirmed = self._sba.has_output and self._sba.output[self.sender - 1] == 1
        regular = held if confirmed else None
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


class BroadcastProtocol(Outcome):
    """One logical ΠBC with a designated sender: an entry of its carrier, a
    record the carrier owns, not a registered instance.

    ``anchor`` is the commonly-known local time at which the ΠBC starts
    counting (all its time-outs are relative to it); the enclosing protocol
    fixes it so that every honest party uses the same anchor.  The sender
    supplies its message at construction or via :meth:`provide_input`, by
    the anchor at the latest (a later input means the regular mode yields ⊥
    and delivery happens through the fallback mode, after the bundle's).
    """

    #: Where my entries of the late carriers go, in sequence order, if not to
    #: :meth:`_late_input` (:meth:`on_late`); the first late input.
    _on_late: Optional[Callable[[Any], None]] = None
    late_input: Any = None

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
        super().__init__(party)
        self.tag = tag
        self.sender = sender
        self.faults = faults
        self.delta = delta if delta is not None else party.delta
        self.anchor = anchor
        self.message = maybe_pack_payload(message) if message is not None else None
        self.regular_output: Any = None
        self.regular_decided = False
        self._carrier: Optional[BroadcastCarrier] = None

    # -- input ---------------------------------------------------------------
    def provide_input(self, message: Any) -> None:
        """Sender-side: supply the message (field-element vectors are packed); it
        is late once the bundle went out, not when given at the carrier's freeze."""
        self.message = maybe_pack_payload(message)
        if self.me == self.sender and self._carrier and self._carrier._acast.message is not None:
            self.give_late(self.message)

    def give_late(self, value: Any, slot: Optional[int] = None,
                  at: Optional[float] = None) -> None:
        """Sender-side, after the anchor: ``value`` (slot ``slot`` of an n-slot
        entry, or whole) rides the late carrier flushed at ``at`` (default: now)."""
        self._carrier.give_late(self, value, slot, self.now if at is None else at)

    def on_late(self, callback: Callable[[Any], None]) -> None:
        """Hand my entries of the late carriers, in sequence order, to
        ``callback`` instead of reading them as a late input."""
        self._on_late = callback

    def at_anchor(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the anchor, before the bundle goes out (after
        :meth:`start`): how an input determined *at* the anchor is given."""
        self._carrier.at_freeze(callback)

    # -- protocol --------------------------------------------------------------
    def start(self) -> None:
        if self.anchor is None:
            self.anchor = self.now
        root, nested, _ = self.tag.partition("/")
        origin = getattr(self.party.get_instance(root), "anchor", None) if nested else self.anchor
        if origin is None:
            raise CarrierError(f"{self.tag}: root instance {root!r} has no anchor")
        tag = carrier_tag(root, self.anchor - origin, self.sender, self.delta)
        carrier = BroadcastCarrier.at(self.party, tag, self.anchor, self.sender, self.faults,
                                      self.anchor, self.delta)
        if (carrier.faults, carrier.delta) != (self.faults, self.delta):
            raise CarrierError(f"{self.tag} cannot join {carrier!r} (other t/Δ)")
        carrier.join(self)
        self._carrier = carrier

    def _decide(self, entry: Any) -> None:
        """anchor + T_BC: my entry of the regular-mode bundle (None = ⊥)."""
        self.regular_output = entry
        self.regular_decided = True
        self.set_output(entry)
        if entry is None:
            self._late_input()

    def _fallback(self, entry: Any) -> None:
        """The bundle is delivered in fallback mode."""
        if entry is not None:
            self.update_output(entry)
        else:
            self._late_input()

    def _late_input(self, value: Any = None) -> None:
        """Bundle first: the first late input counts once the bundle is in and lacks it."""
        if self.late_input is None:
            self.late_input = value
        if self._carrier.bundle is not None and self.output is None and self.late_input is not None:
            self.update_output(self.late_input)

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

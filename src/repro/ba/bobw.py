"""ΠBA: the best-of-both-worlds Byzantine agreement protocol (Fig 2 / Thm 3.6).

Fig 2: every party broadcasts its input bit through ΠBC; at time T_BC the
regular-mode outputs determine the input for a single ΠABA instance (the
majority bit of at least n - t delivered values, or the party's own input),
and the ΠABA output is the protocol output.

As built: a bank of k slots, one vote vector per party
------------------------------------------------------

ΠWPS, ΠVSS, ΠACS and ΠPreProcessing start their ΠBA instances in sibling
groups at one commonly known anchor.  :class:`BestOfBothWorldsBA` is such a
group, a *bank* of k >= 1 slots: party P_i publishes its votes for all k
slots as **one** ΠBC ``bc[i]`` whose value is a k-tuple (entry j: ``None``
for "no vote in slot j yet", else the bit), sent at the anchor even if
empty, and slot j runs its own ΠABA ``aba[j]`` (one vector per step with all
launched at that instant, :class:`~repro.ba.aba.AbaCarrier`), taking its input
at T_BC from entry j of the regular-mode vectors exactly as Fig 2 does from
the regular-mode bits.  k = 1 is Fig 2 verbatim.  A vote cast after the vector
went out is not broadcast at all: Fig 2 reads the vote ΠBCs through their
regular mode only, which promises nothing for an input given after the
anchor, so such a vote only becomes the slot's own ΠABA input.

Why Theorem 3.6 still holds, as a reduction to k runs of Fig 2.  Call entry
j of P_i's regular-mode vector at an honest party P_i's *effective*
broadcast in slot j (``None``, or no vector, = ⊥).

1. Synchronous network.  ΠBC t-validity and t-consistency (Theorem 3.5) are
   statements about the broadcast *value*; with value = vector, at
   anchor + T_BC every honest party holds the vector of every honest P_i
   and the same vector-or-⊥ for every corrupt P_i, hence in every slot the
   same effective broadcasts, and an honest P_i's is the vote it had at the
   anchor.  That is all the proof of Theorem 3.6 uses: the honest parties
   feed ΠABA either a common majority of >= n - t effective broadcasts --
   which is their common vote if they all vote alike, as at most t < n/3 of
   the entries are not theirs -- or, with fewer, their own votes, and
   t-validity, t-consistency and the T_BA bound follow from ΠABA's
   (Lemma 3.3) slot by slot.
2. Asynchronous network.  The regular-mode vector of an honest P_i is its
   vector or ⊥ (Theorem 3.5, weak validity), so wherever >= n - t entries of
   a slot are present the honest ones among them outnumber the rest, and a
   vote shared by all honest parties is every honest party's ΠABA input
   either way; everything else is the slot's ΠABA deciding alone
   (Lemma 3.3), as in Fig 2.
3. A corrupt P_i gains nothing: an all-or-none vector is a subset of what k
   separate ΠBCs allow it -- a ``None`` entry is giving no input in that
   slot, a withheld or malformed vector giving none in any slot, and it
   cannot have one slot's vote delivered while another's is ⊥ except by
   exactly that.  A vector of the wrong type or length parses as empty, an
   entry that is not ``None``/0/1 as ``None`` (:meth:`_parse_vector`).
4. The vector must hold every vote its party has *at the anchor*, on every
   backend: a real clock gives timers due at one instant no order, so
   whoever votes at the anchor registers with the bank
   (:meth:`BestOfBothWorldsBA.at_anchor`), which has no timer of its own:
   it casts those votes and hands over the vector from inside the anchor
   timer of the carrier its ΠBC rides
   (:meth:`~repro.broadcast.bc.BroadcastProtocol.at_anchor`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.ba.aba import AbaCarrier, aba_carrier, aba_nominal_time_bound
from repro.broadcast.bc import BroadcastProtocol, bc_time_bound
from repro.sim.party import Party, ProtocolInstance
from repro.timing import epsilon


def ba_time_bound(n: int, t: int, delta: float) -> float:
    """Nominal T_BA = T_BC + nominal T_ABA (used for composition anchors)."""
    return bc_time_bound(n, t, delta) + aba_nominal_time_bound(delta) + epsilon(delta)


class BASlot:
    """One ΠBA of a bank, as the protocol voting in it sees it.

    :meth:`provide_input` casts this party's vote (the first one counts),
    :meth:`on_output` reports the decision; ``output`` / ``has_output`` read
    as on a :class:`~repro.sim.party.ProtocolInstance`.
    """

    __slots__ = ("bank", "index", "vote", "output", "has_output", "_callbacks",
                 "_awaiting_vote")

    def __init__(self, bank: "BestOfBothWorldsBA", index: int):
        self.bank = bank
        self.index = index
        self.vote: Optional[int] = None
        self.output: Optional[int] = None
        self.has_output = False
        self._callbacks: List[Callable[[int], None]] = []
        #: T_BC passed with neither n - t effective broadcasts nor a vote.
        self._awaiting_vote = False

    def provide_input(self, value: int) -> None:
        self.bank._cast(self, int(value))

    def on_output(self, callback: Callable[[int], None]) -> None:
        if self.has_output:
            callback(self.output)
        else:
            self._callbacks.append(callback)

    def _decide(self, value: int) -> None:
        self.output = value
        self.has_output = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(value)
        self.bank._slot_decided()


class BestOfBothWorldsBA(ProtocolInstance):
    """A bank of ``slots`` ΠBA instances over input bits, sharing one anchor.

    ``anchor`` is the commonly-known start time (all parties must agree on
    it), computed by whoever owns the bank.  Votes go in through
    ``self.slots[j]`` (or, for slot 0, ``value`` / :meth:`provide_input`);
    one cast by the anchor rides the vote vector, a later one only sets that
    slot's ΠABA input.  The instance's own output is the decision of a
    1-slot bank, and the tuple of all k decisions otherwise.
    """

    def __init__(
        self,
        party: Party,
        tag: str,
        faults: int,
        value: Optional[int] = None,
        anchor: Optional[float] = None,
        delta: Optional[float] = None,
        slots: int = 1,
    ):
        super().__init__(party, tag)
        self.faults = faults
        self.delta = delta if delta is not None else party.delta
        self.anchor = anchor
        self.slots = [BASlot(self, index) for index in range(slots)]
        if value is not None:
            self.slots[0].vote = int(value)
        self._bc: Dict[int, BroadcastProtocol] = {}
        self._abas: Optional[AbaCarrier] = None  # of every ΠABA launched at anchor + T_BC
        self._at_anchor: List[Callable[[], None]] = []

    # -- input -----------------------------------------------------------------
    def provide_input(self, value: int) -> None:
        self.slots[0].provide_input(value)

    def at_anchor(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the anchor, before the vote vector goes out."""
        self._at_anchor.append(callback)

    def _cast(self, slot: BASlot, value: int) -> None:
        if slot.vote is not None:
            return
        slot.vote = value
        if slot._awaiting_vote:
            slot._awaiting_vote = False
            self._launch_aba(slot, value)

    # -- protocol -----------------------------------------------------------------
    def start(self) -> None:
        if self.anchor is None:
            self.anchor = self.now
        for i in self.party.all_party_ids():
            self._bc[i] = self.spawn(
                BroadcastProtocol, f"bc[{i}]", sender=i, faults=self.faults,
                anchor=self.anchor, delta=self.delta,
            )
        for bc in self._bc.values():
            bc.start()
        t_bc = bc_time_bound(self.n, self.faults, self.delta)
        self._bc[self.me].at_anchor(self._publish_vector)
        self._abas = aba_carrier(
            self.party, self.tag, self.anchor + t_bc + epsilon(self.delta), self.delta
        )
        self._abas.join([self.subtag(f"aba[{slot.index}]") for slot in self.slots], self._start_abas)

    def _publish_vector(self) -> None:
        """The anchor: the votes due now are cast, then all of them ride one ΠBC."""
        for callback in self._at_anchor:
            callback()
        self._bc[self.me].provide_input(tuple(slot.vote for slot in self.slots))

    def _parse_vector(self, vector: Any) -> Tuple[Optional[int], ...]:
        """The trust boundary: a well-formed k-tuple of ``None``/0/1, or no votes."""
        if type(vector) is not tuple or len(vector) != len(self.slots):
            return (None,) * len(self.slots)
        return tuple(
            entry if type(entry) is int and entry in (0, 1) else None for entry in vector
        )

    def _start_abas(self) -> None:
        """T_BC: Fig 2's ΠABA input rule, slot by slot, on the regular-mode vectors."""
        vectors = [
            self._parse_vector(bc.output_via_regular_mode()) for bc in self._bc.values()
        ]
        for slot in self.slots:
            delivered = [v[slot.index] for v in vectors if v[slot.index] is not None]
            if len(delivered) >= self.n - self.faults:
                ones = sum(delivered)
                self._launch_aba(slot, 1 if ones >= len(delivered) - ones else 0)
            elif slot.vote is not None:
                self._launch_aba(slot, slot.vote)
            else:
                # No vote yet (ΠACS / ΠPreProcessing vote on completion, which
                # in an asynchronous network comes late): joining the ABA with
                # a default 0 would violate validity -- all honest parties
                # could end up deciding 0 for every dealer and the common
                # subset would come out empty.  Defer until the vote is cast;
                # early ABA messages wait in the carrier until then.
                slot._awaiting_vote = True

    def _launch_aba(self, slot: BASlot, my_input: int) -> None:
        self._abas.launch(self.subtag(f"aba[{slot.index}]"), self.faults, my_input, slot._decide)

    def _slot_decided(self) -> None:
        if all(slot.has_output for slot in self.slots):
            decisions = tuple(slot.output for slot in self.slots)
            self.set_output(decisions[0] if len(decisions) == 1 else decisions)


class CommonSubsetBA(BestOfBothWorldsBA):
    """The n-slot bank of ΠACS (Fig 5) and ΠPreProcessing (Fig 10).

    Slot j - 1 decides whether candidate P_j is in the common subset.  A
    party votes 1 for every candidate it has seen complete, from the anchor
    (the end of the nominal waiting time) on, and 0 for all the others once
    n - t slots have decided 1.  The output is the tuple of the n decisions.
    """

    def __init__(
        self,
        party: Party,
        tag: str,
        faults: int,
        anchor: float,
        delta: Optional[float] = None,
    ):
        super().__init__(party, tag, faults, anchor=anchor, delta=delta, slots=party.n)
        #: Completed candidates in completion order (the voting order).
        self._completed: List[int] = []
        self._waited = False
        self.at_anchor(self._after_wait)
        for slot in self.slots:
            slot.on_output(self._vote_zero_once_enough)

    def candidate_completed(self, candidate: int) -> None:
        self._completed.append(candidate)
        if self._waited:
            self.slots[candidate - 1].provide_input(1)

    def _after_wait(self) -> None:
        self._waited = True
        for candidate in self._completed:
            self.slots[candidate - 1].provide_input(1)

    def _vote_zero_once_enough(self, _decision: int) -> None:
        if sum(1 for slot in self.slots if slot.output == 1) >= self.n - self.faults:
            for slot in self.slots:
                slot.provide_input(0)

    def accepted(self) -> List[int]:
        """The candidates decided 1, in increasing order (once all n decided)."""
        return [slot.index + 1 for slot in self.slots if slot.output == 1]

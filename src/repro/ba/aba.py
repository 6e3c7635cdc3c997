"""Randomized asynchronous Byzantine agreement (ΠABA stand-in).

We implement the binary, common-coin-based ABA of Mostéfaoui-Moumen-Raynal
(signature-free, t < n/3), which provides the black-box interface of
Lemma 3.3:

* t-validity and t-consistency in both network types;
* almost-surely liveness (each round decides with probability 1/2 once the
  honest parties' estimates agree with the coin);
* guaranteed liveness when all honest inputs agree (the bad value can never
  enter ``bin_values``, so the estimate is fixed and the first coin match
  decides -- expected two rounds; the paper's ΠABA decides in a *fixed*
  number of rounds here; see "Deviations from the paper" in README.md).

A Bracha-style termination gadget (FINAL messages) lets parties stop
participating once 2t+1 parties have reported a decision, bounding the
message complexity of every instance.

The common coin is an ideal functionality (see :mod:`repro.ba.common_coin`).

As built: a slot is a record, its carrier speaks one vector per step
-------------------------------------------------------------------

ΠBA banks (:mod:`repro.ba.bobw`) launch their slots' ΠABAs at vote anchor +
T_BC + ε, and banks share anchors.  An :class:`AbaCarrier` -- one per (root
instance, launch instant), tag ``<root>/aba@<ticks>`` (``ticks`` as for
:func:`repro.broadcast.bc.carrier_tag`) -- is the only registered instance of
the K slots of every bank launching then, and holds them by position, in the
order of their tags ``<bank>/aba[j]``.  Each slot is a :class:`BrachaABA`
record with its own state, quorums and coin key (its tag); what the K
machines emit during one activation of the carrier (its launch timer, a
delivery, a late vote) leaves as one fan-out per step -- ``("bval", r, v)``,
``("aux", r, v)``, ``("final", v)``, ``v`` a K-tuple holding the bit of every
slot that speaks in that step and ``None`` elsewhere, sent as a
:func:`~repro.broadcast.acast.vote_line` (runs of at most 255 slots, 2 bits a
slot, priced and on the wire) -- and a receiver hands entry j to the slot at
position j as the logical message ``(kind, r, bit)`` of that sender.  Nothing
reaches a slot any other way.  Lemma 3.3 holds slot by slot, as a reduction
to K separate ΠABAs:

1. Per slot it is a run of the same ΠABA.  The entries j of an honest
   sender's vectors are, over the run, exactly the logical messages its slot-j
   machine emits, each once, each to every party (two steps of one activation
   may leave in either order); no slot reads another's entry, and the coin is
   per slot.  Entries arriving together, or swapped, is a schedule the
   asynchronous adversary may impose on K instances anyway, and in a
   synchronous network each still arrives within Δ of being emitted -- the
   only channel facts Lemma 3.3 (and through it Theorem 3.6, points 1-2 of
   the :mod:`repro.ba.bobw` docstring) uses.
2. A corrupt sender gains nothing.  Any vector is, entry by entry, a set of
   logical messages it could have sent on K instances; a payload that is not
   ``(kind, [round,] v)`` with ``v`` a vote line of K slots is nothing
   sent in any slot, an entry that is not ``None`` or the ``int`` 0/1 nothing
   in that slot alone (:meth:`BrachaABA.handle`); repeats are suppressed per
   slot as ever, and one vector triggers at most K slot activations.
3. Same instants: the carrier is a :class:`~repro.sim.party.Gathering` frozen
   at the banks' launch timer.  An entry for a slot not launched here yet (a
   deferred vote) is held until it is, as ``Party.deliver`` holds messages.

A standalone ΠABA is a one-slot carrier.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.ba.common_coin import CommonCoin
from repro.broadcast.acast import read_vote_line, vote_line
from repro.sim.party import Gathering, Outcome, Party

_GLOBAL_COIN = CommonCoin()

#: Safety valve: no instance ever needs anywhere near this many rounds.
MAX_ROUNDS = 128


def _parse(payload: Any) -> Optional[Tuple[Any, int, Any]]:
    """The trust boundary: ``(kind, round, value)`` of a ``("final", value)`` or a
    ``("bval" | "aux", round in 1..MAX_ROUNDS, value)``; anything else is absent."""
    if type(payload) is tuple:
        if len(payload) == 2 and payload[0] == "final":
            return "final", 0, payload[1]
        if len(payload) == 3 and type(payload[1]) is int and 0 < payload[1] <= MAX_ROUNDS:
            return payload
    return None


def aba_nominal_time_bound(delta: float) -> float:
    """Nominal T_ABA used for anchoring follow-up broadcasts: ~4 rounds.

    Our ABA decides unanimous-input instances in an expected two rounds; the
    nominal bound is only used as a commonly-known reference time for
    composition (correctness never depends on it).
    """
    return 12.0 * delta


def aba_unanimous_time_bound(delta: float) -> float:
    """Typical decision time for unanimous inputs in a synchronous network."""
    return 5.0 * delta


class MMRRoundState:
    """Per-round bookkeeping for the MMR protocol."""

    __slots__ = ("bval_senders", "bval_sent", "bin_values", "aux", "done")

    def __init__(self) -> None:
        self.bval_senders: Dict[int, Set[int]] = {0: set(), 1: set()}
        self.bval_sent: Set[int] = set()
        self.bin_values: Set[int] = set()
        self.aux: Dict[int, int] = {}
        self.done = False


class BrachaABA(Outcome):
    """One randomized binary agreement: MMR's BV-broadcast + AUX rounds, ideal coin.

    A record, not an instance: the :class:`AbaCarrier` of its launch instant
    holds it by position, :meth:`begin` runs it on this party's input, the
    carrier hands it each peer's entry as a logical message (:meth:`handle`)
    and sends what it emits.  ``tag`` is the common coin's key."""

    def __init__(self, party: Party, tag: str, faults: int):
        super().__init__(party)
        self.tag = tag
        self.faults = faults
        self._weak_quorum, self._strong_quorum = faults + 1, 2 * faults + 1
        self._aux_quorum = self.n - faults
        self.estimate: Optional[int] = None  # an int from the launch on
        self._emit: Optional[Callable[[tuple], None]] = None
        self._rounds: Dict[int, MMRRoundState] = defaultdict(MMRRoundState)
        self._round = 0
        self._final_senders: Dict[int, Set[int]] = {0: set(), 1: set()}
        self._halted = False

    # -- launch ----------------------------------------------------------------------
    def begin(self, value: int, emit: Callable[[tuple], None]) -> None:
        """Join with input ``value``; every logical message leaves through ``emit``."""
        self._emit = emit
        self.estimate = int(value)
        self._begin_round(1)

    def _begin_round(self, round_index: int) -> None:
        if self._halted or round_index > MAX_ROUNDS:
            return
        self._round = round_index
        self._send_bval(round_index, self.estimate)
        # Messages for this round may have arrived before we entered it.
        self._evaluate_round(round_index)

    def _send_bval(self, round_index: int, value: int) -> None:
        state = self._rounds[round_index]
        if value in state.bval_sent:
            return
        state.bval_sent.add(value)
        self._emit(("bval", round_index, value))

    # -- message handling -----------------------------------------------------------
    def handle(self, sender: int, kind: Any, round_index: int, value: Any) -> None:
        """``sender``'s logical message.  A bit is the ``int`` 0 or 1: a peer's
        ``1.0`` or ``True`` would else become the estimate, the output and be relayed."""
        if self._halted or type(value) is not int or value not in (0, 1):
            return
        if kind == "final":
            self._handle_final(sender, value)
            return
        state = self._rounds[round_index]
        if kind == "bval":
            if sender in state.bval_senders[value]:
                return
            state.bval_senders[value].add(sender)
            if len(state.bval_senders[value]) >= self._weak_quorum:
                self._send_bval(round_index, value)
            if len(state.bval_senders[value]) >= self._strong_quorum:
                if not state.bin_values:  # AUX carries the first value to get in
                    self._emit(("aux", round_index, value))
                state.bin_values.add(value)
        elif kind == "aux":
            if sender not in state.aux:
                state.aux[sender] = value
        self._evaluate_round(round_index)

    # -- round evaluation -----------------------------------------------------------
    def _evaluate_round(self, round_index: int) -> None:
        if self._halted or round_index != self._round:
            return
        state = self._rounds[round_index]
        if state.done or not state.bin_values:
            return
        supported = {
            sender: value for sender, value in state.aux.items() if value in state.bin_values
        }
        if len(supported) < self._aux_quorum:
            return
        values = set(supported.values())
        state.done = True
        coin_value = self._coin_for_round(round_index)
        if len(values) == 1:
            (single,) = values
            self.estimate = single
            if single == coin_value:
                self._decide(single)
        else:
            self.estimate = coin_value
        self._begin_round(round_index + 1)

    def _coin_for_round(self, round_index: int) -> int:
        """Common coin with a deterministic two-round prefix (0 then 1).

        The paper's ΠABA decides within a *fixed* time when all honest inputs
        agree (Lemma 3.3); a purely random coin only gives an expected bound.
        Fixing the first two coin values to 0 and 1 restores the fixed bound
        (unanimous 0 decides in round 1, unanimous 1 in round 2) and cannot
        affect validity or agreement, which never depend on the coin values.
        From round 3 on the unpredictable ideal coin keeps almost-sure
        liveness for mixed inputs.  Listed with the common-coin substitution
        under "Deviations from the paper" in README.md.
        """
        if round_index == 1:
            return 0
        if round_index == 2:
            return 1
        return _GLOBAL_COIN.flip(self.tag, round_index)

    # -- decision and termination -------------------------------------------------------
    def _decide(self, value: int) -> None:
        """Output ``value`` and say so to everyone, once."""
        if not self.has_output:
            self.set_output(value)
            self._decided()
            self._emit(("final", value))

    def _decided(self) -> None:
        """The output's callbacks have run; the ``final`` word goes out next."""

    def _handle_final(self, sender: int, value: int) -> None:
        self._final_senders[value].add(sender)
        if len(self._final_senders[value]) >= self._weak_quorum:
            self._decide(value)
        if len(self._final_senders[value]) >= self._strong_quorum:
            self._halted = True


class AbaCarrier(Gathering):
    """The ΠABA slots launched at one instant (members: the banks'
    :class:`BrachaABA` records; freeze: that instant): one vector per step for all."""

    def __init__(self, party: Party, tag: str):
        super().__init__(party, tag)
        #: position of a slot not launched yet -> the logical messages waiting for it.
        self._waiting: Dict[int, List[tuple]] = {}
        #: (kind[, round]) -> the vector the running activation has filled in so far.
        self._pending: Dict[tuple, List[Optional[int]]] = {}
        self._active = 0  # activations on the stack; the outermost one flushes

    def _freeze(self) -> None:
        """The launch instant, one activation: the banks launch, the held vectors count."""
        self._active += 1
        super()._freeze()
        self._end_activation()

    def launch(self, slot: BrachaABA, value: int) -> None:
        """``slot`` joins its ΠABA with input ``value``, now."""
        index = self.position[slot.tag]
        self._active += 1
        slot.begin(value, partial(self._say, index))
        for message in self._waiting.pop(index, ()):
            slot.handle(*message)
        self._end_activation()

    def take(self, sender: int, payload: Any) -> None:
        """Total on what a peer may send: ``(kind, [round,] votes)`` or nothing."""
        parsed = _parse(payload)
        vector = parsed and read_vote_line(parsed[2], self.n, len(self.entries))
        if vector is None:
            return
        kind, round_index, _ = parsed
        self._active += 1
        for index, bit in enumerate(vector):
            if bit is None:
                continue
            slot = self.entries[index]
            if slot.estimate is not None:  # launched
                slot.handle(sender, kind, round_index, bit)
            else:
                self._waiting.setdefault(index, []).append((sender, kind, round_index, bit))
        self._end_activation()

    def _say(self, index: int, message: tuple) -> None:
        """Slot ``index`` emits the logical ``message``: its bit joins that step's vector."""
        step = message[:-1]
        vector = self._pending.get(step)
        if vector is None or vector[index] is not None:
            if vector is not None:
                self._flush()  # this slot's second word in one step: the first goes first
            vector = self._pending[step] = [None] * len(self.entries)
        vector[index] = message[-1]
        if not self._active:
            self._flush()

    def _end_activation(self) -> None:
        self._active -= 1
        if not self._active:
            self._flush()

    def _flush(self) -> None:
        pending, self._pending = self._pending, {}
        for step, vector in pending.items():
            self.send_all(step + (vote_line(vector, self.n),))

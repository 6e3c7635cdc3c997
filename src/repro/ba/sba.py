"""Synchronous Byzantine agreement: the phase-king protocol (ΠBGP stand-in).

The paper uses the recursive phase-king SBA of Berman-Garay-Perry [16] as a
black box with three properties (Lemma 3.2): it is a t-perfectly-secure SBA
for t < n/3, all honest parties output by a publicly-known time T_BGP in a
synchronous network, and in an asynchronous network all honest parties still
output *something* by local time T_BGP (guaranteed liveness only).

We implement the classical (non-recursive) phase-king protocol, which
provides exactly that interface with T_BGP = 3 * (t + 1) * Delta.  The
substitution is listed under "Deviations from the paper" in README.md.

As built: a binary bank of n slots, one vector per round
--------------------------------------------------------

ΠBC only asks its SBA to confirm a value the party already holds, so each
instance agrees on one bit (:mod:`repro.broadcast.bc` says which, and why
that suffices).  Binary phase king is the multi-valued protocol on the
domain {0, 1}: "no preference" is ``None`` and the king's default is
:data:`DEFAULT_BIT`.

A :class:`PhaseKingSBA` runs n such instances on one schedule -- the same
round instants and the same king per phase -- and each party sends one
``(round, vote_line((v_1, ..., v_n), n))`` per round instead of n
``(round, v_s)``: the votes ride a bundle's vote line at 2 bits a slot, as
the ΠABA carriers' vectors do (:mod:`repro.ba.aba`).  Tallies, candidate,
strong flag and king value are kept per slot, and slot s's decision reads
the s-th components alone, so each slot is a run of the protocol above.
Input and output are n-tuples of bits; an input that is not one is 0 in
every slot.

What other parties send passes one total parser
(:meth:`PhaseKingSBA.receive`): a payload that is not ``(round, vector)``,
with the round one of this instance's own 3(t+1) and the vector a
:func:`~repro.broadcast.acast.vote_line` of n slots over {``None``, 0, 1}
(exact types: ``True`` is not a vote; one bad slot, unlike in ΠABA, voids
all) is absent in every slot; the first payload per (sender, round) counts.  An absent king vector, or a
``None`` king slot, is :data:`DEFAULT_BIT`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.broadcast.acast import read_vote_line, vote_line
from repro.sim.party import Party, ProtocolInstance

#: What the king sends, and what a party adopts from it, in a slot where the
#: king has no candidate.
DEFAULT_BIT = 0


def sba_time_bound(n: int, t: int, delta: float) -> float:
    """T_BGP for our phase-king instantiation: 3 rounds per phase, t+1 phases."""
    return 3.0 * (t + 1) * delta


def _votes(vector: Any, n: int) -> Optional[Tuple]:
    """``vector`` if it is an n-tuple over {``None``, 0, 1}, exact types, else ``None``."""
    if type(vector) is not tuple or len(vector) != n:
        return None
    for vote in vector:
        if vote is not None and (type(vote) is not int or not 0 <= vote <= 1):
            return None
    return vector


class PhaseKingSBA(ProtocolInstance):
    """Binary phase-king Byzantine agreement for t < n/3, on n slots at once
    (module docstring).

    All parties must start the instance at the same local time (the caller
    controls this; ΠBC starts its bank at local time 3Δ + ε).  Rounds are
    driven purely by local timers: messages for round r are sent at
    ``start + (r-1)Δ`` and the round is evaluated at ``start + rΔ`` using
    whatever arrived, which is exactly why the protocol is only live (not
    safe) in an asynchronous network.
    """

    def __init__(
        self,
        party: Party,
        tag: str,
        faults: int,
        value: Any = None,
        delta: Optional[float] = None,
    ):
        super().__init__(party, tag)
        self.faults = faults
        self.delta = delta if delta is not None else party.delta
        self.value = value
        #: round -> sender -> that sender's n votes.
        self._round_inbox: Dict[int, Dict[int, Tuple]] = {}
        self._last_round = 3 * (faults + 1)
        self._values: List[int] = [DEFAULT_BIT] * self.n
        self._strong = [False] * self.n
        self._candidate: List[Optional[int]] = [None] * self.n
        self._started = False

    # -- input --------------------------------------------------------------
    def provide_input(self, value: Any) -> None:
        self.value = value

    # -- round bookkeeping ----------------------------------------------------
    @property
    def total_phases(self) -> int:
        return self.faults + 1

    def _round_index(self, phase: int, step: int) -> int:
        return 3 * (phase - 1) + step

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.start_time = self.now
        bits = _votes(self.value, self.n)
        if bits is not None and None not in bits:
            self._values = list(bits)
        self._begin_phase(1)

    def _begin_phase(self, phase: int) -> None:
        round_one = self._round_index(phase, 1)
        self._send_round(round_one, self._values)
        self.schedule_at(self.start_time + round_one * self.delta, lambda: self._end_round_one(phase))

    def _send_round(self, round_index: int, slots: List[Optional[int]]) -> None:
        self.send_all((round_index, vote_line(slots, self.n)))

    def _columns(self, round_index: int):
        """Per slot, the votes received for ``round_index``."""
        received = self._round_inbox.get(round_index, {})
        return zip(*received.values()) if received else ((),) * self.n

    def receive(self, sender: int, payload: Any) -> None:
        try:
            round_index, vector = payload
        except (TypeError, ValueError):
            return
        if type(round_index) is not int or not 0 < round_index <= self._last_round:
            return
        votes = _votes(read_vote_line(vector, self.n, self.n), self.n)
        if votes is None:
            return
        inbox = self._round_inbox.setdefault(round_index, {})
        if sender not in inbox:
            inbox[sender] = votes

    # -- per-phase logic -------------------------------------------------------
    def _end_round_one(self, phase: int) -> None:
        quorum = self.n - self.faults
        preferences = []
        for column in self._columns(self._round_index(phase, 1)):
            if column.count(1) >= quorum:
                preferences.append(1)
            elif column.count(0) >= quorum:
                preferences.append(0)
            else:
                preferences.append(None)
        round_two = self._round_index(phase, 2)
        self._send_round(round_two, preferences)
        self.schedule_at(self.start_time + round_two * self.delta, lambda: self._end_round_two(phase))

    def _end_round_two(self, phase: int) -> None:
        for slot, column in enumerate(self._columns(self._round_index(phase, 2))):
            ones, zeros = column.count(1), column.count(0)
            candidate, count = (1, ones) if ones >= zeros else (0, zeros)
            self._candidate[slot] = candidate if count > self.faults else None
            self._strong[slot] = count >= self.n - self.faults
        round_three = self._round_index(phase, 3)
        if self.me == self._king_for(phase):
            self._send_round(round_three, [
                DEFAULT_BIT if candidate is None else candidate for candidate in self._candidate
            ])
        self.schedule_at(self.start_time + round_three * self.delta, lambda: self._end_round_three(phase))

    def _king_for(self, phase: int) -> int:
        # Phases are at most t+1 <= n, so the king index is always a real party.
        return phase

    def _end_round_three(self, phase: int) -> None:
        received = self._round_inbox.get(self._round_index(phase, 3), {})
        king_votes = received.get(self._king_for(phase)) or (DEFAULT_BIT,) * self.n
        for slot, king_vote in enumerate(king_votes):
            if self._strong[slot]:
                self._values[slot] = self._candidate[slot]
            else:
                self._values[slot] = DEFAULT_BIT if king_vote is None else king_vote
        if phase >= self.total_phases:
            self.set_output(tuple(self._values))
        else:
            self._begin_phase(phase + 1)

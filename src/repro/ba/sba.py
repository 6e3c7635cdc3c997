"""Synchronous Byzantine agreement: the phase-king protocol (ΠBGP stand-in).

The paper uses the recursive phase-king SBA of Berman-Garay-Perry [16] as a
black box with three properties (Lemma 3.2): it is a t-perfectly-secure SBA
for t < n/3, all honest parties output by a publicly-known time T_BGP in a
synchronous network, and in an asynchronous network all honest parties still
output *something* by local time T_BGP (guaranteed liveness only).

We implement the classical (non-recursive) multi-valued phase-king protocol,
which provides exactly that interface with T_BGP = 3 * (t + 1) * Delta.  The
substitution is listed under "Deviations from the paper" in README.md.

What other parties send passes one total parser: a payload that is not a
``(round, value)`` pair, or whose round is not one of this instance's own
3(t+1), is absent (:meth:`PhaseKingSBA.receive`); a value nobody could tally
because it is unhashable is absent where the tally is taken
(:func:`_tally`, and the king's in :meth:`PhaseKingSBA._end_round_three`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.sim.party import Party, ProtocolInstance

#: Internal "no preference" marker; never a legal input value.
NO_PREFERENCE = "__NO_PREF__"

#: Value adopted from the king when the king reports no preference.
DEFAULT_VALUE = None


def sba_time_bound(n: int, t: int, delta: float) -> float:
    """T_BGP for our phase-king instantiation: 3 rounds per phase, t+1 phases."""
    return 3.0 * (t + 1) * delta


def _tally(values) -> Dict[Any, int]:
    """How often each value occurs; one that cannot be a key counts for nothing."""
    counts: Dict[Any, int] = {}
    for value in values:
        try:
            counts[value] = counts.get(value, 0) + 1
        except TypeError:
            continue
    return counts


class PhaseKingSBA(ProtocolInstance):
    """Multi-valued phase-king Byzantine agreement for t < n/3.

    All parties must start the instance at the same local time (the caller
    controls this; ΠBC starts it at local time 3Δ).  Rounds are driven purely
    by local timers: messages for round r are sent at ``start + (r-1)Δ`` and
    the round is evaluated at ``start + rΔ`` using whatever arrived, which is
    exactly why the protocol is only live (not safe) in an asynchronous
    network.
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
        self._round_inbox: Dict[int, Dict[int, Any]] = {}
        self._last_round = 3 * (faults + 1)
        self._phase = 1
        self._strong = False
        self._candidate: Any = NO_PREFERENCE
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
        self._begin_phase(1)

    def _begin_phase(self, phase: int) -> None:
        self._phase = phase
        round_one = self._round_index(phase, 1)
        self._send_round(round_one, self.value)
        self.schedule_at(self.start_time + round_one * self.delta, lambda: self._end_round_one(phase))

    def _send_round(self, round_index: int, value: Any) -> None:
        self.send_all((round_index, value))

    def _received(self, round_index: int) -> Dict[int, Any]:
        return self._round_inbox.get(round_index, {})

    def receive(self, sender: int, payload: Any) -> None:
        try:
            round_index, value = payload
        except (TypeError, ValueError):
            return
        if type(round_index) is not int or not 0 < round_index <= self._last_round:
            return
        inbox = self._round_inbox.setdefault(round_index, {})
        if sender not in inbox:
            inbox[sender] = value

    # -- per-phase logic -------------------------------------------------------
    def _end_round_one(self, phase: int) -> None:
        received = self._received(self._round_index(phase, 1))
        preference = NO_PREFERENCE
        for value, count in _tally(received.values()).items():
            if count >= self.n - self.faults:
                preference = value
                break
        round_two = self._round_index(phase, 2)
        self._send_round(round_two, preference)
        self.schedule_at(self.start_time + round_two * self.delta, lambda: self._end_round_two(phase))

    def _end_round_two(self, phase: int) -> None:
        received = self._received(self._round_index(phase, 2))
        self._candidate = NO_PREFERENCE
        self._strong = False
        best_count = 0
        for value, count in _tally(received.values()).items():
            if value == NO_PREFERENCE:
                continue
            if count >= self.faults + 1 and count > best_count:
                self._candidate = value
                best_count = count
        if best_count >= self.n - self.faults:
            self._strong = True
        round_three = self._round_index(phase, 3)
        if self.me == self._king_for(phase):
            king_value = self._candidate if self._candidate != NO_PREFERENCE else DEFAULT_VALUE
            self._send_round(round_three, king_value)
        self.schedule_at(self.start_time + round_three * self.delta, lambda: self._end_round_three(phase))

    def _king_for(self, phase: int) -> int:
        # Phases are at most t+1 <= n, so the king index is always a real party.
        return phase

    def _end_round_three(self, phase: int) -> None:
        received = self._received(self._round_index(phase, 3))
        king_value = received.get(self._king_for(phase), DEFAULT_VALUE)
        try:
            hash(king_value)
        except TypeError:
            king_value = DEFAULT_VALUE
        if king_value == NO_PREFERENCE:
            king_value = DEFAULT_VALUE
        if self._strong and self._candidate != NO_PREFERENCE:
            self.value = self._candidate
        else:
            self.value = king_value
        if phase >= self.total_phases:
            self.set_output(self.value)
        else:
            self._begin_phase(phase + 1)

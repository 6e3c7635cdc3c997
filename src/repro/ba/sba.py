"""Synchronous Byzantine agreement: the phase-king protocol (ΠBGP stand-in).

The paper uses the recursive phase-king SBA of Berman-Garay-Perry [16] as a
black box with three properties (Lemma 3.2): it is a t-perfectly-secure SBA
for t < n/3, all honest parties output by a publicly-known time T_BGP in a
synchronous network, and in an asynchronous network all honest parties still
output *something* by local time T_BGP (guaranteed liveness only).

We implement the classical (non-recursive) multi-valued phase-king protocol,
which provides exactly that interface with T_BGP = 3 * (t + 1) * Delta.  The
substitution is listed under "Deviations from the paper" in README.md.

As built: a bank of n slots, one vector per round
-------------------------------------------------

A :class:`PhaseKingSBA` runs n phase-king instances on one schedule -- the
same round instants and the same king per phase -- and each party sends one
``(round, (v_1, ..., v_n))`` per round instead of n ``(round, v_s)``.
Tallies, candidate, strong flag and king value are kept per slot, and slot
s's decision reads the s-th components alone, so each slot is a run of the
protocol above (the argument for ΠBC's bank, slot s for sender s, is in
:mod:`repro.broadcast.bc`).  Input and output are n-tuples; an input that
is not one is ⊥ (``None``) in every slot.

What other parties send passes one total parser
(:meth:`PhaseKingSBA.receive`): a payload that is not ``(round, vector)``
with the round one of this instance's own 3(t+1) and the vector an n-tuple
is absent in every slot; the first payload per (sender, round)
counts.  A slot value nobody could tally because it is unhashable counts
for nothing in that slot (:func:`_tally`); an absent or unhashable king
value is :data:`DEFAULT_VALUE` (:meth:`PhaseKingSBA._end_round_three`), so
an absent king vector is ``DEFAULT_VALUE`` in every slot.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

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
    """Multi-valued phase-king Byzantine agreement for t < n/3, on n slots at
    once (module docstring).

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
        #: round -> sender -> that sender's n slot values, as a list.
        self._round_inbox: Dict[int, Dict[int, List[Any]]] = {}
        self._last_round = 3 * (faults + 1)
        self._values: List[Any] = [None] * self.n
        self._strong = [False] * self.n
        self._candidate: List[Any] = [NO_PREFERENCE] * self.n
        self._started = False

    # -- input --------------------------------------------------------------
    def provide_input(self, value: Any) -> None:
        self.value = value

    # -- vectors ----------------------------------------------------------------
    def _slots(self, vector: Any) -> Optional[List[Any]]:
        """The slot values of a vector, or ``None`` if it is not an n-tuple."""
        if type(vector) is tuple and len(vector) == self.n:
            return list(vector)
        return None

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
        self._values = self._slots(self.value) or self._values
        self._begin_phase(1)

    def _begin_phase(self, phase: int) -> None:
        round_one = self._round_index(phase, 1)
        self._send_round(round_one, self._values)
        self.schedule_at(self.start_time + round_one * self.delta, lambda: self._end_round_one(phase))

    def _send_round(self, round_index: int, slots: List[Any]) -> None:
        self.send_all((round_index, tuple(slots)))

    def _columns(self, round_index: int):
        """Per slot, the values received for ``round_index``."""
        received = self._round_inbox.get(round_index, {})
        return zip(*received.values()) if received else ((),) * self.n

    def receive(self, sender: int, payload: Any) -> None:
        try:
            round_index, vector = payload
        except (TypeError, ValueError):
            return
        if type(round_index) is not int or not 0 < round_index <= self._last_round:
            return
        slots = self._slots(vector)
        if slots is None:
            return
        inbox = self._round_inbox.setdefault(round_index, {})
        if sender not in inbox:
            inbox[sender] = slots

    # -- per-phase logic -------------------------------------------------------
    def _end_round_one(self, phase: int) -> None:
        preferences = []
        for column in self._columns(self._round_index(phase, 1)):
            preference = NO_PREFERENCE
            for value, count in _tally(column).items():
                if count >= self.n - self.faults:
                    preference = value
                    break
            preferences.append(preference)
        round_two = self._round_index(phase, 2)
        self._send_round(round_two, preferences)
        self.schedule_at(self.start_time + round_two * self.delta, lambda: self._end_round_two(phase))

    def _end_round_two(self, phase: int) -> None:
        for slot, column in enumerate(self._columns(self._round_index(phase, 2))):
            candidate = NO_PREFERENCE
            best_count = 0
            for value, count in _tally(column).items():
                if value == NO_PREFERENCE:
                    continue
                if count >= self.faults + 1 and count > best_count:
                    candidate = value
                    best_count = count
            self._candidate[slot] = candidate
            self._strong[slot] = best_count >= self.n - self.faults
        round_three = self._round_index(phase, 3)
        if self.me == self._king_for(phase):
            self._send_round(round_three, [
                DEFAULT_VALUE if candidate == NO_PREFERENCE else candidate
                for candidate in self._candidate
            ])
        self.schedule_at(self.start_time + round_three * self.delta, lambda: self._end_round_three(phase))

    def _king_for(self, phase: int) -> int:
        # Phases are at most t+1 <= n, so the king index is always a real party.
        return phase

    def _end_round_three(self, phase: int) -> None:
        received = self._round_inbox.get(self._round_index(phase, 3), {})
        king_values = received.get(self._king_for(phase)) or [DEFAULT_VALUE] * self.n
        for slot, king_value in enumerate(king_values):
            try:
                hash(king_value)
            except TypeError:
                king_value = DEFAULT_VALUE
            if king_value == NO_PREFERENCE:
                king_value = DEFAULT_VALUE
            candidate = self._candidate[slot]
            strong = self._strong[slot] and candidate != NO_PREFERENCE
            self._values[slot] = candidate if strong else king_value
        if phase >= self.total_phases:
            self.set_output(tuple(self._values))
        else:
            self._begin_phase(phase + 1)

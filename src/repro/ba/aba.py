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
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from repro.ba.common_coin import CommonCoin
from repro.sim.party import Party, ProtocolInstance

_GLOBAL_COIN = CommonCoin()

#: Safety valve: no instance ever needs anywhere near this many rounds.
MAX_ROUNDS = 128


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

    __slots__ = ("bval_senders", "bval_sent", "bin_values", "aux", "aux_sent", "done")

    def __init__(self) -> None:
        self.bval_senders: Dict[int, Set[int]] = {0: set(), 1: set()}
        self.bval_sent: Set[int] = set()
        self.bin_values: Set[int] = set()
        self.aux: Dict[int, int] = {}
        self.aux_sent = False
        self.done = False


class BrachaABA(ProtocolInstance):
    """One randomized binary-agreement instance (MMR structure, ideal coin).

    The class name is kept generic (historically Bracha-style); the round
    structure is BV-broadcast + AUX + common coin.
    """

    def __init__(
        self,
        party: Party,
        tag: str,
        faults: int,
        value: Optional[int] = None,
        coin: Optional[CommonCoin] = None,
    ):
        super().__init__(party, tag)
        self.faults = faults
        self.estimate = None if value is None else int(value)
        self.coin = coin or _GLOBAL_COIN
        self._rounds: Dict[int, MMRRoundState] = {}
        self._round = 0
        self._started = False
        self._decided: Optional[int] = None
        self._final_senders: Dict[int, Set[int]] = {0: set(), 1: set()}
        self._final_sent = False
        self._halted = False

    # -- thresholds -----------------------------------------------------------
    @property
    def _weak_quorum(self) -> int:
        return self.faults + 1

    @property
    def _strong_quorum(self) -> int:
        return 2 * self.faults + 1

    @property
    def _aux_quorum(self) -> int:
        return self.n - self.faults

    def _state(self, round_index: int) -> MMRRoundState:
        if round_index not in self._rounds:
            self._rounds[round_index] = MMRRoundState()
        return self._rounds[round_index]

    # -- input / lifecycle -------------------------------------------------------
    def provide_input(self, value: int) -> None:
        self.estimate = int(value)
        if self._started and self._round == 0:
            self._begin_round(1)

    def start(self) -> None:
        self._started = True
        if self.estimate is not None and self._round == 0:
            self._begin_round(1)

    def _begin_round(self, round_index: int) -> None:
        if self._halted or round_index > MAX_ROUNDS:
            return
        self._round = round_index
        self._send_bval(round_index, self.estimate)
        # Messages for this round may have arrived before we entered it.
        self._evaluate_round(round_index)

    def _send_bval(self, round_index: int, value: int) -> None:
        state = self._state(round_index)
        if value in state.bval_sent:
            return
        state.bval_sent.add(value)
        self.send_all(("bval", round_index, value))

    # -- message handling -----------------------------------------------------------
    def receive(self, sender: int, payload: Any) -> None:
        """Total on what a peer may send: anything but ``("final", bit)`` or
        ``("bval" | "aux", round in 1..MAX_ROUNDS, bit)`` is absent."""
        if self._halted or type(payload) is not tuple:
            return
        if len(payload) == 2 and payload[0] == "final":
            self._handle_final(sender, payload[1])
            return
        if len(payload) != 3:
            return
        kind, round_index, value = payload
        if type(round_index) is not int or not 0 < round_index <= MAX_ROUNDS:
            return
        state = self._state(round_index)
        if kind == "bval":
            if value not in (0, 1) or sender in state.bval_senders[value]:
                return
            state.bval_senders[value].add(sender)
            if len(state.bval_senders[value]) >= self._weak_quorum:
                self._send_bval(round_index, value)
            if len(state.bval_senders[value]) >= self._strong_quorum:
                if value not in state.bin_values:
                    state.bin_values.add(value)
                    self._maybe_send_aux(round_index)
        elif kind == "aux":
            if value in (0, 1) and sender not in state.aux:
                state.aux[sender] = value
        self._evaluate_round(round_index)

    def _maybe_send_aux(self, round_index: int) -> None:
        state = self._state(round_index)
        if state.aux_sent or not state.bin_values:
            return
        state.aux_sent = True
        value = min(state.bin_values)
        self.send_all(("aux", round_index, value))

    # -- round evaluation -----------------------------------------------------------
    def _evaluate_round(self, round_index: int) -> None:
        if self._halted or round_index != self._round or self.estimate is None:
            return
        state = self._state(round_index)
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
        return self.coin.flip(self.tag, round_index)

    # -- decision and termination -------------------------------------------------------
    def _decide(self, value: int) -> None:
        if self._decided is None:
            self._decided = value
            self.set_output(value)
        self._broadcast_final(value)

    def _broadcast_final(self, value: int) -> None:
        if self._final_sent:
            return
        self._final_sent = True
        self.send_all(("final", value))

    def _handle_final(self, sender: int, value: int) -> None:
        if value not in (0, 1) or sender in self._final_senders[value]:
            return
        self._final_senders[value].add(sender)
        if len(self._final_senders[value]) >= self._weak_quorum and self._decided is None:
            self._decided = value
            self.set_output(value)
            self._broadcast_final(value)
        if len(self._final_senders[value]) >= self._strong_quorum:
            self._halted = True

"""A purely asynchronous MPC baseline (t < n/4, Beaver style).

The protocol never relies on the synchrony bound: every step waits for
messages and reconstructs with Online Error Correction once enough points
have arrived.  The price, as the paper's introduction explains, is twofold:

* the corruption threshold drops to t_a < n/4 (sharings have degree t_a and
  OEC needs n >= 4·t_a + 1 to terminate);
* the inputs of up to t_a (potentially honest) parties are ignored -- the
  protocol cannot afford to wait for everyone, so it fixes a core set of
  n - t_a input providers and the remaining inputs default to 0.

Multiplication triples come from the idealized offline dealer (see
``repro.baselines.dealer``); experiment E1/E8 compare this online behaviour
against the best-of-both-worlds protocol.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.circuits.circuit import Circuit, GateType
from repro.codes.oec import BatchOnlineErrorCorrector
from repro.field.gf import FieldElement
from repro.sharing.shamir import batch_share_at_alphas
from repro.sim.adversary import Behavior
from repro.sim.network import AsynchronousNetwork, NetworkModel
from repro.sim.party import Party, ProtocolInstance
from repro.sim.runner import ProtocolRunner, RunResult
from repro.baselines.dealer import TrustedTripleDealer


def _normalize_row(values, count: int) -> List[Optional[FieldElement]]:
    """Shape one sender's value list for a batch corrector row.

    Non-field entries contribute no point (None), short rows leave the tail
    positions waiting, extra positions beyond the expected count are dropped.
    """
    row = [v if isinstance(v, FieldElement) else None for v in values[:count]]
    return row + [None] * (count - len(row))


class AsynchronousMPC(ProtocolInstance):
    """Event-driven asynchronous MPC for one circuit evaluation.

    ``core_set`` is the publicly agreed set of input providers (of size
    n - t_a); inputs of parties outside it are fixed to 0.  All sharings
    have degree t_a and all reconstructions use OEC(t_a, t_a, P).
    """

    def __init__(
        self,
        party: Party,
        tag: str,
        circuit: Circuit,
        faults: int,
        core_set: Optional[List[int]] = None,
        my_inputs: Optional[List] = None,
        triples: Optional[List[Tuple]] = None,
    ):
        super().__init__(party, tag)
        self.circuit = circuit
        self.faults = faults
        self.core_set = set(core_set) if core_set is not None else set(
            range(1, self.n - faults + 1)
        )
        self.my_inputs = list(my_inputs) if my_inputs is not None else []
        self.triples = list(triples) if triples is not None else []

        self._wire_shares: Dict[int, FieldElement] = {}
        self._input_oec: Dict[int, FieldElement] = {}
        self._expected_inputs: List[int] = []
        self._opening_oec: Dict[int, BatchOnlineErrorCorrector] = {}
        self._output_oec: Optional[BatchOnlineErrorCorrector] = None
        self._used_triples = 0
        self._current_layer = -1
        # Layers are derived deterministically from the circuit; computing
        # them up front lets early "open" messages size the batch correctors.
        self._layers: List[List[int]] = circuit.multiplication_layers()

    # -- lifecycle -----------------------------------------------------------------------
    def start(self) -> None:
        self._expected_inputs = [
            gate.index
            for gate in self.circuit.input_gates
            if gate.owner in self.core_set
        ]
        self._share_inputs()
        self._maybe_start_evaluation()

    def _share_inputs(self) -> None:
        cursor = 0
        for gate in self.circuit.input_gates:
            if gate.owner != self.me:
                continue
            value = self.my_inputs[cursor] if cursor < len(self.my_inputs) else 0
            cursor += 1
            if self.me not in self.core_set:
                continue
            shares = batch_share_at_alphas(self.field, value, self.faults, self.n, self.rng)
            for j in self.party.all_party_ids():
                self.send(j, ("input", gate.index, shares[j - 1]))

    def _maybe_start_evaluation(self) -> None:
        if self._current_layer >= 0:
            return
        if not all(index in self._input_oec for index in self._expected_inputs):
            return
        for gate in self.circuit.input_gates:
            if gate.owner in self.core_set:
                self._wire_shares[gate.index] = self._input_oec[gate.index]
            else:
                self._wire_shares[gate.index] = self.field.zero()
        self._advance_layers(0)

    # -- multiplication layers ----------------------------------------------------------------
    def _evaluate_linear(self) -> None:
        for gate in self.circuit.gates:
            if gate.index in self._wire_shares or gate.kind in (GateType.INPUT, GateType.MUL):
                continue
            if not all(w in self._wire_shares for w in gate.inputs):
                continue
            left = self._wire_shares[gate.inputs[0]]
            if gate.kind is GateType.ADD:
                value = left + self._wire_shares[gate.inputs[1]]
            elif gate.kind is GateType.SUB:
                value = left - self._wire_shares[gate.inputs[1]]
            elif gate.kind is GateType.CONST_MUL:
                value = left * gate.constant
            else:
                value = left + gate.constant
            self._wire_shares[gate.index] = value

    def _advance_layers(self, layer_index: int) -> None:
        self._evaluate_linear()
        self._current_layer = layer_index
        if layer_index >= len(self._layers):
            self._begin_output()
            return
        gates = self._layers[layer_index]
        masked: List[FieldElement] = []
        for offset, gate_index in enumerate(gates):
            gate = self.circuit.gates[gate_index]
            x_share = self._wire_shares[gate.inputs[0]]
            y_share = self._wire_shares[gate.inputs[1]]
            a_share, b_share, _c = self.triples[self._used_triples + offset]
            masked.append(x_share - a_share)
            masked.append(y_share - b_share)
        # Openings from faster parties may already have arrived (and
        # created the corrector) before we entered this layer.
        self._opening_corrector(layer_index)
        self.send_all(("open", layer_index, masked))
        self._maybe_finish_layer(layer_index)

    def _opening_corrector(self, layer_index: int) -> Optional[BatchOnlineErrorCorrector]:
        """The batch corrector decoding all 2L openings of one layer together."""
        if not isinstance(layer_index, int) or not (0 <= layer_index < len(self._layers)):
            return None
        corrector = self._opening_oec.get(layer_index)
        if corrector is None:
            corrector = BatchOnlineErrorCorrector(
                self.field, 2 * len(self._layers[layer_index]), self.faults, self.faults
            )
            self._opening_oec[layer_index] = corrector
        return corrector

    def _maybe_finish_layer(self, layer_index: int) -> None:
        if layer_index != self._current_layer:
            return
        corrector = self._opening_oec.get(layer_index)
        if corrector is None or not corrector.done:
            return
        openings = corrector.secrets()
        for position, gate_index in enumerate(self._layers[layer_index]):
            e_value = openings[2 * position]
            d_value = openings[2 * position + 1]
            a_share, b_share, c_share = self.triples[self._used_triples]
            self._used_triples += 1
            self._wire_shares[gate_index] = (
                d_value * e_value + e_value * b_share + d_value * a_share + c_share
            )
        self._advance_layers(layer_index + 1)

    # -- output ------------------------------------------------------------------------------------
    def _output_corrector(self) -> BatchOnlineErrorCorrector:
        # Sized from the circuit, not from a sender's list (whose length an
        # adversary controls).
        if self._output_oec is None:
            self._output_oec = BatchOnlineErrorCorrector(
                self.field, len(self.circuit.outputs), self.faults, self.faults
            )
        return self._output_oec

    def _begin_output(self) -> None:
        self._evaluate_linear()
        shares = [self._wire_shares.get(w, self.field.zero()) for w in self.circuit.outputs]
        self._output_corrector()
        self.send_all(("output", shares))
        self._maybe_finish_output()

    def _maybe_finish_output(self) -> None:
        corrector = self._output_oec
        if self.has_output or corrector is None:
            return
        # A zero-output circuit never produces output.
        if corrector.count and corrector.done:
            self.set_output(corrector.secrets())

    # -- message handling ------------------------------------------------------------------------------
    def receive(self, sender: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "input":
            gate_index, share = payload[1], payload[2]
            gate = self.circuit.gates[gate_index]
            if gate.kind is GateType.INPUT and gate.owner == sender and gate_index not in self._input_oec:
                self._input_oec[gate_index] = share
                self._maybe_start_evaluation()
        elif kind == "open":
            layer_index, values = payload[1], payload[2]
            corrector = self._opening_corrector(layer_index)
            if corrector is not None:
                corrector.add_row(
                    self.field.alpha(sender), _normalize_row(values, corrector.count)
                )
            self._maybe_finish_layer(layer_index)
        elif kind == "output":
            corrector = self._output_corrector()
            corrector.add_row(
                self.field.alpha(sender), _normalize_row(payload[1], corrector.count)
            )
            self._maybe_finish_output()


def run_asynchronous_baseline(
    circuit: Circuit,
    inputs: Dict[int, int],
    n: int,
    faults: int,
    network: Optional[NetworkModel] = None,
    seed: int = 0,
    corrupt: Optional[Dict[int, Behavior]] = None,
    max_time: Optional[float] = None,
) -> RunResult:
    """Run the asynchronous baseline end-to-end and return the raw run result."""
    runner = ProtocolRunner(n, network=network or AsynchronousNetwork(), seed=seed, corrupt=corrupt)
    dealer = TrustedTripleDealer(runner.field, n, degree=faults, seed=seed + 31)
    views = dealer.triple_shares_for(max(1, circuit.multiplication_count))
    core_set = list(range(1, n - faults + 1))

    def factory(party):
        value = inputs.get(party.id, 0)
        values = list(value) if isinstance(value, (list, tuple)) else [value]
        return AsynchronousMPC(
            party,
            "ampc",
            circuit=circuit,
            faults=faults,
            core_set=core_set,
            my_inputs=values,
            triples=views[party.id],
        )

    return runner.run(factory, max_time=max_time)

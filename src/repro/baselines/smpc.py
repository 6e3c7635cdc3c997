"""A purely synchronous MPC baseline (t < n/3, BGW/Beaver style).

The protocol trusts the synchrony bound Δ completely: every phase is driven
by a fixed local timeout, and whatever has not arrived by the timeout is
treated as missing (the sender "must be corrupt").  This is exactly the
behaviour the paper points at in the introduction: such protocols are
correct with t_s < n/3 corruptions in a synchronous network but *become
insecure in an asynchronous network even if a single honest party's message
is delayed*, which experiment E8 demonstrates.

Multiplication triples come from the idealized offline dealer (see
``repro.baselines.dealer``); the online phase is Beaver multiplication with
timeout-driven public opening and robust (RS-decoded) output reconstruction.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.circuits.circuit import Circuit, GateType
from repro.codes.reed_solomon import rs_decode_batch
from repro.field.gf import FieldElement
from repro.field.polynomial import interpolate_at
from repro.runtime import make_backend
from repro.sim.adversary import Behavior
from repro.sim.api import RunResult
from repro.sim.network import NetworkModel, SynchronousNetwork
from repro.sim.party import Party, ProtocolInstance
from repro.sharing.shamir import batch_share_at_alphas
from repro.baselines.dealer import TrustedTripleDealer


class SynchronousMPC(ProtocolInstance):
    """Timeout-driven synchronous MPC for one circuit evaluation.

    Phases (each lasting exactly Δ of local time):

    * round 1 -- input sharing (degree-t Shamir shares sent directly);
    * rounds 2..D_M+1 -- one Beaver opening round per multiplicative layer;
    * final round -- output-share exchange and robust reconstruction.
    """

    def __init__(
        self,
        party: Party,
        tag: str,
        circuit: Circuit,
        faults: int,
        my_inputs: Optional[List] = None,
        triples: Optional[List[Tuple]] = None,
        delta: Optional[float] = None,
    ):
        super().__init__(party, tag)
        self.circuit = circuit
        self.faults = faults
        self.my_inputs = list(my_inputs) if my_inputs is not None else []
        self.triples = list(triples) if triples is not None else []
        self.delta = delta if delta is not None else party.delta

        self._wire_shares: Dict[int, FieldElement] = {}
        self._input_shares: Dict[Tuple[int, int], FieldElement] = {}
        self._openings: Dict[int, Dict[int, List[FieldElement]]] = {}
        self._output_shares: Dict[int, List[FieldElement]] = {}
        self._used_triples = 0
        self._layers: List[List[int]] = []
        self._round = 0

    # -- lifecycle ------------------------------------------------------------------
    def start(self) -> None:
        self.start_time = self.now
        self._layers = self.circuit.multiplication_layers()
        self._share_inputs()
        self.schedule_at(self.start_time + self.delta, self._after_input_round)

    # -- round 1: input sharing -----------------------------------------------------
    def _share_inputs(self) -> None:
        cursor = 0
        for gate in self.circuit.input_gates:
            if gate.owner != self.me:
                continue
            value = self.my_inputs[cursor] if cursor < len(self.my_inputs) else 0
            cursor += 1
            shares = batch_share_at_alphas(self.field, value, self.faults, self.n, self.rng)
            for j in self.party.all_party_ids():
                self.send(j, ("input", gate.index, shares[j - 1]))

    def _after_input_round(self) -> None:
        # Whatever did not arrive within Δ is treated as input 0.
        for gate in self.circuit.input_gates:
            key = (gate.owner, gate.index)
            self._wire_shares[gate.index] = self._input_shares.get(
                (gate.owner, gate.index), self.field.zero()
            )
        self._evaluate_linear()
        self._begin_next_layer(0)

    # -- multiplication layers ---------------------------------------------------------
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

    def _begin_next_layer(self, layer_index: int) -> None:
        self._evaluate_linear()
        if layer_index >= len(self._layers):
            self._begin_output_round()
            return
        gates = self._layers[layer_index]
        masked: List[FieldElement] = []
        for gate_index in gates:
            gate = self.circuit.gates[gate_index]
            x_share = self._wire_shares.get(gate.inputs[0], self.field.zero())
            y_share = self._wire_shares.get(gate.inputs[1], self.field.zero())
            a_share, b_share, _c = self.triples[self._used_triples + len(masked) // 2]
            masked.append(x_share - a_share)
            masked.append(y_share - b_share)
        self.send_all(("open", layer_index, masked))
        self.schedule_at(self.now + self.delta, lambda: self._finish_layer(layer_index, gates))

    def _finish_layer(self, layer_index: int, gates: List[int]) -> None:
        received = self._openings.get(layer_index, {})
        openings = self._reconstruct_positions(received, 2 * len(gates))
        for position, gate_index in enumerate(gates):
            gate = self.circuit.gates[gate_index]
            e_value = openings[2 * position]
            d_value = openings[2 * position + 1]
            a_share, b_share, c_share = self.triples[self._used_triples]
            self._used_triples += 1
            self._wire_shares[gate_index] = (
                d_value * e_value + e_value * b_share + d_value * a_share + c_share
            )
        self._begin_next_layer(layer_index + 1)

    def _reconstruct_positions(
        self, received: Dict[int, List[FieldElement]], count: int
    ) -> List[FieldElement]:
        """Robustly open ``count`` positions of one timeout round.

        Positions are grouped by the set of senders that reported them
        (normally a single group: every live sender reports every position)
        and each group is decoded through :func:`rs_decode_batch`, so the
        round costs one cached-matrix product instead of ``count`` Gaussian
        eliminations.
        """
        per_position: List[List] = []
        groups: Dict[tuple, List[int]] = {}
        for position in range(count):
            points = [
                (self.field.alpha(sender), values[position])
                for sender, values in received.items()
                if position < len(values) and isinstance(values[position], FieldElement)
            ]
            per_position.append(points)
            xs = tuple(int(x) for x, _ in points)
            groups.setdefault(xs, []).append(position)
        openings: List[FieldElement] = [self.field.zero()] * count
        for xs, positions in groups.items():
            rows = [[int(y) for _, y in per_position[position]] for position in positions]
            decoded = rs_decode_batch(self.field, xs, rows, self.faults, self.faults)
            for position, poly in zip(positions, decoded):
                if poly is not None:
                    openings[position] = poly.constant_term()
                else:
                    openings[position] = self._opening_fallback(per_position[position])
        return openings

    def _opening_fallback(self, points: List) -> FieldElement:
        # Synchrony violated (or too many faults): fall back to naive
        # interpolation of whatever arrived -- this is where the baseline
        # silently computes garbage in an asynchronous network.
        if len(points) >= self.faults + 1:
            return interpolate_at(self.field, points[: self.faults + 1], 0)
        return self.field.zero()

    # -- output round ----------------------------------------------------------------------
    def _begin_output_round(self) -> None:
        self._evaluate_linear()
        shares = [
            self._wire_shares.get(wire, self.field.zero()) for wire in self.circuit.outputs
        ]
        self.send_all(("output", shares))
        self.schedule_at(self.now + self.delta, self._finish_output_round)

    def _finish_output_round(self) -> None:
        self.set_output(
            self._reconstruct_positions(self._output_shares, len(self.circuit.outputs))
        )

    # -- message handling ---------------------------------------------------------------------
    def receive(self, sender: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "input":
            gate_index, share = payload[1], payload[2]
            gate = self.circuit.gates[gate_index]
            if gate.kind is GateType.INPUT and gate.owner == sender:
                self._input_shares[(sender, gate_index)] = share
        elif kind == "open":
            layer_index, values = payload[1], payload[2]
            self._openings.setdefault(layer_index, {})[sender] = values
        elif kind == "output":
            self._output_shares[sender] = payload[1]


def run_synchronous_baseline(
    circuit: Circuit,
    inputs: Dict[int, int],
    n: int,
    faults: int,
    network: Optional[NetworkModel] = None,
    seed: int = 0,
    corrupt: Optional[Dict[int, Behavior]] = None,
    max_time: Optional[float] = None,
) -> RunResult:
    """Run the synchronous baseline end-to-end and return the raw run result."""
    backend = make_backend("sim", n, network=network or SynchronousNetwork(), seed=seed, corrupt=corrupt)
    dealer = TrustedTripleDealer(backend.field, n, degree=faults, seed=seed + 17)
    views = dealer.triple_shares_for(max(1, circuit.multiplication_count))

    def factory(party):
        value = inputs.get(party.id, 0)
        values = list(value) if isinstance(value, (list, tuple)) else [value]
        return SynchronousMPC(
            party,
            "smpc",
            circuit=circuit,
            faults=faults,
            my_inputs=values,
            triples=views[party.id],
        )

    return backend.run(factory, max_time=max_time)

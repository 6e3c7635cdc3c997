"""ΠCirEval: the best-of-both-worlds circuit-evaluation protocol (Fig 11 / Thm 7.1).

Four phases:

1. *Preprocessing and input sharing* -- an instance of ΠACS t_s-shares the
   inputs of a common subset CS of at least n - t_s parties (all honest
   parties in a synchronous network), while ΠPreProcessing generates the
   c_M shared multiplication triples in parallel.
2. *Circuit evaluation* -- linear gates are evaluated locally; each
   multiplicative layer is evaluated with one batched Beaver round.
3. *Output computation* -- the shared outputs are publicly reconstructed
   with OEC.
4. *Termination* -- ready-message amplification (t_s+1 relay, 2t_s+1 accept)
   lets every honest party terminate with the common output.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.acs.acs import AgreementOnCommonSubset, acs_time_bound
from repro.circuits.circuit import Circuit, GateType
from repro.field.gf import FieldElement
from repro.field.polynomial import Polynomial
from repro.sim.party import Party, ProtocolInstance
from repro.timing import epsilon
from repro.triples.beaver import BeaverMultiplication
from repro.triples.preprocessing import Preprocessing, preprocessing_time_bound
from repro.triples.reconstruction import PublicReconstruction


def cir_eval_time_bound(
    n: int,
    ts: int,
    multiplicative_depth: int,
    delta: float,
    c_m: int = 1,
    offline: str = "tripsh",
) -> float:
    """Nominal time bound for ΠCirEval in a synchronous network.

    The paper's closed form is (120n + D_M + 6k - 20)·Δ for its specific
    sub-protocol constants; with our instantiations the bound is
    max(T_ACS, T_TripGen) + (D_M + 2)·Δ.  ``c_m`` is accepted for callers
    that pass the circuit's multiplication count; the bound does not depend
    on it.
    """
    return (
        max(
            acs_time_bound(n, ts, delta),
            preprocessing_time_bound(n, ts, delta, c_m=c_m, offline=offline),
        )
        + (multiplicative_depth + 2.0) * delta
        + 8 * epsilon(delta)
    )


class CircuitEvaluation(ProtocolInstance):
    """One ΠCirEval instance.

    ``circuit`` is the public arithmetic circuit; ``my_inputs`` is the list
    of this party's private values for the input wires it owns (in wire
    order).  The output is the list of the circuit's public output values.
    """

    def __init__(
        self,
        party: Party,
        tag: str,
        circuit: Circuit,
        ts: int,
        ta: int,
        my_inputs: Optional[List] = None,
        anchor: Optional[float] = None,
        delta: Optional[float] = None,
        triples: Optional[List[Tuple]] = None,
        offline: str = "tripsh",
    ):
        super().__init__(party, tag)
        self.circuit = circuit
        self.ts = ts
        self.ta = ta
        self.my_inputs = list(my_inputs) if my_inputs is not None else []
        self.anchor = anchor
        self.delta = delta if delta is not None else party.delta
        #: Offline pipeline for the preprocessing sub-protocol (see
        #: :data:`repro.triples.preprocessing.OFFLINE_MODES`).
        self.offline = offline
        #: Pre-generated Beaver triples (e.g. a service reservoir).  When
        #: supplied, the instance skips its own ΠPreProcessing entirely; the
        #: shares must be aligned across parties (every party passes its
        #: share of the same triple at the same position).
        if triples is not None and len(triples) < self.circuit.multiplication_count:
            raise ValueError(
                f"{len(triples)} triples supplied but the circuit has "
                f"{self.circuit.multiplication_count} multiplications"
            )
        self._supplied_triples = list(triples) if triples is not None else None

        self._acs: Optional[AgreementOnCommonSubset] = None
        self._preprocessing: Optional[Preprocessing] = None
        self._acs_result: Optional[Tuple[List[int], Dict[int, List[FieldElement]]]] = None
        self._triples: Optional[List[Tuple]] = None
        self._wire_shares: Dict[int, FieldElement] = {}
        self._used_triples = 0
        self._beaver_round = 0
        self._pending_mul: List[int] = []
        self._evaluating = False
        self._output_recon: Optional[PublicReconstruction] = None
        self._ready_votes: Dict[Any, set] = {}
        self._ready_sent = False
        self.common_subset: Optional[List[int]] = None

    # -- input-wire bookkeeping ------------------------------------------------------
    def _inputs_per_party(self) -> Dict[int, int]:
        counts: Dict[int, int] = {i: 0 for i in self.party.all_party_ids()}
        for gate in self.circuit.input_gates:
            if gate.owner is not None:
                counts[gate.owner] = counts.get(gate.owner, 0) + 1
        return counts

    @property
    def _max_inputs(self) -> int:
        counts = self._inputs_per_party()
        return max(counts.values()) if counts else 1

    # -- lifecycle ----------------------------------------------------------------------
    def start(self) -> None:
        if self.anchor is None:
            self.anchor = self.now
        num_inputs = max(1, self._max_inputs)
        my_polynomials = []
        for position in range(num_inputs):
            value = self.my_inputs[position] if position < len(self.my_inputs) else 0
            my_polynomials.append(
                Polynomial.random(self.field, self.ts, constant_term=value, rng=self.rng)
            )
        self._acs = self.spawn(
            AgreementOnCommonSubset,
            "input-acs",
            ts=self.ts,
            ta=self.ta,
            num_polynomials=num_inputs,
            polynomials=my_polynomials,
            anchor=self.anchor,
            delta=self.delta,
        )
        self._acs.on_output(self._record_acs)
        if self._supplied_triples is None:
            self._preprocessing = self.spawn(
                Preprocessing,
                "preproc",
                ts=self.ts,
                ta=self.ta,
                num_triples=max(1, self.circuit.multiplication_count),
                anchor=self.anchor,
                delta=self.delta,
                mode=self.offline,
            )
            self._preprocessing.on_output(self._record_triples)
        else:
            self._triples = self._supplied_triples
        self._acs.start()
        if self._preprocessing is not None:
            self._preprocessing.start()

    def _record_acs(self, result: Any) -> None:
        self._acs_result = result
        self._maybe_evaluate()

    def _record_triples(self, triples: List[Tuple]) -> None:
        self._triples = triples
        self._maybe_evaluate()

    # -- phase 2: shared circuit evaluation ----------------------------------------------------
    def _maybe_evaluate(self) -> None:
        if self._evaluating or self._acs_result is None or self._triples is None:
            return
        self._evaluating = True
        subset, shares = self._acs_result
        self.common_subset = list(subset)
        # Assign input-wire shares: parties outside CS contribute a default 0.
        cursor: Dict[int, int] = {}
        for gate in self.circuit.input_gates:
            owner = gate.owner
            position = cursor.get(owner, 0)
            cursor[owner] = position + 1
            if owner in shares and position < len(shares[owner]):
                self._wire_shares[gate.index] = shares[owner][position]
            else:
                self._wire_shares[gate.index] = self.field.zero()
        self._advance()

    def _advance(self) -> None:
        """Evaluate every gate whose inputs are ready; batch ready MUL gates."""
        progressed = True
        ready_muls: List[int] = []
        while progressed:
            progressed = False
            for gate in self.circuit.gates:
                if gate.index in self._wire_shares:
                    continue
                if gate.kind is GateType.INPUT:
                    continue
                if not all(wire in self._wire_shares for wire in gate.inputs):
                    continue
                if gate.kind is GateType.MUL:
                    if gate.index not in ready_muls:
                        ready_muls.append(gate.index)
                    continue
                left = self._wire_shares[gate.inputs[0]]
                if gate.kind is GateType.ADD:
                    value = left + self._wire_shares[gate.inputs[1]]
                elif gate.kind is GateType.SUB:
                    value = left - self._wire_shares[gate.inputs[1]]
                elif gate.kind is GateType.CONST_MUL:
                    value = left * gate.constant
                elif gate.kind is GateType.CONST_ADD:
                    value = left + gate.constant
                else:  # pragma: no cover - exhaustive
                    raise ValueError(f"unexpected gate kind {gate.kind}")
                self._wire_shares[gate.index] = value
                progressed = True
        if ready_muls:
            self._evaluate_multiplications(ready_muls)
            return
        if all(wire in self._wire_shares for wire in self.circuit.outputs):
            self._reconstruct_outputs()

    def _evaluate_multiplications(self, gate_indices: List[int]) -> None:
        assert self._triples is not None
        jobs = []
        for gate_index in gate_indices:
            gate = self.circuit.gates[gate_index]
            x_share = self._wire_shares[gate.inputs[0]]
            y_share = self._wire_shares[gate.inputs[1]]
            a_share, b_share, c_share = self._triples[self._used_triples]
            self._used_triples += 1
            jobs.append((x_share, y_share, a_share, b_share, c_share))
        self._beaver_round += 1
        beaver = self.spawn(
            BeaverMultiplication, f"beaver[{self._beaver_round}]", ts=self.ts, jobs=jobs
        )
        beaver.on_output(lambda outputs, gates=list(gate_indices): self._record_products(gates, outputs))
        beaver.start()

    def _record_products(self, gate_indices: List[int], outputs: List[FieldElement]) -> None:
        for gate_index, share in zip(gate_indices, outputs):
            self._wire_shares[gate_index] = share
        self._advance()

    # -- phase 3: output reconstruction ---------------------------------------------------------------
    def _reconstruct_outputs(self) -> None:
        if self._output_recon is not None:
            return
        shares = [self._wire_shares[wire] for wire in self.circuit.outputs]
        self._output_recon = self.spawn(
            PublicReconstruction, "output", degree=self.ts, faults=self.ts, shares=shares
        )
        self._output_recon.on_output(self._broadcast_ready)
        self._output_recon.start()

    # -- phase 4: termination -------------------------------------------------------------------------
    def _broadcast_ready(self, outputs: List[FieldElement]) -> None:
        self._send_ready(tuple(outputs))

    def _send_ready(self, outputs: Tuple) -> None:
        if self._ready_sent:
            return
        self._ready_sent = True
        self.send_all(("ready", outputs))

    def receive(self, sender: int, payload: Any) -> None:
        if not isinstance(payload, tuple) or payload[0] != "ready":
            return
        value = payload[1]
        voters = self._ready_votes.setdefault(value, set())
        if sender in voters:
            return
        voters.add(sender)
        if len(voters) >= self.ts + 1:
            self._send_ready(value)
        if len(voters) >= 2 * self.ts + 1 and not self.has_output:
            self.set_output(list(value))

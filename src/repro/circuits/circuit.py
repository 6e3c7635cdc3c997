"""Arithmetic circuit representation (Section 2).

The function f : F^n -> F to be computed is represented as an arithmetic
circuit ``cir`` over F with linear gates (addition, subtraction, constant
multiplication/addition) and non-linear multiplication gates.  The circuit's
multiplication count c_M and multiplicative depth D_M drive the cost of the
preprocessing phase and the running time of ΠCirEval.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.field.gf import GF, FieldElement


class GateType(enum.Enum):
    """Supported gate kinds."""

    INPUT = "input"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    CONST_MUL = "const_mul"
    CONST_ADD = "const_add"


class Gate:
    """One gate of the circuit.

    ``inputs`` are wire indices of earlier gates; ``constant`` is used by
    the constant gates; ``owner`` identifies the input-providing party for
    INPUT gates.
    """

    __slots__ = ("index", "kind", "inputs", "constant", "owner")

    def __init__(
        self,
        index: int,
        kind: GateType,
        inputs: Sequence[int] = (),
        constant=None,
        owner: Optional[int] = None,
    ):
        self.index = index
        self.kind = kind
        self.inputs = tuple(inputs)
        self.constant = constant
        self.owner = owner

    def __repr__(self) -> str:
        return f"Gate({self.index}, {self.kind.value}, inputs={self.inputs})"


class Circuit:
    """An arithmetic circuit in topological order.

    Gates are numbered 0..len-1 and may only reference earlier gates.
    ``outputs`` lists the wire indices whose values the parties learn.
    """

    def __init__(self, field: GF, gates: Sequence[Gate], outputs: Sequence[int]):
        self.field = field
        self.gates = list(gates)
        self.outputs = list(outputs)
        self._validate()

    def rows(self) -> List[Tuple[str, Tuple[int, ...], object, Optional[int]]]:
        """The gates as plain rows ``(kind value, input wires, constant,
        owner)`` in wire order: with :attr:`outputs`, what the wire codec
        carries of a circuit (:meth:`from_rows` rebuilds it)."""
        return [(gate.kind.value, gate.inputs, gate.constant, gate.owner) for gate in self.gates]

    @classmethod
    def from_rows(cls, field: GF, rows: Sequence, outputs: Sequence[int]) -> "Circuit":
        """The circuit of :meth:`rows`; an unknown kind, a malformed row or a
        wire that is not an earlier gate's raises ``ValueError``."""
        gates = [
            Gate(index, GateType(kind), inputs, constant, owner)
            for index, (kind, inputs, constant, owner) in enumerate(rows)
        ]
        return cls(field, gates, outputs)

    # -- structure -------------------------------------------------------------------
    def _validate(self) -> None:
        for gate in self.gates:
            for wire in gate.inputs:
                if not 0 <= wire < gate.index:
                    raise ValueError(f"gate {gate.index} references wire {wire}, not an earlier one")
        for wire in self.outputs:
            if not 0 <= wire < len(self.gates):
                raise ValueError(f"output wire {wire} out of range")

    @property
    def input_gates(self) -> List[Gate]:
        return [gate for gate in self.gates if gate.kind is GateType.INPUT]

    @property
    def input_owners(self) -> List[int]:
        return [gate.owner for gate in self.input_gates if gate.owner is not None]

    @property
    def multiplication_count(self) -> int:
        """c_M: the number of multiplication gates."""
        return sum(1 for gate in self.gates if gate.kind is GateType.MUL)

    @property
    def multiplicative_depth(self) -> int:
        """D_M: the maximum number of multiplication gates on any wire path."""
        depth: Dict[int, int] = {}
        best = 0
        for gate in self.gates:
            input_depth = max((depth[w] for w in gate.inputs), default=0)
            depth[gate.index] = input_depth + (1 if gate.kind is GateType.MUL else 0)
            best = max(best, depth[gate.index])
        return best

    def multiplication_layers(self) -> List[List[int]]:
        """Multiplication gates grouped by multiplicative depth (for batching)."""
        depth: Dict[int, int] = {}
        layers: Dict[int, List[int]] = {}
        for gate in self.gates:
            input_depth = max((depth[w] for w in gate.inputs), default=0)
            if gate.kind is GateType.MUL:
                depth[gate.index] = input_depth + 1
                layers.setdefault(depth[gate.index], []).append(gate.index)
            else:
                depth[gate.index] = input_depth
        return [layers[level] for level in sorted(layers)]

    # -- evaluation -----------------------------------------------------------------------
    def evaluate(self, inputs: Dict[int, FieldElement]) -> List[FieldElement]:
        """Evaluate the circuit in the clear.

        ``inputs`` maps each input-owner party id to its input value; the
        return value is the list of output-wire values.  This is the
        reference the MPC protocols are checked against.
        """
        values: Dict[int, FieldElement] = {}
        input_cursor: Dict[int, int] = {}
        for gate in self.gates:
            if gate.kind is GateType.INPUT:
                owner = gate.owner
                if owner is None or owner not in inputs:
                    values[gate.index] = self.field.zero()
                else:
                    values[gate.index] = self.field(inputs[owner])
            elif gate.kind is GateType.ADD:
                values[gate.index] = values[gate.inputs[0]] + values[gate.inputs[1]]
            elif gate.kind is GateType.SUB:
                values[gate.index] = values[gate.inputs[0]] - values[gate.inputs[1]]
            elif gate.kind is GateType.MUL:
                values[gate.index] = values[gate.inputs[0]] * values[gate.inputs[1]]
            elif gate.kind is GateType.CONST_MUL:
                values[gate.index] = values[gate.inputs[0]] * self.field(gate.constant)
            elif gate.kind is GateType.CONST_ADD:
                values[gate.index] = values[gate.inputs[0]] + self.field(gate.constant)
            else:  # pragma: no cover - exhaustive enum
                raise ValueError(f"unknown gate kind {gate.kind}")
        return [values[wire] for wire in self.outputs]

    def __repr__(self) -> str:
        return (
            f"Circuit(gates={len(self.gates)}, c_M={self.multiplication_count}, "
            f"D_M={self.multiplicative_depth}, outputs={len(self.outputs)})"
        )

"""Tests for the arithmetic-circuit representation, builder and library."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (
    CircuitBuilder,
    GateType,
    equality_to_zero_circuit,
    inner_product_circuit,
    mean_circuit,
    millionaires_product_circuit,
    multiplication_circuit,
    polynomial_evaluation_circuit,
    second_price_auction_circuit,
)
from repro.circuits.circuit import Circuit, Gate
from repro.field import default_field

F = default_field()


def test_builder_basic_gates_and_evaluation():
    builder = CircuitBuilder(F)
    x = builder.input(owner=1)
    y = builder.input(owner=2)
    s = builder.add(x, y)
    d = builder.sub(x, y)
    p = builder.mul(s, d)
    cm = builder.constant_mul(p, 3)
    ca = builder.constant_add(cm, 10)
    circuit = builder.build(outputs=[ca])
    outputs = circuit.evaluate({1: F(7), 2: F(2)})
    # ((7+2)*(7-2))*3 + 10 = 145
    assert outputs == [F(145)]


def test_multiplication_count_and_depth():
    builder = CircuitBuilder(F)
    a = builder.input(owner=1)
    b = builder.input(owner=2)
    c = builder.input(owner=3)
    ab = builder.mul(a, b)
    abc = builder.mul(ab, c)
    circuit = builder.build(outputs=[abc])
    assert circuit.multiplication_count == 2
    assert circuit.multiplicative_depth == 2
    layers = circuit.multiplication_layers()
    assert len(layers) == 2
    assert layers[0] == [ab]
    assert layers[1] == [abc]


def test_sum_and_product_helpers():
    builder = CircuitBuilder(F)
    wires = [builder.input(owner=i) for i in range(1, 6)]
    total = builder.sum(wires)
    prod = builder.product(wires)
    circuit = builder.build(outputs=[total, prod])
    inputs = {i: F(i) for i in range(1, 6)}
    outputs = circuit.evaluate(inputs)
    assert outputs[0] == F(15)
    assert outputs[1] == F(120)
    with pytest.raises(ValueError):
        builder.sum([])
    with pytest.raises(ValueError):
        builder.product([])


def test_power_helper():
    builder = CircuitBuilder(F)
    x = builder.input(owner=1)
    x5 = builder.power(x, 5)
    circuit = builder.build(outputs=[x5])
    assert circuit.evaluate({1: F(3)}) == [F(243)]
    with pytest.raises(ValueError):
        builder.power(x, 0)


def test_circuit_validation_rejects_forward_references():
    gates = [Gate(0, GateType.INPUT, owner=1), Gate(1, GateType.ADD, (0, 2)),
             Gate(2, GateType.INPUT, owner=2)]
    with pytest.raises(ValueError):
        Circuit(F, gates, outputs=[1])
    with pytest.raises(ValueError):
        Circuit(F, [Gate(0, GateType.INPUT, owner=1)], outputs=[5])


def test_missing_input_defaults_to_zero():
    circuit = multiplication_circuit(F, 3)
    outputs = circuit.evaluate({1: F(2), 2: F(3)})
    assert outputs == [F(0)]


def test_multiplication_circuit_library():
    circuit = multiplication_circuit(F, 4)
    assert circuit.multiplication_count == 3
    assert circuit.evaluate({i: F(i + 1) for i in range(1, 5)}) == [F(2 * 3 * 4 * 5)]
    assert set(circuit.input_owners) == {1, 2, 3, 4}


def test_mean_circuit_library():
    circuit = mean_circuit(F, 5, scale=2)
    assert circuit.multiplication_count == 0
    assert circuit.evaluate({i: F(i) for i in range(1, 6)}) == [F(30)]


def test_inner_product_circuit_library():
    circuit = inner_product_circuit(F, owners_x=[1, 2], owners_y=[3, 4])
    outputs = circuit.evaluate({1: F(2), 2: F(3), 3: F(5), 4: F(7)})
    assert outputs == [F(2 * 5 + 3 * 7)]
    with pytest.raises(ValueError):
        inner_product_circuit(F, owners_x=[1], owners_y=[2, 3])


def test_polynomial_evaluation_circuit_library():
    circuit = polynomial_evaluation_circuit(F, coefficients=[1, 2, 3], owner=1)
    # Horner with coefficients [1, 2, 3]: ((1)x + 2)x + 3 at x = 4 -> 27
    assert circuit.evaluate({1: F(4)}) == [F(27)]


def test_equality_to_zero_circuit_library():
    circuit = equality_to_zero_circuit(F, owner_a=1, owner_b=2)
    # Equal inputs give output 0; unequal inputs give a masked non-zero value.
    assert circuit.evaluate({1: F(5), 2: F(5)}) == [F(0)]
    assert circuit.evaluate({1: F(5), 2: F(6)}) != [F(0)]


def test_millionaires_product_circuit_library():
    circuit = millionaires_product_circuit(F, 4)
    assert circuit.multiplication_count == 3
    outputs = circuit.evaluate({1: F(1), 2: F(2), 3: F(3), 4: F(4)})
    assert outputs == [F(1 * 2 + 2 * 3 + 3 * 4)]


def test_second_price_auction_circuit_library():
    circuit = second_price_auction_circuit(F, 3)
    assert circuit.multiplicative_depth == 2
    bids = {1: F(2), 2: F(3), 3: F(4)}
    expected = sum(
        int(bids[i]) * int(bids[(i - 2) % 3 + 1]) * int(bids[i % 3 + 1]) for i in (1, 2, 3)
    )
    assert circuit.evaluate(bids) == [F(expected)]


def test_repr_contains_counts():
    circuit = multiplication_circuit(F, 3)
    assert "c_M=2" in repr(circuit)


@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.integers(0, 1000), min_size=2, max_size=6))
def test_property_product_circuit_matches_python(values):
    n = len(values)
    circuit = multiplication_circuit(F, n)
    expected = 1
    for v in values:
        expected *= v
    outputs = circuit.evaluate({i + 1: F(v) for i, v in enumerate(values)})
    assert outputs == [F(expected)]


def test_circuit_rows_cross_the_wire_codec_and_evaluate_alike():
    """A circuit goes to a service party as rows on the wire codec (no
    pickle): every gate kind and a field-element constant come back whole."""
    from repro.runtime.wire import decode_payload, encode_payload

    builder = CircuitBuilder(F)
    x, y = builder.input(owner=1), builder.input(owner=2)
    product = builder.mul(builder.add(x, y), builder.sub(x, y))
    scaled = builder.constant_add(builder.constant_mul(product, F(7)), 5)
    circuit = builder.build([scaled, product])
    decoded = decode_payload(encode_payload(
        {"gates": circuit.rows(), "outputs": circuit.outputs}
    ))
    clone = Circuit.from_rows(F, decoded["gates"], decoded["outputs"])
    assert {gate.kind for gate in clone.gates} == set(GateType)
    assert clone.gates[-2].constant == F(7)
    inputs = {1: F(9), 2: F(4)}
    assert clone.evaluate(inputs) == circuit.evaluate(inputs) == [F(13 * 5 * 7 + 5), F(65)]


@pytest.mark.parametrize("rows", [
    [("input", (), None, 1), ("add", (0, 1), None, None)],    # its own wire
    [("input", (), None, 1), ("add", (0, 2), None, None)],    # a later wire
    [("input", (), None, 1), ("add", (0, -1), None, None)],   # no wire at all
    [("input", (), None, 1), ("xor", (0, 0), None, None)],    # an unknown kind
    [("input", (), None)],                                    # a short row
], ids=["own-wire", "forward-wire", "negative-wire", "unknown-kind", "short-row"])
def test_circuit_rows_are_validated_when_rebuilt(rows):
    with pytest.raises(ValueError):
        Circuit.from_rows(F, rows, [0])

"""Unit tests for the HIM offline-phase primitives (repro.triples.him).

The protocol-level behaviour (golden transcripts, adversarial discard and
loud abort, sharded message bounds) lives in the scenario matrix
(test_scenario_matrix.py) and the kernel-equivalence suite; this module
pins the algebra underneath: hyper-invertibility of the cached matrix,
linearity of the share-wise extraction, the yield arithmetic, and the
run_mpc wiring of the ``offline`` knob.
"""

from __future__ import annotations

import itertools

import pytest

from repro.field import default_field
from repro.field.array import HIM_POINT_OFFSET, him_matrix
from repro.field.polynomial import Polynomial, interpolate_at
from repro.triples import (
    OFFLINE_MODES,
    HimPreprocessing,
    Preprocessing,
    extract_random_shares,
    him_extraction_yield,
    him_preprocessing_time_bound,
    him_slots,
)
from repro.triples.preprocessing import check_offline_mode

FIELD = default_field()


def _det_mod(field, rows):
    """Determinant over GF(p) by fraction-free elimination on residues."""
    p = field.modulus
    m = [list(map(int, row)) for row in rows]
    size = len(m)
    det = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det % p
        det = det * m[col][col] % p
        inv = pow(m[col][col], p - 2, p)
        for r in range(col + 1, size):
            factor = m[r][col] * inv % p
            m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[col])]
    return det % p


def test_him_matrix_is_hyper_invertible():
    """Every square submatrix is invertible -- the defining HIM property,
    checked exhaustively at a small size."""
    inputs, outputs = 5, 4
    matrix = him_matrix(FIELD, inputs, outputs)
    assert len(matrix) == outputs and all(len(row) == inputs for row in matrix)
    for size in range(1, outputs + 1):
        for row_pick in itertools.combinations(range(outputs), size):
            for col_pick in itertools.combinations(range(inputs), size):
                sub = [[matrix[r][c] for c in col_pick] for r in row_pick]
                assert _det_mod(FIELD, sub) != 0, (row_pick, col_pick)


def test_him_matrix_is_cached_and_validated():
    first = him_matrix(FIELD, 6, 3)
    assert him_matrix(FIELD, 6, 3) is first
    with pytest.raises(ValueError):
        him_matrix(FIELD, 3, 4)  # more outputs than inputs
    with pytest.raises(ValueError):
        him_matrix(FIELD, 3, 0)


def test_him_output_points_are_disjoint_from_party_points():
    """The point-change targets must never collide with party evaluation
    points, or an extracted value would equal some dealer's input verbatim."""
    for i in range(1, 65):
        assert int(FIELD.alpha(i)) < HIM_POINT_OFFSET + 1


def test_extract_random_shares_is_a_sharing_of_the_him_image():
    """Share-wise extraction commutes with reconstruction: interpolating the
    extracted share vectors yields exactly HIM @ secrets."""
    n, ts, count = 5, 1, 3
    rng = __import__("random").Random(7)
    inputs = 4  # |CS| = n - ts dealers
    outputs = inputs - ts
    secrets = [[FIELD.random(rng) for _ in range(count)] for _ in range(inputs)]
    polys = [
        [Polynomial.random(FIELD, ts, constant_term=s, rng=rng) for s in row]
        for row in secrets
    ]
    per_party_rows = {
        pid: [[poly.evaluate(FIELD.alpha(pid)) for poly in row] for row in polys]
        for pid in range(1, n + 1)
    }
    extracted = {
        pid: extract_random_shares(FIELD, per_party_rows[pid], outputs)
        for pid in range(1, n + 1)
    }
    matrix = him_matrix(FIELD, inputs, outputs)
    for j in range(outputs):
        for k in range(count):
            points = [
                (FIELD.alpha(pid), extracted[pid][j][k]) for pid in range(1, ts + 2)
            ]
            value = interpolate_at(FIELD, points, 0)
            expected = sum(
                (FIELD(m) * secrets[i][k] for i, m in enumerate(matrix[j])),
                FIELD.zero(),
            )
            assert value == expected


def test_him_yield_and_slot_arithmetic():
    # n=4, ts=1: m=3, d=1 -> one fresh triple per slot.
    assert him_extraction_yield(4, 1) == 1
    assert him_slots(4, 1, 3) == 3
    # n=7, ts=2: m=5, d=2 -> one per slot; n=10, ts=2: m=8, d=3 -> two.
    assert him_extraction_yield(7, 2) == 1
    assert him_extraction_yield(10, 2) == 2
    assert him_slots(10, 2, 5) == 3
    assert him_slots(10, 2, 1) == 1


def test_him_time_bound_grows_with_sharding():
    base = him_preprocessing_time_bound(4, 1, 1.0, shard_size=None, c_m=3)
    sharded = him_preprocessing_time_bound(4, 1, 1.0, shard_size=1, c_m=3)
    assert sharded > base > 0


def test_offline_mode_dispatch_and_validation():
    assert set(OFFLINE_MODES) == {"tripsh", "him"}
    assert check_offline_mode("him") == "him"
    with pytest.raises(ValueError):
        check_offline_mode("bgw")
    with pytest.raises(ValueError):
        him_preprocessing_time_bound(4, 1, 1.0, shard_size=0)


def test_preprocessing_mode_him_constructs_him_subclass():
    """``Preprocessing(mode="him")`` must hand back a fully-initialised
    HimPreprocessing -- the mode knob is the only API change callers see."""
    from repro.sim import ProtocolRunner

    runner = ProtocolRunner(4, seed=3)
    result = runner.run(
        lambda party: Preprocessing(
            party, "preproc", ts=1, ta=0, num_triples=2, anchor=0.0, mode="him"
        ),
        max_time=5_000_000.0,
    )
    instance = next(iter(result.instances.values()))
    assert isinstance(instance, HimPreprocessing)
    assert instance.mode == "him"
    assert len(result.honest_outputs()) == 4
    for out in result.honest_outputs().values():
        assert len(out) >= 2


def test_run_mpc_him_outputs_match_reference():
    """The offline knob is output-invariant end to end through run_mpc."""
    from repro.circuits import millionaires_product_circuit
    from repro.mpc import run_mpc

    circuit = millionaires_product_circuit(FIELD, 4)
    inputs = {1: 3, 2: 5, 3: 7, 4: 11}
    expected = circuit.evaluate({pid: FIELD(v) for pid, v in inputs.items()})
    reference = run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=9)
    him = run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=9, offline="him")
    assert reference.completed and him.completed
    assert reference.outputs == him.outputs == expected

"""Accelerated-kernel vs int-kernel equivalence: the exact-twin contract.

The pluggable numerical kernel backends (:mod:`repro.field.kernels`) must be
*exact*: for identical inputs, the ``"numpy"`` uint64 limb-split backend
and the ``"int"`` pure-Python reference return identical residues through every FieldArray op and every
cached-matrix path, including edge residues (0, 1, p-1) and unreduced
inputs (values >= p).  On top of the property-based checks, one
scenario-matrix diagonal cell runs end to end under every installed kernel
and must produce bit-identical outputs and transcripts -- switching kernels
can never change what a protocol says, only how fast it says it.

The whole module is skipped when numpy is not importable (the int kernel is
then the only backend and equivalence is vacuous).
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.codes.oec import BatchOnlineErrorCorrector
from repro.codes.reed_solomon import rs_decode, rs_decode_batch
from repro.field import GF, FieldElement, default_field
from repro.field.array import (
    FieldArray,
    batch_evaluate,
    batch_interpolate,
    batch_interpolate_at,
    batch_inverse,
)
from repro.field.bivariate import BatchSymmetricBivariate
from repro.field.kernels import (
    DISPATCH_THRESHOLDS,
    available_kernel_backends,
    kernel_name,
    numpy_available,
    set_kernel_backend,
)
from repro.field.polynomial import Polynomial
from repro.sharing.shamir import (
    batch_reconstruct,
    batch_robust_reconstruct,
    batch_share,
)

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy kernel unavailable"
)

F = default_field()
P = F.modulus

#: Edge residues every value strategy mixes in: zero, one, p-1, and
#: unreduced representatives (p, p+1, 2p-1, a 63-bit value).
EDGE_VALUES = [0, 1, P - 1, P - 2, P, P + 1, 2 * P - 1, (1 << 63) - 7]

#: Sizes straddling every runtime-dispatch crossover, so both the delegated
#: small-input paths and the vectorized large-input paths are exercised.
SIZES = [1, 3, DISPATCH_THRESHOLDS["elementwise"] - 1,
         DISPATCH_THRESHOLDS["elementwise"] + 13, 400]


#: Every installed accelerated backend; the equivalence properties run
#: against all of them (numpy always under the module skipif).
ACCELERATED_KERNELS = [
    name for name in ("numpy",) if name in available_kernel_backends()
]


@contextmanager
def kernel(name):
    previous = set_kernel_backend(name)
    try:
        yield
    finally:
        set_kernel_backend(previous)


def both_kernels(fn):
    """Run ``fn`` under the int kernel and every installed accelerated
    kernel; all results must match the int reference.  Returns
    ``(reference, fast)`` for the call sites' own follow-up asserts."""
    with kernel("int"):
        reference = fn()
    fast = reference
    for name in ACCELERATED_KERNELS:
        with kernel(name):
            fast = fn()
        assert fast == reference, f"kernel {name!r} diverges from int"
    return reference, fast


def _values(seed: int, size: int, lo: int = 0):
    rng = random.Random(seed)
    out = [rng.randrange(lo, P) for _ in range(size)]
    # Sprinkle edge residues at deterministic positions (lo=1 asks for
    # nonzero residues, so skip edges that are 0 mod p there).
    for offset, edge in enumerate(EDGE_VALUES):
        if edge % P >= lo and size > 0:
            out[(seed + offset) % size] = edge
    return out


# -- FieldArray element-wise ops -----------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), size=st.sampled_from(SIZES),
       scalar=st.sampled_from(EDGE_VALUES + [12345]))
def test_property_elementwise_ops_match_across_kernels(seed, size, scalar):
    a_vals = _values(seed, size)
    b_vals = _values(seed + 1, size)

    def compute():
        a = FieldArray(F, a_vals)
        b = FieldArray(F, b_vals)
        return [
            (a + b).values, (a - b).values, (b - a).values, (a * b).values,
            (-a).values, (a + scalar).values, (scalar - a).values,
            (a * scalar).values, int(a.dot(b)), int(a.sum()),
        ]

    reference, fast = both_kernels(compute)
    assert reference == fast
    expected = [(x + y) % P for x, y in zip(a_vals, b_vals)]
    assert fast[0] == expected  # spot-check against scalar semantics


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), size=st.sampled_from(SIZES))
def test_property_inverse_and_division_match_across_kernels(seed, size):
    a_vals = _values(seed, size, lo=1)
    b_vals = _values(seed + 1, size, lo=1)

    def compute():
        a = FieldArray(F, a_vals)
        b = FieldArray(F, b_vals)
        return [a.inverse().values, (a / b).values, batch_inverse(F, a_vals)]

    reference, fast = both_kernels(compute)
    assert reference == fast
    for v, inv in zip(a_vals, fast[0]):
        assert (v % P) * inv % P == 1


@pytest.mark.parametrize("size", SIZES)
def test_inverse_rejects_zero_under_both_kernels(size):
    values = [1] * size
    values[size // 2] = 0
    for name in ("int", "numpy"):
        with kernel(name):
            with pytest.raises(ZeroDivisionError):
                batch_inverse(F, values)
            with pytest.raises(ZeroDivisionError):
                FieldArray(F, values).inverse()


def test_small_field_ops_match_across_kernels():
    """p = 257 takes the numpy kernel's direct small-modulus paths."""
    small = GF(257)
    rng = random.Random(5)
    a_vals = [rng.randrange(257) for _ in range(300)]
    b_vals = [rng.randrange(1, 257) for _ in range(300)]

    def compute():
        a = FieldArray(small, a_vals)
        b = FieldArray(small, b_vals)
        return [(a + b).values, (a * b).values, (a - b).values,
                (a / b).values, int(a.dot(b))]

    reference, fast = both_kernels(compute)
    assert reference == fast


def test_unsupported_modulus_delegates_to_int_kernel():
    """A large non-Mersenne prime must still compute correctly (delegated)."""
    odd = GF((1 << 61) + 183, check_prime=False)  # not the optimized prime
    rng = random.Random(6)
    a_vals = [rng.randrange(odd.modulus) for _ in range(200)]

    def compute():
        a = FieldArray(odd, a_vals)
        return [(a * a).values, (a + 17).values]

    reference, fast = both_kernels(compute)
    assert reference == fast
    assert fast[0] == [v * v % odd.modulus for v in a_vals]


# -- cached-matrix paths -------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), degree=st.integers(0, 8),
       count=st.sampled_from([1, 4, 40, 200]))
def test_property_interpolation_paths_match_across_kernels(seed, degree, count):
    rng = random.Random(seed)
    xs = list(range(1, degree + 2))
    rows = [[rng.randrange(P) for _ in xs] for _ in range(count)]
    for offset, edge in enumerate(EDGE_VALUES):
        rows[offset % count][(seed + offset) % len(xs)] = edge
    targets = list(range(30, 30 + degree + 3))

    def compute():
        return [
            batch_interpolate(F, xs, rows),
            batch_interpolate_at(F, xs, rows, 12345),
            batch_evaluate(F, rows, targets),
        ]

    reference, fast = both_kernels(compute)
    assert reference == fast
    # Anchor one row against the boxed Polynomial reference.
    poly = Polynomial(F, [F(c) for c in fast[0][0]])
    assert int(poly.evaluate(F(12345))) == fast[1][0]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), degree=st.integers(0, 4),
       faults=st.integers(0, 3), count=st.sampled_from([1, 8, 64]))
def test_property_rs_decode_batch_matches_across_kernels(seed, degree, faults, count):
    rng = random.Random(seed)
    n_points = degree + 2 * faults + 1 + rng.randrange(3)
    xs = list(range(1, n_points + 1))
    rows = []
    for _ in range(count):
        poly = Polynomial.random(F, degree, rng=rng)
        row = [int(poly.evaluate(x)) for x in xs]
        for position in rng.sample(range(n_points), min(faults, n_points)):
            row[position] = (row[position] + rng.randrange(1, 100)) % P
        rows.append(row)

    def compute():
        return rs_decode_batch(F, xs, rows, degree, faults)

    reference, fast = both_kernels(compute)
    assert reference == fast
    for row, decoded in zip(rows, fast):
        assert decoded == rs_decode(F, list(zip(xs, row)), degree, faults)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31), degree=st.integers(0, 4),
       count=st.sampled_from([1, 16, 128]))
def test_property_shamir_batch_paths_match_across_kernels(seed, degree, count):
    n = 2 * degree + 3
    secrets = _values(seed, count)

    def compute():
        rng = random.Random(seed + 1)
        shares = batch_share(F, secrets, degree, n, rng=rng)
        plain = batch_reconstruct(F, shares, degree)
        corrupted = dict(shares)
        corrupted[n] = shares[n] + 1
        robust = batch_robust_reconstruct(F, corrupted, degree, degree + 1)
        return [
            {i: vector.values for i, vector in shares.items()},
            plain.values,
            robust.values,
        ]

    reference, fast = both_kernels(compute)
    assert reference == fast
    assert fast[1] == [s % P for s in secrets]
    assert fast[2] == [s % P for s in secrets]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31), degree=st.integers(1, 6),
       n=st.sampled_from([4, 16, 33]))
def test_property_bivariate_paths_match_across_kernels(seed, degree, n):
    coeffs = [[0] * (degree + 1) for _ in range(degree + 1)]
    rng = random.Random(seed)
    for i in range(degree + 1):
        for j in range(i, degree + 1):
            value = rng.randrange(P)
            coeffs[i][j] = value
            coeffs[j][i] = value
    coeffs[0][0] = EDGE_VALUES[seed % len(EDGE_VALUES)] % P
    n = max(n, degree + 2)  # from_univariate_rows needs degree+1 rows
    alphas = list(range(1, n + 1))

    def compute():
        biv = BatchSymmetricBivariate(F, coeffs, _normalized=True)
        rows = biv.rows_at_all_points(alphas)
        grid = biv.eval_grid(alphas, alphas)
        rebuilt = BatchSymmetricBivariate.from_univariate_rows(
            F, [(F.alpha(i), rows[i - 1]) for i in alphas[: degree + 1]]
        )
        return [[int(c) for c in row.coeffs] for row in rows], grid, rebuilt.coeffs

    reference, fast = both_kernels(compute)
    assert reference == fast
    # The grid must be symmetric and match direct evaluation at one point.
    biv = BatchSymmetricBivariate(F, coeffs, _normalized=True)
    assert fast[1][0][n - 1] == fast[1][n - 1][0] == int(biv.evaluate(1, n))
    assert fast[2] == coeffs


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31), count=st.sampled_from([4, 64, 300]))
def test_property_batch_oec_matches_across_kernels(seed, count):
    n, degree, faults = 16, 5, 5
    secrets = _values(seed, count)

    def compute():
        rng = random.Random(seed + 2)
        shares = batch_share(F, secrets, degree, n, rng=rng)
        for party in range(n - faults + 1, n + 1):
            shares[party] = shares[party] + 3
        corrector = BatchOnlineErrorCorrector(F, count, degree, faults)
        for i in range(1, n + 1):
            corrector.add_row(F.alpha(i), shares[i])
        assert corrector.done
        return [int(v) for v in corrector.secrets()]

    reference, fast = both_kernels(compute)
    assert reference == fast == [s % P for s in secrets]


def test_batch_oec_with_gaps_matches_across_kernels():
    """None entries (per-value gaps) must take the grouped scan identically."""
    n, degree, faults, count = 9, 2, 2, 6
    secrets = list(range(1, count + 1))

    def compute():
        rng = random.Random(11)
        shares = batch_share(F, secrets, degree, n, rng=rng)
        corrector = BatchOnlineErrorCorrector(F, count, degree, faults)
        for i in range(1, n + 1):
            row = [int(v) for v in shares[i].values]
            if i % 3 == 0:
                row[i % count] = None  # this sender skips one value
            corrector.add_row(F.alpha(i), row)
        assert corrector.done
        return [int(v) for v in corrector.secrets()]

    reference, fast = both_kernels(compute)
    assert reference == fast == secrets


# -- broadcast payload packing -------------------------------------------------


def test_packed_field_vector_normalization_matches_across_kernels():
    from repro.broadcast.acast import PackedFieldVector

    raw = _values(3, 500) + [-5, -1, 10 * P + 3]

    def compute():
        packed = PackedFieldVector(F, raw)
        return [packed.values, hash(packed)]

    reference, fast = both_kernels(compute)
    assert reference == fast
    assert all(isinstance(v, int) and 0 <= v < P for v in fast[0])


# -- the registry itself -------------------------------------------------------


def test_kernel_registry_roundtrip():
    available = set(available_kernel_backends())
    assert {"int", "numpy"} == available
    original = kernel_name()
    previous = set_kernel_backend("int")
    try:
        assert previous == original
        assert kernel_name() == "int"
        assert set_kernel_backend("numpy") == "int"
        assert kernel_name() == "numpy"
        with pytest.raises(ValueError):
            set_kernel_backend("cupy")
    finally:
        set_kernel_backend(original)
    assert kernel_name() == original


def test_field_arrays_survive_kernel_switch():
    """Arrays built under one kernel stay exact when used under the other."""
    with kernel("numpy"):
        a = FieldArray(F, _values(7, 300))
        b = FieldArray(F, _values(8, 300))
        product_np = a * b
    with kernel("int"):
        product_int = a * b
        assert product_int.values == product_np.values
        assert all(isinstance(v, int) for v in product_int.values)
    assert int(product_np[0]) == a.values[0] * b.values[0] % P


# -- one scenario-matrix cell, bit-identical across kernels --------------------


def test_scenario_diagonal_cell_bit_identical_across_kernels():
    """ΠPreProcessing (n=4, sync, honest): same outputs and transcript under
    every installed kernel backend -- the end-to-end exact-twin acceptance."""
    from test_scenario_matrix import (
        Scenario,
        canonical_outputs,
        run_preprocessing,
        transcript_fingerprint,
    )

    scenario = Scenario(4, 1, 0, "honest", "sync", None)
    with kernel("int"):
        reference = run_preprocessing(scenario)
    assert len(canonical_outputs(reference)) == scenario.n
    for name in ACCELERATED_KERNELS:
        with kernel(name):
            fast = run_preprocessing(scenario)
        assert canonical_outputs(fast) == canonical_outputs(reference), name
        assert transcript_fingerprint(fast) == transcript_fingerprint(
            reference
        ), name


# -- the HIM offline pipeline across kernels -----------------------------------


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    inputs=st.integers(2, 8),
    count=st.integers(1, 40),
)
def test_property_mat_vecs_matches_across_kernels(seed, inputs, count):
    """The HIM extraction product (mat_vecs against a cached him_matrix)
    must be exact under both kernels, above and below the matmul dispatch
    threshold and with unreduced edge residues mixed in."""
    from repro.field.array import him_matrix

    rng = random.Random(seed)
    outputs = rng.randint(1, inputs)
    vectors = [
        [rng.choice(EDGE_VALUES + [rng.randrange(P)]) for _ in range(count)]
        for _ in range(inputs)
    ]

    def compute():
        from repro.field.kernels import get_kernel

        matrix = him_matrix(F, inputs, outputs)
        out = get_kernel().mat_vecs(P, matrix, [list(v) for v in vectors])
        return [[int(v) for v in row] for row in out]

    reference, fast = both_kernels(compute)
    assert reference == fast
    expected = [
        [
            sum(m * (v % P) for m, v in zip(m_row, col)) % P
            for col in zip(*vectors)
        ]
        for m_row in (him_matrix(F, inputs, outputs))
    ]
    assert fast == expected


def test_him_scenario_cell_bit_identical_across_kernels():
    """The HIM offline pipeline (n=4, sync, honest): same outputs and
    transcript under every installed kernel, like the reference mode."""
    from test_scenario_matrix import (
        Scenario,
        canonical_outputs,
        run_preprocessing,
        transcript_fingerprint,
    )

    scenario = Scenario(4, 1, 0, "honest", "sync", None, offline="him")
    with kernel("int"):
        reference = run_preprocessing(scenario)
    assert len(canonical_outputs(reference)) == scenario.n
    for name in ACCELERATED_KERNELS:
        with kernel(name):
            fast = run_preprocessing(scenario)
        assert canonical_outputs(fast) == canonical_outputs(reference), name
        assert transcript_fingerprint(fast) == transcript_fingerprint(
            reference
        ), name

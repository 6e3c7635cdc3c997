"""Property-based equivalence tests: batched fast paths vs scalar reference.

Every fast path introduced by the batching layer (FieldArray element-wise
ops, Montgomery batch inversion, cached Lagrange/Vandermonde matrices, the
batched RS decoder, batched Shamir encode/decode and share extension) must
agree element-wise with the scalar ``FieldElement``/``Polynomial`` reference
implementation on randomized inputs.
"""

import copy
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.codes.reed_solomon import rs_decode, rs_decode_batch
from repro.field.array import (
    FieldArray,
    batch_evaluate,
    batch_interpolate,
    batch_interpolate_at,
    batch_inverse,
    cache_stats,
    him_matrix,
    inverse_vandermonde,
    lagrange_matrix,
    lagrange_row,
    vandermonde_matrix,
)
from repro.field.gf import DEFAULT_PRIME, GF, FieldElement, default_field
from repro.field.kernels import LruCache, mat_vecs
from repro.field.polynomial import (
    Polynomial,
    interpolate_at,
    lagrange_coefficients,
    lagrange_interpolate,
)
from repro.sharing.shamir import (
    batch_reconstruct,
    batch_share,
    reconstruct_secret,
    share_secret,
)
from repro.triples.transform import extend_shares, extend_shares_batch

F = default_field()
P = F.modulus

#: Unreduced representatives every op must reduce: p, p + 1, 2p - 1 and a
#: 63-bit value.
UNREDUCED = [P, P + 1, 2 * P - 1, (1 << 63) - 7]
#: The default Mersenne field, a small prime and a 61-bit prime that is not
#: a Mersenne prime.
FIELDS = [F, GF(257), GF((1 << 61) - 31)]

residues = st.integers(0, F.modulus - 1)
residue_lists = st.lists(residues, min_size=1, max_size=32)


# -- FieldArray element-wise ops vs FieldElement -------------------------------


@settings(max_examples=50, deadline=None)
@given(values=residue_lists, other=residues)
@example(values=UNREDUCED, other=UNREDUCED[-1])
def test_property_elementwise_ops_match_scalar(values, other):
    array = FieldArray(F, values)
    scalar = [F(v) for v in values]
    rhs = F(other)
    assert (array + rhs).to_elements() == [v + rhs for v in scalar]
    assert (array - rhs).to_elements() == [v - rhs for v in scalar]
    assert (array * rhs).to_elements() == [v * rhs for v in scalar]
    assert (-array).to_elements() == [-v for v in scalar]
    assert (rhs + array).to_elements() == [rhs + v for v in scalar]
    assert (rhs - array).to_elements() == [rhs - v for v in scalar]
    assert array.sum() == sum(scalar, F.zero())
    assert array.dot(rhs) == sum((v * rhs for v in scalar), F.zero())


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 31), size=st.integers(1, 24), field=st.sampled_from(FIELDS))
def test_property_array_array_ops_match_scalar(seed, size, field):
    rng = random.Random(seed)
    a = FieldArray.random(field, size, rng)
    b = FieldArray(field, [rng.randrange(1, field.modulus) for _ in range(size)])
    sa, sb = a.to_elements(), b.to_elements()
    assert (a + b).to_elements() == [x + y for x, y in zip(sa, sb)]
    assert (a - b).to_elements() == [x - y for x, y in zip(sa, sb)]
    assert (a * b).to_elements() == [x * y for x, y in zip(sa, sb)]
    assert (a / b).to_elements() == [x / y for x, y in zip(sa, sb)]
    assert a.dot(b) == sum((x * y for x, y in zip(sa, sb)), field.zero())


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.integers(1, F.modulus - 1), min_size=1, max_size=32))
@example(values=UNREDUCED[1:])
def test_property_batch_inverse_matches_scalar(values):
    expected = [F(v).inverse().value for v in values]
    assert batch_inverse(F, values) == expected
    array = FieldArray(F, values)
    assert array.inverse().to_elements() == [F(v) for v in expected]
    assert (array * array.inverse()).to_elements() == [F(1)] * len(values)


def test_batch_inverse_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        batch_inverse(F, [3, 0, 5])
    with pytest.raises(ZeroDivisionError):
        FieldArray(F, [0]).inverse()


def test_array_guards():
    with pytest.raises(ValueError):
        FieldArray(F, [1, 2]) + FieldArray(F, [1, 2, 3])
    with pytest.raises(ValueError):
        FieldArray(F, [1]) + FieldArray(GF(257), [1])
    array = FieldArray(F, [5, 6, 7])
    assert len(array) == 3
    assert array[1] == F(6)
    assert array[1:].to_elements() == [F(6), F(7)]
    assert list(array) == [F(5), F(6), F(7)]
    assert array == [5, 6, 7]
    assert FieldArray.from_elements(F, array.to_elements()) == array
    assert FieldArray.zeros(F, 2).tolist() == [0, 0]


# -- cached interpolation machinery vs polynomial.py ---------------------------


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2 ** 31),
    count=st.integers(1, 8),
    at=st.integers(0, 100),
)
def test_property_lagrange_row_matches_lagrange_coefficients(seed, count, at):
    rng = random.Random(seed)
    xs = rng.sample(range(1, 200), count)
    expected = [int(c) for c in lagrange_coefficients(F, xs, at)]
    assert list(lagrange_row(F, xs, at)) == expected


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31), degree=st.integers(0, 6), at=st.integers(0, 500))
def test_property_batch_interpolate_at_matches_interpolate_at(seed, degree, at):
    rng = random.Random(seed)
    polys = [Polynomial.random(F, degree, rng=rng) for _ in range(4)]
    xs = list(range(1, degree + 2))
    rows = [[int(poly.evaluate(x)) for x in xs] for poly in polys]
    got = batch_interpolate_at(F, xs, rows, at)
    for poly, value in zip(polys, got):
        points = [(F(x), poly.evaluate(x)) for x in xs]
        assert F(value) == interpolate_at(F, points, at) == poly.evaluate(at)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31), degree=st.integers(0, 6))
def test_property_batch_interpolate_matches_lagrange_interpolate(seed, degree):
    rng = random.Random(seed)
    polys = [Polynomial.random(F, degree, rng=rng) for _ in range(3)]
    xs = list(range(1, degree + 2))
    rows = [[int(poly.evaluate(x)) for x in xs] for poly in polys]
    for poly, coeffs in zip(polys, batch_interpolate(F, xs, rows)):
        reference = lagrange_interpolate(F, [(F(x), poly.evaluate(x)) for x in xs])
        assert Polynomial(F, coeffs) == reference == poly


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31), degree=st.integers(0, 6), count=st.integers(1, 6))
def test_property_batch_evaluate_matches_polynomial_evaluate(seed, degree, count):
    rng = random.Random(seed)
    polys = [Polynomial.random(F, degree, rng=rng) for _ in range(count)]
    xs = list(range(1, 10))
    rows = batch_evaluate(F, [[int(c) for c in poly.coeffs] for poly in polys], xs)
    for poly, row in zip(polys, rows):
        assert [F(v) for v in row] == poly.evaluate_many(xs)


def test_vandermonde_and_inverse_are_inverse_maps():
    xs = [1, 2, 3, 4]
    poly = Polynomial(F, [F(3), F(1), F(4), F(1)])
    values = [int(poly.evaluate(x)) for x in xs]
    coeffs = batch_interpolate(F, xs, [values])[0]
    assert coeffs == [int(c) for c in poly.coeffs]
    matrix = vandermonde_matrix(F, xs, 3)
    back = [sum(m * c for m, c in zip(row, coeffs)) % F.modulus for row in matrix]
    assert back == values
    assert inverse_vandermonde(F, xs) is inverse_vandermonde(F, tuple(xs))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), inputs=st.integers(2, 8), count=st.integers(1, 40))
def test_property_him_extraction_matches_naive_sum(seed, inputs, count):
    """``mat_vecs`` against a cached ``him_matrix`` is the naive sum of
    products, with edge and unreduced residues mixed in."""
    rng = random.Random(seed)
    outputs = rng.randint(1, inputs)
    edges = [0, 1, P - 1] + UNREDUCED
    vectors = [
        [rng.choice(edges + [rng.randrange(P)]) for _ in range(count)]
        for _ in range(inputs)
    ]
    matrix = him_matrix(F, inputs, outputs)
    expected = [
        [sum(m * (v % P) for m, v in zip(m_row, column)) % P for column in zip(*vectors)]
        for m_row in matrix
    ]
    assert mat_vecs(P, matrix, vectors) == expected


def test_lru_cache_evicts_oldest_and_counts():
    cache = LruCache(3)
    for key in "abc":
        cache.put(key, key.upper())
    assert cache.get("a") == "A"  # refresh "a": "b" is now least recent
    cache.put("d", "D")
    assert cache.evictions == 1
    assert cache.get("b") is None and "b" not in cache
    assert cache.get("a") == "A" and cache.get("d") == "D"
    cache.put("e", "E")  # evicts "c" (a/d were refreshed by the gets above)
    assert cache.evictions == 2 and cache.get("c") is None
    assert len(cache) == 3


def test_cache_stats_exposes_sizes_limit_and_eviction_counters():
    lagrange_row(F, (901, 902, 903), 0)
    stats = cache_stats()
    assert stats["limit"] >= 1
    for name in ("lagrange_rows", "lagrange_matrices", "vandermonde",
                 "inverse_vandermonde"):
        assert stats[name] >= 0
        assert stats[f"{name}_evictions"] >= 0
    assert stats["lagrange_rows"] >= 1


def test_matrix_caches_hit_across_field_instances():
    before = cache_stats()["lagrange_rows"]
    other_field = GF(DEFAULT_PRIME)
    lagrange_row(F, (301, 302, 303), 0)
    after_first = cache_stats()["lagrange_rows"]
    lagrange_row(other_field, (301, 302, 303), 0)
    assert cache_stats()["lagrange_rows"] == after_first >= before + 1


# -- batched RS decoding vs scalar rs_decode ----------------------------------


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2 ** 31),
    degree=st.integers(0, 3),
    faults=st.integers(0, 2),
    count=st.integers(1, 5),
)
def test_property_rs_decode_batch_matches_scalar(seed, degree, faults, count):
    rng = random.Random(seed)
    n_points = degree + 2 * faults + 1 + rng.randrange(3)
    xs = list(range(1, n_points + 1))
    polys = [Polynomial.random(F, degree, rng=rng) for _ in range(count)]
    rows = []
    for poly in polys:
        row = [int(poly.evaluate(x)) for x in xs]
        for position in rng.sample(range(n_points), min(faults, n_points)):
            row[position] = (row[position] + rng.randrange(1, 100)) % F.modulus
        rows.append(row)
    batch = rs_decode_batch(F, xs, rows, degree, faults)
    for poly, row, decoded in zip(polys, rows, batch):
        scalar = rs_decode(F, list(zip(xs, row)), degree, faults)
        assert decoded == scalar
        if scalar is not None:
            assert decoded == poly


# -- batched Shamir encode/decode vs scalar -----------------------------------


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 31), degree=st.integers(0, 4), count=st.integers(1, 8))
def test_property_batch_share_reconstruct_roundtrip(seed, degree, count):
    rng = random.Random(seed)
    n = 2 * degree + 3
    secrets = [rng.randrange(F.modulus) for _ in range(count)]
    shares = batch_share(F, secrets, degree, n, rng=rng)
    assert set(shares) == set(range(1, n + 1))
    recovered = batch_reconstruct(F, shares, degree)
    assert [int(v) for v in recovered] == secrets
    # Every value's shares lie on a degree-d polynomial: any d+1 parties agree.
    for k in range(count):
        per_value = {i: shares[i][k] for i in range(n, n - degree - 1, -1)}
        assert int(reconstruct_secret(F, per_value, degree)) == secrets[k]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 31), degree=st.integers(0, 4), count=st.integers(1, 8))
def test_property_batch_reconstruct_matches_scalar_on_scalar_sharings(
    seed, degree, count
):
    rng = random.Random(seed)
    n = degree + 2
    sharings = [
        share_secret(F, rng.randrange(F.modulus), degree, n, rng=rng)
        for _ in range(count)
    ]
    stacked = {
        i: [sharing.shares[i] for sharing in sharings] for i in range(1, n + 1)
    }
    batch = batch_reconstruct(F, stacked, degree)
    scalar = [reconstruct_secret(F, sharing.shares, degree) for sharing in sharings]
    assert batch == scalar


# -- share extension (triples fast path) vs scalar Lagrange --------------------


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 31), degree=st.integers(0, 4), at=st.integers(0, 10_050))
def test_property_extend_shares_matches_scalar_lagrange(seed, degree, at):
    rng = random.Random(seed)
    shares = [F.random(rng) for _ in range(degree + 1)]
    xs = [F.alpha(i) for i in range(1, degree + 2)]
    coefficients = lagrange_coefficients(F, xs, at)
    expected = sum((c * s for c, s in zip(coefficients, shares)), F.zero())
    assert extend_shares(F, shares, degree, F(at)) == expected
    rows = extend_shares_batch(F, [shares, shares], degree, [F(at), F(at + 1)])
    assert rows[0][0] == expected
    assert rows[1][0] == expected
    assert rows[0][1] == extend_shares(F, shares, degree, F(at + 1))


# -- GF interning (cache-identity fix) ----------------------------------------


def test_gf_instances_are_interned_per_modulus():
    assert GF(257) is GF(257)
    assert GF(DEFAULT_PRIME) is default_field()
    assert GF(257) is not GF(DEFAULT_PRIME)


def test_gf_interning_survives_pickle_and_deepcopy():
    field = GF(257)
    assert pickle.loads(pickle.dumps(field)) is field
    assert copy.deepcopy(field) is field
    element = FieldElement(5, field)
    clone = pickle.loads(pickle.dumps(element))
    assert clone == element and clone.field is field


def test_gf_interning_still_validates_primality():
    with pytest.raises(ValueError):
        GF(100)
    # Interned via check_prime=False first, a later checked request still
    # rejects the composite modulus.
    assert GF(341, check_prime=False).modulus == 341  # 341 = 11 * 31
    with pytest.raises(ValueError):
        GF(341)


# -- no array library ----------------------------------------------------------


def test_run_mpc_does_not_import_numpy():
    """The field layer is plain ints: importing ``repro`` and running one
    n = 4 evaluation must not pull numpy in (its import costs start-up time
    and resident memory on every run)."""
    script = (
        "import sys\n"
        "from repro import default_field, run_mpc\n"
        "from repro.circuits import multiplication_circuit\n"
        "result = run_mpc(multiplication_circuit(default_field(), 4),\n"
        "                 {1: 3, 2: 5, 3: 7, 4: 11}, n=4, ts=1, ta=0)\n"
        "assert [int(v) for v in result.outputs] == [1155]\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'numpy'))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# -- bench smoke --------------------------------------------------------------


def test_bench_batch_smoke():
    """Scaled-down run of benchmarks/bench_batch.py so tier-1 keeps it green."""
    import bench_batch

    stats = bench_batch.measure_reconstruct_speedup(
        num_secrets=32, n=8, degree=2, repeats=1
    )
    assert stats["batch_s"] > 0
    robust = bench_batch.measure_robust_speedup(
        num_secrets=8, n=8, degree=2, faults=2, repeats=1
    )
    assert robust["batch_s"] > 0
    oec = bench_batch.measure_oec_speedup(
        num_values=8, n=8, degree=2, faults=2, repeats=1
    )
    assert oec["batch_s"] > 0

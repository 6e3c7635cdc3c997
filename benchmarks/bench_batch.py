"""Batched field/share arithmetic vs the scalar reference paths.

Demonstrates the acceptance criterion of the batching layer: reconstructing
256 secrets at n = 16, t = 5 through :func:`repro.sharing.shamir.batch_reconstruct`
must be at least 5x faster than 256 scalar ``reconstruct_secret`` calls, with
identical results.  Also records the robust (error-corrected) batch path and
batch Beaver-style OEC decoding.

Two further row families cover this layer's remaining acceptance
criteria: ``native_polynomial_*`` measures residue coefficient storage
against the historical eager-boxing Polynomial on the rs_decode_batch
fallback (>= 2x), and ``bw_fallback_t_corruptions`` bounds the worst-case
Berlekamp-Welch fallback against the base-window fast path at exactly t
leading-window corruptions (<= 2x).

Run standalone (``python benchmarks/bench_batch.py``) for a quick report, or
through pytest (``python -m pytest benchmarks/bench_batch.py``) for the
assertions; ``tests/test_field_array.py`` runs a scaled-down smoke of the
same code so tier-1 keeps it green, and ``smoke()`` re-asserts the
fallback criterion under the ``bench_smoke`` marker.
"""

from __future__ import annotations

import os
import random
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

# Keep the advertised standalone invocation working without an editable
# install: the pytest conftest shim only applies under pytest.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.codes.oec import BatchOnlineErrorCorrector, OnlineErrorCorrector
from repro.codes.reed_solomon import rs_decode_batch
from repro.field.gf import FieldElement
from repro.field.polynomial import Polynomial
from repro.sharing.shamir import (
    batch_reconstruct,
    batch_robust_reconstruct,
    batch_share,
    reconstruct_secret,
    robust_reconstruct,
)

from bench_common import FIELD, best_of, record_bench

def measure_reconstruct_speedup(
    num_secrets: int = 256, n: int = 16, degree: int = 5, seed: int = 7, repeats: int = 3
) -> Dict[str, float]:
    """Time batch_reconstruct against per-secret scalar reconstruction."""
    rng = random.Random(seed)
    secrets = [rng.randrange(FIELD.modulus) for _ in range(num_secrets)]
    shares = batch_share(FIELD, secrets, degree, n, rng=rng)
    per_party = {i: vector.to_elements() for i, vector in shares.items()}

    def scalar():
        return [
            reconstruct_secret(
                FIELD, {i: per_party[i][k] for i in range(1, n + 1)}, degree
            )
            for k in range(num_secrets)
        ]

    def batched():
        return batch_reconstruct(FIELD, shares, degree)

    scalar_out = scalar()
    batch_out = batched()
    assert [int(v) for v in batch_out] == [int(v) for v in scalar_out] == secrets
    scalar_time = best_of(scalar, repeats)
    batch_time = best_of(batched, repeats)
    return {
        "num_secrets": float(num_secrets),
        "n": float(n),
        "degree": float(degree),
        "scalar_s": scalar_time,
        "batch_s": batch_time,
        "speedup": scalar_time / batch_time if batch_time else float("inf"),
    }


def measure_robust_speedup(
    num_secrets: int = 64, n: int = 16, degree: int = 5, faults: int = 5,
    seed: int = 11, repeats: int = 3,
) -> Dict[str, float]:
    """Time error-corrected batch reconstruction with ``faults`` corrupt rows."""
    rng = random.Random(seed)
    secrets = [rng.randrange(FIELD.modulus) for _ in range(num_secrets)]
    shares = batch_share(FIELD, secrets, degree, n, rng=rng)
    corrupted = {i: vector.to_elements() for i, vector in shares.items()}
    for party in random.Random(seed + 1).sample(range(1, n + 1), faults):
        corrupted[party] = [v + 1 for v in corrupted[party]]

    def scalar():
        return [
            robust_reconstruct(
                FIELD, {i: corrupted[i][k] for i in range(1, n + 1)}, degree, faults
            )
            for k in range(num_secrets)
        ]

    def batched():
        return batch_robust_reconstruct(FIELD, corrupted, degree, faults)

    scalar_out = scalar()
    batch_out = batched()
    assert [int(v) for v in batch_out] == [int(v) for v in scalar_out] == secrets
    scalar_time = best_of(scalar, repeats)
    batch_time = best_of(batched, repeats)
    return {
        "num_secrets": float(num_secrets),
        "faults": float(faults),
        "scalar_s": scalar_time,
        "batch_s": batch_time,
        "speedup": scalar_time / batch_time if batch_time else float("inf"),
    }


def measure_oec_speedup(
    num_values: int = 64, n: int = 16, degree: int = 5, faults: int = 5,
    seed: int = 13, repeats: int = 3,
) -> Dict[str, float]:
    """Time the batch OEC corrector against per-value scalar correctors."""
    rng = random.Random(seed)
    secrets = [rng.randrange(FIELD.modulus) for _ in range(num_values)]
    shares = batch_share(FIELD, secrets, degree, n, rng=rng)
    rows = {i: vector.to_elements() for i, vector in shares.items()}

    def scalar():
        correctors = [
            OnlineErrorCorrector(FIELD, degree, faults) for _ in range(num_values)
        ]
        for i in range(1, n + 1):
            alpha = FIELD.alpha(i)
            for corrector, value in zip(correctors, rows[i]):
                corrector.add_point(alpha, value)
        return [corrector.secret() for corrector in correctors]

    def batched():
        corrector = BatchOnlineErrorCorrector(FIELD, num_values, degree, faults)
        for i in range(1, n + 1):
            corrector.add_row(FIELD.alpha(i), rows[i])
        return corrector.secrets()

    scalar_out = scalar()
    batch_out = batched()
    assert [int(v) for v in batch_out] == [int(v) for v in scalar_out] == secrets
    scalar_time = best_of(scalar, repeats)
    batch_time = best_of(batched, repeats)
    return {
        "num_values": float(num_values),
        "scalar_s": scalar_time,
        "batch_s": batch_time,
        "speedup": scalar_time / batch_time if batch_time else float("inf"),
    }


# -- residue Polynomial storage vs the boxed-coefficient baseline --------------
#
# The native rows measure what residue coefficient storage buys on the
# rs_decode_batch fallback path (the regime where thousands of candidate
# polynomials are constructed per call).  The baseline re-installs the
# historical behavior -- every constructed polynomial eagerly boxes one
# FieldElement per coefficient and evaluation runs on boxed elements -- on
# the *same* decoder, so the measured delta isolates coefficient storage.


@contextmanager
def _boxed_polynomial_baseline():
    """Patch Polynomial's trusted constructors back to eager boxing.

    Replicates the pre-residue implementation: ``from_reduced_ints`` built a
    boxed FieldElement per coefficient up front and ``evaluate`` ran boxed
    Horner.  Results are identical (the boxed and residue forms hold the
    same residues); only construction and evaluation cost differs.
    """
    orig_ints = Polynomial.from_reduced_ints.__func__
    orig_rows = Polynomial.from_reduced_rows.__func__

    def boxed_from_ints(field, values):
        vals = list(values)
        while len(vals) > 1 and vals[-1] == 0:
            vals.pop()
        new = FieldElement.__new__
        boxed = []
        for v in vals:
            element = new(FieldElement)
            element.value = int(v)
            element.field = field
            boxed.append(element)
        poly = object.__new__(Polynomial)
        poly.field = field
        poly.residues = vals
        poly._boxed = boxed
        return poly

    def boxed_rows(field, matrix):
        return [boxed_from_ints(field, row) for row in matrix]

    def boxed_eval_int(self, x):
        field = self.field
        x_el = x if isinstance(x, FieldElement) else field(x)
        acc = field.zero()
        for coeff in reversed(self.coeffs):
            acc = acc * x_el + coeff
        return acc.value

    saved_eval = Polynomial.eval_int
    Polynomial.from_reduced_ints = staticmethod(boxed_from_ints)
    Polynomial.from_reduced_rows = staticmethod(boxed_rows)
    Polynomial.eval_int = boxed_eval_int
    try:
        yield
    finally:
        Polynomial.from_reduced_ints = classmethod(orig_ints)
        Polynomial.from_reduced_rows = classmethod(orig_rows)
        Polynomial.eval_int = saved_eval


def _rs_codeword_rows(
    num_values: int, n: int, degree: int, faults: int, seed: int, corrupt: bool
) -> Tuple[List[int], List[List[int]], List[int]]:
    """``num_values`` RS codewords over parties 1..n as int-residue rows.

    When ``corrupt`` is set, exactly ``faults`` parties -- all inside the
    leading ``degree + 1`` window -- are garbled on every codeword, which
    defeats the base-window candidate pass and forces the Berlekamp-Welch
    fallback (one solve, then the learned window absorbs the batch).
    Inputs stay plain ints so the measured region is the decoder itself,
    not input normalization.
    """
    rng = random.Random(seed)
    p = FIELD.modulus
    secrets = [rng.randrange(p) for _ in range(num_values)]
    shares = batch_share(FIELD, secrets, degree, n, rng=rng)
    columns = [list(shares[i].values) for i in range(1, n + 1)]
    rows = [list(row) for row in zip(*columns)]
    if corrupt:
        for row in rows:
            for j in range(faults):
                row[j] = (row[j] + 1) % p
    xs = [int(FIELD.alpha(i)) for i in range(1, n + 1)]
    return xs, rows, secrets


def measure_native_polynomial_speedup(
    num_values: int = 8192, n: int = 13, degree: int = 10, faults: int = 1,
    seed: int = 29, repeats: int = 5,
) -> Dict[str, float]:
    """rs_decode_batch fallback: residue coefficient storage vs eager boxing.

    Every codeword is corrupted inside the leading window, so all
    ``num_values`` rows take the fallback path and construct their decoded
    polynomial from a matrix product.  ``speedup`` is boxed-baseline time
    over residue-storage time on the identical decode.
    """
    xs, rows, secrets = _rs_codeword_rows(
        num_values, n, degree, faults, seed, corrupt=True
    )

    def decode():
        return rs_decode_batch(FIELD, xs, rows, degree, faults)

    native_out = decode()
    assert [poly.constant_residue() for poly in native_out] == secrets
    native_time = best_of(decode, repeats)
    with _boxed_polynomial_baseline():
        boxed_out = decode()
        assert [poly.constant_residue() for poly in boxed_out] == secrets
        boxed_time = best_of(decode, repeats)
    return {
        "num_values": float(num_values),
        "n": float(n),
        "degree": float(degree),
        "faults": float(faults),
        "native_s": native_time,
        "boxed_s": boxed_time,
        "speedup": boxed_time / native_time if native_time else float("inf"),
        "kernel": "native-vs-boxed",
    }


def measure_bw_fallback_overhead(
    num_values: int = 4096, n: int = 16, degree: int = 5, faults: int = 5,
    seed: int = 31, repeats: int = 5,
) -> Dict[str, float]:
    """Worst-case Berlekamp-Welch fallback vs the base-window fast path.

    Fast path: no corruption, every row accepted by the batched
    base-window pass.  Fallback: exactly ``faults`` (= t) corruptions, all
    inside the leading window, so the base pass rejects every row and the
    decode pays one BW solve plus a learned-window batch pass.  The
    ``overhead`` ratio bounds what adversarial corruption can cost over
    the optimistic path on the same batch; ``fast_s`` and ``fallback_s``
    are the best CPU seconds of ``repeats`` alternating pairs.
    """
    xs, clean_rows, secrets = _rs_codeword_rows(
        num_values, n, degree, faults, seed, corrupt=False
    )
    _, corrupt_rows, _ = _rs_codeword_rows(
        num_values, n, degree, faults, seed, corrupt=True
    )

    def fast():
        return rs_decode_batch(FIELD, xs, clean_rows, degree, faults)

    def fallback():
        return rs_decode_batch(FIELD, xs, corrupt_rows, degree, faults)

    assert [poly.constant_residue() for poly in fast()] == secrets
    assert [poly.constant_residue() for poly in fallback()] == secrets
    # Alternately, repeat by repeat, in CPU time: a loaded host slows both alike.
    best = {fast: float("inf"), fallback: float("inf")}
    for _ in range(repeats):
        for decode in best:
            start = time.process_time()
            decode()
            best[decode] = min(best[decode], time.process_time() - start)
    fast_time, fallback_time = best[fast], best[fallback]
    return {
        "num_values": float(num_values),
        "n": float(n),
        "degree": float(degree),
        "faults": float(faults),
        "fast_s": fast_time,
        "fallback_s": fallback_time,
        "overhead": fallback_time / fast_time if fast_time else float("inf"),
    }


def test_batch_reconstruct_is_5x_faster():
    """Acceptance: 256 secrets at n=16, t=5, batch >= 5x faster than scalar."""
    stats = measure_reconstruct_speedup(num_secrets=256, n=16, degree=5)
    record_bench("batch", "reconstruct_256_n16_t5", stats)
    assert stats["speedup"] >= 5.0, f"speedup only {stats['speedup']:.1f}x"


def test_batch_robust_reconstruct_faster_with_corruptions():
    stats = measure_robust_speedup(num_secrets=64, n=16, degree=5, faults=5)
    record_bench("batch", "robust_reconstruct_64_n16_t5", stats)
    assert stats["speedup"] >= 2.0, f"speedup only {stats['speedup']:.1f}x"


def test_batch_oec_faster():
    stats = measure_oec_speedup(num_values=64, n=16, degree=5, faults=5)
    record_bench("batch", "oec_64_n16_t5", stats)
    assert stats["speedup"] >= 2.0, f"speedup only {stats['speedup']:.1f}x"


def test_native_polynomial_decode_is_2x_faster():
    """Acceptance: native coefficient storage >= 2x eager boxing on the
    rs_decode_batch fallback.  A below-threshold first measurement is
    re-measured once with more repeats (timing noise protection)."""
    stats = measure_native_polynomial_speedup()
    if stats["speedup"] < 2.0:
        stats = measure_native_polynomial_speedup(repeats=9)
    record_bench("batch", "native_polynomial_8192_n13_d10", stats)
    assert stats["speedup"] >= 2.0, f"speedup only {stats['speedup']:.2f}x"


def test_bw_fallback_within_2x_of_fast_path():
    """Acceptance: worst-case BW fallback (t corruptions in the leading
    window) costs at most 2x the base-window fast path."""
    stats = measure_bw_fallback_overhead()
    if stats["overhead"] > 2.0:
        stats = measure_bw_fallback_overhead(repeats=9)
    record_bench("batch", "bw_fallback_t_corruptions", stats)
    assert stats["overhead"] <= 2.0, f"overhead {stats['overhead']:.2f}x"


def smoke():
    """Tiny-size rot check used by the bench_smoke tier-1 marker.

    Also carries the fallback criterion: the worst-case Berlekamp-Welch
    fallback costs at most 2x the base-window fast path, in CPU time, the
    two timed alternately.  An above-threshold first measurement is
    re-measured once with more repeats before failing (a real regression
    fails both passes).  Unlike the bench tier, the
    smoke only asserts -- it does not rewrite BENCH_batch.json on every
    tier-1 run.
    """
    stats = measure_reconstruct_speedup(num_secrets=16, n=8, degree=2, repeats=1)
    assert stats["batch_s"] > 0
    fallback = measure_bw_fallback_overhead(repeats=2)
    if fallback["overhead"] > 2.0:
        fallback = measure_bw_fallback_overhead(repeats=5)
    assert fallback["overhead"] <= 2.0, (
        f"BW fallback costs {fallback['overhead']:.2f}x the fast path "
        "(criterion: <= 2x at t leading-window corruptions)"
    )
    stats["bw_fallback_overhead"] = fallback["overhead"]
    return stats


if __name__ == "__main__":
    for key, name, fn in (
        ("reconstruct_256_n16_t5", "batch_reconstruct  (256 secrets, n=16, t=5)", measure_reconstruct_speedup),
        ("robust_reconstruct_64_n16_t5", "batch_robust       ( 64 secrets, n=16, t=5, 5 corrupt)", measure_robust_speedup),
        ("oec_64_n16_t5", "batch_oec          ( 64 values,  n=16, t=5)", measure_oec_speedup),
    ):
        stats = fn()
        record_bench("batch", key, stats)
        print(
            f"{name}: scalar {stats['scalar_s'] * 1e3:8.2f} ms"
            f"  batch {stats['batch_s'] * 1e3:8.2f} ms"
            f"  speedup {stats['speedup']:6.1f}x"
        )
    native = measure_native_polynomial_speedup()
    record_bench("batch", "native_polynomial_8192_n13_d10", native)
    print(
        "native_polynomial  (8192 values, n=13, d=10, fallback):"
        f" boxed {native['boxed_s'] * 1e3:8.2f} ms"
        f"  native {native['native_s'] * 1e3:8.2f} ms"
        f"  speedup {native['speedup']:6.1f}x"
    )
    bw = measure_bw_fallback_overhead()
    record_bench("batch", "bw_fallback_t_corruptions", bw)
    print(
        "bw_fallback        (4096 values, n=16, t=5 leading corrupt):"
        f" fast {bw['fast_s'] * 1e3:8.2f} ms"
        f"  fallback {bw['fallback_s'] * 1e3:8.2f} ms"
        f"  overhead {bw['overhead']:6.2f}x"
    )

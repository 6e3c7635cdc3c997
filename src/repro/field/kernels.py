"""Pluggable numerical kernel backends for the batched field layer.

Every batched fast path in the reproduction (FieldArray element-wise ops,
Montgomery batch inversion, the cached Lagrange/Vandermonde matrix
applications behind RS decoding, Shamir, the bivariate WPS/VSS pipeline and
broadcast payload packing) bottoms out in a small set of residue-vector
primitives.  This module makes that set pluggable:

* ``"int"`` -- the pure-Python int-residue reference kernel: exactly the
  arithmetic the batching layer has always done, one big-int operation per
  slot.  It is the equivalence-tested ground truth and always available.
* ``"numpy"`` -- residues of GF(2**61 - 1) stored in ``uint64`` arrays.
  Element-wise multiplication splits each operand into 32/29-bit limbs so
  every partial product fits in 64 bits, and reduces with the vectorized
  Mersenne fold ``x ≡ (x >> 61) + (x & mask)``; matrix products decompose
  both operands into three 21-bit limbs (nine ``uint64`` matmuls whose
  accumulations cannot overflow for any realistic contraction length) and
  recombine with Mersenne rotations; batch inversion is Montgomery's trick
  with the prefix/suffix products computed as vectorized scans.  Small
  moduli (p < 2**26) take direct ``% p`` paths; any other modulus falls
  back per call to the int kernel.

The active kernel is selected at import time: ``numpy`` when importable,
else ``int``, overridable with the ``REPRO_FIELD_KERNEL`` environment
variable (``int`` / ``numpy`` / ``auto``) or at runtime via
:func:`set_kernel_backend`.  Every
kernel op is *exact* -- all backends return identical residues for
identical inputs, and none consumes randomness -- so switching kernels can
never change a protocol transcript; ``tests/test_kernel_equivalence.py``
enforces this property-based and on a whole scenario-matrix cell.

Profile-driven runtime dispatch
-------------------------------

numpy wins big on matrix-shaped work but loses on tiny vectors (array
conversion and ufunc launch overhead dominate below ~100 elements).  The
numpy kernel therefore self-dispatches per call: list inputs below the
measured crossover sizes in :data:`DISPATCH_THRESHOLDS` run the int
reference path, while inputs that are already ``uint64`` arrays (the
native :class:`~repro.field.array.FieldArray` storage) stay vectorized
unconditionally.  The shipped defaults are dev-container
measurements; ``python -m repro.field.calibrate`` re-measures the
crossovers on the local machine and persists them to
``DISPATCH_CALIBRATION.json`` (next to ``BENCH_batch.json``), which
:func:`load_dispatch_calibration` applies automatically at import.
"""

from __future__ import annotations

import json
import os
from operator import mul as _mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "FieldKernel",
    "IntKernel",
    "NumpyKernel",
    "LruCache",
    "available_kernel_backends",
    "get_kernel",
    "kernel_name",
    "numpy_available",
    "set_kernel_backend",
    "load_dispatch_calibration",
    "DISPATCH_THRESHOLDS",
]

#: The Mersenne prime the optimized numpy paths are specialized for.
M61 = (1 << 61) - 1

#: Moduli small enough for direct ``% p`` uint64 arithmetic (p**2 plus
#: accumulation headroom fits 64 bits; see NumpyKernel._matmul_small).
SMALL_P_LIMIT = 1 << 26

#: Measured list-input crossover sizes (elements / scalar mults) below which
#: the numpy kernel delegates to the int reference paths.  Native-array
#: inputs always stay vectorized.  Values come from
#: ``benchmarks/bench_batch.py``'s dispatch-calibration rows on the dev
#: container; override per-process via set_dispatch_threshold.
DISPATCH_THRESHOLDS: Dict[str, int] = {
    "elementwise": 160,   # add/sub/neg/mul vector length
    "inverse": 2048,      # batch-inversion length (python Montgomery is strong)
    "matmul_ops": 384,    # rows * len(matrix) * contraction scalar mults
    "matrix_elems": 256,  # matrix cells below which list storage stays cheaper
}


def set_dispatch_threshold(name: str, value: int) -> int:
    """Override one runtime-dispatch crossover; returns the previous value."""
    previous = DISPATCH_THRESHOLDS[name]
    DISPATCH_THRESHOLDS[name] = int(value)
    return previous


class LruCache:
    """A tiny bounded LRU map with an eviction counter.

    Used for the coefficient-matrix caches in :mod:`repro.field.array` and
    the numpy kernel's limb-decomposition cache: the tier-2 scenario grid
    probes thousands of distinct grown point sets, and an unbounded dict
    would leak across long simulations.
    """

    __slots__ = ("limit", "evictions", "_data")

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("cache limit must be positive")
        self.limit = limit
        self.evictions = 0
        self._data: Dict = {}

    def get(self, key):
        data = self._data
        value = data.get(key)
        if value is not None:
            # Re-insert to mark as most recently used (dicts are ordered).
            del data[key]
            data[key] = value
        return value

    def put(self, key, value):
        data = self._data
        if key in data:
            del data[key]
        elif len(data) >= self.limit:
            data.pop(next(iter(data)))
            self.evictions += 1
        data[key] = value
        return value

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data


IntVec = List[int]


class FieldKernel:
    """Interface of a numerical kernel backend.

    Vectors/matrices cross the interface either as plain Python int
    sequences or as the kernel's *native* form (whatever the kernel hands
    back from its own ops); every kernel accepts both.  All residues
    returned through ``to_list`` / non-native results are Python ints --
    numpy scalars must never leak into boxed FieldElements or payloads.
    """

    name: str

    # -- conversions -------------------------------------------------------
    def normalize(self, p: int, values: Iterable):
        """Residue vector mod p in native form (accepts ints/FieldElements)."""
        raise NotImplementedError

    def to_list(self, vec) -> IntVec:
        """Native vector -> list of Python ints."""
        raise NotImplementedError

    def as_matrix(self, p: int, rows):
        """Normalized residue matrix in native form (row-major)."""
        raise NotImplementedError

    def matrix_row(self, matrix, index: int) -> IntVec:
        """One row of a native matrix as a list of Python ints."""
        raise NotImplementedError

    def take_rows(self, matrix, indices: Sequence[int]):
        raise NotImplementedError

    def take_columns(self, matrix, indices: Sequence[int]):
        raise NotImplementedError

    def transpose(self, p: int, vectors: Sequence):
        """Stack same-length native/list vectors as columns: out[k][i]."""
        raise NotImplementedError

    # -- element-wise ------------------------------------------------------
    def add(self, p: int, a, rhs):
        raise NotImplementedError

    def sub(self, p: int, a, rhs):
        raise NotImplementedError

    def rsub(self, p: int, a, rhs):
        """rhs - a (rhs scalar or vector)."""
        raise NotImplementedError

    def mul(self, p: int, a, rhs):
        raise NotImplementedError

    def neg(self, p: int, a):
        raise NotImplementedError

    def batch_inverse(self, p: int, values):
        """Element-wise inverse; ZeroDivisionError if any slot is 0 mod p."""
        raise NotImplementedError

    # -- reductions / products --------------------------------------------
    def dot(self, p: int, a, b) -> int:
        raise NotImplementedError

    def vec_sum(self, p: int, a) -> int:
        raise NotImplementedError

    def rowmat(self, p: int, row: Sequence[int], vectors: Sequence):
        """``row @ V``: out[k] = sum_i row[i] * vectors[i][k], native form."""
        raise NotImplementedError

    def rows_dot(self, p: int, rows, row: Sequence[int]):
        """[dot(r, row) for r in rows] in native form."""
        raise NotImplementedError

    def mat_rows(self, p: int, matrix, rows, native: bool = False):
        """[[dot(m_row, r) for m_row in matrix] for r in rows].

        ``native=False`` returns lists of Python ints; ``native=True`` may
        return the kernel's matrix form (row-major, same values).
        """
        raise NotImplementedError

    def mat_vecs(self, p: int, matrix, vectors: Sequence) -> List[IntVec]:
        """``matrix @ V`` where V stacks ``vectors`` as rows.

        out[j][k] = sum_i matrix[j][i] * vectors[i][k]: one linear
        combination of the aligned input vectors per matrix row.  This is
        the hyper-invertible-matrix application shape (extract from a bank
        of per-dealer share vectors in one product); ``matrix`` is normally
        one of the interned cached matrices from :mod:`repro.field.array`,
        so backends may memoize its converted form.  Returns plain int
        vectors.
        """
        raise NotImplementedError

    def mismatch_counts(self, a_matrix, b_matrix) -> List[int]:
        """Per-row count of differing entries between two equal-shape matrices."""
        raise NotImplementedError


def _int_normalize(p: int, values: Iterable) -> IntVec:
    return [int(v) % p for v in values]


def _py_seq(x):
    """Coerce a possibly-numpy sequence to plain Python ints.

    The int kernel may legitimately receive uint64 arrays (a FieldArray
    built under the numpy kernel, then operated on after a kernel switch);
    computing on numpy scalars with Python big-int semantics would silently
    wrap, so arrays are converted up front.
    """
    return x.tolist() if hasattr(x, "tolist") else x


class IntKernel(FieldKernel):
    """The pure-Python int-residue reference kernel (always available)."""

    name = "int"

    # -- conversions -------------------------------------------------------
    def normalize(self, p, values):
        return _int_normalize(p, _py_seq(values))

    def to_list(self, vec):
        return _py_seq(vec) if isinstance(vec, list) else list(_py_seq(vec))

    def as_matrix(self, p, rows):
        return [_int_normalize(p, _py_seq(row)) for row in _py_seq(rows)]

    def matrix_row(self, matrix, index):
        return list(_py_seq(matrix[index]))

    def take_rows(self, matrix, indices):
        return [matrix[i] for i in indices]

    def take_columns(self, matrix, indices):
        return [[row[i] for i in indices] for row in matrix]

    def transpose(self, p, vectors):
        vecs = [_py_seq(v) if isinstance(_py_seq(v), list) else list(_py_seq(v)) for v in vectors]
        count = len(vecs[0]) if vecs else 0
        return [[vec[k] for vec in vecs] for k in range(count)]

    # -- element-wise ------------------------------------------------------
    def add(self, p, a, rhs):
        a = _py_seq(a)
        if isinstance(rhs, int):
            return [(x + rhs) % p for x in a]
        return [(x + y) % p for x, y in zip(a, _py_seq(rhs))]

    def sub(self, p, a, rhs):
        a = _py_seq(a)
        if isinstance(rhs, int):
            return [(x - rhs) % p for x in a]
        return [(x - y) % p for x, y in zip(a, _py_seq(rhs))]

    def rsub(self, p, a, rhs):
        a = _py_seq(a)
        if isinstance(rhs, int):
            return [(rhs - x) % p for x in a]
        return [(y - x) % p for x, y in zip(a, _py_seq(rhs))]

    def mul(self, p, a, rhs):
        a = _py_seq(a)
        if isinstance(rhs, int):
            return [x * rhs % p for x in a]
        return [x * y % p for x, y in zip(a, _py_seq(rhs))]

    def neg(self, p, a):
        return [(-x) % p for x in _py_seq(a)]

    def batch_inverse(self, p, values):
        """Montgomery's trick: k inversions for one exponentiation plus
        3(k-1) multiplications."""
        reduced = [int(v) % p for v in _py_seq(values)]
        if not reduced:
            return []
        prefix: IntVec = [0] * len(reduced)
        acc = 1
        for index, value in enumerate(reduced):
            if value == 0:
                raise ZeroDivisionError("zero has no multiplicative inverse")
            acc = acc * value % p
            prefix[index] = acc
        inv = pow(acc, p - 2, p)
        out = [0] * len(reduced)
        for index in range(len(reduced) - 1, 0, -1):
            out[index] = prefix[index - 1] * inv % p
            inv = inv * reduced[index] % p
        out[0] = inv
        return out

    # -- reductions / products --------------------------------------------
    def dot(self, p, a, b):
        return sum(map(_mul, _py_seq(a), _py_seq(b))) % p

    def vec_sum(self, p, a):
        return sum(_py_seq(a)) % p

    def rowmat(self, p, row, vectors):
        vecs = [_py_seq(v) for v in vectors]
        count = len(vecs[0]) if vecs else 0
        return [
            sum(coeff * vector[k] for coeff, vector in zip(row, vecs)) % p
            for k in range(count)
        ]

    def rows_dot(self, p, rows, row):
        row = _py_seq(row)
        return [sum(map(_mul, _py_seq(r), row)) % p for r in _py_seq(rows)]

    def mat_rows(self, p, matrix, rows, native=False):
        matrix = _py_seq(matrix)
        return [
            [sum(map(_mul, m_row, r)) % p for m_row in matrix]
            for r in map(_py_seq, _py_seq(rows))
        ]

    def mat_vecs(self, p, matrix, vectors):
        vecs = [_py_seq(v) for v in vectors]
        count = len(vecs[0]) if vecs else 0
        return [
            [
                sum(coeff * vec[k] for coeff, vec in zip(_py_seq(row), vecs)) % p
                for k in range(count)
            ]
            for row in _py_seq(matrix)
        ]

    def mismatch_counts(self, a_matrix, b_matrix):
        return [
            sum(1 for x, y in zip(_py_seq(a_row), _py_seq(b_row)) if x != y)
            for a_row, b_row in zip(_py_seq(a_matrix), _py_seq(b_matrix))
        ]


class NumpyKernel(FieldKernel):
    """Residues of GF(2**61 - 1) in uint64 arrays; exact limb-split arithmetic.

    Falls back per call for inputs it cannot accelerate: unsupported
    moduli, vectors below the dispatch crossovers, values outside uint64
    range, or ragged/boxed inputs.
    """

    name = "numpy"

    def _ref(self, p: int) -> FieldKernel:
        """The fallback kernel for inputs this backend cannot accelerate."""
        return _INT_KERNEL

    def __init__(self):
        import numpy

        self._np = numpy
        self._int = IntKernel()
        #: limb decompositions of the interned coefficient matrices, keyed by
        #: (p, transposed?, the cached tuple itself).  Bounded: the grid
        #: probes many grown point sets.
        self._limb_cache = LruCache(512)
        # numpy >= 2 raises OverflowError when a negative Python int meets
        # dtype=uint64; numpy 1.x silently wraps mod 2**64, which would turn
        # e.g. -1 into a *wrong residue* instead of an int-kernel fallback.
        # Probe once and pre-scan list inputs for negatives when needed, so
        # the exact-twin contract holds on any numpy version.
        try:
            numpy.asarray([-1], dtype=numpy.uint64)
        except (OverflowError, TypeError, ValueError):
            self._wraps_negatives = False
        else:
            self._wraps_negatives = True

    # -- low-level Mersenne machinery (p == M61) --------------------------
    def _reduce_partial(self, x):
        """Reduce ``uint64`` values < 2**64 into [0, M61) via Mersenne folds."""
        np = self._np
        u61, mask = np.uint64(61), np.uint64(M61)
        x = (x >> u61) + (x & mask)
        x = (x >> u61) + (x & mask)
        return x - (x >= mask) * mask

    def _mul61(self, a, b):
        """Element-wise a*b mod M61 for reduced uint64 operands.

        32/29-bit limb split: with a = a1*2**32 + a0 (a1 < 2**29), every
        partial product and the recombined accumulator stay below 2**63,
        using 2**64 ≡ 8 and 2**61 ≡ 1 (mod M61).
        """
        np = self._np
        lo32 = np.uint64(0xFFFFFFFF)
        a0, a1 = a & lo32, a >> np.uint64(32)
        b0, b1 = b & lo32, b >> np.uint64(32)
        hi = a1 * b1
        mid = a1 * b0 + a0 * b1
        lo = a0 * b0
        acc = (hi << np.uint64(3)) + (
            (mid >> np.uint64(29)) + ((mid & np.uint64(0x1FFFFFFF)) << np.uint64(32))
        )
        acc += (lo >> np.uint64(61)) + (lo & np.uint64(M61))
        return self._reduce_partial(acc)

    def _mulpow2(self, x, s: int):
        """x * 2**s mod M61 for reduced x: a 61-bit rotation, no limbs needed."""
        if s == 0:
            return x
        np = self._np
        lo_mask = np.uint64((1 << (61 - s)) - 1)
        return self._reduce_partial(
            (x >> np.uint64(61 - s)) + ((x & lo_mask) << np.uint64(s))
        )

    def _limbs21(self, arr):
        """Three 21-bit limbs of reduced values (low, mid, high)."""
        np = self._np
        mask = np.uint64(0x1FFFFF)
        return arr & mask, (arr >> np.uint64(21)) & mask, arr >> np.uint64(42)

    def _matmul61(self, A, B):
        """Exact A @ B mod M61 via 21-bit-limb decomposition (nine matmuls).

        Partial accumulations are bounded by 3k * 2**42, so contraction
        lengths up to 2**19 cannot overflow uint64; longer contractions
        return None so callers delegate to the int kernel (the exact-twin
        contract: unsupported inputs degrade in speed, never in behavior).
        """
        if A.shape[1] != B.shape[0]:
            raise ValueError("matmul shape mismatch")
        if A.shape[1] > (1 << 19):
            return None
        A0, A1, A2 = self._limbs21(A)
        B0, B1, B2 = self._limbs21(B)
        acc = self._reduce_partial(A0 @ B0)
        acc = acc + self._mulpow2(self._reduce_partial(A0 @ B1 + A1 @ B0), 21)
        acc = acc + self._mulpow2(
            self._reduce_partial(A0 @ B2 + A1 @ B1 + A2 @ B0), 42
        )
        # 2**63 ≡ 4 and 2**84 ≡ 2**23 (mod M61).
        acc = acc + self._mulpow2(self._reduce_partial(A1 @ B2 + A2 @ B1), 2)
        acc = acc + self._mulpow2(self._reduce_partial(A2 @ B2), 23)
        # Five reduced terms: the sum stays below 2**64.
        return self._reduce_partial(acc)

    def _matmul_small(self, p: int, A, B):
        """Direct uint64 matmul for small p, or None if it could overflow."""
        if A.shape[1] * (p - 1) * (p - 1) >= (1 << 64):
            return None
        return (A @ B) % self._np.uint64(p)

    def _matmul(self, p: int, A, B):
        """Exact modular matmul in whatever scheme ``p`` admits, or None."""
        if p == M61:
            return self._matmul61(A, B)
        if p < SMALL_P_LIMIT:
            return self._matmul_small(p, A, B)
        return None

    # -- conversions -------------------------------------------------------
    def _supported(self, p: int) -> bool:
        return p == M61 or p < SMALL_P_LIMIT

    def _reduce_any(self, p: int, arr):
        """Reduce arbitrary uint64 values mod p."""
        if p == M61:
            return self._reduce_partial(arr)
        return arr % self._np.uint64(p)

    def _to_array(self, p: int, values, reduced: bool = False):
        """uint64 residue array from a sequence, or None when impossible."""
        np = self._np
        if isinstance(values, np.ndarray):
            if values.dtype == np.uint64:
                return values
            values = values.tolist()
        if self._wraps_negatives:
            rows = values if values and isinstance(values[0], list) else [values]
            try:
                if any(v < 0 for row in rows for v in row):
                    return None
            except TypeError:
                return None  # boxed/non-numeric entries: int-kernel fallback
        try:
            arr = np.asarray(values, dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            return None
        if arr.dtype != np.uint64 or arr.ndim not in (1, 2):
            return None
        return arr if reduced else self._reduce_any(p, arr)

    def normalize(self, p, values):
        if not self._supported(p):
            return self._ref(p).normalize(p, values)
        if not isinstance(values, self._np.ndarray):
            values = list(values)
            if len(values) < DISPATCH_THRESHOLDS["elementwise"]:
                return self._ref(p).normalize(p, values)
        arr = self._to_array(p, values)
        if arr is None:
            return self._ref(p).normalize(p, values)
        return arr

    def to_list(self, vec):
        if isinstance(vec, self._np.ndarray):
            return vec.tolist()
        return list(vec)

    def as_matrix(self, p, rows):
        np = self._np
        if self._supported(p):
            if isinstance(rows, np.ndarray):
                arr = self._to_array(p, rows)
                if arr is not None and arr.ndim == 2:
                    return arr
            else:
                rows = [list(r) for r in rows]
                cells = len(rows) * (len(rows[0]) if rows else 0)
                if cells >= DISPATCH_THRESHOLDS["matrix_elems"]:
                    arr = self._to_array(p, rows)
                    if arr is not None and arr.ndim == 2:
                        return arr
        return self._ref(p).as_matrix(p, rows)

    def matrix_row(self, matrix, index):
        if isinstance(matrix, self._np.ndarray):
            return matrix[index].tolist()
        return list(matrix[index])

    def take_rows(self, matrix, indices):
        if isinstance(matrix, self._np.ndarray):
            return matrix[list(indices)]
        return [matrix[i] for i in indices]

    def take_columns(self, matrix, indices):
        if isinstance(matrix, self._np.ndarray):
            return matrix[:, list(indices)]
        return [[row[i] for i in indices] for row in matrix]

    def transpose(self, p, vectors):
        np = self._np
        native = any(isinstance(v, np.ndarray) for v in vectors)
        cells = len(vectors) * (len(vectors[0]) if len(vectors) else 0)
        if self._supported(p) and (
            native or cells >= DISPATCH_THRESHOLDS["matrix_elems"]
        ):
            arrays = []
            for vec in vectors:
                arr = vec if isinstance(vec, np.ndarray) else self._to_array(p, vec)
                if arr is None:
                    arrays = None
                    break
                arrays.append(arr)
            if arrays is not None and arrays:
                return np.ascontiguousarray(np.stack(arrays).T)
        return self._ref(p).transpose(p, [self.to_list(v) for v in vectors])

    # -- element-wise ------------------------------------------------------
    def _pair(self, p: int, a, rhs):
        """Coerce an (a, rhs) element-wise operand pair to arrays, or None."""
        np = self._np
        if not self._supported(p):
            return None
        a_native = isinstance(a, np.ndarray)
        rhs_native = isinstance(rhs, np.ndarray)
        if not (a_native or rhs_native):
            if len(a) < DISPATCH_THRESHOLDS["elementwise"]:
                return None
        arr = a if a_native else self._to_array(p, a)
        if arr is None:
            return None
        if isinstance(rhs, int):
            return arr, np.uint64(rhs % p)
        other = rhs if rhs_native else self._to_array(p, rhs)
        if other is None:
            return None
        return arr, other

    def add(self, p, a, rhs):
        pair = self._pair(p, a, rhs)
        if pair is None:
            return self._ref(p).add(p, a, rhs)
        x, y = pair
        np = self._np
        pm = np.uint64(p)
        acc = x + y  # both < p <= 2**61 - 1: no overflow
        return acc - (acc >= pm) * pm

    def sub(self, p, a, rhs):
        pair = self._pair(p, a, rhs)
        if pair is None:
            return self._ref(p).sub(p, a, rhs)
        x, y = pair
        np = self._np
        pm = np.uint64(p)
        acc = x + (pm - y)
        return acc - (acc >= pm) * pm

    def rsub(self, p, a, rhs):
        pair = self._pair(p, a, rhs)
        if pair is None:
            return self._ref(p).rsub(p, a, rhs)
        x, y = pair
        np = self._np
        pm = np.uint64(p)
        acc = y + (pm - x)
        return acc - (acc >= pm) * pm

    def mul(self, p, a, rhs):
        pair = self._pair(p, a, rhs)
        if pair is None:
            return self._ref(p).mul(p, a, rhs)
        x, y = pair
        # A np.uint64 scalar rhs broadcasts through both the limb split and
        # the direct small-p product; no need to materialize a full vector.
        if p == M61:
            return self._mul61(x, y)
        return (x * y) % self._np.uint64(p)

    def neg(self, p, a):
        np = self._np
        if not self._supported(p) or (
            not isinstance(a, np.ndarray)
            and len(a) < DISPATCH_THRESHOLDS["elementwise"]
        ):
            return self._ref(p).neg(p, a)
        arr = a if isinstance(a, np.ndarray) else self._to_array(p, a)
        if arr is None:
            return self._ref(p).neg(p, a)
        pm = np.uint64(p)
        acc = pm - arr
        return acc - (acc >= pm) * pm

    def batch_inverse(self, p, values):
        """Montgomery batch inversion with vectorized prefix/suffix scans.

        Exclusive prefix and suffix products are built with Hillis-Steele
        scans (2 * log2 k vectorized modmuls); one scalar exponentiation
        inverts the total, and out[i] = prefix[i] * suffix[i] * total^-1.
        Exact, and raises ZeroDivisionError exactly like the reference.
        """
        np = self._np
        native = isinstance(values, np.ndarray)
        if p != M61 or (
            not native and len(values) < DISPATCH_THRESHOLDS["inverse"]
        ):
            out = self._ref(p).batch_inverse(p, values)
            return np.asarray(out, dtype=np.uint64) if native else out
        arr = values if native else self._to_array(p, values)
        if arr is None:
            return self._ref(p).batch_inverse(p, values)
        n = len(arr)
        if n == 0:
            return arr
        if (arr == 0).any():
            raise ZeroDivisionError("zero has no multiplicative inverse")
        prefix = np.ones(n, dtype=np.uint64)
        prefix[1:] = arr[:-1]
        step = 1
        while step < n:
            shifted = np.ones(n, dtype=np.uint64)
            shifted[step:] = prefix[:-step]
            prefix = self._mul61(prefix, shifted)
            step *= 2
        suffix = np.ones(n, dtype=np.uint64)
        suffix[:-1] = arr[1:]
        step = 1
        while step < n:
            shifted = np.ones(n, dtype=np.uint64)
            shifted[:-step] = suffix[step:]
            suffix = self._mul61(suffix, shifted)
            step *= 2
        total = int(self._mul61(prefix[-1:], arr[-1:])[0])
        inv_total = np.full(n, pow(total, p - 2, p), dtype=np.uint64)
        return self._mul61(self._mul61(prefix, suffix), inv_total)

    # -- reductions / products --------------------------------------------
    def dot(self, p, a, b):
        np = self._np
        native = isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
        if not self._supported(p) or (
            not native and len(a) < DISPATCH_THRESHOLDS["elementwise"]
        ):
            return self._ref(p).dot(p, a, b)
        x = a if isinstance(a, np.ndarray) else self._to_array(p, a)
        y = b if isinstance(b, np.ndarray) else self._to_array(p, b)
        if x is None or y is None:
            return self._ref(p).dot(p, a, b)
        out = self._matmul(p, x.reshape(1, -1), y.reshape(-1, 1))
        if out is None:
            return self._ref(p).dot(p, a, b)
        return int(out[0, 0])

    def vec_sum(self, p, a):
        if isinstance(a, self._np.ndarray):
            # Python-int summation is exact regardless of length or modulus.
            return sum(a.tolist()) % p
        return self._int.vec_sum(p, a)

    def _matrix_operand(self, p: int, matrix, transposed: bool):
        """The uint64 array of a matrix operand, memoizing interned tuples.

        The cached Lagrange/Vandermonde matrices are interned tuples of
        tuples (see repro.field.array), so keying on the tuple itself makes
        repeated applications against the same point set conversion-free.
        """
        np = self._np
        if isinstance(matrix, np.ndarray):
            return matrix.T if transposed else matrix
        # Only tuples of tuples are hashable cache keys (the interned shape).
        cacheable = isinstance(matrix, tuple) and all(
            isinstance(row, tuple) for row in matrix
        )
        key = (p, transposed, matrix) if cacheable else None
        if cacheable:
            cached = self._limb_cache.get(key)
            if cached is not None:
                return cached
        arr = self._to_array(p, [list(row) for row in matrix])
        if arr is None or arr.ndim != 2:
            return None
        if transposed:
            arr = np.ascontiguousarray(arr.T)
        if cacheable:
            self._limb_cache.put(key, arr)
        return arr

    def _rows_work(self, rows, matrix) -> int:
        try:
            r = len(rows)
            m = len(matrix)
            k = len(matrix[0]) if m else 0
        except TypeError:
            return DISPATCH_THRESHOLDS["matmul_ops"]
        return r * m * max(k, 1)

    def rowmat(self, p, row, vectors):
        np = self._np
        native = any(isinstance(v, np.ndarray) for v in vectors)
        if self._supported(p) and (
            native
            or len(row) * (len(vectors[0]) if vectors else 0)
            >= DISPATCH_THRESHOLDS["matmul_ops"]
        ):
            mat = self.transpose(p, vectors)  # count x m
            if isinstance(mat, np.ndarray):
                row_arr = self._to_array(p, list(row))
                if row_arr is not None:
                    out = self._matmul(p, mat, row_arr.reshape(-1, 1))
                    if out is not None:
                        return out.reshape(-1)
        return self._ref(p).rowmat(
            p, list(row), [self.to_list(v) for v in vectors]
        )

    def rows_dot(self, p, rows, row):
        result = self.mat_rows(p, (tuple(row),) if isinstance(row, tuple) else [list(row)], rows, native=True)
        if isinstance(result, self._np.ndarray):
            return result.reshape(-1)
        return [r[0] for r in result]

    def mat_rows(self, p, matrix, rows, native=False):
        np = self._np
        rows_native = isinstance(rows, np.ndarray)
        if self._supported(p) and (
            rows_native or self._rows_work(rows, matrix) >= DISPATCH_THRESHOLDS["matmul_ops"]
        ):
            mat_t = self._matrix_operand(p, matrix, transposed=True)
            if mat_t is not None:
                if rows_native:
                    rows_arr = rows
                elif isinstance(rows, tuple) and all(
                    isinstance(r, tuple) for r in rows
                ):
                    # An interned cached matrix (Vandermonde/Lagrange) in the
                    # rows role -- batch_share and the bivariate products put
                    # the per-call data in `matrix` and the cached point-set
                    # matrix here, so memoize its conversion too.
                    rows_arr = self._matrix_operand(p, rows, transposed=False)
                else:
                    rows_arr = self._to_array(p, [list(r) for r in rows])
                if rows_arr is not None and rows_arr.ndim == 2 and (
                    rows_arr.shape[1] == mat_t.shape[0]
                ):
                    out = self._matmul(p, rows_arr, mat_t)
                    if out is not None:
                        return out if native else out.tolist()
        rows_seq = rows.tolist() if rows_native else rows
        out = self._ref(p).mat_rows(
            p,
            matrix if not isinstance(matrix, np.ndarray) else matrix.tolist(),
            rows_seq,
        )
        return out

    def mat_vecs(self, p, matrix, vectors):
        np = self._np
        native = any(isinstance(v, np.ndarray) for v in vectors)
        try:
            work = len(matrix) * len(vectors) * (len(vectors[0]) if vectors else 1)
        except TypeError:
            work = DISPATCH_THRESHOLDS["matmul_ops"]
        if self._supported(p) and (
            native or work >= DISPATCH_THRESHOLDS["matmul_ops"]
        ):
            # The interned HIM/Lagrange tuple goes through the limb cache, so
            # repeated extractions against the same point set re-use its
            # 21-bit-limb decomposition conversion-free.
            mat = self._matrix_operand(p, matrix, transposed=False)
            if mat is not None:
                stack = self._to_array(p, [self.to_list(v) for v in vectors])
                if (
                    stack is not None
                    and stack.ndim == 2
                    and mat.shape[1] == stack.shape[0]
                ):
                    out = self._matmul(p, mat, stack)
                    if out is not None:
                        return out.tolist()
        return self._ref(p).mat_vecs(
            p,
            matrix.tolist() if isinstance(matrix, np.ndarray) else matrix,
            [self.to_list(v) for v in vectors],
        )

    def mismatch_counts(self, a_matrix, b_matrix):
        np = self._np
        if isinstance(a_matrix, np.ndarray) and isinstance(b_matrix, np.ndarray):
            return (a_matrix != b_matrix).sum(axis=1).tolist()
        a_rows = a_matrix.tolist() if isinstance(a_matrix, np.ndarray) else a_matrix
        b_rows = b_matrix.tolist() if isinstance(b_matrix, np.ndarray) else b_matrix
        return self._int.mismatch_counts(a_rows, b_rows)


# -- registry ------------------------------------------------------------------

_INT_KERNEL = IntKernel()
_NUMPY_KERNEL: Optional[NumpyKernel] = None
_NUMPY_FAILED = False


def numpy_available() -> bool:
    """Whether the numpy kernel can be constructed in this process."""
    global _NUMPY_KERNEL, _NUMPY_FAILED
    if _NUMPY_KERNEL is not None:
        return True
    if _NUMPY_FAILED:
        return False
    try:
        _NUMPY_KERNEL = NumpyKernel()
    except ImportError:
        _NUMPY_FAILED = True
        return False
    return True


def available_kernel_backends() -> Tuple[str, ...]:
    backends = ["int"]
    if numpy_available():
        backends.append("numpy")
    return tuple(backends)


def _resolve(name: str) -> FieldKernel:
    if name == "int":
        return _INT_KERNEL
    if name == "numpy":
        if not numpy_available():
            raise ValueError("numpy kernel requested but numpy is not importable")
        return _NUMPY_KERNEL  # type: ignore[return-value]
    raise ValueError(f"unknown field kernel {name!r} (use 'int' or 'numpy')")


def _default_kernel() -> FieldKernel:
    requested = os.environ.get("REPRO_FIELD_KERNEL", "auto").strip().lower()
    if requested in ("", "auto"):
        if numpy_available():
            return _NUMPY_KERNEL  # type: ignore[return-value]
        return _INT_KERNEL
    return _resolve(requested)


def _calibration_path() -> str:
    """Where calibrated dispatch thresholds persist (repo root, overridable)."""
    override = os.environ.get("REPRO_DISPATCH_CALIBRATION", "").strip()
    if override:
        return override
    here = os.path.abspath(__file__)
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(here))))
    return os.path.join(root, "DISPATCH_CALIBRATION.json")


def load_dispatch_calibration(path: Optional[str] = None) -> bool:
    """Apply persisted crossover measurements; True if anything was applied.

    Reads the JSON written by ``python -m repro.field.calibrate`` (per-kernel
    threshold tables) and overwrites the known keys of
    :data:`DISPATCH_THRESHOLDS`.  A missing, unreadable, or malformed file
    leaves the shipped defaults in place -- calibration can only tune
    dispatch, never break import.
    """
    target = path or _calibration_path()
    try:
        with open(target, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return False
    if not isinstance(data, dict):
        return False
    applied = False
    entries = data.get("thresholds", {}).get("numpy")
    if isinstance(entries, dict):
        for name, value in entries.items():
            if name in DISPATCH_THRESHOLDS and isinstance(value, int) and value > 0:
                DISPATCH_THRESHOLDS[name] = value
                applied = True
    return applied


load_dispatch_calibration()

_ACTIVE: FieldKernel = _default_kernel()


def get_kernel() -> FieldKernel:
    """The active numerical kernel backend."""
    return _ACTIVE


def kernel_name() -> str:
    return _ACTIVE.name


def set_kernel_backend(name: str) -> str:
    """Select the active kernel ('int' / 'numpy'); returns the previous name.

    Kernels are exact and stateless with respect to protocol execution, so
    switching mid-process can never change results -- only speed.
    """
    global _ACTIVE
    previous = _ACTIVE.name
    _ACTIVE = _resolve(name)
    return previous

"""The residue routines the batched field layer is built on.

Every batched path in the reproduction (FieldArray element-wise ops,
Montgomery batch inversion, the cached Lagrange/Vandermonde matrix
applications behind RS decoding, Shamir, the bivariate WPS/VSS pipeline,
HIM extraction and broadcast payload packing) bottoms out in the functions
below.  A vector is a list of Python ints, a matrix a sequence of such rows;
every function does one big-int operation per slot and one reduction per
output, for any modulus ``p``.  The protocols apply matrices of about n x n
to vectors of tens of residues, which is the size this is written for.
"""

from __future__ import annotations

from operator import mul as _mul
from typing import Dict, Iterable, List, Sequence

IntVec = List[int]


def kernel_name() -> str:
    """The field kernel's name, stamped into benchmark reports."""
    return "int"


class LruCache:
    """A tiny bounded LRU map with an eviction counter.

    Used for the coefficient-matrix caches in :mod:`repro.field.array`: the
    tier-2 scenario grid probes thousands of distinct grown point sets, and
    an unbounded dict would leak across long simulations.
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

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data


# -- element-wise ------------------------------------------------------------
#
# ``rhs`` is a scalar int or a vector of the same length as ``a``.


def normalize(p: int, values: Iterable) -> IntVec:
    """Residues mod p of ints or FieldElements."""
    return [int(v) % p for v in values]


def add(p: int, a: Sequence[int], rhs) -> IntVec:
    if isinstance(rhs, int):
        return [(x + rhs) % p for x in a]
    return [(x + y) % p for x, y in zip(a, rhs)]


def sub(p: int, a: Sequence[int], rhs) -> IntVec:
    if isinstance(rhs, int):
        return [(x - rhs) % p for x in a]
    return [(x - y) % p for x, y in zip(a, rhs)]


def rsub(p: int, a: Sequence[int], rhs) -> IntVec:
    """rhs - a."""
    if isinstance(rhs, int):
        return [(rhs - x) % p for x in a]
    return [(y - x) % p for x, y in zip(a, rhs)]


def mul(p: int, a: Sequence[int], rhs) -> IntVec:
    if isinstance(rhs, int):
        return [x * rhs % p for x in a]
    return [x * y % p for x, y in zip(a, rhs)]


def neg(p: int, a: Sequence[int]) -> IntVec:
    return [(-x) % p for x in a]


def batch_inverse(p: int, values: Iterable) -> IntVec:
    """Montgomery's trick: k inversions for one exponentiation plus
    3(k-1) multiplications; ZeroDivisionError if any slot is 0 mod p."""
    reduced = [int(v) % p for v in values]
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


# -- reductions and products -------------------------------------------------


def dot(p: int, a: Sequence[int], b: Sequence[int]) -> int:
    """Inner product with a single trailing reduction.

    ``sum(map(mul, ...))`` beats the equivalent generator expression by
    ~30% on the short (degree+1)-length rows the protocols chew through.
    """
    return sum(map(_mul, a, b)) % p


def vec_sum(p: int, a: Sequence[int]) -> int:
    return sum(a) % p


def rowmat(p: int, row: Sequence[int], vectors: Sequence[Sequence[int]]) -> IntVec:
    """``row @ V``: out[k] = sum_i row[i] * vectors[i][k]."""
    count = len(vectors[0]) if vectors else 0
    return [
        sum(coeff * vector[k] for coeff, vector in zip(row, vectors)) % p
        for k in range(count)
    ]


def rows_dot(p: int, rows: Iterable[Sequence[int]], row: Sequence[int]) -> IntVec:
    """[dot(r, row) for r in rows]."""
    return [sum(map(_mul, r, row)) % p for r in rows]


def mat_rows(
    p: int, matrix: Sequence[Sequence[int]], rows: Iterable[Sequence[int]]
) -> List[IntVec]:
    """[[dot(m_row, r) for m_row in matrix] for r in rows]."""
    return [[sum(map(_mul, m_row, r)) % p for m_row in matrix] for r in rows]


def mat_vecs(
    p: int, matrix: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]]
) -> List[IntVec]:
    """``matrix @ V`` where V stacks ``vectors`` as rows.

    out[j][k] = sum_i matrix[j][i] * vectors[i][k]: one linear combination
    of the aligned input vectors per matrix row -- the hyper-invertible
    matrix application shape (extract from a bank of per-dealer share
    vectors in one product).
    """
    count = len(vectors[0]) if vectors else 0
    return [
        [sum(coeff * vec[k] for coeff, vec in zip(row, vectors)) % p for k in range(count)]
        for row in matrix
    ]


def mismatch_counts(
    a_matrix: Iterable[Sequence[int]], b_matrix: Iterable[Sequence[int]]
) -> List[int]:
    """Per-row count of differing entries between two equal-shape matrices."""
    return [
        sum(1 for x, y in zip(a_row, b_row) if x != y)
        for a_row, b_row in zip(a_matrix, b_matrix)
    ]

"""Batched field arithmetic: what the protocol layers compute with.

Every hot path in the reproduction (Berlekamp-Welch decoding, OEC, Shamir
encode/reconstruct, Beaver triple extraction) ultimately performs the same
handful of field operations over *many* values at once.  Doing that one
boxed :class:`~repro.field.gf.FieldElement` at a time dominates the runtime,
so this module provides:

* :class:`FieldArray` -- element-wise add/sub/mul/inv over a list of int
  residues, with a single modular reduction per op;
* :func:`batch_inverse` -- Montgomery's trick: k inversions for the price of
  one modular exponentiation plus 3(k-1) multiplications;
* cached Lagrange rows / matrices and (inverse) Vandermonde matrices keyed by
  ``(field, eval_points)``, so repeated interpolation against the same point
  set (the overwhelmingly common case: party alphas and beta extraction
  points never change) costs one dot product per value.

The residue arithmetic itself is the plain functions of
:mod:`repro.field.kernels`.

The boxed ``FieldElement``/``Polynomial`` primitives are kept untouched as
test oracles: ``tests/test_field_array.py`` checks that every function here
agrees with them element-wise on randomized inputs.  Protocol modules call
this module only; there is no scalar protocol path to select.

Batch API summary::

    arr = FieldArray(field, [1, 2, 3])
    (arr * arr + 1).inverse()                  # element-wise, Montgomery inv
    row = lagrange_row(field, xs, at)          # cached coefficient row
    mat = lagrange_matrix(field, xs, targets)  # cached row stack
    batch_interpolate_at(field, xs, rows, at)  # one dot product per row
    coeffs_rows = batch_interpolate(field, xs, rows)  # cached inverse Vandermonde
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.field import kernels
from repro.field.gf import GF, FieldElement
from repro.field.kernels import LruCache

IntRow = Tuple[int, ...]
Matrix = Tuple[IntRow, ...]

# -- batch inversion ----------------------------------------------------------


def batch_inverse(field: GF, values: Sequence[int]) -> List[int]:
    """Montgomery's trick: invert every residue with a single exponentiation.

    Raises ZeroDivisionError if any value is zero mod p (matching the scalar
    ``FieldElement.inverse`` behaviour).
    """
    return kernels.batch_inverse(field.modulus, values)


# -- cached interpolation machinery -------------------------------------------
#
# All caches are keyed by the GF instance itself; GF objects are interned per
# modulus (see gf.py), so two independently constructed fields with the same
# modulus share one cache line.  Caches are bounded LRUs: protocol instances
# probe many different grown point sets during OEC, and the tier-2 scenario
# grid sweeps thousands of cells in one process -- an unbounded cache would
# slowly leak across long simulations.  Evictions are counted and surfaced
# through :func:`cache_stats`.

_CACHE_LIMIT = 4096

_LAGRANGE_ROW_CACHE: LruCache = LruCache(_CACHE_LIMIT)
_LAGRANGE_MATRIX_CACHE: LruCache = LruCache(_CACHE_LIMIT)
_VANDERMONDE_CACHE: LruCache = LruCache(_CACHE_LIMIT)
_INV_VANDERMONDE_CACHE: LruCache = LruCache(_CACHE_LIMIT)
_HIM_CACHE: LruCache = LruCache(_CACHE_LIMIT)

_CACHES: Dict[str, LruCache] = {
    "lagrange_rows": _LAGRANGE_ROW_CACHE,
    "lagrange_matrices": _LAGRANGE_MATRIX_CACHE,
    "vandermonde": _VANDERMONDE_CACHE,
    "inverse_vandermonde": _INV_VANDERMONDE_CACHE,
    "him": _HIM_CACHE,
}


def cache_stats() -> Dict[str, int]:
    """Sizes and LRU eviction counters of the coefficient-matrix caches."""
    stats: Dict[str, int] = {}
    for name, cache in _CACHES.items():
        stats[name] = len(cache)
        stats[f"{name}_evictions"] = cache.evictions
    stats["limit"] = _CACHE_LIMIT
    return stats


def _as_int_tuple(field: GF, xs: Iterable) -> IntRow:
    p = field.modulus
    return tuple(int(x) % p for x in xs)


def _pairwise_denominators(points: Sequence[int], p: int) -> List[int]:
    """The Lagrange denominators d_i = prod_{j != i} (x_i - x_j) mod p."""
    denominators = []
    for i, xi in enumerate(points):
        d = 1
        for j, xj in enumerate(points):
            if i != j:
                d = d * (xi - xj) % p
        denominators.append(d)
    return denominators


def lagrange_row(field: GF, xs: Sequence, at) -> IntRow:
    """Cached Lagrange coefficients c_i with f(at) = sum c_i * f(xs[i]).

    The fast twin of :func:`repro.field.polynomial.lagrange_coefficients`:
    same values, but plain ints, one batched inversion, and memoized on
    ``(field, xs, at)``.
    """
    p = field.modulus
    points = _as_int_tuple(field, xs)
    target = int(at) % p
    key = (field, points, target)
    cached = _LAGRANGE_ROW_CACHE.get(key)
    if cached is not None:
        return cached
    if len(set(points)) != len(points):
        raise ValueError("interpolation points must be distinct")
    # f(at) is trivially f(x_j) when the target is an interpolation point.
    if target in points:
        unit = tuple(1 if x == target else 0 for x in points)
        return _LAGRANGE_ROW_CACHE.put(key, unit)
    diffs = [(target - x) % p for x in points]
    # prefix[i] = prod_{j<i} diffs[j], suffix[i] = prod_{j>i} diffs[j]
    k = len(points)
    prefix = [1] * k
    for i in range(1, k):
        prefix[i] = prefix[i - 1] * diffs[i - 1] % p
    suffix = [1] * k
    for i in range(k - 2, -1, -1):
        suffix[i] = suffix[i + 1] * diffs[i + 1] % p
    inv_denoms = batch_inverse(field, _pairwise_denominators(points, p))
    row = tuple(prefix[i] * suffix[i] % p * inv_denoms[i] % p for i in range(k))
    return _LAGRANGE_ROW_CACHE.put(key, row)


def lagrange_matrix(field: GF, xs: Sequence, targets: Sequence) -> Matrix:
    """Cached stack of Lagrange rows: one row per target evaluation point.

    ``matrix @ values_at_xs`` evaluates the interpolating polynomial through
    ``(xs, values)`` at every target at once.
    """
    points = _as_int_tuple(field, xs)
    wanted = _as_int_tuple(field, targets)
    key = (field, points, wanted)
    cached = _LAGRANGE_MATRIX_CACHE.get(key)
    if cached is not None:
        return cached
    matrix = tuple(lagrange_row(field, points, t) for t in wanted)
    return _LAGRANGE_MATRIX_CACHE.put(key, matrix)


def vandermonde_matrix(field: GF, xs: Sequence, degree: int) -> Matrix:
    """Cached Vandermonde matrix: row i is (1, x_i, x_i^2, ..., x_i^degree).

    ``matrix @ coeffs`` evaluates a degree-``degree`` polynomial at every x.
    """
    points = _as_int_tuple(field, xs)
    key = (field, points, degree)
    cached = _VANDERMONDE_CACHE.get(key)
    if cached is not None:
        return cached
    p = field.modulus
    rows = []
    for x in points:
        row = [1] * (degree + 1)
        for k in range(1, degree + 1):
            row[k] = row[k - 1] * x % p
        rows.append(tuple(row))
    return _VANDERMONDE_CACHE.put(key, tuple(rows))


def inverse_vandermonde(field: GF, xs: Sequence) -> Matrix:
    """Cached matrix C with ``coeffs = C @ values``: interpolation to coefficients.

    Built from Lagrange basis polynomials via synthetic division of the
    master polynomial M(x) = prod (x - x_j); O(k^2) once per point set.
    Row k of C holds the coefficient of x^k contributed by each value, i.e.
    ``C[k][i] = [x^k] basis_i(x)``.
    """
    points = _as_int_tuple(field, xs)
    key = (field, points)
    cached = _INV_VANDERMONDE_CACHE.get(key)
    if cached is not None:
        return cached
    if len(set(points)) != len(points):
        raise ValueError("interpolation points must be distinct")
    p = field.modulus
    k = len(points)
    # Master polynomial M(x) = prod (x - x_j), degree k, coefficients low->high.
    master = [1]
    for x in points:
        master = [0] + master
        for idx in range(len(master) - 1):
            master[idx] = (master[idx] - x * master[idx + 1]) % p
    inv_denoms = batch_inverse(field, _pairwise_denominators(points, p))
    # basis_i = M(x) / (x - x_i) * inv_denoms[i], via synthetic division.
    columns: List[List[int]] = []
    for i, xi in enumerate(points):
        quotient = [0] * k
        carry = master[k]  # leading coefficient, always 1
        for deg in range(k - 1, -1, -1):
            quotient[deg] = carry
            carry = (master[deg] + carry * xi) % p
        scale = inv_denoms[i]
        columns.append([q * scale % p for q in quotient])
    matrix = tuple(
        tuple(columns[i][deg] for i in range(k)) for deg in range(k)
    )
    return _INV_VANDERMONDE_CACHE.put(key, matrix)


#: HIM output points y_j = HIM_POINT_OFFSET + j live far above the alpha
#: (party, = i) and beta (extraction, = 10_000 + j) point families so the
#: three families never collide for any realistic n.
HIM_POINT_OFFSET = 20_000


def him_matrix(field: GF, inputs: int, outputs: int) -> Matrix:
    """Cached hyper-invertible matrix taking ``inputs`` values to ``outputs``.

    Realized as the Lagrange evaluation-point-change matrix from the party
    points alpha_1..alpha_inputs to the disjoint points y_1..y_outputs
    (y_j = HIM_POINT_OFFSET + j): the inputs are read as evaluations of an
    implicit degree-(inputs-1) polynomial and row j re-evaluates it at y_j.
    Because all points are pairwise distinct, every square submatrix of such
    a point-change matrix is invertible -- the hyper-invertibility property
    behind batch randomness extraction: any ``outputs`` of the outputs are an
    invertible function of any ``outputs`` of the inputs, so as long as at
    least ``outputs`` inputs are uniformly random and unknown to the
    adversary, so are all the outputs.  Applied share-wise the matrix maps
    degree-t sharings to degree-t sharings (it is a linear map with public
    coefficients).
    """
    if not 1 <= outputs <= inputs:
        raise ValueError(
            f"him_matrix needs 1 <= outputs <= inputs, got {inputs}x{outputs}"
        )
    key = (field, inputs, outputs)
    cached = _HIM_CACHE.get(key)
    if cached is not None:
        return cached
    xs = tuple(int(field.alpha(i)) for i in range(1, inputs + 1))
    matrix = tuple(
        lagrange_row(field, xs, HIM_POINT_OFFSET + j)
        for j in range(1, outputs + 1)
    )
    return _HIM_CACHE.put(key, matrix)


def batch_interpolate_at(
    field: GF, xs: Sequence, rows: Sequence[Sequence[int]], at
) -> List[int]:
    """Evaluate, for every row of values over ``xs``, its interpolant at ``at``."""
    return kernels.rows_dot(field.modulus, rows, lagrange_row(field, xs, at))


def batch_interpolate(
    field: GF, xs: Sequence, rows: Sequence[Sequence[int]]
) -> List[List[int]]:
    """Coefficient lists (low -> high) of the interpolants of many value rows."""
    matrix = inverse_vandermonde(field, xs)
    return kernels.mat_rows(field.modulus, matrix, rows)


def batch_evaluate(
    field: GF, coeff_rows: Sequence[Sequence[int]], xs: Sequence
) -> List[List[int]]:
    """Evaluate many coefficient rows at the same points via one cached matrix."""
    if not coeff_rows:
        return []
    degree = max(len(row) for row in coeff_rows) - 1
    matrix = vandermonde_matrix(field, xs, degree)
    width = degree + 1
    padded = [
        list(coeffs) + [0] * (width - len(coeffs)) if len(coeffs) < width else list(coeffs)
        for coeffs in coeff_rows
    ]
    return kernels.mat_rows(field.modulus, matrix, padded)


# -- the array type -----------------------------------------------------------

ArrayLike = Union["FieldArray", Sequence, int, FieldElement]


class FieldArray:
    """A vector of GF(p) residues.

    Element-wise arithmetic with a single modular reduction per slot; scalars
    (ints or :class:`FieldElement`) broadcast.  Mixing arrays over different
    fields or of different lengths raises ValueError, mirroring the scalar
    API's refusal to mix fields.  :attr:`values` is the list of residues
    itself, never copied by the arithmetic.
    """

    __slots__ = ("field", "values")

    def __init__(self, field: GF, values: Iterable, _normalized: bool = False):
        self.field = field
        self.values: List[int] = (
            list(values) if _normalized else kernels.normalize(field.modulus, values)
        )

    @classmethod
    def _wrap(cls, field: GF, values: List[int]) -> "FieldArray":
        """Adopt an already-reduced residue list without copying it."""
        array = cls.__new__(cls)
        array.field = field
        array.values = values
        return array

    # -- constructors -----------------------------------------------------
    @classmethod
    def zeros(cls, field: GF, count: int) -> "FieldArray":
        return cls._wrap(field, [0] * count)

    @classmethod
    def from_elements(cls, field: GF, elements: Sequence[FieldElement]) -> "FieldArray":
        return cls._wrap(field, [e.value for e in elements])

    @classmethod
    def random(cls, field: GF, count: int, rng: Optional[random.Random] = None) -> "FieldArray":
        rng = rng or random
        p = field.modulus
        return cls._wrap(field, [rng.randrange(p) for _ in range(count)])

    # -- coercion ---------------------------------------------------------
    def _coerce(self, other: ArrayLike):
        """The other operand as a scalar int or a residue list of matching
        length, or None if it is neither."""
        p = self.field.modulus
        if isinstance(other, FieldArray):
            if other.field.modulus != p:
                raise ValueError("cannot mix arrays over different fields")
            if len(other) != len(self):
                raise ValueError("length mismatch in FieldArray arithmetic")
            return other.values
        if isinstance(other, FieldElement):
            if other.field.modulus != p:
                raise ValueError("cannot mix elements of different fields")
            return other.value
        if isinstance(other, int):
            return other % p
        if isinstance(other, (list, tuple)):
            if len(other) != len(self):
                raise ValueError("length mismatch in FieldArray arithmetic")
            return kernels.normalize(p, other)
        return None

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "FieldArray":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return FieldArray._wrap(self.field, kernels.add(self.field.modulus, self.values, rhs))

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "FieldArray":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return FieldArray._wrap(self.field, kernels.sub(self.field.modulus, self.values, rhs))

    def __rsub__(self, other: ArrayLike) -> "FieldArray":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return FieldArray._wrap(self.field, kernels.rsub(self.field.modulus, self.values, rhs))

    def __mul__(self, other: ArrayLike) -> "FieldArray":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return FieldArray._wrap(self.field, kernels.mul(self.field.modulus, self.values, rhs))

    __rmul__ = __mul__

    def __neg__(self) -> "FieldArray":
        return FieldArray._wrap(self.field, kernels.neg(self.field.modulus, self.values))

    def __truediv__(self, other: ArrayLike) -> "FieldArray":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        p = self.field.modulus
        if isinstance(rhs, int):
            if rhs == 0:
                raise ZeroDivisionError("zero has no multiplicative inverse")
            inv = pow(rhs, p - 2, p)
        else:
            inv = kernels.batch_inverse(p, rhs)
        return FieldArray._wrap(self.field, kernels.mul(p, self.values, inv))

    def inverse(self) -> "FieldArray":
        """Element-wise multiplicative inverse via Montgomery's trick."""
        return FieldArray._wrap(
            self.field, kernels.batch_inverse(self.field.modulus, self.values)
        )

    def dot(self, other: ArrayLike) -> FieldElement:
        rhs = self._coerce(other)
        if rhs is None:
            raise TypeError("cannot take dot product with this operand")
        p = self.field.modulus
        if isinstance(rhs, int):
            return FieldElement(kernels.vec_sum(p, self.values) * rhs % p, self.field)
        return FieldElement(kernels.dot(p, self.values, rhs), self.field)

    def sum(self) -> FieldElement:
        return FieldElement(kernels.vec_sum(self.field.modulus, self.values), self.field)

    # -- container protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        field = self.field
        return (FieldElement(v, field) for v in self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return FieldArray._wrap(self.field, self.values[index])
        return FieldElement(self.values[index], self.field)

    def to_elements(self) -> List[FieldElement]:
        field = self.field
        return [FieldElement(v, field) for v in self.values]

    def tolist(self) -> List[int]:
        return list(self.values)

    # -- comparisons -------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldArray):
            return self.field.modulus == other.field.modulus and self.values == other.values
        if isinstance(other, (list, tuple)):
            if len(other) != len(self):
                return False
            try:
                rhs = self._coerce(other)
            except ValueError:
                return False
            return rhs == self.values
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.modulus, tuple(self.values)))

    def __repr__(self) -> str:
        return f"FieldArray({self.values!r})"

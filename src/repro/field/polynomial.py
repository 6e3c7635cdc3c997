"""Univariate polynomials over GF(p).

Shamir sharing, OEC and the triple protocols all manipulate d-degree
univariate polynomials; this module provides construction, evaluation,
arithmetic and Lagrange interpolation for them.

A :class:`Polynomial` holds its coefficients as one list of reduced int
residues, :attr:`Polynomial.residues`.  The decode-side hot paths
(``rs_decode_batch`` candidate construction, batch OEC, bivariate row
extraction, packed row payloads) construct polynomials through
:meth:`Polynomial.from_reduced_ints` / :meth:`Polynomial.from_reduced_rows`
and read them back through ``residues``, so they never materialize a boxed
:class:`~repro.field.gf.FieldElement` per coefficient.  The historical boxed
view, :attr:`Polynomial.coeffs`, is a lazily-built property -- same elements
as always, paid for only by callers that actually index into it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.field.gf import GF, FieldElement


def _strip_trailing_zeros(values: List[int]) -> List[int]:
    """``values`` without trailing zeros, ``[0]`` for the zero polynomial.

    Never boxes and never copies a list that needs no stripping.
    """
    if values and values[-1] == 0:
        end = len(values)
        while end > 1 and values[end - 1] == 0:
            end -= 1
        return values[:end]
    return values or [0]


class Polynomial:
    """A univariate polynomial over GF(p), stored as reduced residues.

    ``coeffs[k]`` is the (boxed) coefficient of x**k; :attr:`residues` is
    the same data as plain Python ints.  Trailing zero coefficients are
    stripped, except that the zero polynomial keeps a single zero
    coefficient.
    """

    __slots__ = ("field", "residues", "_boxed")

    def __init__(self, field: GF, coeffs: Sequence):
        self.field = field
        p = field.modulus
        values: List[int] = []
        append = values.append
        for c in coeffs:
            # Same-field fast path: an already-boxed element of this field
            # contributes its residue directly instead of round-tripping
            # through GF.__call__ (which re-validates and re-boxes).
            if type(c) is FieldElement:
                if c.field.modulus != p:
                    raise ValueError("element belongs to a different field")
                append(c.value)
            else:
                append(int(c) % p)
        self.residues = _strip_trailing_zeros(values)
        self._boxed = None

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_reduced_ints(cls, field: GF, values: Sequence[int]) -> "Polynomial":
        """Trusted fast constructor from already-reduced residues.

        The caller guarantees ``0 <= v < p``; a list is adopted without a
        copy.  Trailing-zero stripping still applies, so the result is
        indistinguishable from ``Polynomial(field, values)``.  No coefficient
        is ever boxed -- the boxed view materializes lazily if someone
        touches ``.coeffs``.
        """
        poly = object.__new__(cls)
        poly.field = field
        poly.residues = _strip_trailing_zeros(
            values if isinstance(values, list) else list(values)
        )
        poly._boxed = None
        return poly

    @classmethod
    def from_reduced_rows(cls, field: GF, matrix: Sequence[List[int]]) -> List["Polynomial"]:
        """One polynomial per row of a residue matrix (batch form).

        Semantically identical to
        ``[Polynomial.from_reduced_ints(field, row) for row in matrix]``,
        without the per-row method call.
        """
        polys = []
        append = polys.append
        new = object.__new__
        for row in matrix:
            poly = new(cls)
            poly.field = field
            poly.residues = _strip_trailing_zeros(row)
            poly._boxed = None
            append(poly)
        return polys

    @classmethod
    def zero(cls, field: GF) -> "Polynomial":
        return cls.from_reduced_ints(field, [0])

    @classmethod
    def constant(cls, field: GF, value) -> "Polynomial":
        return cls(field, [value])

    @classmethod
    def random(
        cls,
        field: GF,
        degree: int,
        constant_term=None,
        rng: Optional[random.Random] = None,
    ) -> "Polynomial":
        """A uniformly random polynomial of the given degree.

        If ``constant_term`` is provided the polynomial is random subject to
        f(0) = constant_term (the standard way a dealer hides a secret).
        Draws one ``randrange(p)`` per coefficient, in the same order the
        boxed implementation always did.
        """
        rng = rng or random
        p = field.modulus
        coeffs = [rng.randrange(p) for _ in range(degree + 1)]
        if constant_term is not None:
            coeffs[0] = int(field(constant_term))
        return cls.from_reduced_ints(field, coeffs)

    # -- boxed view --------------------------------------------------------
    @property
    def coeffs(self) -> List[FieldElement]:
        """The boxed coefficient list (lazily materialized, then cached)."""
        if self._boxed is None:
            field = self.field
            new = FieldElement.__new__
            boxed = []
            append = boxed.append
            for v in self.residues:
                element = new(FieldElement)
                element.value = v
                element.field = field
                append(element)
            self._boxed = boxed
        return self._boxed

    # -- basic queries -----------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree of the polynomial (0 for constants, including zero)."""
        return len(self.residues) - 1

    def is_zero(self) -> bool:
        return len(self.residues) == 1 and self.residues[0] == 0

    def constant_term(self) -> FieldElement:
        return FieldElement(self.residues[0], self.field)

    def constant_residue(self) -> int:
        """f(0) as a plain int residue (no boxing)."""
        return self.residues[0]

    def _x_residue(self, x) -> int:
        if isinstance(x, FieldElement):
            if x.field.modulus != self.field.modulus:
                raise ValueError("element belongs to a different field")
            return x.value
        return int(x) % self.field.modulus

    def eval_int(self, x) -> int:
        """Evaluate at x via Horner's rule on int residues (no boxing)."""
        x_val = self._x_residue(x)
        p = self.field.modulus
        acc = 0
        for coeff in reversed(self.residues):
            acc = (acc * x_val + coeff) % p
        return acc

    def evaluate(self, x) -> FieldElement:
        """Evaluate at x using Horner's rule."""
        return FieldElement(self.eval_int(x), self.field)

    __call__ = evaluate

    def evaluate_many(self, xs: Sequence) -> List[FieldElement]:
        return [self.evaluate(x) for x in xs]

    # -- arithmetic --------------------------------------------------------
    def _padded(self, length: int) -> List[int]:
        values = self.residues
        if len(values) >= length:
            return values
        return values + [0] * (length - len(values))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        p = self.field.modulus
        length = max(len(self.residues), len(other.residues))
        return Polynomial.from_reduced_ints(
            self.field,
            [(a + b) % p for a, b in zip(self._padded(length), other._padded(length))],
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        p = self.field.modulus
        length = max(len(self.residues), len(other.residues))
        return Polynomial.from_reduced_ints(
            self.field,
            [(a - b) % p for a, b in zip(self._padded(length), other._padded(length))],
        )

    def __neg__(self) -> "Polynomial":
        p = self.field.modulus
        return Polynomial.from_reduced_ints(self.field, [(-c) % p for c in self.residues])

    def __mul__(self, other) -> "Polynomial":
        p = self.field.modulus
        if isinstance(other, (int, FieldElement)):
            scalar = self._x_residue(other)
            return Polynomial.from_reduced_ints(
                self.field, [c * scalar % p for c in self.residues]
            )
        a_coeffs = self.residues
        b_coeffs = other.residues
        result = [0] * (len(a_coeffs) + len(b_coeffs) - 1)
        for i, a in enumerate(a_coeffs):
            if a == 0:
                continue
            for j, b in enumerate(b_coeffs):
                result[i + j] = (result[i + j] + a * b) % p
        return Polynomial.from_reduced_ints(self.field, result)

    __rmul__ = __mul__

    def divmod(self, divisor: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        """Polynomial long division; returns (quotient, remainder)."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.field.modulus
        remainder = list(self.residues)
        div_coeffs = divisor.residues
        quotient = [0] * max(1, len(remainder) - len(div_coeffs) + 1)
        divisor_lead_inv = pow(div_coeffs[-1], p - 2, p)
        for shift in range(len(remainder) - len(div_coeffs), -1, -1):
            factor = remainder[shift + len(div_coeffs) - 1] * divisor_lead_inv % p
            quotient[shift] = factor
            if factor == 0:
                continue
            for k, dcoeff in enumerate(div_coeffs):
                remainder[shift + k] = (remainder[shift + k] - factor * dcoeff) % p
        return (
            Polynomial.from_reduced_ints(self.field, quotient),
            Polynomial.from_reduced_ints(self.field, remainder),
        )

    def __floordiv__(self, divisor: "Polynomial") -> "Polynomial":
        return self.divmod(divisor)[0]

    def __mod__(self, divisor: "Polynomial") -> "Polynomial":
        return self.divmod(divisor)[1]

    # -- comparisons -------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.residues == other.residues

    def __hash__(self) -> int:
        return hash((self.field.modulus, tuple(self.residues)))

    def __repr__(self) -> str:
        return f"Polynomial(degree={self.degree}, coeffs={self.residues})"


def lagrange_coefficients(field: GF, xs: Sequence, at) -> List[FieldElement]:
    """Lagrange coefficients lambda_i such that f(at) = sum lambda_i * f(xs[i]).

    The paper calls linear maps derived from these "Lagrange's linear
    functions"; the triple-transformation protocol applies them locally to
    shares.
    """
    points = [field(x) for x in xs]
    target = field(at)
    if len(set(p.value for p in points)) != len(points):
        raise ValueError("interpolation points must be distinct")
    coefficients = []
    for i, xi in enumerate(points):
        numerator = field.one()
        denominator = field.one()
        for j, xj in enumerate(points):
            if i == j:
                continue
            numerator = numerator * (target - xj)
            denominator = denominator * (xi - xj)
        coefficients.append(numerator / denominator)
    return coefficients


def lagrange_interpolate(field: GF, points: Sequence[Tuple]) -> Polynomial:
    """The unique polynomial of degree < len(points) through the given points.

    ``points`` is a sequence of (x, y) pairs with distinct x.
    """
    xs = [field(x) for x, _ in points]
    ys = [field(y) for _, y in points]
    if len(set(x.value for x in xs)) != len(xs):
        raise ValueError("interpolation points must be distinct")
    result = Polynomial.zero(field)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = Polynomial.constant(field, 1)
        denominator = field.one()
        for j, xj in enumerate(xs):
            if i == j:
                continue
            basis = basis * Polynomial(field, [-xj, field.one()])
            denominator = denominator * (xi - xj)
        result = result + basis * (yi / denominator)
    return result


def interpolate_at(field: GF, points: Sequence[Tuple], at) -> FieldElement:
    """Evaluate the interpolating polynomial through ``points`` at ``at``."""
    xs = [x for x, _ in points]
    coeffs = lagrange_coefficients(field, xs, at)
    total = field.zero()
    for coeff, (_, y) in zip(coeffs, points):
        total = total + coeff * field(y)
    return total

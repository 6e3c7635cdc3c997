"""Symmetric bivariate polynomials over GF(p).

The VSS and WPS protocols embed a dealer's degree-t univariate polynomial
q(.) into a random (t, t)-degree *symmetric* bivariate polynomial Q(x, y)
with Q(0, y) = q(y), and hand party P_i the univariate restriction
q_i(x) = Q(x, alpha_i).  Symmetry (Q(x, y) = Q(y, x)) is what makes the
pair-wise consistency test q_i(alpha_j) = q_j(alpha_i) work (Section 2).

Two implementations live here:

* :class:`SymmetricBivariatePolynomial` -- the boxed ``FieldElement``
  reference, validated on construction (use :meth:`~SymmetricBivariatePolynomial.trusted`
  to skip the O(t^2) symmetry re-check on trusted internal paths);
* :class:`BatchSymmetricBivariate` -- the fast twin over plain int residues.
  Row extraction for all n parties (:meth:`~BatchSymmetricBivariate.rows_at_all_points`)
  and the full pairwise value table (:meth:`~BatchSymmetricBivariate.eval_grid`)
  are cached-Vandermonde matrix products, which is where the dealer
  distribution and consistency checking of Pi_WPS / Pi_VSS spend their time.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.field.array import batch_interpolate, vandermonde_matrix
from repro.field.gf import GF, FieldElement
from repro.field.kernels import mat_rows
from repro.field.polynomial import Polynomial, lagrange_interpolate


class SymmetricBivariatePolynomial:
    """An (ell, ell)-degree symmetric bivariate polynomial F(x, y).

    Stored as a coefficient matrix ``coeffs[i][j]`` for x**i * y**j with
    coeffs[i][j] == coeffs[j][i].
    """

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field: GF, coeffs: Sequence[Sequence[FieldElement]]):
        self.field = field
        self.degree = len(coeffs) - 1
        matrix = [[field(c) for c in row] for row in coeffs]
        for row in matrix:
            if len(row) != self.degree + 1:
                raise ValueError("coefficient matrix must be square")
        for i in range(self.degree + 1):
            for j in range(i + 1, self.degree + 1):
                if matrix[i][j] != matrix[j][i]:
                    raise ValueError("coefficient matrix must be symmetric")
        self.coeffs = matrix

    # -- constructors -----------------------------------------------------
    @classmethod
    def trusted(
        cls, field: GF, coeffs: Sequence[Sequence[FieldElement]]
    ) -> "SymmetricBivariatePolynomial":
        """Construct from an already-symmetric FieldElement matrix, unchecked.

        The validating ``__init__`` re-checks symmetry with O(t^2) boxed
        comparisons, which is pure overhead for matrices that are symmetric
        by construction (``random_embedding``) or already validated
        (``from_univariate_rows``).  Untrusted dealer input must keep going
        through the checked constructor.
        """
        instance = cls.__new__(cls)
        instance.field = field
        instance.degree = len(coeffs) - 1
        instance.coeffs = [list(row) for row in coeffs]
        return instance

    @classmethod
    def random_embedding(
        cls,
        field: GF,
        univariate: Polynomial,
        rng: Optional[random.Random] = None,
    ) -> "SymmetricBivariatePolynomial":
        """Random symmetric Q(x, y) of degree t with Q(0, y) = univariate(y).

        This is exactly the dealer's Phase-I step in Pi_WPS / Pi_VSS.
        """
        rng = rng or random
        t = univariate.degree
        coeffs = [[field.zero()] * (t + 1) for _ in range(t + 1)]
        # Fix the x = 0 row/column from the input polynomial: Q(0, y) = sum_j c_j y^j.
        for j in range(t + 1):
            value = univariate.coeffs[j] if j < len(univariate.coeffs) else field.zero()
            coeffs[0][j] = value
            coeffs[j][0] = value
        # Remaining upper-triangular coefficients are uniformly random.
        for i in range(1, t + 1):
            for j in range(i, t + 1):
                value = field.random(rng)
                coeffs[i][j] = value
                coeffs[j][i] = value
        return cls.trusted(field, coeffs)

    @classmethod
    def random(
        cls, field: GF, degree: int, rng: Optional[random.Random] = None
    ) -> "SymmetricBivariatePolynomial":
        rng = rng or random
        return cls.random_embedding(field, Polynomial.random(field, degree, rng=rng), rng=rng)

    @classmethod
    def from_univariate_rows(
        cls, field: GF, rows: Sequence[Tuple[FieldElement, Polynomial]]
    ) -> "SymmetricBivariatePolynomial":
        """Reconstruct F(x, y) from >= degree+1 pairwise-consistent rows.

        ``rows`` is a sequence of (alpha_i, f_i) with f_i(x) = F(x, alpha_i).
        This mirrors Lemma 2.1: sufficiently many pairwise-consistent
        univariate polynomials determine a unique symmetric bivariate one.
        """
        if not rows:
            raise ValueError("need at least one row")
        degree = max(poly.degree for _, poly in rows)
        if len(rows) < degree + 1:
            raise ValueError("need at least degree+1 rows to reconstruct")
        selected = rows[: degree + 1]
        # For each x-power k, interpolate the coefficient polynomial in y.
        coeffs = [[field.zero()] * (degree + 1) for _ in range(degree + 1)]
        for k in range(degree + 1):
            points = []
            for alpha, poly in selected:
                coeff = poly.coeffs[k] if k < len(poly.coeffs) else field.zero()
                points.append((alpha, coeff))
            column = lagrange_interpolate(field, points)
            for j in range(degree + 1):
                value = column.coeffs[j] if j < len(column.coeffs) else field.zero()
                coeffs[k][j] = value
        # Symmetrize defensively (exact if rows really are consistent).
        for i in range(degree + 1):
            for j in range(i + 1, degree + 1):
                if coeffs[i][j] != coeffs[j][i]:
                    raise ValueError("rows are not pairwise consistent")
        return cls.trusted(field, coeffs)

    # -- evaluation --------------------------------------------------------
    def evaluate(self, x, y) -> FieldElement:
        x = self.field(x)
        y = self.field(y)
        total = self.field.zero()
        x_pow = self.field.one()
        for i in range(self.degree + 1):
            y_pow = self.field.one()
            row_total = self.field.zero()
            for j in range(self.degree + 1):
                row_total = row_total + self.coeffs[i][j] * y_pow
                y_pow = y_pow * y
            total = total + row_total * x_pow
            x_pow = x_pow * x
        return total

    def row(self, y) -> Polynomial:
        """The univariate restriction F(x, y0) as a polynomial in x.

        For party P_i the dealer sends ``row(alpha_i)``; by symmetry this
        equals F(alpha_i, y) viewed as a polynomial in y.
        """
        y = self.field(y)
        coeffs = []
        for i in range(self.degree + 1):
            acc = self.field.zero()
            y_pow = self.field.one()
            for j in range(self.degree + 1):
                acc = acc + self.coeffs[i][j] * y_pow
                y_pow = y_pow * y
            coeffs.append(acc)
        return Polynomial(self.field, coeffs)

    def zero_row(self) -> Polynomial:
        """Q(0, y): the dealer's embedded univariate polynomial."""
        return Polynomial(self.field, list(self.coeffs[0]))

    def secret(self) -> FieldElement:
        """F(0, 0), the shared secret."""
        return self.coeffs[0][0]

    def is_symmetric(self) -> bool:
        return all(
            self.coeffs[i][j] == self.coeffs[j][i]
            for i in range(self.degree + 1)
            for j in range(self.degree + 1)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymmetricBivariatePolynomial):
            return NotImplemented
        return (
            self.field == other.field
            and self.degree == other.degree
            and all(
                self.coeffs[i][j] == other.coeffs[i][j]
                for i in range(self.degree + 1)
                for j in range(self.degree + 1)
            )
        )

    def __repr__(self) -> str:
        return f"SymmetricBivariatePolynomial(degree={self.degree})"


class BatchSymmetricBivariate:
    """The fast twin of :class:`SymmetricBivariatePolynomial`.

    Stores the coefficient matrix as plain int residues and computes every
    bulk operation (row extraction for all parties, the full pairwise value
    grid, reconstruction from rows) as a product against the cached
    Vandermonde matrices from :mod:`repro.field.array`.  This is the class
    the protocol layers use; given the same ``rng`` it consumes randomness
    exactly like the scalar ``random_embedding``, which stays as its
    element-wise test oracle.
    """

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field: GF, coeffs: Sequence[Sequence], _normalized: bool = False):
        self.field = field
        self.degree = len(coeffs) - 1
        if _normalized:
            self.coeffs = [list(row) for row in coeffs]
            return
        p = field.modulus
        matrix = [[int(c) % p for c in row] for row in coeffs]
        for row in matrix:
            if len(row) != self.degree + 1:
                raise ValueError("coefficient matrix must be square")
        for i in range(self.degree + 1):
            for j in range(i + 1, self.degree + 1):
                if matrix[i][j] != matrix[j][i]:
                    raise ValueError("coefficient matrix must be symmetric")
        self.coeffs = matrix

    # -- constructors -----------------------------------------------------
    @classmethod
    def random_embedding(
        cls,
        field: GF,
        univariate: Polynomial,
        rng: Optional[random.Random] = None,
    ) -> "BatchSymmetricBivariate":
        """Random symmetric Q(x, y) of degree t with Q(0, y) = univariate(y).

        Draws from ``rng`` in the same order as the scalar twin (one
        ``randrange(p)`` per upper-triangular coefficient), so a protocol
        run is bit-identical whichever implementation the dealer uses.
        """
        rng = rng or random
        p = field.modulus
        t = univariate.degree
        residues = univariate.residues
        coeffs = [[0] * (t + 1) for _ in range(t + 1)]
        for j in range(t + 1):
            value = residues[j] if j < len(residues) else 0
            coeffs[0][j] = value
            coeffs[j][0] = value
        for i in range(1, t + 1):
            for j in range(i, t + 1):
                value = rng.randrange(p)
                coeffs[i][j] = value
                coeffs[j][i] = value
        return cls(field, coeffs, _normalized=True)

    @classmethod
    def from_scalar(cls, scalar: SymmetricBivariatePolynomial) -> "BatchSymmetricBivariate":
        return cls(
            scalar.field,
            [[c.value for c in row] for row in scalar.coeffs],
            _normalized=True,
        )

    @classmethod
    def from_univariate_rows(
        cls, field: GF, rows: Sequence[Tuple[FieldElement, Polynomial]]
    ) -> "BatchSymmetricBivariate":
        """Batched Lemma-2.1 reconstruction from >= degree+1 consistent rows.

        All x-power coefficient columns are interpolated against one cached
        inverse-Vandermonde matrix; pairwise-inconsistent rows raise
        ValueError exactly like the scalar twin.
        """
        if not rows:
            raise ValueError("need at least one row")
        degree = max(poly.degree for _, poly in rows)
        if len(rows) < degree + 1:
            raise ValueError("need at least degree+1 rows to reconstruct")
        selected = rows[: degree + 1]
        p = field.modulus
        ys = [int(field(alpha)) % p for alpha, _ in selected]
        residue_rows = [poly.residues for _, poly in selected]
        value_rows = [
            [row[k] if k < len(row) else 0 for row in residue_rows]
            for k in range(degree + 1)
        ]
        coeffs = batch_interpolate(field, ys, value_rows)
        for i in range(degree + 1):
            for j in range(i + 1, degree + 1):
                if coeffs[i][j] != coeffs[j][i]:
                    raise ValueError("rows are not pairwise consistent")
        return cls(field, coeffs, _normalized=True)

    # -- conversions -------------------------------------------------------
    def to_scalar(self) -> SymmetricBivariatePolynomial:
        field = self.field
        return SymmetricBivariatePolynomial.trusted(
            field, [[FieldElement(c, field) for c in row] for row in self.coeffs]
        )

    # -- evaluation --------------------------------------------------------
    def evaluate(self, x, y) -> FieldElement:
        p = self.field.modulus
        x_val = int(self.field(x))
        y_val = int(self.field(y))
        total = 0
        for row in reversed(self.coeffs):
            acc = 0
            for coeff in reversed(row):
                acc = (acc * y_val + coeff) % p
            total = (total * x_val + acc) % p
        return FieldElement(total, self.field)

    def row(self, y) -> Polynomial:
        """The univariate restriction F(x, y0) as a polynomial in x."""
        return self.rows_at_all_points([y])[0]

    def rows_at_all_points(self, ys: Sequence) -> List[Polynomial]:
        """All row polynomials F(x, y_k) in one cached-Vandermonde product.

        This is the dealer's whole Phase-I distribution (one row per party)
        computed as ``V(ys) @ C``: one int dot product per coefficient
        instead of a boxed Horner loop per (party, coefficient).
        """
        field = self.field
        v_matrix = vandermonde_matrix(field, ys, self.degree)
        return Polynomial.from_reduced_rows(
            field, mat_rows(field.modulus, self.coeffs, v_matrix)
        )

    def eval_grid(self, xs: Sequence, ys: Sequence) -> List[List[int]]:
        """The full value table ``grid[a][b] = Q(xs[a], ys[b])`` in one shot.

        Computed as ``V(xs) @ C @ V(ys)^T`` against cached Vandermonde
        matrices -- the dealer's pairwise NOK cross-check over all (j, i)
        pairs costs two matrix products instead of n^2 bivariate Horner
        evaluations.
        """
        p = self.field.modulus
        v_xs = vandermonde_matrix(self.field, xs, self.degree)
        v_ys = vandermonde_matrix(self.field, ys, self.degree)
        # half[b][i] = sum_j C[i][j] * ys[b]^j  (C is symmetric).
        half = mat_rows(p, self.coeffs, v_ys)
        return mat_rows(p, half, v_xs)

    def zero_row(self) -> Polynomial:
        """Q(0, y): the dealer's embedded univariate polynomial."""
        return Polynomial.from_reduced_ints(self.field, list(self.coeffs[0]))

    def secret(self) -> FieldElement:
        """F(0, 0), the shared secret."""
        return FieldElement(self.coeffs[0][0], self.field)

    def is_symmetric(self) -> bool:
        return all(
            self.coeffs[i][j] == self.coeffs[j][i]
            for i in range(self.degree + 1)
            for j in range(self.degree + 1)
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BatchSymmetricBivariate):
            return (
                self.field.modulus == other.field.modulus
                and self.coeffs == other.coeffs
            )
        if isinstance(other, SymmetricBivariatePolynomial):
            return (
                self.field.modulus == other.field.modulus
                and self.degree == other.degree
                and self.coeffs
                == [[c.value for c in row] for row in other.coeffs]
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"BatchSymmetricBivariate(degree={self.degree})"

"""Shamir d-sharing utilities (Definition 2.3).

A value s is d-shared when there is a d-degree polynomial f with f(0) = s
and every honest party P_i holds the share f(alpha_i).  These helpers create
and reconstruct such sharings directly; the protocols (VSS, preprocessing,
circuit evaluation) generate them interactively, but unit tests and the
higher layers' local computations rely on this module.

Batch API: :func:`batch_share` encodes many secrets against one cached
Vandermonde matrix (one dot product per share instead of a Horner loop of
boxed FieldElements), :func:`batch_reconstruct` recovers many secrets with
one cached Lagrange row, and :func:`batch_robust_reconstruct` runs
error-corrected reconstruction for a whole batch through
:func:`~repro.codes.reed_solomon.rs_decode_batch`.  The scalar helpers above
them are the reference twins the equivalence tests compare against.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.codes.reed_solomon import rs_decode, rs_decode_batch
from repro.field.array import FieldArray, dot_mod, lagrange_row, vandermonde_matrix
from repro.field.gf import GF, FieldElement
from repro.field.kernels import get_kernel
from repro.field.polynomial import Polynomial, interpolate_at, lagrange_interpolate


class SharedValue:
    """A complete d-sharing of one value: the map party id -> share.

    This is a *global* (test/bench) view; inside a protocol each party only
    holds its own entry.
    """

    def __init__(self, field: GF, degree: int, shares: Dict[int, FieldElement]):
        self.field = field
        self.degree = degree
        self.shares = dict(shares)

    def share_of(self, party_id: int) -> FieldElement:
        return self.shares[party_id]

    def reconstruct(self) -> FieldElement:
        points = [(self.field.alpha(i), share) for i, share in self.shares.items()]
        return interpolate_at(self.field, points[: self.degree + 1], 0)

    def __add__(self, other: "SharedValue") -> "SharedValue":
        return SharedValue(
            self.field,
            max(self.degree, other.degree),
            {i: self.shares[i] + other.shares[i] for i in self.shares},
        )

    def __mul__(self, scalar) -> "SharedValue":
        scalar = self.field(scalar)
        return SharedValue(
            self.field, self.degree, {i: share * scalar for i, share in self.shares.items()}
        )

    __rmul__ = __mul__


def share_polynomial(
    field: GF, polynomial: Polynomial, n: int
) -> Dict[int, FieldElement]:
    """Evaluate a sharing polynomial at every party's alpha point."""
    return {i: polynomial.evaluate(field.alpha(i)) for i in range(1, n + 1)}


def share_secret(
    field: GF,
    secret,
    degree: int,
    n: int,
    rng: Optional[random.Random] = None,
) -> SharedValue:
    """Create a fresh d-sharing of ``secret`` among n parties."""
    polynomial = Polynomial.random(field, degree, constant_term=secret, rng=rng)
    return SharedValue(field, degree, share_polynomial(field, polynomial, n))


def reconstruct_secret(
    field: GF, shares: Dict[int, FieldElement], degree: int
) -> FieldElement:
    """Interpolate the secret from (at least degree+1) correct shares."""
    points = [(field.alpha(i), value) for i, value in shares.items()]
    if len(points) < degree + 1:
        raise ValueError("not enough shares to reconstruct")
    return interpolate_at(field, points[: degree + 1], 0)


def robust_reconstruct(
    field: GF,
    shares: Dict[int, FieldElement],
    degree: int,
    max_faults: int,
) -> Optional[FieldElement]:
    """Error-correcting reconstruction tolerating up to ``max_faults`` bad shares."""
    points = [(field.alpha(i), value) for i, value in shares.items()]
    poly = rs_decode(field, points, degree, max_faults)
    if poly is None:
        return None
    return poly.constant_term()


# -- batch paths ---------------------------------------------------------------


class BatchReconstructionError(ValueError):
    """Raised when a batched robust reconstruction cannot decode some values.

    Carries the indices of the failed values so callers can tell a complete
    failure from a partially corrupted batch.
    """

    def __init__(self, failed_indices: Sequence[int]):
        self.failed_indices = list(failed_indices)
        super().__init__(
            f"batch reconstruction failed for value indices {self.failed_indices}"
        )


def batch_share_at_alphas(
    field: GF,
    value,
    degree: int,
    n: int,
    rng: random.Random,
) -> List[FieldElement]:
    """Shamir-share one value at alpha_1..alpha_n in one cached-matrix product.

    The fast twin of ``Polynomial.random(field, degree, constant_term=value,
    rng=rng)`` followed by n Horner evaluations: the coefficients are drawn
    from ``rng`` in exactly the same order as ``Polynomial.random``, its
    test oracle.
    """
    p = field.modulus
    coeffs = [rng.randrange(p) for _ in range(degree + 1)]
    coeffs[0] = int(field(value))
    alphas = [int(field.alpha(j)) for j in range(1, n + 1)]
    matrix = vandermonde_matrix(field, alphas, degree)
    return [FieldElement(dot_mod(v_row, coeffs, p), field) for v_row in matrix]


def batch_share(
    field: GF,
    secrets: Sequence,
    degree: int,
    n: int,
    rng: Optional[random.Random] = None,
) -> Dict[int, FieldArray]:
    """d-share many secrets at once; returns party id -> its share vector.

    All sharing polynomials are evaluated against one cached Vandermonde
    matrix over alpha_1..alpha_n, so each share costs a single int dot
    product.  ``batch_share(...)[i][k]`` is P_i's share of ``secrets[k]``,
    element-wise equivalent to ``share_secret(field, secrets[k], ...)``
    (up to the sharing polynomials' randomness).
    """
    p = field.modulus
    rng = rng or random
    coeff_rows = [
        [int(secret) % p] + [rng.randrange(p) for _ in range(degree)]
        for secret in secrets
    ]
    alphas = [int(field.alpha(i)) for i in range(1, n + 1)]
    matrix = vandermonde_matrix(field, alphas, degree)
    # product[party][secret] = <coeffs of secret, Vandermonde row of party>;
    # under the numpy kernel this is one limb-decomposed matmul and each
    # party's share vector stays a uint64 row (no per-share boxing).
    product = get_kernel().mat_rows(p, coeff_rows, matrix, native=True)
    shares: Dict[int, FieldArray] = {}
    for party_index in range(1, n + 1):
        shares[party_index] = FieldArray._wrap(field, product[party_index - 1])
    return shares


def batch_reconstruct(
    field: GF,
    shares: Mapping[int, Sequence],
    degree: int,
) -> FieldArray:
    """Reconstruct many secrets with one cached Lagrange row.

    ``shares`` maps party ids to their share vectors (FieldArray or
    sequences of FieldElements/ints), all of equal length; like the scalar
    :func:`reconstruct_secret`, the first ``degree + 1`` parties in mapping
    order are used and every share is assumed correct.  Returns the secrets
    as a :class:`FieldArray` (element-wise equal to the historical list of
    :class:`FieldElement`; iterate or index to box on demand) so the numpy
    kernel's row-times-matrix product never round-trips through boxed
    elements.
    """
    items = list(shares.items())
    if len(items) < degree + 1:
        raise ValueError("not enough shares to reconstruct")
    items = items[: degree + 1]
    lengths = {len(vector) for _, vector in items}
    if len(lengths) > 1:
        raise ValueError("all parties must contribute equally long share vectors")
    p = field.modulus
    alphas = [int(field.alpha(i)) for i, _ in items]
    row = lagrange_row(field, alphas, 0)
    kernel = get_kernel()
    vectors = [
        vector.native if isinstance(vector, FieldArray) else kernel.normalize(p, vector)
        for _, vector in items
    ]
    return FieldArray._wrap(field, kernel.rowmat(p, list(row), vectors))


def batch_robust_reconstruct(
    field: GF,
    shares: Mapping[int, Sequence],
    degree: int,
    max_faults: int,
) -> FieldArray:
    """Error-corrected batch reconstruction; loud on failure.

    Tolerates up to ``max_faults`` corrupted parties (each possibly garbling
    its whole share vector).  Unlike the scalar :func:`robust_reconstruct`,
    which returns None per value, a batch that cannot be fully decoded
    raises :class:`BatchReconstructionError` naming the failed indices --
    silent partial output would let a caller keep computing on garbage.
    Returns a :class:`FieldArray` of the recovered secrets (element-wise
    equal to the historical list of :class:`FieldElement`).
    """
    items = list(shares.items())
    if not items:
        raise BatchReconstructionError([])
    lengths = {len(vector) for _, vector in items}
    if len(lengths) > 1:
        raise ValueError("all parties must contribute equally long share vectors")
    p = field.modulus
    alphas = [int(field.alpha(i)) for i, _ in items]
    kernel = get_kernel()
    vectors = [
        vector.native if isinstance(vector, FieldArray) else kernel.normalize(p, vector)
        for _, vector in items
    ]
    rows = kernel.transpose(p, vectors)
    decoded = rs_decode_batch(field, alphas, rows, degree, max_faults)
    failed = [index for index, poly in enumerate(decoded) if poly is None]
    if failed:
        raise BatchReconstructionError(failed)
    return FieldArray(
        field,
        [poly.constant_residue() for poly in decoded],  # type: ignore[union-attr]
        _normalized=True,
    )

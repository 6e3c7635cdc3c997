"""Finite-field algebra substrate.

Provides the prime field GF(p), univariate polynomials with Lagrange
interpolation, and symmetric bivariate polynomials -- the algebraic
objects used by every protocol in the paper (Section 2, "Polynomials
Over a Field").

One protocol path, primitive-level oracles
------------------------------------------

Protocol modules compute over plain int residues and nothing else:
:class:`~repro.field.array.FieldArray` for element-wise vectors, cached
Lagrange/Vandermonde coefficient matrices (keyed by the interned ``GF``
identity and the evaluation-point tuple, so the fixed protocol point sets
-- party alphas, beta extraction points -- are paid for once), and
:class:`~repro.field.bivariate.BatchSymmetricBivariate` for the WPS/VSS
dealer's bivariate embedding, whose row distribution and pairwise
consistency grid are single cached-Vandermonde matrix products.  There is
no switch and no second implementation inside protocol code.

The boxed :class:`FieldElement` / :class:`Polynomial` /
:class:`SymmetricBivariatePolynomial` primitives (and
``rs_decode`` / ``OnlineErrorCorrector`` in :mod:`repro.codes`) are the
readable, paper-faithful definitions of correct behaviour.  They stay,
untouched, as *test oracles*: ``tests/test_field_array.py``,
``tests/test_bivariate_batch.py`` and ``tests/test_codes.py`` check every
batched primitive against them element-wise and property-based, including
that primitives which draw randomness (e.g.
``BatchSymmetricBivariate.random_embedding``) consume the caller's ``rng``
in exactly the oracle's order.  Whole-protocol transcripts are pinned by
the golden digests in ``tests/golden/transcript_digests.json``, recorded
from the boxed scalar protocol path before it was deleted.

The residue arithmetic underneath is one set of plain functions over lists
of Python ints (:mod:`repro.field.kernels`), with no second backend and no
size-based dispatch: the protocols apply matrices of about n x n to vectors
of tens of residues, where array libraries buy nothing and cost an import.
"""

from repro.field.gf import GF, FieldElement, DEFAULT_PRIME, default_field
from repro.field.polynomial import Polynomial, lagrange_interpolate, lagrange_coefficients
from repro.field.bivariate import BatchSymmetricBivariate, SymmetricBivariatePolynomial
from repro.field.array import (
    FieldArray,
    batch_evaluate,
    batch_interpolate,
    batch_interpolate_at,
    batch_inverse,
    inverse_vandermonde,
    lagrange_matrix,
    lagrange_row,
    vandermonde_matrix,
)

__all__ = [
    "GF",
    "FieldElement",
    "DEFAULT_PRIME",
    "default_field",
    "Polynomial",
    "lagrange_interpolate",
    "lagrange_coefficients",
    "SymmetricBivariatePolynomial",
    "BatchSymmetricBivariate",
    "FieldArray",
    "batch_evaluate",
    "batch_interpolate",
    "batch_interpolate_at",
    "batch_inverse",
    "inverse_vandermonde",
    "lagrange_matrix",
    "lagrange_row",
    "vandermonde_matrix",
]

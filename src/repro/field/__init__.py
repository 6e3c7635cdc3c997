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

The residue arithmetic itself is pluggable (:mod:`repro.field.kernels`):
the ``"int"`` kernel is the pure-Python reference, the ``"numpy"`` kernel
stores GF(2**61 - 1) residues in uint64 arrays and turns the cached-matrix
applications into limb-decomposed matmuls.  Kernels are *exact* --
identical residues for identical inputs, no randomness -- so selecting one
(``set_kernel_backend`` / ``REPRO_FIELD_KERNEL`` / pytest
``--field-kernel``) can never change a transcript;
``tests/test_kernel_equivalence.py`` enforces it.
"""

from repro.field.gf import GF, FieldElement, DEFAULT_PRIME, default_field
from repro.field.kernels import (
    available_kernel_backends,
    get_kernel,
    kernel_name,
    numpy_available,
    set_kernel_backend,
)
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
    "available_kernel_backends",
    "batch_evaluate",
    "batch_interpolate",
    "batch_interpolate_at",
    "batch_inverse",
    "get_kernel",
    "inverse_vandermonde",
    "kernel_name",
    "lagrange_matrix",
    "lagrange_row",
    "numpy_available",
    "set_kernel_backend",
    "vandermonde_matrix",
]

"""Reed-Solomon error correction over GF(p) via the Berlekamp-Welch algorithm.

OEC (Appendix A of the paper) repeatedly applies "the RS error-correction
procedure" to a growing set of points, trying to recover a d-degree
polynomial in the presence of up to ``max_errors`` corrupted points.  We
implement Berlekamp-Welch, which solves the problem whenever

    number_of_points >= d + 2 * actual_errors + 1.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.field.array import inverse_vandermonde, lagrange_matrix
from repro.field.gf import GF, FieldElement
from repro.field.kernels import mat_rows, mismatch_counts, mul, normalize, sub
from repro.field.polynomial import Polynomial


def _solve_linear_system(
    field: GF, matrix: List[List[int]], rhs: List[int]
) -> Optional[List[int]]:
    """Gaussian elimination over GF(p) on int residues.

    Returns one solution of ``matrix @ x = rhs`` (free variables set to 0),
    or None if the system is inconsistent.  Rows live as plain residue
    vectors and the row eliminations are element-wise list ops -- no
    FieldElement boxing, which used to dominate the decode fallback.  Pivot
    selection (first nonzero entry, column order) is unchanged, so the
    solutions are bit-identical to the boxed original.
    """
    p = field.modulus
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [list(matrix[r]) + [rhs[r]] for r in range(rows)]
    pivot_cols: List[int] = []
    row = 0
    for col in range(cols):
        pivot_row = None
        for candidate in range(row, rows):
            if aug[candidate][col] != 0:
                pivot_row = candidate
                break
        if pivot_row is None:
            continue
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        inv = pow(aug[row][col], p - 2, p)
        aug[row] = mul(p, aug[row], inv)
        for other in range(rows):
            if other != row and aug[other][col] != 0:
                factor = aug[other][col]
                aug[other] = sub(p, aug[other], mul(p, aug[row], factor))
        pivot_cols.append(col)
        row += 1
        if row == rows:
            break
    # Inconsistent if a zero row has non-zero rhs.
    for r in range(row, rows):
        if all(aug[r][c] == 0 for c in range(cols)) and aug[r][cols] != 0:
            return None
    solution = [0] * cols
    for r, col in enumerate(pivot_cols):
        solution[col] = aug[r][cols]
    return solution


def rs_interpolate_with_errors(
    field: GF,
    points: Sequence[Tuple],
    degree: int,
    max_errors: int,
) -> Optional[Polynomial]:
    """Berlekamp-Welch decoding.

    Given points (x_i, y_i) of which at most ``max_errors`` have a corrupted
    y_i, return the unique polynomial of degree <= ``degree`` consistent with
    the rest, or None if decoding fails (too many errors / not enough points).
    """
    xs = [field(x) for x, _ in points]
    ys = [field(y) for _, y in points]
    n_points = len(points)
    if n_points < degree + 1:
        return None

    for errors in range(max_errors, -1, -1):
        if n_points < degree + 2 * errors + 1:
            continue
        poly = _berlekamp_welch(field, xs, ys, degree, errors)
        if poly is None:
            continue
        # Verify the error bound actually holds for the decoded polynomial.
        mismatches = sum(1 for x, y in zip(xs, ys) if poly.eval_int(x) != y.value)
        if mismatches <= max_errors:
            return poly
    return None


def _berlekamp_welch(
    field: GF,
    xs: List[FieldElement],
    ys: List[FieldElement],
    degree: int,
    errors: int,
) -> Optional[Polynomial]:
    """Solve for E(x) (monic, degree ``errors``) and Q(x) with Q = f * E."""
    p = field.modulus
    q_degree = degree + errors
    # Unknowns: q_0..q_{q_degree}, e_0..e_{errors-1}  (E is monic of degree ``errors``).
    matrix: List[List[int]] = []
    rhs: List[int] = []
    for x, y in zip(xs, ys):
        xi, yi = int(x), int(y)
        row = []
        x_pow = 1
        for _ in range(q_degree + 1):
            row.append(x_pow)
            x_pow = x_pow * xi % p
        x_pow = 1
        for _ in range(errors):
            row.append(-(yi * x_pow) % p)
            x_pow = x_pow * xi % p
        matrix.append(row)
        # Monic leading term of E moves to the right-hand side.
        rhs.append(yi * pow(xi, errors, p) % p)
    solution = _solve_linear_system(field, matrix, rhs)
    if solution is None:
        return None
    q_coeffs = solution[: q_degree + 1]
    e_coeffs = solution[q_degree + 1 :] + [1]
    q_poly = Polynomial.from_reduced_ints(field, q_coeffs)
    e_poly = Polynomial.from_reduced_ints(field, e_coeffs)
    if e_poly.is_zero():
        return None
    quotient, remainder = q_poly.divmod(e_poly)
    if not remainder.is_zero():
        return None
    if quotient.degree > degree:
        return None
    return quotient


def rs_decode(
    field: GF,
    points: Sequence[Tuple],
    degree: int,
    max_errors: int,
) -> Optional[Polynomial]:
    """Decode and additionally require at least degree + max_errors + 1 agreeing points.

    This is the acceptance condition the OEC procedure uses: the decoded
    polynomial must agree with at least d + t + 1 of the received points,
    which guarantees that at least d + 1 honest points lie on it.
    """
    poly = rs_interpolate_with_errors(field, points, degree, max_errors)
    if poly is None:
        return None
    agreeing = sum(1 for x, y in points if poly.eval_int(x) == int(field(y)))
    if agreeing < degree + max_errors + 1:
        return None
    return poly


def rs_decode_batch(
    field: GF,
    xs: Sequence,
    rows: Sequence[Sequence],
    degree: int,
    max_errors: int,
) -> List[Optional[Polynomial]]:
    """Decode many codewords that share the same evaluation points.

    ``rows[k]`` holds the received values of codeword k over ``xs`` (ints
    or FieldElements).  Fast path: the candidate polynomial through the
    first ``degree + 1`` points is computed for *all* rows at once against
    one cached Lagrange matrix (a single matrix product plus a mismatch
    count, no Gaussian elimination) and accepted per row iff it meets
    exactly the :func:`rs_decode` acceptance condition --
    at most ``max_errors`` mismatches and at least
    ``degree + max_errors + 1`` agreeing points.  Rows whose leading points
    are corrupted fall back to the scalar Berlekamp-Welch reference path --
    but a batch typically shares one corruption pattern (the same corrupt
    senders garble every value), so the agreeing positions found by the
    first Berlekamp-Welch solve become a second candidate window that
    usually absorbs the rest of the batch without further Gaussian
    elimination.  Every acceptance re-verifies the scalar condition, so the
    batch decoder returns element-wise the same polynomials as per-row
    :func:`rs_decode` whenever the protocol's uniqueness condition (at least
    ``degree + 1`` honest agreeing points) holds.
    """
    p = field.modulus
    xs_int = tuple(int(x) % p for x in xs)
    results: List[Optional[Polynomial]] = [None] * len(rows)
    n_points = len(xs_int)
    if n_points < degree + 1:
        return results

    # Batched base-window candidate pass: every row shares the same window,
    # so prediction and coefficient extraction are two matrix products
    # against cached matrices.  The candidate interpolates its window
    # points *exactly*, so mismatches can only occur at the complement
    # positions -- prediction runs against the ``n - (degree + 1)``
    # non-window columns only, shrinking the dominant product by a factor
    # of ``n / 2 * max_errors``-ish.
    matrix = [normalize(p, row) for row in rows]
    heads = [row[: degree + 1] for row in matrix]
    base_xs = xs_int[: degree + 1]
    if n_points > degree + 1:
        eval_matrix = lagrange_matrix(field, base_xs, xs_int[degree + 1:])
        predicted = mat_rows(p, eval_matrix, heads)
        mismatch = mismatch_counts(predicted, (row[degree + 1:] for row in matrix))
    else:
        mismatch = [0] * len(rows)
    accepted = [
        index
        for index, count in enumerate(mismatch)
        if count <= max_errors and n_points - count >= degree + max_errors + 1
    ]
    if accepted:
        coeff_matrix = inverse_vandermonde(field, base_xs)
        coeff_rows = mat_rows(p, coeff_matrix, [heads[index] for index in accepted])
        for index, poly in zip(accepted, Polynomial.from_reduced_rows(field, coeff_rows)):
            results[index] = poly
    if len(accepted) == len(results):
        return results

    def apply_window_batched(window: Tuple[int, ...], pending: List[int]) -> None:
        """Try one learned window against every still-undecoded row at once.

        The same two cached matrix products as the base-window pass, just
        restricted to ``pending`` rows -- column-batched instead of the
        historical per-row scalar dot products.  Acceptance re-verifies the
        exact :func:`rs_decode` condition per row, so accepted rows match
        what the scalar path would return.
        """
        window_xs = tuple(xs_int[i] for i in window)
        window_set = set(window)
        win_complement = tuple(
            i for i in range(n_points) if i not in window_set
        )
        sub_rows = [matrix[index] for index in pending]
        sub_heads = [[row[i] for i in window] for row in sub_rows]
        if win_complement:
            comp_xs = tuple(xs_int[i] for i in win_complement)
            window_eval = lagrange_matrix(field, window_xs, comp_xs)
            sub_predicted = mat_rows(p, window_eval, sub_heads)
            sub_tail = ([row[i] for i in win_complement] for row in sub_rows)
            sub_mismatch = mismatch_counts(sub_predicted, sub_tail)
        else:
            sub_mismatch = [0] * len(pending)
        hits = [
            k
            for k, count in enumerate(sub_mismatch)
            if count <= max_errors and n_points - count >= degree + max_errors + 1
        ]
        if not hits:
            return
        window_coeff = inverse_vandermonde(field, window_xs)
        hit_coeffs = mat_rows(p, window_coeff, [sub_heads[k] for k in hits])
        for k, poly in zip(hits, Polynomial.from_reduced_rows(field, hit_coeffs)):
            results[pending[k]] = poly

    undecided = [index for index in range(len(results)) if results[index] is None]
    cursor = 0
    while cursor < len(undecided):
        index = undecided[cursor]
        cursor += 1
        if results[index] is not None:
            continue
        values = matrix[index]
        poly = rs_decode(field, list(zip(xs_int, values)), degree, max_errors)
        results[index] = poly
        if poly is None:
            continue
        agreeing = [
            i
            for i, (x, v) in enumerate(zip(xs_int, values))
            if poly.eval_int(x) == v
        ]
        if len(agreeing) >= degree + 1:
            pending = [k for k in undecided[cursor:] if results[k] is None]
            if pending:
                apply_window_batched(tuple(agreeing[: degree + 1]), pending)
    return results

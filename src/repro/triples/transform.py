"""ΠTripTrans: triple transformation (Fig 7 / Lemma 6.2).

Turns 2d+1 independent t_s-shared triples into 2d+1 *correlated* shared
triples lying on polynomials X(.), Y(.) (degree d) and Z(.) (degree 2d) with
X(alpha_i) = x(i), Y(alpha_i) = y(i), Z(alpha_i) = z(i): the first d+1
triples define X and Y, the remaining d products are recomputed with
Beaver's protocol using the remaining d input triples.  Z = X*Y holds iff
every input triple is a multiplication triple.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.field.array import dot_mod, lagrange_matrix, lagrange_row
from repro.field.gf import GF, FieldElement
from repro.field.kernels import get_kernel
from repro.sim.party import Party, ProtocolInstance
from repro.triples.beaver import BeaverMultiplication

#: This party's shares of one input triple (x, y, z).
TripleShares = Tuple[FieldElement, FieldElement, FieldElement]


def transformed_points(field: GF, count: int) -> List[FieldElement]:
    """The public evaluation points alpha_1..alpha_count used by ΠTripTrans."""
    return [field.alpha(i) for i in range(1, count + 1)]


def extend_shares(
    field: GF, shares: Sequence[FieldElement], degree: int, at: FieldElement
) -> FieldElement:
    """Locally evaluate the degree-``degree`` share polynomial at a new point.

    ``shares[i]`` is this party's share of the value at alpha_{i+1}; the
    Lagrange linear function of the first degree+1 of them yields this
    party's share of the value at ``at``.  The coefficient row is memoized on
    ``(field, alphas, at)`` (see :func:`repro.field.array.lagrange_row`), so
    repeated extensions -- every party extends at the same public points --
    cost one int dot product each.
    """
    alphas = [field.alpha(i) for i in range(1, degree + 2)]
    row = lagrange_row(field, alphas, int(field(at)))
    total = dot_mod(row, [int(s) for s in shares[: degree + 1]], field.modulus)
    return FieldElement(total, field)


def extend_shares_batch(
    field: GF,
    share_rows: Sequence[Sequence[FieldElement]],
    degree: int,
    ats: Sequence[FieldElement],
) -> List[List[FieldElement]]:
    """Evaluate many share polynomials at many new points with one matrix.

    ``share_rows[r][i]`` is this party's share of value r at alpha_{i+1};
    the result's entry [r][j] is its share of value r at ``ats[j]``.
    Element-wise equivalent to nested :func:`extend_shares` calls.
    """
    alphas = [field.alpha(i) for i in range(1, degree + 2)]
    matrix = lagrange_matrix(field, alphas, [int(field(at)) for at in ats])
    p = field.modulus
    heads = [[int(s) for s in shares[: degree + 1]] for shares in share_rows]
    table = get_kernel().mat_rows(p, matrix, heads)
    return [[FieldElement(v, field) for v in row] for row in table]


class TripleTransformation(ProtocolInstance):
    """One ΠTripTrans instance over 2d+1 shared triples.

    The output is the list of 2d+1 transformed triple shares
    [(x(1), y(1), z(1)), ..., (x(2d+1), y(2d+1), z(2d+1))] held by this party.
    """

    def __init__(
        self,
        party: Party,
        tag: str,
        ts: int,
        d: int,
        triples: Optional[Sequence[TripleShares]] = None,
    ):
        super().__init__(party, tag)
        self.ts = ts
        self.d = d
        self.triples = list(triples) if triples is not None else None
        self._started = False
        self._beaver: Optional[BeaverMultiplication] = None

    def provide_input(self, triples: Sequence[TripleShares]) -> None:
        self.triples = list(triples)
        if self._started:
            self._begin()

    def start(self) -> None:
        self._started = True
        if self.triples is not None:
            self._begin()

    def _begin(self) -> None:
        if self._beaver is not None or self.triples is None:
            return
        if len(self.triples) != 2 * self.d + 1:
            raise ValueError("ΠTripTrans needs exactly 2d+1 input triples")
        d = self.d
        # The first d+1 triples define X(.) and Y(.) directly.
        self._x_shares = [triple[0] for triple in self.triples[: d + 1]]
        self._y_shares = [triple[1] for triple in self.triples[: d + 1]]
        self._z_head = [triple[2] for triple in self.triples[: d + 1]]
        # New points x(i), y(i) for i = d+2 .. 2d+1 are local Lagrange evaluations.
        jobs = []
        self._x_tail: List[FieldElement] = []
        self._y_tail: List[FieldElement] = []
        for i in range(d + 2, 2 * d + 2):
            at = self.field.alpha(i)
            x_share = extend_shares(self.field, self._x_shares, d, at)
            y_share = extend_shares(self.field, self._y_shares, d, at)
            self._x_tail.append(x_share)
            self._y_tail.append(y_share)
            a_share, b_share, c_share = self.triples[i - 1]
            jobs.append((x_share, y_share, a_share, b_share, c_share))
        if not jobs:
            self._finish([])
            return
        self._beaver = self.spawn(BeaverMultiplication, "beaver", ts=self.ts, jobs=jobs)
        self._beaver.on_output(self._finish)
        self._beaver.start()

    def _finish(self, z_tail: List[FieldElement]) -> None:
        outputs: List[TripleShares] = []
        for i in range(self.d + 1):
            outputs.append((self._x_shares[i], self._y_shares[i], self._z_head[i]))
        for offset, z_share in enumerate(z_tail):
            outputs.append((self._x_tail[offset], self._y_tail[offset], z_share))
        self.set_output(outputs)

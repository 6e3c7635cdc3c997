"""ΠTripTrans: triple transformation (Fig 7 / Lemma 6.2).

Turns 2d+1 independent t_s-shared triples into 2d+1 *correlated* shared
triples lying on polynomials X(.), Y(.) (degree d) and Z(.) (degree 2d) with
X(alpha_i) = x(i), Y(alpha_i) = y(i), Z(alpha_i) = z(i): the first d+1
triples define X and Y, the remaining d products are recomputed with
Beaver's protocol using the remaining d input triples.  Z = X*Y holds iff
every input triple is a multiplication triple.

ΠTripSh (Fig 8) and ΠTripExt (Fig 9) run L transformations in parallel, one
per group of 2d+1 triples.  One instance here takes all L groups: their L·d
products are the jobs of one ΠBeaver, whose masks are opened in one public
reconstruction.  Every group is transformed on its own polynomials and
opens the values its own instance would, so Lemma 6.2 holds group by group.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.field.array import lagrange_matrix, lagrange_row
from repro.field.gf import GF, FieldElement
from repro.field.kernels import dot, mat_rows
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
    total = dot(field.modulus, row, [int(s) for s in shares[: degree + 1]])
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
    table = mat_rows(p, matrix, heads)
    return [[FieldElement(v, field) for v in row] for row in table]


class TripleTransformation(ProtocolInstance):
    """ΠTripTrans over ``groups``, each a list of 2d+1 shared triples.

    The output has one entry per group: the 2d+1 transformed triple shares
    [(x(1), y(1), z(1)), ..., (x(2d+1), y(2d+1), z(2d+1))] this party holds.
    The groups' d recomputed products each run as jobs of one ΠBeaver, so all
    groups open their masks in one public reconstruction.
    """

    def __init__(
        self, party: Party, tag: str, ts: int, d: int, groups: Sequence[Sequence[TripleShares]]
    ):
        super().__init__(party, tag)
        self.ts = ts
        self.d = d
        self.groups = [list(group) for group in groups]

    def start(self) -> None:
        d = self.d
        if any(len(group) != 2 * d + 1 for group in self.groups):
            raise ValueError("ΠTripTrans needs exactly 2d+1 input triples per group")
        # The first d+1 triples define X(.) and Y(.) directly; the new points
        # x(i), y(i) for i = d+2 .. 2d+1 are local Lagrange evaluations.
        heads = [[triple[c] for triple in group[: d + 1]] for group in self.groups for c in (0, 1)]
        ats = [self.field.alpha(i) for i in range(d + 2, 2 * d + 2)]
        self._tails = extend_shares_batch(self.field, heads, d, ats) if ats else [[]] * len(heads)
        jobs = []
        for k, group in enumerate(self.groups):
            x_tail, y_tail = self._tails[2 * k], self._tails[2 * k + 1]
            jobs += [(x, y) + tuple(triple) for x, y, triple in zip(x_tail, y_tail, group[d + 1:])]
        if not jobs:
            self._finish([])
            return
        beaver = self.spawn(BeaverMultiplication, "beaver", ts=self.ts, jobs=jobs)
        beaver.on_output(self._finish)
        beaver.start()

    def _finish(self, z_tail: List[FieldElement]) -> None:
        d = self.d
        outputs: List[List[TripleShares]] = []
        for k, group in enumerate(self.groups):
            tail = zip(self._tails[2 * k], self._tails[2 * k + 1], z_tail[k * d : (k + 1) * d])
            outputs.append([tuple(triple) for triple in group[: d + 1]] + list(tail))
        self.set_output(outputs)

"""ΠTripSh: verifiable sharing of multiplication triples (Fig 8 / Lemma 6.3).

A dealer D t_s-shares L·(2t_s+1) random multiplication triples through one
ΠVSS instance; in parallel every party shares L random *verification
triples* through ΠACS.  The dealer's triples are transformed with ΠTripTrans
into points on polynomial triplets (X, Y, Z); each point is then verified
under the supervision of one party of the agreed subset W using Beaver's
protocol with that party's verification triple.  If every check passes
(or every suspected point turns out to be a multiplication triple), the
parties output the shares of L fresh points (X(beta), Y(beta), Z(beta)) --
multiplication triples shared on D's behalf that the adversary knows nothing
about; otherwise D is discarded and a default (0, 0, 0) sharing is output.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.acs.acs import AgreementOnCommonSubset, acs_time_bound
from repro.field.gf import GF, FieldElement
from repro.field.polynomial import Polynomial
from repro.sharing.vss import VerifiableSecretSharing
from repro.sim.party import Party, ProtocolInstance
from repro.timing import epsilon
from repro.triples.beaver import BeaverMultiplication
from repro.triples.reconstruction import PublicReconstruction
from repro.triples.transform import (
    TripleTransformation,
    TripleShares,
    extend_shares_batch,
)


def triple_sharing_time_bound(n: int, ts: int, delta: float) -> float:
    """T_TripSh = T_ACS + 4Δ (nominal, for composition anchors)."""
    return acs_time_bound(n, ts, delta) + 4.0 * delta + 8 * epsilon(delta)


def random_multiplication_triple(field: GF, rng: random.Random) -> Tuple:
    """A uniformly random triple (a, b, a*b)."""
    a = field.random(rng)
    b = field.random(rng)
    return a, b, a * b


def triple_polynomials(
    field: GF, ts: int, triples: Sequence[Tuple], rng: random.Random
) -> List[Polynomial]:
    """Degree-t_s sharing polynomials for a list of triples, flattened."""
    polynomials: List[Polynomial] = []
    for a, b, c in triples:
        polynomials.append(Polynomial.random(field, ts, constant_term=a, rng=rng))
        polynomials.append(Polynomial.random(field, ts, constant_term=b, rng=rng))
        polynomials.append(Polynomial.random(field, ts, constant_term=c, rng=rng))
    return polynomials


class TripleSharing(ProtocolInstance):
    """One ΠTripSh instance with a designated dealer.

    The output is a list of L triple shares [(a, b, c), ...] held by this
    party, t_s-shared on behalf of the dealer.  For an honest dealer they
    are random multiplication triples unknown to the adversary; for a
    corrupt dealer they are either multiplication triples or the default
    (0, 0, 0).
    """

    def __init__(
        self,
        party: Party,
        tag: str,
        dealer: int,
        ts: int,
        ta: int,
        num_triples: int = 1,
        anchor: Optional[float] = None,
        delta: Optional[float] = None,
        dealer_triples: Optional[Sequence[Tuple]] = None,
    ):
        super().__init__(party, tag)
        self.dealer = dealer
        self.ts = ts
        self.ta = ta
        self.num_triples = num_triples
        self.anchor = anchor
        self.delta = delta if delta is not None else party.delta
        self._dealer_triples = list(dealer_triples) if dealer_triples is not None else None

        self._vss: Optional[VerifiableSecretSharing] = None
        self._acs: Optional[AgreementOnCommonSubset] = None
        self._vss_shares: Optional[List[FieldElement]] = None
        self._acs_result: Optional[Tuple[List[int], Dict[int, List[FieldElement]]]] = None
        self._transformations: Dict[int, TripleTransformation] = {}
        self._transformed: Dict[int, List[TripleShares]] = {}
        self._extended: Dict[int, List[TripleShares]] = {}
        self._beaver: Optional[BeaverMultiplication] = None
        self._beaver_jobs_index: List[Tuple[int, int]] = []
        self._gamma_recon: Optional[PublicReconstruction] = None
        self._suspect_recon: Optional[PublicReconstruction] = None
        self._suspects: List[Tuple[int, int]] = []

    # -- constants --------------------------------------------------------------
    @property
    def _per_triple_polys(self) -> int:
        return 3 * (2 * self.ts + 1)

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        if self.anchor is None:
            self.anchor = self.now
        # Dealer input: L * (2ts+1) random multiplication triples.
        dealer_polynomials = None
        if self.me == self.dealer:
            if self._dealer_triples is None:
                self._dealer_triples = [
                    random_multiplication_triple(self.field, self.rng)
                    for _ in range(self.num_triples * (2 * self.ts + 1))
                ]
            dealer_polynomials = triple_polynomials(
                self.field, self.ts, self._dealer_triples, self.rng
            )
        self._vss = self.spawn(
            VerifiableSecretSharing,
            "vss",
            dealer=self.dealer,
            ts=self.ts,
            ta=self.ta,
            num_polynomials=self.num_triples * self._per_triple_polys,
            polynomials=dealer_polynomials,
            anchor=self.anchor,
            delta=self.delta,
        )
        self._vss.on_output(self._record_vss)

        # Verification triples shared through ΠACS (every party is a dealer).
        my_verification = [
            random_multiplication_triple(self.field, self.rng) for _ in range(self.num_triples)
        ]
        verification_polynomials = triple_polynomials(self.field, self.ts, my_verification, self.rng)
        self._acs = self.spawn(
            AgreementOnCommonSubset,
            "acs",
            ts=self.ts,
            ta=self.ta,
            num_polynomials=3 * self.num_triples,
            polynomials=verification_polynomials,
            anchor=self.anchor,
            delta=self.delta,
        )
        self._acs.on_output(self._record_acs)
        self._vss.start()
        self._acs.start()

    def _record_vss(self, shares: List[FieldElement]) -> None:
        self._vss_shares = shares
        self._maybe_transform()

    def _record_acs(self, result: Any) -> None:
        self._acs_result = result
        self._maybe_transform()

    # -- Phase II: transform the dealer's triples --------------------------------------
    def _maybe_transform(self) -> None:
        if self._vss_shares is None or self._acs_result is None or self._transformations:
            return
        per_triple = 2 * self.ts + 1
        for index in range(self.num_triples):
            triples: List[TripleShares] = []
            base = index * per_triple * 3
            for j in range(per_triple):
                x_share = self._vss_shares[base + 3 * j]
                y_share = self._vss_shares[base + 3 * j + 1]
                z_share = self._vss_shares[base + 3 * j + 2]
                triples.append((x_share, y_share, z_share))
            transformation = self.spawn(
                TripleTransformation, f"trans[{index}]", ts=self.ts, d=self.ts, triples=triples
            )
            self._transformations[index] = transformation
            transformation.on_output(lambda out, index=index: self._record_transformed(index, out))
            transformation.start()

    def _record_transformed(self, index: int, transformed: List[TripleShares]) -> None:
        self._transformed[index] = transformed
        if len(self._transformed) == self.num_triples:
            self._verify()

    # -- Phase III: supervised verification ----------------------------------------------
    def _share_rows(self) -> Tuple[List[List[FieldElement]], List[List[FieldElement]]]:
        """Per-index (x|y interleaved, z) share rows of the transformed triples."""
        xy_rows: List[List[FieldElement]] = []
        z_rows: List[List[FieldElement]] = []
        for index in range(self.num_triples):
            transformed = self._transformed[index]
            xy_rows.append([t[0] for t in transformed])
            xy_rows.append([t[1] for t in transformed])
            z_rows.append([t[2] for t in transformed])
        return xy_rows, z_rows

    def _extend_all(self) -> None:
        """Extend every index's transformed shares to points alpha_1..alpha_n.

        One cached Lagrange matrix per degree evaluates every new point of
        every triple at once (element-wise identical to per-point
        :func:`extend_shares` calls).
        """
        ats = [self.field.alpha(j) for j in range(2 * self.ts + 2, self.n + 1)]
        xy_rows, z_rows = self._share_rows()
        xy_ext = (
            extend_shares_batch(self.field, xy_rows, self.ts, ats) if ats else None
        )
        z_ext = (
            extend_shares_batch(self.field, z_rows, 2 * self.ts, ats) if ats else None
        )
        for index in range(self.num_triples):
            extended: List[TripleShares] = list(self._transformed[index])
            for position in range(len(ats)):
                extended.append(
                    (
                        xy_ext[2 * index][position],
                        xy_ext[2 * index + 1][position],
                        z_ext[index][position],
                    )
                )
            self._extended[index] = extended

    def _verify(self) -> None:
        assert self._acs_result is not None
        subset, verification_shares = self._acs_result
        jobs = []
        self._beaver_jobs_index = []
        self._extend_all()
        for index in range(self.num_triples):
            for j in subset:
                x_share, y_share, _z_share = self._extended[index][j - 1]
                u_share = verification_shares[j][3 * index]
                v_share = verification_shares[j][3 * index + 1]
                w_share = verification_shares[j][3 * index + 2]
                jobs.append((x_share, y_share, u_share, v_share, w_share))
                self._beaver_jobs_index.append((index, j))
        self._beaver = self.spawn(BeaverMultiplication, "verify", ts=self.ts, jobs=jobs)
        self._beaver.on_output(self._reconstruct_gammas)
        self._beaver.start()

    def _reconstruct_gammas(self, recomputed: List[FieldElement]) -> None:
        gamma_shares = []
        for position, (index, j) in enumerate(self._beaver_jobs_index):
            z_share = self._extended[index][j - 1][2]
            gamma_shares.append(recomputed[position] - z_share)
        self._gamma_recon = self.spawn(
            PublicReconstruction, "gamma", degree=self.ts, faults=self.ts, shares=gamma_shares
        )
        self._gamma_recon.on_output(self._check_gammas)
        self._gamma_recon.start()

    def _check_gammas(self, gammas: List[FieldElement]) -> None:
        self._suspects = [
            self._beaver_jobs_index[pos]
            for pos, gamma in enumerate(gammas)
            if gamma.value != 0
        ]
        if not self._suspects:
            self._finish(discard=False)
            return
        suspect_shares: List[FieldElement] = []
        for index, j in self._suspects:
            x_share, y_share, z_share = self._extended[index][j - 1]
            suspect_shares.extend([x_share, y_share, z_share])
        self._suspect_recon = self.spawn(
            PublicReconstruction, "suspect", degree=self.ts, faults=self.ts, shares=suspect_shares
        )
        self._suspect_recon.on_output(self._check_suspects)
        self._suspect_recon.start()

    def _check_suspects(self, values: List[FieldElement]) -> None:
        discard = False
        for position in range(len(self._suspects)):
            x_value = values[3 * position]
            y_value = values[3 * position + 1]
            z_value = values[3 * position + 2]
            if x_value * y_value != z_value:
                discard = True
                break
        self._finish(discard=discard)

    # -- output ------------------------------------------------------------------------------
    def _finish(self, discard: bool) -> None:
        if self.has_output:
            return
        if discard:
            zero = self.field.zero()
            self.set_output([(zero, zero, zero) for _ in range(self.num_triples)])
            return
        beta = self.field.beta(1)
        xy_rows, z_rows = self._share_rows()
        xy_out = extend_shares_batch(self.field, xy_rows, self.ts, [beta])
        z_out = extend_shares_batch(self.field, z_rows, 2 * self.ts, [beta])
        outputs: List[TripleShares] = [
            (xy_out[2 * index][0], xy_out[2 * index + 1][0], z_out[index][0])
            for index in range(self.num_triples)
        ]
        self.set_output(outputs)

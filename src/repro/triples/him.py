"""HIM offline phase: batch randomness extraction + triple refinement.

The per-dealer ΠTripSh pipeline pays O(n) full VSS instances (each with its
own supervised Beaver verification) per batch of n-t_s triples.  This module
implements the hyper-invertible-matrix alternative, wired as
``Preprocessing(mode="him")`` / ``run_mpc(offline="him")``:

1. **Share** -- every party acts as a dealer in *one* ΠACS,
   contributing per slot two unverified multiplication triples -- a
   candidate (a, b, c) and a sacrifice (u, v, w) -- plus one random
   extraction input r (:data:`POLYNOMIALS_PER_SLOT` degree-t_s polynomials
   per slot).  The ACS fixes a common subset CS of n - t_s dealers whose
   sharings every honest party (eventually) holds.
2. **Extract challenges** -- the cached hyper-invertible matrix
   (:func:`repro.field.array.him_matrix`, a Lagrange evaluation-point-change
   matrix) is applied share-wise across the dealer axis in one matrix
   product (:func:`repro.field.kernels.mat_vecs`): |CS| aligned
   r-share vectors in, |CS| - t_s verified-random share vectors out.  Each
   extracted sharing mixes at least one honest dealer's uniform input that
   was fixed (VSS-bound) before anything is opened, so the first extracted
   row reconstructs to public challenges rho_k that no dealer could predict
   when it chose its triples.
3. **Refine (sacrifice check)** -- per dealer and slot the parties open
   sigma = rho*a - u and tau = b - v in one batched public reconstruction,
   then open zeta = rho*c - w - sigma*v - tau*u - sigma*tau.  Writing
   c = ab + delta1 and w = uv + delta2, zeta = rho*delta1 - delta2: a dealer
   whose candidate triple is not a multiplication triple passes only if rho
   hits delta2/delta1 -- probability 1/|F| per slot.  Dealers with any
   nonzero zeta are *discarded* (their corruption is detected publicly and
   identically by every honest party); sigma and tau leak nothing about the
   candidate because the sacrifice triple one-time-pads them.  This is O(1)
   amortized reconstructions per triple, against ΠTripSh's per-dealer
   transformation + supervised Beaver machinery.
4. **Wash** -- the surviving dealers' verified candidates feed the existing
   ΠTripExt (:class:`repro.triples.extraction.TripleExtraction`), one group
   per slot, so the output triples are unknown to everyone (a corrupt dealer
   knows its own candidate, so verified triples cannot be consumed directly).

When discards leave fewer than 2*t_s + 1 survivors -- or shrink the yield
below the requested target -- the phase aborts loudly with
:class:`HimExtractionAbort` naming the provably-cheating dealers, rather
than degrading silently; a deployment excludes them and retries.  The
per-dealer pipeline instead absorbs cheaters with default sharings, which
is why it remains the equivalence-tested reference mode.

"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.acs.acs import AgreementOnCommonSubset, acs_time_bound
from repro.field.array import him_matrix
from repro.field.gf import GF, FieldElement
from repro.field.kernels import mat_vecs
from repro.field.polynomial import Polynomial
from repro.sim.party import Party, ProtocolInstance
from repro.timing import epsilon
from repro.triples.extraction import TripleExtraction
from repro.triples.reconstruction import PublicReconstruction
from repro.triples.sharing import random_multiplication_triple
from repro.triples.transform import TripleShares

#: Sharing polynomials each dealer contributes per slot: candidate triple
#: (a, b, c), sacrifice triple (u, v, w), extraction input r.
POLYNOMIALS_PER_SLOT = 7


class HimExtractionAbort(RuntimeError):
    """Sacrifice checks publicly identified cheating dealers and the HIM
    phase cannot (or was asked not to) continue without them.

    Raised identically by every honest party: the zeta openings are public
    reconstructions, so all parties discard the same dealer set.
    """

    def __init__(
        self, tag: str, discarded: Sequence[int], survivors: Sequence[int], detail: str
    ):
        self.tag = tag
        self.discarded = sorted(discarded)
        self.survivors = sorted(survivors)
        super().__init__(
            f"{tag}: HIM triple refinement discarded dealers {self.discarded} "
            f"({detail}; survivors: {self.survivors})"
        )


def him_extraction_yield(n: int, ts: int) -> int:
    """Fresh triples per slot: d + 1 - t_s with d = (m-1)//2, m = n - t_s."""
    m = n - ts
    d = (m - 1) // 2
    return d + 1 - ts


def him_slots(n: int, ts: int, c_m: int) -> int:
    """Slots needed so that c_M triples come out at the nominal yield."""
    return max(1, math.ceil(c_m / him_extraction_yield(n, ts)))


def him_preprocessing_time_bound(n: int, ts: int, delta: float) -> float:
    """Nominal completion bound of one HIM preprocessing instance: T_ACS + 8Δ.

    After the ACS the instance runs four strictly-sequential reconstruction
    waves (challenges, sigma/tau, zeta, and the extraction's Beaver round),
    each reactive and completing within ~Δ of its inputs.
    """
    eps = epsilon(delta)
    return acs_time_bound(n, ts, delta) + 8.0 * delta + 16 * eps + 8 * eps


def extract_random_shares(
    field: GF, share_rows: Sequence[Sequence[int]], outputs: int
) -> List[List[int]]:
    """Batch randomness extraction: ``len(share_rows)`` aligned share vectors
    in, ``outputs`` extracted share vectors out, via one cached HIM product.

    ``share_rows[i][k]`` is this party's share of dealer i's k-th secret (int
    residues or FieldElements).  Row j of the result holds this party's
    shares of the j-th extracted sharing across the whole slot batch -- the
    matrix is applied once per batch, not once per slot.
    """
    p = field.modulus
    matrix = him_matrix(field, len(share_rows), outputs)
    rows = [[int(v) % p for v in row] for row in share_rows]
    return mat_vecs(p, matrix, rows)


# Imported late to avoid a cycle: preprocessing dispatches to this module.
from repro.triples.preprocessing import Preprocessing  # noqa: E402


class HimPreprocessing(Preprocessing):
    """One HIM offline-phase instance generating ``num_triples`` triples.

    Drop-in for :class:`repro.triples.preprocessing.Preprocessing` (and what
    ``Preprocessing(mode="him")`` constructs): same constructor surface plus
    the ``dealer_triples`` hook, same output shape (this party's shares of
    at least ``num_triples`` multiplication triples, nominally
    ``slots * him_extraction_yield`` of them).

    ``dealer_triples`` lets a test drive this party's dealt triples: a list
    of ``(candidate, sacrifice)`` pairs per slot, each a 3-tuple of
    FieldElements.  A candidate with c != a*b is exactly what the sacrifice
    check exists to catch (see the adversarial scenario cells).
    """

    def __init__(
        self,
        party: Party,
        tag: str,
        ts: int,
        ta: int,
        num_triples: int = 1,
        anchor: Optional[float] = None,
        delta: Optional[float] = None,
        mode: str = "him",
        dealer_triples: Optional[Sequence[Tuple[Tuple, Tuple]]] = None,
    ):
        if mode != "him":
            raise ValueError(f"HimPreprocessing is mode 'him', got {mode!r}")
        ProtocolInstance.__init__(self, party, tag)
        self.mode = "him"
        self.ts = ts
        self.ta = ta
        self.num_triples = num_triples
        self.anchor = anchor
        self.delta = delta if delta is not None else party.delta
        self.slots = him_slots(self.n, ts, num_triples)
        self._dealer_triples = dealer_triples

        #: CS fixed by the ΠACS; the sacrifice checks judge exactly these dealers.
        self.common_subset: Optional[List[int]] = None
        #: dealer -> this party's shares of that dealer's ACS bank.
        self._shares: Dict[int, List[FieldElement]] = {}
        self._rhos: List[FieldElement] = []
        #: Dealers publicly caught by the sacrifice checks.
        self.discarded_dealers: List[int] = []

    # -- phase 1: share -------------------------------------------------------------
    def start(self) -> None:
        if self.anchor is None:
            self.anchor = self.now
        acs = self.spawn(
            AgreementOnCommonSubset,
            "acs",
            ts=self.ts,
            ta=self.ta,
            num_polynomials=POLYNOMIALS_PER_SLOT * self.slots,
            polynomials=self._dealt_polynomials(),
            anchor=self.anchor,
            delta=self.delta,
            truncate_to=self.n - self.ts,
        )
        acs.on_output(self._acs_completed)
        acs.start()

    def _dealt_polynomials(self) -> List[Polynomial]:
        """This dealer's ACS input bank, :data:`POLYNOMIALS_PER_SLOT` per slot."""
        values: List[FieldElement] = []
        for k in range(self.slots):
            if self._dealer_triples is not None:
                candidate, sacrifice = self._dealer_triples[k]
            else:
                candidate = random_multiplication_triple(self.field, self.rng)
                sacrifice = random_multiplication_triple(self.field, self.rng)
            values.extend(candidate)
            values.extend(sacrifice)
            values.append(self.field.random(self.rng))
        return [
            Polynomial.random(self.field, self.ts, constant_term=v, rng=self.rng)
            for v in values
        ]

    # -- phase 2: challenge extraction ---------------------------------------------
    def _acs_completed(self, result: Any) -> None:
        subset, shares = result
        self.common_subset = list(subset)
        if not self.common_subset:
            # Outside the threat model (e.g. async with > t_a corruptions):
            # nothing sound to extract from, mirroring the reference mode.
            return
        self._shares = shares
        r_rows = [
            [shares[j][POLYNOMIALS_PER_SLOT * k + 6] for k in range(self.slots)]
            for j in self.common_subset
        ]
        extracted = extract_random_shares(
            self.field, r_rows, max(1, len(self.common_subset) - self.ts)
        )
        challenge_shares = [FieldElement(v, self.field) for v in extracted[0]]
        self._reconstruct("chal", challenge_shares, self._challenges_ready)

    def _reconstruct(self, tag: str, shares: List[FieldElement], then) -> None:
        recon = self.spawn(
            PublicReconstruction, tag, degree=self.ts, faults=self.ts, shares=shares
        )
        recon.on_output(then)
        recon.start()

    def _slot_bank(self, dealer: int, k: int) -> Sequence:
        base = POLYNOMIALS_PER_SLOT * k
        return self._shares[dealer][base : base + 6]

    # -- phase 3: batched sacrifice checks -----------------------------------------
    def _challenges_ready(self, rhos: List[FieldElement]) -> None:
        self._rhos = rhos
        opening: List[FieldElement] = []
        for j in self.common_subset:
            for k in range(self.slots):
                a, b, _c, u, v, _w = self._slot_bank(j, k)
                opening.append(rhos[k] * a - u)  # sigma
                opening.append(b - v)  # tau
        self._reconstruct("open", opening, self._sacrifice_opened)

    def _sacrifice_opened(self, opened: List[FieldElement]) -> None:
        rhos = self._rhos
        zeta_shares: List[FieldElement] = []
        cursor = 0
        for j in self.common_subset:
            for k in range(self.slots):
                sigma, tau = opened[cursor], opened[cursor + 1]
                cursor += 2
                _a, _b, c, u, v, w = self._slot_bank(j, k)
                # sigma*tau is public: subtracting it from every share shifts
                # the shared secret by exactly that constant.
                zeta_shares.append(
                    rhos[k] * c - w - sigma * v - tau * u - sigma * tau
                )
        self._reconstruct("zeta", zeta_shares, self._zetas_opened)

    # -- phase 4: discard + wash ----------------------------------------------------
    def _zetas_opened(self, zetas: List[FieldElement]) -> None:
        zero = self.field.zero()
        bad: List[int] = []
        cursor = 0
        for j in self.common_subset:
            dealer_zetas = zetas[cursor : cursor + self.slots]
            cursor += self.slots
            if any(z != zero for z in dealer_zetas):
                bad.append(j)
        self.discarded_dealers.extend(bad)
        survivors = [j for j in self.common_subset if j not in bad]
        required = 2 * self.ts + 1
        if len(survivors) < required:
            raise HimExtractionAbort(
                self.tag,
                self.discarded_dealers,
                survivors,
                f"fewer than {required} dealers survive",
            )
        d = (len(survivors) - 1) // 2
        providers = survivors[: 2 * d + 1]
        groups = [[tuple(self._slot_bank(j, k)[:3]) for j in providers] for k in range(self.slots)]
        extraction = self.spawn(TripleExtraction, "ext", ts=self.ts, d=d, groups=groups)
        extraction.on_output(self._extracted)
        extraction.start()

    def _extracted(self, outputs: List[List[TripleShares]]) -> None:
        triples = [triple for output in outputs for triple in output]
        if len(triples) < self.num_triples:
            raise HimExtractionAbort(
                self.tag,
                self.discarded_dealers,
                [j for j in (self.common_subset or []) if j not in self.discarded_dealers],
                f"discards shrank the yield to {len(triples)} < {self.num_triples}",
            )
        self.set_output(triples)

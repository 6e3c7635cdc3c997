"""ΠPreProcessing: the best-of-both-worlds preprocessing phase (Fig 10 / Thm 6.5).

Every party acts as a ΠTripSh dealer so that L multiplication triples are
shared on its behalf; a bank of n ΠBA instances
(:class:`~repro.ba.bobw.CommonSubsetBA`) fixes a common subset CS of
exactly n - t_s triple providers; and ΠTripExt squeezes out of L groups
c_M random t_s-shared multiplication triples that no party (and hence no
adversary) knows.

The L extractions of Fig 10 run as one :class:`TripleExtraction` over L
groups (one public reconstruction, :mod:`repro.triples.transform`), and the
openings of the n ΠTripSh leave through one
:class:`~repro.triples.reconstruction.OpeningPost` ``<preproc>/openings``,
built at the start with the ΠTripSh as its members: one message per peer
per instant for all of them (:mod:`repro.triples.reconstruction`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.ba.aba import aba_nominal_time_bound
from repro.ba.bobw import CommonSubsetBA
from repro.broadcast.bc import bc_time_bound
from repro.sim.party import Party, ProtocolInstance
from repro.timing import epsilon
from repro.triples.extraction import TripleExtraction
from repro.triples.reconstruction import OpeningPost
from repro.triples.sharing import TripleSharing, triple_sharing_time_bound
from repro.triples.transform import TripleShares


#: Offline-phase pipelines selectable via ``Preprocessing(mode=...)`` /
#: ``run_mpc(offline=...)``: the per-dealer ΠTripSh reference pipeline and
#: the hyper-invertible-matrix batch pipeline (see :mod:`repro.triples.him`).
OFFLINE_MODES = ("tripsh", "him")


def check_offline_mode(mode: str) -> str:
    if mode not in OFFLINE_MODES:
        raise ValueError(f"unknown offline mode {mode!r} (use one of {OFFLINE_MODES})")
    return mode


def extraction_yield(n: int, ts: int) -> int:
    """Triples extracted per ΠTripExt instance: (n - t_s - 1)/2 + 1 - t_s."""
    d = (n - ts - 1) // 2
    return d + 1 - ts


def triples_per_dealer(n: int, ts: int, c_m: int) -> int:
    """L: how many triples each dealer shares so that c_M can be extracted."""
    return max(1, math.ceil(c_m / extraction_yield(n, ts)))


def preprocessing_time_bound(
    n: int,
    ts: int,
    delta: float,
    c_m: int = 1,
    offline: str = "tripsh",
) -> float:
    """T_TripGen = T_TripSh + 2·T_BA + Δ (nominal).

    ``c_m`` is accepted for callers that pass the circuit's multiplication
    count; the bound does not depend on it (every dealer deals its whole
    bank in one ΠTripSh).  With ``offline="him"`` the bound is the HIM
    pipeline's (see :func:`repro.triples.him.him_preprocessing_time_bound`).
    """
    check_offline_mode(offline)
    if offline == "him":
        from repro.triples.him import him_preprocessing_time_bound

        return him_preprocessing_time_bound(n, ts, delta)
    t_ba = bc_time_bound(n, ts, delta) + aba_nominal_time_bound(delta)
    t_tripsh = triple_sharing_time_bound(n, ts, delta)
    eps = epsilon(delta)
    return t_tripsh + eps + 2.0 * t_ba + delta + 8 * eps


class Preprocessing(ProtocolInstance):
    """One ΠPreProcessing instance generating at least ``num_triples`` triples.

    The output is the list of this party's shares of the generated
    multiplication triples (at least ``num_triples`` of them, possibly a few
    more because the extraction yield is a whole number per instance).

    ``mode`` selects the offline pipeline: ``"tripsh"`` (this class, the
    per-dealer reference) or ``"him"``, which constructs a
    :class:`repro.triples.him.HimPreprocessing` instead -- same constructor
    surface and output shape, hyper-invertible-matrix internals.
    """

    def __new__(cls, *args, mode: str = "tripsh", **kwargs):
        check_offline_mode(mode)
        if cls is Preprocessing and mode == "him":
            from repro.triples.him import HimPreprocessing

            # type_call invokes type(obj).__init__, so HimPreprocessing's
            # own __init__ receives the original arguments.
            return super().__new__(HimPreprocessing)
        return super().__new__(cls)

    def __init__(
        self,
        party: Party,
        tag: str,
        ts: int,
        ta: int,
        num_triples: int = 1,
        anchor: Optional[float] = None,
        delta: Optional[float] = None,
        mode: str = "tripsh",
    ):
        super().__init__(party, tag)
        self.mode = check_offline_mode(mode)
        self.ts = ts
        self.ta = ta
        self.num_triples = num_triples
        self.anchor = anchor
        self.delta = delta if delta is not None else party.delta
        self.per_dealer = triples_per_dealer(self.n, ts, num_triples)

        #: dealer -> its ΠTripSh's triple-share outputs.
        self._tripsh_outputs: Dict[int, List[TripleShares]] = {}
        self._ba: Optional[CommonSubsetBA] = None
        self.common_subset: Optional[List[int]] = None
        self._extracting = False

    # -- phase I: every party deals its L triples -----------------------------------
    def start(self) -> None:
        if self.anchor is None:
            self.anchor = self.now
        eps = epsilon(self.delta)
        t_tripsh = triple_sharing_time_bound(self.n, self.ts, self.delta)
        openings = OpeningPost.at(self.party, self.subtag("openings"), self.now)
        tripsh_instances = []
        for j in self.party.all_party_ids():
            tripsh = self.spawn(
                TripleSharing,
                f"tripsh[{j}]",
                dealer=j,
                ts=self.ts,
                ta=self.ta,
                num_triples=self.per_dealer,
                anchor=self.anchor,
                delta=self.delta,
            )
            tripsh.on_output(lambda out, j=j: self._tripsh_completed(j, out))
            tripsh_instances.append(tripsh)
        openings.join(*tripsh_instances)
        self._ba = self.spawn(
            CommonSubsetBA, "ba", faults=self.ts, delta=self.delta,
            anchor=self.anchor + (t_tripsh + eps),
        )
        self._ba.on_output(lambda _decisions: self._maybe_extract())
        for tripsh in tripsh_instances:
            tripsh.start()
        self._ba.start()

    # -- phase II: agree on the triple providers ----------------------------------------
    def _tripsh_completed(self, dealer: int, output: List[TripleShares]) -> None:
        # Outputs of dealers outside an already-fixed CS are never read.
        if self.common_subset is None or dealer in self.common_subset:
            self._tripsh_outputs[dealer] = output
        self._ba.candidate_completed(dealer)
        self._maybe_extract()

    # -- phase III: extraction once the whole CS has delivered ------------------------
    def _maybe_extract(self) -> None:
        if self._extracting or not self._ba.has_output:
            return
        if self.common_subset is None:
            self.common_subset = self._ba.accepted()[: self.n - self.ts]
            for dealer in list(self._tripsh_outputs):
                if dealer not in self.common_subset:
                    del self._tripsh_outputs[dealer]
        if not self.common_subset:
            # Can only happen outside the paper's threat model (e.g. an
            # asynchronous network with more than t_a corruptions); there is
            # nothing sound to extract from.
            return
        # Extraction waits for the whole common subset, not just the 2d+1
        # providers.
        if not all(j in self._tripsh_outputs for j in self.common_subset):
            return
        self._extracting = True
        d = (len(self.common_subset) - 1) // 2
        providers = self.common_subset[: 2 * d + 1]
        groups = [
            [self._tripsh_outputs[j][index] for j in providers] for index in range(self.per_dealer)
        ]
        extraction = self.spawn(TripleExtraction, "ext", ts=self.ts, d=d, groups=groups)
        extraction.on_output(lambda outputs: self.set_output([t for out in outputs for t in out]))
        extraction.start()

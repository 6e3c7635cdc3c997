"""ΠACS: agreement on a common subset of dealers (Fig 5 / Lemma 5.1).

Every party acts as a ΠVSS dealer for its own L degree-t_s polynomials; a
bank of n ΠBA instances (:class:`~repro.ba.bobw.CommonSubsetBA`, which also
holds Fig 5's voting rule) then decides which dealers' sharings completed, and
the parties output a common subset CS of at least n - t_s dealers such that
every honest party (eventually) holds its shares of every CS-member's
polynomials.  In a synchronous network all honest dealers end up in CS --
the property that later guarantees no honest party's circuit input is
dropped.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ba.aba import aba_nominal_time_bound
from repro.ba.bobw import BestOfBothWorldsBA, CommonSubsetBA
from repro.broadcast.bc import bc_time_bound
from repro.field.polynomial import Polynomial
from repro.sharing.vss import VerifiableSecretSharing, vss_time_bound
from repro.sim.party import Party, ProtocolInstance
from repro.timing import epsilon


def acs_time_bound(n: int, ts: int, delta: float) -> float:
    """T_ACS = T_VSS + 2·T_BA (nominal, for composition anchors)."""
    t_ba = bc_time_bound(n, ts, delta) + aba_nominal_time_bound(delta)
    return vss_time_bound(n, ts, delta) + 2.0 * t_ba + 8 * epsilon(delta)


class AgreementOnCommonSubset(ProtocolInstance):
    """One ΠACS instance.

    ``polynomials`` is this party's own dealer input (L degree-t_s
    polynomials).  The output is a tuple ``(subset, shares)`` where
    ``subset`` is the sorted list of dealers in CS and ``shares`` maps each
    dealer in CS to this party's list of L shares of that dealer's
    polynomials.  With ``truncate_to`` set, CS is cut down to the first that
    many positively-decided dealers (used by the preprocessing protocol,
    which needs exactly n - t_s triple providers).
    """

    def __init__(
        self,
        party: Party,
        tag: str,
        ts: int,
        ta: int,
        num_polynomials: int = 1,
        polynomials: Optional[List[Polynomial]] = None,
        anchor: Optional[float] = None,
        delta: Optional[float] = None,
        truncate_to: Optional[int] = None,
    ):
        super().__init__(party, tag)
        self.ts = ts
        self.ta = ta
        self.num_polynomials = num_polynomials
        self.polynomials = polynomials
        self.anchor = anchor
        self.delta = delta if delta is not None else party.delta
        self.truncate_to = truncate_to

        self.vss: Dict[int, VerifiableSecretSharing] = {}
        self._ba: Optional[CommonSubsetBA] = None
        self._vss_done: Set[int] = set()
        self.common_subset: Optional[List[int]] = None

    # -- timing --------------------------------------------------------------
    @property
    def t_vss(self) -> float:
        return vss_time_bound(self.n, self.ts, self.delta)

    # -- input ----------------------------------------------------------------
    def provide_input(self, polynomials: List[Polynomial]) -> None:
        self.polynomials = polynomials
        if self.vss:
            self.vss[self.me].provide_input(polynomials)

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        if self.anchor is None:
            self.anchor = self.now
        # Two banks: the ΠBAs inside the n ΠVSS instances (slot j - 1 is that of
        # dealer P_j's), and the n ΠBAs that decide the common subset.
        vss_ba = self.spawn(
            BestOfBothWorldsBA, "vss_ba", faults=self.ts, delta=self.delta, slots=self.n,
            anchor=VerifiableSecretSharing.vote_anchor_at(
                self.anchor, self.n, self.ts, self.delta
            ),
        )
        self._ba = self.spawn(
            CommonSubsetBA, "ba", faults=self.ts, delta=self.delta,
            anchor=self.anchor + self.t_vss + epsilon(self.delta),
        )
        self._ba.on_output(lambda _decisions: self._maybe_finish())
        for j in self.party.all_party_ids():
            vss = self.spawn(
                VerifiableSecretSharing,
                f"vss[{j}]",
                dealer=j,
                ts=self.ts,
                ta=self.ta,
                num_polynomials=self.num_polynomials,
                polynomials=self.polynomials if j == self.me else None,
                anchor=self.anchor,
                delta=self.delta,
                ba=vss_ba.slots[j - 1],
            )
            self.vss[j] = vss
            vss.on_output(lambda _shares, j=j: self._vss_completed(j))
        for vss in self.vss.values():
            vss.start()
        vss_ba.start()
        self._ba.start()

    # -- phase II: vote on each dealer (the votes are CommonSubsetBA's) -----------------
    def _vss_completed(self, dealer: int) -> None:
        self._vss_done.add(dealer)
        self._ba.candidate_completed(dealer)
        self._maybe_finish()

    # -- output -------------------------------------------------------------------------
    def _maybe_finish(self) -> None:
        if self.has_output or not self._ba.has_output:
            return
        if self.common_subset is None:
            accepted = self._ba.accepted()
            if self.truncate_to is not None:
                accepted = accepted[: self.truncate_to]
            self.common_subset = accepted
        # Wait until we hold the shares of every dealer in CS.
        if not all(j in self._vss_done for j in self.common_subset):
            return
        shares = {j: self.vss[j].output for j in self.common_subset}
        self.set_output((list(self.common_subset), shares))

"""ΠVSS: the best-of-both-worlds verifiable secret-sharing protocol (Fig 4).

The structure mirrors ΠWPS with one extra layer: instead of sending its
supposedly-common points directly, every party re-shares the univariate row
it received from the dealer through its own ΠWPS instance.  The wps-shares
obtained from those instances are what the pair-wise consistency test
compares, and they are also what lets parties *outside* W reconstruct their
row (fixing the shortcoming that makes ΠWPS only a weak primitive).

Phase III as built: P_i publishes the verdicts it has determined by the ok
anchor (Δ + T_WPS) as one n-entry ΠBC ``ok[i]`` and any later one as a slot
of that ΠBC's entry of a late carrier; Phases III-V are
:class:`~repro.sharing.wps.BivariateSharingMixin`'s, one implementation for
both protocols, and the argument that Theorem 4.16 survives the verdict
vector is in the :mod:`repro.sharing.wps` module docstring.  The ΠBAs of the
n ΠWPS instances are the n slots of one :mod:`repro.ba.bobw` bank ``wps_ba``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.ba.aba import aba_nominal_time_bound
from repro.ba.bobw import BestOfBothWorldsBA
from repro.broadcast.bc import bc_time_bound
from repro.field.array import batch_interpolate_at
from repro.field.gf import FieldElement
from repro.field.polynomial import Polynomial
from repro.sharing.wps import (
    BivariateSharingMixin,
    WeakPolynomialSharing,
    unpack_rows,
    wps_time_bound,
)
from repro.sim.party import Party, ProtocolInstance
from repro.timing import epsilon, next_multiple_of_delta


def vss_time_bound(n: int, ts: int, delta: float) -> float:
    """T_VSS = Δ + T_WPS + 2·T_BC + T_BA (nominal, for composition anchors)."""
    t_bc = bc_time_bound(n, ts, delta)
    t_ba = t_bc + aba_nominal_time_bound(delta)
    return delta + wps_time_bound(n, ts, delta) + 2.0 * t_bc + t_ba + 8 * epsilon(delta)


class VerifiableSecretSharing(BivariateSharingMixin, ProtocolInstance):
    """One ΠVSS instance for a dealer with L degree-t_s polynomials
    (constructor: see :class:`~repro.sharing.wps.BivariateSharingMixin`).

    The output of party P_i is the list of its L shares
    [q^(1)(alpha_i), ..., q^(L)(alpha_i)] on the dealer's (committed)
    polynomials.  For a corrupt dealer the output may never be produced
    (the dealer can refuse to run), but if any honest party outputs, all
    honest parties eventually output shares of the same polynomials.
    """

    def __init__(self, party: Party, tag: str, *args, **kwargs):
        super().__init__(party, tag, *args, **kwargs)
        self.wps_shares: Dict[int, List] = {}
        self._my_wps_input_given = False
        self._reconstruction_sources: Optional[Set[int]] = None
        self._wps: Dict[int, WeakPolynomialSharing] = {}

    # -- timing helpers -------------------------------------------------------------
    @property
    def time_bound(self) -> float:
        return vss_time_bound(self.n, self.ts, self.delta)

    @staticmethod
    def ok_anchor_at(anchor: float, n: int, ts: int, delta: float) -> float:
        return anchor + delta + wps_time_bound(n, ts, delta)

    @property
    def _evidence(self) -> Dict[int, List]:
        return self.wps_shares

    # -- input ----------------------------------------------------------------------
    def provide_input(self, polynomials: List[Polynomial]) -> None:
        self.polynomials = polynomials
        if self.me == self.dealer and self.anchor is not None:
            self._distribute_at_anchor()

    def _distribute_at_anchor(self) -> None:
        """Distribute now, or at the anchor if it lies strictly in the future.

        A one-shot ``run_mpc`` anchors every ΠVSS at its creation time, so the
        rows go out at once.  :class:`~repro.service.MpcService` anchors each
        refill round and evaluation at the next point of the Δ grid, which
        usually lies ahead of the clock; the rows then wait for that anchor,
        so they leave on the grid the dealing's deadlines are computed from.
        """
        if self.anchor > self.now:
            self.schedule_at(self.anchor, self._dealer_distribute)
        else:
            self._dealer_distribute()

    # -- lifecycle --------------------------------------------------------------------
    def start(self) -> None:
        if self.anchor is None:
            self.anchor = self.now
        # One ΠWPS instance per party (each party re-shares its own row), their
        # n ΠBAs one bank: slot j - 1 is the ΠBA of P_j's ΠWPS.
        wps_ba = self.spawn(
            BestOfBothWorldsBA, "wps_ba", faults=self.ts, delta=self.delta, slots=self.n,
            anchor=WeakPolynomialSharing.vote_anchor_at(
                self.anchor + self.delta, self.n, self.ts, self.delta
            ),
        )
        for j in self.party.all_party_ids():
            wps = self.spawn(
                WeakPolynomialSharing,
                f"wps[{j}]",
                dealer=j,
                ts=self.ts,
                ta=self.ta,
                num_polynomials=self.num_polynomials,
                anchor=self.anchor + self.delta,
                delta=self.delta,
                ba=wps_ba.slots[j - 1],
            )
            self._wps[j] = wps
            wps.on_output(lambda shares, j=j: self._record_wps_shares(j, shares))
        for wps in self._wps.values():
            wps.start()
        wps_ba.start()
        self._start_broadcasts()
        if self.me == self.dealer:
            self._distribute_at_anchor()

    # -- message handling ------------------------------------------------------------------
    def _handle(self, sender: int, kind: Any, value: Any) -> None:
        if kind == "polys" and sender == self.dealer and self.my_rows is None:
            rows = unpack_rows(value)
            if self._valid_rows(rows):
                self.my_rows = rows
                self._schedule_my_wps_input()
                self._publish_late_verdicts()

    # -- Phase II: re-share my row through my own ΠWPS ---------------------------------------
    def _schedule_my_wps_input(self) -> None:
        if self._my_wps_input_given or self.my_rows is None:
            return
        self._my_wps_input_given = True
        when = next_multiple_of_delta(self.now, self.delta)
        self.schedule_at(when, lambda: self._wps[self.me].provide_input(list(self.my_rows)))

    def _record_wps_shares(self, j: int, shares: Any) -> None:
        if j in self.wps_shares or not isinstance(shares, list):
            return
        self.wps_shares[j] = shares
        self._publish_late_verdicts()
        self._maybe_reconstruct()

    # -- reconstruction from wps-shares of the parties in F / F' --------------------------------------------
    def _recover_from(self, sources: Set[int]) -> None:
        self._reconstruction_sources = sources
        self._maybe_reconstruct()

    def _maybe_reconstruct(self) -> None:
        """Interpolate my row from t_s + 1 wps-shares of parties in F (or F')."""
        if self.has_output or self._reconstruction_sources is None:
            return
        support = sorted(
            j for j in self._reconstruction_sources if j in self.wps_shares
        )
        if len(support) < self.ts + 1:
            return
        support = support[: self.ts + 1]
        # One cached Lagrange row at 0 recovers every polynomial's secret.
        alphas = [int(self.field.alpha(j)) for j in support]
        value_rows = [
            [int(self.field(self.wps_shares[j][index])) for j in support]
            for index in range(self.num_polynomials)
        ]
        constants = batch_interpolate_at(self.field, alphas, value_rows, 0)
        self.set_output([FieldElement(v, self.field) for v in constants])

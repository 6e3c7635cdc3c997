"""ΠVSS: the best-of-both-worlds verifiable secret-sharing protocol (Fig 4).

The structure mirrors ΠWPS with one extra layer: instead of sending its
supposedly-common points directly, every party re-shares the univariate row
it received from the dealer through its own ΠWPS instance.  The wps-shares
obtained from those instances are what the pair-wise consistency test
compares, and they are also what lets parties *outside* W reconstruct their
row (fixing the shortcoming that makes ΠWPS only a weak primitive).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ba.aba import aba_nominal_time_bound
from repro.ba.bobw import BestOfBothWorldsBA
from repro.broadcast.bc import BroadcastProtocol, bc_time_bound
from repro.field.array import batch_interpolate_at
from repro.field.bivariate import BatchSymmetricBivariate
from repro.field.gf import FieldElement
from repro.field.polynomial import Polynomial
from repro.graph.consistency import ConsistencyGraph
from repro.graph.star import find_star, verify_star, Star
from repro.sharing.wps import (
    NOK_VERDICT,
    OK_VERDICT,
    BivariateSharingMixin,
    PackedPolynomialRows,
    WeakPolynomialSharing,
    make_bivariates,
    pairwise_nok_conflict,
    rows_for_all_parties,
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
    """One ΠVSS instance for a dealer with L degree-t_s polynomials.

    The output of party P_i is the list of its L shares
    [q^(1)(alpha_i), ..., q^(L)(alpha_i)] on the dealer's (committed)
    polynomials.  For a corrupt dealer the output may never be produced
    (the dealer can refuse to run), but if any honest party outputs, all
    honest parties eventually output shares of the same polynomials.
    """

    def __init__(
        self,
        party: Party,
        tag: str,
        dealer: int,
        ts: int,
        ta: int,
        num_polynomials: int = 1,
        polynomials: Optional[List[Polynomial]] = None,
        anchor: Optional[float] = None,
        delta: Optional[float] = None,
    ):
        super().__init__(party, tag)
        self.dealer = dealer
        self.ts = ts
        self.ta = ta
        self.num_polynomials = num_polynomials
        self.polynomials = polynomials
        self.anchor = anchor
        self.delta = delta if delta is not None else party.delta

        # Dealer-side state.
        self._bivariates: Optional[List[BatchSymmetricBivariate]] = None
        self._star2_sent = False

        # Receiver-side state.
        self.my_rows: Optional[List[Polynomial]] = None
        self.wps_shares: Dict[int, List] = {}
        self._my_wps_input_given = False
        self._ok_broadcast_done: Set[int] = set()
        self._verdicts: Dict[Tuple[int, int], Any] = {}
        self.graph = ConsistencyGraph(self.n)
        self._snapshot_graph: Optional[ConsistencyGraph] = None
        self._snapshot_noks: Dict[Tuple[int, int], Any] = {}
        self.accepted_star: Optional[Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]] = None
        self._ba: Optional[BestOfBothWorldsBA] = None
        self._ba_output: Optional[int] = None
        self._reconstruction_sources: Optional[Set[int]] = None
        self._pending_star2: Optional[Tuple[FrozenSet[int], FrozenSet[int]]] = None
        self._row_values: Optional[List[List[FieldElement]]] = None
        self._dealer_grids: Dict[int, List[List[int]]] = {}

        # Sub-protocol endpoints.
        self._wps: Dict[int, WeakPolynomialSharing] = {}
        self._ok_bc: Dict[Tuple[int, int], BroadcastProtocol] = {}
        self._star_bc: Optional[BroadcastProtocol] = None
        self._star2_bc: Optional[BroadcastProtocol] = None

    # -- timing helpers -------------------------------------------------------------
    @property
    def t_bc(self) -> float:
        return bc_time_bound(self.n, self.ts, self.delta)

    @property
    def t_wps(self) -> float:
        return wps_time_bound(self.n, self.ts, self.delta)

    @property
    def time_bound(self) -> float:
        return vss_time_bound(self.n, self.ts, self.delta)

    @property
    def _ok_anchor(self) -> float:
        return self.anchor + self.delta + self.t_wps

    # -- input ----------------------------------------------------------------------
    def provide_input(self, polynomials: List[Polynomial]) -> None:
        self.polynomials = polynomials
        if self.me == self.dealer and self.anchor is not None:
            self._distribute_at_anchor()

    def _distribute_at_anchor(self) -> None:
        """Distribute now, or at the anchor if it lies strictly in the future.

        Instances anchored at their creation time (every pre-sharding flow)
        keep the original synchronous call; the round-sharded preprocessing
        anchors later shards in the future, and deferring the heavy row
        distribution to that anchor is what actually staggers the per-round
        wire traffic.
        """
        if self.anchor > self.now:
            self.schedule_at(self.anchor, self._dealer_distribute)
        else:
            self._dealer_distribute()

    # -- lifecycle --------------------------------------------------------------------
    def start(self) -> None:
        if self.anchor is None:
            self.anchor = self.now
        eps = epsilon(self.delta)
        # One ΠWPS instance per party (each party re-shares its own row).
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
            )
            self._wps[j] = wps
            wps.on_output(lambda shares, j=j: self._record_wps_shares(j, shares))
        # Pair-wise OK/NOK broadcasts.
        for i in self.party.all_party_ids():
            for j in self.party.all_party_ids():
                if i == j:
                    continue
                bc = self.spawn(
                    BroadcastProtocol,
                    f"ok[{i},{j}]",
                    sender=i,
                    faults=self.ts,
                    anchor=self._ok_anchor,
                    delta=self.delta,
                )
                self._ok_bc[(i, j)] = bc
                bc.on_delivery(lambda verdict, i=i, j=j: self._record_verdict(i, j, verdict))
        # Dealer's (W, E, F) and (E', F') broadcasts.
        self._star_bc = self.spawn(
            BroadcastProtocol,
            "star",
            sender=self.dealer,
            faults=self.ts,
            anchor=self._ok_anchor + self.t_bc + 2 * eps,
            delta=self.delta,
        )
        self._star2_bc = self.spawn(
            BroadcastProtocol,
            "star2",
            sender=self.dealer,
            faults=self.ts,
            anchor=self.anchor + self.time_bound,
            delta=self.delta,
        )
        for wps in self._wps.values():
            wps.start()
        for bc in self._ok_bc.values():
            bc.start()
        self._star_bc.start()
        self._star2_bc.start()

        if self.me == self.dealer and self.polynomials is not None:
            self._distribute_at_anchor()
        if self.me == self.dealer:
            self.schedule_at(self._ok_anchor + self.t_bc + 2 * eps, self._dealer_find_star)
        self.schedule_at(self._ok_anchor + self.t_bc + 3 * eps, self._take_snapshot)
        self.schedule_at(self._ok_anchor + 2.0 * self.t_bc + 4 * eps, self._accept_and_vote)

    # -- Phase I: dealer distributes rows -----------------------------------------------
    def _dealer_distribute(self) -> None:
        if self._bivariates is not None or self.polynomials is None:
            return
        self._bivariates = make_bivariates(self.field, self.polynomials, self.rng)
        ids = self.party.all_party_ids()
        for j, rows in zip(ids, rows_for_all_parties(self.field, self._bivariates, ids)):
            self.send(j, ("polys", PackedPolynomialRows.pack(self.field, rows)))

    # -- message handling ------------------------------------------------------------------
    def receive(self, sender: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "polys" and sender == self.dealer and self.my_rows is None:
            rows = unpack_rows(payload[1])
            if self._valid_rows(rows):
                self.my_rows = rows
                self._schedule_my_wps_input()
                self._schedule_ok_broadcasts()

    def _valid_rows(self, rows: Any) -> bool:
        if not isinstance(rows, list) or len(rows) != self.num_polynomials:
            return False
        return all(isinstance(row, Polynomial) and row.degree <= self.ts for row in rows)

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
        self._schedule_ok_broadcasts()
        self._maybe_reconstruct()

    # -- Phase III: publish the pair-wise consistency results ----------------------------------
    def _schedule_ok_broadcasts(self) -> None:
        if self.my_rows is None:
            return
        for j in list(self.wps_shares):
            if j in self._ok_broadcast_done or j == self.me:
                continue
            self._ok_broadcast_done.add(j)
            when = next_multiple_of_delta(self.now, self.delta)
            self.schedule_at(when, lambda j=j: self._broadcast_verdict(j))

    def _broadcast_verdict(self, j: int) -> None:
        assert self.my_rows is not None
        shares = self.wps_shares[j]
        table = self._my_row_values()
        verdict: Any = (OK_VERDICT,)
        for index in range(len(self.my_rows)):
            expected = table[index][j - 1]
            if index >= len(shares) or shares[index] != expected:
                verdict = (NOK_VERDICT, index, expected)
                break
        self._ok_bc[(self.me, j)].provide_input(verdict)

    # -- consistency graph maintenance -----------------------------------------------------------
    def _record_verdict(self, i: int, j: int, verdict: Any) -> None:
        if not isinstance(verdict, tuple) or not verdict:
            return
        if (i, j) in self._verdicts:
            return
        self._verdicts[(i, j)] = verdict
        if verdict[0] == OK_VERDICT:
            other = self._verdicts.get((j, i))
            if other is not None and other[0] == OK_VERDICT:
                self.graph.add_edge(i, j)
                self._on_graph_update()

    def _on_graph_update(self) -> None:
        if self._ba_output == 1:
            if self.me == self.dealer:
                self._dealer_try_star2()
            if self._pending_star2 is not None:
                self._try_adopt_star2(self._pending_star2)

    def _regular_verdicts(self) -> Dict[Tuple[int, int], Any]:
        verdicts = {}
        for pair, bc in self._ok_bc.items():
            value = bc.output_via_regular_mode()
            if isinstance(value, tuple) and value:
                verdicts[pair] = value
        return verdicts

    def _take_snapshot(self) -> None:
        verdicts = self._regular_verdicts()
        graph = ConsistencyGraph(self.n)
        for (i, j), verdict in verdicts.items():
            if verdict[0] == OK_VERDICT:
                other = verdicts.get((j, i))
                if other is not None and other[0] == OK_VERDICT:
                    graph.add_edge(i, j)
        self._snapshot_graph = graph
        self._snapshot_noks = {
            pair: verdict for pair, verdict in verdicts.items() if verdict[0] == NOK_VERDICT
        }

    # -- Phase IV: dealer computes (W, E, F) --------------------------------------------------------
    def _dealer_find_star(self) -> None:
        if self._bivariates is None:
            return
        verdicts = self._regular_verdicts()
        graph = ConsistencyGraph(self.n)
        for (i, j), verdict in verdicts.items():
            if verdict[0] == OK_VERDICT:
                other = verdicts.get((j, i))
                if other is not None and other[0] == OK_VERDICT:
                    graph.add_edge(i, j)
        for (i, j), verdict in verdicts.items():
            if verdict[0] != NOK_VERDICT:
                continue
            index, claimed = verdict[1], verdict[2]
            if not isinstance(index, int) or not (0 <= index < self.num_polynomials):
                graph.remove_vertex_edges(i)
                continue
            if claimed != self._dealer_expected_common_value(index, j, i):
                graph.remove_vertex_edges(i)
        w_set = graph.iterated_degree_prune(self.n - self.ts)
        if not w_set:
            return
        star = find_star(graph, self.ts, within=w_set)
        if star is None:
            return
        self._star_bc.provide_input((frozenset(w_set), star.e_set, star.f_set))

    # -- acceptance and ΠBA ----------------------------------------------------------------------------
    def _accept_and_vote(self) -> None:
        candidate = self._star_bc.output_via_regular_mode()
        accepted = False
        if candidate is not None and self._snapshot_graph is not None:
            accepted = self._validate_star_triplet(
                candidate, self._snapshot_graph, self._snapshot_noks
            )
        if accepted:
            self.accepted_star = candidate
        self._ba = self.spawn(
            BestOfBothWorldsBA,
            "ba",
            faults=self.ts,
            value=0 if accepted else 1,
            anchor=self.now,
            delta=self.delta,
        )
        self._ba.on_output(self._handle_ba_output)
        self._ba.start()

    def _validate_star_triplet(
        self,
        candidate: Any,
        graph: ConsistencyGraph,
        noks: Dict[Tuple[int, int], Any],
    ) -> bool:
        if not isinstance(candidate, tuple) or len(candidate) != 3:
            return False
        w_set, e_set, f_set = candidate
        try:
            w_set = frozenset(int(v) for v in w_set)
            e_set = frozenset(int(v) for v in e_set)
            f_set = frozenset(int(v) for v in f_set)
        except (TypeError, ValueError):
            return False
        all_ids = set(self.party.all_party_ids())
        if not (e_set <= f_set <= w_set <= all_ids):
            return False
        if len(w_set) < self.n - self.ts:
            return False
        if pairwise_nok_conflict(noks, w_set):
            return False
        for j in w_set:
            # A party is always consistent with itself, hence the +1 (the
            # honest parties may number exactly n - t_s).
            if graph.degree(j) + 1 < self.n - self.ts:
                return False
            if graph.degree_within(j, set(w_set)) + 1 < self.n - self.ts:
                return False
        return verify_star(graph, Star(e_set, f_set), self.ts, within=set(w_set))

    def _handle_ba_output(self, value: int) -> None:
        self._ba_output = value
        if value == 0:
            self._star_bc.on_delivery(self._compute_output_via_w)
        else:
            if self.me == self.dealer:
                self._dealer_try_star2()
            self._star2_bc.on_delivery(self._try_adopt_star2)

    # -- output through (W, E, F) ------------------------------------------------------------------------
    def _compute_output_via_w(self, candidate: Any) -> None:
        if self.has_output or self._ba_output != 0:
            return
        if not isinstance(candidate, tuple) or len(candidate) != 3:
            return
        w_set, _e_set, f_set = candidate
        w_set = set(int(v) for v in w_set)
        f_set = set(int(v) for v in f_set)
        if self.me in w_set and self.my_rows is not None:
            self.set_output([row.constant_term() for row in self.my_rows])
            return
        self._reconstruction_sources = f_set
        self._maybe_reconstruct()

    # -- output through (E', F') ---------------------------------------------------------------------------
    def _dealer_try_star2(self) -> None:
        if self._star2_sent or self.me != self.dealer:
            return
        star = find_star(self.graph, self.ta)
        if star is None:
            return
        self._star2_sent = True
        self._star2_bc.provide_input((star.e_set, star.f_set))

    def _try_adopt_star2(self, candidate: Any) -> None:
        if self.has_output or self._ba_output != 1:
            return
        if not isinstance(candidate, tuple) or len(candidate) != 2:
            return
        e_set = frozenset(int(v) for v in candidate[0])
        f_set = frozenset(int(v) for v in candidate[1])
        star = Star(e_set, f_set)
        if not verify_star(self.graph, star, self.ta):
            self._pending_star2 = (e_set, f_set)
            return
        self._pending_star2 = None
        if self.me in f_set and self.my_rows is not None:
            self.set_output([row.constant_term() for row in self.my_rows])
            return
        self._reconstruction_sources = set(f_set)
        self._maybe_reconstruct()

    # -- reconstruction from wps-shares of the parties in F / F' --------------------------------------------
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

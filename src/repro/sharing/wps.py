"""ΠWPS: the best-of-both-worlds weak polynomial-sharing protocol (Fig 3).

The dealer D embeds each of its L degree-t_s polynomials into a random
(t_s, t_s)-degree symmetric bivariate polynomial and hands every party its
univariate row.  Parties run pair-wise consistency checks whose results are
made public through ΠBC; the dealer looks for a "special" (n, t_s)-star
(W, E, F) in the resulting consistency graph, the parties agree through ΠBA
on whether one was accepted in time, and otherwise fall back to the
asynchronous-style (n, t_a)-star path.  The output of party P_i is its
vector of wps-shares [q^(1)(alpha_i), ..., q^(L)(alpha_i)].
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ba.aba import aba_nominal_time_bound
from repro.ba.bobw import BestOfBothWorldsBA
from repro.broadcast.acast import PackedFieldVector
from repro.broadcast.bc import BroadcastProtocol, bc_time_bound
from repro.codes.oec import BatchOnlineErrorCorrector
from repro.field.array import batch_evaluate
from repro.field.bivariate import BatchSymmetricBivariate
from repro.field.gf import FieldElement
from repro.field.polynomial import Polynomial
from repro.graph.consistency import ConsistencyGraph
from repro.graph.star import find_star, verify_star, Star
from repro.sim.party import Party, ProtocolInstance
from repro.timing import epsilon, next_multiple_of_delta

OK_VERDICT = "OK"
NOK_VERDICT = "NOK"


class PackedPolynomialRows:
    """Dealer row-distribution payload: L univariate rows as one packed vector.

    The WPS/VSS dealer's heaviest message is its per-party row distribution
    (L degree-t_s polynomials).  Every row's coefficient residues are
    concatenated into a single :class:`PackedFieldVector` plus the per-row
    coefficient counts, so the payload crosses the wire as plain ints (one
    cached digest, no per-coefficient boxing) and the receiver decodes
    through ``Polynomial.from_reduced_ints``.  The per-row lengths preserve
    the exact (trailing-zero-stripped) coefficient lists, so
    :meth:`payload_bits` accounts identically to the unpacked list of
    :class:`Polynomial` objects.
    """

    __slots__ = ("vector", "lengths")

    def __init__(self, vector: PackedFieldVector, lengths: Tuple[int, ...]):
        if sum(lengths) != len(vector) or any(length < 1 for length in lengths):
            raise ValueError("row lengths do not partition the packed vector")
        self.vector = vector
        self.lengths = tuple(lengths)

    @classmethod
    def pack(cls, field, rows: List[Polynomial]) -> "PackedPolynomialRows":
        values = [c for row in rows for c in row.residues]
        return cls(
            PackedFieldVector(field, values, _normalized=True),
            tuple(len(row.residues) for row in rows),
        )

    def rows(self) -> List[Polynomial]:
        """Receive-side decode back to the dealer's polynomial rows."""
        field = self.vector.field
        values = self.vector.values
        rows: List[Polynomial] = []
        position = 0
        for length in self.lengths:
            rows.append(
                Polynomial.from_reduced_ints(field, values[position:position + length])
            )
            position += length
        return rows

    def payload_bits(self) -> int:
        """Same accounting as the unpacked list of polynomials."""
        return self.vector.payload_bits()

    def __len__(self) -> int:
        return len(self.lengths)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedPolynomialRows):
            return self.lengths == other.lengths and self.vector == other.vector
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lengths, self.vector))

    def __repr__(self) -> str:
        return f"PackedPolynomialRows(rows={len(self.lengths)}, coeffs={len(self.vector)})"


def unpack_rows(payload):
    """Decode a row-distribution payload from either wire format.

    Byzantine dealers may send arbitrary objects; malformed packed payloads
    decode to ``None`` and fail the caller's row validation exactly like any
    other garbage.
    """
    if isinstance(payload, PackedPolynomialRows):
        try:
            return payload.rows()
        except (TypeError, ValueError, AttributeError, IndexError):
            return None
    return payload


def make_bivariates(field, polynomials, rng):
    """Embed each polynomial into a random symmetric bivariate (Phase I)."""
    return [
        BatchSymmetricBivariate.random_embedding(field, poly, rng=rng)
        for poly in polynomials
    ]


def rows_for_all_parties(field, bivariates, party_ids):
    """Per-party row vectors: ``result[index][k]`` is P_{ids[index]}'s k-th row.

    All n rows of each bivariate come out of one cached Vandermonde product.
    """
    alphas = [int(field.alpha(j)) for j in party_ids]
    per_bivariate = [biv.rows_at_all_points(alphas) for biv in bivariates]
    return [
        [rows[index] for rows in per_bivariate] for index in range(len(party_ids))
    ]


def row_value_table(field, rows, party_ids):
    """``table[k][index]`` = rows[k] evaluated at alpha of ``party_ids[index]``.

    One cached-Vandermonde product over all (row, party) pairs.
    """
    alphas = [int(field.alpha(j)) for j in party_ids]
    coeff_rows = [row.residues for row in rows]
    table = batch_evaluate(field, coeff_rows, alphas)
    return [[FieldElement(v, field) for v in values] for values in table]


class BivariateSharingMixin:
    """Bivariate machinery shared by Pi_WPS and Pi_VSS instances.

    Expects the host protocol to maintain ``my_rows``, ``_bivariates``,
    ``_row_values`` and ``_dealer_grids``.
    """

    def _my_row_values(self) -> List[List["FieldElement"]]:
        """My rows evaluated at every party's alpha, computed once per instance."""
        if self._row_values is None:
            assert self.my_rows is not None
            self._row_values = row_value_table(
                self.field, self.my_rows, self.party.all_party_ids()
            )
        return self._row_values

    def _dealer_expected_common_value(self, index: int, j: int, i: int) -> "FieldElement":
        """Q^(index)(alpha_j, alpha_i) -- via the cached n x n eval_grid."""
        grid = self._dealer_grids.get(index)
        if grid is None:
            alphas = [int(self.field.alpha(k)) for k in self.party.all_party_ids()]
            grid = self._bivariates[index].eval_grid(alphas, alphas)
            self._dealer_grids[index] = grid
        return FieldElement(grid[j - 1][i - 1], self.field)


def pairwise_nok_conflict(noks, w_set) -> bool:
    """Whether two parties in W published NOKs claiming different common values.

    Iterates over the published NOKs (usually a handful) instead of all
    |W|^2 ordered pairs, which dominates `_validate_star_triplet` at
    realistic n.
    """
    for (j, k), nok_jk in noks.items():
        if j >= k or j not in w_set or k not in w_set:
            continue
        nok_kj = noks.get((k, j))
        if nok_kj is None:
            continue
        if nok_jk[1] == nok_kj[1] and nok_jk[2] != nok_kj[2]:
            return True
    return False


def wps_time_bound(n: int, ts: int, delta: float) -> float:
    """T_WPS = 2Δ + 2·T_BC + T_BA (nominal, used for composition anchors)."""
    t_bc = bc_time_bound(n, ts, delta)
    t_ba = t_bc + aba_nominal_time_bound(delta)
    return 2.0 * delta + 2.0 * t_bc + t_ba + 8 * epsilon(delta)


class WeakPolynomialSharing(BivariateSharingMixin, ProtocolInstance):
    """One ΠWPS instance.

    Every party constructs the instance with the same ``tag``, ``dealer``,
    ``num_polynomials`` and ``anchor``; only the dealer supplies
    ``polynomials`` (possibly later, via :meth:`provide_input`).  The output
    is the list of L wps-shares, or remains unset if the (corrupt) dealer
    never completes the protocol.
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
        self.received_points: Dict[int, List] = {}
        self._points_sent = False
        self._ok_broadcast_done: Set[int] = set()
        self._verdicts: Dict[Tuple[int, int], Any] = {}
        self.graph = ConsistencyGraph(self.n)
        self._snapshot_graph: Optional[ConsistencyGraph] = None
        self._snapshot_noks: Dict[Tuple[int, int], Any] = {}
        self.accepted_star: Optional[Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]] = None
        self._ba: Optional[BestOfBothWorldsBA] = None
        self._ba_output: Optional[int] = None
        self._oec: Optional[BatchOnlineErrorCorrector] = None
        self._oec_sources: Optional[Set[int]] = None
        self._pending_star2: Optional[Tuple[FrozenSet[int], FrozenSet[int]]] = None
        self._row_values: Optional[List[List[FieldElement]]] = None
        self._dealer_grids: Dict[int, List[List[int]]] = {}

        # Broadcast endpoints (created in start()).
        self._ok_bc: Dict[Tuple[int, int], BroadcastProtocol] = {}
        self._star_bc: Optional[BroadcastProtocol] = None
        self._star2_bc: Optional[BroadcastProtocol] = None

    # -- timing helpers ----------------------------------------------------------
    @property
    def t_bc(self) -> float:
        return bc_time_bound(self.n, self.ts, self.delta)

    @property
    def time_bound(self) -> float:
        return wps_time_bound(self.n, self.ts, self.delta)

    # -- input ---------------------------------------------------------------------
    def provide_input(self, polynomials: List[Polynomial]) -> None:
        """Dealer-side: supply the L input polynomials (possibly after start)."""
        self.polynomials = polynomials
        if self.me == self.dealer and self.anchor is not None:
            self._dealer_distribute()

    # -- lifecycle ---------------------------------------------------------------------
    def start(self) -> None:
        if self.anchor is None:
            self.anchor = self.now
        eps = epsilon(self.delta)
        # Broadcast endpoints for every ordered pair's OK/NOK message.
        for i in self.party.all_party_ids():
            for j in self.party.all_party_ids():
                if i == j:
                    continue
                bc = self.spawn(
                    BroadcastProtocol,
                    f"ok[{i},{j}]",
                    sender=i,
                    faults=self.ts,
                    anchor=self.anchor + 2.0 * self.delta,
                    delta=self.delta,
                )
                self._ok_bc[(i, j)] = bc
                bc.on_delivery(lambda verdict, i=i, j=j: self._record_verdict(i, j, verdict))
        # Dealer's (W, E, F) broadcast.
        self._star_bc = self.spawn(
            BroadcastProtocol,
            "star",
            sender=self.dealer,
            faults=self.ts,
            anchor=self.anchor + 2.0 * self.delta + self.t_bc + 2 * eps,
            delta=self.delta,
        )
        # Dealer's (E', F') broadcast for the fallback (n, t_a)-star path.
        self._star2_bc = self.spawn(
            BroadcastProtocol,
            "star2",
            sender=self.dealer,
            faults=self.ts,
            anchor=self.anchor + self.time_bound,
            delta=self.delta,
        )
        for bc in self._ok_bc.values():
            bc.start()
        self._star_bc.start()
        self._star2_bc.start()

        if self.me == self.dealer and self.polynomials is not None:
            self._dealer_distribute()
        if self.me == self.dealer:
            self.schedule_at(
                self.anchor + 2.0 * self.delta + self.t_bc + 2 * eps, self._dealer_find_star
            )
        self.schedule_at(
            self.anchor + 2.0 * self.delta + self.t_bc + 3 * eps, self._take_snapshot
        )
        self.schedule_at(
            self.anchor + 2.0 * self.delta + 2.0 * self.t_bc + 4 * eps, self._accept_and_vote
        )

    # -- Phase I: dealer distributes rows ----------------------------------------------
    def _dealer_distribute(self) -> None:
        if self._bivariates is not None or self.polynomials is None:
            return
        self._bivariates = make_bivariates(self.field, self.polynomials, self.rng)
        ids = self.party.all_party_ids()
        for j, rows in zip(ids, rows_for_all_parties(self.field, self._bivariates, ids)):
            self.send(j, ("polys", PackedPolynomialRows.pack(self.field, rows)))

    # -- message handling -----------------------------------------------------------------
    def receive(self, sender: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "polys" and sender == self.dealer and self.my_rows is None:
            rows = unpack_rows(payload[1])
            if self._valid_rows(rows):
                self.my_rows = rows
                self._schedule_point_sending()
                self._schedule_ok_broadcasts()
        elif kind == "points":
            values = payload[1]
            if sender not in self.received_points and len(values) == self.num_polynomials:
                self.received_points[sender] = list(values)
                self._schedule_ok_broadcasts()
                self._feed_oec(sender)

    def _valid_rows(self, rows: Any) -> bool:
        if not isinstance(rows, list) or len(rows) != self.num_polynomials:
            return False
        return all(isinstance(row, Polynomial) and row.degree <= self.ts for row in rows)

    # -- Phase II: pair-wise point exchange ---------------------------------------------------
    def _schedule_point_sending(self) -> None:
        if self._points_sent or self.my_rows is None:
            return
        self._points_sent = True
        send_time = next_multiple_of_delta(self.now, self.delta)
        self.schedule_at(send_time, self._send_points)

    def _send_points(self) -> None:
        assert self.my_rows is not None
        table = self._my_row_values()
        for j in self.party.all_party_ids():
            if j == self.me:
                continue
            values = [row_values[j - 1] for row_values in table]
            self.send(j, ("points", values))

    # -- Phase III: publish pair-wise consistency results ---------------------------------------
    def _schedule_ok_broadcasts(self) -> None:
        if self.my_rows is None:
            return
        for j, values in self.received_points.items():
            if j in self._ok_broadcast_done or j == self.me:
                continue
            self._ok_broadcast_done.add(j)
            when = next_multiple_of_delta(self.now, self.delta)
            self.schedule_at(when, lambda j=j: self._broadcast_verdict(j))

    def _broadcast_verdict(self, j: int) -> None:
        assert self.my_rows is not None
        values = self.received_points[j]
        table = self._my_row_values()
        verdict: Any = (OK_VERDICT,)
        for index in range(len(self.my_rows)):
            expected = table[index][j - 1]
            if values[index] != expected:
                verdict = (NOK_VERDICT, index, expected)
                break
        self._ok_bc[(self.me, j)].provide_input(verdict)

    # -- consistency graph maintenance --------------------------------------------------------
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

    # -- snapshots at the phase boundaries --------------------------------------------------------
    def _regular_verdicts(self) -> Dict[Tuple[int, int], Any]:
        verdicts = {}
        for pair, bc in self._ok_bc.items():
            value = bc.output_via_regular_mode()
            if isinstance(value, tuple) and value:
                verdicts[pair] = value
        return verdicts

    def _take_snapshot(self) -> None:
        """Record the regular-mode consistency graph/NOKs at time 2Δ + T_BC."""
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
        # Remove parties whose regular-mode NOK reports a wrong common value.
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
        payload = (frozenset(w_set), star.e_set, star.f_set)
        self._star_bc.provide_input(payload)

    # -- acceptance check and ΠBA ------------------------------------------------------------------
    def _accept_and_vote(self) -> None:
        candidate = self._star_bc.output_via_regular_mode()
        accepted = False
        if candidate is not None and self._snapshot_graph is not None:
            accepted = self._validate_star_triplet(candidate, self._snapshot_graph, self._snapshot_noks)
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
        # No conflicting NOK pair inside W.
        if pairwise_nok_conflict(noks, w_set):
            return False
        # Degree conditions.
        for j in w_set:
            # A party is always consistent with itself, hence the +1 (the
            # honest parties may number exactly n - t_s).
            if graph.degree(j) + 1 < self.n - self.ts:
                return False
            if graph.degree_within(j, set(w_set)) + 1 < self.n - self.ts:
                return False
        # (E, F) must be an (n, t_s)-star of the induced subgraph G_i[W].
        star = Star(e_set, f_set)
        return verify_star(graph, star, self.ts, within=set(w_set))

    def _handle_ba_output(self, value: int) -> None:
        self._ba_output = value
        if value == 0:
            self._star_bc.on_delivery(self._compute_output_via_w)
        else:
            if self.me == self.dealer:
                self._dealer_try_star2()
            self._star2_bc.on_delivery(self._try_adopt_star2)

    # -- output through the (W, E, F) path -----------------------------------------------------------
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
        self._start_oec(f_set)

    # -- output through the (E', F') fallback path ------------------------------------------------------
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
            # Not yet a star in our own graph: retry on each graph update.
            self._pending_star2 = (e_set, f_set)
            return
        self._pending_star2 = None
        if self.me in f_set and self.my_rows is not None:
            self.set_output([row.constant_term() for row in self.my_rows])
            return
        self._start_oec(set(f_set))

    # -- OEC on the common points received from F / F' ---------------------------------------------------
    def _start_oec(self, sources: Set[int]) -> None:
        if self._oec is not None:
            return
        self._oec = BatchOnlineErrorCorrector(
            self.field, self.num_polynomials, self.ts, self.ts
        )
        self._oec_sources = sources
        for j in list(self.received_points):
            self._feed_oec(j)

    def _feed_oec(self, source: int) -> None:
        if self._oec_sources is None:
            return
        if source not in self._oec_sources or source not in self.received_points:
            return
        done = self._oec.add_row(self.field.alpha(source), self.received_points[source])
        if done and not self.has_output:
            self.set_output(self._oec.secrets())

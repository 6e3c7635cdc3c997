"""ΠWPS: the best-of-both-worlds weak polynomial-sharing protocol (Fig 3).

The dealer D embeds each of its L degree-t_s polynomials into a random
(t_s, t_s)-degree symmetric bivariate polynomial and hands every party its
univariate row.  Parties run pair-wise consistency checks whose results are
made public; the dealer looks for a "special" (n, t_s)-star (W, E, F) in the
resulting consistency graph, the parties agree through ΠBA on whether one
was accepted in time, and otherwise fall back to the asynchronous-style
(n, t_a)-star path.  The output of party P_i is its vector of wps-shares
[q^(1)(alpha_i), ..., q^(L)(alpha_i)].

Phase III as built: the verdict vector
--------------------------------------

Fig 3 (and Fig 4 for ΠVSS, which shares :class:`BivariateSharingMixin`)
publishes every OK/NOK through its own ΠBC, n(n-1) of them at one anchor.
Here P_i publishes all the verdicts it has determined by the ok anchor as
**one** ΠBC ``ok[i]`` whose value is an n-tuple (entry j: ``None`` for "no
verdict yet", ``("OK",)`` or ``("NOK", index, value)``), sent at that anchor
even if empty.  A verdict P_i determines later (late points or rows, the
asynchronous fallback) is slot j of ``ok[i]``'s entry of P_i's late carrier
flushed at the next multiple of Δ (:mod:`repro.broadcast.bc`: one numbered
Acast for all P_i gives late then, every sibling sharing's included) -- no
SBA, because a ΠBC input given after the anchor can only ever be delivered
through the fallback mode, which *is* the Acast output.  Receivers take
entries from the vector first and look at a late verdict on P_j only once
P_i's vector has been delivered (either mode) and lacks entry j.  The
snapshot at 2Δ + T_BC and the dealer's star search read the regular-mode
outputs of the n vector ΠBCs only.

Why Theorem 4.8 (Lemmas 4.2-4.7) and Theorem 4.16 (Lemmas 4.9-4.15) still
hold, as a reduction to the per-pair protocol.  Per slot, the first late
verdict in the late carriers' sequence order is what a per-pair Acast
``ok[i,j]`` would have output, and when (:mod:`repro.broadcast.bc`); call it
the late Acast.  The *effective* outcome of (i, j) at an honest party is the
vector's entry j, with the vector ΠBC's mode and delivery time, if present;
otherwise the late Acast's output, in fallback mode, at the later of its
hand-off and the vector's delivery.  The proofs use the ok[i,j] ΠBCs only
through (1)-(3), and (4) says the adversary gains nothing:

1. Honest P_i, synchronous network: every verdict determined by the anchor
   is an entry of the vector, regular-mode delivered to every honest party
   at anchor + T_BC (ΠBC t_s-validity, Theorem 3.5, with the vector as the
   broadcast value): what Lemmas 4.2 and 4.9 (honest dealer: the honest
   parties form a clique in every honest snapshot) rest on.
2. Honest P_i, any network: every verdict reaches every honest party --
   entries by ΠBC t_a-validity, late verdicts by Acast validity (Lemma 2.4)
   after a vector that always arrives.  Lemmas 4.3 and 4.10 (the honest
   clique eventually appears, so (E', F') is found) need only this.
3. Corrupt P_i: honest parties that obtain a verdict for (i, j) obtain the
   same one -- by ΠBC and Acast consistency, and the vector-first rule is a
   function of the common vector.  In synchrony regular-mode delivery of the
   vector is all-or-none at anchor + T_BC, and fallback deliveries and
   hand-offs lie within 2Δ of each other (Theorem 3.5, Lemma 2.4): the facts
   behind weak/strong commitment (Lemmas 4.4-4.6 and 4.12-4.14).
4. Each corrupt behaviour maps to a per-pair one with the same effective
   outcomes: present entries are inputs given on time, absent ones with a
   late verdict inputs given late, a withheld or malformed vector no input
   at all (its late verdicts are never looked at), a late verdict against a
   present entry a second input to one ΠBC, and any use of the late
   carriers a per-pair Acast given one value or none.  A vector reveals
   exactly the verdicts the per-pair broadcasts reveal.

``star2`` -- the dealer's (E', F') for the (n, t_a)-star path -- is not a
ΠBC: it is sent after ΠBA output 1 and consumed on delivery in either mode;
Lemmas 4.3/4.10 use its Acast's validity, the commitment lemmas its
consistency (Lemma 2.4), and none a regular-mode output.  It rides the
dealer's late carriers as the entry of its ``star`` ΠBC, the first
well-formed one counting.  What the ΠBC also gave is kept: a delivery is
acted on no earlier than anchor + T + T_BC (T this sharing's time bound;
:meth:`BivariateSharingMixin._star2_delivered`), so a sharing on this path
outputs exactly when it did.  ΠVSS Phase III leans on that: its ok anchor is
its ΠWPS children's anchor + T_WPS, so a child on the ``star2`` path outputs
after it at *every* honest party and the verdicts on its wps-shares travel
late everywhere -- never in the vector at one honest party and late at
another, a split that would be sound (fact 3) but decided by a wall-clock
race under a real clock.

The ΠBA of a sharing is one slot of a :class:`~repro.ba.bobw.BestOfBothWorldsBA`
bank, shared with its siblings where something spawns n sharings at one
anchor (the ΠWPS instances of a ΠVSS, the ΠVSS instances of a ΠACS); the
argument for Theorem 3.6 is in the :mod:`repro.ba.bobw` docstring.  Every
ΠBC named here is a logical one: the vectors, stars and vote vectors a party
owes at one instant ride one run of Fig 1 (:mod:`repro.broadcast.bc`, where
the argument for Theorem 3.5 is), so whoever publishes *at* an anchor does so
through :meth:`~repro.broadcast.bc.BroadcastProtocol.at_anchor`.

All payloads from other parties pass one total parser
(:meth:`BivariateSharingMixin._parse_verdict`, ``_vector_entries``,
``_parse_star``): a verdict is ``("OK",)`` or ``("NOK", index in range(L),
element of this field)``, a star payload a tuple of the right arity of
party-id sets; anything else is "absent", a vector of the wrong length or
type -- a late carrier's entry included -- the empty vector.

Phases I-II as built: one post per root
---------------------------------------

Fig 3 (and Fig 4) sends each row and each pair's points as a message of its
own.  Here every ΠWPS and ΠVSS under one root instance (the first component
of its tag) hands its point-to-point sends to the :class:`SharingPost`
``<root>/post``, and what a party owes one peer at one instant leaves as one
message: a tuple of lines ``(kind, vector)``, one per kind (``"polys"``,
``"points"``), each vector positional over the root's sharings in sorted tag
order with ``None`` where a sharing sent nothing.  A receiver hands entry p
of a line to sharing p as the message ``(kind, value)`` from that sender, so
the sharing's own checks (the sender is the dealer, the rows are valid, there
are L points) still judge every entry.  Theorems 4.8 and 4.16 hold sharing by
sharing, as a reduction to separate messages:

1. Honest sender.  The entries of its post messages are, over the run,
   exactly the messages its sharings send, each once, each to its recipient.
   Entries arriving together is a schedule the asynchronous adversary could
   impose anyway, and in a synchronous network each still arrives within Δ
   of being sent: the post flushes in a timer at the instant of the sends
   (an instant's sends come from the start cascade or from timers that a
   delivery queued, and deliveries run before timers, so the one flush sees
   all of them).  A second word for the same (recipient, kind, sharing) in one
   instant flushes the first: a message more, never a merge.
2. Corrupt sender.  Any message is, entry by entry, messages it could have
   sent on the separate sharings; a payload that is not a tuple of ``(str,
   tuple of the root's width)`` lines is nothing sent in any slot.
3. Same instants: the post is a :class:`~repro.sim.party.Post` frozen at
   the instant it is built, the root's start cascade, where every sharing
   under it is built.  A self-send skips the post: self-delivery stays local.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ba.aba import aba_nominal_time_bound
from repro.ba.bobw import BASlot, BestOfBothWorldsBA
from repro.broadcast.acast import PackedFieldVector
from repro.broadcast.bc import BroadcastProtocol, bc_time_bound
from repro.codes.oec import BatchOnlineErrorCorrector
from repro.field.array import batch_evaluate
from repro.field.bivariate import BatchSymmetricBivariate
from repro.field.gf import FieldElement
from repro.field.polynomial import Polynomial
from repro.graph.consistency import ConsistencyGraph
from repro.graph.star import find_star, verify_star, Star
from repro.sim.party import Party, Post, ProtocolInstance
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


def mutually_ok(verdicts, i: int, j: int) -> bool:
    """Whether P_i and P_j each published OK for the other (an edge)."""
    other = verdicts.get((j, i))
    return other is not None and other[0] == OK_VERDICT == verdicts[(i, j)][0]


def wps_time_bound(n: int, ts: int, delta: float) -> float:
    """T_WPS = 2Δ + 2·T_BC + T_BA (nominal, used for composition anchors)."""
    t_bc = bc_time_bound(n, ts, delta)
    t_ba = t_bc + aba_nominal_time_bound(delta)
    return 2.0 * delta + 2.0 * t_bc + t_ba + 8 * epsilon(delta)


class SharingPost(Post):
    """The ΠWPS/ΠVSS under one root (its members, frozen where it is built):
    what a party owes one peer at one instant, one message (module docstring)."""

    def hand(self, sharing: Any, sender: int, kind: str, value: Any) -> None:
        sharing.receive(sender, (kind, value))


class BivariateSharingMixin:
    """What ΠWPS and ΠVSS share: Phase I, and Phases III-V on the verdicts.

    Every party constructs the instance with the same ``tag``, ``dealer``,
    ``num_polynomials`` and ``anchor``; only the dealer supplies
    ``polynomials`` (possibly later, via ``provide_input``).  ``ba`` is the
    slot this sharing votes in when whoever spawned it and its siblings
    banks their ΠBAs (anchored at :meth:`vote_anchor_at`); a sharing run on
    its own makes a 1-slot bank.  The host protocol adds its Phase II and
    supplies ``time_bound``, ``ok_anchor_at`` (the common local time at
    which verdict vectors are published), ``_evidence`` (j -> the values
    P_j's row is checked against: its common points in ΠWPS, its wps-shares
    in ΠVSS) and ``_recover_from(sources)`` (the output computation of a
    party outside W / F').
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
        ba: Optional[BASlot] = None,
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
        self._dealer_grids: Dict[int, List[List[int]]] = {}
        self._star2_sent = False

        # Receiver-side state.
        self.my_rows: Optional[List[Polynomial]] = None
        self._row_values: Optional[List[List[FieldElement]]] = None
        self._vector_sent = False
        self._published: Set[int] = set()
        self._vectors_seen: Set[int] = set()
        self._verdicts: Dict[Tuple[int, int], Any] = {}
        self.graph = ConsistencyGraph(self.n)
        self._snapshot_graph: Optional[ConsistencyGraph] = None
        self._snapshot_noks: Dict[Tuple[int, int], Any] = {}
        self.accepted_star: Optional[Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]] = None
        self._ba = ba
        self._ba_output: Optional[int] = None
        self._star2_waits = False  # (E', F') is due but not yet a star of my graph

        # Broadcast endpoints (created in _start_broadcasts()), and what their
        # late carriers delivered: i -> j -> P_i's late verdict on P_j, the first
        # well-formed one in sequence order; the dealer's first (E', F').
        self._ok_bc: Dict[int, BroadcastProtocol] = {}
        self._star_bc: Optional[BroadcastProtocol] = None
        self._late_verdicts: Dict[int, Dict[int, Tuple]] = {}
        self._star2: Optional[Tuple[FrozenSet[int], FrozenSet[int]]] = None
        self._post = SharingPost.at(party, f"{tag.partition('/')[0]}/post", party.now)
        self._post.join(self)

    def send(self, recipient: int, payload: Any) -> None:
        """Phases I-II: a self-send stays local, any other rides the root's post."""
        if recipient == self.me:
            super().send(recipient, payload)
        else:
            self._post.put(recipient, self.tag, payload)

    def receive(self, sender: int, payload: Any) -> None:
        """Phases I-II: ``(kind, value)`` -- an entry of a post message, a
        self-send or a peer's message on this tag; anything else is nothing."""
        if type(payload) is tuple and len(payload) == 2:
            self._handle(sender, *payload)

    @property
    def t_bc(self) -> float:
        return bc_time_bound(self.n, self.ts, self.delta)

    @classmethod
    def vote_anchor_at(cls, anchor: float, n: int, ts: int, delta: float) -> float:
        """When a sharing anchored at ``anchor`` votes in its ΠBA: both rounds of
        ΠBC (verdict vectors, then the dealer's star) have decided."""
        ok_anchor = cls.ok_anchor_at(anchor, n, ts, delta)
        return ok_anchor + 2.0 * bc_time_bound(n, ts, delta) + 4 * epsilon(delta)

    def _start_broadcasts(self) -> None:
        """Spawn and start the Phase III-V endpoints and their evaluation timers."""
        eps = epsilon(self.delta)
        ok_anchor = self.ok_anchor_at(self.anchor, self.n, self.ts, self.delta)
        for i in self.party.all_party_ids():  # P_i's verdict vector
            bc = self._ok_bc[i] = self.spawn(
                BroadcastProtocol, f"ok[{i}]", sender=i, faults=self.ts,
                anchor=ok_anchor, delta=self.delta,
            )
            bc.on_delivery(lambda vector, i=i: self._record_vector(i, vector))
            bc.on_late(lambda entry, i=i: self._record_late_verdicts(i, entry))
        # Dealer's (W, E, F) broadcast; its late entry is (E', F').
        self._star_bc = self.spawn(
            BroadcastProtocol, "star", sender=self.dealer, faults=self.ts,
            anchor=ok_anchor + self.t_bc + 2 * eps, delta=self.delta,
        )
        self._star_bc.on_late(self._star2_arrived)
        for endpoint in (*self._ok_bc.values(), self._star_bc):
            endpoint.start()
        if self._ba is None:
            bank = self.spawn(
                BestOfBothWorldsBA, "ba", faults=self.ts, delta=self.delta,
                anchor=self.vote_anchor_at(self.anchor, self.n, self.ts, self.delta),
            )
            bank.start()
            self._ba = bank.slots[0]
        self._ba.bank.at_anchor(self._accept_and_vote)
        self._ba.on_output(self._handle_ba_output)
        # Inside the carriers' anchor timers, queued by the first ΠBC started for
        # that instant: after every delivery of the instant (messages precede
        # timers) and before any timer such a delivery queues.
        self._ok_bc[self.me].at_anchor(self._publish_vector)
        if self.me == self.dealer:
            self._star_bc.at_anchor(self._dealer_find_star)
        self.schedule_at(ok_anchor + self.t_bc + 3 * eps, self._take_snapshot)

    # -- Phase I: dealer distributes rows ----------------------------------------------
    def _dealer_distribute(self) -> None:
        if self._bivariates is not None or self.polynomials is None:
            return
        self._bivariates = make_bivariates(self.field, self.polynomials, self.rng)
        ids = self.party.all_party_ids()
        for j, rows in zip(ids, rows_for_all_parties(self.field, self._bivariates, ids)):
            self.send(j, ("polys", PackedPolynomialRows.pack(self.field, rows)))

    def _valid_rows(self, rows: Any) -> bool:
        if not isinstance(rows, list) or len(rows) != self.num_polynomials:
            return False
        return all(isinstance(row, Polynomial) and row.degree <= self.ts for row in rows)

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

    # -- Phase III: publish pair-wise consistency results ---------------------------------------
    def _verdict_on(self, j: int) -> Tuple:
        """OK, or NOK with the first index where P_j's evidence leaves my rows."""
        values = self._evidence[j]
        table = self._my_row_values()
        for index in range(self.num_polynomials):
            expected = table[index][j - 1]
            if index >= len(values) or values[index] != expected:
                return (NOK_VERDICT, index, expected)
        return (OK_VERDICT,)

    def _take_unpublished(self) -> List[int]:
        """The parties I can judge now and have not yet; marks them published."""
        if self.my_rows is None:
            return []
        fresh = [j for j in self._evidence if j != self.me and j not in self._published]
        self._published.update(fresh)
        return fresh

    def _publish_vector(self) -> None:
        """At the ok anchor: every verdict determined so far rides one ΠBC."""
        entries: List[Any] = [None] * self.n
        for j in self._take_unpublished():
            entries[j - 1] = self._verdict_on(j)
        self._vector_sent = True
        self._ok_bc[self.me].provide_input(tuple(entries))

    def _publish_late_verdicts(self) -> None:
        """New evidence or rows: past the anchor, a verdict is slot j of my
        vector's entry of the late carrier flushed at the next multiple of Δ."""
        if not self._vector_sent:
            return
        when = next_multiple_of_delta(self.now, self.delta)
        for j in self._take_unpublished():
            self._ok_bc[self.me].give_late(self._verdict_on(j), slot=j, at=when)

    # -- the trust boundary: one total parser for what other parties publish -------------------
    def _parse_verdict(self, value: Any) -> Optional[Tuple]:
        if not isinstance(value, tuple):
            return None
        if value == (OK_VERDICT,):
            return value
        if (
            len(value) == 3 and value[0] == NOK_VERDICT
            and type(value[1]) is int and 0 <= value[1] < self.num_polynomials
            and isinstance(value[2], FieldElement)
            and value[2].field.modulus == self.field.modulus
        ):
            return value
        return None

    def _vector_entries(self, i: int, vector: Any) -> Dict[Tuple[int, int], Tuple]:
        """``(i, j) -> verdict`` for the well-formed entries of P_i's vector."""
        if not isinstance(vector, tuple) or len(vector) != self.n:
            return {}
        entries = {}
        for j, value in enumerate(vector, 1):
            verdict = self._parse_verdict(value)
            if verdict is not None and j != i:
                entries[(i, j)] = verdict
        return entries

    def _parse_star(self, candidate: Any, arity: int) -> Optional[Tuple[FrozenSet[int], ...]]:
        """A dealer's (W, E, F) or (E', F') as frozensets of party ids, or None."""
        if not isinstance(candidate, tuple) or len(candidate) != arity:
            return None
        if not all(
            isinstance(part, (set, frozenset))
            and all(type(v) is int and 1 <= v <= self.n for v in part)
            for part in candidate
        ):
            return None
        return tuple(frozenset(part) for part in candidate)

    # -- consistency graph maintenance --------------------------------------------------------
    def _record_vector(self, i: int, vector: Any) -> None:
        """P_i's vector is delivered: its entries, then the late verdicts it lacks."""
        self._vectors_seen.add(i)
        for (_, j), verdict in self._vector_entries(i, vector).items():
            self._record_verdict(i, j, verdict)
        late = self._late_verdicts.get(i, {})
        for j in sorted(late):
            self._record_verdict(i, j, late[j])

    def _record_late_verdicts(self, i: int, entry: Any) -> None:
        """P_i's entry of a late carrier, a partial verdict vector: per slot the
        first well-formed verdict in sequence order counts, and waits for P_i's
        vector (vector first: see _record_vector)."""
        late = self._late_verdicts.setdefault(i, {})
        for (_, j), verdict in self._vector_entries(i, entry).items():
            if j not in late:
                late[j] = verdict
                if i in self._vectors_seen:
                    self._record_verdict(i, j, verdict)

    def _record_verdict(self, i: int, j: int, verdict: Tuple) -> None:
        if (i, j) in self._verdicts:
            return
        self._verdicts[(i, j)] = verdict
        if mutually_ok(self._verdicts, i, j):
            self.graph.add_edge(i, j)
            self._on_graph_update()

    def _on_graph_update(self) -> None:
        if self._ba_output == 1:
            if self.me == self.dealer:
                self._dealer_try_star2()
            if self._star2_waits:
                self._try_adopt_star2()

    # -- snapshots at the phase boundaries --------------------------------------------------------
    def _regular_snapshot(self) -> Tuple[ConsistencyGraph, Dict[Tuple[int, int], Tuple]]:
        """Consistency graph and verdicts of the vectors delivered in regular mode."""
        verdicts: Dict[Tuple[int, int], Tuple] = {}
        for i, bc in self._ok_bc.items():
            verdicts.update(self._vector_entries(i, bc.output_via_regular_mode()))
        graph = ConsistencyGraph(self.n)
        for i, j in verdicts:
            if mutually_ok(verdicts, i, j):
                graph.add_edge(i, j)
        return graph, verdicts

    def _take_snapshot(self) -> None:
        """Record the regular-mode consistency graph/NOKs at the ok anchor + T_BC."""
        self._snapshot_graph, verdicts = self._regular_snapshot()
        self._snapshot_noks = {
            pair: verdict for pair, verdict in verdicts.items() if verdict[0] == NOK_VERDICT
        }

    # -- Phase IV: dealer computes (W, E, F) --------------------------------------------------------
    def _dealer_find_star(self) -> None:
        if self._bivariates is None:
            return
        graph, verdicts = self._regular_snapshot()
        # Remove parties whose regular-mode NOK reports a wrong common value.
        for (i, j), verdict in verdicts.items():
            if verdict[0] == NOK_VERDICT and verdict[2] != self._dealer_expected_common_value(
                verdict[1], j, i
            ):
                graph.remove_vertex_edges(i)
        w_set = graph.iterated_degree_prune(self.n - self.ts)
        if not w_set:
            return
        star = find_star(graph, self.ts, within=w_set)
        if star is None:
            return
        self._star_bc.provide_input((frozenset(w_set), star.e_set, star.f_set))

    # -- acceptance check and ΠBA ------------------------------------------------------------------
    def _accept_and_vote(self) -> None:
        candidate = self._parse_star(self._star_bc.output_via_regular_mode(), 3)
        accepted = (
            candidate is not None
            and self._snapshot_graph is not None
            and self._validate_star_triplet(candidate, self._snapshot_graph, self._snapshot_noks)
        )
        if accepted:
            self.accepted_star = candidate
        self._ba.provide_input(0 if accepted else 1)

    def _validate_star_triplet(
        self,
        candidate: Tuple[FrozenSet[int], ...],
        graph: ConsistencyGraph,
        noks: Dict[Tuple[int, int], Any],
    ) -> bool:
        w_set, e_set, f_set = candidate
        if not (e_set <= f_set <= w_set):
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
        return verify_star(graph, Star(e_set, f_set), self.ts, within=set(w_set))

    def _handle_ba_output(self, value: int) -> None:
        self._ba_output = value
        if value == 0:
            self._star_bc.on_delivery(self._compute_output_via_w)
        else:
            if self.me == self.dealer:
                self._dealer_try_star2()
            self._star2_delivered()

    # -- output through the (W, E, F) path -----------------------------------------------------------
    def _compute_output_via_w(self, candidate: Any) -> None:
        candidate = self._parse_star(candidate, 3)
        if self.has_output or self._ba_output != 0 or candidate is None:
            return
        w_set, _e_set, f_set = candidate
        if self.me in w_set and self.my_rows is not None:
            self.set_output([row.constant_term() for row in self.my_rows])
            return
        self._recover_from(set(f_set))

    # -- output through the (E', F') fallback path ------------------------------------------------------
    def _dealer_try_star2(self) -> None:
        if self._star2_sent or self.me != self.dealer:
            return
        star = find_star(self.graph, self.ta)
        if star is None:
            return
        self._star2_sent = True
        self._star_bc.give_late((star.e_set, star.f_set))

    def _star2_arrived(self, entry: Any) -> None:
        """The dealer's entry of a late carrier: the first well-formed one counts."""
        if self._star2 is None:
            self._star2 = self._parse_star(entry, 2)
            self._star2_delivered()

    def _star2_delivered(self) -> None:
        """Hold an early (E', F') until the ΠBC it replaced would have delivered
        (and until ΠBA has said 1: _handle_ba_output comes back for it)."""
        if self._ba_output != 1 or self._star2 is None:
            return
        due = self.anchor + self.time_bound + self.t_bc
        if self.now < due:
            self.schedule_at(due, self._try_adopt_star2)
        else:
            self._try_adopt_star2()

    def _try_adopt_star2(self) -> None:
        if self.has_output:
            return
        e_set, f_set = self._star2
        # Not yet a star in our own graph: retry on each graph update.
        self._star2_waits = not verify_star(self.graph, Star(e_set, f_set), self.ta)
        if self._star2_waits:
            return
        if self.me in f_set and self.my_rows is not None:
            self.set_output([row.constant_term() for row in self.my_rows])
            return
        self._recover_from(set(f_set))


class WeakPolynomialSharing(BivariateSharingMixin, ProtocolInstance):
    """One ΠWPS instance (constructor: see :class:`BivariateSharingMixin`).

    The output is the list of L wps-shares, or remains unset if the (corrupt)
    dealer never completes the protocol.
    """

    def __init__(self, party: Party, tag: str, *args, **kwargs):
        super().__init__(party, tag, *args, **kwargs)
        self.received_points: Dict[int, List] = {}
        self._points_sent = False
        self._oec: Optional[BatchOnlineErrorCorrector] = None
        self._oec_sources: Optional[Set[int]] = None

    # -- timing helpers ----------------------------------------------------------
    @property
    def time_bound(self) -> float:
        return wps_time_bound(self.n, self.ts, self.delta)

    @staticmethod
    def ok_anchor_at(anchor: float, n: int, ts: int, delta: float) -> float:
        return anchor + 2.0 * delta

    @property
    def _evidence(self) -> Dict[int, List]:
        return self.received_points

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
        self._start_broadcasts()
        if self.me == self.dealer:
            self._dealer_distribute()

    # -- message handling -----------------------------------------------------------------
    def _handle(self, sender: int, kind: Any, value: Any) -> None:
        if kind == "polys" and sender == self.dealer and self.my_rows is None:
            rows = unpack_rows(value)
            if self._valid_rows(rows):
                self.my_rows = rows
                self._schedule_point_sending()
                self._publish_late_verdicts()
        elif kind == "points":
            if (sender not in self.received_points and isinstance(value, (list, tuple))
                    and len(value) == self.num_polynomials):
                self.received_points[sender] = list(value)
                self._publish_late_verdicts()
                self._feed_oec(sender)

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

    # -- OEC on the common points received from F / F' ---------------------------------------------------
    def _recover_from(self, sources: Set[int]) -> None:
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

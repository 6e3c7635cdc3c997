"""ΠPreProcessing: the best-of-both-worlds preprocessing phase (Fig 10 / Thm 6.5).

Every party acts as a ΠTripSh dealer so that L multiplication triples are
shared on its behalf; a bank of n ΠBA instances
(:class:`~repro.ba.bobw.CommonSubsetBA`) fixes a common subset CS of
exactly n - t_s triple providers; and L instances of ΠTripExt squeeze out
c_M random t_s-shared multiplication triples that no party (and hence no
adversary) knows.

Round sharding
--------------

With ``shard_size`` set, the L triples per dealer are split into
``ceil(L / shard_size)`` *rounds*: each round runs one bounded ΠTripSh
instance per dealer (at most ``shard_size`` triples), anchored one
T_TripSh after the previous round -- the dealer row distribution defers to
that anchor (see ``VerifiableSecretSharing._distribute_at_anchor``) -- so
no protocol round ever carries more than a ``shard_size``-bounded triple
payload: the heaviest *triple-sharing* message drops from O(L·t_s²) to
O(shard_size·t_s²) field elements in *every* round (see
:func:`repro.analysis.metrics.sharded_triple_message_bound` and the
per-round accounting in :class:`repro.sim.simulator.SimulationMetrics`).
The heaviest message overall is the larger of that and a carrier's message,
a broadcast bundle or a ΠABA vector
(:func:`repro.analysis.metrics.bundle_message_bound`), which grows with n and
the number of sibling ΠVSS per instant and which no ``shard_size`` lowers:
at n = 4 with ``shard_size=1``, 896 bits (the bundle of the 96 verdict
vectors a party publishes at one instant) against 1,202 for the triple
payload.
The price is ~``num_shards``× latency and more aggregate control traffic
(each round runs its own ΠACS/ΠBC banks): sharding bounds the per-round
payload burst, not the total bandwidth.  Extraction proceeds per shard:
once CS is fixed and every CS dealer's shard ``s`` has delivered locally,
its ΠTripExt instances start and the shard's stored outputs are released
-- with straggling dealers (asynchronous fallback delivery) early shards
extract while late shards are still in flight, and the raw bank of a
consumed shard is never retained.  With ``shard_size=None`` (the default)
the protocol is exactly the unsharded original, tags and anchors included.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.ba.aba import aba_nominal_time_bound
from repro.ba.bobw import CommonSubsetBA
from repro.broadcast.bc import bc_time_bound
from repro.sim.party import Party, ProtocolInstance
from repro.timing import epsilon, next_multiple_of_delta
from repro.triples.extraction import TripleExtraction
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


def shard_bounds(per_dealer: int, shard_size: Optional[int]) -> List[Tuple[int, int]]:
    """The [lo, hi) triple-index ranges of each sharding round.

    ``shard_size=None`` keeps the whole bank in one round (the unsharded
    original); otherwise every round holds at most ``shard_size`` triples.
    """
    if shard_size is None:
        return [(0, per_dealer)]
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    return [
        (lo, min(lo + shard_size, per_dealer))
        for lo in range(0, per_dealer, shard_size)
    ]


def auto_shard_size(
    n: int,
    ts: int,
    c_m: int,
    element_bits: int,
    bandwidth_budget: int,
    offline: str = "tripsh",
) -> Optional[int]:
    """Largest ``shard_size`` whose per-round triple message fits the budget.

    ``bandwidth_budget`` caps the heaviest single message (in bits) any
    protocol round may carry, per
    :func:`repro.analysis.metrics.sharded_triple_message_bound`.  The bound
    -- and the unit ``shard_size`` counts -- is offline-mode-aware: triples
    per dealer for the ΠTripSh pipeline, slots for the HIM pipeline (whose
    per-round payload shape is 7 polynomials per slot instead of
    3·(2t_s+1) per triple).  Returns ``None`` (unsharded) when the whole
    bank already fits -- sharding only costs latency, so the largest
    admissible shard is always preferred -- and clamps to 1 when even a
    single unit per round exceeds the budget (the protocol cannot subdivide
    further).
    """
    from repro.analysis.metrics import sharded_triple_message_bound

    check_offline_mode(offline)
    if offline == "him":
        from repro.triples.him import him_slots

        per_round_units = him_slots(n, ts, c_m)
    else:
        per_round_units = triples_per_dealer(n, ts, c_m)
    # The bound is affine in shard_size, so invert it in closed form:
    # bound(s) = s * bits_per_unit + slack.
    slack = sharded_triple_message_bound(0, ts, element_bits, offline=offline)
    bits_per_unit = (
        sharded_triple_message_bound(1, ts, element_bits, offline=offline) - slack
    )
    size = (bandwidth_budget - slack) // bits_per_unit
    if size >= per_round_units:
        return None
    return max(int(size), 1)


def preprocessing_time_bound(
    n: int,
    ts: int,
    delta: float,
    shard_size: Optional[int] = None,
    c_m: int = 1,
    offline: str = "tripsh",
) -> float:
    """T_TripGen = last-round offset + T_TripSh + 2·T_BA + Δ (nominal).

    The unsharded protocol has one ΠTripSh round; with ``shard_size`` set
    the rounds run back to back on Δ-grid-aligned anchors, trading latency
    for bounded per-round bandwidth.  With ``offline="him"`` the bound is
    the HIM pipeline's (see :func:`repro.triples.him.him_preprocessing_time_bound`).
    """
    check_offline_mode(offline)
    if offline == "him":
        from repro.triples.him import him_preprocessing_time_bound

        return him_preprocessing_time_bound(
            n, ts, delta, shard_size=shard_size, c_m=c_m
        )
    t_ba = bc_time_bound(n, ts, delta) + aba_nominal_time_bound(delta)
    rounds = len(shard_bounds(triples_per_dealer(n, ts, c_m), shard_size))
    t_tripsh = triple_sharing_time_bound(n, ts, delta)
    eps = epsilon(delta)
    last_offset = (
        0.0
        if rounds == 1
        else next_multiple_of_delta((rounds - 1) * (t_tripsh + 2 * eps), delta)
    )
    return last_offset + t_tripsh + eps + 2.0 * t_ba + delta + 8 * eps


class Preprocessing(ProtocolInstance):
    """One ΠPreProcessing instance generating at least ``num_triples`` triples.

    The output is the list of this party's shares of the generated
    multiplication triples (at least ``num_triples`` of them, possibly a few
    more because the extraction yield is a whole number per instance).
    ``shard_size`` bounds how many triples any single ΠTripSh round carries
    (None = unsharded).

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
        shard_size: Optional[int] = None,
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
        self.shard_size = shard_size
        self._shard_bounds = shard_bounds(self.per_dealer, shard_size)
        self.num_shards = len(self._shard_bounds)

        self._tripsh: Dict[Tuple[int, int], TripleSharing] = {}
        #: dealer -> shard index -> that shard's triple-share outputs.
        self._tripsh_outputs: Dict[int, Dict[int, List[TripleShares]]] = {}
        #: dealer -> number of shards delivered (survives the streaming pops).
        self._shards_received: Dict[int, int] = {}
        self._ba: Optional[CommonSubsetBA] = None
        self.common_subset: Optional[List[int]] = None
        self._extracted_shards: Set[int] = set()
        self._extraction_outputs: Dict[int, List[TripleShares]] = {}

    # -- lifecycle -----------------------------------------------------------------
    def _round_offset(self, shard: int) -> float:
        """Start offset of sharding round ``shard``, aligned to the Δ grid.

        Each round is a pure time-translate of a fresh ΠTripSh execution,
        so the offset must be an exact multiple of Δ: the sub-protocols
        snap their message sends to multiples of Δ while their deadlines
        ride on the (epsilon-nudged) anchor, and an off-grid anchor would
        let sends drift up to a full Δ past the regular-mode deadlines.
        """
        if shard == 0:
            return 0.0
        eps = epsilon(self.delta)
        t_tripsh = triple_sharing_time_bound(self.n, self.ts, self.delta)
        return next_multiple_of_delta(shard * (t_tripsh + 2 * eps), self.delta)

    def start(self) -> None:
        if self.anchor is None:
            self.anchor = self.now
        eps = epsilon(self.delta)
        t_tripsh = triple_sharing_time_bound(self.n, self.ts, self.delta)
        for j in self.party.all_party_ids():
            for s, (lo, hi) in enumerate(self._shard_bounds):
                # The unsharded protocol keeps its original tags/anchors.
                tag = f"tripsh[{j}]" if self.shard_size is None else f"tripsh[{j}][{s}]"
                tripsh = self.spawn(
                    TripleSharing,
                    tag,
                    dealer=j,
                    ts=self.ts,
                    ta=self.ta,
                    num_triples=hi - lo,
                    anchor=self.anchor + self._round_offset(s),
                    delta=self.delta,
                )
                self._tripsh[(j, s)] = tripsh
                tripsh.on_output(
                    lambda out, j=j, s=s: self._tripsh_completed(j, s, out)
                )
        t_all_shards = self._round_offset(self.num_shards - 1) + t_tripsh + eps
        self._ba = self.spawn(
            CommonSubsetBA, "ba", faults=self.ts, delta=self.delta,
            anchor=self.anchor + t_all_shards,
        )
        self._ba.on_output(lambda _decisions: self._maybe_extract())
        for tripsh in self._tripsh.values():
            tripsh.start()
        self._ba.start()

    # -- phase II: agree on the triple providers ----------------------------------------
    def _tripsh_completed(
        self, dealer: int, shard: int, output: List[TripleShares]
    ) -> None:
        # Outputs of dealers outside an already-fixed CS are never read:
        # count them (for the voting bookkeeping) but do not retain them.
        if self.common_subset is None or dealer in self.common_subset:
            self._tripsh_outputs.setdefault(dealer, {})[shard] = output
        self._shards_received[dealer] = self._shards_received.get(dealer, 0) + 1
        if self._shards_received[dealer] == self.num_shards:
            self._ba.candidate_completed(dealer)
        self._maybe_extract()

    # -- phase III: streaming per-shard extraction --------------------------------------
    def _maybe_extract(self) -> None:
        if self.has_output or not self._ba.has_output:
            return
        if self.common_subset is None:
            self.common_subset = self._ba.accepted()[: self.n - self.ts]
            # Streaming: non-CS dealers' banks will never be consulted.
            for dealer in list(self._tripsh_outputs):
                if dealer not in self.common_subset:
                    del self._tripsh_outputs[dealer]
        if not self.common_subset:
            # Can only happen outside the paper's threat model (e.g. an
            # asynchronous network with more than t_a corruptions); there is
            # nothing sound to extract from.
            return
        d = (len(self.common_subset) - 1) // 2
        providers = self.common_subset[: 2 * d + 1]
        for s, (lo, hi) in enumerate(self._shard_bounds):
            if s in self._extracted_shards:
                continue
            # Extraction of a shard waits for the whole common subset (not
            # just the 2d+1 providers), exactly like the unsharded original.
            if not all(s in self._tripsh_outputs.get(j, {}) for j in self.common_subset):
                continue
            self._extracted_shards.add(s)
            for index in range(lo, hi):
                triples = [
                    self._tripsh_outputs[j][s][index - lo] for j in providers
                ]
                extraction = self.spawn(
                    TripleExtraction, f"ext[{index}]", ts=self.ts, d=d, triples=triples
                )
                extraction.on_output(
                    lambda out, index=index: self._extraction_completed(index, out)
                )
                extraction.start()
            # Streaming: the shard's raw outputs are consumed; drop them so
            # the full bank is never materialized at once.
            for j in self.common_subset:
                self._tripsh_outputs[j].pop(s, None)

    def _extraction_completed(self, index: int, output: List[TripleShares]) -> None:
        self._extraction_outputs[index] = output
        if (
            len(self._extraction_outputs) == self.per_dealer
            and len(self._extracted_shards) == self.num_shards
            and not self.has_output
        ):
            triples: List[TripleShares] = []
            for position in sorted(self._extraction_outputs):
                triples.extend(self._extraction_outputs[position])
            self.set_output(triples)

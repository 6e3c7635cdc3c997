"""The long-lived MPC service (the ``service`` marker).

Covers the service layer end to end on the deterministic sim backend:

* reservoir watermark arithmetic (deposit/take/truncate/restore),
* snapshot wire-codec roundtrips and the format-version gate,
* the headline robustness property -- **checkpoint→restore continues
  bit-identically** to the uninterrupted run (same outputs, same message
  counts, same rng states, same clock),
* crash-rejoin recovery: a party crashes mid-preprocessing, the stream keeps
  running degraded, the party rejoins from the latest snapshot, and the
  post-rejoin outputs equal the uninterrupted seeded run's,
* explicit degradation: backpressure, rejoin timeout (re-crash), refusing
  non-degraded streams, and the engine-level unknown-party-id validation,
* stream hygiene: finished evaluations and landed refill rounds leave every
  party, and no message arrives for a root it no longer holds.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.circuits import multiplication_circuit
from repro.field import default_field
from repro.mpc import run_mpc
from repro.mpc.engine import CircuitEvaluationFactory
from repro.runtime.wire import encode_payload
from repro.service import (
    BackpressureError,
    MpcService,
    PartialResultError,
    PartyCrashedError,
    RejoinTimeoutError,
    ReservoirDrainedError,
    ServiceClosedError,
    ServiceConfig,
    ServiceSnapshot,
    SnapshotVersionError,
    TripleReservoir,
)
from repro.sim.party import Party

from protocol_helpers import SLOT_TAG

pytestmark = pytest.mark.service

FIELD = default_field()


def small_config(**overrides) -> ServiceConfig:
    """Low watermarks so tests exercise refills without big preprocessing."""
    defaults = dict(low_watermark=2, high_watermark=6)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def product_circuit(n: int = 4):
    return multiplication_circuit(FIELD, n)


INPUTS = {1: 3, 2: 5, 3: 7, 4: 11}
PRODUCT = 3 * 5 * 7 * 11


def make_triple(value: int):
    return (FIELD(value), FIELD(value + 1), FIELD(value + 2))


# -- reservoir unit behaviour -------------------------------------------------

class TestTripleReservoir:
    def test_deposit_take_watermarks(self):
        res = TripleReservoir([1, 2], low_watermark=1, high_watermark=4)
        base = res.begin_round()
        assert base == 0
        for pid in (1, 2):
            res.deposit(pid, base, [make_triple(10), make_triple(20)])
        assert res.available([1, 2]) == 2
        assert res.watermarks() == {"consumed": 0, "produced": 2}
        taken = res.take([1, 2], 1)
        assert [int(t[0]) for t in taken[1]] == [10]
        assert res.watermarks() == {"consumed": 1, "produced": 2}

    def test_deposit_must_be_contiguous(self):
        res = TripleReservoir([1], low_watermark=1, high_watermark=4)
        res.deposit(1, 0, [make_triple(1)])
        with pytest.raises(ValueError, match="does not extend"):
            res.deposit(1, 5, [make_triple(2)])

    def test_take_raises_when_drained(self):
        res = TripleReservoir([1, 2], low_watermark=1, high_watermark=4)
        res.deposit(1, 0, [make_triple(1)])
        with pytest.raises(ReservoirDrainedError) as info:
            res.take([1, 2], 1)
        assert info.value.needed == 1 and info.value.available == 0

    def test_crash_rejoin_reconciliation_arithmetic(self):
        res = TripleReservoir([1, 2], low_watermark=1, high_watermark=8)
        for pid in (1, 2):
            res.deposit(pid, 0, [make_triple(i) for i in range(4)])
        # party 2 snapshots with 4 entries, then two more are produced ...
        first_seq, snap = res.snapshot_party(2)
        snap_produced = res.produced
        for pid in (1, 2):
            res.deposit(pid, 4, [make_triple(i) for i in (4, 5)])
        # ... one triple is consumed, then party 2 crashes.
        res.take([1, 2], 1)
        res.clear_party(2)
        # Rejoin: survivors drop entries the snapshot never saw (seqs 4, 5),
        # the rejoiner drops the consumed seq 0.
        discarded = res.truncate_from(snap_produced)
        assert discarded == 2
        dropped = res.restore_party(2, first_seq, snap)
        assert dropped == 1
        assert res.available([1, 2]) == 3  # seqs 1, 2, 3 usable again
        assert res.produced == snap_produced
        taken = res.take([1, 2], 3)
        assert [int(t[0]) for t in taken[2]] == [1, 2, 3]


# -- snapshot codec -----------------------------------------------------------

class TestSnapshotCodec:
    def test_snapshot_roundtrip(self):
        svc = MpcService(4, 1, 0, config=small_config(), seed=11)
        svc.evaluate(product_circuit(), INPUTS)
        version = svc.checkpoint()
        snap = svc.store.load(version)
        clone = ServiceSnapshot.decode(snap.encode())
        assert clone.now == snap.now
        assert clone.eval_seq == snap.eval_seq
        assert clone.backend_rng_state == snap.backend_rng_state
        for pid in range(1, 5):
            a, b = snap.parties[pid], clone.parties[pid]
            assert a.rng_state == b.rng_state
            assert a.reservoir_first_seq == b.reservoir_first_seq
            assert a.reservoir_triples == b.reservoir_triples
        assert clone.results == snap.results

    def test_version_gate(self):
        blob = encode_payload({"version": 99})
        with pytest.raises(SnapshotVersionError) as info:
            ServiceSnapshot.decode(blob)
        assert info.value.found == 99


# -- checkpoint/restore: bit-identical continuation ---------------------------

class TestCheckpointRestore:
    def test_restore_continues_bit_identically(self):
        """The tentpole property: a restored service replays the exact event
        sequence the uninterrupted service runs -- same outputs, same message
        counts, same final rng states, same simulated clock."""
        cfg = small_config()
        circuit = product_circuit()
        streams = [{1: 3 + k, 2: 5, 3: 7, 4: 11} for k in range(8)]

        original = MpcService(4, 1, 0, config=cfg, seed=7)
        for k in range(4):
            original.evaluate(circuit, streams[k])
        version = original.checkpoint()
        sent_at_checkpoint = original.backend.metrics.messages_sent
        tail = [original.evaluate(circuit, streams[k]) for k in range(4, 8)]
        sent_tail = original.backend.metrics.messages_sent - sent_at_checkpoint

        restored = MpcService.restore(original.store, version=version, config=cfg)
        assert restored.backend.now == original.store.load(version).now
        replay = [restored.evaluate(circuit, streams[k]) for k in range(4, 8)]

        assert [r.output_values for r in replay] == [r.output_values for r in tail]
        assert [r.sim_time for r in replay] == [r.sim_time for r in tail]
        assert restored.backend.metrics.messages_sent == sent_tail
        assert restored.backend.now == original.backend.now
        assert restored.backend.rng.getstate() == original.backend.rng.getstate()
        for pid in range(1, 5):
            assert (restored.backend.parties[pid].rng.getstate()
                    == original.backend.parties[pid].rng.getstate())
        assert restored.reservoir.watermarks() == original.reservoir.watermarks()

    def test_restored_results_log_replays_history(self):
        svc = MpcService(4, 1, 0, config=small_config(), seed=1)
        first = svc.evaluate(product_circuit(), INPUTS)
        svc.checkpoint()
        restored = MpcService.restore(svc.store, config=small_config())
        assert [r.output_values for r in restored.results] == [first.output_values]

    def test_checkpoint_requires_all_parties_live(self):
        svc = MpcService(4, 1, 0, config=small_config(), seed=2)
        svc.crash_party(4)
        with pytest.raises(PartyCrashedError, match="checkpoint"):
            svc.checkpoint()

    def test_auto_checkpoint_cadence(self):
        svc = MpcService(4, 1, 0, config=small_config(checkpoint_every=2), seed=3)
        for _ in range(4):
            svc.evaluate(product_circuit(), INPUTS)
        assert svc.store.versions() == [1, 2]


# -- crash + rejoin -----------------------------------------------------------

class TestCrashRejoin:
    def test_crash_mid_preprocessing_rejoin_completes(self):
        """The scenario-matrix cell the issue asks for: a party crashes in
        the middle of a background refill round (and mid-evaluation), the
        stream keeps going degraded, the party rejoins from the snapshot,
        and the run completes clean with an aligned reservoir."""
        # low=8 > post-eval-0 level forces eval 1 to kick a *background*
        # refill round; the scheduled crash then lands inside its ΠTripSh.
        cfg = small_config(low_watermark=8, high_watermark=10)
        svc = MpcService(4, 1, 0, config=cfg, seed=13)
        svc.evaluate(product_circuit(), INPUTS)
        svc.checkpoint()
        assert svc.reservoir.available(svc.live_parties()) < cfg.low_watermark
        svc.crash_party(3, at_time=svc.now + 3 * svc.delta)
        degraded = svc.evaluate(product_circuit(), INPUTS)
        assert svc._inflight is not None  # the refill round was mid-flight
        assert degraded.degraded and 3 not in degraded.parties
        report = svc.rejoin_party(3)
        assert report.party_id == 3 and report.attempts >= 1
        assert report.sim_recovery_time > 0
        # The settled round's post-snapshot deposits were truncated away.
        assert report.triples_discarded > 0
        clean = svc.evaluate(product_circuit(), INPUTS)
        assert not clean.degraded
        assert clean.output_values == [PRODUCT]

    def test_rejoin_abandons_stalled_refill_round(self):
        """A refill round that can no longer complete (too many parties
        down) is abandoned at rejoin: its late output must never deposit
        with a stale sequence base and misalign the reservoir heads."""
        cfg = small_config(low_watermark=8, high_watermark=10)
        svc = MpcService(4, 1, 0, config=cfg, seed=14)
        svc.evaluate(product_circuit(), INPUTS)
        svc.checkpoint()
        degraded_before = svc.evaluate(product_circuit(), INPUTS)
        assert not degraded_before.degraded
        assert svc._inflight is not None  # background refill in flight
        svc.crash_party(3)
        svc.crash_party(4)  # 2 > t_s: the in-flight round can never finish
        report = svc.rejoin_party(4)  # quorum 2 is met by peers 1 and 2
        assert report.party_id == 4
        assert svc._abandoned_rounds  # the stalled round was written off
        degraded = svc.evaluate(product_circuit(), INPUTS)  # 3 still down
        assert degraded.degraded and 3 not in degraded.parties

    def test_crash_mid_him_refill_abandons_round_and_discards_late_deposits(self):
        """Satellite regression: a refill round running the HIM pipeline
        (``ServiceConfig(offline="him")``) that is abandoned mid-extraction
        must behave exactly like the stalled ΠTripSh round -- written off at
        rejoin, its late output discarded by the deposit guard, reservoir
        heads still aligned -- and the service must then refill and evaluate
        cleanly with HIM triples."""
        from repro.circuits import mean_circuit
        from repro.triples import HimPreprocessing

        # The second evaluation kicks the background HIM refill at its own
        # anchor.  A product evaluation ends at the instant the refill's
        # extraction does, so crashes after it would land on a finished
        # round; the linear mean circuit has no Beaver rounds and returns
        # while the refill is between its sacrifice openings and its
        # extraction, so the crashes land inside the round.
        cfg = small_config(low_watermark=8, high_watermark=10, offline="him")
        svc = MpcService(4, 1, 0, config=cfg, seed=14)
        svc.evaluate(product_circuit(), INPUTS)
        svc.checkpoint()
        degraded_before = svc.evaluate(mean_circuit(FIELD, 4), INPUTS)
        assert not degraded_before.degraded
        assert svc._inflight is not None  # background HIM refill in flight
        assert all(
            isinstance(inst, HimPreprocessing) for inst in svc._inflight.values()
        )
        assert not any(inst.has_output for inst in svc._inflight.values())
        abandoned_round = svc._inflight_round
        svc.crash_party(3)
        svc.crash_party(4)  # 2 > t_s: the in-flight HIM round can never finish
        report = svc.rejoin_party(4)  # quorum 2 is met by peers 1 and 2
        assert report.party_id == 4
        assert abandoned_round in svc._abandoned_rounds
        produced_after_rejoin = svc.reservoir.produced
        degraded = svc.evaluate(product_circuit(), INPUTS)  # 3 still down
        assert degraded.degraded and 3 not in degraded.parties
        # The written-off round's late deposits were dropped by the guard:
        # whatever the reservoir gained came from fresh post-rejoin rounds,
        # and the heads stayed aligned for the live parties throughout.
        assert svc.reservoir.produced >= produced_after_rejoin
        report3 = svc.rejoin_party(3)
        assert report3.party_id == 3
        clean = svc.evaluate(product_circuit(), INPUTS)
        assert not clean.degraded
        assert clean.output_values == [PRODUCT]

    def test_a_round_written_off_at_rejoin_deposits_nothing_when_it_finishes_late(self):
        """The deposit guard itself: the rejoin's settle pass is cut short
        (a tiny ``stall_margin``) so it writes off a refill round that is
        still running; the crash outlasts the pass, the party is revived,
        and the round then finishes among the survivors -- but none of its
        outputs reach the reservoir, whose heads stay aligned."""
        cfg = small_config(low_watermark=8, high_watermark=10)
        svc = MpcService(4, 1, 0, config=cfg, seed=14)
        svc.evaluate(product_circuit(), INPUTS)
        svc.checkpoint()
        svc.evaluate(product_circuit(), INPUTS)
        round_instances, round_index = svc._inflight, svc._inflight_round
        assert round_instances is not None  # background refill in flight
        deposited = []
        deposit = svc.reservoir.deposit
        svc.reservoir.deposit = lambda pid, base, triples: (
            deposited.append(triples), deposit(pid, base, triples))[1]
        svc.crash_party(4)
        cfg.stall_margin = 0.01
        svc.rejoin_party(4)
        cfg.stall_margin = ServiceConfig.stall_margin
        assert round_index in svc._abandoned_rounds
        assert not any(instance.has_output for instance in round_instances.values())

        survivors = (1, 2, 3)
        svc.backend.run_until(
            until=lambda: all(round_instances[pid].has_output for pid in survivors),
            max_time=svc.now + 1_000.0,
        )
        assert all(round_instances[pid].has_output for pid in survivors)
        late = [round_instances[pid].output for pid in survivors]
        assert not any(triples is output for triples in deposited for output in late)
        clean = svc.evaluate(product_circuit(), INPUTS)
        assert not clean.degraded
        assert clean.output_values == [PRODUCT]

    def test_crash_rejoin_outputs_match_uninterrupted_run(self):
        """Acceptance: the seeded crash-rejoin stream produces outputs
        identical to the uninterrupted seeded run (triples are random masks,
        so outputs depend only on the inputs and the common subset)."""
        cfg = small_config()
        circuit = product_circuit()
        streams = [{1: 2 + k, 2: 5, 3: 7, 4: 11} for k in range(6)]

        plain = MpcService(4, 1, 0, config=cfg, seed=21)
        expected = [plain.evaluate(circuit, s).output_values for s in streams]

        faulty = MpcService(4, 1, 0, config=cfg, seed=21)
        rocky = []
        for k, stream_inputs in enumerate(streams):
            if k == 3:
                faulty.checkpoint()
                faulty.crash_party(4)
                faulty.rejoin_party(4)
            rocky.append(faulty.evaluate(circuit, stream_inputs).output_values)

        assert rocky == expected
        assert faulty.recoveries[0].party_id == 4

    def test_rejoin_times_out_without_quorum(self):
        """With 3 of 4 parties down, one live peer cannot meet the 2·t_s
        admission quorum: the handshake retries with backoff, misses the
        deadline, the party is re-crashed, and the typed error reports it."""
        cfg = small_config(rejoin_max_attempts=3, rejoin_deadline=40.0)
        svc = MpcService(4, 1, 0, config=cfg, seed=5)
        svc.evaluate(product_circuit(), INPUTS)
        svc.checkpoint()
        for pid in (2, 3, 4):
            svc.crash_party(pid)
        with pytest.raises(RejoinTimeoutError) as info:
            svc.rejoin_party(2)
        assert info.value.attempts == 3
        assert svc.crashed_parties == [2, 3, 4]

    def test_rejoin_discards_unusable_triples(self):
        """Triples produced after the snapshot are unusable once a party's
        shares die with it; the recovery report accounts the discard."""
        cfg = small_config(low_watermark=2, high_watermark=8)
        svc = MpcService(4, 1, 0, config=cfg, seed=17)
        svc.evaluate(product_circuit(), INPUTS)  # fills toward high
        svc.checkpoint()
        svc.evaluate(product_circuit(), INPUTS)  # may refill past the snapshot
        produced_before_crash = svc.reservoir.produced
        svc.crash_party(2)
        report = svc.rejoin_party(2)
        assert svc.reservoir.produced <= produced_before_crash
        assert report.triples_discarded >= 0
        # The reservoir is aligned and usable again after reconciliation.
        clean = svc.evaluate(product_circuit(), INPUTS)
        assert clean.output_values == [PRODUCT]


# -- explicit degradation ------------------------------------------------------

class TestDegradation:
    def test_backpressure(self):
        svc = MpcService(4, 1, 0, config=small_config(max_pending=2), seed=4)
        circuit = product_circuit()
        svc.submit(circuit, INPUTS)
        svc.submit(circuit, INPUTS)
        with pytest.raises(BackpressureError) as info:
            svc.submit(circuit, INPUTS)
        assert info.value.pending == 2
        assert len(svc.process()) == 2  # draining clears the pressure
        svc.submit(circuit, INPUTS)

    def test_disallowed_degraded_stream_raises_partial_result(self):
        svc = MpcService(4, 1, 0, config=small_config(allow_degraded=False), seed=6)
        circuit = product_circuit()
        svc.submit(circuit, INPUTS)
        svc.checkpoint()
        svc.crash_party(4)
        svc.submit(circuit, INPUTS)
        with pytest.raises(PartialResultError) as info:
            svc.process()
        assert isinstance(info.value.cause, PartyCrashedError)
        assert info.value.failed_index == 0
        # The failed submission stays queued; after rejoin it succeeds.
        svc.rejoin_party(4)
        results = svc.process()
        assert [r.output_values for r in results] == [[PRODUCT], [PRODUCT]]

    def test_crash_tolerance_exceeded_is_typed(self):
        svc = MpcService(4, 1, 0, config=small_config(), seed=8)
        svc.crash_party(3)
        svc.crash_party(4)
        with pytest.raises(PartialResultError) as info:
            svc.evaluate(product_circuit(), INPUTS)
        assert isinstance(info.value.cause, PartyCrashedError)
        assert "exceeded" in str(info.value.cause)

    def test_closed_service_refuses_submissions(self):
        svc = MpcService(4, 1, 0, config=small_config(), seed=9)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit(product_circuit(), INPUTS)


# -- engine input validation (satellite: unknown party ids) -------------------

class TestPartyIdValidation:
    def test_run_mpc_rejects_unknown_input_ids(self):
        circuit = product_circuit()
        with pytest.raises(ValueError, match=r"unknown party ids in inputs: \[0\]"):
            run_mpc(circuit, {0: 3, 2: 5}, n=4, ts=1, ta=0)

    def test_run_mpc_rejects_unknown_corrupt_ids(self):
        from repro.sim.adversary import CrashBehavior

        circuit = product_circuit()
        with pytest.raises(ValueError, match=r"unknown party ids in corrupt: \[7\]"):
            run_mpc(circuit, INPUTS, n=4, ts=1, ta=0, corrupt={7: CrashBehavior()})

    def test_factory_rejects_unknown_input_ids(self):
        with pytest.raises(ValueError, match="unknown party ids"):
            CircuitEvaluationFactory(product_circuit(), 1, 0, {5: 1}, n=4)

    def test_service_submit_rejects_unknown_input_ids(self):
        svc = MpcService(4, 1, 0, config=small_config(), seed=10)
        with pytest.raises(ValueError, match="unknown party ids"):
            svc.submit(product_circuit(), {1: 3, 9: 4})

    def test_non_integer_ids_rejected(self):
        with pytest.raises(ValueError, match="unknown party ids"):
            run_mpc(product_circuit(), {"1": 3}, n=4, ts=1, ta=0)


# -- stream hygiene -----------------------------------------------------------

class TestStreamHygiene:
    def test_instances_are_retired(self):
        """A long stream must not accumulate one instance tree per eval."""
        cfg = small_config(retire_lag=1)
        svc = MpcService(4, 1, 0, config=cfg, seed=12)
        circuit = product_circuit()
        counts = []
        for _ in range(6):
            svc.evaluate(circuit, INPUTS)
            counts.append(len(svc.backend.parties[1].instances))
        # Steady state: the live tail's instances, not a growing history.
        assert counts[-1] <= counts[1] + 5
        tags = list(svc.backend.parties[1].instances)
        assert not any(tag.startswith("eval[0]") for tag in tags)


#: The initial fill and three refill cycles of the e2e ``service_n4_stream``
#: configuration (watermarks 6/24, 3 triples per evaluation): rounds 1-3 spawn
#: at evaluations 7, 14 and 21 and land within them.
REFILL_STREAM_EVALS = 23


def _root(tag: str) -> str:
    return tag.split("/", 1)[0]


@pytest.fixture(scope="module")
def refill_stream():
    """A refill stream observed from outside the service: each delivery is
    checked against the recipient's live roots, each party's held roots and
    load are read at every evaluation boundary, together with the refill
    rounds that had landed (every party deposited) before that evaluation
    began and the round still in flight after it."""
    svc = MpcService(4, 1, 0, config=small_config(low_watermark=6, high_watermark=24),
                     seed=1)
    orphans = []
    deliver = Party.deliver

    def checked(party, sender, tag, payload):
        if _root(tag) not in party.instances:
            orphans.append((party.id, tag))
        return deliver(party, sender, tag, payload)

    deposits = Counter()
    deposit = svc._deposit

    def counted(round_index, pid, base, triples):
        deposits[round_index] += 1
        deposit(round_index, pid, base, triples)

    svc._deposit = counted
    boundaries = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Party, "deliver", checked)
        for k in range(REFILL_STREAM_EVALS):
            landed = {r for r, count in deposits.items() if count == svc.n}
            svc.evaluate(product_circuit(), {1: 3 + k, 2: 5, 3: 7, 4: 11})
            parties = svc.backend.parties.values()
            boundaries.append(SimpleNamespace(
                landed=landed,
                inflight=svc._inflight_round if svc._inflight is not None else None,
                roots={p.id: {_root(tag) for tag in p.instances} for p in parties},
                buffered={p.id: {_root(tag) for tag in p._buffered} for p in parties},
                loads={p.id: p.load() for p in parties},
                slot_tags=[tag for p in parties for tag in p.instances if SLOT_TAG.search(tag)],
            ))
    metrics = svc.backend.metrics
    return SimpleNamespace(
        orphans=orphans, deposits=deposits, boundaries=boundaries,
        messages=metrics.messages_sent, honest_bits=metrics.honest_bits,
    )


class TestRefillRetirement:
    def test_no_message_reaches_a_retired_root(self, refill_stream):
        """Retiring a landed refill round at the next evaluation boundary
        cuts off no protocol traffic: no delivery arrives for a root the
        recipient no longer holds, and no party keeps an instance or a
        buffered message of a round that had landed before the evaluation
        just finished began."""
        assert refill_stream.deposits == {r: 4 for r in range(4)}
        assert refill_stream.orphans == []
        assert sum(len(b.landed) for b in refill_stream.boundaries) > 0
        for boundary in refill_stream.boundaries:
            dead = {f"svc-preproc[{r}]" for r in boundary.landed}
            for pid in boundary.roots:
                assert not dead & (boundary.roots[pid] | boundary.buffered[pid])

    def test_the_live_set_is_the_lagged_evaluations_and_the_inflight_round(
        self, refill_stream,
    ):
        """At every evaluation boundary a party holds the last ``retire_lag``
        evaluation trees and at most the refill round still in flight; the
        stream's traffic is pinned so that a retirement which cut protocol
        messages would show."""
        lag = ServiceConfig.retire_lag
        for k, boundary in enumerate(refill_stream.boundaries):
            expected = {f"eval[{e}]" for e in range(max(0, k - lag + 1), k + 1)}
            if boundary.inflight is not None:
                expected.add(f"svc-preproc[{boundary.inflight}]")
            for pid in boundary.roots:
                assert boundary.roots[pid] == expected
                assert not boundary.buffered[pid]
        steady = refill_stream.boundaries[lag - 1:]
        assert {b.inflight for b in steady} == {None, 1, 2, 3}
        # Per party: 100 instances per evaluation tree, 244 in a round in flight
        # (124 and 360 while every ΠABA slot was a registered instance).
        assert {load for b in steady if b.inflight is None
                for load in b.loads.values()} == {(200, 0)}
        assert {load for b in steady if b.inflight is not None
                for load in b.loads.values()} == {(444, 0)}
        assert not any(b.slot_tags for b in refill_stream.boundaries)
        assert (refill_stream.messages, refill_stream.honest_bits) == (39_330, 44_995_332)

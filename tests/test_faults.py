"""The unified fault plane: FaultPlan semantics and seeded chaos campaigns.

Three layers under test:

* **FaultPlan rule semantics** -- partitions (symmetric groups and
  asymmetric directed blocks) with seq-window healing, first-match link
  fault rules, corrupt-vs-drop cause logging, latency/skew extra delay,
  and the canonical spec/hash/fresh round trip that makes a plan
  replayable from its JSON artifact alone.
* **Cross-fabric replay equivalence** -- the same seeded plan, fed the
  same per-channel message sequences, makes identical decisions on the
  simulator and over :class:`TcpTransport` sockets, where the scheduler's
  gate runs at send (checked both with a scripted message stream and by
  running the Acast workload end to end over real sockets).
* **Campaigns** -- :func:`run_case` against the guarantee table (safety
  always; liveness for delivery-preserving plans within the kill
  threshold; a typed :class:`ThresholdExceededAbort` beyond it), the
  failure-artifact dump with its one-line repro command, and the CLI
  replay path.

Campaign tests run full MPC evaluations and are ``chaos``-marked so the
tests/conftest.py SIGALRM cap bounds them; the big sampled-plan soak is
tier2.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.faults import (
    CORRUPTED,
    FaultPlan,
    LinkFault,
    LinkLatency,
    PARTITIONED,
    Partition,
    ProcessFault,
)
from repro.faults.campaign import (
    OK,
    STALLED_ALLOWED,
    THRESHOLD_ABORT,
    ThresholdExceededAbort,
    dump_artifact,
    main as campaign_main,
    repro_command,
    run_campaign,
    run_case,
    sample_plan,
)
from repro.faults.plan import DELIVER, DROP, DUPLICATE, HOLD
from repro.runtime import AsyncioBackend
from repro.runtime.tcp_transport import TcpTransport
from repro.sim import AsynchronousNetwork
from repro.sim.party import ProtocolInstance
from repro.sim.simulator import Simulator


# -- rule validation ---------------------------------------------------------

def test_link_fault_probability_validation():
    with pytest.raises(ValueError, match="must be in"):
        LinkFault(drop=1.2)
    with pytest.raises(ValueError, match="exceed 1"):
        LinkFault(drop=0.5, corrupt=0.4, reorder=0.2)
    # duplicate takes the upper tail of the same draw: past a total of 1 the
    # lower three would shadow it (drop=0.5 left 0.5 of the asked-for 0.8).
    with pytest.raises(ValueError, match="shared hash draw"):
        LinkFault(drop=0.5, duplicate=0.8)
    LinkFault(drop=0.4, corrupt=0.3, reorder=0.2, duplicate=0.1)


def test_partition_rejects_overlapping_groups():
    with pytest.raises(ValueError, match="multiple groups"):
        Partition(groups=({1, 2}, {2, 3}))


def test_negative_clock_skew_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        FaultPlan(clock_skews={1: -0.5})


def test_latency_rule_rejects_negative():
    with pytest.raises(ValueError, match="non-negative"):
        LinkLatency(base=-0.1)


# -- partition windows and healing ------------------------------------------

def test_partition_blocks_by_seq_window_and_heals():
    plan = FaultPlan(
        seed=1,
        partitions=[
            Partition(groups=({3}, {1, 2}), from_seq=2, until_seq=5)
        ],
    )
    decisions = [plan.decide(1, 3, seq, can_hold=True) for seq in range(7)]
    assert decisions == [DELIVER, DELIVER, DROP, DROP, DROP, DELIVER, DELIVER]
    # The log distinguishes the partition cause from a probabilistic drop.
    assert [row[0] for row in plan.log[2:5]] == [PARTITIONED] * 3
    # Same-group traffic flows throughout the window.
    assert plan.decide(1, 2, 3, can_hold=True) == DELIVER


def test_asymmetric_blocks_are_directed():
    plan = FaultPlan(partitions=[Partition(blocks=((1, 2),))])
    assert plan.decide(1, 2, 0, can_hold=True) == DROP
    assert plan.decide(2, 1, 0, can_hold=True) == DELIVER


def test_party_outside_all_groups_is_unaffected():
    plan = FaultPlan(partitions=[Partition(groups=({1}, {2}))])
    assert plan.decide(1, 2, 0, can_hold=True) == DROP
    assert plan.decide(1, 3, 0, can_hold=True) == DELIVER
    assert plan.decide(3, 2, 0, can_hold=True) == DELIVER


# -- link fault rules --------------------------------------------------------

def test_corrupt_drops_but_logs_its_own_cause():
    corrupting = FaultPlan(link_faults=[LinkFault(corrupt=1.0)])
    assert corrupting.decide(1, 2, 0, can_hold=True) == DROP
    assert corrupting.log == [(CORRUPTED, 1, 2, 0)]
    dropping = FaultPlan(link_faults=[LinkFault(drop=1.0)])
    assert dropping.decide(1, 2, 0, can_hold=True) == DROP
    assert dropping.log == [(DROP, 1, 2, 0)]


def test_first_matching_link_rule_wins():
    plan = FaultPlan(
        link_faults=[
            LinkFault(sender=1, drop=1.0),
            LinkFault(duplicate=1.0),
        ]
    )
    assert plan.decide(1, 2, 0, can_hold=True) == DROP
    assert plan.decide(2, 1, 0, can_hold=True) == DUPLICATE


def test_reorder_respects_can_hold():
    plan = FaultPlan(link_faults=[LinkFault(reorder=1.0)])
    assert plan.decide(1, 2, 0, can_hold=True) == HOLD
    assert plan.decide(1, 2, 1, can_hold=False) == DELIVER


def test_seq_window_gates_link_rule():
    plan = FaultPlan(link_faults=[LinkFault(drop=1.0, from_seq=2, until_seq=4)])
    decisions = [plan.decide(1, 2, seq, can_hold=True) for seq in range(5)]
    assert decisions == [DELIVER, DELIVER, DROP, DROP, DELIVER]


def test_decisions_are_order_independent_and_deterministic():
    spec = dict(
        seed=7,
        link_faults=[LinkFault(drop=0.2, reorder=0.2, duplicate=0.2)],
    )
    a, b = FaultPlan(**spec), FaultPlan(**spec)
    keys = [(1, 2, 0), (1, 2, 1), (2, 1, 0), (3, 1, 0), (1, 3, 4)]
    forward = [a.decide(s, r, q, can_hold=True) for s, r, q in keys]
    backward = [b.decide(s, r, q, can_hold=True) for s, r, q in reversed(keys)]
    assert forward == list(reversed(backward))
    assert set(forward) > {DELIVER}  # the probabilities actually fire


# -- latency / skew extra delay ---------------------------------------------

def test_extra_delay_combines_latency_rule_and_skew():
    plan = FaultPlan(
        seed=3,
        latencies=[LinkLatency(sender=1, base=0.2, jitter=0.1)],
        clock_skews={2: 0.5},
    )
    first = plan.extra_delay(1, 3, 0.0)
    assert 0.2 <= first < 0.3
    assert plan.extra_delay(2, 3, 0.0) == 0.5
    assert plan.extra_delay(3, 1, 0.0) == 0.0
    # Jitter draws key off a per-channel dispatch counter: a fresh copy
    # replays the exact same delay sequence.
    replay = plan.fresh()
    assert replay.extra_delay(1, 3, 0.0) == first


# -- canonical spec / hash / introspection ----------------------------------

def _kitchen_sink_plan() -> FaultPlan:
    return FaultPlan(
        seed=42,
        link_faults=[LinkFault(sender=1, drop=0.1, corrupt=0.05, from_seq=3)],
        partitions=[
            Partition(groups=({1, 2}, {3, 4}), from_seq=5, until_seq=20),
            Partition(blocks=((4, 1),), heal_at=30.0),
        ],
        latencies=[LinkLatency(recipient=2, base=0.1, jitter=0.05)],
        clock_skews={3: 0.25},
        process_faults=[ProcessFault(party=4, sim_time=1.5)],
    )


def test_spec_roundtrip_preserves_hash():
    plan = _kitchen_sink_plan()
    spec = plan.spec()
    json.dumps(spec, sort_keys=True)  # the artifact form must be JSON-able
    clone = FaultPlan.from_spec(spec)
    assert clone.plan_hash() == plan.plan_hash()
    assert clone.spec() == spec
    assert clone.killed_parties() == [4]


def test_fresh_copy_is_state_free():
    plan = FaultPlan(seed=9, link_faults=[LinkFault(drop=0.5)])
    plan.decide(1, 2, 0, can_hold=True)
    plan.extra_delay(1, 2, 0.0)
    copy = plan.fresh()
    assert copy.log == [] and copy._lat_seq == {}
    assert copy.plan_hash() == plan.plan_hash()


def test_loses_messages_flags_delivery_violations_only():
    assert not FaultPlan(link_faults=[LinkFault(duplicate=0.5, reorder=0.5)],
                         latencies=[LinkLatency(base=1.0)],
                         clock_skews={1: 2.0}).loses_messages()
    assert FaultPlan(link_faults=[LinkFault(drop=0.01)]).loses_messages()
    assert FaultPlan(link_faults=[LinkFault(corrupt=0.01)]).loses_messages()
    assert FaultPlan(partitions=[Partition(groups=({1}, {2}))]).loses_messages()


def test_breaks_synchrony_flags_latency_and_skew_only():
    assert not FaultPlan(
        link_faults=[LinkFault(duplicate=0.4, reorder=0.4, drop=0.2)],
        partitions=[Partition(groups=({1}, {2}))],
    ).breaks_synchrony()
    assert FaultPlan(latencies=[LinkLatency(base=0.1)]).breaks_synchrony()
    assert FaultPlan(latencies=[LinkLatency(jitter=0.1)]).breaks_synchrony()
    assert FaultPlan(clock_skews={1: 0.5}).breaks_synchrony()
    assert not FaultPlan(latencies=[LinkLatency()],
                         clock_skews={1: 0.0}).breaks_synchrony()


def test_sample_plan_is_seed_deterministic():
    assert sample_plan(7, 4).plan_hash() == sample_plan(7, 4).plan_hash()
    assert sample_plan(7, 4).plan_hash() != sample_plan(8, 4).plan_hash()
    for seed in range(10):
        plan = sample_plan(seed, 4, max_kills=2)
        assert len(plan.killed_parties()) <= 2
        assert all(1 <= pid <= 4 for pid in plan.killed_parties())


# -- cross-fabric replay equivalence -----------------------------------------

class _ScriptedStream(ProtocolInstance):
    """A fixed interleaved stream over every channel of a 3-party roster:
    ten rounds, each one message per ordered pair, all sent at once."""

    PAIRS = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]

    def __init__(self, party, tag, got):
        super().__init__(party, tag)
        self.got = got

    def start(self):
        for seq in range(10):
            for sender, recipient in self.PAIRS:
                if sender == self.me:
                    self.send(recipient, (sender, recipient, seq))

    def receive(self, sender, payload):
        self.got.setdefault(self.me, []).append(payload)


def _partition_plan() -> FaultPlan:
    return FaultPlan(
        seed=5,
        partitions=[Partition(groups=({3}, {1, 2}), from_seq=2, until_seq=6)],
        link_faults=[LinkFault(sender=1, recipient=2, drop=0.4)],
    )


def _stream_on(backend):
    got = {}
    backend.run(lambda party: _ScriptedStream(party, "chaos", got),
                wait_for_all_honest=False, max_time=100.0)
    return got


@pytest.mark.tcp
def test_partition_plan_replays_identically_across_transports():
    """Same plan + same per-channel message sequence => same decisions and
    the same delivered set, whether the gate runs at hand-out on the
    simulator or at send over a real localhost socket.  Seq-windowed
    partitions are exact on both, so the heal point lands on the identical
    message."""
    in_plan = _partition_plan()
    in_got = _stream_on(Simulator(3, seed=1, faults=in_plan))
    tcp_plan = _partition_plan()
    tcp_got = _stream_on(AsyncioBackend(3, seed=1, time_scale=0.001,
                                        transport=TcpTransport(), faults=tcp_plan))

    assert sorted(in_plan.log) == sorted(tcp_plan.log)
    for pid in (1, 2, 3):
        # Socket interleaving across channels is arbitrary; per-channel
        # order is preserved, so compare the delivered multisets.
        assert sorted(tcp_got[pid]) == sorted(in_got[pid])
    # The partition blocked exactly seqs [2, 6) across the cut -- on both.
    to_isolated = {payload for payload in in_got[3] if payload[0] in (1, 2)}
    assert {p[2] for p in to_isolated} == {0, 1, 6, 7, 8, 9}
    # And the drop schedule on 1->2 actually fired somewhere.
    assert any(cause == DROP and (s, r) == (1, 2)
               for cause, s, r, _ in in_plan.log)


@pytest.mark.tcp
def test_fault_plan_replays_identically_over_tcp_acast():
    """End-to-end cross-fabric determinism on a live protocol: the same
    seeded delivery-preserving plan faults exactly the same messages on the
    simulator and over real sockets."""
    from test_tcp import run_acast_on

    in_plan = FaultPlan(seed=11,
                        link_faults=[LinkFault(duplicate=0.15, reorder=0.15)])
    tcp_plan = in_plan.fresh()
    run_a = run_acast_on("sim", faults=in_plan)
    run_b = run_acast_on("asyncio", time_scale=0.001, transport=TcpTransport(),
                         faults=tcp_plan)
    assert run_a.honest_outputs() == run_b.honest_outputs()
    # Hash-keyed decisions are a pure function of (seed, channel, seq), so
    # every message both runs sent was faulted identically.  The run *ends*
    # as soon as every party outputs, so a handful of sends racing
    # termination can exist in one run only -- the per-message decisions,
    # not the send count, are the determinism contract (the scripted-stream
    # test above pins exact log equality).
    a = {(s, r, q): cause for cause, s, r, q in in_plan.log}
    b = {(s, r, q): cause for cause, s, r, q in tcp_plan.log}
    common = a.keys() & b.keys()
    assert len(common) >= 0.9 * max(len(a), len(b))
    assert {k: a[k] for k in common} == {k: b[k] for k in common}
    assert any(a[key] != DELIVER for key in common)


# -- the move pinned: one plan, one run, on either backend --------------------

#: Plans A, B and C: outputs, output instants, sent / delivered messages,
#: honest bits, events and decisions.  On the synchronous network of A and C
#: a hold goes at the end of its instant's deliveries, so a reorder never
#: delays a message past its instant: C, a crash plus reorders, outputs at
#: 147.052 like the crash alone.  On B's asynchronous network a hold waits
#: for the next hand-out to its recipient.  The counts are those of the
#: sharings' rows and points riding their root's post and of the ΠTripSh
#: openings riding the preprocessing's opening post (B, which stalls before
#: any opening, only gains the 4 freeze timers of those posts); outputs and
#: instants are what they were when each row and point was a message of its own.
PINNED_PLANS = {
    "A": (lambda: FaultPlan(seed=1, link_faults=[LinkFault(duplicate=0.1, reorder=0.1)]),
          True, ([360], {145.052}, 1710, 2589, 1748424, 3908, 1706)),
    "B": (lambda: FaultPlan(seed=11, link_faults=[
              LinkFault(duplicate=0.15, reorder=0.15, drop=0.05)]),
          False, (None, set(), 3900, 5638, 2173428, 6865, 3900)),
    "C": (lambda: FaultPlan(seed=3, process_faults=[
              ProcessFault(party=4, sim_time=5.0)],
              link_faults=[LinkFault(duplicate=0.1, reorder=0.1)]),
          True, ([0], {147.052}, 1344, 1594, 1605984, 3355, 944)),
}


def _pinned_run(backend_name, plan, synchronous):
    """``run_case``'s setup: the n=4 product, inputs ``pid + 2``, seed 0."""
    from repro.circuits import multiplication_circuit
    from repro.field import default_field
    from repro.mpc import run_mpc
    from repro.mpc.protocol import cir_eval_time_bound
    from repro.runtime import make_backend
    from repro.sim import AsynchronousNetwork, SynchronousNetwork

    field = default_field()
    circuit = multiplication_circuit(field, n_parties=4)
    network = SynchronousNetwork() if synchronous else AsynchronousNetwork()
    pace = {"time_scale": 0.0002} if backend_name == "asyncio" else {}
    backend = make_backend(backend_name, 4, network=network, field=field, faults=plan, **pace)
    for pf in plan.process_faults:
        backend.crash_party(pf.party, at_time=pf.sim_time)
    max_time = 8.0 * cir_eval_time_bound(4, 1, circuit.multiplicative_depth, network.delta) + 50
    return run_mpc(circuit, {pid: pid + 2 for pid in range(1, 5)}, n=4, ts=1, ta=0,
                   seed=0, max_time=max_time, backend=backend)


@pytest.mark.chaos
@pytest.mark.parametrize("name", sorted(PINNED_PLANS))
def test_a_plan_runs_the_same_on_the_simulator_and_the_paced_backend(name):
    make_plan, synchronous, expected = PINNED_PLANS[name]
    logs = []
    for backend_name in ("sim", "asyncio"):
        plan = make_plan()
        result = _pinned_run(backend_name, plan, synchronous)
        metrics = result.metrics
        outputs = [int(v) for v in result.outputs] if result.outputs else None
        assert (
            outputs,
            {round(time, 3) for time in result.output_times.values()},
            metrics.messages_sent,
            metrics.messages_delivered,
            metrics.honest_bits,
            result.run.backend.events_processed,
            len(plan.log),
        ) == expected, backend_name
        logs.append(plan.log)
    assert logs[0] == logs[1]


#: (plan seed, reorder rate) of the crash + reorder runs that stalled with no
#: output while a hold waited for the next hand-out to its recipient, which
#: can come more than Δ later; reordering is synchrony-preserving
#: (:meth:`FaultPlan.breaks_synchrony`), so each must output.
_HOLD_STALLS = [(seed, 0.05) for seed in (1, 8, 12, 13, 15, 17, 19, 20)] + [
    (seed, 0.15) for seed in (3, 4, 5, 6, 7, 10, 11, 13, 14, 15, 16, 18, 19, 20)]


@pytest.mark.chaos
@pytest.mark.parametrize("seed,reorder", _HOLD_STALLS,
                         ids=[f"seed{seed}-r{rate}" for seed, rate in _HOLD_STALLS])
def test_a_reorder_hold_does_not_outlive_its_instant(seed, reorder):
    plan = FaultPlan(seed=seed, process_faults=[ProcessFault(party=4, sim_time=5.0)],
                     link_faults=[LinkFault(reorder=reorder)])
    assert not plan.breaks_synchrony()
    result = _pinned_run("sim", plan, True)
    assert [int(v) for v in result.outputs] == [0]
    assert {round(time, 3) for time in result.output_times.values()} == {147.052}


class _TimedStream(_ScriptedStream):
    """The scripted stream, each delivery recorded with its instant."""

    def receive(self, sender, payload):
        self.got.setdefault(self.me, []).append((self.now, payload))


def test_an_asynchronous_reorder_hold_waits_for_the_next_hand_out():
    """On an asynchronous network every copy is due at an instant of its own,
    so a hold is not released at the end of its instant: it waits for the
    next hand-out to its recipient, arrives later than it was due and
    behind a message due after it -- the same messages, in another order."""
    def stream(faults):
        got = {}
        Simulator(3, network=AsynchronousNetwork(), seed=1, faults=faults).run(
            lambda party: _TimedStream(party, "chaos", got),
            wait_for_all_honest=False, max_time=100.0)
        return got

    plan = FaultPlan(seed=2, link_faults=[LinkFault(reorder=0.3)])
    clean, reordered = stream(None), stream(plan)
    assert any(cause == HOLD for cause, *_ in plan.log)
    due = {payload: time for got in clean.values() for time, payload in got}
    late = [payload for got in reordered.values() for time, payload in got
            if time > due[payload]]
    assert late
    for pid in (1, 2, 3):
        order = [payload for _, payload in reordered[pid]]
        assert sorted(order) == sorted(payload for _, payload in clean[pid])
    assert any([payload for _, payload in reordered[pid]]
               != [payload for _, payload in clean[pid]] for pid in (1, 2, 3))


# -- campaigns vs the guarantee table ----------------------------------------

@pytest.mark.chaos
def test_run_case_benign_plan_completes_with_reference_outputs():
    plan = FaultPlan(seed=1,
                     link_faults=[LinkFault(duplicate=0.1, reorder=0.1)])
    record = run_case(plan, n=4, ts=1, ta=0)
    assert record["outcome"] == OK
    assert record["completed"] and not record["loses_messages"]
    assert record["decisions"] > 0


@pytest.mark.chaos
def test_run_case_judges_the_outputs_by_the_agreed_common_subset():
    """Plan seed 102 of the tier-2 soak: P_2 is partitioned from {1, 3, 4}
    until seq 29, slowed and lossy on its links, and no one is killed.  The
    run completes with P_2 outside the common subset, so its input counts as
    0 and the product is 0: the circuit on the inputs of CS, which a
    reference that zeroed only the killed parties' inputs refused."""
    plan = sample_plan(102, 4, include_loss=True, include_kills=True, max_kills=2)
    assert plan.plan_hash() == "83068701755c1724"
    assert plan.loses_messages() and plan.breaks_synchrony()
    record = run_case(plan, n=4, ts=1, ta=0)
    assert (record["outcome"], record["killed"]) == (OK, [])
    assert (record["outputs"], record["common_subset"]) == ([0], [1, 3, 4])


@pytest.mark.chaos
def test_run_case_tolerates_within_threshold_crash():
    plan = FaultPlan(
        seed=3,
        process_faults=[ProcessFault(party=4, sim_time=5.0)],
    )
    record = run_case(plan, n=4, ts=1, ta=0)
    assert record["outcome"] == OK
    assert record["killed"] == [4]
    # A lossless synchronous plan: the common subset holds every party that
    # was not killed (P_4, killed at 5Δ, is left out).
    assert record["common_subset"] == [1, 2, 3]


@pytest.mark.chaos
def test_run_case_over_threshold_kills_raise_typed_abort():
    plan = FaultPlan(
        seed=4,
        process_faults=[
            ProcessFault(party=3, sim_time=0.0),
            ProcessFault(party=4, sim_time=0.0),
        ],
    )
    with pytest.raises(ThresholdExceededAbort) as excinfo:
        run_case(plan, n=4, ts=1, ta=0)
    assert excinfo.value.killed == [3, 4]
    assert excinfo.value.threshold == 1
    assert "safety still held" in str(excinfo.value)


@pytest.mark.chaos
def test_run_case_latency_with_kill_degrades_to_async_threshold():
    """Found by the campaign itself (sampled seed 6): injected latency
    stretches deliveries past the sync Delta, the deadline-driven SBAs
    lawfully output bottom, and the run leans on the asynchronous fallback
    paths -- where the liveness threshold is t_a, not t_s.  One kill with
    t_a=0 is therefore a typed over-threshold abort (no liveness promise),
    not a liveness violation."""
    plan = sample_plan(6, 4)
    assert plan.breaks_synchrony() and not plan.loses_messages()
    assert plan.killed_parties() == [1]
    with pytest.raises(ThresholdExceededAbort) as excinfo:
        run_case(plan, n=4, ts=1, ta=0)
    assert excinfo.value.killed == [1]
    assert excinfo.value.threshold == 0  # t_a governs once synchrony breaks


def test_artifact_dump_and_repro_command(tmp_path):
    plan = _kitchen_sink_plan()
    plan.decide(1, 2, 0, can_hold=True)
    case = {"plan_seed": 42, "n": 4, "ts": 1, "ta": 0, "synchronous": True}
    path = dump_artifact(plan, case, "outputs diverged", str(tmp_path))
    assert os.path.basename(path) == f"plan-{plan.plan_hash()}-seed42.json"
    with open(path, "r", encoding="utf-8") as handle:
        artifact = json.load(handle)
    assert artifact["error"] == "outputs diverged"
    assert artifact["case"] == case
    assert FaultPlan.from_spec(artifact["spec"]).plan_hash() == plan.plan_hash()
    assert artifact["decision_log"] == [list(row) for row in plan.log]
    assert path in repro_command(path)
    assert repro_command(path).startswith("PYTHONPATH=src python -m")


@pytest.mark.chaos
def test_campaign_cli_replays_an_artifact(tmp_path, capsys):
    plan = FaultPlan(seed=6, link_faults=[LinkFault(duplicate=0.1)])
    case = {"n": 4, "ts": 1, "ta": 0, "synchronous": True}
    path = dump_artifact(plan, case, "synthetic failure", str(tmp_path))
    assert campaign_main(["--replay", path]) == 0
    replay = json.loads(capsys.readouterr().out)
    assert replay["replayed"] == "synthetic failure"
    assert replay["record"]["outcome"] == OK


def test_campaign_module_runs_once_under_dash_m():
    """``repro.faults`` does not import the campaign, so ``-m`` executes it
    once, as ``__main__``, and Python has nothing to warn about."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "repro.faults.campaign", "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr


@pytest.mark.chaos
def test_benign_campaign_asserts_liveness():
    records = run_campaign(2, n=4, ts=1, ta=0, base_seed=20,
                           include_loss=False, include_kills=False)
    assert len(records) == 2
    assert all(record["outcome"] == OK for record in records)


@pytest.mark.tier2
@pytest.mark.chaos(timeout=1800)
def test_tier2_chaos_campaign_soak():
    """A dozen sampled plans with loss and kills enabled: every case must
    land in the guarantee table (completing with reference outputs, an
    allowed stall under message loss, or a typed over-threshold abort) --
    any violation dumps an artifact and raises ChaosCampaignFailure."""
    records = run_campaign(12, n=4, ts=1, ta=0, base_seed=100,
                           include_loss=True, include_kills=True)
    assert len(records) == 12
    outcomes = {record["outcome"] for record in records}
    assert outcomes <= {OK, STALLED_ALLOWED, THRESHOLD_ABORT}
    assert OK in outcomes

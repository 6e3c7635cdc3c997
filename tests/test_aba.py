"""Tests for the randomized asynchronous Byzantine agreement (ΠABA, Lemma 3.3)."""

from repro.ba.aba import AbaCarrier, BrachaABA, aba_unanimous_time_bound
from repro.ba.common_coin import CommonCoin
from repro.sim import (
    AsynchronousNetwork,
    CrashBehavior,
    Simulator,
    SynchronousNetwork,
    WrongValueBehavior,
)


class LoneABA(BrachaABA):
    """A standalone ΠABA: the one slot of a one-slot carrier (``aba@0``, frozen
    at time 0), launched there with this party's ``value``, or by a later
    :meth:`provide_input`."""

    def __init__(self, party, faults, value=None):
        super().__init__(party, "aba", faults)
        self.value = value
        self.carrier = AbaCarrier.at(party, "aba@0", 0.0)
        self.carrier.join(self)

    def start(self):
        if self.value is not None:
            self.carrier.at_freeze(lambda: self.provide_input(self.value))

    def provide_input(self, value):
        self.carrier.launch(self, value)


def _run_aba(n, t, inputs, network=None, corrupt=None, seed=0, max_time=5_000.0):
    sim = Simulator(n, network=network or SynchronousNetwork(), seed=seed,
                    corrupt=corrupt or {})
    return sim.run(lambda party: LoneABA(party, t, inputs.get(party.id)), max_time=max_time)


def test_common_coin_is_shared_and_binary():
    coin = CommonCoin(seed=1)
    other = CommonCoin(seed=1)
    for round_index in range(10):
        value = coin.flip("tag", round_index)
        assert value in (0, 1)
        assert value == other.flip("tag", round_index)
    assert coin.flip("tag", 0) == coin.flip("tag", 0)
    # Different instances get (generally) independent coins.
    values = {coin.flip(f"tag{i}", 0) for i in range(32)}
    assert values == {0, 1}


def test_validity_unanimous_ones():
    result = _run_aba(4, 1, {i: 1 for i in range(1, 5)})
    assert all(v == 1 for v in result.honest_outputs().values())


def test_validity_unanimous_zeros():
    result = _run_aba(4, 1, {i: 0 for i in range(1, 5)})
    assert all(v == 0 for v in result.honest_outputs().values())


def test_agreement_mixed_inputs_sync():
    result = _run_aba(4, 1, {1: 0, 2: 1, 3: 0, 4: 1}, seed=2)
    outputs = list(result.honest_outputs().values())
    assert len(outputs) == 4
    assert len(set(outputs)) == 1
    assert outputs[0] in (0, 1)


def test_agreement_mixed_inputs_async():
    result = _run_aba(4, 1, {1: 0, 2: 1, 3: 1, 4: 0},
                      network=AsynchronousNetwork(max_delay=10.0), seed=3)
    outputs = list(result.honest_outputs().values())
    assert len(outputs) == 4
    assert len(set(outputs)) == 1


def test_validity_with_crashed_party():
    result = _run_aba(4, 1, {1: 1, 2: 1, 3: 1, 4: 1}, corrupt={2: CrashBehavior()})
    outputs = result.honest_outputs()
    assert len(outputs) == 3
    assert all(v == 1 for v in outputs.values())


def test_validity_with_byzantine_party():
    result = _run_aba(
        5, 1, {i: 0 for i in range(1, 6)},
        corrupt={5: WrongValueBehavior(offset=1)},
        network=AsynchronousNetwork(max_delay=5.0), seed=4,
    )
    outputs = result.honest_outputs()
    assert len(outputs) == 4
    assert all(v == 0 for v in outputs.values())


def test_unanimous_decision_is_fast_in_sync():
    result = _run_aba(4, 1, {i: 1 for i in range(1, 5)})
    # Unanimous inputs decide within a few rounds (expected two).
    assert max(result.honest_output_times().values()) <= 4 * aba_unanimous_time_bound(1.0)


def test_larger_committee_n7_t2():
    result = _run_aba(7, 2, {i: (1 if i <= 4 else 0) for i in range(1, 8)},
                      network=AsynchronousNetwork(max_delay=8.0), seed=6)
    outputs = list(result.honest_outputs().values())
    assert len(outputs) == 7
    assert len(set(outputs)) == 1


def test_agreement_over_many_seeds():
    """Consistency holds across schedules (several adversarial-ish seeds)."""
    for seed in range(5):
        result = _run_aba(4, 1, {1: 0, 2: 1, 3: 0, 4: 1},
                          network=AsynchronousNetwork(max_delay=15.0), seed=seed)
        outputs = list(result.honest_outputs().values())
        assert len(set(outputs)) == 1


def test_late_input_supported():
    sim = Simulator(4, network=SynchronousNetwork())
    instances = {pid: LoneABA(party, faults=1) for pid, party in sim.parties.items()}
    for pid, inst in instances.items():
        sim.schedule_timer(1.0, lambda inst=inst: inst.provide_input(1))
    sim.run_until(until=lambda: all(i.has_output for i in instances.values()),
                         max_time=1_000.0)
    assert all(i.output == 1 for i in instances.values())

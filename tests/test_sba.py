"""Tests for the phase-king synchronous Byzantine agreement (ΠBGP stand-in)."""

from repro.ba.sba import PhaseKingSBA, sba_time_bound
from repro.sim import (
    AsynchronousNetwork,
    CrashBehavior,
    EquivocatingBehavior,
    Simulator,
    SynchronousNetwork,
    WrongValueBehavior,
)


def _run_sba(n, t, inputs, network=None, corrupt=None, seed=0):
    """An n-slot bank, as ΠBC runs it, with each party's input in every slot.

    Every slot decides alike; the honest outputs (the slot's value) and output
    times are returned."""
    sim = Simulator(n, network=network or SynchronousNetwork(), seed=seed,
                    corrupt=corrupt or {})

    def factory(party):
        return PhaseKingSBA(party, "sba", faults=t, value=(inputs.get(party.id),) * n)

    result = sim.run(factory, max_time=10_000.0)
    outputs = result.honest_outputs()
    for output in outputs.values():
        assert len(output) == n and all(value == output[0] for value in output)
    return {pid: output[0] for pid, output in outputs.items()}, result.honest_output_times()


def test_validity_unanimous_inputs():
    outputs, _ = _run_sba(4, 1, {i: "v" for i in range(1, 5)})
    assert all(v == "v" for v in outputs.values())


def test_consistency_mixed_inputs():
    outputs, _ = _run_sba(4, 1, {1: 1, 2: 1, 3: 0, 4: 0})
    assert len(outputs) == 4
    assert len(set(map(str, outputs.values()))) == 1


def test_output_time_bound_synchronous():
    n, t = 4, 1
    _, times = _run_sba(n, t, {i: 1 for i in range(1, n + 1)})
    bound = sba_time_bound(n, t, 1.0)
    assert all(time <= bound + 1e-6 for time in times.values())


def test_validity_with_crashed_corrupt_party():
    outputs, _ = _run_sba(4, 1, {i: "x" for i in range(1, 5)}, corrupt={4: CrashBehavior()})
    assert len(outputs) == 3
    assert all(v == "x" for v in outputs.values())


def test_validity_with_lying_corrupt_party():
    # Corrupt party perturbs everything it sends; the three honest parties
    # still agree on their common input.
    outputs, _ = _run_sba(
        4, 1, {1: 5, 2: 5, 3: 5, 4: 5},
        corrupt={4: WrongValueBehavior(offset=3)},
    )
    assert all(v == 5 for v in outputs.values())


def test_consistency_with_equivocating_party():
    outputs, _ = _run_sba(
        4, 1, {1: 1, 2: 0, 3: 1, 4: 0},
        corrupt={4: EquivocatingBehavior(group_b=[1, 2])},
    )
    assert len(set(map(str, outputs.values()))) == 1


def test_larger_committee_n7_t2():
    inputs = {1: "a", 2: "a", 3: "a", 4: "a", 5: "a", 6: "b", 7: "b"}
    outputs, _ = _run_sba(7, 2, inputs, corrupt={6: CrashBehavior(), 7: CrashBehavior()})
    assert all(v == "a" for v in outputs.values())


def test_guaranteed_liveness_in_asynchronous_network():
    # In an asynchronous network only liveness is guaranteed: every honest
    # party outputs *something* by local time T_BGP.
    outputs, times = _run_sba(4, 1, {1: 1, 2: 0, 3: 1, 4: 0},
                              network=AsynchronousNetwork(max_delay=30.0), seed=5)
    assert len(outputs) == 4
    bound = sba_time_bound(4, 1, 1.0)
    assert all(time <= bound + 1e-6 for time in times.values())


def test_multivalued_inputs_agreement():
    outputs, _ = _run_sba(4, 1, {1: ("tuple", 1), 2: ("tuple", 1), 3: ("tuple", 1), 4: ("other", 2)})
    assert all(v == ("tuple", 1) for v in outputs.values())


def test_late_input_still_produces_output():
    sim = Simulator(4, network=SynchronousNetwork())
    instances = {}
    for pid, party in sim.parties.items():
        instances[pid] = PhaseKingSBA(party, "sba", faults=1, value=(None,) * 4)
    for inst in instances.values():
        inst.start()
    # Provide inputs a moment later (before round 1 closes they are unused;
    # liveness still yields an output for every party).
    sim.run_until(until=lambda: all(i.has_output for i in instances.values()),
                         max_time=1_000.0)
    assert all(i.output == (None,) * 4 for i in instances.values())

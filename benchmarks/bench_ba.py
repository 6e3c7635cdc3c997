"""E2 -- Best-of-both-worlds Byzantine agreement (Theorem 3.6).

ΠBA must behave as a t-perfectly-secure SBA in a synchronous network and as
a t-perfectly-secure ABA in an asynchronous network, for t < n/3 and both
unanimous and mixed inputs, with and without Byzantine parties.

``python benchmarks/bench_ba.py`` (and the pytest run) persists one
``scenario_<name>`` row per scenario to ``BENCH_ba.json`` -- messages, honest
bits and rounds (output time in Δ) -- and the ``bank_k1`` / ``bank_kn`` pair:
what one decided slot costs when a bank holds one ΠBA and when it holds n
(the n vote ΠBCs are paid once per bank, only the ΠABA once per slot).
"""

import pytest

from repro.ba.bobw import BestOfBothWorldsBA, ba_time_bound
from repro.sim import AsynchronousNetwork, CrashBehavior, SynchronousNetwork, WrongValueBehavior

from bench_common import make_runner, record_bench, summarize


def _run_ba(n, t, inputs, network, corrupt=None, seed=0):
    runner = make_runner(n, network=network, seed=seed, corrupt=corrupt)
    return runner.run(
        lambda party: BestOfBothWorldsBA(party, "ba", faults=t, value=inputs.get(party.id),
                                         anchor=0.0),
        max_time=100_000.0,
    )


SCENARIOS = {
    "sync-unanimous": dict(network=SynchronousNetwork(), inputs={i: 1 for i in range(1, 5)},
                           corrupt=None),
    "sync-mixed": dict(network=SynchronousNetwork(), inputs={1: 1, 2: 0, 3: 1, 4: 0},
                       corrupt=None),
    "sync-crash": dict(network=SynchronousNetwork(), inputs={i: 1 for i in range(1, 5)},
                       corrupt={4: CrashBehavior()}),
    "async-unanimous": dict(network=AsynchronousNetwork(max_delay=8.0),
                            inputs={i: 0 for i in range(1, 5)}, corrupt=None),
    "async-mixed-byzantine": dict(network=AsynchronousNetwork(max_delay=8.0),
                                  inputs={1: 1, 2: 0, 3: 1, 4: 0},
                                  corrupt={4: WrongValueBehavior(offset=1)}),
}


def measure_scenario(scenario):
    """One ledger row: the run's counts, and whether Theorem 3.6 held."""
    config = SCENARIOS[scenario]
    n, t = 4, 1
    result = _run_ba(n, t, config["inputs"], config["network"], corrupt=config["corrupt"])
    stats = summarize(result)
    stats["rounds"] = stats.pop("max_output_time")
    outputs = result.honest_outputs()
    stats["consistent"] = float(len(set(outputs.values())) <= 1)
    honest_inputs = {config["inputs"][pid] for pid in outputs}
    if len(honest_inputs) == 1:
        common_input = honest_inputs.pop()
        stats["valid"] = float(all(v == common_input for v in outputs.values()))
    else:
        stats["valid"] = 1.0
    stats["nominal_time_bound"] = ba_time_bound(n, t, 1.0)
    assert stats["consistent"] == 1.0
    assert stats["valid"] == 1.0
    return stats


def measure_bank(slots, n=4, t=1):
    """A synchronous bank of ``slots`` unanimous ΠBAs: cost per decided slot."""
    runner = make_runner(n, network=SynchronousNetwork(), seed=0)

    def factory(party):
        bank = BestOfBothWorldsBA(party, "ba", faults=t, anchor=0.0, slots=slots)
        for index in range(slots):
            bank.slots[index].provide_input(1)
        return bank

    result = runner.run(factory, max_time=100_000.0)
    stats = summarize(result)
    decided = slots * stats["honest_outputs"] / n
    assert decided == slots
    stats.update({
        "slots": float(slots),
        "rounds": stats.pop("max_output_time"),
        "messages_per_decided_slot": stats["messages_sent"] / decided,
        "honest_bits_per_decided_slot": stats["honest_bits"] / decided,
    })
    return stats


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_ba_scenarios(benchmark, scenario):
    stats = benchmark.pedantic(lambda: measure_scenario(scenario), iterations=1, rounds=1)
    benchmark.extra_info.update(stats)
    record_bench("ba", f"scenario_{scenario}", stats)


def test_bank_amortises_the_vote_broadcasts(benchmark):
    single, full = benchmark.pedantic(lambda: (measure_bank(1), measure_bank(4)),
                                      iterations=1, rounds=1)
    record_bench("ba", "bank_k1", single)
    record_bench("ba", "bank_kn", full)
    assert full["messages_per_decided_slot"] < single["messages_per_decided_slot"] / 2


def smoke():
    """Tiny-size rot check used by the bench_smoke tier-1 marker."""
    result = _run_ba(4, 1, {i: 1 for i in range(1, 5)}, SynchronousNetwork())
    outputs = result.honest_outputs()
    assert len(outputs) == 4 and set(outputs.values()) == {1}
    assert measure_bank(2)["messages_per_decided_slot"] < result.metrics.messages_sent
    return summarize(result)


def main() -> None:
    for scenario in sorted(SCENARIOS):
        stats = measure_scenario(scenario)
        record_bench("ba", f"scenario_{scenario}", stats)
        print(f"{scenario:22s} {stats['messages_sent']:6.0f} messages "
              f"{stats['honest_bits']:8.0f} bits  output at {stats['rounds']:.3f} Δ")
    for key, slots in (("bank_k1", 1), ("bank_kn", 4)):
        stats = measure_bank(slots)
        record_bench("ba", key, stats)
        print(f"{key:22s} {stats['messages_per_decided_slot']:6.0f} messages and "
              f"{stats['honest_bits_per_decided_slot']:8.0f} bits per decided slot")


if __name__ == "__main__":
    main()

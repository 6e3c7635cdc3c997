"""E1 -- Resilience comparison (paper abstract / Section 1 example).

The paper's headline example: with n = 8 parties, existing perfectly-secure
SMPC tolerates 2 corruptions (but only in a synchronous network) and
perfectly-secure AMPC tolerates 1 corruption; the best-of-both-worlds
protocol tolerates t_s = 2 faults in a synchronous network and t_a = 1 in an
asynchronous network *without knowing the network type*.

Running the full stack at n = 8 is out of simulation budget, so the
benchmark reproduces the same comparison at the smallest interesting sizes
(n = 4 and n = 5) and additionally reports the threshold table for n = 8
from the resilience formulas.  The qualitative shape -- who tolerates what,
in which network -- is the result being reproduced.
"""

import pytest

from repro.baselines import run_asynchronous_baseline, run_synchronous_baseline
from repro.circuits import mean_circuit
from repro.field import default_field
from repro.mpc import run_mpc
from repro.sim import (
    AdversarialAsynchronousNetwork,
    AsynchronousNetwork,
    CrashBehavior,
    SynchronousNetwork,
)

F = default_field()


def max_ts(n):
    """Largest t_s with 3*t_s + t_a < n for some t_a >= 0 (i.e. t_s < n/3)."""
    return (n - 1) // 3


def max_ta_bobw(n, ts):
    return min(ts, n - 3 * ts - 1)


def max_t_ampc(n):
    return (n - 1) // 4


def test_resilience_threshold_table(benchmark):
    """The threshold table of the paper's introduction (n = 8 example included)."""

    def build():
        table = {}
        for n in (4, 5, 8, 13):
            ts = max_ts(n)
            table[n] = {
                "smpc_sync_only": ts,
                "ampc_any_network": max_t_ampc(n),
                "bobw_sync": ts,
                "bobw_async": max_ta_bobw(n, ts),
            }
        return table

    table = benchmark.pedantic(build, iterations=1, rounds=1)
    benchmark.extra_info["table"] = {str(k): v for k, v in table.items()}
    # Paper, Section 1: n = 8 -> SMPC tolerates 2, AMPC tolerates 1, and the
    # best-of-both-worlds protocol tolerates 2 (sync) / 1 (async).
    assert table[8] == {
        "smpc_sync_only": 2,
        "ampc_any_network": 1,
        "bobw_sync": 2,
        "bobw_async": 1,
    }


def test_bobw_tolerates_ts_crash_in_sync(benchmark):
    """Best-of-both-worlds, synchronous network, t_s = 1 crash at n = 4."""
    circuit = mean_circuit(F, 4)
    result = benchmark.pedantic(
        lambda: run_mpc(circuit, {1: 1, 2: 2, 3: 3, 4: 4}, n=4, ts=1, ta=0, seed=1,
                        corrupt={4: CrashBehavior()}),
        iterations=1, rounds=1,
    )
    benchmark.extra_info.update(
        {"completed": float(result.completed), "agreed": float(result.agreed)}
    )
    assert result.completed and result.agreed
    assert result.outputs == [F(6)]


def test_bobw_tolerates_ta_crash_in_async(benchmark):
    """Best-of-both-worlds, asynchronous network, t_a = 1 crash at n = 5."""
    circuit = mean_circuit(F, 5)
    result = benchmark.pedantic(
        lambda: run_mpc(circuit, {i: i for i in range(1, 6)}, n=5, ts=1, ta=1, seed=2,
                        network=AsynchronousNetwork(max_delay=3.0),
                        corrupt={5: CrashBehavior()}),
        iterations=1, rounds=1,
    )
    benchmark.extra_info.update(
        {"completed": float(result.completed), "agreed": float(result.agreed),
         "cs_size": float(len(result.common_subset or []))}
    )
    assert result.completed and result.agreed


def test_smpc_baseline_works_in_sync_only(benchmark):
    circuit = mean_circuit(F, 4)
    inputs = {1: 1, 2: 2, 3: 3, 4: 4}

    def run_both():
        sync_run = run_synchronous_baseline(circuit, inputs, n=4, faults=1)
        # Synchronous except that party 2's outgoing messages take 50 Delta.
        bad_net = AdversarialAsynchronousNetwork(slow_parties=frozenset({2}), slow_delay=50.0,
                                                 fast_delay=1.0, slow_senders_only=True)
        async_run = run_synchronous_baseline(circuit, inputs, n=4, faults=1, network=bad_net,
                                             max_time=1_000.0)
        return sync_run, async_run

    sync_run, async_run = benchmark.pedantic(run_both, iterations=1, rounds=1)
    expected = [F(10)]
    sync_ok = all(out == expected for out in sync_run.honest_outputs().values())
    async_ok = all(out == expected for out in async_run.honest_outputs().values())
    benchmark.extra_info.update(
        {"sync_correct": float(sync_ok), "async_correct": float(async_ok)}
    )
    assert sync_ok
    assert not async_ok  # the synchronous baseline breaks once Δ is violated


def test_ampc_baseline_lower_threshold_and_dropped_inputs(benchmark):
    circuit = mean_circuit(F, 5)
    inputs = {i: 10 * i for i in range(1, 6)}

    result = benchmark.pedantic(
        lambda: run_asynchronous_baseline(circuit, inputs, n=5, faults=1,
                                          network=AsynchronousNetwork(max_delay=4.0), seed=3),
        iterations=1, rounds=1,
    )
    outputs = list(result.honest_outputs().values())
    benchmark.extra_info.update(
        {
            "completed": float(len(outputs) == 5),
            # The AMPC baseline ignored party 5's input (core set of n - t_a).
            "dropped_input_effect": float(all(out == [F(100)] for out in outputs)),
        }
    )
    assert all(out == [F(100)] for out in outputs)


def smoke():
    """Tiny-size rot check used by the bench_smoke tier-1 marker."""
    assert (max_ts(8), max_ta_bobw(8, max_ts(8)), max_t_ampc(8)) == (2, 1, 1)
    circuit = mean_circuit(F, 4)
    result = run_mpc(circuit, {1: 1, 2: 2, 3: 3, 4: 4}, n=4, ts=1, ta=0, seed=1,
                     corrupt={4: CrashBehavior()})
    assert result.completed and result.agreed
    return {"outputs": [int(v) for v in result.outputs]}

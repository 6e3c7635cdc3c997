"""The four end-to-end workloads, driven through the public API only.

Every workload evaluates ``multiplication_circuit(F, n)`` (n-1 multiplication
gates, depth ceil(log n)) and checks each result with :mod:`oracle`.  Round
``i`` of a run with ``--seed S`` draws the party inputs, the ``run_mpc``
seed and the network's delay draws from ``S + i``.  Importing this module
imports ``repro``, so the caller times the import as part of ``setup_s``.
"""

from __future__ import annotations

import random
import resource
import time
import traceback
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import AsynchronousNetwork, SynchronousNetwork, default_field, run_mpc
from repro.circuits import multiplication_circuit
from repro.mpc.protocol import cir_eval_time_bound
from repro.runtime.launcher import TcpBackend
from repro.service import MpcService, ServiceConfig
from repro.triples.preprocessing import preprocessing_time_bound

from hostspeed import Gauge
from oracle import check_evaluation

#: Hard caps on one tcp evaluation: a wedged socket becomes a failed
#: evaluation, never a hang (the whole run must exit within 180 s).
TCP_RUN_CAP_S = 60.0
TCP_STARTUP_CAP_S = 30.0


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@dataclass
class Evaluation:
    """One evaluation as the caller saw it, with the oracle's verdict."""

    wall_s: float
    cpu_s: float
    #: Mean host slowdown while it ran (``hostspeed.Gauge``); 1.0 unmeasured.
    slowdown: float = 1.0
    messages: int = 0
    honest_bits: int = 0
    rounds: float = 0.0
    failures: List[str] = dataclass_field(default_factory=list)
    outputs: Optional[List[int]] = None
    #: tcp only: ``TcpBackend.startup_seconds`` of this evaluation.
    startup_s: Optional[float] = None
    #: service only: triples a refill round deposited during this evaluation.
    triples_produced: int = 0
    #: Parties outside the common subset (``run_mpc`` workloads).
    left_out: int = 0


def timed(call: Callable[[], Any], gauge: Optional[Gauge]) -> Tuple[Any, Evaluation]:
    """Run ``call``; an exception is a failed evaluation, not a crash."""
    failures: List[str] = []
    result = None
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - the benchmark must keep counting
        traceback.print_exc()
        failures.append(f"raised {exc!r}")
    wall1 = time.perf_counter()
    return result, Evaluation(
        wall1 - wall0, cpu_seconds() - cpu0, failures=failures,
        slowdown=gauge.slowdown(wall0, wall1) if gauge else 1.0,
    )


class Workload:
    """Base: one circuit, seeded inputs, and rounds of evaluations."""

    name: str
    n: int
    ts: int
    ta: int
    #: Fresh processes that repeat the set-up, for the ``setup_s`` median,
    #: and how many of them run after each round.
    setup_probes = 6
    probes_per_round = 2
    #: The wall of an evaluation is CPU time of this host, so it is corrected
    #: for the host's slowdown like CPU time is (not so when a clock paces it).
    cpu_bound_wall = True
    #: ``gc.collect()`` between rounds (one-shot callers start from a clean
    #: heap; the service stream must keep its long-lived one).
    collect_between_rounds = True

    def __init__(self, seed: int, smoke: bool = False, break_oracle: bool = False,
                 gauge: Optional[Gauge] = None):
        self.seed = seed
        self.smoke = smoke
        self.break_oracle = break_oracle
        self.gauge = gauge
        self.field = default_field()
        self.circuit = multiplication_circuit(self.field, self.n)

    def inputs(self, index: int) -> Dict[int, int]:
        rng = random.Random(self.seed + index)
        return {pid: rng.randrange(1, 2 ** 31) for pid in range(1, self.n + 1)}

    def check(self, inputs: Dict[int, int], result: Any, **oracle_options: Any) -> List[str]:
        if self.break_oracle:
            # The deliberately wrong expectation: the oracle is told party 1
            # input something else, so every evaluation must fail.
            inputs = dict(inputs)
            inputs[1] += 1
        return check_evaluation(
            self.circuit, self.field, inputs, result, n=self.n, ts=self.ts, **oracle_options
        )

    def round(self, index: int) -> List[Evaluation]:
        """Run the ``index``-th unit of work and return its evaluations."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the workload holds (nothing by default)."""


class RunMpcWorkload(Workload):
    """One ``run_mpc`` call per round."""

    offline = "tripsh"
    #: No fault is injected, so no party may be left out of the common subset.
    all_in_subset = False
    #: Simulated synchrony: the output must arrive within the nominal bound.
    time_bounded = False

    def backend_options(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def round(self, index: int, **run_options: Any) -> List[Evaluation]:
        inputs = self.inputs(index)
        options = self.backend_options(self.seed + index)
        options.update(run_options)
        result, evaluation = timed(lambda: run_mpc(
            self.circuit, inputs, n=self.n, ts=self.ts, ta=self.ta,
            offline=self.offline, **options), self.gauge)
        evaluation.startup_s = getattr(options.get("backend"), "startup_seconds", None)
        if result is not None:
            times = result.output_times
            evaluation.rounds = max(times.values()) if times else 0.0
            evaluation.messages = result.metrics.messages_sent
            evaluation.honest_bits = result.metrics.honest_bits
            if result.outputs is not None:
                evaluation.outputs = [int(v) for v in result.outputs]
            evaluation.left_out = self.n - len(result.common_subset or ())
            time_bound = cir_eval_time_bound(
                self.n, self.ts, self.circuit.multiplicative_depth, 1.0,
                c_m=self.circuit.multiplication_count, offline=self.offline,
            ) if self.time_bounded else None
            evaluation.failures += self.check(
                inputs, result, all_in_subset=self.all_in_subset,
                rounds=evaluation.rounds, time_bound=time_bound,
            )
        return [evaluation]


class SyncN4Tripsh(RunMpcWorkload):
    name = "sync_n4_tripsh"
    n, ts, ta = 4, 1, 0
    all_in_subset = True
    time_bounded = True

    def backend_options(self, seed: int) -> Dict[str, Any]:
        return {"network": SynchronousNetwork(), "seed": seed}


class AsyncN5Him(RunMpcWorkload):
    name = "async_n5_him"
    n, ts, ta = 5, 1, 1
    offline = "him"

    def backend_options(self, seed: int) -> Dict[str, Any]:
        return {"network": AsynchronousNetwork(max_delay=3.0), "seed": seed}


class TcpN4Tripsh(RunMpcWorkload):
    name = "tcp_n4_tripsh"
    n, ts, ta = 4, 1, 0
    #: CPU-bound on a real clock, a party can miss a synchronous deadline and
    #: be left out of the common subset.  The paper allows that (|CS| >= n -
    #: t_s, its input read as 0), so it is reported, not counted as a failure.
    all_in_subset = False
    #: Seconds of real clock per Delta.  At 0.05 the four party processes keep
    #: the synchronous deadlines on a 2-core host (output after ~148 Delta, the
    #: simulator's 145 plus scheduling slack) and the wall is the protocol's
    #: rounds, as in a deployment whose Delta covers its compute; at 0.005
    #: they miss them, the run falls back to its asynchronous paths (~1100
    #: Delta) and the wall is host CPU contention, +-25% from run to run.
    TIME_SCALE = 0.05
    cpu_bound_wall = False

    def __init__(self, seed: int, smoke: bool = False, **options: Any):
        super().__init__(seed, smoke, **options)
        if smoke:
            self.offline = "him"

    def backend_options(self, seed: int) -> Dict[str, Any]:
        # A fresh backend per call: its run() spawns and reaps the four party
        # processes, so callers pay process start-up in every evaluation.
        return {"backend": TcpBackend(
            self.n, seed=seed, time_scale=self.TIME_SCALE,
            startup_timeout=TCP_STARTUP_CAP_S, run_timeout=TCP_RUN_CAP_S,
        )}

    def sim_twin(self) -> RunMpcWorkload:
        """The simulator workload with this one's circuit, inputs and offline mode."""
        twin = SyncN4Tripsh(self.seed, self.smoke, break_oracle=self.break_oracle)
        twin.offline = self.offline
        return twin


class ServiceN4Stream(Workload):
    name = "service_n4_stream"
    n, ts, ta = 4, 1, 0
    collect_between_rounds = False
    #: The set-up is the initial reservoir fill, seconds not milliseconds.
    setup_probes = 2
    probes_per_round = 1
    #: 3 triples per evaluation: a refill round of 21 triples starts in the
    #: background every 7th call.  Sized so whole cycles fit in one run.
    LOW_WATERMARK, HIGH_WATERMARK = 6, 24
    SMOKE_EVALS = 2
    MAX_CYCLE_EVALS = 64

    def __init__(self, seed: int, smoke: bool = False, **options: Any):
        super().__init__(seed, smoke, **options)
        config = ServiceConfig(low_watermark=self.LOW_WATERMARK,
                               high_watermark=self.HIGH_WATERMARK)
        self.service = MpcService(self.n, self.ts, self.ta, config=config, seed=seed)
        self.evaluations = 0
        self.time_bound = cir_eval_time_bound(
            self.n, self.ts, self.circuit.multiplicative_depth, 1.0,
            c_m=self.circuit.multiplication_count,
        ) + preprocessing_time_bound(self.n, self.ts, 1.0, c_m=self.HIGH_WATERMARK)
        # Set-up: the first evaluation pays the initial reservoir fill, and the
        # second brings the reservoir to the level a background refill leaves
        # behind (HIGH - 2 evaluations' worth), so the first timed cycle
        # already has the length and message count of every later one.
        for _ in range(2):
            failures = self.evaluate().failures
            if failures:
                raise RuntimeError(f"service set-up evaluation failed: {failures}")

    def evaluate(self) -> Evaluation:
        service = self.service
        inputs = self.inputs(self.evaluations)
        self.evaluations += 1
        metrics = service.backend.metrics
        messages0, bits0, now0 = metrics.messages_sent, metrics.honest_bits, service.now
        produced0 = service.reservoir.produced
        result, evaluation = timed(lambda: service.evaluate(self.circuit, inputs), self.gauge)
        evaluation.messages = metrics.messages_sent - messages0
        evaluation.honest_bits = metrics.honest_bits - bits0
        evaluation.rounds = service.now - now0
        evaluation.triples_produced = service.reservoir.produced - produced0
        if result is not None:
            evaluation.outputs = result.output_values
            evaluation.failures += self.check(
                inputs, result, all_in_subset=True,
                rounds=evaluation.rounds, time_bound=self.time_bound,
            )
        return evaluation

    def round(self, index: int) -> List[Evaluation]:
        """One refill cycle: evaluate until a refill round has deposited."""
        limit = self.SMOKE_EVALS if self.smoke else self.MAX_CYCLE_EVALS
        cycle: List[Evaluation] = []
        while len(cycle) < limit:
            cycle.append(self.evaluate())
            if cycle[-1].triples_produced and not self.smoke:
                break
        return cycle

    def close(self) -> None:
        self.service.close()


WORKLOADS = {cls.name: cls for cls in (SyncN4Tripsh, AsyncN5Him, ServiceN4Stream, TcpN4Tripsh)}

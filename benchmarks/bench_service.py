"""Long-lived service benchmark: sustained stream throughput and recovery time.

Records to ``BENCH_service.json`` via :func:`bench_common.record_bench`:

* ``stream_n4_1000`` -- sustained evaluations/second over a 1000-evaluation
  stream of an n=4 multiplication circuit with reservoir preprocessing
  amortized across the stream (the service refills between the low and high
  watermarks in the background), vs the naive per-evaluation-preprocessing
  baseline measured over a short prefix;
* ``recovery_n4`` -- crash→rejoined recovery time (simulated and wall
  clock), the snapshot size, and the reservoir work discarded by the
  rejoin reconciliation;
* ``checkpoint_n4`` -- checkpoint and restore wall costs and the snapshot
  blob size as the reservoir level grows;
* ``heap_n4_stream`` -- the heap per refill cycle of the e2e
  ``service_n4_stream`` configuration: tracked objects after a full
  collection, tracemalloc current and peak, ``ru_maxrss``, and the
  collector's generation-2 passes and their pause time.

Throughput is end-to-end: it includes the refill rounds the stream
triggers, so the evals/s figure is the *sustained* service rate, not the
burst rate off a pre-filled reservoir.
"""

from __future__ import annotations

import gc
import resource
import time
import tracemalloc
from typing import Dict, List

from bench_common import FIELD, record_bench
from repro.circuits import multiplication_circuit
from repro.mpc import run_mpc
from repro.service import CheckpointStore, MpcService, ServiceConfig


def _stream(service: MpcService, circuit, evaluations: int) -> Dict[str, float]:
    inputs = {pid: pid + 2 for pid in range(1, service.n + 1)}
    expected = circuit.evaluate({pid: FIELD(v) for pid, v in inputs.items()})
    start = time.perf_counter()
    for _ in range(evaluations):
        result = service.evaluate(circuit, inputs)
        assert result.outputs == expected, "service stream produced a wrong output"
    wall = time.perf_counter() - start
    return {
        "evaluations": float(evaluations),
        "wall_s": wall,
        "evals_per_s": evaluations / wall if wall else float("inf"),
        "sim_time": service.now,
        "triples_produced": float(service.reservoir.produced),
        "messages_sent": float(service.backend.metrics.messages_sent),
    }


def bench_stream(evaluations: int = 1000, baseline_evals: int = 20) -> Dict[str, Dict[str, float]]:
    """Sustained service throughput vs per-evaluation preprocessing."""
    n, ts, ta = 4, 1, 0
    circuit = multiplication_circuit(FIELD, n)
    config = ServiceConfig(low_watermark=16, high_watermark=96)
    service = MpcService(n, ts, ta, config=config, seed=0)
    rows = {"service_stream": _stream(service, circuit, evaluations)}

    # Baseline: one-shot run_mpc (ACS + per-evaluation ΠPreProcessing every
    # time), measured over a short prefix and normalized to evals/s.
    inputs = {pid: pid + 2 for pid in range(1, n + 1)}
    start = time.perf_counter()
    for _ in range(baseline_evals):
        result = run_mpc(circuit, inputs, n=n, ts=ts, ta=ta, seed=1)
        assert result.completed
    baseline_wall = time.perf_counter() - start
    rows["per_eval_preprocessing_baseline"] = {
        "evaluations": float(baseline_evals),
        "wall_s": baseline_wall,
        "evals_per_s": baseline_evals / baseline_wall,
    }

    payload: Dict[str, float] = {
        "n": float(n),
        "low_watermark": float(config.low_watermark),
        "high_watermark": float(config.high_watermark),
        "speedup_vs_per_eval_preprocessing": (
            rows["service_stream"]["evals_per_s"]
            / rows["per_eval_preprocessing_baseline"]["evals_per_s"]
        ),
    }
    for name, row in rows.items():
        for key, value in row.items():
            payload[f"{name}_{key}"] = value
    record_bench("service", f"stream_n{n}_{evaluations}", payload)
    return rows


def bench_recovery(downtime_evals: int = 3) -> Dict[str, float]:
    """Crash→rejoined recovery: time, discarded work, replayed results."""
    n, ts, ta = 4, 1, 0
    circuit = multiplication_circuit(FIELD, n)
    config = ServiceConfig(low_watermark=8, high_watermark=32)
    service = MpcService(n, ts, ta, config=config, seed=0)
    inputs = {pid: pid + 2 for pid in range(1, n + 1)}
    for _ in range(3):
        service.evaluate(circuit, inputs)
    version = service.checkpoint()
    service.crash_party(n)
    for _ in range(downtime_evals):  # the stream keeps running degraded
        service.evaluate(circuit, inputs)
    report = service.rejoin_party(n)
    result = service.evaluate(circuit, inputs)
    assert not result.degraded, "post-rejoin evaluation still degraded"
    payload = {
        "n": float(n),
        "downtime_evals": float(downtime_evals),
        "sim_recovery_time": report.sim_recovery_time,
        "wall_recovery_s": report.wall_recovery_time,
        "handshake_attempts": float(report.attempts),
        "triples_discarded": float(report.triples_discarded),
        "replayed_results": float(report.replayed_results),
        "snapshot_bytes": float(service.store.blob_bytes(version)),
    }
    record_bench("service", f"recovery_n{n}", payload)
    return payload


def bench_checkpoint() -> Dict[str, float]:
    """Checkpoint/restore wall costs at a filled reservoir."""
    n, ts, ta = 4, 1, 0
    circuit = multiplication_circuit(FIELD, n)
    config = ServiceConfig(low_watermark=32, high_watermark=128)
    service = MpcService(n, ts, ta, config=config, seed=0)
    inputs = {pid: pid + 2 for pid in range(1, n + 1)}
    service.evaluate(circuit, inputs)  # forces a refill toward the high mark
    start = time.perf_counter()
    version = service.checkpoint()
    checkpoint_wall = time.perf_counter() - start
    start = time.perf_counter()
    restored = MpcService.restore(service.store, version=version, config=config)
    restore_wall = time.perf_counter() - start
    assert restored.reservoir.watermarks() == service.reservoir.watermarks()
    payload = {
        "n": float(n),
        "reservoir_level": float(service.reservoir.level(1)),
        "snapshot_bytes": float(service.store.blob_bytes(version)),
        "checkpoint_wall_s": checkpoint_wall,
        "restore_wall_s": restore_wall,
    }
    record_bench("service", f"checkpoint_n{n}", payload)
    return payload


class _FullPasses:
    """Generation-2 collections and their pause time, from ``gc.callbacks``."""

    def __init__(self):
        self.count = 0
        self.pause_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.count += 1
            self.pause_s += time.perf_counter() - self._started


def bench_heap(cycles: int = 3) -> List[Dict[str, float]]:
    """The heap at the end of each refill cycle of a service stream.

    The stream is the e2e ``service_n4_stream`` workload's (watermarks 6/24,
    3 triples per evaluation).  A cycle runs until a refill round has landed
    and the next evaluation has finished, the first boundary at which the
    round can have been retired.  The table's own ``gc.collect()`` falls
    between two cycles' pass counts.  Tracemalloc slows the stream, so the
    pause times are relative, and no throughput is recorded; ``ru_maxrss``
    is the process's high-water mark, tracemalloc's own tables included, so
    :func:`main` runs this table first.
    """
    n, ts, ta = 4, 1, 0
    circuit = multiplication_circuit(FIELD, n)
    config = ServiceConfig(low_watermark=6, high_watermark=24)
    service = MpcService(n, ts, ta, config=config, seed=0)
    inputs = {pid: pid + 2 for pid in range(1, n + 1)}
    passes = _FullPasses()
    rows: List[Dict[str, float]] = []
    tracemalloc.start()
    gc.callbacks.append(passes)
    try:
        service.evaluate(circuit, inputs)  # the initial fill
        for _ in range(cycles):
            tracemalloc.reset_peak()
            count0, pause0 = passes.count, passes.pause_s
            produced0, evaluations = service.reservoir.produced, 0
            while service.reservoir.produced == produced0:
                service.evaluate(circuit, inputs)
                evaluations += 1
            service.evaluate(circuit, inputs)
            evaluations += 1
            row = {
                "evaluations": float(evaluations),
                "gen2_passes": float(passes.count - count0),
                "gen2_pause_s": passes.pause_s - pause0,
            }
            gc.collect()  # after the row's passes are read, before the next cycle's
            current, peak = tracemalloc.get_traced_memory()
            row.update({
                "tracked_objects": float(len(gc.get_objects())),
                "instances_per_party": float(service.backend.parties[1].load()[0]),
                "tracemalloc_current_mb": current / 2**20,
                "tracemalloc_peak_mb": peak / 2**20,
                "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            })
            rows.append(row)
    finally:
        gc.callbacks.remove(passes)
        tracemalloc.stop()
    payload: Dict[str, float] = {"n": float(n), "cycles": float(cycles)}
    for index, row in enumerate(rows, start=1):
        for key, value in row.items():
            payload[f"cycle{index}_{key}"] = value
    record_bench("service", f"heap_n{n}_stream", payload)
    return rows


def smoke():
    """Tiny-size rot check used by the bench_smoke tier-1 marker."""
    store = CheckpointStore()
    config = ServiceConfig(low_watermark=2, high_watermark=6)
    service = MpcService(4, 1, 0, config=config, store=store, seed=0)
    circuit = multiplication_circuit(FIELD, 4)
    inputs = {pid: pid + 2 for pid in range(1, 5)}
    expected = circuit.evaluate({pid: FIELD(v) for pid, v in inputs.items()})
    for _ in range(2):
        assert service.evaluate(circuit, inputs).outputs == expected
    version = service.checkpoint()
    service.crash_party(4)
    report = service.rejoin_party(4)
    assert report.party_id == 4
    restored = MpcService.restore(store, version=version, config=config)
    assert restored.evaluate(circuit, inputs).outputs == expected
    return {"evals": 3, "snapshot_bytes": store.blob_bytes(version)}


def main() -> None:
    print("service: heap per refill cycle (n=4, watermarks 6/24) ...")
    print("  cycle  evals  tracked obj  instances  tm cur MB  tm peak MB  "
          "maxrss MB  gen2  pause s")
    for index, row in enumerate(bench_heap(), start=1):
        print(f"  {index:5d}  {row['evaluations']:5.0f}  {row['tracked_objects']:11.0f}  "
              f"{row['instances_per_party']:9.0f}  {row['tracemalloc_current_mb']:9.1f}  "
              f"{row['tracemalloc_peak_mb']:10.1f}  {row['ru_maxrss_mb']:9.1f}  "
              f"{row['gen2_passes']:4.0f}  {row['gen2_pause_s']:7.3f}")
    print("service: 1000-evaluation sustained stream (n=4) ...")
    for name, row in bench_stream().items():
        print(f"  {name:32s} {row['evals_per_s']:8.2f} evals/s   "
              f"wall {row['wall_s']:7.1f} s")
    print("service: crash -> rejoined recovery (n=4) ...")
    recovery = bench_recovery()
    print(f"  sim recovery time {recovery['sim_recovery_time']:.1f} units   "
          f"wall {recovery['wall_recovery_s']*1000:.1f} ms   "
          f"discarded {recovery['triples_discarded']:.0f} triples   "
          f"replayed {recovery['replayed_results']:.0f} results")
    print("service: checkpoint/restore (n=4) ...")
    checkpoint = bench_checkpoint()
    print(f"  snapshot {checkpoint['snapshot_bytes']/1024:.1f} KiB   "
          f"checkpoint {checkpoint['checkpoint_wall_s']*1000:.1f} ms   "
          f"restore {checkpoint['restore_wall_s']*1000:.1f} ms")


if __name__ == "__main__":
    main()

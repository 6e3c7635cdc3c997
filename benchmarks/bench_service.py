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
  blob size as the reservoir level grows.

Throughput is end-to-end: it includes the refill rounds the stream
triggers, so the evals/s figure is the *sustained* service rate, not the
burst rate off a pre-filled reservoir.
"""

from __future__ import annotations

import time
from typing import Dict

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

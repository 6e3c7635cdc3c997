"""The per-layer pass: where one evaluation's time, messages and bits went.

``measure_layers`` takes a workload and the evaluations of an untraced round
of it (the reference for ``trace.overhead_ratio``), repeats that round under
:class:`tracer.Tracer` and once more under cProfile, and returns the rows of
the layer table by their BENCHMARK.json names.  Rows it does not return (a
layer that does not run on this workload) read 0 in the report.  With
``workload.smoke`` only the traced round runs.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Any, Dict, List, Tuple

from repro.service import MpcService

from tracer import Tracer, profile_shares, wire_codec_costs
from workloads import Evaluation, RunMpcWorkload, ServiceN4Stream, TcpN4Tripsh, Workload

Rows = Dict[str, float]


def measure_layers(workload: Workload, reference: List[Evaluation],
                   results_dir: str) -> Tuple[Rows, List[Evaluation]]:
    if isinstance(workload, TcpN4Tripsh):
        return tcp_rows(workload, reference)
    rows, evaluations, tracer = traced_round(workload, reference)
    if not workload.smoke:
        evaluations += profiled_round(workload, rows)
        if isinstance(workload, ServiceN4Stream):
            service_rows(workload, reference, rows)
        elif workload.name == "sync_n4_tripsh":
            evaluations += asyncio_parity(workload, reference[0], rows)
    tracer.dump(os.path.join(results_dir, f"trace-{workload.name}.json"),
                {"workload": workload.name, "seed": workload.seed, "rows": rows})
    return rows, evaluations


def traced_round(workload: Workload, reference: List[Evaluation]):
    """Round 1 again under the wrappers; the layer sums must equal the totals."""
    tracer = Tracer()
    with tracer:
        traced = workload.round(1)
    rows = tracer.metrics()
    rows["trace.overhead_ratio"] = (sum(e.wall_s for e in traced)
                                    / sum(e.wall_s for e in reference))
    rows.update(wire_codec_costs(tracer.messages))
    for what, by_layer, total in (
            ("msgs_out", tracer.msgs_out, sum(e.messages for e in traced)),
            ("bits_out", tracer.bits_out, sum(e.honest_bits for e in traced))):
        if sum(by_layer.values()) != total:
            traced[0].failures.append(
                f"layer {what} sum to {sum(by_layer.values())}, the run counted {total}")
    if tracer.unlisted_layers():
        traced[0].failures.append(f"layers without a row: {tracer.unlisted_layers()}")
    return rows, traced, tracer


def profiled_round(workload: Workload, rows: Rows) -> List[Evaluation]:
    profiled: List[Evaluation] = []
    rows.update(profile_shares(lambda: profiled.extend(workload.round(1))))
    return profiled


def asyncio_parity(workload: RunMpcWorkload, sim: Evaluation, rows: Rows) -> List[Evaluation]:
    """One virtual-clock asyncio evaluation: same counts as the simulator's."""
    (virtual,) = workload.round(1, backend="asyncio")
    rows["runtime.asyncio_backend.virtual_vs_sim_wall"] = virtual.wall_s / sim.wall_s
    for what in ("outputs", "messages", "honest_bits", "rounds"):
        if getattr(virtual, what) != getattr(sim, what):
            virtual.failures.append(
                f"asyncio {what} {getattr(virtual, what)} != sim {getattr(sim, what)}")
    return [virtual]


def service_rows(workload: ServiceN4Stream, cycle: List[Evaluation], rows: Rows) -> None:
    """Reservoir rows from the untraced reference cycle, then checkpoint/restore."""
    walls = [e.wall_s for e in cycle]
    # The refill round runs in the background of the evaluations around it;
    # from outside it is the wall the cycle spent above its median evaluation.
    rows["service.reservoir.refill_wall_s"] = sum(
        max(0.0, wall - statistics.median(walls)) for wall in walls)
    rows["service.reservoir.refills"] = sum(1 for e in cycle if e.triples_produced)
    rows["service.reservoir.triples_produced"] = sum(e.triples_produced for e in cycle)

    service = workload.service
    started = time.perf_counter()
    version = service.checkpoint()
    rows["service.checkpoint.checkpoint_s"] = time.perf_counter() - started
    rows["service.checkpoint.snapshot_bytes"] = service.store.blob_bytes(version)
    started = time.perf_counter()
    restored = MpcService.restore(service.store, version, config=service.config)
    rows["service.checkpoint.restore_s"] = time.perf_counter() - started
    restored.close()


def tcp_rows(workload: TcpN4Tripsh, reference: List[Evaluation]) -> Tuple[Rows, List[Evaluation]]:
    """From outside only: the party processes are not patched."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    (twin,) = workload.sim_twin().round(1)
    (tcp,) = reference
    if not tcp.left_out and tcp.outputs != twin.outputs:
        twin.failures.append(f"sim twin outputs {twin.outputs} != tcp {tcp.outputs}")
    rows: Dict[str, Any] = {
        "runtime.launcher.startup_s": tcp.startup_s or 0.0,
        "runtime.launcher.children_cpu_s": children.ru_utime + children.ru_stime,
        "runtime.launcher.children_peak_rss_mb": children.ru_maxrss / 1024.0,
        "runtime.tcp_vs_sim_wall": tcp.wall_s / twin.wall_s,
    }
    return rows, [twin]

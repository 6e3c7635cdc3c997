"""Execution-runtime benchmark: sim vs asyncio backend throughput.

Runs the same protocol code on the two execution backends and records
wall-clock and event-throughput rows to ``BENCH_runtime.json`` via
:func:`bench_common.record_bench`:

* ``acast_n16`` -- a 16-party Acast of a 256-element field vector, the
  n=16 throughput row (sim, and asyncio: the simulator paced by the wall
  clock at 0.2 ms per Δ);
* ``mpc_n4`` -- a full ΠCirEval multiplication on both backends, with the
  cyclic collector's share of each run (``gc_collections``,
  ``gc_full_collections``, ``gc_pause_s``, counted through ``gc.callbacks``),
  and a ``tcp`` arm: the same evaluation as four OS processes over localhost
  sockets (wall, the children's CPU seconds, and the data-frame ledger --
  frames, framed messages, messages per frame);
* ``multiacast_n32_multiprocess`` -- the same n=32 MultiAcast run
  single-process (all parties in one paced loop) and
  multi-process (``backend="tcp"``: one OS process per party, every frame
  over a real localhost socket).

Throughput is delivered protocol messages per wall second.  The in-process
asyncio run is the simulator's run, event for event, slowed to wall time,
so its ratio to the sim wall is the pacing plus the event loop's hops; at
0.2 ms per Δ the handlers mostly run late and the pacing rarely waits.

The multi-process row records ``cpu_count`` alongside the walls because the
comparison is hardware-bound: the point of one-process-per-party is escaping
the GIL, so with k usable cores the 32 parties' protocol CPU spreads k ways
while the single-process loop serializes all of it.  On a single-core
container there is no parallelism to recoup the wire costs (codec + syscalls
vs by-reference in-process delivery) or the start-up -- one launcher
interpreter and a fork per party, ``startup_s`` reported separately -- so
the tcp wall can only lag there
-- read the ``tcp_steady_vs_single_wall`` ratio together with ``cpu_count``.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import time
from typing import Dict, Iterator

from bench_common import FIELD, record_bench
from repro.broadcast.acast import AcastProtocol
from repro.circuits import multiplication_circuit
from repro.mpc import run_mpc
from repro.runtime import make_backend
from repro.runtime.launcher import TcpBackend
from repro.sim import SynchronousNetwork


def _run_acast_on(backend: str, n: int, length: int, seed: int = 0, **options) -> Dict[str, float]:
    built = make_backend(backend, n, network=SynchronousNetwork(), seed=seed, **options)
    faults = (n - 1) // 3
    message = [FIELD(3 * index + 1) for index in range(length)]

    def factory(party):
        return AcastProtocol(
            party,
            "acast",
            sender=1,
            faults=faults,
            message=message if party.id == 1 else None,
        )

    start = time.perf_counter()
    result = built.run(factory, max_time=500.0)
    wall = time.perf_counter() - start
    outputs = result.honest_outputs()
    assert len(outputs) == n, f"{backend}: only {len(outputs)}/{n} parties delivered"
    delivered = result.metrics.messages_delivered
    return {
        "wall_s": wall,
        "messages_delivered": float(delivered),
        "messages_per_s": delivered / wall if wall else float("inf"),
    }


@contextlib.contextmanager
def collector_counts() -> Iterator[Dict[str, float]]:
    """Count the collector's passes, and the wall they take, while the block runs."""
    counts = {"gc_collections": 0.0, "gc_full_collections": 0.0, "gc_pause_s": 0.0}
    started = 0.0

    def watch(phase: str, info: Dict[str, int]) -> None:
        nonlocal started
        if phase == "start":
            started = time.perf_counter()
        else:
            counts["gc_pause_s"] += time.perf_counter() - started
            counts["gc_collections"] += 1
            counts["gc_full_collections"] += info["generation"] == 2

    gc.callbacks.append(watch)
    try:
        yield counts
    finally:
        gc.callbacks.remove(watch)


def _run_mpc_on(backend: str, n: int, seed: int = 0, **options) -> Dict[str, float]:
    circuit = multiplication_circuit(FIELD, n)
    inputs = {pid: pid + 1 for pid in range(1, n + 1)}
    expected = circuit.evaluate({pid: FIELD(v) for pid, v in inputs.items()})
    gc.collect()  # each arm starts from a clean heap, like a one-shot caller
    with collector_counts() as collector:
        start = time.perf_counter()
        result = run_mpc(circuit, inputs, n=n, ts=(n - 1) // 3 if n > 3 else 1, ta=0,
                         seed=seed, backend=backend, **options)
        wall = time.perf_counter() - start
    assert result.outputs == expected, f"{backend}: wrong MPC output"
    delivered = result.metrics.messages_delivered
    return {
        "wall_s": wall,
        "messages_delivered": float(delivered),
        "messages_per_s": delivered / wall if wall else float("inf"),
        **collector,
    }


def _run_mpc_on_tcp(n: int, seed: int = 0, time_scale: float = 0.05,
                    **options) -> Dict[str, float]:
    """The MPC arm as n party processes: wall, children CPU, frame ledger.

    ``time_scale`` 0.05 is the e2e suite's ``tcp_n4_tripsh`` setting: the
    wall is the protocol's rounds on the real clock, the CPU is what the
    fabric costs.
    """
    backend = TcpBackend(n, seed=seed, time_scale=time_scale)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    row = _run_mpc_on(backend, n, seed, **options)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    # The collector counted was this process's, not the parties'.
    row = {key: value for key, value in row.items() if not key.startswith("gc_")}
    row.update({
        "time_scale": time_scale,
        "startup_s": backend.startup_seconds or 0.0,
        "children_cpu_s": (after.ru_utime - before.ru_utime)
                          + (after.ru_stime - before.ru_stime),
        "frames_sent": float(backend.frames_sent),
        "messages_framed": float(backend.messages_framed),
        "messages_per_frame": backend.messages_framed / backend.frames_sent,
        "bundles_decoded": float(backend.bundles_decoded),
        "bundle_memo_hits": float(backend.bundle_memo_hits),
    })
    return row


#: Wall seconds per Δ of the in-process paced arms.
PACED = 0.0002


def bench_acast_n16() -> Dict[str, Dict[str, float]]:
    n, length = 16, 256
    rows = {
        "sim": _run_acast_on("sim", n, length),
        "asyncio_paced": _run_acast_on("asyncio", n, length, time_scale=PACED),
    }
    payload: Dict[str, float] = {"n": float(n), "vector_len": float(length),
                                 "time_scale": PACED}
    for name, row in rows.items():
        for key, value in row.items():
            payload[f"{name}_{key}"] = value
    payload["asyncio_paced_vs_sim_wall"] = rows["asyncio_paced"]["wall_s"] / rows["sim"]["wall_s"]
    record_bench("runtime", f"acast_n{n}_len{length}", payload)
    return rows


def bench_mpc_n4() -> Dict[str, Dict[str, float]]:
    rows = {
        "sim": _run_mpc_on("sim", 4),
        "asyncio_paced": _run_mpc_on("asyncio", 4, time_scale=PACED),
        "tcp": _run_mpc_on_tcp(4),
    }
    payload: Dict[str, float] = {"n": 4.0, "time_scale": PACED}
    for name, row in rows.items():
        for key, value in row.items():
            payload[f"{name}_{key}"] = value
    payload["asyncio_paced_vs_sim_wall"] = rows["asyncio_paced"]["wall_s"] / rows["sim"]["wall_s"]
    record_bench("runtime", "mpc_n4_multiplication", payload)
    return rows


def bench_multiprocess_n32() -> Dict[str, Dict[str, float]]:
    """n=32 MultiAcast: one asyncio loop vs one OS process per party."""
    from repro.runtime.programs import MultiAcastFactory

    n, length, time_scale = 32, 4, 0.002
    factory = MultiAcastFactory(faults=(n - 1) // 3, length=length)

    start = time.perf_counter()
    single = make_backend("asyncio", n, seed=9,
                          time_scale=time_scale).run(factory, max_time=100_000.0)
    single_wall = time.perf_counter() - start
    assert len(single.honest_outputs()) == n

    tcp_backend = TcpBackend(n, seed=9, time_scale=time_scale,
                             startup_timeout=120.0)
    start = time.perf_counter()
    tcp = tcp_backend.run(factory, max_time=100_000.0)
    tcp_wall = time.perf_counter() - start
    assert len(tcp.honest_outputs()) == n
    assert tcp.honest_outputs() == single.honest_outputs()

    startup = tcp_backend.startup_seconds or 0.0
    tcp_steady = tcp_wall - startup
    # Delivered counts can differ between the two (party processes that fall
    # behind take asynchronous paths), so each row reports its own count.
    rows = {
        "single_process_real": {
            "wall_s": single_wall,
            "messages_delivered": float(single.metrics.messages_delivered),
            "messages_per_s": single.metrics.messages_delivered / single_wall,
        },
        "tcp_multiprocess": {
            "wall_s": tcp_wall,
            "messages_delivered": float(tcp.metrics.messages_delivered),
            "messages_per_s": tcp.metrics.messages_delivered / tcp_wall,
        },
    }
    payload: Dict[str, float] = {
        "n": float(n),
        "vector_len": float(length),
        "time_scale": time_scale,
        "cpu_count": float(os.cpu_count() or 1),
        "tcp_startup_s": startup,
        "tcp_steady_wall_s": tcp_steady,
        "tcp_steady_vs_single_wall": tcp_steady / single_wall,
        "tcp_vs_single_wall": tcp_wall / single_wall,
        "tcp_frames_sent": float(tcp_backend.frames_sent),
        "tcp_messages_framed": float(tcp_backend.messages_framed),
    }
    for name, row in rows.items():
        for key, value in row.items():
            payload[f"{name}_{key}"] = value
    record_bench("runtime", f"multiacast_n{n}_multiprocess", payload)
    return rows


def smoke():
    """Tiny-size rot check used by the bench_smoke tier-1 marker."""
    rows = {
        "sim": _run_acast_on("sim", 4, 8),
        "asyncio_paced": _run_acast_on("asyncio", 4, 8, time_scale=PACED),
    }
    assert rows["sim"]["messages_delivered"] == rows["asyncio_paced"]["messages_delivered"]
    tcp = rows["tcp"] = _run_mpc_on_tcp(4, time_scale=0.02, offline="him")
    assert 1 <= tcp["frames_sent"] <= tcp["messages_framed"]
    assert tcp["children_cpu_s"] > 0
    assert 0 < tcp["bundle_memo_hits"] < tcp["bundles_decoded"]
    return rows


def main() -> None:
    print("runtime throughput: Acast n=16 ...")
    for name, row in bench_acast_n16().items():
        print(f"  {name:16s} wall {row['wall_s']*1000:8.1f} ms   "
              f"{row['messages_per_s']:10.0f} msg/s")
    print("runtime throughput: MPC n=4 ...")
    for name, row in bench_mpc_n4().items():
        if name == "tcp":
            print(f"  {name:16s} wall {row['wall_s']*1000:8.1f} ms   "
                  f"children {row['children_cpu_s']:.2f} CPU-s   "
                  f"{row['frames_sent']:.0f} frames / {row['messages_framed']:.0f} "
                  f"messages ({row['messages_per_frame']:.1f} per frame), "
                  f"{row['bundle_memo_hits']:.0f} of {row['bundles_decoded']:.0f} "
                  f"bundles from the memo")
            continue
        print(f"  {name:16s} wall {row['wall_s']*1000:8.1f} ms   "
              f"{row['messages_per_s']:10.0f} msg/s   "
              f"gc {row['gc_collections']:.0f} passes, {row['gc_full_collections']:.0f} full, "
              f"{row['gc_pause_s']:.2f} s")
    print("runtime throughput: MultiAcast n=32 single- vs multi-process ...")
    for name, row in bench_multiprocess_n32().items():
        print(f"  {name:20s} wall {row['wall_s']*1000:8.1f} ms   "
              f"{row['messages_per_s']:10.0f} msg/s")


if __name__ == "__main__":
    main()

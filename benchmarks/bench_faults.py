"""Fault-plane benchmarks: channel self-healing and crash-restart recovery.

Records to ``BENCH_faults.json`` via :func:`bench_common.record_bench`:

* ``reconnect_replay`` -- a TCP receiver endpoint dies mid-stream and a
  fresh one comes up on the same port; measures the outage->healed replay
  latency for a buffered backlog of frames (the sender's exponential-
  backoff redial plus the unacked-frame replay) and the steady per-frame
  delivery rate for scale;
* ``supervisor_recovery_n<N>`` -- SIGKILL one party of a multi-process
  :class:`~repro.runtime.supervisor.TcpMpcService` mid-evaluation; records
  the RecoveryReport (restart-from-snapshot + rejoin handshake times), the
  wall cost of the interrupted evaluation vs the uninterrupted one, and the
  schedule misses the party processes report over the whole run.

``smoke()`` runs the reconnect scenario at a tiny backlog so tier-1 keeps
this module from rotting; the supervisor rows (party processes over real
sockets, tens of seconds each) only run from ``main()``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Dict

from bench_common import FIELD, record_bench
from repro.circuits import multiplication_circuit
from repro.runtime.launcher import free_roster
from repro.runtime.supervisor import TcpMpcService
from repro.runtime.tcp_transport import TcpTransport
from repro.sim.messages import Message


def _msg(payload) -> Message:
    return Message(1, 2, "bench", payload, 0.0)


def _arrivals(transport: TcpTransport) -> asyncio.Queue:
    """What comes off the wire to party 2 (a backend hooks its scheduler here)."""
    queue: asyncio.Queue = asyncio.Queue()
    transport.on_arrival = lambda message, _due: queue.put_nowait(message)
    return queue


async def _take(queue, count):
    for _ in range(count):
        await asyncio.wait_for(queue.get(), 60.0)


async def _reconnect_scenario(backlog: int) -> Dict[str, float]:
    """Receiver restart with ``backlog`` frames buffered during the outage."""
    roster = free_roster(2)
    receiver = TcpTransport(roster=dict(roster), local_parties=[2])
    received = _arrivals(receiver)
    await receiver.open([1, 2])
    sender = TcpTransport(
        roster=dict(roster), local_parties=[1],
        heartbeat_interval=0.05, max_reconnect_attempts=400,
        reconnect_base=0.02, reconnect_cap=0.1, ack_every=1,
    )
    await sender.open([1, 2])

    # Steady-state rate over an established channel (the baseline).
    warm = max(50, backlog)
    started = time.perf_counter()
    for index in range(warm):
        sender.send([(_msg(index), 0.0)])
    await _take(received, warm)
    steady_wall = time.perf_counter() - started
    state = sender._channel_states[(1, 2)]
    while state.pending:  # let acks prune, so replay is outage-era only
        await asyncio.sleep(0.01)

    receiver.close()
    await asyncio.sleep(0.15)  # next heartbeat discovers the dead endpoint
    for index in range(backlog):
        sender.send([(_msg(("outage", index)), 0.0)])

    healed = TcpTransport(roster=dict(roster), local_parties=[2])
    healed_received = _arrivals(healed)
    restart_started = time.perf_counter()
    await healed.open([1, 2])
    await _take(healed_received, backlog)
    heal_wall = time.perf_counter() - restart_started

    assert healed_received.empty(), "replay must be exactly-once"
    assert sender.reconnects >= 1 and not sender.broken_channels
    reconnects = float(sender.reconnects)
    sender.close()
    healed.close()
    return {
        "backlog_frames": float(backlog),
        "steady_frames_per_s": warm / steady_wall,
        "outage_replay_s": heal_wall,
        "reconnect_dials": reconnects,
    }


def bench_reconnect(backlog: int = 500) -> Dict[str, float]:
    payload = asyncio.run(_reconnect_scenario(backlog))
    record_bench("faults", "reconnect_replay", payload)
    return payload


def bench_supervisor_recovery(n: int = 4, ts: int = 1, ta: int = 0,
                              kill_after: float = 0.8) -> Dict[str, float]:
    """SIGKILL mid-evaluation on the multi-process TCP service backend."""
    circuit = multiplication_circuit(FIELD, n)
    inputs = {pid: pid + 2 for pid in range(1, n + 1)}
    reference = circuit.evaluate({p: FIELD(v) for p, v in inputs.items()})
    svc = TcpMpcService(n, ts, ta, seed=11)
    try:
        started = time.perf_counter()
        svc.start()
        startup_wall = time.perf_counter() - started

        started = time.perf_counter()
        warm = svc.evaluate(circuit, inputs)
        warm_wall = time.perf_counter() - started
        assert warm.outputs == reference

        timer = threading.Timer(kill_after, svc.kill_party, args=(n - 1,))
        timer.start()
        started = time.perf_counter()
        interrupted = svc.evaluate(circuit, inputs)
        interrupted_wall = time.perf_counter() - started
        timer.cancel()
        assert interrupted.outputs == reference
        report = svc.recoveries[0]
        payload = {
            "n": float(n),
            "startup_wall_s": startup_wall,
            "warm_eval_wall_s": warm_wall,
            "interrupted_eval_wall_s": interrupted_wall,
            "eval_slowdown": interrupted_wall / warm_wall,
            "recovery_wall_s": report.wall_recovery_time,
            "recovery_sim_time": report.sim_recovery_time,
            "rejoin_attempts": float(report.attempts),
            "snapshot_version": float(report.snapshot_version),
        }
    finally:
        svc.close()
    # Children past a Δ boundary on a loaded host; counted after close,
    # when the pool has gathered every child's report.
    payload["schedule_misses"] = float(len(svc.schedule_misses))
    record_bench("faults", f"supervisor_recovery_n{n}", payload)
    return payload


def smoke():
    """Tiny-size rot check used by the bench_smoke tier-1 marker."""
    payload = asyncio.run(_reconnect_scenario(backlog=20))
    assert payload["reconnect_dials"] >= 1
    return payload


def main() -> None:
    print("faults: receiver restart, 500-frame outage backlog ...")
    row = bench_reconnect()
    print(f"  steady {row['steady_frames_per_s']:8.0f} frames/s   "
          f"outage replay {row['outage_replay_s']*1000:7.1f} ms   "
          f"dials {row['reconnect_dials']:.0f}")
    # Only the n=4 grid: n=7/ts=2 multiplexes seven full party processes
    # over this host's single core and blows the sync schedulability
    # envelope (per-delta handler CPU > time_scale*delta, the same bound
    # behind the tcp-marker sync exclusions), so the warm eval itself
    # times out before any fault is injected.  On a multi-core host,
    # bench_supervisor_recovery(n=7, ts=2) runs as-is.
    for n, ts in ((4, 1),):
        print(f"faults: SIGKILL mid-evaluation on the n={n} TCP service ...")
        row = bench_supervisor_recovery(n=n, ts=ts)
        print(f"  warm eval {row['warm_eval_wall_s']:6.1f} s   "
              f"interrupted {row['interrupted_eval_wall_s']:6.1f} s   "
              f"recovery {row['recovery_wall_s']:5.2f} s "
              f"({row['rejoin_attempts']:.0f} rejoin attempts)   "
              f"schedule misses {row['schedule_misses']:.0f}")


if __name__ == "__main__":
    main()

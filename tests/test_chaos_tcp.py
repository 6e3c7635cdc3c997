"""Self-healing TCP channels and the process-level crash-restart supervisor.

The scenarios here are the robustness acceptance surface:

* a receiver that goes away mid-stream costs **no frames**: the sender's
  channel writer backs off, redials, and replays everything unacknowledged
  once the endpoint returns (``transport.reconnects`` counts the healing
  activity);
* a **restarted sender** is a new incarnation: its wire seqs start from 1
  again, and the incarnation preamble makes the surviving receiver reset
  its dedupe high-water instead of silently swallowing every frame the
  reborn process sends (the bug that originally made crash-restart
  impossible);
* the full acceptance criterion: a party SIGKILLed **mid-evaluation** on
  the multi-process TCP backend is respawned from its latest on-disk
  snapshot, rejoins via the RejoinProtocol handshake over TCP, the
  interrupted attempt is abandoned and re-issued, and the final outputs
  are bit-identical to an uninterrupted run.

Everything opens real sockets (``tcp`` marker) and injects failures
(``chaos`` marker), so the tests/conftest.py SIGALRM cap bounds each test.
"""

from __future__ import annotations

import asyncio
import threading
from collections import defaultdict

import pytest

from repro.circuits import multiplication_circuit
from repro.field import default_field
from repro.runtime.launcher import free_roster
from repro.runtime.supervisor import TcpMpcService
from repro.runtime.tcp_transport import TcpTransport
from repro.sim.messages import Message


def _msg(sender, recipient, payload):
    return Message(sender, recipient, "chaos", payload, 0.0)


def arrivals(transport):
    """Per-party queues of what comes off a bare transport's wire (a backend
    hooks its scheduler in here)."""
    queues = defaultdict(asyncio.Queue)
    transport.on_arrival = lambda message, _due: queues[message.recipient].put_nowait(message)
    return queues


async def _take(queue, count, timeout=30.0):
    return [await asyncio.wait_for(queue.get(), timeout) for _ in range(count)]


async def _until(predicate, timeout=30.0, what="condition"):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        await asyncio.sleep(0.01)


# -- channel self-healing: reconnect with backoff, no frame loss -------------

@pytest.mark.tcp
@pytest.mark.chaos
def test_reconnect_with_backoff_loses_no_frames():
    """Kill the receiving endpoint mid-stream, keep sending into the
    outage, bring a fresh endpoint up on the same port: the channel heals
    and delivers the buffered frames exactly once, in order."""
    roster = free_roster(2)

    async def scenario():
        receiver = TcpTransport(roster=dict(roster), local_parties=[2])
        received = arrivals(receiver)
        await receiver.open([1, 2])
        sender = TcpTransport(
            roster=dict(roster), local_parties=[1],
            heartbeat_interval=0.05, max_reconnect_attempts=400,
            reconnect_base=0.02, reconnect_cap=0.1, ack_every=1,
        )
        await sender.open([1, 2])
        for index in range(10):
            sender.send([(_msg(1, 2, index), 0.0)])
        before = await _take(received[2], 10)
        assert [m.payload for m in before] == list(range(10))
        # Wait until every frame is acked (ack_every=1), so the replay
        # after the heal carries exactly the outage-era frames.
        state = sender._channel_states[(1, 2)]
        await _until(lambda: not state.pending, what="acks to prune buffer")

        receiver.close()
        # The next heartbeat write discovers the dead endpoint and starts
        # the backoff/redial loop.
        await asyncio.sleep(0.15)
        for index in range(10, 15):
            sender.send([(_msg(1, 2, index), 0.0)])

        healed = TcpTransport(roster=dict(roster), local_parties=[2])
        healed_received = arrivals(healed)
        await healed.open([1, 2])
        after = await _take(healed_received[2], 5)
        assert [m.payload for m in after] == list(range(10, 15))
        assert healed_received[2].empty()  # exactly once, no stray replays
        assert sender.reconnects >= 1, "the outage must register as healing"
        assert not sender.broken_channels
        assert sender._error is None
        sender.close()
        healed.close()

    asyncio.run(scenario())


@pytest.mark.tcp
@pytest.mark.chaos
def test_restarted_sender_incarnation_resets_dedupe():
    """A supervisor-restarted party numbers its wire seqs from 1 again; the
    incarnation preamble tells the surviving receiver to drop the dead
    incarnation's dedupe high-water.  Without it every frame from the
    reborn process is silently swallowed (this test then hangs into its
    SIGALRM cap)."""
    roster = free_roster(2)

    async def scenario():
        receiver = TcpTransport(roster=dict(roster), local_parties=[2])
        received = arrivals(receiver)
        await receiver.open([1, 2])
        first = TcpTransport(roster=dict(roster), local_parties=[1], ack_every=1)
        await first.open([1, 2])
        for index in range(5):
            first.send([(_msg(1, 2, ("first", index)), 0.0)])
        got = await _take(received[2], 5)
        assert [m.payload for m in got] == [("first", i) for i in range(5)]
        first.close()

        reborn = TcpTransport(roster=dict(roster), local_parties=[1], ack_every=1)
        assert reborn.incarnation != first.incarnation
        await reborn.open([1, 2])
        for index in range(5):
            reborn.send([(_msg(1, 2, ("reborn", index)), 0.0)])
        late = await _take(received[2], 5)
        assert [m.payload for m in late] == [("reborn", i) for i in range(5)]
        reborn.close()
        receiver.close()

    asyncio.run(scenario())


# -- the acceptance criterion: kill mid-evaluation, heal, identical outputs --

@pytest.mark.tcp
@pytest.mark.chaos(timeout=300)
def test_supervisor_crash_restart_rejoin_mid_evaluation_n4(tmp_path):
    """SIGKILL party 3 mid-evaluation on the multi-process TCP backend: the
    supervisor respawns it with ``--resume`` from its latest snapshot,
    drives the RejoinProtocol handshake over TCP, abandons the interrupted
    attempt, re-issues it, and the evaluation returns outputs bit-identical
    to the fault-free reference."""
    field = default_field()
    circuit = multiplication_circuit(field, n_parties=4)
    inputs = {pid: pid + 2 for pid in range(1, 5)}
    reference = [
        int(v) for v in circuit.evaluate({p: field(v) for p, v in inputs.items()})
    ]

    svc = TcpMpcService(4, 1, 0, seed=11, snapshot_dir=str(tmp_path))
    try:
        svc.start()
        warm = svc.evaluate(circuit, inputs)
        assert warm.output_values == reference

        # Fire the kill a fixed real-time offset into the next evaluation
        # (warm evals take several seconds on this backend, so 0.8 s lands
        # squarely mid-stream).
        timer = threading.Timer(0.8, svc.kill_party, args=(3,))
        timer.start()
        try:
            interrupted = svc.evaluate(circuit, inputs)
        finally:
            timer.cancel()
        assert interrupted.output_values == reference

        assert svc.recoveries, "the kill must have produced a recovery report"
        report = svc.recoveries[0]
        assert report.party_id == 3
        assert report.snapshot_version >= 1  # restarted *from a snapshot*
        # The warm result was already inside snapshot v1 when the process
        # died, so nothing needed replay; the field just must be coherent.
        assert report.replayed_results == 0
        assert report.attempts >= 1          # the rejoin handshake ran
        assert report.wall_recovery_time > 0

        # The healed roster keeps serving the stream.
        svc.wait_recovered()
        post = svc.evaluate(circuit, inputs)
        assert post.output_values == reference
        assert [r.output_values for r in svc.results] == [reference] * 3
    finally:
        svc.close()

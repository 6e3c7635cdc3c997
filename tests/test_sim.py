"""Tests for the discrete-event simulator, network models and adversary behaviours."""

import collections
import heapq
import itertools
import random

import pytest

from repro.broadcast.bc import BroadcastProtocol
from repro.field import Polynomial, default_field
from repro.runtime import event_queue
from repro.runtime.api import account_dispatch, incarnation_timer
from repro.sim import messages as messages_module
from repro.sim import simulator as simulator_module
from repro.sim.adversary import (
    Behavior,
    CompositeBehavior,
    CrashBehavior,
    DelayBehavior,
    EquivocatingBehavior,
    HonestBehavior,
    SilentBehavior,
    WrongValueBehavior,
)
from repro.sim.messages import HEADER_BITS, Message, payload_bits
from repro.sim.network import (
    AdversarialAsynchronousNetwork,
    AsynchronousNetwork,
    NetworkModel,
    SynchronousNetwork,
)
from repro.sim.party import Party, ProtocolInstance
from repro.sim.runner import ProtocolRunner
from repro.sim.simulator import SimulationMetrics, Simulator

F = default_field()


class PingPong(ProtocolInstance):
    """Tiny protocol: party 1 pings everyone; everyone outputs the ping."""

    def start(self):
        if self.me == 1:
            self.send_all(("ping", F(7)))

    def receive(self, sender, payload):
        if payload[0] == "ping" and not self.has_output:
            self.set_output(payload[1])


class EchoCollector(ProtocolInstance):
    """Every party broadcasts once; outputs after hearing from everyone."""

    def start(self):
        self.heard = set()
        self.send_all(("echo", self.me))

    def receive(self, sender, payload):
        self.heard.add(sender)
        if len(self.heard) == self.n and not self.has_output:
            self.set_output(sorted(self.heard))


# -- payload measurement ------------------------------------------------------------------


def test_payload_bits_field_element():
    assert payload_bits(F(5)) == F.element_bits()


def test_payload_bits_polynomial():
    poly = Polynomial(F, [F(1), F(2), F(3)])
    assert payload_bits(poly) == 3 * F.element_bits()


def test_payload_bits_containers_and_scalars():
    assert payload_bits(None) == 1
    assert payload_bits(True) == 1
    assert payload_bits(7) == 64
    assert payload_bits(3.5) == 64
    assert payload_bits("abc") == 24
    assert payload_bits(b"ab") == 16
    assert payload_bits((1, 2)) == 128
    assert payload_bits([F(1), "a"]) == F.element_bits() + 8
    assert payload_bits({"k": 1}) == 8 + 64
    assert payload_bits(object()) == 128


def test_message_bits_include_header():
    message = Message(1, 2, "tag", F(3), 0.0)
    assert message.bits == 64 + F.element_bits()
    assert "tag" in repr(message)


# -- network models ------------------------------------------------------------------------


def test_synchronous_network_delay_bounded():
    net = SynchronousNetwork(delta=2.0)
    msg = Message(1, 2, "t", 1, 0.0)
    assert net.delay(msg, random.Random(0)) == 2.0
    jittery = SynchronousNetwork(delta=2.0, jitter=0.5)
    for _ in range(20):
        delay = jittery.delay(msg, random.Random())
        assert 1.0 <= delay <= 2.0
    with pytest.raises(ValueError):
        SynchronousNetwork(jitter=0.0)


def test_asynchronous_network_delay_finite():
    net = AsynchronousNetwork(delta=1.0, min_delay=0.1, max_delay=10.0)
    msg = Message(1, 2, "t", 1, 0.0)
    rng = random.Random(1)
    for _ in range(50):
        delay = net.delay(msg, rng)
        assert 0.1 <= delay <= 10.0
    assert not net.is_synchronous


def test_adversarial_asynchronous_network_targets_parties():
    net = AdversarialAsynchronousNetwork(slow_parties=frozenset({2}), slow_delay=50.0, fast_delay=0.5)
    rng = random.Random(0)
    assert net.delay(Message(2, 3, "t", 1, 0.0), rng) == 50.0
    assert net.delay(Message(3, 2, "t", 1, 0.0), rng) == 50.0
    assert net.delay(Message(1, 3, "t", 1, 0.0), rng) == 0.5
    senders_only = AdversarialAsynchronousNetwork(
        slow_parties=frozenset({2}), slow_senders_only=True
    )
    assert senders_only.delay(Message(3, 2, "t", 1, 0.0), rng) == senders_only.fast_delay


def test_partitioned_synchronous_network_violates_delta():
    net = AdversarialAsynchronousNetwork(
        delta=1.0, slow_parties=frozenset({1}), slow_delay=10.0, fast_delay=1.0,
        slow_senders_only=True,
    )
    rng = random.Random(0)
    assert net.delay(Message(1, 2, "t", 1, 0.0), rng) == 10.0
    assert net.delay(Message(2, 1, "t", 1, 0.0), rng) == 1.0
    assert not net.is_synchronous


# -- simulator / runner ---------------------------------------------------------------------


def test_ping_pong_runs_and_measures():
    runner = ProtocolRunner(4, network=SynchronousNetwork(delta=1.0), seed=0)
    result = runner.run(lambda p: PingPong(p, "ping"))
    assert result.all_honest_done()
    assert all(v == F(7) for v in result.honest_outputs().values())
    # 4 sends from party 1, of which one is a free self-delivery.
    assert result.metrics.messages_sent == 3
    assert result.metrics.honest_bits > 0
    assert result.output_of(2) == F(7)
    assert result.output_time_of(2) == pytest.approx(1.0)


def test_echo_collector_all_parties():
    runner = ProtocolRunner(5, network=AsynchronousNetwork(), seed=3)
    result = runner.run(lambda p: EchoCollector(p, "echo"))
    assert result.all_honest_done()
    assert all(v == [1, 2, 3, 4, 5] for v in result.honest_outputs().values())


def test_metrics_exclude_corrupt_senders_from_honest_bits():
    runner = ProtocolRunner(3, corrupt={1: HonestBehavior()})
    result = runner.run(lambda p: EchoCollector(p, "echo"))
    assert result.metrics.total_bits > result.metrics.honest_bits


def test_simulator_timer_and_step():
    sim = Simulator(2)
    fired = []
    sim.schedule_timer(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]
    assert sim.events_processed == 1
    assert not sim.step()


def test_simulator_max_time_and_events():
    sim = Simulator(2)
    for i in range(10):
        sim.schedule_timer(float(i), lambda: None)
    sim.run(max_time=4.5)
    assert sim.now <= 4.5
    sim2 = Simulator(2)
    for i in range(10):
        sim2.schedule_timer(float(i), lambda: None)
    sim2.run(max_events=3)
    assert sim2.events_processed == 3


def test_messages_processed_before_timers_at_same_time():
    order = []

    class Recorder(ProtocolInstance):
        def start(self):
            if self.me == 1:
                self.send(2, "hello")
            if self.me == 2:
                self.schedule_at(1.0, lambda: order.append("timer"))

        def receive(self, sender, payload):
            order.append("message")

    runner = ProtocolRunner(2, network=SynchronousNetwork(delta=1.0))
    runner.run(lambda p: Recorder(p, "rec"), wait_for_all_honest=False)
    assert order == ["message", "timer"]


def test_duplicate_tag_rejected():
    runner = ProtocolRunner(2)
    party = runner.parties[1]
    PingPong(party, "dup")
    with pytest.raises(ValueError):
        PingPong(party, "dup")


def test_buffered_messages_replayed_after_registration():
    runner = ProtocolRunner(2, network=SynchronousNetwork(delta=1.0))
    sim = runner.simulator
    # Party 1 sends to a tag party 2 has not registered yet.
    sim.submit_message(1, 2, "late", ("ping", F(9)))
    sim.run(max_time=2.0)
    instance = PingPong(sim.parties[2], "late")
    sim.run(max_time=3.0)
    assert instance.output == F(9)


# -- behaviours ------------------------------------------------------------------------------


def _run_echo_with_behavior(behavior, n=4):
    runner = ProtocolRunner(n, network=SynchronousNetwork(), seed=1, corrupt={2: behavior})
    return runner.run(lambda p: EchoCollector(p, "echo"), max_time=50.0)


def test_crash_behavior_silences_party():
    result = _run_echo_with_behavior(CrashBehavior())
    # Honest parties never hear from party 2, so they never complete.
    assert not result.all_honest_done()


def test_silent_behavior_filters_by_tag():
    result = _run_echo_with_behavior(SilentBehavior(lambda tag: tag == "echo"))
    assert not result.all_honest_done()
    result = _run_echo_with_behavior(SilentBehavior(lambda tag: tag == "other"))
    assert result.all_honest_done()


def test_delay_behavior_eventually_delivers():
    result = _run_echo_with_behavior(DelayBehavior(extra_delay=5.0))
    assert result.all_honest_done()
    assert max(result.honest_output_times().values()) >= 5.0


def test_wrong_value_behavior_perturbs_field_elements():
    class ShareOnce(ProtocolInstance):
        def start(self):
            if self.me == 2:
                self.send_all(("v", F(10), [F(20)], Polynomial(F, [F(1)])))

        def receive(self, sender, payload):
            if not self.has_output:
                self.set_output(payload)

    runner = ProtocolRunner(3, corrupt={2: WrongValueBehavior(offset=1)})
    result = runner.run(lambda p: ShareOnce(p, "share"), wait_for_all_honest=False, max_time=10.0)
    received = result.output_of(1)
    assert received[1] == F(11)
    assert received[2][0] == F(21)
    assert received[3].coeffs[0] == F(2)


def test_wrong_value_behavior_targets_recipients():
    behavior = WrongValueBehavior(target_recipients=[3], offset=2)

    class ShareOnce(ProtocolInstance):
        def start(self):
            if self.me == 2:
                self.send_all(("v", F(10)))

        def receive(self, sender, payload):
            if not self.has_output:
                self.set_output(payload[1])

    runner = ProtocolRunner(3, corrupt={2: behavior})
    result = runner.run(lambda p: ShareOnce(p, "share"), wait_for_all_honest=False, max_time=10.0)
    assert result.output_of(1) == F(10)
    assert result.output_of(3) == F(12)


def test_equivocating_behavior_sends_different_values():
    behavior = EquivocatingBehavior(group_b=[3], offset=5)

    class ShareOnce(ProtocolInstance):
        def start(self):
            if self.me == 2:
                self.send_all(("v", F(1)))

        def receive(self, sender, payload):
            if not self.has_output:
                self.set_output(payload[1])

    runner = ProtocolRunner(3, corrupt={2: behavior})
    result = runner.run(lambda p: ShareOnce(p, "share"), wait_for_all_honest=False, max_time=10.0)
    assert result.output_of(1) == F(1)
    assert result.output_of(3) == F(6)


def test_composite_behavior_chains():
    behavior = CompositeBehavior([WrongValueBehavior(offset=1), CrashBehavior(crash_time=100.0)])

    class ShareOnce(ProtocolInstance):
        def start(self):
            if self.me == 2:
                self.send_all(("v", F(1)))

        def receive(self, sender, payload):
            if not self.has_output:
                self.set_output(payload[1])

    runner = ProtocolRunner(3, corrupt={2: behavior})
    result = runner.run(lambda p: ShareOnce(p, "share"), wait_for_all_honest=False, max_time=10.0)
    assert result.output_of(1) == F(2)
    assert not behavior.drop_incoming(None, 1, "t", None)


# -- message fabric: equivalence with a one-entry-per-message scheduler ---------------------


class ReferenceSimulator(Simulator):
    """The oracle: every copy sized on its own and pushed as its own heap
    entry under the ``(deliver_at, priority, seq)`` key, popped when delivered."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._event_heap = []
        self._counter = itertools.count()

    def fan_out(self, sender, tag, payload):
        for recipient in range(1, self.n + 1):
            self.submit_message(sender, recipient, tag, payload)

    def dispatch(self, message):
        deliver_at = self.now + account_dispatch(self, message)
        heapq.heappush(self._event_heap, (deliver_at, 0, next(self._counter), message))

    def schedule_timer(self, time, callback, owner=0):
        fire = incarnation_timer(self, callback, owner)
        heapq.heappush(self._event_heap, (max(time, self.now), 1, next(self._counter), fire))

    def step(self):
        if not self._event_heap:
            return False
        time, priority, _seq, item = heapq.heappop(self._event_heap)
        self.now = max(self.now, time)
        self._events_processed += 1
        if priority:
            item()
        elif item.recipient not in self.crashed:
            self.metrics.record_delivery()
            self.parties[item.recipient].deliver(item.sender, item.tag, item.payload)
        return True

    def run(self, until=None, max_time=None, max_events=None):
        while self._event_heap:
            if until is not None and until():
                return
            if max_time is not None and self._event_heap[0][0] > max_time:
                return
            if max_events is not None and self._events_processed >= max_events:
                return
            self.step()


class InstantNetwork(NetworkModel):
    """Zero delay: every copy is due at the instant of the sender's self-delivery."""

    def delay(self, message, rng):
        return 0.0


class Chatter(ProtocolInstance):
    """A seeded random mix of send / send_all / timers; logs what it is delivered."""

    def __init__(self, party, tag, log, actions):
        super().__init__(party, tag)
        self.log = log
        self.actions = actions

    def start(self):
        self.act()
        self.act()

    def act(self):
        if self.actions <= 0:
            return
        self.actions -= 1
        roll = self.rng.random()
        if roll < 0.45:
            self.send_all(("all", self.me, self.rng.randrange(1000)))
        elif roll < 0.75:
            self.send(self.rng.randrange(1, self.n + 1), ("one", "x" * self.rng.randrange(6)))
        else:
            # 1.0 is Delta: the timer falls on the instant deliveries are due.
            # It sends whatever is left of the budget: on a network without
            # delay that is after everything else due at its instant.
            self.schedule_after(
                self.rng.choice((0.0, 0.5, 1.0)), lambda: self.send_all(("timer", self.me))
            )

    def receive(self, sender, payload):
        self.log.append((self.now, self.me, sender, self.tag, payload))
        self.act()


def chatter_run(
    simulator_class, network, seed, n=4, corrupt=None, start_at=0.0, actions=12, **run_options
):
    sim = simulator_class(n, network=network, seed=seed)
    sim.now = start_at
    for party_id, behavior in (corrupt or {}).items():
        sim.set_behavior(party_id, behavior)
    log = []
    for party in sim.parties.values():
        for tag in ("a/x", "b"):
            Chatter(party, tag, log, actions=actions)
    for party in sim.parties.values():
        for instance in party.instances.values():
            instance.start()
    sim.run(**run_options)
    return sim, log


def assert_same_run(sim, log, reference, reference_log):
    assert log == reference_log
    assert sim.events_processed == reference.events_processed
    assert sim.now == reference.now
    assert vars(sim.metrics) == vars(reference.metrics)


FABRIC_NETWORKS = {
    "sync": lambda: SynchronousNetwork(),
    "sync-jitter": lambda: SynchronousNetwork(jitter=0.5),
    "async": lambda: AsynchronousNetwork(),
    "fast-slow": lambda: AdversarialAsynchronousNetwork(slow_parties=frozenset({2}), slow_delay=3.0),
    "instant": lambda: InstantNetwork(),
}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("network", sorted(FABRIC_NETWORKS))
def test_fabric_matches_reference_scheduler(network, seed):
    sim, log = chatter_run(Simulator, FABRIC_NETWORKS[network](), seed)
    reference, reference_log = chatter_run(ReferenceSimulator, FABRIC_NETWORKS[network](), seed)
    assert len(log) > 100
    assert_same_run(sim, log, reference, reference_log)


@pytest.mark.parametrize("seed", range(5))
def test_fabric_matches_reference_when_the_clock_absorbs_the_minimum_delay(seed):
    """At 2**40 the 1e-9 floor vanishes in rounding: a copy is due at the very
    instant it is sent, when the entry that instant's copies joined is gone."""
    options = dict(start_at=2.0 ** 40, actions=40)
    sim, log = chatter_run(Simulator, InstantNetwork(), seed, **options)
    reference, reference_log = chatter_run(ReferenceSimulator, InstantNetwork(), seed, **options)
    assert len(log) > 300
    assert_same_run(sim, log, reference, reference_log)


class Lockstep(ProtocolInstance):
    """Phase-king shaped: every party sends to all at each tick of Delta, so
    the copies of all senders, and all their round timers, share an instant."""

    def __init__(self, party, tag, log, rounds):
        super().__init__(party, tag)
        self.log = log
        self.rounds = rounds

    def start(self):
        self.send_all(("round", self.rounds, self.me))
        if self.rounds:
            self.rounds -= 1
            self.schedule_after(self.party.delta, self.start)

    def receive(self, sender, payload):
        self.log.append((self.now, self.me, sender, self.tag, payload))
        if payload[1] % 2 and sender == self.me:
            self.send(self.rng.randrange(1, self.n + 1), ("reply", self.me))


@pytest.mark.parametrize("limit", [None, 0, 1, 37, 80, 81, 209])
def test_fabric_matches_reference_when_senders_and_timers_share_an_instant(limit):
    runs = []
    for simulator_class in (Simulator, ReferenceSimulator):
        sim = simulator_class(4, network=SynchronousNetwork(), seed=7)
        log = []
        for party in sim.parties.values():
            for tag in ("a/x", "b"):
                Lockstep(party, tag, log, rounds=4).start()
        if simulator_class is Simulator:
            # Eight fan-outs of four senders and their eight timers: one
            # instant each for the self-deliveries, the copies and the timers.
            assert sorted(sim._queue.keys) == [(1e-9, 0), (1.0, 0), (1.0, 1)]
        sim.run(max_events=limit)
        runs.append((sim, log))
    assert runs[0][0].events_processed == (210 if limit is None else limit)
    assert_same_run(*runs[0], *runs[1])


class CountingQueue(event_queue.EventQueue):
    """Counts the events pushed under each key, per time the key was queued."""

    def __init__(self):
        super().__init__()
        self.pushed = []  # one count per key queued, in the order first queued
        self._open = {}  # key -> its index in ``pushed`` while it is queued

    def push(self, time, priority, event):
        key = (time, priority)
        if key not in self._slots:
            self._open[key] = len(self.pushed)
            self.pushed.append(0)
        self.pushed[self._open[key]] += 1
        super().push(time, priority, event)


def broadcast_queue_counts(network, monkeypatch):
    """Run an n=4 broadcast; what the queue pushed, heaped and allocated."""
    counts = {"heap_pushes": 0, "heap_high_water": 0, "containers": 0}

    def counting_heappush(heap, key):
        heapq.heappush(heap, key)
        counts["heap_pushes"] += 1
        counts["heap_high_water"] = max(counts["heap_high_water"], len(heap))

    class CountingDeque(collections.deque):
        def __init__(self, *args):
            super().__init__(*args)
            counts["containers"] += 1

    monkeypatch.setattr(event_queue, "heappush", counting_heappush)
    monkeypatch.setattr(event_queue, "deque", CountingDeque)
    monkeypatch.setattr(simulator_module, "EventQueue", CountingQueue)
    runner = ProtocolRunner(4, network=network, seed=0)
    result = runner.run(lambda party: BroadcastProtocol(
        party, "bc", sender=1, faults=1, message=("msg", 9) if party.id == 1 else None,
        anchor=0.0,
    ), wait_for_all_honest=False)
    assert len(result.honest_outputs()) == 4
    assert not runner.simulator._queue.keys  # ran until nothing was left
    counts["pushed"] = runner.simulator._queue.pushed
    assert sum(counts["pushed"]) == runner.simulator.events_processed
    return counts


@pytest.mark.parametrize(
    "network, pending_instants",
    [
        (SynchronousNetwork(), 8),
        (AdversarialAsynchronousNetwork(slow_parties=frozenset({2})), 16),
    ],
    ids=["sync", "fast-slow"],
)
def test_fabric_heap_holds_one_entry_per_instant(network, pending_instants, monkeypatch):
    """Where delays are fixed, whatever the network's type, the heap sees the
    distinct instants (a handful pending at a time), not the 140 events."""
    counts = broadcast_queue_counts(network, monkeypatch)
    assert counts["heap_pushes"] == len(counts["pushed"])
    assert sum(counts["pushed"]) > 3 * counts["heap_pushes"]
    assert counts["heap_high_water"] <= pending_instants
    assert counts["containers"] == sum(1 for events in counts["pushed"] if events > 1)


@pytest.mark.parametrize(
    "network", [AsynchronousNetwork(), SynchronousNetwork(jitter=0.5)], ids=["async", "jitter"]
)
def test_fabric_allocates_no_container_for_a_key_with_one_event(network, monkeypatch):
    """Slots form from the drawn delivery times alone: delays drawn apart
    leave one bare event per key; what still shares one is the parties' timers
    for one anchored time-out and a handler's several self-deliveries."""
    counts = broadcast_queue_counts(network, monkeypatch)
    assert counts["heap_pushes"] == len(counts["pushed"])
    assert counts["containers"] == sum(1 for events in counts["pushed"] if events > 1)
    assert counts["containers"] < len(counts["pushed"]) / 4


def test_fabric_stops_and_resumes_inside_a_fan_out():
    """max_events and until hold between two copies of one fan-out."""

    def total_events():
        return chatter_run(ReferenceSimulator, SynchronousNetwork(), 3)[0].events_processed

    for limit in range(total_events() + 1):
        sim, log = chatter_run(Simulator, SynchronousNetwork(), 3, max_events=limit)
        reference, reference_log = chatter_run(
            ReferenceSimulator, SynchronousNetwork(), 3, max_events=limit
        )
        assert sim.events_processed == limit
        assert_same_run(sim, log, reference, reference_log)
        if limit % 25 == 0:  # resuming from every point is quadratic: sample
            sim.run()
            reference.run()
            assert_same_run(sim, log, reference, reference_log)

    # An ``until`` that flips after the first copy of the first fan-out.
    stopped = []
    for simulator_class in (Simulator, ReferenceSimulator):
        sim = simulator_class(4, network=SynchronousNetwork())
        log = []
        for party in sim.parties.values():
            Chatter(party, "a/x", log, actions=0)
        sim.parties[1].send_all("a/x", ("all", 1, 0))
        sim.run(until=lambda: any(recipient != 1 for _, recipient, *_ in log))
        assert [(entry[0], entry[1]) for entry in log] == [(1e-9, 1), (1.0, 2)]
        stopped.append((sim, list(log)))
        sim.run()
        assert [entry[1] for entry in log] == [1, 2, 3, 4]
        stopped.append((sim, log))
    assert_same_run(*stopped[0], *stopped[2])
    assert_same_run(*stopped[1], *stopped[3])


def test_fabric_recipient_crashed_between_copies_loses_only_its_copy():
    runs = []
    for simulator_class in (Simulator, ReferenceSimulator):
        sim = simulator_class(4, network=SynchronousNetwork())
        log = []

        class CrashNext(Chatter):
            def receive(self, sender, payload):
                super().receive(sender, payload)
                if self.me == 2:
                    sim.crash_party(3)

        for party in sim.parties.values():
            CrashNext(party, "a/x", log, actions=0)
        sim.parties[1].send_all("a/x", ("all", 1, 0))
        sim.run()
        assert [entry[1] for entry in log] == [1, 2, 4]
        assert sim.events_processed == 4
        assert sim.metrics.messages_delivered == 3
        runs.append((sim, log))
    assert_same_run(*runs[0], *runs[1])


class Duplicating(Behavior):
    """Sends every copy twice, the second time with a longer payload, and
    chases it with a message of its own sent from inside the filter."""

    def filter_send(self, party, message):
        if message.payload[0] == "chase":
            return [message]
        party.send(message.recipient, message.tag, ("chase", "x" * 40))
        longer = Message(
            message.sender, message.recipient, message.tag,
            message.payload + ("again",), message.send_time,
        )
        return [message, longer]


@pytest.mark.parametrize(
    "behavior",
    [WrongValueBehavior(target_recipients=[3]), Duplicating()],
    ids=["wrong-value", "duplicating"],
)
def test_fabric_sizes_rewritten_copies_from_their_own_payload(behavior, monkeypatch):
    sent = []
    record_send = SimulationMetrics.record_send

    def recording(metrics, message, *args, **kwargs):
        sent.append(message)
        return record_send(metrics, message, *args, **kwargs)

    monkeypatch.setattr(SimulationMetrics, "record_send", recording)
    sim, log = chatter_run(Simulator, SynchronousNetwork(), 5, corrupt={2: behavior})
    rewritten = [m for m in sent if m.sender == 2 and m.payload[-1] == "again"]
    assert rewritten or not isinstance(behavior, Duplicating)
    for message in sent:
        assert message.bits == HEADER_BITS + payload_bits(message.payload)
    reference, reference_log = chatter_run(
        ReferenceSimulator, SynchronousNetwork(), 5, corrupt={2: behavior}
    )
    assert_same_run(sim, log, reference, reference_log)


def test_wrong_value_behavior_rewrites_one_copy_of_a_fan_out():
    sim = Simulator(4, network=SynchronousNetwork())
    sim.set_behavior(2, WrongValueBehavior(target_recipients=[3], offset=2))
    log = []
    for party in sim.parties.values():
        Chatter(party, "a/x", log, actions=0)
    sim.parties[2].send_all("a/x", ("v", F(10)))
    sim.run()
    assert {entry[1]: entry[4][1] for entry in log} == {1: F(10), 2: F(10), 3: F(12), 4: F(10)}


def test_fabric_resizes_a_payload_mutated_between_sends():
    runs = []
    for simulator_class in (Simulator, ReferenceSimulator):
        sim = simulator_class(3, network=SynchronousNetwork())
        log = []
        for party in sim.parties.values():
            Chatter(party, "a/x", log, actions=0)
        payload = [1, 2]
        sim.parties[1].send_all("a/x", payload)
        first = sim.metrics.total_bits
        payload.append(3)
        sim.parties[1].send_all("a/x", payload)
        second = sim.metrics.total_bits
        payload.append(4)
        sim.parties[1].send(2, "a/x", payload)
        assert first == 2 * (HEADER_BITS + 2 * 64)
        assert second - first == 2 * (HEADER_BITS + 3 * 64)
        assert sim.metrics.total_bits - second == HEADER_BITS + 4 * 64
        sim.run()
        runs.append((sim, log))
    assert_same_run(*runs[0], *runs[1])


def test_fan_out_sizes_once_and_records_every_copy(monkeypatch):
    """The saving and the tracer's contract, as counts on an n=4 broadcast.

    ``payload_bits`` is wrapped the way ``benchmarks/e2e/tracer.py`` wraps it
    (the module global, outermost calls only) and ``record_send`` through
    the class attribute: one sizing per ``send``/``send_all`` call, and one
    ``record_send`` per message that leaves its sender.
    """
    counts = {"send": 0, "send_all": 0, "sized": 0, "recorded": 0, "depth": 0}
    inner_bits = messages_module.payload_bits

    def counting_bits(payload):
        counts["sized"] += counts["depth"] == 0
        counts["depth"] += 1
        try:
            return inner_bits(payload)
        finally:
            counts["depth"] -= 1

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(messages_module, "payload_bits", counting_bits)
    monkeypatch.setattr(Party, "send", counting("send", Party.send))
    monkeypatch.setattr(Party, "send_all", counting("send_all", Party.send_all))
    monkeypatch.setattr(
        SimulationMetrics, "record_send", counting("recorded", SimulationMetrics.record_send)
    )
    n = 4
    runner = ProtocolRunner(n, network=SynchronousNetwork(), seed=0)
    result = runner.run(lambda party: BroadcastProtocol(
        party, "bc", sender=1, faults=1, message=("msg", 9) if party.id == 1 else None,
        anchor=0.0,
    ))
    assert len(result.honest_outputs()) == n
    assert counts["send_all"] > 0
    assert counts["sized"] == counts["send"] + counts["send_all"]
    assert counts["recorded"] == result.metrics.messages_sent
    assert counts["recorded"] == (n - 1) * counts["send_all"] + counts["send"]

"""ΠABA as built: the slots launched at one instant speak in one vector per step
(``repro.ba.aba``).

Every ΠBA bank hands its slots' ΠABAs to the ``AbaCarrier`` of its launch
instant (vote anchor + T_BC + ε).  These tests pin the carrier's identity and
membership, the reduction entry by entry (each slot's entries are its own
machine's messages, each once), the deferred launch of a late vote, the total
parser of the vector, the hold before the positions are frozen, the wire
format, and that a bit keeps its type whatever a peer sends.
"""

import pickle

import pytest

from repro.ba.aba import MAX_ROUNDS, AbaCarrier, BrachaABA
from repro.ba.bobw import BestOfBothWorldsBA
from repro.broadcast.bc import bc_time_bound
from repro.runtime.wire import decode_message, encode_message
from repro.sim import AsynchronousNetwork, ProtocolRunner, SynchronousNetwork
from repro.sim.messages import Message
from repro.sim.party import ProtocolInstance
from repro.sim.simulator import SimulationMetrics

from protocol_helpers import RewriteBehavior
from test_vote_vector import FIG2_AT_PARENT, _inject, _run_bank

N, T = 4, 1
T_BC = bc_time_bound(N, T, 1.0)
#: A bank anchored at 0 under a root anchored at 0 launches at T_BC + ε: 9.003 Δ.
LAUNCH = f"aba@{round((T_BC + 0.001) / 0.001)}"


def _recording_sends(run):
    """``run()``'s result and every message sent: (sender, tag, payload)."""
    sent = []
    record = SimulationMetrics.record_send

    def recording(metrics, message, *args, **kwargs):
        sent.append((message.sender, message.tag, message.payload))
        return record(metrics, message, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimulationMetrics, "record_send", recording)
        result = run()
    return result, sent


def _carriers(party):
    return sorted((e for e in party.instances.values() if type(e) is AbaCarrier),
                  key=lambda carrier: carrier.tag)


def _fan_outs(sent, sender, tag):
    """The payloads ``sender`` fanned out on ``tag``, in order (the copy it sends
    itself is free and not recorded: one per n - 1 sends)."""
    copies = [payload for who, where, payload in sent if (who, where) == (sender, tag)]
    assert all(copy is copies[i - i % (N - 1)] for i, copy in enumerate(copies))
    return copies[::N - 1]


# -- a lone ΠBA is a one-slot carrier ---------------------------------------------------------


@pytest.mark.parametrize("n,t,votes,options,seed,expected", FIG2_AT_PARENT)
def test_a_lone_bank_is_a_one_slot_carrier_and_outputs_what_fig_2_did(
    n, t, votes, options, seed, expected
):
    result, sent = _recording_sends(lambda: _run_bank(n, t, votes, seed=seed, **options))
    assert result.honest_outputs() == expected
    ticks = round((bc_time_bound(n, t, 1.0) + 0.001) / 0.001)
    for pid in expected:
        (carrier,) = _carriers(result.instances[pid].party)
        assert carrier.tag == f"ba/aba@{ticks}" and carrier._tags == ["ba/aba[0]"]
        assert type(result.instances[pid].party.instances["ba/aba[0]"]) is BrachaABA
    # The slot keeps its tag (the coin's key) and sends nothing under it.
    aba_tags = {tag for sender, tag, _ in sent if sender in expected and "/aba" in tag}
    assert aba_tags == {f"ba/aba@{ticks}"}


# -- identity and membership -------------------------------------------------------------------


class Banks(ProtocolInstance):
    """A root owning some banks: ``specs`` maps a child name to ``(anchor offset,
    this party's votes, one per slot)``.  Outputs the decisions by name."""

    def __init__(self, party, tag, specs):
        super().__init__(party, tag)
        self.specs = specs
        self.anchor = 0.0
        self.banks = {}

    def start(self):
        for name, (offset, votes) in self.specs.items():
            bank = self.spawn(BestOfBothWorldsBA, name, faults=T, anchor=offset,
                              slots=len(votes))
            for slot, vote in zip(bank.slots, votes):
                if vote is not None:
                    slot.provide_input(vote)
            self.banks[name] = bank
        for bank in self.banks.values():
            bank.on_output(self._bank_decided)
            bank.start()

    def _bank_decided(self, _value):
        if all(bank.has_output for bank in self.banks.values()):
            self.set_output({name: bank.output for name, bank in self.banks.items()})


def _run_banks(specs, network=None, seed=0, corrupt=None):
    runner = ProtocolRunner(N, network=network or SynchronousNetwork(), seed=seed,
                            corrupt=corrupt or {})
    return _recording_sends(
        lambda: runner.run(lambda party: Banks(party, "root", specs), max_time=5_000.0))


def test_two_banks_at_one_anchor_share_one_carrier_and_one_fan_out_per_step():
    specs = {"x": (0.0, [1, 1]), "y": (0.0, [1]), "z": (2.5, [1])}
    result, sent = _run_banks(specs)
    assert all(root.output == {"x": (1, 1), "y": 1, "z": 1} for root in result.instances.values())
    for pid, root in result.instances.items():
        alone, shared = _carriers(root.party)
        assert (shared.tag, alone.tag) == (f"root/{LAUNCH}", "root/aba@11503")
        assert shared._tags == ["root/x/aba[0]", "root/x/aba[1]", "root/y/aba[0]"]
        assert alone._tags == ["root/z/aba[0]"]
        assert all(type(root.party.instances[tag]) is BrachaABA
                   for carrier in (shared, alone) for tag in carrier._tags)
        # Unanimous votes in synchrony: the three slots move in lockstep, so every
        # step is one full vector, sent once -- not one message per slot.
        steps = _fan_outs(sent, pid, shared.tag)
        assert [step[:-1] for step in steps] == [
            ("bval", 1), ("aux", 1), ("bval", 2), ("aux", 2), ("final",), ("bval", 3)]
        assert all(step[-1] == (1, 1, 1) for step in steps)
        assert [step[-1] for step in _fan_outs(sent, pid, alone.tag)] == [(1,)] * 6
    on_carriers = sum(1 for _, tag, _ in sent if "/aba" in tag)
    assert on_carriers == 2 * 6 * N * (N - 1)  # two carriers, not four slots


# -- per slot it is a run of the same ΠABA -----------------------------------------------------


@pytest.mark.parametrize("network,seed", [
    (SynchronousNetwork(), 3), (AsynchronousNetwork(max_delay=9.0), 4),
    (AsynchronousNetwork(max_delay=9.0), 8),
], ids=["sync", "async-4", "async-8"])
def test_entry_j_of_a_senders_vectors_is_what_its_slot_j_machine_emits(network, seed, monkeypatch):
    """Mixed inputs, three slots, two banks: de-vectorised, a party's traffic is
    slot by slot the logical messages that slot's machine emitted, each once
    (what one activation emits in two steps may leave in either order)."""
    emitted = {}
    say = AbaCarrier._say

    def recording(carrier, index, message):
        emitted.setdefault((carrier.me, carrier.tag, index), []).append(message)
        return say(carrier, index, message)

    monkeypatch.setattr(AbaCarrier, "_say", recording)
    votes = {pid: [pid % 2, (pid // 2) % 2] for pid in range(1, N + 1)}
    runner = ProtocolRunner(N, network=network, seed=seed)
    result, sent = _recording_sends(lambda: runner.run(
        lambda party: Banks(party, "root", {"x": (0.0, votes[party.id]),
                                             "y": (0.0, [(party.id + 1) % 2])}),
        max_time=5_000.0))
    outputs = result.honest_outputs()
    assert len(outputs) == N and len({repr(out) for out in outputs.values()}) == 1
    tag = f"root/{LAUNCH}"
    for pid in outputs:
        carried = {index: [] for index in range(3)}
        for payload in _fan_outs(sent, pid, tag):
            assert len(payload[-1]) == 3 and any(bit is not None for bit in payload[-1])
            for index, bit in enumerate(payload[-1]):
                if bit is not None:
                    carried[index].append(payload[:-1] + (bit,))
        for index, messages in carried.items():
            assert sorted(messages) == sorted(emitted[pid, tag, index])
            assert len(set(messages)) == len(messages)


# -- a deferred vote -----------------------------------------------------------------------------


def test_a_late_vote_launches_its_slot_and_sends_a_sparse_vector():
    """Nobody has a vote for slot 1 at the anchor.  P_1..P_3 cast theirs at 60Δ,
    P_4 at 70Δ: until then what the others say in slot 1 waits in P_4's carrier."""
    seen = {}

    def probe(party, bank):
        carrier = party.instances[f"ba/{LAUNCH}"]
        seen[party.id] = (sorted(carrier._waiting), [w[0] for w in carrier._waiting.get(1, ())],
                          "ba/aba[1]" in party.instances)

    late = {pid: (60.0 if pid < 4 else 70.0, 1, 1) for pid in range(1, 5)}
    result, sent = _recording_sends(lambda: _run_bank(
        4, 1, {pid: [0] for pid in range(1, 5)}, slots=2, late=late, probe=(65.0, probe)))
    assert result.honest_outputs() == {pid: (0, 1) for pid in range(1, 5)}
    # At 65Δ the three have launched slot 1 (nothing waits there); P_4 has not,
    # and holds their BVAL(1), relays and AUX(1) in arrival order.
    assert all(seen[pid] == ([], [], True) for pid in (1, 2, 3))
    assert seen[4][0] == [1] and not seen[4][2]
    assert sorted(seen[4][1][:3]) == [1, 2, 3] and set(seen[4][1]) == {1, 2, 3}
    for pid in range(1, 5):
        slot_1 = [p for p in _fan_outs(sent, pid, f"ba/{LAUNCH}") if p[-1][1] is not None]
        assert slot_1[0] == ("bval", 1, (None, 1))  # slot 0 decided long ago: sparse
        assert all(p[-1][0] is None for p in slot_1)


# -- Byzantine vectors -----------------------------------------------------------------------


def _three_slots(forged):
    """Slots 0 and 1 are voted on (1 and 0); nobody ever votes in slot 2."""
    result = _run_bank(4, 1, {pid: [1, 0] for pid in range(1, 5)}, slots=3, max_time=200.0,
                       corrupt=_inject(r"ba/aba@\d+", *forged))
    return {pid: ([slot.output for slot in bank.slots], len(bank.party.instances))
            for pid, bank in result.instances.items() if pid != 4}, result


BYZANTINE_VECTORS = [
    pytest.param([5], id="not-a-tuple"),
    pytest.param([("bval", 1, [1, 0, 1]), ("final", 1), ("aux", 1, None)], id="vector-not-a-tuple"),
    pytest.param([("bval", 1, (1, 0)), ("aux", 1, (1, 0, 1, 0)), ("final", ())], id="wrong-length"),
    pytest.param([("echo", 1, (0, 1, 0)), (7, 1, (0, 1, 0)), ("final", 1, (0, 1, 0)),
                  ("bval", (0, 1, 0))], id="unknown-kind"),
    pytest.param([("bval", 0, (0, 1, 0)), ("aux", MAX_ROUNDS + 1, (0, 1, 0)),
                  ("bval", "1", (0, 1, 0)), ("aux", True, (0, 1, 0)), ("bval", [1], (0, 1, 0)),
                  ("bval", 1.0, (0, 1, 0))], id="round-outside-the-schedule"),
    pytest.param([("bval", 1, (2, 2, 2)), ("aux", 1, (1.0, 1.0, 1.0)),
                  ("final", (True, True, True)), ("bval", 2, ([1], [0], "1")),
                  ("final", (0.0, 1.0, -1))], id="entries-that-are-no-bits"),
    pytest.param([(kind, r, (None, None, bit)) for r in range(1, 41) for kind in ("bval", "aux")
                  for bit in (0, 1)] + [("final", (None, None, 1))] * 5,
                 id="flood-for-a-slot-never-launched"),
]


@pytest.mark.parametrize("forged", BYZANTINE_VECTORS)
def test_a_malformed_vector_is_nothing_sent_and_a_bad_entry_nothing_in_that_slot(forged):
    honest, _ = _three_slots([])
    assert {pid: decisions for pid, (decisions, _) in honest.items()} == {
        pid: [1, 0, None] for pid in (1, 2, 3)}
    forged_run, result = _three_slots(forged)
    assert forged_run == honest
    for pid in (1, 2, 3):
        party = result.instances[pid].party
        assert "ba/aba[2]" not in party.instances
        for tag in ("ba/aba[0]", "ba/aba[1]"):
            aba = party.instances[tag]
            assert type(aba.output) is int and set(aba._rounds) <= {1, 2, 3}


def test_a_peer_that_still_speaks_per_slot_is_heard_and_answered_on_the_carrier():
    """P_4 sends its logical messages straight to the slots' own tags, as before the
    carriers: each is that logical message (a vector could have carried it), and
    what an honest slot says in reply leaves on the carrier at once."""
    def per_slot(tag, payload):
        return [(f"ba/aba[{index}]", payload[:-1] + (bit,))
                for index, bit in enumerate(payload[-1]) if bit is not None]

    votes = {pid: [1, 0] for pid in range(1, 5)}
    result, sent = _recording_sends(lambda: _run_bank(
        4, 1, votes, slots=2, corrupt={4: RewriteBehavior({r"ba/aba@\d+": per_slot})}))
    assert result.honest_outputs() == {pid: (1, 0) for pid in (1, 2, 3)}
    assert {tag for sender, tag, _ in sent if sender != 4 and "/aba" in tag} == {f"ba/{LAUNCH}"}
    for pid in (1, 2, 3):
        slot = result.instances[pid].party.instances["ba/aba[0]"]
        assert 4 in slot._rounds[1].bval_senders[1]


# -- before the positions are frozen ----------------------------------------------------------------


def test_a_vector_delivered_before_the_launch_timer_is_held_until_the_launch():
    """P_4 sends BVAL(1, 0) at time 0, nine Δ before anyone launches (a peer whose
    clock runs ahead): it waits in the carrier, and counts once the slot exists."""
    early = ("bval", 1, (0,))
    seen = {}

    def send_early(tag, payload):
        return [(f"ba/{LAUNCH}", early), (tag, payload)] if payload[0] == "init" else [(tag, payload)]

    runner = ProtocolRunner(N, network=SynchronousNetwork(), seed=2, backend="asyncio",
                            corrupt={4: RewriteBehavior({r"ba/bc@0\[4\]/acast": send_early})})

    def factory(party):
        def probe():
            carrier = party.instances[f"ba/{LAUNCH}"]
            seen[party.id] = (carrier._position, list(carrier._early))
        party.schedule_at(5.0, probe)
        return BestOfBothWorldsBA(party, "ba", faults=T, value=1, anchor=0.0)

    result = runner.run(factory, max_time=5_000.0)
    assert result.honest_outputs() == {1: 1, 2: 1, 3: 1}
    for pid in (1, 2, 3):
        assert seen[pid] == (None, [(4, early)])
        party = result.instances[pid].party
        assert party.instances[f"ba/{LAUNCH}"]._early == []
        assert 4 in party.instances["ba/aba[0]"]._rounds[1].bval_senders[0]


# -- the wire ------------------------------------------------------------------------------------


def test_aba_vectors_cross_the_wire_without_pickle(monkeypatch):
    def no_pickle(*args, **kwargs):
        raise AssertionError("a ΠABA vector took the pickle fallback")

    monkeypatch.setattr(pickle, "dumps", no_pickle)
    for payload, bits in ((("bval", 2, (1, None, 0, None)), 32 + 64 + 2 * 64 + 2),
                          (("aux", 17, (None, 1)), 24 + 64 + 64 + 1),
                          (("final", (0, 0, None)), 40 + 2 * 64 + 1)):
        message = Message(2, 3, "eval[3]/aba@30011", payload, 31.011)
        decoded = decode_message(encode_message(message))
        assert decoded.payload == payload
        assert decoded.bits == message.bits == 64 + bits


# -- a bit keeps its type ----------------------------------------------------------------------------


def test_a_peers_float_bits_never_become_an_estimate_or_an_output():
    """At b8ff26b P_1's ``1.0`` passed ``value in (0, 1)``, became estimates and
    FINAL values, and this run's honest outputs were ``{2: 1, 3: 1, 4: 1.0}``
    (seeds 0, 4, 5: all three ``1.0``)."""
    def floats(tag, payload):
        return [(tag, payload[:-1] + (tuple(float(bit) for bit in payload[-1]),))]

    for seed in (0, 1, 4, 5):
        result = _run_bank(4, 1, {pid: 1 for pid in range(1, 5)}, seed=seed,
                           network=AsynchronousNetwork(max_delay=4.0),
                           corrupt={1: RewriteBehavior({r"ba/aba@\d+": floats})})
        outputs = result.honest_outputs()
        assert outputs == {2: 1, 3: 1, 4: 1} and all(type(bit) is int for bit in outputs.values())
        for pid in outputs:
            aba = result.instances[pid].party.instances["ba/aba[0]"]
            assert type(aba.estimate) is int

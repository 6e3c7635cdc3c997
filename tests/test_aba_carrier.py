"""ΠABA as built: the slots launched at one instant speak in one vector per step
(``repro.ba.aba``).

Every ΠBA bank hands its slots' ΠABAs to the ``AbaCarrier`` of its launch
instant (vote anchor + T_BC + ε).  These tests pin the carrier's identity and
membership, the reduction entry by entry (each slot's entries are its own
machine's messages, each once), the deferred launch of a late vote, the total
parser of the vector, the hold before the positions are frozen, the wire
format (a vote vector is a ``Bundle`` of its runs of up to 255 slots, each on
the 2-bit-a-slot line), and that a bit keeps its type whatever a peer sends.
"""

import pickle

import pytest

from repro.ba.aba import MAX_ROUNDS, AbaCarrier
from repro.ba.bobw import BestOfBothWorldsBA
from repro.broadcast.acast import Bundle
from repro.broadcast.bc import bc_time_bound
from repro.runtime import AsyncioBackend
from repro.runtime.wire import decode_message, encode_message
from repro.sim import AsynchronousNetwork, Simulator, SynchronousNetwork
from repro.sim.messages import Message
from repro.sim.party import ProtocolInstance
from repro.sim.simulator import SimulationMetrics

from protocol_helpers import RewriteBehavior
from test_vote_vector import FIG2_AT_PARENT, _inject, _run_bank

N, T = 4, 1
T_BC = bc_time_bound(N, T, 1.0)
#: A bank anchored at 0 under a root anchored at 0 launches at T_BC + ε: 9.003 Δ.
LAUNCH = f"aba@{round((T_BC + 0.001) / 0.001)}"


def _votes(payload):
    """The K-tuple a carrier's ``(kind, [round,] votes)`` payload carries."""
    return sum(payload[-1].entries, ())


def _v(vector):
    """``vector`` as a peer puts it on the wire: a bundle of (here one) run."""
    return Bundle((vector,), N)


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
        assert carrier.tag == f"ba/aba@{ticks}" and [slot.tag for slot in carrier.entries] == ["ba/aba[0]"]
        assert carrier.entries == result.instances[pid].slots
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
    sim = Simulator(N, network=network or SynchronousNetwork(), seed=seed,
                    corrupt=corrupt or {})
    return _recording_sends(
        lambda: sim.run(lambda party: Banks(party, "root", specs), max_time=5_000.0))


def test_two_banks_at_one_anchor_share_one_carrier_and_one_fan_out_per_step():
    specs = {"x": (0.0, [1, 1]), "y": (0.0, [1]), "z": (2.5, [1])}
    result, sent = _run_banks(specs)
    assert all(root.output == {"x": (1, 1), "y": 1, "z": 1} for root in result.instances.values())
    for pid, root in result.instances.items():
        alone, shared = _carriers(root.party)
        assert (shared.tag, alone.tag) == (f"root/{LAUNCH}", "root/aba@11503")
        assert [slot.tag for slot in shared.entries] == [
            "root/x/aba[0]", "root/x/aba[1]", "root/y/aba[0]"]
        assert [slot.tag for slot in alone.entries] == ["root/z/aba[0]"]
        banks = root.banks
        assert shared.entries == banks["x"].slots + banks["y"].slots
        assert alone.entries == banks["z"].slots
        # Unanimous votes in synchrony: the three slots move in lockstep, so every
        # step is one full vector, sent once -- not one message per slot.
        steps = _fan_outs(sent, pid, shared.tag)
        assert [step[:-1] for step in steps] == [
            ("bval", 1), ("aux", 1), ("bval", 2), ("aux", 2), ("final",), ("bval", 3)]
        assert all(_votes(step) == (1, 1, 1) for step in steps)
        assert [_votes(step) for step in _fan_outs(sent, pid, alone.tag)] == [(1,)] * 6
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
    sim = Simulator(N, network=network, seed=seed)
    result, sent = _recording_sends(lambda: sim.run(
        lambda party: Banks(party, "root", {"x": (0.0, votes[party.id]),
                                             "y": (0.0, [(party.id + 1) % 2])}),
        max_time=5_000.0))
    outputs = result.honest_outputs()
    assert len(outputs) == N and len({repr(out) for out in outputs.values()}) == 1
    tag = f"root/{LAUNCH}"
    for pid in outputs:
        carried = {index: [] for index in range(3)}
        for payload in _fan_outs(sent, pid, tag):
            vector = _votes(payload)
            assert len(vector) == 3 and any(bit is not None for bit in vector)
            for index, bit in enumerate(vector):
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
                          bank.slots[1].estimate is not None)

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
        slot_1 = [p for p in _fan_outs(sent, pid, f"ba/{LAUNCH}") if _votes(p)[1] is not None]
        assert slot_1[0] == ("bval", 1, _v((None, 1)))  # slot 0 decided long ago: sparse
        assert all(_votes(p)[0] is None for p in slot_1)


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
    pytest.param([("bval", 1, (1, 0, 1)), ("aux", 1, (0, 1, 0)), ("final", (1, 1, 1))],
                 id="a-plain-tuple-is-not-a-vote-vector"),
    pytest.param([("bval", 1, Bundle(((1, 0, 1), (1, 0, 1)), N)), ("bval", 1, Bundle((), N)),
                  ("aux", 1, Bundle(((1, 0, 1),), N).entries), ("final", Bundle((None,), N)),
                  ("bval", 1, Bundle(((1,), 0, (1,)), N))],
                 id="runs-that-make-no-vector-of-the-frozen-length"),
    pytest.param([("bval", 1, _v((1, 0))), ("aux", 1, _v((1, 0, 1, 0))), ("final", _v(()))],
                 id="wrong-length"),
    pytest.param([("echo", 1, _v((0, 1, 0))), (7, 1, _v((0, 1, 0))), ("final", 1, _v((0, 1, 0))),
                  ("bval", _v((0, 1, 0)))], id="unknown-kind"),
    pytest.param([("bval", 0, _v((0, 1, 0))), ("aux", MAX_ROUNDS + 1, _v((0, 1, 0))),
                  ("bval", "1", _v((0, 1, 0))), ("aux", True, _v((0, 1, 0))),
                  ("bval", [1], _v((0, 1, 0))), ("bval", 1.0, _v((0, 1, 0)))],
                 id="round-outside-the-schedule"),
    pytest.param([("bval", 1, _v((2, 2, 2))), ("aux", 1, _v((1.0, 1.0, 1.0))),
                  ("final", _v((True, True, True))), ("bval", 2, _v(([1], [0], "1"))),
                  ("final", _v((0.0, 1.0, -1)))], id="entries-that-are-no-bits"),
    pytest.param([(kind, r, _v((None, None, bit))) for r in range(1, 41)
                  for kind in ("bval", "aux") for bit in (0, 1)]
                 + [("final", _v((None, None, 1)))] * 5,
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
        slots = result.instances[pid].slots
        assert slots[2].estimate is None  # never launched
        for aba in slots[:2]:
            assert type(aba.output) is int and set(aba._rounds) <= {1, 2, 3}


def test_a_peer_that_speaks_on_the_slots_own_tags_is_not_heard():
    """The carrier is the only wire entry to a slot.  P_4 sends its logical
    messages straight to the slots' own tags, as before the carriers: no slot
    hears them (Lemma 3.3's reduction covers vectors only, and a corrupt peer
    not heard on a side channel is one that sent nothing), the honest parties
    still decide, and none of them says anything on a slot's tag."""
    def per_slot(tag, payload):
        return [(f"ba/aba[{index}]", payload[:-1] + (bit,))
                for index, bit in enumerate(_votes(payload)) if bit is not None]

    votes = {pid: [1, 0] for pid in range(1, 5)}
    result, sent = _recording_sends(lambda: _run_bank(
        4, 1, votes, slots=2, corrupt={4: RewriteBehavior({r"ba/aba@\d+": per_slot})}))
    assert result.honest_outputs() == {pid: (1, 0) for pid in (1, 2, 3)}
    assert {tag for sender, tag, _ in sent if sender != 4 and "/aba" in tag} == {f"ba/{LAUNCH}"}
    assert {tag for sender, tag, _ in sent if sender == 4 and "/aba" in tag} == {
        "ba/aba[0]", "ba/aba[1]"}
    for pid in (1, 2, 3):
        for slot in result.instances[pid].slots:
            assert not any(4 in state.bval_senders[bit]
                           for state in slot._rounds.values() for bit in (0, 1))


# -- before the positions are frozen ----------------------------------------------------------------


def test_a_vector_delivered_before_the_launch_timer_is_held_until_the_launch():
    """P_4 sends BVAL(1, 0) at time 0, nine Δ before anyone launches (a peer whose
    clock runs ahead): it waits in the carrier, and counts once the slot exists.
    (The hold itself, for every carrier type: ``tests/test_sim.py``.)"""
    early = ("bval", 1, _v((0,)))

    def send_early(tag, payload):
        return [(f"ba/{LAUNCH}", early), (tag, payload)] if payload[0] == "init" else [(tag, payload)]

    backend = AsyncioBackend(N, network=SynchronousNetwork(), seed=2,
                             corrupt={4: RewriteBehavior({r"ba/bc@0\[4\]/acast": send_early})})
    result = backend.run(lambda party: BestOfBothWorldsBA(party, "ba", faults=T, value=1, anchor=0.0),
                         max_time=5_000.0)
    assert result.honest_outputs() == {1: 1, 2: 1, 3: 1}
    for pid in (1, 2, 3):
        assert 4 in result.instances[pid].slots[0]._rounds[1].bval_senders[0]


# -- the wire ------------------------------------------------------------------------------------


def test_aba_vectors_cross_the_wire_without_pickle(monkeypatch):
    def no_pickle(*args, **kwargs):
        raise AssertionError("a ΠABA vector took the pickle fallback")

    monkeypatch.setattr(pickle, "dumps", no_pickle)
    # 2 bits a slot, on the vote line of the bundle's price list: 64 a slot
    # while the vector was a plain tuple of ints.
    for payload, bits in ((("bval", 2, _v((1, None, 0, None))), 32 + 64 + 2 * 4),
                          (("aux", 17, _v((None, 1))), 24 + 64 + 2 * 2),
                          (("final", _v((0, 0, None))), 40 + 2 * 3),
                          # Past one length byte of slots: two runs, still 2 bits a slot.
                          (("bval", 1, Bundle(((1,) * 255, (0, None) * 30), N)),
                           32 + 64 + 2 * 315)):
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
        return [(tag, payload[:-1] + (_v(tuple(float(bit) for bit in _votes(payload))),))]

    for seed in (0, 1, 4, 5):
        result = _run_bank(4, 1, {pid: 1 for pid in range(1, 5)}, seed=seed,
                           network=AsynchronousNetwork(max_delay=4.0),
                           corrupt={1: RewriteBehavior({r"ba/aba@\d+": floats})})
        outputs = result.honest_outputs()
        assert outputs == {2: 1, 3: 1, 4: 1} and all(type(bit) is int for bit in outputs.values())
        for pid in outputs:
            aba = result.instances[pid].slots[0]
            assert type(aba.estimate) is int

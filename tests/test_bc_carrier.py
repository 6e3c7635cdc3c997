"""ΠBC as built: one run of Fig 1 per sender per instant (``repro.broadcast.bc``).

Every logical ΠBC of one sender anchored at one instant is an entry of one
carrier, whose broadcast value is the bundle of their inputs.  These tests
pin the carrier's identity and membership, Theorem 3.5's cases entry by
entry (as ``tests/test_bc.py`` checks them for a lone ΠBC), the late-input
path, the total parser of the bundle, the wire format and the "one Fig 1
implementation" rule.
"""

import ast
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from repro.ba.sba import PhaseKingSBA
from repro.broadcast.acast import AcastProtocol, PackedFieldVector
from repro.broadcast.bc import (
    BroadcastCarrier,
    BroadcastProtocol,
    Bundle,
    CarrierError,
    bc_time_bound,
    carrier_tag,
)
from repro.runtime.asyncio_backend import AsyncioBackend
from repro.runtime.wire import decode_message, encode_message
from repro.sharing.vss import VerifiableSecretSharing, vss_time_bound
from repro.sim import (
    AdversarialAsynchronousNetwork,
    AsynchronousNetwork,
    DelayBehavior,
    EquivocatingBehavior,
    Simulator,
    SilentBehavior,
    SynchronousNetwork,
)
from repro.sim.adversary import Behavior
from repro.sim.messages import Message
from repro.sim.party import ProtocolInstance

from protocol_helpers import (
    FIELD,
    CountedTags,
    RewriteBehavior,
    acast_input,
    bundle_entries,
    honest_outputs_consistent,
    random_polynomial,
    run_dealer_protocol,
    shares_match_polynomials,
)

N, T = 4, 1
T_BC = bc_time_bound(N, T, 1.0)


class Broadcasts(ProtocolInstance):
    """A root owning some logical ΠBCs of one sender: ``specs`` maps a child
    name to ``(anchor offset, the sender's input or None)``.  Outputs the
    regular-mode outputs, by name, once every child has decided."""

    def __init__(self, party, tag, sender, specs, anchor=0.0):
        super().__init__(party, tag)
        self.sender = sender
        self.specs = specs
        self.anchor = anchor
        self.bc = {}

    def start(self):
        for name, (offset, message) in self.specs.items():
            self.bc[name] = self.spawn(
                BroadcastProtocol, name, sender=self.sender, faults=T,
                message=message if self.me == self.sender else None,
                anchor=self.anchor + offset,
            )
        for bc in self.bc.values():
            bc.start()
            bc.on_output(self._child_decided)

    def _child_decided(self, _value):
        if all(bc.regular_decided for bc in self.bc.values()):
            self.set_output({name: bc.regular_output for name, bc in self.bc.items()})


def _run(specs, sender=1, network=None, corrupt=None, seed=0, max_time=2_000.0,
         wait_for_all=True, before_run=None):
    sim = Simulator(N, network=network or SynchronousNetwork(), seed=seed,
                    corrupt=corrupt or {})
    if before_run:
        for party in sim.parties.values():
            before_run(party)
    return sim.run(lambda party: Broadcasts(party, "root", sender, specs),
                      max_time=max_time, wait_for_all_honest=wait_for_all)


def _instances(result, cls):
    return {pid: [e for e in root.party.instances.values() if type(e) is cls]
            for pid, root in result.instances.items()}


TWO = {"a": (0.0, ("msg", 9)), "b": (0.0, "other")}


# -- identity and membership ---------------------------------------------------------------


def test_two_broadcasts_of_one_sender_at_one_anchor_share_one_acast_and_one_sba():
    result = _run(TWO)
    # 27 Acast + 54 phase-king: one run of Fig 1, whose bank has one slot in use.
    assert result.metrics.messages_sent == 81
    for pid, carriers in _instances(result, BroadcastCarrier).items():
        (carrier,) = carriers
        assert carrier.tag == carrier_tag("root", 0.0, 1, 1.0) == "root/bc@0[1]"
        assert [e.tag for e in carrier.entries] == ["root/a", "root/b"]
        assert carrier.bundle == (("msg", 9), "other")
        assert len(_instances(result, PhaseKingSBA)[pid]) == 1
        # One Acast, the bundle's: no input came late, so no ΠBC built its own.
        (acast,) = _instances(result, AcastProtocol)[pid]
        assert acast.tag == "root/bc@0[1]/acast" and acast.has_output


def test_a_lone_broadcast_is_a_one_entry_carrier_and_costs_81_messages():
    result = _run({"a": (0.0, "m")})
    assert result.metrics.messages_sent == 81
    assert all(root.bc["a"].output == "m" for root in result.instances.values())


class EverySender(ProtocolInstance):
    """A root with one logical ΠBC of each of ``senders``, all anchored at 0."""

    def __init__(self, party, tag, senders):
        super().__init__(party, tag)
        self.anchor = 0.0
        self.senders = senders

    def start(self):
        self.bc = {s: self.spawn(BroadcastProtocol, f"m[{s}]", sender=s, faults=T,
                                 message=f"from {s}" if self.me == s else None, anchor=0.0)
                   for s in self.senders}
        for bc in self.bc.values():
            bc.start()
            bc.on_output(self._decided)

    def _decided(self, _value):
        if all(bc.regular_decided for bc in self.bc.values()):
            self.set_output({s: bc.regular_output for s, bc in self.bc.items()})


def test_the_carriers_of_one_instant_share_one_phase_king_bank():
    """Three senders' carriers at one anchor: three Acasts and one binary bank
    of n slots, slot s 1 where sender s's Acast delivered and 0 for the sender
    with no carrier."""
    sim = Simulator(N, network=SynchronousNetwork())
    result = sim.run(lambda party: EverySender(party, "root", (1, 2, 4)), max_time=2_000.0)
    assert result.metrics.messages_sent == 3 * 27 + 54
    for pid, root in result.instances.items():
        assert root.output == {1: "from 1", 2: "from 2", 4: "from 4"}
        (bank,) = _instances(result, PhaseKingSBA)[pid]
        assert bank.tag == "root/bc@0/sba"
        carriers = {c.sender: c for c in _instances(result, BroadcastCarrier)[pid]}
        assert sorted(carriers) == [1, 2, 4]
        assert bank.output == (1, 1, 0, 1)
        assert all(carriers[s]._acast.has_output for s in (1, 2, 4))
        assert all(c._sba is bank for c in carriers.values())


def test_same_sender_at_two_anchors_is_two_carriers():
    result = _run({"a": (0.0, "first"), "b": (2.5, "second"), "c": (2.5, "third")})
    assert result.metrics.messages_sent == 2 * 81
    for pid, carriers in _instances(result, BroadcastCarrier).items():
        assert sorted(c.tag for c in carriers) == ["root/bc@0[1]", "root/bc@2500[1]"]
        root = result.instances[pid]
        assert root.output == {"a": "first", "b": "second", "c": "third"}
        assert root.bc["a"].output_time == pytest.approx(T_BC)
        assert root.bc["b"].output_time == root.bc["c"].output_time == pytest.approx(2.5 + T_BC)


def test_carrier_tag_is_relative_to_the_root_anchor_not_to_the_clock():
    """A root anchored at its local now + slack (the supervised children) names
    its carriers like one anchored at 0."""
    sim = Simulator(N, network=SynchronousNetwork())
    result = sim.run(
        lambda party: Broadcasts(party, "root", 2, {"a": (3.004, "m")}, anchor=17.25),
        max_time=200.0)
    for root in result.instances.values():
        assert "root/bc@3004[2]" in root.party.instances
        assert root.bc["a"].output_time == pytest.approx(17.25 + 3.004 + T_BC)


def test_an_endpoint_on_other_terms_or_without_an_anchored_root_is_a_typed_error():
    """Joining after the freeze is the carriers' common error (``tests/test_sim.py``)."""
    sim = Simulator(N, network=SynchronousNetwork())
    party = sim.parties[2]
    Broadcasts(party, "root", 1, {"a": (0.0, "m")}).start()
    other = BroadcastProtocol(party, "root/other", sender=1, faults=0, anchor=0.0)
    with pytest.raises(CarrierError, match=r"root/other cannot join .*\(other t/Δ\)"):
        other.start()
    orphan = BroadcastProtocol(party, "nowhere/bc", sender=1, faults=T, anchor=0.0)
    with pytest.raises(CarrierError, match="no anchor"):
        orphan.start()


# -- Theorem 3.5, entry by entry -------------------------------------------------------------


def test_sync_honest_sender_every_entry_regular_mode_at_t_bc():
    result = _run(TWO)
    for root in result.instances.values():
        for name, (_, message) in TWO.items():
            bc = root.bc[name]
            assert bc.regular_decided and bc.regular_output == message == bc.output
            assert bc.output_via_regular_mode() == message
            assert bc.output_time == pytest.approx(T_BC)


def test_sync_silent_corrupt_sender_every_entry_outputs_bottom():
    result = _run(TWO, sender=2, corrupt={2: SilentBehavior(lambda tag: True)})
    for pid in (1, 3, 4):
        for bc in result.instances[pid].bc.values():
            assert bc.regular_decided and bc.regular_output is None and bc.output is None


def test_sync_equivocating_sender_entries_are_consistent():
    vectors = {"a": (0.0, [FIELD(1), FIELD(2)]), "b": (0.0, [FIELD(3), FIELD(4)])}
    result = _run(vectors, corrupt={1: EquivocatingBehavior(group_b=[3, 4],
                                                            tag_predicate=lambda tag: True)})
    for name in vectors:
        regular = [result.instances[pid].bc[name].regular_output for pid in (2, 3, 4)]
        assert len({str(v.values) for v in regular if v is not None}) <= 1
    # All-or-none: no honest party holds one entry of a bundle and not the other.
    for pid in (2, 3, 4):
        bcs = result.instances[pid].bc
        assert (bcs["a"].regular_output is None) == (bcs["b"].regular_output is None)


def test_async_slow_honest_sender_every_entry_arrives_in_fallback_mode():
    network = AdversarialAsynchronousNetwork(slow_parties=frozenset({1}), slow_delay=80.0,
                                             fast_delay=0.2)
    result = _run(TWO, network=network, max_time=None, wait_for_all=False)
    for root in result.instances.values():
        assert {name: bc.output for name, bc in root.bc.items()} == {"a": ("msg", 9),
                                                                     "b": "other"}
    assert any(root.bc["a"].regular_output is None for root in result.instances.values())
    for root in result.instances.values():
        assert (root.bc["a"].regular_output is None) == (root.bc["b"].regular_output is None)


def test_async_equivocating_sender_fallback_consistency_per_entry():
    result = _run(TWO, sender=2, network=AsynchronousNetwork(max_delay=10.0), seed=8,
                  corrupt={2: EquivocatingBehavior(group_b=[4], tag_predicate=lambda tag: True)},
                  wait_for_all=False, max_time=3_000.0)
    for name in TWO:
        seen = {str(result.instances[pid].bc[name].output) for pid in (1, 3, 4)
                if result.instances[pid].bc[name].output is not None}
        assert len(seen) <= 1


def test_on_delivery_fires_per_entry_for_regular_and_fallback():
    for network in (SynchronousNetwork(),
                    AdversarialAsynchronousNetwork(slow_parties=frozenset({1}),
                                                   slow_delay=80.0, fast_delay=0.2)):
        sim = Simulator(N, network=network)
        seen = []
        roots = {pid: Broadcasts(party, "root", 1, TWO) for pid, party in sim.parties.items()}
        for pid, root in roots.items():
            root.start()
            for name, bc in root.bc.items():
                bc.on_delivery(lambda value, pid=pid, name=name: seen.append((pid, name, value)))
        sim.run_until(max_time=500.0)
        assert sorted(seen) == sorted((pid, name, TWO[name][1])
                                      for pid in range(1, N + 1) for name in TWO)


class SkewedSender(Behavior):
    """A corrupt sender that runs the honest code, but its Acast messages to
    recipient r leave ``delays[r]`` late, and as phase 1's king (round 3) it
    votes ``king_says`` for its own slot if that is not ``None``."""

    def __init__(self, delays, king_says=None):
        self.delays, self.king_says = delays, king_says

    def filter_send(self, party, message):
        if message.tag.endswith("/sba") and message.payload[0] == 3 and self.king_says is not None:
            votes = (self.king_says,) + message.payload[1].entries[0][1:]
            message = Message(message.sender, message.recipient, message.tag,
                              (3, Bundle((votes,), N)), message.send_time)
        extra = self.delays.get(message.recipient) if message.tag.endswith("/acast") else None
        if not extra:
            return [message]
        party.runtime.schedule_timer(party.now + extra,
                                     lambda: party.runtime.dispatch(message))
        return []


@pytest.mark.parametrize("delays,king_says,held,decided,by_t_bc", [
    # P_2 alone holds the value at 3Δ + ε; the king's 1 carries the slot.
    pytest.param({3: 1.0, 4: 1.0}, 1, (1, 0, 0), 1, (1, 1, 1), id="one-holds-king-says-1"),
    pytest.param({3: 0.5, 4: 0.5}, 1, (1, 0, 0), 1, (1, 1, 1),
                 id="one-holds-half-a-delta-ahead"),
    # P_3 alone holds it at 3Δ + ε; the king's default is 0.
    pytest.param({2: 1.0, 4: 1.0}, None, (0, 1, 0), 0, (1, 1, 1), id="one-holds-king-honest"),
    # Nobody holds it at 3Δ + ε; P_2 holds it just before T_BC, P_3 and P_4
    # only after: a decision on "held here" alone would split.
    pytest.param({3: 7.0, 4: 7.0}, None, (0, 0, 0), 0, (1, 0, 0),
                 id="one-holds-just-before-t-bc"),
])
def test_a_slot_decides_1_only_if_every_honest_party_holds_the_value_by_t_bc(
        delays, king_says, held, decided, by_t_bc):
    """Sync consistency of the binary bank (module docstring of
    ``repro.broadcast.bc``): wherever slot s decides 1, every honest carrier
    ``[s]`` has its Acast output by anchor + T_BC, and the honest regular
    outputs agree."""
    sim = Simulator(N, network=SynchronousNetwork(),
                    corrupt={1: SkewedSender(delays, king_says)})
    result = sim.run(lambda party: Broadcasts(party, "root", 1, {"a": (0.0, "m")}),
                     max_time=2_000.0)
    honest = (2, 3, 4)
    carriers = {pid: result.instances[pid].party.instances["root/bc@0[1]"] for pid in honest}
    banks = {pid: result.instances[pid].party.instances["root/bc@0/sba"] for pid in honest}
    assert tuple(banks[pid].value[0] for pid in honest) == held
    assert {banks[pid].output[0] for pid in honest} == {decided}
    holds = tuple(int(c._acast.has_output and c._acast.output_time <= T_BC)
                  for c in carriers.values())
    assert holds == by_t_bc
    if decided == 1:
        assert holds == (1, 1, 1)
    regular = {result.instances[pid].bc["a"].regular_output for pid in honest}
    assert regular == {"m" if decided else None}


# -- Fig 1's late sender -------------------------------------------------------------------------


@pytest.mark.parametrize("when", [0.5, 4.0, 30.0])
def test_late_input_is_delivered_in_fallback_mode_only_and_only_after_the_bundle(when):
    """``b`` gets its input after the bundle went out: it rides the carrier's
    first late carrier and counts once the bundle is in (regular mode at T_BC)
    and lacks it."""
    sim = Simulator(N, network=SynchronousNetwork())
    roots = {pid: Broadcasts(party, "root", 1, {"a": (0.0, "on time"), "b": (0.0, None)})
             for pid, party in sim.parties.items()}
    delivered = {}
    for pid, root in roots.items():
        root.start()
        root.bc["b"].on_delivery(lambda value, root=root: delivered.setdefault(root.me, root.now))
    sim.parties[1].schedule_at(when, lambda: roots[1].bc["b"].provide_input("late"))
    sim.run_until(max_time=100.0)
    assert sim.metrics.messages_sent == 81 + 27
    for pid, root in roots.items():
        a, b = root.bc["a"], root.bc["b"]
        assert a.regular_output == "on time" and a.output_time == pytest.approx(T_BC)
        assert b.regular_decided and b.regular_output is None
        assert b.output_via_regular_mode() is None and b.output == "late"
        assert root.party.instances["root/bc@0[1]"].bundle == ("on time", None)
        # Acast takes 3Δ; not before the bundle's regular-mode delivery.
        assert delivered[pid] == pytest.approx(max(T_BC, when + 3.0))


def test_input_given_before_the_anchor_rides_the_bundle():
    def give_early(party):
        if party.id == 1:
            party.schedule_at(1.0, lambda: party.instances["root"].bc["a"].provide_input("early"))

    result = _run({"a": (2.0, None)}, before_run=give_early)
    assert result.metrics.messages_sent == 81
    assert all(root.bc["a"].regular_output == "early" for root in result.instances.values())


def test_at_anchor_callbacks_run_inside_the_anchor_timer_before_the_bundle_goes_out():
    sim = Simulator(N, network=SynchronousNetwork())
    roots = {pid: Broadcasts(party, "root", 1, {"a": (2.0, None), "b": (2.0, None)})
             for pid, party in sim.parties.items()}
    order = []
    for root in roots.values():
        root.start()
    sender = roots[1]
    sender.bc["b"].at_anchor(lambda: (order.append(sender.now), sender.bc["b"].provide_input("B")))
    sender.bc["a"].at_anchor(lambda: (order.append(sender.now), sender.bc["a"].provide_input("A")))
    sim.run_until(max_time=100.0)
    assert order == [2.0, 2.0]
    assert sim.metrics.messages_sent == 81
    for root in roots.values():
        assert (root.bc["a"].regular_output, root.bc["b"].regular_output) == ("A", "B")


# -- the bundle is outside input: one total parser ---------------------------------------------------


def _bundle(edit):
    """Corrupt sender P_1 of ``TWO`` rewrites the bundle it Acasts."""
    return {1: RewriteBehavior({r"root/bc@0\[1\]/acast": acast_input(edit)})}


@pytest.mark.parametrize("edit,delivered", [
    pytest.param(bundle_entries(lambda entries: entries[:-1]), True, id="wrong-length"),
    pytest.param(bundle_entries(lambda entries: entries + ("extra",)), True, id="too-long"),
    pytest.param(lambda bundle: list(bundle.entries), False, id="a-list-is-unhashable"),
    pytest.param(lambda bundle: 5, True, id="not-a-tuple"),
    pytest.param(lambda bundle: "ab", True, id="a-string-of-the-right-length"),
    pytest.param(lambda bundle: bundle.entries, True, id="a-plain-tuple-of-the-right-length"),
    pytest.param(bundle_entries(lambda entries: (entries[0], [1, 2])), False,
                 id="unhashable-entry"),
])
def test_malformed_bundle_is_the_empty_bundle_and_an_unhashable_one_is_dropped(edit, delivered):
    """A tag-level rewrite of the carrier's own Acast is the whole bundle malformed."""
    result = _run(TWO, corrupt=_bundle(edit))
    for pid in (2, 3, 4):
        (carrier,) = _instances(result, BroadcastCarrier)[pid]
        assert (carrier.output is not None) == delivered
        assert carrier.bundle == ((None, None) if delivered else None)
        for bc in result.instances[pid].bc.values():
            assert bc.regular_decided and bc.regular_output is None and bc.output is None


def test_entry_of_the_wrong_type_reaches_the_consumers_parser_and_only_that_entry():
    corrupt = {1: RewriteBehavior(entries={"root/b": lambda value: 12345})}
    result = _run(TWO, corrupt=corrupt)
    for pid in (2, 3, 4):
        root = result.instances[pid]
        assert root.bc["a"].regular_output == ("msg", 9) and root.bc["b"].regular_output == 12345


def test_blank_entry_is_no_input_to_that_broadcast_only():
    corrupt = {1: RewriteBehavior(entries={"root/a": lambda value: None})}
    result = _run(TWO, corrupt=corrupt)
    for pid in (2, 3, 4):
        root = result.instances[pid]
        assert root.bc["a"].regular_decided and root.bc["a"].output is None
        assert root.bc["b"].regular_output == "other"


LATE_0 = "root/bc@0[1]/late[0]"


def test_bundle_withheld_means_no_entry_and_its_late_acasts_are_never_read():
    """P_1 never sends its bundle but gives a a value on its first late carrier:
    delivered by that Acast, never looked at -- as with a withheld verdict vector."""
    def withhold_and_acast(tag, payload):
        late = Bundle(("sneaked", None), N)
        return [(LATE_0, ("init", late))] if payload[0] == "init" else []

    result = _run(TWO, corrupt={1: RewriteBehavior({r"root/bc@0\[1\]/acast": withhold_and_acast})},
                  wait_for_all=False, max_time=200.0)
    for pid in (2, 3, 4):
        root = result.instances[pid]
        assert root.party.instances[LATE_0].output.entries == ("sneaked", None)
        assert root.bc["a"].late_input == "sneaked"
        assert root.party.instances["root/bc@0[1]"].bundle is None
        assert all(bc.regular_decided and bc.output is None for bc in root.bc.values())


def test_late_acast_contradicting_a_present_entry_is_ignored():
    def also_acast(tag, payload):
        late = Bundle(("contradiction", None), N)
        extra = [(LATE_0, ("init", late))] if payload[0] == "init" else []
        return [(tag, payload)] + extra

    result = _run(TWO, corrupt={1: RewriteBehavior({r"root/bc@0\[1\]/acast": also_acast})},
                  wait_for_all=False, max_time=200.0)
    for pid in (2, 3, 4):
        root = result.instances[pid]
        assert root.bc["a"].late_input == "contradiction"
        assert root.bc["a"].output == root.bc["a"].regular_output == ("msg", 9)


def test_bundle_delivered_only_in_fallback_mode_hands_out_every_entry_then():
    bundle = CountedTags(lambda tag: tag == "root/bc@0[1]/acast")
    result = _run(TWO, corrupt={1: DelayBehavior(20.0, tag_predicate=bundle)},
                  wait_for_all=False, max_time=200.0)
    assert bundle.matches > 0
    for pid in (2, 3, 4):
        root = result.instances[pid]
        for name, (_, message) in TWO.items():
            bc = root.bc[name]
            assert bc.regular_decided and bc.regular_output is None
            assert bc.output == message


#: What a corrupt P_4 does to *all* the bundles it sends in a ΠVSS (as a
#: non-dealer, then as the dealer); the n = 4 cell's guarantees must hold.
EVERY_BUNDLE = r"prot/bc@\d+\[4\]/acast"


def _every_bundle(edit):
    return RewriteBehavior({EVERY_BUNDLE: acast_input(bundle_entries(edit))})


BUNDLE_ATTACKS = [
    pytest.param(_every_bundle(lambda e: e[:-1]), id="wrong-length"),
    pytest.param(RewriteBehavior({EVERY_BUNDLE: acast_input(lambda b: 7)}), id="not-a-tuple"),
    pytest.param(RewriteBehavior({EVERY_BUNDLE: acast_input(lambda b: b.entries)}),
                 id="plain-tuple"),
    pytest.param(_every_bundle(lambda e: tuple(7 for _ in e)), id="entries-of-the-wrong-type"),
    pytest.param(_every_bundle(lambda e: tuple([1] for _ in e)), id="unhashable-entries"),
    pytest.param(_every_bundle(lambda e: tuple(Bundle(e, 4) for _ in e)),
                 id="a-bundle-in-every-entry"),
    pytest.param(_every_bundle(lambda e: tuple((frozenset({1, 9}), frozenset({True})) for _ in e)),
                 id="id-sets-out-of-range"),
    pytest.param(RewriteBehavior({EVERY_BUNDLE: lambda tag, payload: []}), id="withheld"),
    pytest.param(DelayBehavior(20.0, tag_predicate=CountedTags(
        lambda tag: "/bc@" in tag and tag.endswith("[4]/acast"))), id="fallback-mode-only"),
    pytest.param(RewriteBehavior(entries={".*": lambda value: None}), id="every-entry-blank"),
]


@pytest.mark.parametrize("attack", BUNDLE_ATTACKS)
def test_vss_n4_guarantees_survive_what_a_corrupt_party_does_to_its_bundles(attack):
    poly = random_polynomial(1, 13, seed=61)
    result = run_dealer_protocol(VerifiableSecretSharing, n=4, ts=1, ta=0, dealer=1,
                                 polynomials=[poly], corrupt={4: attack})
    assert len(result.honest_outputs()) == 3
    assert shares_match_polynomials(result, [poly])
    assert max(result.honest_output_times().values()) <= vss_time_bound(4, 1, 1.0) + 1e-6
    result = run_dealer_protocol(VerifiableSecretSharing, n=4, ts=1, ta=0, dealer=4,
                                 polynomials=[poly], corrupt={4: attack}, max_time=2_000.0,
                                 wait_for_all_honest=False)
    assert honest_outputs_consistent(result, ts=1)
    counted = getattr(attack, "tag_predicate", None)
    assert not isinstance(counted, CountedTags) or counted.matches > 0


# -- a real clock gives timers due at one instant no order ------------------------------------------


def test_real_clock_vss_no_honest_bundle_misses_an_input_due_at_the_anchor():
    """Verdict and vote vectors are due at their anchors: whoever gives them
    does so from inside the carrier's anchor timer, so on a real clock too
    they are in the bundle (a star is due only if the dealer found one)."""
    poly = random_polynomial(1, 9, seed=52)
    backend = AsyncioBackend(4, network=SynchronousNetwork(), seed=6,
                             time_scale=0.004)
    result = backend.run(
        lambda party: VerifiableSecretSharing(
            party, "prot", dealer=1, ts=1, ta=0, num_polynomials=1,
            polynomials=[poly] if party.id == 1 else None),
        max_time=5_000.0,
    )
    assert len(result.honest_outputs()) == 4
    assert shares_match_polynomials(result, [poly])
    for pid, instance in result.instances.items():
        mine = [c for c in instance.party.instances.values()
                if type(c) is BroadcastCarrier and c.sender == pid]
        assert len(mine) == 5 + (pid == 1)
        sent = {e.tag: value for carrier in mine
                for e, value in zip(carrier.entries, carrier._acast.message.entries)}
        due = {tag: value for tag, value in sent.items() if not tag.endswith("/star")}
        # ok[pid] in the ΠVSS and its 4 ΠWPS, bc[pid] in wps_ba and ba.
        assert len(due) == 5 + 2 and None not in due.values(), sent
        # No input missed its bundle, so no ΠBC was ever given a late input (its
        # late carriers, if any, carry verdicts a real clock made late).
        assert not any(e.late_input is not None for c in instance.party.instances.values()
                       if type(c) is BroadcastCarrier for e in c.entries)


# -- the wire -------------------------------------------------------------------------------------------


def test_bundle_crosses_the_wire_without_pickle(monkeypatch):
    def no_pickle(*args, **kwargs):
        raise AssertionError("bundle took the pickle fallback")

    monkeypatch.setattr(pickle, "dumps", no_pickle)
    ok = ("OK",)
    bundle = Bundle((
        (None, ok, ("NOK", 2, FIELD(12345)), ok),           # a verdict vector with a NOK
        (None, None, None, None),                            # an empty one
        (1, None, 0, 1),                                     # a vote vector
        (frozenset({1, 2, 3}), frozenset({2, 3}), frozenset({1, 2, 3})),  # star
        PackedFieldVector.pack(FIELD, [FIELD(7), FIELD(8), FIELD(9)]),
        None,                                                # no input by the anchor
        None,
    ), 4)
    for tag, payload in (("mpc/bc@12004[2]/acast", ("echo", bundle)),
                         ("mpc/bc@12004/sba", (4, Bundle(((1, 0, None, 1),), 4)))):
        message = Message(2, 3, tag, payload, 12.004)
        decoded = decode_message(encode_message(message))
        assert decoded.payload == message.payload
        assert decoded.bits == message.bits
        assert hash(decoded.payload) == hash(message.payload)
        assert (decoded.sender, decoded.recipient, decoded.tag) == (2, 3, tag)


# -- one Fig 1 implementation ----------------------------------------------------------------------------


def test_phase_king_is_constructed_nowhere_in_src_but_broadcast_bc():
    """ΠBC's SBA is run by the carrier and by nothing else: a second Fig 1
    path (a per-instance Acast + SBA pair, say) would have to construct one."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    users = set()
    for path in src.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and any(
                isinstance(part, ast.Name) and part.id == "PhaseKingSBA"
                or isinstance(part, ast.Attribute) and part.attr == "PhaseKingSBA"
                for part in [node.func, *node.args, *(k.value for k in node.keywords)]
            ):
                users.add(str(path.relative_to(src)))
    assert users == {"broadcast/bc.py"}


@pytest.mark.parametrize("module", ["repro.ba", "repro.ba.sba", "repro.broadcast",
                                    "repro.broadcast.bc"])
def test_the_ba_and_broadcast_packages_import_in_either_order(module):
    """``repro.ba.sba`` imports ``repro.broadcast.acast`` (the bank's vectors are
    bundles) and ``repro.broadcast.bc`` imports ``repro.ba`` (its bank): each
    of the four, imported first in a fresh interpreter, must load."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", f"import {module}"], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr

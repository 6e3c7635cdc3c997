"""Late carriers are built on first use (``Party.deliver`` ->
``BroadcastCarrier.demand_child``): ``<carrier>/late[k]``, the k-th numbered
Acast of what a sender gives its ΠBCs of one instant after their bundle went
out -- a late ΠBC input, a sharing's late verdicts, a dealer's ``star2``.

The sender builds one with the input that needs it, a receiver with the first
message for it, in the activation that delivers that message.  Only the names
``late[k]`` with k below the carrier's width (n x its entries, fixed when it
froze), in plain decimal, build anything, so a peer can make a party allocate
no more than an honest sender could make it allocate.
"""

import re

import pytest

from repro.broadcast.acast import AcastProtocol, Bundle
from repro.broadcast.bc import BroadcastCarrier, carrier_tag
from repro.sharing.vss import VerifiableSecretSharing
from repro.sharing.wps import WeakPolynomialSharing
from repro.sim import AsynchronousNetwork, Simulator, SynchronousNetwork

from protocol_helpers import (
    RewriteBehavior,
    bundle_tag,
    random_polynomial,
    run_dealer_protocol,
    shares_match_polynomials,
)
from test_bc_carrier import N, T_BC, Broadcasts

OK = ("OK",)
LATE = re.compile(r"/late\[\d+\]$")
#: P_1's carrier of a root anchored at 0 with ΠBCs anchored at 0: width N x 1.
CARRIER = "root/bc@0[1]"


def _sharing(party, cls=WeakPolynomialSharing):
    return cls(party, "prot", dealer=1, ts=1, ta=0, num_polynomials=1, anchor=0.0)


# -- Fig 1's late sender ---------------------------------------------------------------------


def test_late_bc_input_builds_the_acast_at_the_sender_then_at_each_receiver_and_reads_bundle_first():
    sim = Simulator(N, network=SynchronousNetwork())
    roots = {pid: Broadcasts(party, "root", 1, {"a": (0.0, "on time"), "b": (0.0, None)})
             for pid, party in sim.parties.items()}
    delivered = {}
    for root in roots.values():
        root.start()
        root.bc["b"].on_delivery(lambda value, root=root: delivered.setdefault(root.me, root.now))
    sim.parties[1].schedule_at(4.0, lambda: roots[1].bc["b"].provide_input("late"))
    sim.run_until(max_time=4.0)
    # The input built it at the sender; nobody else has had a message for it yet.
    assert f"{CARRIER}/late[0]" in sim.parties[1].instances
    assert all(f"{CARRIER}/late[0]" not in sim.parties[pid].instances for pid in (2, 3, 4))
    sim.run_until(max_time=100.0)
    assert sim.metrics.messages_sent == 81 + 27
    for pid, root in roots.items():
        late = root.party.instances[f"{CARRIER}/late[0]"]
        assert type(late) is AcastProtocol and (late.sender, late.faults) == (1, 1)
        # Positional: a's slot is absent, b's holds the input.
        assert late.output == Bundle((None, "late"), N)
        # Acast's 3Δ from the input at 4Δ is before the bundle's regular-mode
        # delivery at T_BC: it is the bundle, with no entry for b, that lets it count.
        assert late.output_time == pytest.approx(7.0) and delivered[pid] == pytest.approx(T_BC)
        assert root.bc["b"].regular_output is None and root.bc["b"].output == "late"
        # An input that made the bundle never rides a late carrier.
        assert root.bc["a"].late_input is None
        assert not any(f"{CARRIER}/late[{k}]" in root.party.instances for k in range(1, 8))


# -- late verdicts and star2 where they are really used ------------------------------------------


#: n, t_s, t_a, seed -> messages, honest bits, late carriers at each party, late
#: verdicts delivered per party (the ΠVSS and its n ΠWPS), and at P_1, per ΠWPS,
#: how many of those.  Every (sender's carrier, instant) is one numbered Acast.
#: While each row and point was a message of its own the network drew other
#: delays: 1,944 / 236,925 and 3,608 / 447,008, with 30 and 36 carriers
#: carrying 56 and 82 late verdicts -- which verdicts went late, and every
#: output instant, those of the per-pair Acasts (one per verdict and per
#: star2: 3,549 / 547,041 and 7,672 / 1,204,972 at 27 and 44 messages each).
#: The output instants are still those.
ASYNC_VSS = [
    pytest.param(4, 1, 0, 41, 1_767, 216_513, 25, 55, {1: 9, 2: 11, 3: 12, 4: 11}, id="n4"),
    pytest.param(5, 1, 1, 42, 3_788, 474_232, 40, 95, {1: 10, 2: 15, 3: 18, 4: 16, 5: 16},
                 id="n5"),
]


@pytest.mark.parametrize("n,ts,ta,seed,messages,bits,carriers,late,per_wps", ASYNC_VSS)
def test_asynchronous_vss_on_the_late_carriers_outputs_what_the_per_pair_acasts_did(
    n, ts, ta, seed, messages, bits, carriers, late, per_wps
):
    """Every sharing decides 1 and outputs through ``star2``, most verdicts miss
    their vector: same late verdicts and instants, one Acast per carrier."""
    poly = random_polynomial(ts, 13, seed=40)
    result = run_dealer_protocol(VerifiableSecretSharing, n=n, ts=ts, ta=ta, dealer=1,
                                 polynomials=[poly], network=AsynchronousNetwork(max_delay=6.0),
                                 seed=seed, max_time=5_000.0, wait_for_all_honest=False)
    assert shares_match_polynomials(result, [poly])
    assert (result.metrics.messages_sent, result.metrics.honest_bits) == (messages, bits)
    everyone = (frozenset(range(1, n + 1)),) * 2
    for vss in result.instances.values():
        sharings = [vss, *vss._wps.values()]
        assert all(s._ba_output == 1 and s._star2 == everyone for s in sharings)
        assert sum(len(v) for s in sharings for v in s._late_verdicts.values()) == late
        assert sum(1 for tag in vss.party.instances if LATE.search(tag)) == carriers
        # The star2 hold: acted on at anchor + T + T_BC, not when the carrier delivered.
        assert vss.output_time == pytest.approx(90.03)
        assert all(wps.output_time == pytest.approx(51.016) for wps in vss._wps.values())
    first = result.instances[1]
    assert {j: sum(len(v) for v in wps._late_verdicts.values())
            for j, wps in first._wps.items()} == per_wps


# -- early and orphan messages ---------------------------------------------------------------


def test_message_before_the_parent_exists_or_has_started_is_buffered_then_handed_over():
    sim = Simulator(N, network=SynchronousNetwork())
    party = sim.parties[2]
    party.deliver(3, f"{CARRIER}/late[0]", ("echo", "x"))     # no carrier at all yet
    root = Broadcasts(party, "root", 1, {"a": (0.0, "m")})
    root.start()
    party.deliver(4, f"{CARRIER}/late[3]", ("echo", "x"))     # carrier built, not frozen
    assert party.load()[1] == 2
    assert not any(LATE.search(tag) for tag in party.instances)
    sim.run_until(max_time=0.0)  # the anchor timer freezes it; the replay follows
    first, last = (party.instances[f"{CARRIER}/late[{k}]"] for k in (0, 3))
    assert party.load()[1] == 0
    assert first._echo_counts == {"x": {3}} and last._echo_counts == {"x": {4}}


def test_retired_or_crashed_and_revived_parent_builds_nothing():
    sim = Simulator(N, network=SynchronousNetwork())
    party = sim.parties[2]
    Broadcasts(party, "root", 1, {"a": (0.0, "m")}).start()
    sim.run_until(max_time=0.0)
    party.retire(lambda tag: tag.startswith("root"))
    assert party.load() == (0, 0)
    party.deliver(3, f"{CARRIER}/late[0]", ("init", "x"))
    assert party.load() == (0, 1)
    party.retire(lambda tag: tag.startswith("root"))
    assert party.load() == (0, 0)

    Broadcasts(sim.parties[3], "root", 1, {"a": (0.0, "m")}).start()
    sim.run_until(max_time=0.0)
    sim.crash_party(3)
    revived = sim.revive_party(3)
    revived.deliver(1, f"{CARRIER}/late[0]", ("init", "x"))
    assert revived.load() == (0, 1)


# -- a peer chooses the tag: numbered, below the width, nothing else ---------------------------


@pytest.mark.parametrize("cls,anchor,entries", [
    pytest.param(WeakPolynomialSharing, 2.0, 1, id="wps-ok-carrier"),
    pytest.param(VerifiableSecretSharing, 3.0, N, id="vss-carrier-of-the-n-wps-vectors"),
])
def test_a_demand_builds_a_late_carrier_only_below_the_width(cls, anchor, entries):
    """P_1's carrier of its verdict vectors at ``anchor``: no late carrier before
    it froze, then exactly ``late[0..n * entries - 1]``, each once, P_1's Acasts."""
    sim = Simulator(N, network=SynchronousNetwork())
    sharing = _sharing(sim.parties[2], cls)
    sharing.start()
    carrier = sharing.party.instances[carrier_tag("prot", anchor, 1, 1.0)]
    assert type(carrier) is BroadcastCarrier and carrier.demand_child("late[0]") is None
    sim.run_until(max_time=anchor)
    assert carrier.position is not None and len(carrier.entries) == entries
    assert carrier.late_width == N * entries
    before = len(sharing.party.instances)
    for k in range(carrier.late_width):
        child = carrier.demand_child(f"late[{k}]")
        assert type(child) is AcastProtocol and child.tag == f"{carrier.tag}/late[{k}]"
        assert (child.sender, child.faults) == (1, 1)
    assert carrier.demand_child(f"late[{carrier.late_width}]") is None
    assert len(sharing.party.instances) == before + N * entries


BOGUS = ["late[01]", "late[-1]", "late[+1]", "late[ 1]", "late[1 ]", "late[١]", "late[1_0]",
         "late[0x1]", "late[1]x", "LATE[1]", "late[]", "late[1,2]", "late[99999]",
         "late[0]/acast", "late", "acast/x", "sba/x", ""]


@pytest.mark.parametrize("cls,n,ts,ta", [
    pytest.param(WeakPolynomialSharing, 4, 1, 0, id="wps-n4"),
    pytest.param(VerifiableSecretSharing, 5, 1, 1, id="vss-n5"),
])
def test_byzantine_child_names_build_nothing_and_raise_nothing(cls, n, ts, ta):
    """Corrupt P_n is honest but for a volley of Acast inits on names under its
    verdict carrier that no sender numbers -- the width itself included: every
    honest party holds the instances of the run without them, and outputs what
    it output."""
    anchor = cls.ok_anchor_at(0.0, n, ts, 1.0)
    carrier = carrier_tag("prot", anchor, n, 1.0)
    names = BOGUS + [f"late[{n}]"]  # the carrier has one entry: width n

    def volley(tag, payload):
        extra = [(f"{carrier}/{name}", ("init", OK)) for name in names] if payload[0] == "init" else []
        return [(tag, payload)] + extra

    poly = random_polynomial(ts, 14, seed=43)
    clean, attacked = (
        run_dealer_protocol(cls, n=n, ts=ts, ta=ta, dealer=1, polynomials=[poly], corrupt={
            n: RewriteBehavior({bundle_tag("prot", anchor, n): edit})})
        for edit in (lambda tag, payload: [(tag, payload)], volley)
    )
    assert attacked.metrics.messages_sent == clean.metrics.messages_sent + (n - 1) * len(names)
    assert shares_match_polynomials(attacked, [poly])
    assert attacked.honest_output_times() == clean.honest_output_times()
    for pid in clean.backend.honest_party_ids():
        party = attacked.instances[pid].party
        assert set(party.instances) == set(clean.instances[pid].party.instances)
        assert party.load()[1] == len(names)


def test_a_message_to_an_endpoint_tag_is_buffered_like_any_unbuilt_tag():
    """A logical ΠBC is a record of its carrier, not an instance, so nothing is
    registered at ``prot/ok[1]``: corrupt P_4's message there waits in the
    buffer like one for any tag never built, and changes no honest output."""
    anchor = WeakPolynomialSharing.ok_anchor_at(0.0, 4, 1, 1.0)

    def also_to_an_endpoint(tag, payload):
        extra = [("prot/ok[1]", ("init", OK))] if payload[0] == "init" else []
        return [(tag, payload)] + extra

    poly = random_polynomial(1, 15, seed=44)
    clean, attacked = (
        run_dealer_protocol(WeakPolynomialSharing, n=4, ts=1, ta=0, dealer=1, polynomials=[poly],
                            corrupt={4: RewriteBehavior({bundle_tag("prot", anchor, 4): edit})})
        for edit in (lambda tag, payload: [(tag, payload)], also_to_an_endpoint)
    )
    assert attacked.metrics.messages_sent == clean.metrics.messages_sent + 3
    assert attacked.honest_outputs() == clean.honest_outputs()
    assert attacked.honest_output_times() == clean.honest_output_times()
    for pid in clean.backend.honest_party_ids():
        party = attacked.instances[pid].party
        assert "prot/ok[1]" not in party.instances and party.load()[1] == 1


def test_flood_of_distinct_bogus_child_tags_allocates_no_instance():
    sim = Simulator(N, network=SynchronousNetwork())
    roots = {pid: Broadcasts(party, "root", 1, {"a": (0.0, "m")})
             for pid, party in sim.parties.items()}
    for root in roots.values():
        root.start()
    sim.run_until(max_time=0.0)
    party = sim.parties[2]
    before = len(party.instances)
    for k in range(2_000):
        for tag in (f"{CARRIER}/late[{k + N}]", f"{CARRIER}/late[{k}]/acast", f"{CARRIER}/{k}",
                    f"root/a/late[{k}]", f"root/bc@0[2]/late[{k}]", f"nobody/{k}"):
            party.deliver(4, tag, ("init", k))
    assert len(party.instances) == before
    # ... and the valid names at most the width: n per entry of the carrier.
    for k in range(N):
        for sender in (3, 4):
            party.deliver(sender, f"{CARRIER}/late[{k}]", ("echo", "x"))
    assert len(party.instances) == before + N

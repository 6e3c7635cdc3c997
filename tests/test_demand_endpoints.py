"""Late-path endpoints are built on first use (``Party.deliver`` ->
``ProtocolInstance.demand_child``): a ΠBC's late-input Acast ``<bc>/acast``,
and a sharing's per-pair late verdicts ``ok[i,j]`` and ``star2``.

The sender builds the endpoint with the input that needs it, a receiver with
the first message for it, in the activation that delivers that message; what
is built is exactly what used to be built up front, so a peer can make a party
allocate no more than every party used to pay, and every instant is as it was.
"""

import pytest

from repro.broadcast.acast import AcastProtocol
from repro.sharing.vss import VerifiableSecretSharing
from repro.sharing.wps import WeakPolynomialSharing, late_verdict_names
from repro.sim import AsynchronousNetwork, ProtocolRunner, SynchronousNetwork

from protocol_helpers import (
    RewriteBehavior,
    bundle_tag,
    random_polynomial,
    run_dealer_protocol,
    shares_match_polynomials,
)
from test_bc_carrier import N, T_BC, Broadcasts

OK = ("OK",)


def _sharing(party, cls=WeakPolynomialSharing):
    return cls(party, "prot", dealer=1, ts=1, ta=0, num_polynomials=1, anchor=0.0)


# -- Fig 1's late sender ---------------------------------------------------------------------


def test_late_bc_input_builds_the_acast_at_the_sender_then_at_each_receiver_and_reads_bundle_first():
    runner = ProtocolRunner(N, network=SynchronousNetwork())
    roots = {pid: Broadcasts(party, "root", 1, {"a": (0.0, "on time"), "b": (0.0, None)})
             for pid, party in runner.parties.items()}
    delivered = {}
    for root in roots.values():
        root.start()
        root.bc["b"].on_delivery(lambda value, root=root: delivered.setdefault(root.me, root.now))
    assert all(bc._late is None for root in roots.values() for bc in root.bc.values())
    runner.parties[1].schedule_at(4.0, lambda: roots[1].bc["b"].provide_input("late"))
    runner.simulator.run(max_time=4.0)
    # The input built it at the sender; nobody else has had a message for it yet.
    assert roots[1].bc["b"]._late is runner.parties[1].instances["root/b/acast"]
    assert all("root/b/acast" not in runner.parties[pid].instances for pid in (2, 3, 4))
    runner.simulator.run(max_time=100.0)
    assert runner.simulator.metrics.messages_sent == 81 + 27
    for pid, root in roots.items():
        late = root.party.instances["root/b/acast"]
        assert type(late) is AcastProtocol and late is root.bc["b"]._late
        assert (late.sender, late.faults, late.output) == (1, 1, "late")
        # Acast's 3Δ from the input at 4Δ is before the bundle's regular-mode
        # delivery at T_BC: it is the bundle, with no entry for b, that lets it count.
        assert late.output_time == pytest.approx(7.0) and delivered[pid] == pytest.approx(T_BC)
        assert root.bc["b"].regular_output is None and root.bc["b"].output == "late"
        # An input that made the bundle never gets an Acast of its own.
        assert root.bc["a"]._late is None and "root/a/acast" not in root.party.instances


# -- late verdicts and star2 where they are really used ------------------------------------------


#: n, t_s, t_a, seed -> recorded at the parent commit (every endpoint built up front):
#: messages, honest bits, late ok[i,j] delivered per party (the ΠVSS and its n ΠWPS),
#: and at P_1, per ΠWPS, how many of those and when its star2 was delivered.  The two
#: counts are since the ΠABA carriers (the n ``wps_ba`` slots share their vectors; they were
#: 3,804 / 634,284 and 8,184 / 1,392,568 with one message per slot), and with fewer messages
#: the seeded network draws other delays, so the star2 instants were re-recorded with them;
#: which verdicts go late, and how many, is as it was.  The bits are since a bundle is
#: priced as bitmaps (``repro.broadcast.bc.Bundle``; 588,921 and 1,315,560 as plain tuples --
#: little moves here because most verdicts ride the late Acasts, which are not bundles).
ASYNC_VSS = [
    pytest.param(4, 1, 0, 41, 3_549, 547_041, 56,
                 {1: (9, 35.730048), 2: (11, 38.070012), 3: (12, 37.40721), 4: (12, 38.412715)},
                 73.947846, id="n4"),
    pytest.param(5, 1, 1, 42, 7_672, 1_204_972, 82,
                 {1: (11, 36.484646), 2: (9, 37.260112), 3: (18, 40.885292), 4: (8, 37.189092),
                  5: (16, 37.517356)},
                 79.399489, id="n5"),
]


@pytest.mark.parametrize("n,ts,ta,seed,messages,bits,late,per_wps,star2_at", ASYNC_VSS)
def test_asynchronous_vss_on_the_late_paths_is_the_run_it_was_with_eager_endpoints(
    n, ts, ta, seed, messages, bits, late, per_wps, star2_at
):
    """Every sharing decides 1 and outputs through ``star2``, most verdicts miss
    their vector: same messages, bits, deliveries and instants as at the parent."""
    poly = random_polynomial(ts, 13, seed=40)
    result = run_dealer_protocol(VerifiableSecretSharing, n=n, ts=ts, ta=ta, dealer=1,
                                 polynomials=[poly], network=AsynchronousNetwork(max_delay=6.0),
                                 seed=seed, max_time=5_000.0, wait_for_all_honest=False)
    assert shares_match_polynomials(result, [poly])
    assert (result.metrics.messages_sent, result.metrics.honest_bits) == (messages, bits)
    everyone = (frozenset(range(1, n + 1)),) * 2
    for vss in result.instances.values():
        sharings = [vss, *vss._wps.values()]
        assert all(s._ba_output == 1 and s._star2.output == everyone for s in sharings)
        assert sum(e.has_output for s in sharings for e in s._late_ok.values()) == late
        # The star2 hold: acted on at anchor + T + T_BC, not when the Acast delivered.
        assert vss.output_time == pytest.approx(90.03)
        assert all(wps.output_time == pytest.approx(51.016) for wps in vss._wps.values())
    first = result.instances[1]
    assert sorted(p for p, e in first._late_ok.items() if e.has_output) == sorted(
        late_verdict_names(n).values())
    assert first._star2.output_time == pytest.approx(star2_at)
    assert {j: (sum(e.has_output for e in wps._late_ok.values()),
                pytest.approx(wps._star2.output_time))
            for j, wps in first._wps.items()} == per_wps


# -- early and orphan messages ---------------------------------------------------------------


def test_message_before_the_parent_exists_or_has_started_is_buffered_then_handed_over():
    runner = ProtocolRunner(N, network=SynchronousNetwork())
    party = runner.parties[2]
    party.deliver(3, "prot/ok[3,1]", ("init", OK))           # no parent at all yet
    sharing = _sharing(party)
    party.deliver(1, "prot/star2", ("init", (5, 7)))         # parent built, not started
    party.deliver(3, "prot/ok[3]/acast", ("init", "late vector"))
    assert party.load() == (1, 3)
    sharing.start()
    late, star2, vector = (party.instances[f"prot/{name}"]
                           for name in ("ok[3,1]", "star2", "ok[3]/acast"))
    assert sharing._late_ok == {(3, 1): late} and sharing._star2 is star2
    assert sharing._ok_bc[3]._late is vector
    assert party.load()[1] == 0 and not (late._echoed or star2._echoed or vector._echoed)
    runner.simulator.run(max_time=0.0)                      # the replay, as on any registration
    assert late._echoed and star2._echoed and vector._echoed


def test_retired_or_crashed_and_revived_parent_builds_nothing():
    runner = ProtocolRunner(N, network=SynchronousNetwork())
    party = runner.parties[2]
    _sharing(party).start()
    party.retire(lambda tag: tag.startswith("prot"))
    assert party.load() == (0, 0)
    party.deliver(3, "prot/ok[3,1]", ("init", OK))
    party.deliver(3, "prot/ok[3]/acast", ("init", "late vector"))
    assert party.load() == (0, 2)
    party.retire(lambda tag: tag.startswith("prot"))
    assert party.load() == (0, 0)

    _sharing(runner.parties[3]).start()
    runner.simulator.crash_party(3)
    revived = runner.simulator.revive_party(3)
    revived.deliver(2, "prot/ok[2,1]", ("init", OK))
    assert revived.load() == (0, 1)


# -- a peer chooses the tag: same tags, no more of them ----------------------------------------


@pytest.mark.parametrize("cls", [WeakPolynomialSharing, VerifiableSecretSharing])
def test_a_demand_builds_exactly_the_endpoint_the_eager_code_built(cls):
    runner = ProtocolRunner(N, network=SynchronousNetwork())
    sharing = _sharing(runner.parties[2], cls)
    assert sharing.demand_child("ok[1,2]") is None and sharing.demand_child("star2") is None
    sharing.start()
    before = len(sharing.party.instances)
    for name, (i, j) in late_verdict_names(N).items():
        child = sharing.demand_child(name)
        assert type(child) is AcastProtocol and child.tag == f"prot/{name}" == f"prot/ok[{i},{j}]"
        assert (child.sender, child.faults) == (i, 1) and sharing.demand_child(name) is child
    star2 = sharing.demand_child("star2")
    assert (star2.tag, star2.sender, star2.faults) == ("prot/star2", 1, 1)
    assert len(sharing.party.instances) == before + N * (N - 1) + 1


BOGUS = ["ok[01,2]", "ok[1,1]", "ok[9,1]", "ok[0,1]", "ok[1,2] ", "ok[1, 2]", "ok[+1,2]",
         "ok[١,2]", "ok[1,2]x", "OK[1,2]", "ok[1,]", "ok[1,2,3]", "acast/x", "star2/y",
         "ok[1,2]/acast", "star/acast/acast", "star22", "acast", ""]


@pytest.mark.parametrize("cls,n,ts,ta", [
    pytest.param(WeakPolynomialSharing, 4, 1, 0, id="wps-n4"),
    pytest.param(VerifiableSecretSharing, 5, 1, 1, id="vss-n5"),
])
def test_byzantine_child_names_build_nothing_and_raise_nothing(cls, n, ts, ta):
    """Corrupt P_n is honest but for a volley of Acast inits on child names no
    sharing ever builds: every honest party holds the instances of the run
    without them, and outputs what it output."""
    def volley(tag, payload):
        extra = [(f"prot/{name}", ("init", OK)) for name in BOGUS] if payload[0] == "init" else []
        return [(tag, payload)] + extra

    poly = random_polynomial(ts, 14, seed=43)
    anchor = cls.ok_anchor_at(0.0, n, ts, 1.0)
    clean, attacked = (
        run_dealer_protocol(cls, n=n, ts=ts, ta=ta, dealer=1, polynomials=[poly], corrupt={
            n: RewriteBehavior({bundle_tag("prot", anchor, n): edit})})
        for edit in (lambda tag, payload: [(tag, payload)], volley)
    )
    assert attacked.metrics.messages_sent == clean.metrics.messages_sent + (n - 1) * len(BOGUS)
    assert shares_match_polynomials(attacked, [poly])
    assert attacked.honest_output_times() == clean.honest_output_times()
    for pid in clean.backend.honest_party_ids():
        party = attacked.instances[pid].party
        assert set(party.instances) == set(clean.instances[pid].party.instances)
        assert party.load()[1] == len(BOGUS)


def test_flood_of_distinct_bogus_child_tags_allocates_no_instance():
    runner = ProtocolRunner(N, network=SynchronousNetwork())
    roots = {pid: Broadcasts(party, "root", 1, {"a": (0.0, "m")})
             for pid, party in runner.parties.items()}
    sharings = {pid: _sharing(party) for pid, party in runner.parties.items()}
    for instance in (*roots.values(), *sharings.values()):
        instance.start()
    party = runner.parties[2]
    before = len(party.instances)
    for k in range(2_000):
        for tag in (f"prot/ok[{k + N + 1},1]", f"prot/ok[1,{k + N + 1}]", f"prot/star2/{k}",
                    f"root/a/acast{k}", f"root/a/{k}", f"root/bc@0[1]/acast/{k}", f"nobody/{k}"):
            party.deliver(4, tag, ("init", k))
    assert len(party.instances) == before
    # ... and the valid names at most what every party used to build up front.
    for name in (*late_verdict_names(N), "star2", "ok[1]/acast", "star/acast"):
        for sender in (3, 4):
            party.deliver(sender, f"prot/{name}", ("echo", "x"))
    assert len(party.instances) == before + N * (N - 1) + 1 + 2

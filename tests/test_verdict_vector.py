"""Phase III of ΠWPS / ΠVSS as built: one verdict-vector ΠBC per party.

P_i publishes the OK/NOK verdicts it has by the ok anchor as one ΠBC
``ok[i]`` and any later verdict as slot j of its entry of a late carrier
``<carrier>/late[k]``; receivers take vector entries first
(``repro.sharing.wps`` module docstring).  These tests pin the
instance/message counts that follow and the four properties the reduction
to the per-pair protocol rests on.
"""

import pickle
import re

import pytest

from repro.broadcast.acast import AcastProtocol, Bundle
from repro.broadcast.bc import BroadcastCarrier, BroadcastProtocol, bc_time_bound
from repro.runtime.wire import decode_message, encode_message
from repro.sharing.vss import VerifiableSecretSharing, vss_time_bound
from repro.sharing.wps import BivariateSharingMixin, WeakPolynomialSharing, wps_time_bound
from repro.sim import AsynchronousNetwork, DelayBehavior
from repro.sim.messages import Message
from repro.sim.simulator import Simulator

from protocol_helpers import (
    FIELD,
    CountedTags,
    RewriteBehavior,
    bundle_tag,
    late_tag,
    random_polynomial,
    run_dealer_protocol,
    shares_match_polynomials,
)

OK = ("OK",)
#: The late carriers, which carry a sharing's late verdicts and its (E', F').
LATE_TAG = re.compile(r"/late\[\d+\]$")

#: (protocol, n, ts, ta); P_n is the corrupt party wherever one is needed.
CELLS = [
    pytest.param(WeakPolynomialSharing, 4, 1, 0, id="wps-n4"),
    pytest.param(WeakPolynomialSharing, 5, 1, 1, id="wps-n5"),
    pytest.param(VerifiableSecretSharing, 4, 1, 0, id="vss-n4"),
    pytest.param(VerifiableSecretSharing, 5, 1, 1, id="vss-n5"),
]


def _time_bound(cls, n, ts):
    bound = wps_time_bound if cls is WeakPolynomialSharing else vss_time_bound
    return bound(n, ts, 1.0)


def _honest(result):
    return [result.instances[pid] for pid in result.backend.honest_party_ids()]


# -- count guards ------------------------------------------------------------------------


@pytest.mark.parametrize("cls,n,ts,ta", CELLS)
def test_bc_endpoints_per_sharing_and_no_late_message_in_honest_synchrony(
    cls, n, ts, ta, monkeypatch
):
    """n + 1 ΠBCs per sharing (n vectors, star); late verdicts and star2 ride
    late carriers built on first use, so in an honest synchronous run not one
    exists (stronger than "none carried a message")."""
    tags = []
    submit = Simulator.submit_message
    monkeypatch.setattr(
        Simulator, "submit_message",
        lambda sim, sender, recipient, tag, payload: (
            tags.append(tag), submit(sim, sender, recipient, tag, payload))[1],
    )
    poly = random_polynomial(ts, 5, seed=31)
    result = run_dealer_protocol(cls, n=n, ts=ts, ta=ta, dealer=1, polynomials=[poly])
    assert shares_match_polynomials(result, [poly])
    sharings = 1 if cls is WeakPolynomialSharing else n + 1
    for instance in result.instances.values():
        children = [
            e for tag, e in instance.party.instances.items()
            if isinstance(instance.party.instances.get(tag.rpartition("/")[0]),
                          BivariateSharingMixin)
        ]
        broadcasts = [bc for e in instance.party.instances.values()
                      if isinstance(e, BivariateSharingMixin)
                      for bc in (*e._ok_bc.values(), e._star_bc)]
        assert len(broadcasts) == sharings * (n + 1)
        assert all(type(bc) is BroadcastProtocol for bc in broadcasts)
        assert not any(type(e) is AcastProtocol for e in children)
        assert not any(LATE_TAG.search(tag) for tag in instance.party.instances)
        assert not any(instance._late_verdicts.values()) and instance._star2 is None
    assert tags and not any(LATE_TAG.search(tag) for tag in tags)


def test_vss_n4_transcript_size_is_pinned():
    """Was 7,404 messages / 1,397,958 honest bits with one ΠBC per ordered pair,
    4,164 / 1,015,578 with one vote ΠBC per (ΠBA, voter) and 2,976 / 872,514 with
    one run of Fig 1 per vector (33 per party); now a 27-message Acast per
    carrier, 21 of them: 4 senders x (ΠWPS ok, ΠWPS star, ``wps_ba``, ΠVSS ok, ``ba``) + the
    one dealer's ΠVSS star, and one 54-message phase-king bank per anchor
    instant, 6 of them (slot s 0 where sender s has no carrier there).  The
    rest was 303 (2,004 / 757,314 in all) while the five ΠABA slots sent 13
    messages each per party; the four of ``wps_ba`` now share their vectors
    (``repro.ba.aba``).  736,578 bits while a bundle was a plain tuple;
    priced as bitmaps (``repro.broadcast.acast.Bundle``) the 21 bundles are
    2% of the total, and so are the 96 ΠABA vectors since they are priced on
    the vote line (29,184 bits at 64 a slot, now 14,304).  The banks' 324
    phase-king messages cost 136 bits each (a 64-bit header, a 64-bit round
    and 4 votes at 2 bits); 55,674 bits in all while they carried bundles.
    The 63 row and point messages of the five sharings ride the root's post
    ``prot/post``: 39 messages, one per sender, peer and instant (the
    dealer's at 0, 1e-9 and 2e-9, the others' at Δ and Δ + 1e-9, everyone's
    at 2Δ), 24 headers and "points" names fewer and 132 absent slots at a
    bit each more."""
    poly = random_polynomial(1, 6, seed=32)
    result = run_dealer_protocol(VerifiableSecretSharing, n=4, ts=1, ta=0, dealer=1,
                                 polynomials=[poly])
    assert result.metrics.messages_sent == 1_026 == 27 * 21 + 54 * 6 + 96 + 39
    assert result.metrics.messages_sent == 1_050 - 63 + 39
    assert result.metrics.honest_bits == 130_974 == (
        133_530 - 24 * (64 + 8 * len("points")) + 132)
    carriers = [e for e in result.instances[1].party.instances.values()
                if type(e) is BroadcastCarrier]
    assert len(carriers) == 21 and sum(len(c.entries) for c in carriers) == 33


# -- corrupt P_n against the vector-first rule --------------------------------------------


@pytest.mark.parametrize("cls,n,ts,ta", CELLS)
def test_vector_entry_beats_a_conflicting_late_acast(cls, n, ts, ta):
    """Corrupt P_n says OK for P_1 in its vector and gives a NOK for P_1 on its
    first late carrier: every honest party records the vector's entry, as with
    two inputs to one ΠBC."""
    nok = ("NOK", 0, FIELD(99))
    anchor = cls.ok_anchor_at(0.0, n, ts, 1.0)

    def also_acast_a_nok(tag, payload):
        late = Bundle(((nok,) + (None,) * (n - 1),), n)  # ok[n] is the carrier's one entry
        extra = [(late_tag("prot", anchor, n, 0), ("init", late))] if payload[0] == "init" else []
        return [(tag, payload)] + extra

    corrupt = {n: RewriteBehavior({bundle_tag("prot", anchor, n): also_acast_a_nok})}
    poly = random_polynomial(ts, 8, seed=33)
    result = run_dealer_protocol(cls, n=n, ts=ts, ta=ta, dealer=1, polynomials=[poly],
                                 corrupt=corrupt)
    assert len(result.honest_outputs()) == n - 1
    assert shares_match_polynomials(result, [poly])
    for instance in _honest(result):
        assert instance._late_verdicts[n] == {1: nok}
        assert instance._verdicts[(n, 1)] == OK
        assert instance.graph.has_edge(n, 1)


@pytest.mark.parametrize("cls,n,ts,ta", CELLS)
def test_withheld_vector_means_no_verdicts_at_all(cls, n, ts, ta):
    """Corrupt P_n never sends the bundle ok[n] rides (a tag-level drop on the
    carrier: no entry of a withheld bundle exists) but gives an OK for everyone
    on a late carrier: it is delivered and never looked at, P_n has no edge
    anywhere, and the honest dealer's sharing still completes within the
    time bound."""
    anchor = cls.ok_anchor_at(0.0, n, ts, 1.0)

    def acasts_only(tag, payload):
        late = Bundle(((OK,) * (n - 1) + (None,),), n)
        return [(late_tag("prot", anchor, n, 0), ("init", late))] if payload[0] == "init" else []

    corrupt = {n: RewriteBehavior({bundle_tag("prot", anchor, n): acasts_only})}
    poly = random_polynomial(ts, 9, seed=34)
    result = run_dealer_protocol(cls, n=n, ts=ts, ta=ta, dealer=1, polynomials=[poly],
                                 corrupt=corrupt)
    assert len(result.honest_outputs()) == n - 1
    assert shares_match_polynomials(result, [poly])
    assert max(result.honest_output_times().values()) <= _time_bound(cls, n, ts) + 1e-6
    for instance in _honest(result):
        assert instance._late_verdicts[n] == {j: OK for j in range(1, n)}
        assert not any(i == n for i, _ in instance._verdicts)
        assert instance.graph.degree(n) == 0


# -- late verdicts ---------------------------------------------------------------------------


@pytest.mark.parametrize("cls,n,ts,ta", CELLS[:2])
def test_late_verdict_in_synchrony_travels_by_acast(cls, n, ts, ta):
    """Corrupt P_n's points arrive 5Δ late: the honest verdicts on P_n miss the
    vectors, go out as slot n of P_i's late carrier, are in no regular-mode
    snapshot and in every honest graph afterwards."""
    points = CountedTags(lambda tag: tag == "prot/post")
    poly = random_polynomial(ts, 10, seed=35)
    result = run_dealer_protocol(cls, n=n, ts=ts, ta=ta, dealer=1, polynomials=[poly],
                                 corrupt={n: DelayBehavior(5.0, tag_predicate=points)})
    assert points.matches > 0
    assert len(result.honest_outputs()) == n - 1
    assert shares_match_polynomials(result, [poly])
    for instance in _honest(result):
        for i in range(1, n):
            assert instance._ok_bc[i].output_via_regular_mode()[n - 1] is None
            assert instance._late_verdicts[i][n] == OK
            assert instance._verdicts[(i, n)] == OK
            assert not instance._snapshot_graph.has_edge(i, n)
            assert instance.graph.has_edge(i, n)


@pytest.mark.parametrize("cls,n,ts,ta", [CELLS[1], CELLS[3]])
def test_asynchronous_network_honest_dealer_every_pair_becomes_an_edge(cls, n, ts, ta):
    """Vectors may go out empty; vector entries and late carriers together still
    make every honest pair an edge at every party, and everyone outputs."""
    poly = random_polynomial(ts, 11, seed=36)
    result = run_dealer_protocol(cls, n=n, ts=ts, ta=ta, dealer=1, polynomials=[poly],
                                 network=AsynchronousNetwork(max_delay=6.0), seed=37,
                                 max_time=5_000.0, wait_for_all_honest=False)
    assert len(result.honest_outputs()) == n
    assert shares_match_polynomials(result, [poly])
    for instance in result.instances.values():
        assert len(instance._vectors_seen) == n
        assert len(instance.graph.edges()) == n * (n - 1) // 2
        assert any(instance._late_verdicts.values())


# -- star2 inside a ΠVSS ---------------------------------------------------------------------


@pytest.mark.parametrize("n,ts,ta", [(4, 1, 0), (5, 1, 1)])
def test_star2_path_wps_inside_a_vss_outputs_after_the_ok_anchor_everywhere(n, ts, ta):
    """P_n withholds the (W, E, F) of its own ΠWPS and is honest otherwise, so
    ``wps[n]`` decides 1 and takes the ``star2`` path inside P_1's ΠVSS.  The
    dealer's late carrier delivers (E', F') 3Δ after it is sent, well before the
    ΠBC it replaced would have; it is acted on at that ΠBC's regular-mode time
    all the same, so ``wps[n]`` outputs at one instant at every honest party,
    after the ΠVSS's ok anchor: every honest verdict on P_n misses the vectors
    and travels late everywhere -- no verdict rides the vector at one honest
    party and a late carrier at another."""
    corrupt = {n: RewriteBehavior(entries={rf"prot/wps\[{n}\]/star": lambda value: None})}
    poly = random_polynomial(ts, 12, seed=38)
    result = run_dealer_protocol(VerifiableSecretSharing, n=n, ts=ts, ta=ta, dealer=1,
                                 polynomials=[poly], corrupt=corrupt)
    assert len(result.honest_outputs()) == n - 1
    assert shares_match_polynomials(result, [poly])
    t_bc = bc_time_bound(n, ts, 1.0)
    ok_anchor = VerifiableSecretSharing.ok_anchor_at(0.0, n, ts, 1.0)
    for vss in _honest(result):
        wps = vss._wps[n]
        assert wps._ba_output == 1 and wps.accepted_star is None and wps._star2 is not None
        star2 = vss.party.instances[wps._star_bc._carrier.tag + "/late[0]"]
        assert star2.output_time < ok_anchor
        assert wps.output_time == pytest.approx(ok_anchor + t_bc)
        for i in range(1, n):
            assert vss._ok_bc[i].output_via_regular_mode()[n - 1] is None
            assert vss._late_verdicts[i][n] == OK
            assert vss._verdicts[(i, n)] == OK


# -- the wire ----------------------------------------------------------------------------------


def test_verdict_vector_crosses_the_wire_without_pickle(monkeypatch):
    def no_pickle(*args, **kwargs):
        raise AssertionError("verdict vector took the pickle fallback")

    monkeypatch.setattr(pickle, "dumps", no_pickle)
    vector = (None, OK, ("NOK", 2, FIELD(12345)), OK)
    message = Message(2, 3, "prot/bc@42014[2]/acast", ("init", vector), 42.014)
    decoded = decode_message(encode_message(message))
    assert decoded.payload == message.payload
    assert decoded.bits == message.bits
    assert (decoded.sender, decoded.recipient, decoded.tag) == (2, 3, "prot/bc@42014[2]/acast")

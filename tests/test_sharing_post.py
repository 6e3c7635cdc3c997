"""The sharing post (``repro.sharing.wps.SharingPost``): the rows and points
every ΠWPS/ΠVSS under one root owes one peer at one instant leave as one
message, and one total parser reads what a peer sends there."""

import pytest

from repro.broadcast.acast import Bundle
from repro.sharing.vss import VerifiableSecretSharing
from repro.sharing.wps import SharingPost, WeakPolynomialSharing
from repro.sim import Simulator, SynchronousNetwork
from repro.sim.simulator import SimulationMetrics

from protocol_helpers import (
    FIELD,
    RewriteBehavior,
    random_polynomial,
    run_dealer_protocol,
    shares_match_polynomials,
)

POLY = random_polynomial(1, 23, seed=50)


def _vss(corrupt=None):
    return run_dealer_protocol(VerifiableSecretSharing, n=4, ts=1, ta=0, dealer=1,
                               polynomials=[POLY], corrupt=corrupt or {}, seed=4)


def _state(result):
    """What P_1..P_3 hold: outputs, every sharing's verdicts, rows and the peers
    whose points it has."""
    state = {}
    for pid, vss in _honest(result):
        sharings = [vss, *vss._wps.values()]
        state[pid] = (vss.output, [(s._verdicts, s.my_rows) for s in sharings],
                      [sorted(w.received_points) for w in vss._wps.values()])
    return state


def _honest(result):
    return [(pid, instance) for pid, instance in result.instances.items() if pid != 4]


def _forging(payload_of):
    return {4: RewriteBehavior({r"prot/post": lambda tag, payload: [(tag, payload_of(payload))]})}


def test_a_vss_has_one_post_of_its_five_sharings_in_tag_order():
    result = _vss()
    for vss in result.instances.values():
        post = vss.party.instances["prot/post"]
        assert type(post) is SharingPost and vss._post is post
        assert [s.tag for s in post.entries] == [
            "prot", "prot/wps[1]", "prot/wps[2]", "prot/wps[3]", "prot/wps[4]"]
    assert shares_match_polynomials(result, [POLY])


@pytest.mark.parametrize("payload_of", [
    pytest.param(lambda payload: 7, id="not-a-tuple"),
    pytest.param(lambda payload: tuple((k, v[:-1]) for k, v in payload), id="too-narrow"),
    pytest.param(lambda payload: tuple((k, v + (None,)) for k, v in payload), id="too-wide"),
    pytest.param(lambda payload: tuple((k.encode(), v) for k, v in payload), id="bytes-kind"),
    pytest.param(lambda payload: tuple((1, v) for k, v in payload), id="int-kind"),
    pytest.param(lambda payload: tuple([k, v] for k, v in payload), id="list-line"),
    pytest.param(lambda payload: tuple(Bundle((k, v), 4) for k, v in payload), id="bundle-line"),
    pytest.param(lambda payload: tuple((k, list(v)) for k, v in payload), id="list-vector"),
    pytest.param(lambda payload: tuple((k, v, None) for k, v in payload), id="three-part-line"),
    pytest.param(lambda payload: payload + ("points",), id="a-stray-str"),
    pytest.param(lambda payload: tuple((k, v * 20_000) for k, v in payload), id="huge-width"),
])
def test_a_malformed_post_message_is_nothing_sent_in_any_slot(payload_of):
    """Whatever P_4 sends on the post that is not a tuple of ``(str, tuple of
    width 5)`` lines reaches no sharing: the honest parties end exactly as if
    P_4 had sent nothing there (its rows as dealer of ``wps[4]`` and its points
    included), and the dealer's sharing still completes."""
    withheld = _vss({4: RewriteBehavior({r"prot/post": lambda tag, payload: []})})
    forged = _vss(_forging(payload_of))
    assert _state(forged) == _state(withheld)
    assert shares_match_polynomials(forged, [POLY])
    for _, vss in _honest(forged):
        assert vss._wps[4].my_rows is None
        assert all(4 not in wps.received_points for wps in vss._wps.values())


def test_points_that_are_not_a_sequence_are_dropped_by_the_sharing():
    """A well-formed post message whose ``points`` entries are ints: each
    sharing's own L-points check drops them (``len`` of an int used to raise
    inside the handler), as if P_4 had sent no points at all."""
    def ints_for_points(payload):
        return tuple((kind, tuple(7 if kind == "points" and value is not None else value
                                  for value in vector)) for kind, vector in payload)

    no_points = _vss({4: RewriteBehavior(posts={".*": lambda kind, value:
                                                None if kind == "points" else value})})
    assert _state(_vss(_forging(ints_for_points))) == _state(no_points)


@pytest.mark.parametrize("payload", [7, (), ("points",), ("points", [FIELD(0)], None)],
                         ids=["int", "empty", "kind-only", "three-parts"])
def test_a_malformed_message_on_a_sharings_own_tag_is_nothing(payload):
    """P_4 also sends a payload that is not ``(kind, value)`` straight to the
    sharing's tag, where only self-sends come from honest code: the sharing's
    ``receive`` drops it (it used to index into it and raise)."""
    extra = {4: RewriteBehavior({r"prot/post": lambda tag, post: [(tag, post), ("prot", payload)]})}
    assert _state(_vss(extra)) == _state(_vss())


def test_a_well_formed_post_message_reaches_every_slot_it_fills():
    """The same P_4 behind an identity rewrite is the honest run."""
    assert _state(_vss(_forging(lambda payload: payload))) == _state(_vss())


def _lone_wps(deliver_early=None):
    """A lone ΠWPS ``prot`` (dealer P_1, width 1); ``deliver_early(party)`` runs
    as each honest party builds it, before its post froze.  P_4 is corrupt but
    runs the honest code."""
    sim = Simulator(4, network=SynchronousNetwork(), seed=0, corrupt={4: RewriteBehavior()})

    def factory(party):
        wps = WeakPolynomialSharing(party, "prot", dealer=1, ts=1, ta=0, num_polynomials=1,
                                    polynomials=[POLY] if party.id == 1 else None, anchor=0.0)
        if deliver_early is not None and party.id != 4:
            deliver_early(party)
        return wps

    return sim.run(factory, max_time=5_000.0)


def test_a_message_before_the_freeze_is_held_and_handed_over_at_it():
    """P_4's points reach the honest parties before their posts froze (a
    peer's clock ahead): held, then handed to the sharing at the freeze, where
    they are first -- so P_4's real points later count for nothing, and the
    wrong value makes every honest verdict on P_4 a NOK.  (The hold itself,
    for every carrier type: ``tests/test_sim.py``.)"""
    early = (("points", ([FIELD(0)],)),)
    result = _lone_wps(lambda party: party.deliver(4, "prot/post", early))
    assert shares_match_polynomials(result, [POLY])
    for pid, wps in _honest(result):
        assert wps.received_points[4] == [FIELD(0)]
        assert wps._verdicts[(pid, 4)][0] == "NOK"


def test_rows_from_a_party_that_is_not_the_dealer_are_dropped_by_the_sharing():
    """A ``polys`` entry from P_4, well-formed rows, arriving before the
    dealer's: the sharing's own ``sender == dealer`` check drops it."""
    forged = [random_polynomial(1, 99, seed=51)]
    result = _lone_wps(lambda party: party.deliver(4, "prot/post", (("polys", (forged,)),)))
    honest = _lone_wps()
    assert shares_match_polynomials(result, [POLY])
    for pid in (1, 2, 3):
        assert result.instances[pid].my_rows == honest.instances[pid].my_rows != forged
        assert result.instances[pid].output == honest.instances[pid].output


def test_a_second_word_for_one_slot_in_one_instant_sends_the_first_at_once(monkeypatch):
    """Two ``points`` from one sharing to one peer in one instant: two messages
    (the first flushed by the second), never one merged entry; a word from
    another sharing at that instant rides the second."""
    sent = []
    record = SimulationMetrics.record_send
    monkeypatch.setattr(SimulationMetrics, "record_send", lambda metrics, message, *a, **k: (
        sent.append((message.recipient, message.payload)), record(metrics, message, *a, **k))[1])
    sim = Simulator(4, network=SynchronousNetwork())
    party = sim.parties[2]
    WeakPolynomialSharing(party, "prot", dealer=1, ts=1, ta=0, anchor=0.0)
    WeakPolynomialSharing(party, "prot/also", dealer=3, ts=1, ta=0, anchor=0.0)
    post = party.instances["prot/post"]

    def speak():
        post.put(3, "prot", ("points", [FIELD(1)]))
        post.put(3, "prot", ("points", [FIELD(2)]))
        post.put(3, "prot/also", ("points", [FIELD(3)]))

    party.schedule_at(1.0, speak)
    sim.run_until(max_time=1.5)
    assert sent == [
        (3, (("points", ([FIELD(1)], None)),)),
        (3, (("points", ([FIELD(2)], [FIELD(3)])),)),
    ]

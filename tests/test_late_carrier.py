"""Late carriers against a corrupt sender (``repro.broadcast.bc``).

What a party gives its ΠBCs of one instant after their bundle went out -- a
late input, late verdicts (slots of its verdict vector's entry), a dealer's
(E', F') -- rides the numbered Acasts ``<carrier>/late[k]``.  A receiver hands
``late[k]`` on only after ``late[0..k-1]``, and per (entry, slot) the first
value in that order counts: one Acast per name, as the per-pair design had,
whatever order the network delivers the carriers in.  These tests pin that
rule against an equivocating sender and a scheduler working for it, the
width bound, the total parser, the vector-first rule, the ``star2`` hold and
sender binding.
"""

import pytest

from repro.broadcast.acast import Bundle
from repro.broadcast.bc import bc_time_bound, carrier_tag
from repro.sharing.wps import WeakPolynomialSharing, wps_time_bound
from repro.sim import Simulator
from repro.sim.network import NetworkModel

from protocol_helpers import (
    FIELD,
    RewriteBehavior,
    bundle_tag,
    late_tag,
    random_polynomial,
    run_dealer_protocol,
    shares_match_polynomials,
)

N, TS, TA = 5, 1, 1
OK = ("OK",)
NOK = ("NOK", 0, FIELD(99))
#: P_5's verdict vector is the one entry of its carrier at the ok anchor (width 5).
ANCHOR = WeakPolynomialSharing.ok_anchor_at(0.0, N, TS, 1.0)
LATE = [late_tag("prot", ANCHOR, N, k) for k in range(N + 1)]


class TagScheduler(NetworkModel):
    """Δ for every message but those named in ``slow`` -- recipient (or None for
    everyone) -> tag -- which take ``delay``: an asynchronous network."""

    def __init__(self, slow, delay=30.0):
        super().__init__(1.0)
        self.slow = slow
        self.extra = delay

    def delay(self, message, rng):
        slow = self.slow.get(message.recipient, ()) + self.slow.get(None, ())
        return self.extra if message.tag in slow else self.delta


def _slots(**verdicts):
    """An n-slot partial verdict vector: ``_slots(s1=OK)`` is P_1's slot."""
    return tuple(verdicts.get(f"s{j}") for j in range(1, N + 1))


def _p5_late(carriers, blank=(1,)):
    """Corrupt P_5: its vector leaves slots ``blank`` empty, and with the bundle
    it sends ``carriers`` (k -> payload value) as its late carriers."""
    def with_late(tag, payload):
        if payload[0] != "init":
            return [(tag, payload)]
        return [(tag, payload)] + [(LATE[k], ("init", value)) for k, value in carriers.items()]

    def blank_slots(vector):
        return tuple(None if j in blank else v for j, v in enumerate(vector, 1))

    return RewriteBehavior({bundle_tag("prot", ANCHOR, N): with_late},
                           entries={r"prot/ok\[5\]": blank_slots})


def _run(corrupt, network=None, max_time=300.0):
    poly = random_polynomial(TS, 21, seed=71)
    result = run_dealer_protocol(WeakPolynomialSharing, n=N, ts=TS, ta=TA, dealer=1,
                                 polynomials=[poly], network=network, corrupt={N: corrupt},
                                 max_time=max_time, wait_for_all_honest=False)
    assert len(result.honest_outputs()) == N - 1
    assert shares_match_polynomials(result, [poly])
    return [result.instances[pid] for pid in range(1, N)]


def test_an_equivocation_across_two_carriers_is_decided_by_sequence_not_arrival():
    """P_5 says OK for P_1 on ``late[0]`` and NOK on ``late[1]``; the scheduler
    brings P_2 ``late[1]`` first and P_3 ``late[0]`` first.  Taking the first
    carrier to arrive would split them (P_2 NOK, P_3 OK: wps fact 3 broken);
    in sequence order both, and everyone, record ``late[0]``'s OK."""
    carriers = {0: Bundle((_slots(s1=OK),), N), 1: Bundle((_slots(s1=NOK),), N)}
    scheduler = TagScheduler({2: (LATE[0],), 3: (LATE[1],)})
    honest = _run(_p5_late(carriers), network=scheduler)
    arrival = {sharing.me: [sharing.party.instances[LATE[k]].output_time for k in (0, 1)]
               for sharing in honest}
    assert arrival[2][1] < arrival[2][0] and arrival[3][0] < arrival[3][1]
    for sharing in honest:
        assert sharing._late_verdicts[N] == {1: OK}
        assert sharing._verdicts[(N, 1)] == OK


def test_a_late_carrier_beyond_the_width_builds_no_instance():
    """``late[n]`` of a one-entry carrier is past what an honest sender can
    number: no honest party builds it, its NOK is never read."""
    honest = _run(_p5_late({N: Bundle((_slots(s1=NOK),), N)}))
    for sharing in honest:
        assert LATE[N] not in sharing.party.instances and sharing.party.load()[1] == 1
        assert N not in sharing._late_verdicts and (N, 1) not in sharing._verdicts


@pytest.mark.parametrize("malformed", [
    pytest.param(Bundle((_slots(s1=NOK), None), N), id="wrong-length-bundle"),
    pytest.param((_slots(s1=NOK),), id="a-plain-tuple"),
    pytest.param(Bundle((_slots(s1=NOK)[:3],), N), id="a-vector-of-the-wrong-length"),
    pytest.param(Bundle((NOK,), N), id="a-verdict-not-a-vector"),
    pytest.param(Bundle(((frozenset({1}), frozenset({1})),), N), id="a-star-in-a-vector-slot"),
])
def test_a_malformed_late_carrier_is_all_absent_and_the_sequence_goes_on(malformed):
    """``late[0]`` is malformed and claims a NOK for P_1; ``late[1]`` gives an OK
    for P_2: nothing of the first counts, the second is handed on after it."""
    carriers = {0: malformed, 1: Bundle((_slots(s2=OK),), N)}
    for sharing in _run(_p5_late(carriers, blank=(1, 2))):
        assert sharing.party.instances[LATE[0]].output == malformed
        assert sharing._late_verdicts[N] == {2: OK}
        assert sharing._verdicts[(N, 2)] == OK and (N, 1) not in sharing._verdicts


def test_a_late_verdict_waits_for_its_vector():
    """P_5's bundle reaches everyone in fallback mode only, ~20Δ after its late
    carrier: the late OK is held, not recorded, until the vector is in."""
    scheduler = TagScheduler({None: (carrier_tag("prot", ANCHOR, N, 1.0) + "/acast",)},
                             delay=20.0)
    sim = Simulator(N, network=scheduler,
                    corrupt={N: _p5_late({0: Bundle((_slots(s1=OK),), N)})})
    poly = random_polynomial(TS, 22, seed=72)
    sharings = {pid: WeakPolynomialSharing(party, "prot", dealer=1, ts=TS, ta=TA,
                                           polynomials=[poly] if pid == 1 else None, anchor=0.0)
                for pid, party in sim.parties.items()}
    for sharing in sharings.values():
        sharing.start()
    sim.run_until(max_time=ANCHOR + 10.0)
    for pid in range(1, N):
        sharing = sharings[pid]
        assert sharing.party.instances[LATE[0]].has_output
        assert sharing._late_verdicts[N] == {1: OK} and N not in sharing._vectors_seen
        assert (N, 1) not in sharing._verdicts
    sim.run_until(max_time=300.0)
    for pid in range(1, N):
        assert N in sharings[pid]._vectors_seen and sharings[pid]._verdicts[(N, 1)] == OK


def test_star2_on_a_late_carrier_is_still_held_to_the_regular_mode_time():
    """The dealer withholds (W, E, F); its honest code then gives (E', F') on
    its star carrier's ``late[0]``, delivered long before anchor + T_WPS +
    T_BC, where every honest party acts on it, at one instant."""
    n, ts, ta = 4, 1, 0
    poly = random_polynomial(ts, 23, seed=73)
    dealer = RewriteBehavior(entries={"prot/star": lambda value: None})
    result = run_dealer_protocol(WeakPolynomialSharing, n=n, ts=ts, ta=ta, dealer=4,
                                 polynomials=[poly], corrupt={4: dealer})
    due = wps_time_bound(n, ts, 1.0) + bc_time_bound(n, ts, 1.0)
    assert len(result.honest_outputs()) == n - 1
    for pid in range(1, n):
        sharing = result.instances[pid]
        star2 = sharing.party.instances[sharing._star_bc._carrier.tag + "/late[0]"]
        assert sharing._ba_output == 1 and sharing._star2 is not None
        assert star2.output_time < due - 5.0
        assert sharing.output_time == pytest.approx(due)


def test_a_party_can_fill_in_only_its_own_broadcasts():
    """P_5 sends an init on P_1's late carrier: Acast takes an init from the
    carrier's sender only, so nobody echoes it and nothing is delivered."""
    forged = Bundle((_slots(s2=NOK),), N)
    theirs = late_tag("prot", ANCHOR, 1, 0)

    def forge(tag, payload):
        return [(tag, payload)] + ([(theirs, ("init", forged))] if payload[0] == "init" else [])

    for sharing in _run(RewriteBehavior({bundle_tag("prot", ANCHOR, N): forge})):
        late = sharing.party.instances[theirs]
        assert not late._echoed and not late.has_output
        assert sharing._late_verdicts.get(1, {}) == {}

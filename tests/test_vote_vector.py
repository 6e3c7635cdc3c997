"""ΠBA as built: a bank of k slots, each party's k votes one ΠBC (``repro.ba.bobw``).

The reference values (``*_AT_PARENT``) are what the per-BA protocol -- one
ΠBC per (BA, voter) -- output on the same seeds at 6fb28d1.
"""

import pickle

import pytest

from repro.acs.acs import AgreementOnCommonSubset
from repro.ba.bobw import BestOfBothWorldsBA
from repro.ba.sba import DEFAULT_BIT, PhaseKingSBA, sba_time_bound
from repro.broadcast.acast import Bundle
from repro.broadcast.bc import BroadcastProtocol
from repro.runtime.asyncio_backend import AsyncioBackend
from repro.runtime.wire import decode_message, encode_message
from repro.sharing.vss import VerifiableSecretSharing
from repro.sim import (
    AsynchronousNetwork,
    CrashBehavior,
    Simulator,
    SynchronousNetwork,
    WrongValueBehavior,
)
from repro.sim.messages import Message

from protocol_helpers import (
    SLOT_TAG,
    RewriteBehavior,
    random_polynomial,
    run_dealer_protocol,
    shares_match_polynomials,
    silent_in,
)


def _run_bank(n, t, votes, slots=1, network=None, corrupt=None, seed=0, late=None,
              probe=None, max_time=60_000.0):
    """One bank at every party.  ``votes[pid]`` is that party's vote in slot 0
    (k = 1) or its k-list; ``late[pid] = (time, slot, bit)`` casts one vote by
    a timer; ``probe = (time, callback(party, bank))`` looks at the run."""
    sim = Simulator(n, network=network or SynchronousNetwork(), seed=seed,
                    corrupt=corrupt or {})

    def factory(party):
        mine = votes.get(party.id)
        if slots == 1:
            return BestOfBothWorldsBA(party, "ba", faults=t, value=mine, anchor=0.0)
        bank = BestOfBothWorldsBA(party, "ba", faults=t, anchor=0.0, slots=slots)
        for index, vote in enumerate(mine or ()):
            if vote is not None:
                bank.slots[index].provide_input(vote)
        if late and party.id in late:
            when, index, vote = late[party.id]
            party.schedule_at(when, lambda: bank.slots[index].provide_input(vote))
        if probe:
            party.schedule_at(probe[0], lambda: probe[1](party, bank))
        return bank

    return sim.run(factory, max_time=max_time)


def _vote_broadcasts(party, bank_tag):
    """The bank's vote ΠBCs, records their carriers own: read from the bank."""
    broadcasts = list(party.instances[bank_tag]._bc.values())
    assert all(type(bc) is BroadcastProtocol for bc in broadcasts)
    return broadcasts


# -- k = 1 is Fig 2 -------------------------------------------------------------------------

FIG2_AT_PARENT = [
    pytest.param(4, 1, {1: 1, 2: 0, 3: 1, 4: 0}, {}, 1, {1: 1, 2: 1, 3: 1, 4: 1}, id="mixed"),
    pytest.param(4, 1, {1: 1, 2: 1, 3: 1, 4: 0}, {"corrupt": {4: CrashBehavior()}}, 0,
                 {1: 1, 2: 1, 3: 1}, id="crash"),
    pytest.param(4, 1, {i: 0 for i in range(1, 5)},
                 {"corrupt": {4: WrongValueBehavior(offset=1)}}, 2, {1: 0, 2: 0, 3: 0},
                 id="byzantine"),
    pytest.param(4, 1, {1: 0, 2: 1, 3: 0, 4: 1},
                 {"network": AsynchronousNetwork(max_delay=12.0)}, 5,
                 {1: 0, 2: 0, 3: 0, 4: 0}, id="async-mixed"),
    pytest.param(5, 1, {1: 1, 2: 0, 3: 1, 4: 0, 5: 1},
                 {"network": AsynchronousNetwork(max_delay=8.0),
                  "corrupt": {5: WrongValueBehavior(offset=1)}}, 7,
                 {1: 0, 2: 0, 3: 0, 4: 0}, id="async-byzantine-n5"),
    pytest.param(5, 1, {1: 1, 2: 0, 3: 0, 4: 1, 5: 0}, {}, 9,
                 {1: 0, 2: 0, 3: 0, 4: 0, 5: 0}, id="mixed-n5"),
]


@pytest.mark.parametrize("n,t,votes,options,seed,expected", FIG2_AT_PARENT)
def test_one_slot_bank_outputs_what_the_per_ba_protocol_did(n, t, votes, options, seed, expected):
    result = _run_bank(n, t, votes, seed=seed, **options)
    assert result.honest_outputs() == expected


# -- counts ---------------------------------------------------------------------------------


@pytest.mark.parametrize("n,slots", [(4, 1), (4, 4), (5, 1), (5, 5)])
def test_n_vote_broadcasts_and_k_abas_per_bank_per_party(n, slots):
    votes = {pid: [(pid + j) % 2 for j in range(slots)] for pid in range(1, n + 1)}
    if slots == 1:
        votes = {pid: mine[0] for pid, mine in votes.items()}
    result = _run_bank(n, 1, votes, slots=slots, seed=3)
    assert len(result.honest_outputs()) == n
    for instance in result.instances.values():
        broadcasts = _vote_broadcasts(instance.party, "ba")
        assert sorted(bc.tag for bc in broadcasts) == [f"ba/bc[{i}]" for i in range(1, n + 1)]
        abas = instance._abas.entries  # the slots, records their carrier holds
        assert abas == instance.slots
        assert not any(SLOT_TAG.search(tag) for tag in instance.party.instances)
        assert sorted(aba.tag for aba in abas) == [f"ba/aba[{j}]" for j in range(slots)]
        assert instance._bc[instance.me].message == tuple(
            votes[instance.me] if slots > 1 else [votes[instance.me]]
        )


def test_a_late_vote_sends_nothing_on_the_vote_broadcasts(monkeypatch):
    """P_4 votes at 2Δ, after its (empty) vector went out: the transcript is
    the one of the run in which it never votes, message for message."""

    def tags_of(late):
        tags = []
        submit = Simulator.submit_message
        monkeypatch.setattr(
            Simulator, "submit_message",
            lambda sim, sender, recipient, tag, payload: (
                tags.append(tag), submit(sim, sender, recipient, tag, payload))[1],
        )
        votes = {1: [1, 0], 2: [1, 0], 3: [1, 0], 4: []}
        result = _run_bank(4, 1, votes, slots=2, late=late)
        monkeypatch.setattr(Simulator, "submit_message", submit)
        assert result.honest_outputs() == {pid: (1, 0) for pid in range(1, 5)}
        assert result.instances[4]._bc[4].message == (None, None)
        return result, tags

    silent, silent_tags = tags_of(None)
    late, late_tags = tags_of({4: (2.0, 0, 1)})
    assert late.instances[4].slots[0].vote == 1 and silent.instances[4].slots[0].vote is None
    assert sorted(late_tags) == sorted(silent_tags)
    # 408 = 4 x 81 + 84 messages (432 sends, with the copies to self) while
    # each of the 4 carriers ran its own phase king: now their 4 Acasts, 27
    # messages / 36 sends each, and one bank at ba/bc@0/sba, 54 / 72.
    assert late.metrics.messages_sent == silent.metrics.messages_sent == 246 == 4 * 27 + 54 + 84
    assert sum(1 for tag in late_tags if tag.startswith("ba/bc@0[")) == 4 * 36
    assert late_tags.count("ba/bc@0/sba") == 72
    assert not any(tag.startswith("ba/bc[") for tag in late_tags)


# -- agreement and validity per slot, whatever P_n does with its vector ------------------------

WITHHELD = lambda vector: None
WRONG_LENGTH = lambda vector: vector[:-1]
CARRIES_A_2 = lambda vector: tuple(2 for _ in vector)
NOT_A_TUPLE = lambda vector: 1


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("edit", [None, WITHHELD, WRONG_LENGTH, CARRIES_A_2, NOT_A_TUPLE],
                         ids=["honest", "withheld", "wrong-length", "carries-a-2", "not-a-tuple"])
def test_every_slot_agrees_and_is_valid_with_mixed_inputs(n, edit):
    """Slot 0: all honest vote 1; slot 1: all honest vote 0; the rest mixed."""
    votes = {pid: [1, 0] + [(pid + j) % 2 for j in range(n - 2)] for pid in range(1, n + 1)}
    corrupt = {n: RewriteBehavior(entries={rf"ba/bc\[{n}\]": edit})} if edit else {}
    result = _run_bank(n, 1, votes, slots=n, corrupt=corrupt, seed=11)
    outputs = result.honest_outputs()
    assert len(outputs) == n - len(corrupt)
    assert len(set(outputs.values())) == 1
    decisions = next(iter(outputs.values()))
    assert decisions[:2] == (1, 0) and all(bit in (0, 1) for bit in decisions)
    if edit:
        for pid in outputs:
            bank = result.instances[pid]
            delivered = bank._bc[n].output_via_regular_mode()
            assert (delivered is None) == (edit is WITHHELD)
            assert bank._parse_vector(delivered) == (None,) * n


def test_vector_parser_keeps_well_formed_entries_only():
    result = _run_bank(4, 1, {pid: [1, 0, 1] for pid in range(1, 5)}, slots=3)
    parse = result.instances[1]._parse_vector
    assert parse((1, None, 0)) == (1, None, 0)
    assert parse((True, 2, "1")) == (None, None, None)
    assert parse((1.0, -1, [0])) == (None, None, None)
    for malformed in (None, 5, [1, 0, 1], (1, 0), (1, 0, 1, 0), "101"):
        assert parse(malformed) == (None, None, None)


# -- the ΠACS case: no vote by the anchor -------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5])
def test_slot_without_a_vote_waits_for_provide_input_and_decides_in_asynchrony(n):
    """Nobody has a vote for slot 1 at the anchor: no party joins its ΠABA
    before it casts one (a default 0 would break validity), and the votes
    cast at 60Δ -- broadcast by nobody -- are decided on."""
    seen = {}

    def probe(party, bank):
        seen[party.id] = (bank.slots[1]._awaiting_vote, bank.slots[1].estimate is not None)

    votes = {pid: [pid % 2] for pid in range(1, n + 1)}
    result = _run_bank(n, 1, votes, slots=2, network=AsynchronousNetwork(max_delay=6.0),
                       seed=21, late={pid: (60.0, 1, 1) for pid in range(1, n + 1)},
                       probe=(59.0, probe))
    assert seen == {pid: (True, False) for pid in range(1, n + 1)}
    outputs = result.honest_outputs()
    assert len(outputs) == n and len(set(outputs.values())) == 1
    assert all(decisions[1] == 1 for decisions in outputs.values())
    for bank in result.instances.values():
        assert bank._bc[bank.me].message == (bank.me % 2, None)


# -- the owners: ΠACS and ΠVSS decide what they decided with one ΠBC per (BA, voter) -------------


def _acs_subsets(n, ts, ta, network=None, corrupt=None, seed=0):
    sim = Simulator(n, network=network or SynchronousNetwork(), seed=seed,
                    corrupt=corrupt or {})
    polys = {pid: [random_polynomial(ts, pid, seed=seed * 100 + pid)] for pid in range(1, n + 1)}
    result = sim.run(
        lambda party: AgreementOnCommonSubset(
            party, "acs", ts=ts, ta=ta, num_polynomials=1, polynomials=polys[party.id],
            anchor=0.0),
        max_time=200_000.0,
    )
    return result, {pid: out[0] for pid, out in result.honest_outputs().items()}


ACS_AT_PARENT = [
    pytest.param(4, 1, 0, {}, 0, {1, 2, 3, 4}, [1, 2, 3, 4], id="n4-sync"),
    pytest.param(4, 1, 0, {"corrupt": {3: CrashBehavior()}}, 0, {1, 2, 4}, [1, 2, 4],
                 id="n4-crashed-dealer"),
    pytest.param(4, 1, 0, {"corrupt": {2: silent_in("acs/vss[2]/")}}, 0,
                 {1, 3, 4}, [1, 3, 4], id="n4-silent-dealer"),
    pytest.param(5, 1, 1, {}, 3, {1, 2, 3, 4, 5}, [1, 2, 3, 4, 5], id="n5-sync"),
    pytest.param(5, 1, 1, {"network": AsynchronousNetwork(max_delay=6.0)}, 4, {1, 2, 3, 4, 5},
                 [1, 2, 3, 4, 5], id="n5-async"),
]


@pytest.mark.parametrize("n,ts,ta,options,seed,honest,subset", ACS_AT_PARENT)
def test_acs_common_subset_equals_the_per_ba_protocols(n, ts, ta, options, seed, honest, subset):
    result, subsets = _acs_subsets(n, ts, ta, seed=seed, **options)
    assert subsets == {pid: subset for pid in honest}
    for pid in honest:
        party = result.instances[pid].party
        # Two banks per ΠACS, one per ΠVSS: n vote ΠBCs each, whatever n.
        assert len(_vote_broadcasts(party, "acs/ba")) == n
        assert len(_vote_broadcasts(party, "acs/vss_ba")) == n
        assert len(_vote_broadcasts(party, "acs/vss[1]/wps_ba")) == n
        votes = [bc for e in party.instances.values() if isinstance(e, BestOfBothWorldsBA)
                 for bc in e._bc.values()]
        assert len(votes) == (2 + n) * n


def _vss_votes(result):
    """Per honest party: (own ΠBA output, accepted star, per-ΠWPS the same)."""
    def star(parts):
        return None if parts is None else tuple(sorted(part) for part in parts)
    return {
        pid: (result.instances[pid]._ba_output, star(result.instances[pid].accepted_star),
              {j: (wps._ba_output, star(wps.accepted_star))
               for j, wps in result.instances[pid]._wps.items()})
        for pid in result.backend.honest_party_ids()
    }


def _all(n):
    return list(range(1, n + 1))


VSS_AT_PARENT = [
    pytest.param(4, 1, 0, 1, {}, 0,
                 (0, (_all(4),) * 3, {j: (0, (_all(4),) * 3) for j in _all(4)}), id="n4-sync"),
    pytest.param(5, 1, 1, 1, {}, 1,
                 (0, (_all(5),) * 3, {j: (0, (_all(5),) * 3) for j in _all(5)}), id="n5-sync"),
    pytest.param(4, 1, 0, 2,
                 {"corrupt": {2: RewriteBehavior(entries={r".*/star": lambda value: None})}}, 2,
                 (1, None, {j: (1, None) if j == 2 else (0, (_all(4),) * 3) for j in _all(4)}),
                 id="n4-dealer-withholds-its-stars"),
    pytest.param(4, 1, 0, 1, {"corrupt": {4: CrashBehavior()}}, 3,
                 (0, ([1, 2, 3], [2, 3], [1, 2, 3]),
                  {j: (1, None) if j == 4 else (0, ([1, 2, 3], [2, 3], [1, 2, 3]))
                   for j in _all(4)}), id="n4-crash"),
    pytest.param(5, 1, 1, 1, {"network": AsynchronousNetwork(max_delay=6.0)}, 5,
                 (1, None, {j: (1, None) for j in _all(5)}), id="n5-async"),
]


@pytest.mark.parametrize("n,ts,ta,dealer,options,seed,expected", VSS_AT_PARENT)
def test_vss_ba_outputs_and_accepted_stars_equal_the_per_ba_protocols(
    n, ts, ta, dealer, options, seed, expected
):
    poly = random_polynomial(ts, 7, seed=40 + seed)
    result = run_dealer_protocol(VerifiableSecretSharing, n=n, ts=ts, ta=ta, dealer=dealer,
                                 polynomials=[poly], seed=seed, max_time=60_000.0, **options)
    votes = _vss_votes(result)
    assert votes and all(mine == expected for mine in votes.values())


# -- the wire -----------------------------------------------------------------------------------


def test_vote_vector_crosses_the_wire_without_pickle(monkeypatch):
    def no_pickle(*args, **kwargs):
        raise AssertionError("vote vector took the pickle fallback")

    monkeypatch.setattr(pickle, "dumps", no_pickle)
    message = Message(2, 3, "acs/vss_ba/bc[2]/acast", ("echo", (1, None, 0, 1)), 77.004)
    decoded = decode_message(encode_message(message))
    assert decoded.payload == message.payload
    assert decoded.bits == message.bits == 64 + 8 * len("echo") + 3 * 64 + 1


# -- a real clock gives timers due at one instant no order -----------------------------------------


def test_real_clock_vss_publishes_no_empty_vote_vector():
    """Every ΠWPS votes at the bank's anchor, from the bank's own anchor timer:
    each honest party's vectors carry all n (and its own ΠVSS's one) votes."""
    poly = random_polynomial(1, 9, seed=51)
    backend = AsyncioBackend(4, network=SynchronousNetwork(), seed=5,
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
        for tag, slots in (("prot/wps_ba", 4), ("prot/ba", 1)):
            vector = instance.party.instances[tag]._bc[pid].message
            assert len(vector) == slots and None not in vector


# -- Byzantine bytes on the vote path: PhaseKingSBA, BrachaABA, AcastProtocol are total ------------


def _inject(tag_pattern, *forged):
    """P_4 runs the honest code and sends the ``forged`` payloads ahead of its
    first message on a tag matching ``tag_pattern``, to every recipient."""
    done = set()

    def edit(tag, payload):
        extra = [] if tag in done else [(tag, each) for each in forged]
        done.add(tag)
        return extra + [(tag, payload)]

    return {4: RewriteBehavior({tag_pattern: edit})}


#: The lone slot's ΠABA messages are 1-vectors on the carrier of its launch instant.
ABA_TAG = r"ba/aba@\d+"
#: The vote vectors ride the bundles anchored at 0, one carrier per sender, and
#: the carriers of that instant share one binary phase-king bank of n slots.
SBA_TAG, ACAST_TAG = r"ba/bc@0/sba", r"ba/bc@0\[\d\]/acast"


def _votes(*slots, n=4):
    """A bank vector's votes as the honest code sends them: one vote line."""
    return Bundle((slots,), n)


@pytest.mark.parametrize("tag,forged", [
    pytest.param(SBA_TAG, (1, ([1, 2],) * 4), id="sba-unhashable-value"),
    pytest.param(SBA_TAG, (1, _votes(*([1, 2],) * 4)), id="sba-unhashable-slot"),
    pytest.param(SBA_TAG, 5, id="sba-not-a-pair"),
    pytest.param(ABA_TAG, 5, id="aba-not-a-tuple"),
    pytest.param(ABA_TAG, ("bval", [1, 2], (1,)), id="aba-unhashable-round"),
    pytest.param(ACAST_TAG, 5, id="acast-not-a-pair"),
    pytest.param(ACAST_TAG, ("echo", [1, 2]), id="acast-unhashable-value"),
])
def test_malformed_payload_is_absent_not_an_exception(tag, forged):
    """Each of these escaped ``sim.run`` at 6fb28d1 and took down every honest party."""
    result = _run_bank(4, 1, {pid: 1 for pid in range(1, 5)}, corrupt=_inject(tag, forged))
    assert result.honest_outputs() == {1: 1, 2: 1, 3: 1}


@pytest.mark.parametrize("forged", [
    ("bval", 10 ** 9, 1), ("aux", 0, 1), ("aux", -3, 0), ("bval", True, 1), ("bval", 1),
    ("final",), ("bval", 1, 1, 1),
], ids=repr)
def test_aba_round_outside_the_schedule_allocates_no_state(forged):
    vector = forged[:-1] + ((forged[-1],),)  # the logical message, as the carrier sends it
    result = _run_bank(4, 1, {pid: 0 for pid in range(1, 5)},
                       corrupt=_inject(ABA_TAG, vector))
    assert result.honest_outputs() == {1: 0, 2: 0, 3: 0}
    for pid in (1, 2, 3):
        aba = result.instances[pid].slots[0]
        assert set(aba._rounds) <= {1, 2}


def test_sba_round_outside_the_schedule_and_unhashable_king_value_are_absent():
    forged = [(r, _votes(1, 1, 1, 1)) for r in (0, 7, -1, True, "1")]
    forged += [(3, ([1, 2],) * 4), (3, _votes(*([1, 2],) * 4))]
    for payload in forged:
        result = _run_bank(4, 1, {pid: 1 for pid in range(1, 5)},
                           corrupt=_inject(SBA_TAG, payload))
        assert result.honest_outputs() == {1: 1, 2: 1, 3: 1}
        for pid in (1, 2, 3):
            for tag, instance in result.instances[pid].party.instances.items():
                if tag.endswith("/sba"):
                    assert set(instance._round_inbox) <= set(range(1, 7))
                    hash(instance.output)


def _banks(result, pids):
    return {pid: result.instances[pid].party.instances["ba/bc@0/sba"] for pid in pids}


def _agree_by_t_bgp(result, pids):
    """Every slot of the bank agrees at the honest ``pids``, output by T_BGP."""
    banks = _banks(result, pids)
    assert len({bank.output for bank in banks.values()}) == 1
    for bank in banks.values():
        assert bank.has_output and len(bank.output) == 4
        assert bank.output_time <= bank.start_time + sba_time_bound(4, 1, 1.0) + 1e-9
        assert all(type(v) is tuple and len(v) == 4 and set(v) <= {None, 0, 1}
                   for inbox in bank._round_inbox.values() for v in inbox.values())
    return banks[pids[0]].output


#: Votes that make every slot of the bank hold a different bundle.
SLOT_VOTES = {1: [1, 0], 2: [0, 1], 3: [1, 1], 4: [0, 0]}


@pytest.fixture(scope="module")
def clean_bank():
    """The honest run's ΠBA outputs and bank output."""
    result = _run_bank(4, 1, SLOT_VOTES, slots=2)
    return result.honest_outputs(), _agree_by_t_bgp(result, [1, 2, 3, 4])


@pytest.mark.parametrize("forged", [
    pytest.param((1, _votes(1, 1, 2, 1)), id="a-slot-of-2"),
    pytest.param((1, _votes(1, True, 1, 1)), id="a-slot-of-True"),
    pytest.param((1, _votes("1", 1, 1, 1)), id="a-slot-of-str"),
    pytest.param((1, _votes(1, 1, 1, [1])), id="a-list-slot"),
    pytest.param((1, _votes(1, _votes(1, 1, 1, 1), 1, 1)), id="a-bundle-slot"),
    pytest.param((1, (1, 1, 1, 1)), id="a-plain-tuple"),
    pytest.param((1, [1, 1, 1, 1]), id="a-list"),
    pytest.param((1, _votes(1, 1, 1)), id="too-short"),
    pytest.param((2, _votes(1, 1, 1, 1, 1)), id="too-long"),
    pytest.param((1, _votes(1, 1, 1, 1, n=5)), id="a-bundle-for-n-5"),
    pytest.param((1, Bundle(((1, 1, 1, 1), (1, 1, 1, 1)), 4)), id="two-entries"),
    pytest.param((1, Bundle((), 4)), id="no-entry"),
    pytest.param((1, None), id="none"),
    pytest.param((7, _votes(1, 1, 1, 1)), id="round-past-the-schedule"),
    pytest.param((0, _votes(1, 1, 1, 1)), id="round-zero"),
    pytest.param((1, 2, _votes(1, 1, 1, 1)), id="a-triple"),
])
def test_a_malformed_bank_vector_is_absent_in_every_slot(forged, clean_bank):
    """P_4's malformed payload ahead of each honest one counts for nothing: its
    honest vector is the first that counts, and the run is the clean one."""
    result = _run_bank(4, 1, SLOT_VOTES, slots=2, corrupt=_inject(SBA_TAG, forged))
    assert result.honest_outputs() == {pid: clean_bank[0][pid] for pid in (1, 2, 3)}
    assert _agree_by_t_bgp(result, [1, 2, 3]) == clean_bank[1]
    for bank in _banks(result, [1, 2, 3]).values():
        # Every Acast delivered in time, so every slot is unanimous: each
        # vote of rounds 1-2, P_4's included, is the int 1.
        assert all(list(map(type, bank._round_inbox[r][pid])) == [int] * 4
                   and bank._round_inbox[r][pid] == (1,) * 4
                   for r in (1, 2) for pid in range(1, 5))


@pytest.mark.parametrize("round_index", [1, 2, 3, 4, 5, 6])
def test_an_unhashable_slot_value_counts_for_nothing_in_that_slot(round_index, clean_bank):
    """P_4's first payload of the round has an unhashable value in one slot
    and values no vote may take in the others: the vector is absent in every
    slot, P_4's honest vector of the round is the first that counts, and the
    run is the clean one."""
    forged = (round_index, _votes([1, 2], None, "__NO_PREF__", {3: 4}))
    result = _run_bank(4, 1, SLOT_VOTES, slots=2, corrupt=_inject(SBA_TAG, forged))
    inbox = _banks(result, [1])[1]._round_inbox
    assert round_index not in inbox or inbox[round_index].get(4) != forged[1].entries[0]
    assert result.honest_outputs() == {pid: clean_bank[0][pid] for pid in (1, 2, 3)}
    assert _agree_by_t_bgp(result, [1, 2, 3]) == clean_bank[1]


@pytest.mark.parametrize("king_vector,reads", [
    pytest.param([1] * 4, None, id="a-list"),
    pytest.param((1,) * 4, None, id="a-plain-tuple"),
    pytest.param(_votes(1, 1, 1), None, id="wrong-length"),
    pytest.param(None, None, id="none"),
    pytest.param(_votes(*([1, 2],) * 4), None, id="unhashable"),
    pytest.param(_votes(2, 2, 2, 2), None, id="slots-of-2"),
    pytest.param(_votes(True, 1, 1, 1), None, id="a-slot-of-True"),
    pytest.param(_votes(None, None, None, None), (None,) * 4, id="no-candidate-anywhere"),
    pytest.param(_votes(1, 1, 1, 1), (1,) * 4, id="ones"),
])
def test_a_malformed_king_vector_is_the_default_in_every_slot(king_vector, reads):
    """A bank of 4 slots on split inputs: P_1, phase 1's king, sends
    ``king_vector`` as its king round.  Where no candidate is strong (slots
    0, 1 and 3) the honest parties take the king's bit, ``DEFAULT_BIT`` where
    that is not 0 or 1 (a king slot outside {0, 1} reads as 0), phase 2's honest king keeps it, and every slot agrees
    by T_BGP; the unanimous slot 2 is kept.  ``reads`` is what the honest
    parties hold as the king's vector (``None``: it was absent)."""
    inputs = {1: (0, 0, 1, 0), 2: (0, 1, 1, 1), 3: (1, 0, 1, 1), 4: (1, 1, 0, 0)}

    def as_king(tag, payload):
        return [(tag, (3, king_vector) if payload[0] == 3 else payload)]

    sim = Simulator(4, network=SynchronousNetwork(),
                    corrupt={1: RewriteBehavior({"sba": as_king})})
    result = sim.run(lambda party: PhaseKingSBA(party, "sba", faults=1,
                                                value=inputs[party.id]), max_time=100.0)
    king_bit = 1 if reads == (1,) * 4 else DEFAULT_BIT
    assert result.honest_outputs() == {pid: (king_bit, king_bit, 1, king_bit)
                                       for pid in (2, 3, 4)}
    for pid in (2, 3, 4):
        bank = result.instances[pid]
        assert bank.output_time <= sba_time_bound(4, 1, 1.0)
        assert bank._round_inbox.get(3, {}).get(1) == reads


@pytest.mark.parametrize("slot", [0, 1, 2, 3])
def test_garbling_one_slot_leaves_every_other_slot_as_in_the_honest_run(slot, clean_bank):
    """P_4 sends slot ``slot`` of every vector flipped (a ``None`` as 1), the
    other slots as the honest code made them: a vote the honest parties
    outvote, whatever the slot."""
    def flip(tag, payload):
        round_index, vector = payload
        votes = list(vector.entries[0])
        votes[slot] = 1 - (votes[slot] or 0)
        return [(tag, (round_index, _votes(*votes)))]

    result = _run_bank(4, 1, SLOT_VOTES, slots=2, corrupt={4: RewriteBehavior({SBA_TAG: flip})})
    output = _agree_by_t_bgp(result, [1, 2, 3])
    assert _banks(result, [1])[1]._round_inbox[1][4][slot] == 0
    assert output == clean_bank[1]
    assert result.honest_outputs() == {pid: clean_bank[0][pid] for pid in (1, 2, 3)}

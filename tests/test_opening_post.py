"""The opening post (``repro.triples.reconstruction.OpeningPost``): the shares
the n ΠTripSh of one preprocessing open to one peer at one instant leave as
one message, and one total parser routes what a peer sends there."""

import re

import pytest

from repro import run_mpc
from repro.circuits import multiplication_circuit
from repro.sim import AsynchronousNetwork, Simulator, WrongValueBehavior
from repro.triples.preprocessing import Preprocessing
from repro.triples.reconstruction import OpeningPost

from protocol_helpers import FIELD, RewriteBehavior

CIRCUIT = multiplication_circuit(FIELD, 4)
INPUTS = {1: 3, 2: 5, 3: 7, 4: 11}


def _run(behavior):
    return run_mpc(CIRCUIT, INPUTS, n=4, ts=1, ta=0, seed=1, corrupt={4: behavior})


def test_a_preprocessing_has_one_opening_post_of_its_n_tripsh_in_tag_order():
    result = run_mpc(CIRCUIT, INPUTS, n=4, ts=1, ta=0, seed=1)
    for party in result.run.backend.parties.values():
        post = party.instances["mpc/preproc/openings"]
        assert type(post) is OpeningPost
        assert [m.tag for m in post.entries] == [f"mpc/preproc/tripsh[{j}]" for j in (1, 2, 3, 4)]


@pytest.mark.parametrize("payload_of", [
    pytest.param(lambda payload: 7, id="not-a-tuple"),
    pytest.param(lambda payload: tuple((k, v[:-1]) for k, v in payload), id="wrong-width"),
    pytest.param(lambda payload: tuple(("gamma/x", v) for _, v in payload), id="unknown-name"),
    pytest.param(lambda payload: tuple((7, v) for _, v in payload), id="non-str-name"),
    pytest.param(lambda payload: tuple((k, (None,) * len(v)) for k, v in payload),
                 id="every-entry-none"),
    pytest.param(lambda payload: tuple((k, tuple(7 if e is not None else None for e in v))
                                       for k, v in payload), id="entry-not-a-vector"),
])
def test_a_malformed_opening_post_message_crashes_nothing_and_loses_no_output(payload_of):
    """A corrupt P4's openings, whatever their shape, are at most its shares
    missing: OEC(t_s, t_s) reconstructs without them.  A line with an unknown
    name is routed nowhere, not left in the party's buffer for a tag that
    never comes."""
    forged = []

    def forge(tag, payload):
        forged.append(tag)
        return [(tag, payload_of(payload))]

    result = _run(RewriteBehavior({r"mpc/preproc/openings": forge}))
    assert forged
    assert result.completed and result.agreed
    assert result.outputs == CIRCUIT.evaluate({pid: FIELD(v) for pid, v in INPUTS.items()})
    assert all(party.load()[1] == 0 for party in result.run.backend.parties.values())


def test_a_lie_in_one_tripsh_gamma_entry_is_corrected_by_oec():
    """P4 perturbs only its ``gamma`` shares of ``tripsh[2]``: the entry edit
    must bite (the counted matches), and every honest party still
    reconstructs all-zero gammas, so nobody suspects a triple."""
    lies = []

    def lie(kind, value):
        if kind != "gamma":
            return value
        lies.append(value)
        return WrongValueBehavior(offset=1)._perturb(value)

    result = _run(RewriteBehavior(posts={r"mpc/preproc/tripsh\[2\]": lie}))
    assert len(lies) > 0
    assert result.outputs == CIRCUIT.evaluate({pid: FIELD(v) for pid, v in INPUTS.items()})
    for pid, party in result.run.backend.parties.items():
        if pid == 4:
            continue
        gammas = party.instances["mpc/preproc/tripsh[2]/gamma"].output
        assert gammas and all(gamma == FIELD(0) for gamma in gammas)
        assert not any(tag.endswith("/suspect") for tag in party.instances)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_asynchronous_entries_before_their_reconstruction_wait_and_are_not_lost(
        seed, monkeypatch):
    """In asynchrony dealers finish at different times, so an entry can come
    for a reconstruction this party has not built: the party's buffer holds
    it until it is, and none is left over when the preprocessing is done."""
    early = []
    hand = OpeningPost.hand

    def spying(post, member, sender, kind, value):
        early.append(post.party.get_instance(f"{member.tag}/{kind}") is None)
        hand(post, member, sender, kind, value)

    monkeypatch.setattr(OpeningPost, "hand", spying)
    sim = Simulator(5, network=AsynchronousNetwork(max_delay=3.0), seed=seed)
    result = sim.run(lambda party: Preprocessing(party, "preproc", ts=1, ta=1, num_triples=2),
                     max_time=5_000.0)
    assert len(result.honest_outputs()) == 5
    assert any(early)
    for party in sim.parties.values():
        assert party.load()[1] == 0
        assert any(re.search(r"/tripsh\[\d\]/gamma$", tag) for tag in party.instances)


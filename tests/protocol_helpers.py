"""Shared helpers for the protocol-level test modules (WPS, VSS, ACS, MPC)."""

from __future__ import annotations

import os
import random
import re
import time
from typing import Callable, Dict, List, Optional

from repro.broadcast.acast import AcastProtocol
from repro.broadcast.bc import BroadcastCarrier, Bundle, carrier_tag
from repro.field import Polynomial, default_field
from repro.sim import Simulator, SynchronousNetwork
from repro.sim.adversary import Behavior
from repro.sim.messages import Message
from repro.sim.network import NetworkModel
from repro.sim.party import Post

FIELD = default_field()

#: The tag of a ΠABA slot, ``<bank>/aba[j]``: a record its carrier holds, never a
#: registered instance.
SLOT_TAG = re.compile(r"/aba\[\d+\]$")


def random_polynomial(degree: int, secret: int, seed: int = 0) -> Polynomial:
    return Polynomial.random(FIELD, degree, constant_term=secret, rng=random.Random(seed))


class CountedTags:
    """A ``tag_predicate`` that counts the messages it matched.  A predicate
    naming a tag nothing is sent on any more (a sharing's own tag, whose rows
    and points ride ``<root>/post``; a ΠTripSh opening's, which rides
    ``<preproc>/openings``) matches none, and the test using it then tests
    nothing: such a test asserts ``matches > 0``."""

    def __init__(self, predicate: Callable[[str], bool]):
        self.predicate = predicate
        self.matches = 0

    def __call__(self, tag: str) -> bool:
        matched = self.predicate(tag)
        self.matches += bool(matched)
        return matched


class RewriteBehavior(Behavior):
    """A corrupt party that runs the honest code but edits what it sends.

    ``rules`` maps a tag regex to ``edit(tag, payload) -> [(tag, payload), ...]``:
    the first rule that ``fullmatch``es an outgoing message's tag decides what
    its recipient gets instead -- nothing (a drop), a rewritten payload, or
    extra messages on other tags (an input the honest code would never give).

    ``entries`` addresses what the party *broadcasts*.  The inputs of all the
    ΠBCs it starts for one anchor leave it as one bundle on the carrier's Acast
    (``repro.broadcast.bc``), so a broadcast is the entry of a logical ΠBC, not
    a tag on the wire: ``entries`` maps a regex on logical ΠBC tags to
    ``edit(value) -> value``, applied to that entry of the bundle the party
    sends (``None`` blanks it: that ΠBC is given no input; the rest of the
    bundle goes out as the honest code made it).  Withholding a broadcast is
    withholding its whole bundle: a ``rules`` drop on :func:`bundle_tag`.
    ``late`` does the same to what the party gives late: the present entries of
    the bundles on its late carriers ``<carrier>/late[k]`` (a late input, a
    partial verdict vector, a dealer's (E', F')); an edit to ``None`` there
    gives nothing late.  ``posts`` addresses the rows and points a sharing
    sends and the shares a ΠTripSh opens: they are entries of the messages of
    a post (``repro.sim.party.Post``: its root's ``SharingPost``, its
    preprocessing's ``OpeningPost``), so ``posts`` maps a regex on member tags
    (a sharing's, a ΠTripSh's) to ``edit(kind, value) -> value``, applied to
    each present entry of that member -- ``kind`` is ``"polys"`` /
    ``"points"`` for a sharing, the opening's name (``"gamma"``, ...) for a
    ΠTripSh (``None``: the member sends nothing there).
    """

    def __init__(self, rules: Optional[Dict[str, Callable]] = None,
                 entries: Optional[Dict[str, Callable]] = None,
                 late: Optional[Dict[str, Callable]] = None,
                 posts: Optional[Dict[str, Callable]] = None):
        self.rules = [(re.compile(p), edit) for p, edit in (rules or {}).items()]
        self.entries = [(re.compile(p), edit) for p, edit in (entries or {}).items()]
        self.late = [(re.compile(p), edit) for p, edit in (late or {}).items()]
        self.posts = [(re.compile(p), edit) for p, edit in (posts or {}).items()]

    def filter_send(self, party, message):
        sent = [(message.tag, message.payload)]
        for pattern, edit in self.rules:
            if pattern.fullmatch(message.tag):
                sent = edit(message.tag, message.payload)
                break
        return [
            Message(message.sender, message.recipient, tag, self._edit_entries(party, tag, payload),
                    message.send_time)
            for tag, payload in sent
        ]

    def _edit_entries(self, party, tag, payload):
        post = party.instances.get(tag)
        if self.posts and isinstance(post, Post):
            return self._edit_post(post, payload)
        parent, _, name = tag.rpartition("/")
        carrier = party.instances.get(parent)
        rules = self.entries if name == "acast" else self.late
        if not (rules and isinstance(carrier, BroadcastCarrier) and payload[0] == "init"
                and type(payload[1]) is Bundle):
            return payload
        bundle = list(payload[1].entries)
        for index, endpoint in enumerate(carrier.entries):
            for pattern, edit in rules:
                if pattern.fullmatch(endpoint.tag) and (rules is self.entries or bundle[index]):
                    bundle[index] = edit(bundle[index])
                    break
        return ("init", Bundle(bundle, payload[1].n))

    def _edit_post(self, post, payload):
        lines = []
        for kind, vector in payload:
            vector = list(vector)
            for index, member in enumerate(post.entries):
                for pattern, edit in self.posts:
                    if vector[index] is not None and pattern.fullmatch(member.tag):
                        vector[index] = edit(kind, vector[index])
                        break
            lines.append((kind, tuple(vector)))
        return tuple(lines)


def bundle_tag(root: str, anchor: float, sender: int) -> str:
    """Regex for the tag ``sender``'s bundle anchored at ``anchor`` is Acast on
    (root instance anchored at 0, Δ = 1)."""
    return re.escape(carrier_tag(root, anchor, sender, 1.0) + "/acast")


def late_tag(root: str, anchor: float, sender: int, k: int) -> str:
    """The tag of late carrier ``k`` of that carrier (root anchored at 0, Δ = 1)."""
    return carrier_tag(root, anchor, sender, 1.0) + f"/late[{k}]"


def silent_in(prefix: str) -> RewriteBehavior:
    """A party that takes no part in anything under the tag ``prefix``: it
    sends nothing on those tags, no row or point of the sharings there, and
    gives the ΠBCs there no input."""
    under = re.escape(prefix) + ".*"
    return RewriteBehavior({under: lambda tag, payload: []}, entries={under: lambda value: None},
                           late={under: lambda value: None},
                           posts={under: lambda kind, value: None})


def bundle_entries(edit: Callable[[tuple], object]):
    """``value_of`` for :func:`acast_input` on a carrier's Acast: the sender's
    :class:`Bundle` with its entries replaced by ``edit(entries)``."""
    return lambda bundle: Bundle(edit(bundle.entries), bundle.n)


def acast_input(value_of: Callable[[object], object]):
    """A :class:`RewriteBehavior` edit replacing the sender's Acast input."""
    def edit(tag, payload):
        return [(tag, ("init", value_of(payload[1])) if payload[0] == "init" else payload)]
    return edit


def malformed_nok(value):
    """``("NOK",)`` in place of a verdict, or of every entry of a verdict vector."""
    return ("NOK",) if isinstance(value[0], str) else tuple(("NOK",) for _ in value)


def garbage_star2_dealer() -> RewriteBehavior:
    """A dealer that withholds (W, E, F) and broadcasts ``(5, 7)`` as (E', F')."""
    return RewriteBehavior(entries={"prot/star": lambda value: None},
                           late={"prot/star": lambda value: (5, 7)})


def run_dealer_protocol(
    protocol_cls,
    n: int,
    ts: int,
    ta: int,
    dealer: int,
    polynomials: Optional[List[Polynomial]],
    network: Optional[NetworkModel] = None,
    corrupt: Optional[Dict[int, Behavior]] = None,
    seed: int = 0,
    max_time: Optional[float] = 50_000.0,
    num_polynomials: Optional[int] = None,
    wait_for_all_honest: bool = True,
):
    """Run a dealer-based sharing protocol (ΠWPS or ΠVSS) at every party.

    ``wait_for_all_honest=False`` runs on past the outputs, until no message
    is in flight (or ``max_time``).
    """
    sim = Simulator(n, network=network or SynchronousNetwork(), seed=seed,
                    corrupt=corrupt or {})
    count = num_polynomials if num_polynomials is not None else (
        len(polynomials) if polynomials else 1
    )

    def factory(party):
        return protocol_cls(
            party,
            "prot",
            dealer=dealer,
            ts=ts,
            ta=ta,
            num_polynomials=count,
            polynomials=polynomials if party.id == dealer else None,
            anchor=0.0,
        )

    return sim.run(factory, max_time=max_time, wait_for_all_honest=wait_for_all_honest)


def shares_match_polynomials(result, polynomials: List[Polynomial]) -> bool:
    """Check every honest output against the dealer's polynomials."""
    for pid, shares in result.honest_outputs().items():
        if shares is None or len(shares) != len(polynomials):
            return False
        for poly, share in zip(polynomials, shares):
            if share != poly.evaluate(FIELD.alpha(pid)):
                return False
    return True


def honest_outputs_consistent(result, ts: int) -> bool:
    """For a corrupt dealer: honest outputs must lie on common degree-ts polynomials."""
    from repro.field.polynomial import lagrange_interpolate

    outputs = result.honest_outputs()
    outputs = {pid: shares for pid, shares in outputs.items() if shares is not None}
    if not outputs:
        return True
    lengths = {len(shares) for shares in outputs.values()}
    if len(lengths) != 1:
        return False
    count = lengths.pop()
    pids = sorted(outputs)
    if len(pids) < ts + 1:
        return True
    for index in range(count):
        points = [(FIELD.alpha(pid), outputs[pid][index]) for pid in pids[: ts + 1]]
        poly = lagrange_interpolate(FIELD, points)
        if poly.degree > ts:
            return False
        for pid in pids:
            if outputs[pid][index] != poly.evaluate(FIELD.alpha(pid)):
                return False
    return True


# -- party processes that fail: top-level, so a job spec can carry them ------

def _acast(cls, party):
    message = [party.field(v) for v in (1, 2, 3)] if party.id == 1 else None
    return cls(party, "acast", sender=1, faults=1, message=message)


class ExitingFactory:
    """Acast from party 1; ``party``'s process exits with ``code`` as its
    root instance is built (a party process that dies mid-run)."""

    def __init__(self, party: int, code: int):
        self.party = party
        self.code = code

    def __call__(self, party):
        if party.id == self.party:
            os._exit(self.code)
        return _acast(AcastProtocol, party)


class _RaisingAcast(AcastProtocol):
    def receive(self, sender, payload):
        raise RuntimeError(f"party {self.party.id} refuses a message from {sender}")


class RaisingFactory:
    """Acast from party 1; ``party``'s handler raises on its first message."""

    def __init__(self, party: int):
        self.party = party

    def __call__(self, party):
        return _acast(_RaisingAcast if party.id == self.party else AcastProtocol, party)


class SpinningFactory:
    """Acast from party 1, after every party process spent ``seconds`` of
    its own CPU building its root (work the caller's CPU accounting must see)."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __call__(self, party):
        start = time.process_time()
        while time.process_time() - start < self.seconds:
            pass
        return _acast(AcastProtocol, party)

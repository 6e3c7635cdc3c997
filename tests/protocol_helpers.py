"""Shared helpers for the protocol-level test modules (WPS, VSS, ACS, MPC)."""

from __future__ import annotations

import random
import re
from typing import Callable, Dict, List, Optional

from repro.broadcast.bc import BroadcastCarrier, Bundle, carrier_tag
from repro.field import Polynomial, default_field
from repro.sim import ProtocolRunner, SynchronousNetwork
from repro.sim.adversary import Behavior
from repro.sim.messages import Message
from repro.sim.network import NetworkModel

FIELD = default_field()


def random_polynomial(degree: int, secret: int, seed: int = 0) -> Polynomial:
    return Polynomial.random(FIELD, degree, constant_term=secret, rng=random.Random(seed))


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
    """

    def __init__(self, rules: Optional[Dict[str, Callable]] = None,
                 entries: Optional[Dict[str, Callable]] = None):
        self.rules = [(re.compile(p), edit) for p, edit in (rules or {}).items()]
        self.entries = [(re.compile(p), edit) for p, edit in (entries or {}).items()]

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
        carrier = party.instances.get(tag.rpartition("/")[0])
        if not (self.entries and isinstance(carrier, BroadcastCarrier)
                and tag.endswith("/acast") and payload[0] == "init"):
            return payload
        bundle = list(payload[1].entries)
        for index, endpoint in enumerate(carrier.entries):
            for pattern, edit in self.entries:
                if pattern.fullmatch(endpoint.tag):
                    bundle[index] = edit(bundle[index])
                    break
        return ("init", Bundle(bundle, payload[1].n))


def bundle_tag(root: str, anchor: float, sender: int) -> str:
    """Regex for the tag ``sender``'s bundle anchored at ``anchor`` is Acast on
    (root instance anchored at 0, Δ = 1)."""
    return re.escape(carrier_tag(root, anchor, sender, 1.0) + "/acast")


def silent_in(prefix: str) -> RewriteBehavior:
    """A party that takes no part in anything under the tag ``prefix``: it
    sends nothing on those tags and gives the ΠBCs there no input."""
    under = re.escape(prefix) + ".*"
    return RewriteBehavior({under: lambda tag, payload: []}, entries={under: lambda value: None})


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
    return RewriteBehavior({
        "prot/star2": acast_input(lambda value: (5, 7)),
    }, entries={"prot/star": lambda value: None})


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
    runner = ProtocolRunner(n, network=network or SynchronousNetwork(), seed=seed,
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

    return runner.run(factory, max_time=max_time, wait_for_all_honest=wait_for_all_honest)


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

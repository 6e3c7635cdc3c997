"""FaultPlan: one declarative, seeded, deterministically-replayable chaos plan.

A :class:`FaultPlan` bundles every kind of fault the runtime can inject --
network partitions (symmetric groups or asymmetric directed blocks, with a
heal point), per-link loss/corruption/duplication/reorder schedules, per-link
extra latency, per-party clock skew, and process kill/restart schedules --
into a single object.  It is the only fault injector the runtime has:
``InProcessTransport(faults=plan)``, ``TcpTransport(faults=plan)`` and
``TcpBackend(faults=plan)`` take nothing else.  The transports call
:meth:`FaultPlan.decide` once per non-self handoff; the asyncio backend calls
:meth:`FaultPlan.extra_delay` once per non-self dispatch.

Replay discipline
-----------------

Per-message decisions are order-independent: the decision for message
``seq`` on channel ``sender -> recipient`` is a pure function of
``sha256(f"plan:{seed}:{sender}:{recipient}:{seq}")``, where ``seq`` is the
per-channel handoff number both transports assign identically.  Two
transports fed the same message sequence per channel therefore fault the
*same* messages regardless of global interleaving -- which is why a chaos
failure seen over :class:`~repro.runtime.tcp_transport.TcpTransport`
reproduces bit-identically on the in-process virtual-clock simulator from
``(plan spec, seed)`` alone.

Rules can be windowed two ways:

* **seq windows** (``from_seq`` / ``until_seq``) key off the per-channel
  handoff number -- exact on *every* transport and clock, and the only kind
  the cross-transport replay-equivalence test uses;
* **time windows** (``from_time`` / ``until_time`` / ``heal_at``) key off the
  message's send time -- deterministic under the virtual clock, best-effort
  wall-clock emulation over real sockets (send times are then genuine clock
  readings).

Every decision is appended to :attr:`FaultPlan.log` as ``(cause, sender,
recipient, seq)``; ``cause`` names the rule class that fired (``partition``
and ``corrupt`` both *deliver nothing* -- a partitioned frame never arrives,
a corrupted frame fails its integrity check and is discarded -- but the log
distinguishes them for post-mortems).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field as dc_field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.runtime.transport import DELIVER, DROP, DUPLICATE, HOLD

#: Detailed decision causes recorded in the plan log (the transport only
#: ever sees the four canonical decision strings).
PARTITIONED, CORRUPTED = "partition", "corrupt"


def _hash_draw(salt: str, seed: int, sender: int, recipient: int, seq: int) -> float:
    digest = hashlib.sha256(
        f"{salt}:{seed}:{sender}:{recipient}:{seq}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def _window_applies(
    rule, seq: int, send_time: float
) -> bool:
    """Shared seq/time windowing for every rule kind."""
    if seq < rule.from_seq:
        return False
    if rule.until_seq is not None and seq >= rule.until_seq:
        return False
    if send_time < rule.from_time:
        return False
    until_time = getattr(rule, "until_time", None)
    if until_time is not None and send_time >= until_time:
        return False
    return True


@dataclass(frozen=True)
class LinkFault:
    """Probabilistic loss/corruption/reorder/duplication on matching links.

    ``sender`` / ``recipient`` of ``None`` match any party; the windows gate
    when the rule is active (see the module docstring).  The first matching
    rule wins, so specific links can override blanket rules by ordering.
    """

    sender: Optional[int] = None
    recipient: Optional[int] = None
    drop: float = 0.0
    corrupt: float = 0.0
    reorder: float = 0.0
    duplicate: float = 0.0
    from_seq: int = 0
    until_seq: Optional[int] = None
    from_time: float = 0.0
    until_time: Optional[float] = None

    def __post_init__(self):
        for name in ("drop", "corrupt", "reorder", "duplicate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"LinkFault.{name} must be in [0, 1], got {p}")
        if self.drop + self.corrupt + self.reorder + self.duplicate > 1.0:
            raise ValueError(
                "drop + corrupt + reorder + duplicate must not exceed 1 (they "
                "partition one shared hash draw; duplicate takes its upper tail)"
            )

    def matches(self, sender: int, recipient: int) -> bool:
        return (self.sender is None or self.sender == sender) and (
            self.recipient is None or self.recipient == recipient
        )


@dataclass(frozen=True)
class Partition:
    """A network partition: matching frames are silently lost while active.

    ``groups`` is the symmetric form -- a tuple of party-id groups where
    traffic *between* different groups is blocked (parties in no group
    communicate freely with everyone).  ``blocks`` is the asymmetric form --
    directed ``(sender, recipient)`` pairs that are blocked one-way.  The
    partition heals at ``until_seq`` / ``heal_at``: frames sent from then on
    flow again, but nothing lost during the partition is retransmitted by
    the network (protocols own their liveness, exactly as with drops).
    """

    groups: Tuple[FrozenSet[int], ...] = ()
    blocks: Tuple[Tuple[int, int], ...] = ()
    from_seq: int = 0
    until_seq: Optional[int] = None
    from_time: float = 0.0
    heal_at: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(
            self, "groups", tuple(frozenset(group) for group in self.groups)
        )
        object.__setattr__(
            self, "blocks", tuple((int(s), int(r)) for s, r in self.blocks)
        )
        seen: set = set()
        for group in self.groups:
            overlap = seen & group
            if overlap:
                raise ValueError(f"party {sorted(overlap)} in multiple groups")
            seen |= group

    # `heal_at` plays the until_time role in the shared window check.
    @property
    def until_time(self) -> Optional[float]:
        return self.heal_at

    def blocks_channel(self, sender: int, recipient: int) -> bool:
        if (sender, recipient) in self.blocks:
            return True
        sender_group = recipient_group = None
        for index, group in enumerate(self.groups):
            if sender in group:
                sender_group = index
            if recipient in group:
                recipient_group = index
        return (
            sender_group is not None
            and recipient_group is not None
            and sender_group != recipient_group
        )


@dataclass(frozen=True)
class LinkLatency:
    """Extra delivery delay on matching links (units of simulated time).

    ``base`` is added to every matching message's network delay; ``jitter``
    adds a deterministic per-message hash draw in ``[0, jitter)``.  Applied
    by the backend at dispatch time, so it works identically under the
    virtual clock (delays are simulated) and the real clock/TCP (delays are
    slept, x ``time_scale`` real seconds per unit).  This is the WAN
    emulation: one rule per slow link, first match wins.
    """

    sender: Optional[int] = None
    recipient: Optional[int] = None
    base: float = 0.0
    jitter: float = 0.0
    from_seq: int = 0
    until_seq: Optional[int] = None
    from_time: float = 0.0
    until_time: Optional[float] = None

    def __post_init__(self):
        if self.base < 0 or self.jitter < 0:
            raise ValueError("latency base and jitter must be non-negative")

    def matches(self, sender: int, recipient: int) -> bool:
        return (self.sender is None or self.sender == sender) and (
            self.recipient is None or self.recipient == recipient
        )


@dataclass(frozen=True)
class ProcessFault:
    """Kill (and optionally restart) a party's OS process.

    Interpreted by the supervising layer, not the transport: the TCP
    service supervisor SIGKILLs the party process ``kill_after`` real
    seconds into the evaluation stream and -- when ``restart`` -- respawns
    it from its latest snapshot after ``restart_after`` further seconds;
    the chaos campaign maps a kill onto ``backend.crash_party`` at the
    equivalent simulated time (crash-stop is the simulator's process
    death).  ``sim_time`` carries that simulated-clock kill time.
    """

    party: int
    kill_after: float = 0.0
    restart: bool = True
    restart_after: float = 0.0
    sim_time: Optional[float] = None


class FaultPlan:
    """The unified declarative fault plane (see module docstring).

    The ``transport.faults`` object: ``decide`` returns the canonical
    decision strings of :mod:`repro.runtime.transport`.
    """

    def __init__(
        self,
        seed: int = 0,
        link_faults: Sequence[LinkFault] = (),
        partitions: Sequence[Partition] = (),
        latencies: Sequence[LinkLatency] = (),
        clock_skews: Optional[Dict[int, float]] = None,
        process_faults: Sequence[ProcessFault] = (),
    ):
        self.seed = int(seed)
        self.link_faults = tuple(link_faults)
        self.partitions = tuple(partitions)
        self.latencies = tuple(latencies)
        self.clock_skews = {int(p): float(s) for p, s in (clock_skews or {}).items()}
        for party, skew in self.clock_skews.items():
            if skew < 0:
                raise ValueError(
                    f"clock skew for party {party} must be non-negative "
                    "(a skewed clock delays outbound messages; the network "
                    "cannot deliver into the past)"
                )
        self.process_faults = tuple(process_faults)
        #: Decision log: ``(cause, sender, recipient, seq)`` per decision,
        #: causes being deliver/duplicate/hold/drop/partition/corrupt.
        self.log: List[Tuple[str, int, int, int]] = []
        #: Per-channel dispatch counter for latency draws (independent of
        #: the transport's handoff seq, which is drawn at delivery handoff).
        self._lat_seq: Dict[Tuple[int, int], int] = {}

    # -- the transport-facing decision interface ----------------------------
    def decide(
        self,
        sender: int,
        recipient: int,
        seq: int,
        can_hold: bool,
        send_time: float = 0.0,
    ) -> str:
        for partition in self.partitions:
            if _window_applies(partition, seq, send_time) and partition.blocks_channel(
                sender, recipient
            ):
                self.log.append((PARTITIONED, sender, recipient, seq))
                return DROP
        rule = next(
            (
                r
                for r in self.link_faults
                if r.matches(sender, recipient) and _window_applies(r, seq, send_time)
            ),
            None,
        )
        if rule is None:
            self.log.append((DELIVER, sender, recipient, seq))
            return DELIVER
        draw = _hash_draw("plan", self.seed, sender, recipient, seq)
        if draw < rule.drop:
            cause = decision = DROP
        elif draw < rule.drop + rule.corrupt:
            # A corrupted frame is detected (checksums) and discarded: the
            # delivery effect is a drop, the log remembers the cause.
            cause, decision = CORRUPTED, DROP
        elif can_hold and draw < rule.drop + rule.corrupt + rule.reorder:
            cause = decision = HOLD
        elif draw > 1.0 - rule.duplicate:
            cause = decision = DUPLICATE
        else:
            cause = decision = DELIVER
        self.log.append((cause, sender, recipient, seq))
        return decision

    def extra_delay(self, sender: int, recipient: int, send_time: float) -> float:
        """Additional simulated-time delivery delay for one dispatch.

        Sum of the matching latency rules (first match, like link faults)
        plus the sender's clock skew; drawn against a per-channel dispatch
        counter so jitter replays deterministically in dispatch order.
        """
        key = (sender, recipient)
        seq = self._lat_seq.get(key, 0)
        self._lat_seq[key] = seq + 1
        delay = self.clock_skews.get(sender, 0.0)
        rule = next(
            (
                r
                for r in self.latencies
                if r.matches(sender, recipient) and _window_applies(r, seq, send_time)
            ),
            None,
        )
        if rule is not None:
            delay += rule.base
            if rule.jitter:
                delay += rule.jitter * _hash_draw(
                    "lat", self.seed, sender, recipient, seq
                )
        return delay

    # -- introspection -------------------------------------------------------
    def loses_messages(self) -> bool:
        """Whether this plan can make honest messages vanish.

        Drops, corruption, and partitions all violate eventual delivery, so
        runs under such a plan must not be asserted live (the guarantee
        table's rule for drop faults); reorder/duplicate/latency/skew are
        delivery-preserving.
        """
        return bool(self.partitions) or any(
            rule.drop > 0 or rule.corrupt > 0 for rule in self.link_faults
        )

    def breaks_synchrony(self) -> bool:
        """Whether this plan can stretch deliveries past the sync bound.

        Injected link latency and clock skew delay messages beyond the
        Delta the synchronous network model promises, so a synchronous run
        under such a plan only keeps the paper's *asynchronous* guarantees
        (corruption threshold ``t_a``): deadline-driven sub-protocols
        lawfully output bottom and the best-of-both fallback paths carry
        the run.  Delivery is still eventual -- this is orthogonal to
        :meth:`loses_messages`.
        """
        if any(skew > 0 for skew in self.clock_skews.values()):
            return True
        return any(rule.base > 0 or rule.jitter > 0 for rule in self.latencies)

    def killed_parties(self) -> List[int]:
        return sorted({pf.party for pf in self.process_faults})

    # -- canonical form: spec / hash / replay --------------------------------
    def spec(self) -> Dict:
        """JSON-able canonical form; ``from_spec`` round-trips it."""
        return {
            "seed": self.seed,
            "link_faults": [asdict(rule) for rule in self.link_faults],
            "partitions": [
                {
                    "groups": [sorted(group) for group in p.groups],
                    "blocks": [list(pair) for pair in p.blocks],
                    "from_seq": p.from_seq,
                    "until_seq": p.until_seq,
                    "from_time": p.from_time,
                    "heal_at": p.heal_at,
                }
                for p in self.partitions
            ],
            "latencies": [asdict(rule) for rule in self.latencies],
            "clock_skews": {str(p): s for p, s in sorted(self.clock_skews.items())},
            "process_faults": [asdict(pf) for pf in self.process_faults],
        }

    @classmethod
    def from_spec(cls, spec: Dict) -> "FaultPlan":
        return cls(
            seed=spec.get("seed", 0),
            link_faults=[LinkFault(**rule) for rule in spec.get("link_faults", ())],
            partitions=[
                Partition(
                    groups=tuple(frozenset(g) for g in p.get("groups", ())),
                    blocks=tuple(tuple(b) for b in p.get("blocks", ())),
                    from_seq=p.get("from_seq", 0),
                    until_seq=p.get("until_seq"),
                    from_time=p.get("from_time", 0.0),
                    heal_at=p.get("heal_at"),
                )
                for p in spec.get("partitions", ())
            ],
            latencies=[LinkLatency(**rule) for rule in spec.get("latencies", ())],
            clock_skews={int(p): s for p, s in spec.get("clock_skews", {}).items()},
            process_faults=[
                ProcessFault(**pf) for pf in spec.get("process_faults", ())
            ],
        )

    def plan_hash(self) -> str:
        """Short stable digest of the canonical spec (names artifacts/logs)."""
        blob = json.dumps(self.spec(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def fresh(self) -> "FaultPlan":
        """A state-free copy (empty log/counters) for an independent run."""
        return FaultPlan.from_spec(self.spec())

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, hash={self.plan_hash()}, "
            f"{len(self.link_faults)} link rule(s), "
            f"{len(self.partitions)} partition(s), "
            f"{len(self.latencies)} latency rule(s), "
            f"{len(self.clock_skews)} skewed clock(s), "
            f"{len(self.process_faults)} process fault(s))"
        )

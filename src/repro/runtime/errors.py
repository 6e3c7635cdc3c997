"""Typed errors of the runtime's transport and process-supervision layers.

The delivery fabric can fail in structurally different ways -- a frame that
cannot be flushed within its timeout, a replay buffer that overflows because
the peer stayed unreachable, a channel whose reconnect budget ran out, a
party process that died without being scheduled to -- and callers (the
launcher watchdog, the chaos campaign, the TCP service supervisor) react
differently to each.  Stringly-typed ``RuntimeError``s forced them to parse
messages; these classes carry the channel/party identity as attributes
instead, mirroring :mod:`repro.service.errors` for the service layer.
:class:`ScheduleMiss` is a record, not raised: a late delivery, handled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence


@dataclass(frozen=True)
class ScheduleMiss:
    """A message handled after the instant it was due (real clock, sockets).

    The receiving scheduler had already served ``due`` -- the sender's lag
    plus the socket's latency exceeded a Δ of wall time, or a reorder fault
    held the message -- so it was handled at ``handled_at``, its nominal now:
    an asynchronous delivery, recorded on ``AsyncioBackend.schedule_misses``
    (merged into ``TcpBackend.schedule_misses``) and logged, never dropped.
    """

    party: int
    sender: int
    tag: str
    due: float
    handled_at: float

    @property
    def lag(self) -> float:
        """How late, in nominal time units (Δ = 1 by default)."""
        return self.handled_at - self.due


class TransportError(RuntimeError):
    """Base class for delivery-fabric failures."""


class SendTimeoutError(TransportError):
    """A frame could not be flushed to the socket within ``timeout`` seconds.

    Raised per-frame by the self-healing channel writer when ``send_timeout``
    is configured; the channel then tears down the connection and retries
    under its reconnect policy, so the error surfaces only once the budget
    is exhausted (see :class:`ChannelBrokenError.cause`).
    """

    def __init__(self, sender: int, recipient: int, timeout: float):
        self.sender = sender
        self.recipient = recipient
        self.timeout = timeout
        super().__init__(
            f"channel P{sender}->P{recipient}: frame not flushed within "
            f"{timeout}s (peer stalled or network wedged)"
        )


class SendBufferOverflowError(TransportError):
    """The bounded per-channel replay buffer filled up.

    The self-healing transport keeps every unacknowledged frame for replay
    after a reconnect; if the peer stays unreachable long enough for
    ``send_buffer_frames`` to accumulate, continuing would mean silently
    dropping frames -- so the transport fails loudly instead.
    """

    def __init__(self, sender: int, recipient: int, capacity: int):
        self.sender = sender
        self.recipient = recipient
        self.capacity = capacity
        super().__init__(
            f"channel P{sender}->P{recipient}: replay buffer overflow "
            f"({capacity} unacknowledged frames; peer unreachable too long)"
        )


class ChannelBrokenError(TransportError):
    """A channel exhausted its reconnect budget (or could never connect)."""

    def __init__(
        self,
        sender: int,
        recipient: int,
        attempts: int,
        cause: Optional[BaseException] = None,
    ):
        self.sender = sender
        self.recipient = recipient
        self.attempts = attempts
        self.cause = cause
        detail = f": {cause!r}" if cause is not None else ""
        super().__init__(
            f"channel P{sender}->P{recipient} broken after {attempts} "
            f"reconnect attempt(s){detail}"
        )


class WireDecodeError(TransportError, ValueError):
    """Bytes read from a peer socket do not decode to what the codec wrote.

    Everything a peer controls is covered: an envelope ``count`` or entry
    length larger than the bytes that follow it, a residue ``count`` larger
    than its array, trailing bytes, an envelope mixing channels or landing
    at the wrong listener, and any failure inside an entry's own decode.
    Also a ``ValueError``, which is what these sites raised before they
    were typed.
    """


class PartyProcessDied(TransportError):
    """A party's OS process exited without reporting (launcher watchdog).

    ``exit_codes`` maps the dead party ids to their process return codes.
    ``scheduled`` lists the subset whose party had a *deliberate* crash
    scheduled (``crash_party`` / a fault plan's process faults) -- their
    death may be part of the experiment; ``unexpected`` lists the rest,
    which a supervisor should restart (or surface).  The old watchdog
    conflated the two in one generic ``RuntimeError``.
    """

    def __init__(
        self,
        exit_codes: Dict[int, Optional[int]],
        scheduled: Sequence[int] = (),
    ):
        self.exit_codes = dict(exit_codes)
        self.scheduled = sorted(scheduled)
        self.unexpected = sorted(set(self.exit_codes) - set(self.scheduled))
        parts = []
        if self.unexpected:
            parts.append(
                "unexpected death of party process(es) "
                f"{self.unexpected} (exit codes "
                f"{[self.exit_codes[p] for p in self.unexpected]})"
            )
        if self.scheduled:
            parts.append(
                f"scheduled-crash party process(es) {self.scheduled} exited "
                "before reporting (exit codes "
                f"{[self.exit_codes[p] for p in self.scheduled]})"
            )
        super().__init__("; ".join(parts) or "party process died")

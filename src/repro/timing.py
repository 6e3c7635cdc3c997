"""Timing helpers shared by the protocol implementations.

The paper's protocols evaluate conditions "at time T" where T is a known
multiple of sub-protocol time-outs.  In the discrete-event simulation,
several timers can share the same nominal timestamp (e.g. a ΠBC instance's
regular-mode decision and its parent's acceptance check); composite
protocols therefore nudge their evaluation timers by a tiny epsilon so that
sub-protocol outputs are always published first.  The epsilon is negligible
compared to Delta and is accounted for in the exported time-bound helpers.
"""

from __future__ import annotations


def epsilon(delta: float) -> float:
    """Tie-breaking nudge used when composing timers: Delta / 1000."""
    return delta * 1e-3


def ticks(offset: float, delta: float) -> int:
    """``offset`` in ε(Δ), an exact integer that names a carrier's instant."""
    return round(offset / epsilon(delta))


def next_multiple_of_delta(now: float, delta: float) -> float:
    """Smallest multiple of Delta that is >= now (with epsilon tolerance).

    Implements the paper's "wait till the local time becomes a multiple of
    Delta" instruction.  Times that are within epsilon of a multiple count as
    that multiple, so tiny composition nudges do not cost a whole round.
    """
    tol = epsilon(delta)
    quotient = int((now - tol) / delta) if now > tol else 0
    candidate = quotient * delta
    if candidate + tol >= now:
        return max(candidate, now)
    return (quotient + 1) * delta

"""Measurement helpers for the communication-scaling experiments."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit of y = c * x^k in log-log space; returns (k, c).

    Used to compare the measured growth of communication with the paper's
    asymptotic exponents (e.g. ΠVSS should grow roughly like n^5 for fixed L).
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) samples")
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(y) for y in ys]
    n = len(xs)
    mean_x = sum(log_x) / n
    mean_y = sum(log_y) / n
    covariance = sum((lx - mean_x) * (ly - mean_y) for lx, ly in zip(log_x, log_y))
    variance = sum((lx - mean_x) ** 2 for lx in log_x)
    slope = covariance / variance if variance else 0.0
    intercept = mean_y - slope * mean_x
    return slope, math.exp(intercept)


def communication_summary(metrics) -> Dict[str, float]:
    """Flatten a :class:`SimulationMetrics` object into a plain dict."""
    return {
        "messages_sent": float(metrics.messages_sent),
        "messages_delivered": float(metrics.messages_delivered),
        "honest_bits": float(metrics.honest_bits),
        "total_bits": float(metrics.total_bits),
        "max_message_bits": float(getattr(metrics, "max_message_bits", 0)),
        "max_round_bits": float(max_round_bits(metrics)),
    }


# -- per-round and per-message size accounting ---------------------------------


def per_round_bits(metrics) -> Dict[int, int]:
    """Bits sent per synchronous round (send time bucketed by Delta)."""
    return dict(getattr(metrics, "bits_by_round", {}))


def max_round_bits(metrics) -> int:
    """The heaviest single round of the execution, in bits."""
    rounds = getattr(metrics, "bits_by_round", {})
    return max(rounds.values()) if rounds else 0


def max_message_bits(metrics, tag_prefix: Optional[str] = None) -> int:
    """The largest single message, optionally restricted to a root tag prefix."""
    if tag_prefix is None:
        return getattr(metrics, "max_message_bits", 0)
    return getattr(metrics, "max_message_bits_by_tag_prefix", {}).get(tag_prefix, 0)


def sibling_sharings(n: int, offline: str = "tripsh", inputs: bool = True) -> int:
    """How many ΠVSS instances an evaluation's preprocessing anchors at one instant.

    ``"tripsh"``: every dealer's ΠTripSh runs a ΠACS (n ΠVSS) and one ΠVSS of
    its own; ``"him"``: one ΠACS.  ``inputs`` adds the input ΠACS of
    ΠCirEval, which starts with the preprocessing.
    """
    preprocessing = n * (n + 1) if offline == "tripsh" else n
    return preprocessing + (n if inputs else 0)


def bundle_message_bound(
    n: int, ts: int, sharings: int, element_bits: int, header_bits: int = 64
) -> int:
    """Upper bound on any message an honest party sends on a carrier's own
    tags (its Acast, its late carriers, the phase-king bank of its instant, a
    ΠABA carrier).

    All ΠBCs one party owes at one instant ride one bundle
    (:mod:`repro.broadcast.bc`), whose size depends on n and on ``sharings``,
    the number of sibling ΠVSS anchored together (:func:`sibling_sharings`),
    not on L.  By the bundle's price list the two heaviest
    are the verdict vectors of the n ΠWPS under each ΠVSS (2 bits a slot, at
    most t_s of the n a NOK with its 64-bit index and its value) and the
    (W, E, F) of the ΠWPS the party deals in each ΠVSS (three n-bit sets);
    the Acast kind in front costs at most 64 bits.

    A late carrier's entries are no heavier.  The third term is a ΠABA vector
    (:class:`repro.ba.aba.AbaCarrier`): 2 bits per slot launched at one
    instant, at most the n slots of each of the ``sharings`` ``wps_ba`` banks,
    behind a step name and a round number (96 bits).  It also covers a
    phase-king bank vector (``<root>/bc@<ticks>/sba``, :mod:`repro.ba.sba`):
    n votes at 2 bits a slot behind a 64-bit round number.
    """
    verdicts = sharings * n * (2 * n + ts * (64 + element_bits))
    stars = sharings * 3 * n
    aba_vector = sharings * n * 2 + 96
    return max(max(verdicts, stars) + 64, aba_vector) + header_bits

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


# -- per-round message-size accounting ----------------------------------------
#
# The round-sharded preprocessing (ΠPreProcessing with ``shard_size`` set)
# bounds how many triple payloads any single protocol round carries; these
# helpers turn the simulator's raw counters into the quantities the sharding
# contract is stated in.


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


def sharded_triple_message_bound(
    shard_size: int,
    ts: int,
    element_bits: int,
    header_bits: int = 64,
    offline: str = "tripsh",
) -> int:
    """Upper bound on any single triple-sharing message under round sharding.

    The bound is offline-mode-aware, because the two pipelines put different
    payloads behind one ``shard_size`` knob:

    - ``"tripsh"``: a ΠTripSh shard of ``shard_size`` triples makes its
      dealer VSS-distribute ``shard_size * 3 * (2*ts + 1)`` degree-t_s
      polynomials.
    - ``"him"``: an HIM round of ``shard_size`` *slots* makes each dealer
      ACS-share ``shard_size * POLYNOMIALS_PER_SLOT`` polynomials (two
      unverified triples + one extraction input per slot); the later
      reconstruction waves carry at most ``2 * (n - ts) * shard_size``
      elements per message, which the dealing message dominates for every
      admissible ``n <= 3*ts + 1 + ta``.

    The heaviest message of either pipeline is the dealer row-distribution
    message (one degree-t_s row, i.e. ``ts + 1`` coefficients, per
    polynomial).  The slack term covers the message header, the payload-kind
    marker string and per-container accounting overhead.
    """
    if offline == "him":
        from repro.triples.him import POLYNOMIALS_PER_SLOT

        polynomials = shard_size * POLYNOMIALS_PER_SLOT
    elif offline == "tripsh":
        polynomials = shard_size * 3 * (2 * ts + 1)
    else:
        raise ValueError(f"unknown offline mode {offline!r}")
    slack = header_bits + 8 * 16
    return polynomials * (ts + 1) * element_bits + slack


def sibling_sharings(n: int, offline: str = "tripsh", inputs: bool = True) -> int:
    """How many ΠVSS instances one round of an evaluation anchors at one instant.

    ``"tripsh"``: every dealer's ΠTripSh runs a ΠACS (n ΠVSS) and one ΠVSS of
    its own; ``"him"``: one ΠACS per round.  ``inputs`` adds the input ΠACS of
    ΠCirEval, which starts with the first round.
    """
    per_round = n * (n + 1) if offline == "tripsh" else n
    return per_round + (n if inputs else 0)


def bundle_message_bound(
    n: int, ts: int, sharings: int, element_bits: int, header_bits: int = 64
) -> int:
    """Upper bound on any message an honest party sends on a carrier's tags.

    All ΠBCs one party owes at one instant ride one bundle
    (:mod:`repro.broadcast.bc`), whose size depends on n and on ``sharings``,
    the number of sibling ΠVSS anchored together (:func:`sibling_sharings`),
    not on L or ``shard_size``.  By the bundle's price list the two heaviest
    are the verdict vectors of the n ΠWPS under each ΠVSS (2 bits a slot, at
    most t_s of the n a NOK with its 64-bit index and its value) and the
    (W, E, F) of the ΠWPS the party deals in each ΠVSS (three n-bit sets);
    the Acast kind or phase-king round number in front costs at most 64 bits.

    The third term is a ΠABA vector (:class:`repro.ba.aba.AbaCarrier`): 64 bits
    per slot launched at one instant, at most the n slots of each of the
    ``sharings`` ``wps_ba`` banks, behind a step name and a round number (96
    bits).  With no NOK to report it is the heaviest of the three -- 6,304
    bits at n = 4 -- and so the heaviest message of an honest run.
    """
    verdicts = sharings * n * (2 * n + ts * (64 + element_bits)) + 64
    stars = sharings * 3 * n + 64
    aba_vector = sharings * n * 64 + 96
    return max(verdicts, stars, aba_vector) + header_bits

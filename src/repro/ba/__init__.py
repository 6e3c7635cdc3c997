"""Byzantine agreement: synchronous (phase-king), asynchronous (randomized),
and the paper's best-of-both-worlds combination ΠBA.

``BestOfBothWorldsBA`` lives in :mod:`repro.ba.bobw` and is imported from
there: ΠBC uses the phase-king SBA and ΠBA uses ΠBC, so this package does
not load it.  A ``BrachaABA`` is a record that an ``AbaCarrier`` holds and
launches, not an instance: a standalone ΠABA is a one-slot carrier.
"""

from repro.ba.sba import PhaseKingSBA, sba_time_bound
from repro.ba.common_coin import CommonCoin
from repro.ba.aba import AbaCarrier, BrachaABA, aba_unanimous_time_bound, aba_nominal_time_bound

__all__ = [
    "PhaseKingSBA",
    "sba_time_bound",
    "CommonCoin",
    "AbaCarrier",
    "BrachaABA",
    "aba_unanimous_time_bound",
    "aba_nominal_time_bound",
]

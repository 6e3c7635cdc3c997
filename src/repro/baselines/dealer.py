"""Idealized offline dealer used only by the *baseline* protocols.

The paper's comparison points are classical synchronous MPC (t_s < n/3) and
asynchronous MPC (t_a < n/4).  Re-implementing their full preprocessing
phases is out of scope for the baselines (the best-of-both-worlds protocol
has its own complete preprocessing in :mod:`repro.triples`); instead the
baselines consume Beaver triples from this idealized trusted dealer, so the
experiments compare the *online* behaviour -- timeout-driven versus
event-driven progress, sharing degree, and which inputs are included --
which is where the paper's qualitative claims live.  The substitution is
listed under "Deviations from the paper" in README.md.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.field.gf import GF
from repro.sharing.shamir import SharedValue, share_secret


class TrustedTripleDealer:
    """Generates complete Beaver-triple sharings for the baseline protocols."""

    def __init__(self, field: GF, n: int, degree: int, seed: int = 0):
        self.field = field
        self.n = n
        self.degree = degree
        self.rng = random.Random(seed)

    def triples(self, count: int) -> List[Tuple[SharedValue, SharedValue, SharedValue]]:
        result = []
        for _ in range(count):
            a = self.field.random(self.rng)
            b = self.field.random(self.rng)
            result.append(
                (
                    share_secret(self.field, a, self.degree, self.n, rng=self.rng),
                    share_secret(self.field, b, self.degree, self.n, rng=self.rng),
                    share_secret(self.field, a * b, self.degree, self.n, rng=self.rng),
                )
            )
        return result

    def triple_shares_for(self, count: int) -> Dict[int, List[Tuple]]:
        """Per-party view: party id -> list of (a, b, c) share tuples."""
        triples = self.triples(count)
        views: Dict[int, List[Tuple]] = {i: [] for i in range(1, self.n + 1)}
        for a, b, c in triples:
            for i in range(1, self.n + 1):
                views[i].append((a.share_of(i), b.share_of(i), c.share_of(i)))
        return views

"""Ideal common-coin functionality used by the randomized ABA.

The ABA protocols the paper builds on ([3, 7]) obtain their shared
randomness from shunning-AVSS-based common coins.  The paper uses ΠABA
strictly as a black box (Lemma 3.3), so we substitute an ideal coin: every
party querying ``coin(instance_tag, round)`` receives the same uniformly
random bit, derived from a seed the (static) adversary does not know.  The
substitution is listed under "Deviations from the paper" in README.md.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple


class CommonCoin:
    """Deterministic pseudo-random shared coin keyed by (tag, round)."""

    def __init__(self, seed: int = 0xC0DEC0DE):
        self.seed = seed
        self._cache: Dict[Tuple[str, int], int] = {}

    def flip(self, tag: str, round_index: int) -> int:
        """Return the common coin value (0 or 1) for a given instance round."""
        key = (tag, round_index)
        if key not in self._cache:
            digest = hashlib.sha256(
                f"{self.seed}:{tag}:{round_index}".encode("utf-8")
            ).digest()
            self._cache[key] = digest[0] & 1
        return self._cache[key]

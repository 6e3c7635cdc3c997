"""ΠBeaver: Beaver's multiplication protocol on t_s-shared values (Fig 6).

Given shares of (x, y) and of a multiplication triple (a, b, c), the parties
publicly reconstruct e = x - a and d = y - b and locally compute
[z] = d*e + e*[b] + d*[a] + [c], which is a sharing of x*y whenever
c = a*b.  This instance processes a batch of multiplications at once (one
public-reconstruction round for the whole batch).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.field.gf import FieldElement
from repro.sim.party import Party, ProtocolInstance
from repro.triples.reconstruction import PublicReconstruction

#: One Beaver job: this party's shares of (x, y, a, b, c).
BeaverInput = Tuple[FieldElement, FieldElement, FieldElement, FieldElement, FieldElement]


class BeaverMultiplication(ProtocolInstance):
    """Batched Beaver multiplication.

    ``jobs`` is a list of (x, y, a, b, c) share tuples; the output is the
    list of this party's shares of the products x*y (assuming each (a, b, c)
    is a correct multiplication triple).
    """

    def __init__(self, party: Party, tag: str, ts: int, jobs: Sequence[BeaverInput]):
        super().__init__(party, tag)
        self.ts = ts
        self.jobs = list(jobs)

    def start(self) -> None:
        masked: List[FieldElement] = []
        for x_share, y_share, a_share, b_share, _c_share in self.jobs:
            masked.append(x_share - a_share)  # e = x - a
            masked.append(y_share - b_share)  # d = y - b
        reconstruction = self.spawn(
            PublicReconstruction, "open", degree=self.ts, faults=self.ts, shares=masked
        )
        reconstruction.on_output(self._finish)
        reconstruction.start()

    def _finish(self, opened: List[FieldElement]) -> None:
        outputs: List[FieldElement] = []
        for index, (_x, _y, a_share, b_share, c_share) in enumerate(self.jobs):
            e_value = opened[2 * index]
            d_value = opened[2 * index + 1]
            z_share = d_value * e_value + e_value * b_share + d_value * a_share + c_share
            outputs.append(z_share)
        self.set_output(outputs)

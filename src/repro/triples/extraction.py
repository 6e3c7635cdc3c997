"""ΠTripExt: triple extraction (Fig 9 / Lemma 6.4).

Given 2d+1 t_s-shared multiplication triples contributed by the parties of a
common subset CS (d >= t_s), the parties transform them with ΠTripTrans and
locally output the shares of d+1-t_s *new* points (at the public beta
points) on the underlying polynomials -- multiplication triples that are
random from the adversary's point of view, because it knows at most t_s of
the input triples.

Fig 10 runs L such extractions in parallel, one per group of 2d+1 triples.
Here one instance takes all L groups and runs one ΠTripTrans over them, so
their ΠBeaver masks are opened in one public reconstruction: the same values
to the same parties with the same OEC(t_s, t_s), in one message per peer
instead of L.  Each group's output is the one its own instance would give.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.sim.party import Party, ProtocolInstance
from repro.triples.transform import (
    TripleTransformation,
    TripleShares,
    extend_shares_batch,
)


class TripleExtraction(ProtocolInstance):
    """ΠTripExt over ``groups``, each this party's shares of 2d+1 input
    triples (ordered by the public ordering of CS).

    The output has one entry per group: its d+1-t_s extracted triple shares.
    All groups are transformed by one ΠTripTrans, hence open their masks in
    one public reconstruction.
    """

    def __init__(
        self, party: Party, tag: str, ts: int, d: int, groups: Sequence[Sequence[TripleShares]]
    ):
        super().__init__(party, tag)
        self.ts = ts
        self.d = d
        self.groups = groups

    def start(self) -> None:
        transformation = self.spawn(
            TripleTransformation, "trans", ts=self.ts, d=self.d, groups=self.groups
        )
        transformation.on_output(self._finish)
        transformation.start()

    def _finish(self, transformed: List[List[TripleShares]]) -> None:
        count = self.d + 1 - self.ts
        betas = [self.field.beta(j) for j in range(1, count + 1)]
        # One cached Lagrange matrix per degree evaluates every beta of every group.
        xy_rows = [[triple[c] for triple in group] for group in transformed for c in (0, 1)]
        z_rows = [[triple[2] for triple in group] for group in transformed]
        xy_out = extend_shares_batch(self.field, xy_rows, self.d, betas)
        z_out = extend_shares_batch(self.field, z_rows, 2 * self.d, betas)
        self.set_output([
            list(zip(xy_out[2 * k], xy_out[2 * k + 1], z_out[k])) for k in range(len(transformed))
        ])

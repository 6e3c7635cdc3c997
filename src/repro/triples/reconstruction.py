"""Public reconstruction of t_s-shared values via Online Error Correction.

Several protocols (ΠBeaver, the suspected-triple checks of ΠTripSh, and the
output phase of ΠCirEval) publicly reconstruct shared values by having every
party send its shares to everyone and applying OEC(t_s, t_s, P) on the
received shares.  This instance batches any number of values: one
:class:`~repro.codes.oec.BatchOnlineErrorCorrector` decodes all values per
incoming share vector, amortizing the interpolation matrices across the
batch, and the outgoing share vectors cross the wire as
:class:`~repro.broadcast.acast.PackedFieldVector` payloads (int residues,
decoded back to boxed elements on receive, with the same bit accounting as
the element list).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.broadcast.acast import PackedFieldVector, maybe_pack_payload
from repro.codes.oec import BatchOnlineErrorCorrector
from repro.field.gf import FieldElement
from repro.sim.party import Party, ProtocolInstance


class PublicReconstruction(ProtocolInstance):
    """Publicly reconstruct a batch of d-shared values.

    ``shares`` is this party's share of each value (in order); the output is
    the list of reconstructed values.  Reconstruction tolerates up to
    ``faults`` incorrect shares per value via OEC.
    """

    def __init__(
        self,
        party: Party,
        tag: str,
        degree: int,
        faults: int,
        shares: Optional[Sequence[FieldElement]] = None,
    ):
        super().__init__(party, tag)
        self.degree = degree
        self.faults = faults
        self.shares = list(shares) if shares is not None else None
        self._corrector: Optional[BatchOnlineErrorCorrector] = None
        self._begun = False
        self._buffer: Dict[int, Sequence] = {}

    def provide_input(self, shares: Sequence[FieldElement]) -> None:
        self.shares = list(shares)
        if not self._begun and self.has_started:
            self._begin()

    has_started = False

    def start(self) -> None:
        self.has_started = True
        if self.shares is not None:
            self._begin()

    def _begin(self) -> None:
        if self._begun or self.shares is None:
            return
        self._begun = True
        self._corrector = BatchOnlineErrorCorrector(
            self.field, len(self.shares), self.degree, self.faults
        )
        self.send_all(("shares", maybe_pack_payload(list(self.shares))))
        for sender, values in list(self._buffer.items()):
            self._absorb(sender, values)
        self._buffer.clear()

    def receive(self, sender: int, payload: Any) -> None:
        if payload[0] != "shares":
            return
        values = payload[1]
        if isinstance(values, PackedFieldVector):
            # Receive-side decode of the packed share vector.
            values = values.elements()
        if not self._begun:
            if sender not in self._buffer:
                self._buffer[sender] = values
            return
        self._absorb(sender, values)

    def _absorb(self, sender: int, values: Sequence) -> None:
        assert self.shares is not None and self._corrector is not None
        if len(values) != len(self.shares):
            return
        row = [value if isinstance(value, FieldElement) else None for value in values]
        done = self._corrector.add_row(self.field.alpha(sender), row)
        if done and not self.has_output:
            self.set_output(self._corrector.secrets())

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

The openings of the n ΠTripSh: one post
---------------------------------------

ΠPreProcessing (Fig 10) runs n ΠTripSh (Fig 8) side by side, and each opens
four batches in turn: its ΠTripTrans masks (``trans/beaver/open``, one
ΠBeaver for all L groups, :mod:`repro.triples.transform`), the supervised
verification masks (``verify/open``), the gammas (``gamma``) and, if any
gamma is nonzero, the suspected triples (``suspect``).  The shares a party
opens to one peer at one instant leave through the :class:`OpeningPost`
``<preproc>/openings`` as one message: a tuple of lines ``(name, vector)``,
``name`` one of :data:`OPENINGS`, each vector positional over the n ΠTripSh
(by dealer, in sorted tag order) with ``None`` where a ΠTripSh opened
nothing.  A receiver hands entry p of a line to ``<tripsh p>/<name>`` as the
message ``("shares", value)`` from that sender, through ``Party.deliver``, so
an entry for a reconstruction this party has not built yet waits in the
party's buffer like any early message.  The same values are opened to the
same parties and decoded with the same OEC(t_s, t_s), so the argument of
:mod:`repro.sharing.wps` (Phases I-II, points 1-2) holds opening by opening:
an honest sender's entries are exactly its reconstructions' messages, and a
corrupt sender's message is, entry by entry, shares it could have sent
separately -- one that is not a tuple of ``(name, tuple of width n)`` lines
is nothing, and a line with another name is nothing.  Same instants: the
post is a :class:`~repro.sim.party.Post` frozen at the preprocessing's
start, where its n ΠTripSh are built, so the positions hold in asynchrony
too, where dealers finish at different times.  A self-send skips the post.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.broadcast.acast import PackedFieldVector, maybe_pack_payload
from repro.codes.oec import BatchOnlineErrorCorrector
from repro.field.gf import FieldElement
from repro.sim.party import Party, Post, ProtocolInstance

#: What a ΠTripSh opens, by the reconstructions' tags under it: the line names
#: of an :class:`OpeningPost`.
OPENINGS = ("trans/beaver/open", "verify/open", "gamma", "suspect")


class OpeningPost(Post):
    """The n ΠTripSh of one ΠPreProcessing (members; frozen at its start):
    what a party opens to one peer at one instant, one message (module docstring)."""

    @staticmethod
    def serving(
        reconstruction: "PublicReconstruction",
    ) -> Optional[Tuple["OpeningPost", str, str]]:
        """(post, member tag, line name) of a ΠTripSh opening under a post, else None."""
        for name in OPENINGS:
            member = reconstruction.tag.removesuffix("/" + name)
            if member == reconstruction.tag:
                continue
            post = reconstruction.party.get_instance(f"{member.rpartition('/')[0]}/openings")
            if isinstance(post, OpeningPost) and member in (post.position or ()):
                return post, member, name
        return None

    def hand(self, member: Any, sender: int, kind: str, value: Any) -> None:
        if kind in OPENINGS:
            self.party.deliver(sender, f"{member.tag}/{kind}", ("shares", value))


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
        payload = ("shares", maybe_pack_payload(list(self.shares)))
        serving = OpeningPost.serving(self)
        if serving is None:
            self.send_all(payload)
        else:
            post, member, name = serving
            self.send(self.me, payload)
            for recipient in self.party.all_party_ids():
                if recipient != self.me:
                    post.put(recipient, member, (name, payload[1]))
        for sender, values in list(self._buffer.items()):
            self._absorb(sender, values)
        self._buffer.clear()

    def receive(self, sender: int, payload: Any) -> None:
        """Total: ``("shares", vector)``, the vector packed or a list/tuple, or nothing."""
        if type(payload) is not tuple or len(payload) != 2 or payload[0] != "shares":
            return
        values = payload[1]
        if isinstance(values, PackedFieldVector):
            # Receive-side decode of the packed share vector.
            values = values.elements()
        if not isinstance(values, (list, tuple)):
            return
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

"""Versioned checkpoint/restore of service state over the wire codec.

A snapshot is one self-describing blob per service: a format-version header
plus, for every party, the state a real deployment would have to persist to
disk to survive a crash -- the party's rng state, its reservoir shares
(packed as flat field residues, the codec's ``V`` tag: eight bytes per
residue, no per-element boxing) and the stream watermarks.  Everything goes
through :mod:`repro.runtime.wire`, so snapshots are exactly as compact and
kernel/transport-agnostic as protocol messages: no pickle, no boxed field
elements, re-interned fields on decode.

Two version axes:

* the **format version** (:data:`SNAPSHOT_VERSION`) gates decode -- a blob
  written by an incompatible build raises
  :class:`~repro.service.errors.SnapshotVersionError` instead of
  misinterpreting bytes;
* the **store version** is a monotone counter over saved snapshots, so a
  rejoiner restores "the latest snapshot" while older ones remain for
  inspection or point-in-time restore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.broadcast.acast import PackedFieldVector
from repro.field.gf import GF, FieldElement
from repro.runtime.wire import decode_payload, encode_payload
from repro.service.errors import SnapshotVersionError
from repro.triples.transform import TripleShares

#: Format version written into every snapshot blob.
SNAPSHOT_VERSION = 1


@dataclass
class PartySnapshot:
    """One party's persisted state at a checkpoint."""

    party_id: int
    rng_state: Tuple
    reservoir_first_seq: int
    reservoir_triples: List[TripleShares]


@dataclass
class ServiceSnapshot:
    """Full service state at a quiescent checkpoint."""

    n: int
    ts: int
    ta: int
    field_modulus: int
    now: float
    eval_seq: int
    preproc_round: int
    consumed: int
    produced: int
    backend_rng_state: Tuple
    #: Client-visible results log: (eval_id, output residues) per completed
    #: evaluation -- the outbox a rejoiner replays from its watermark.
    results: List[Tuple[int, List[int]]]
    parties: Dict[int, PartySnapshot] = field(default_factory=dict)

    # -- wire form ----------------------------------------------------------
    def encode(self) -> bytes:
        field_obj = GF(self.field_modulus, check_prime=False)
        party_blobs = {}
        for pid, snap in sorted(self.parties.items()):
            residues = [
                int(share) for triple in snap.reservoir_triples for share in triple
            ]
            party_blobs[pid] = (
                _freeze(snap.rng_state),
                snap.reservoir_first_seq,
                PackedFieldVector(field_obj, residues, _normalized=True),
            )
        payload = {
            "version": SNAPSHOT_VERSION,
            "n": self.n,
            "ts": self.ts,
            "ta": self.ta,
            "modulus": self.field_modulus,
            "now": self.now,
            "eval_seq": self.eval_seq,
            "preproc_round": self.preproc_round,
            "consumed": self.consumed,
            "produced": self.produced,
            "backend_rng": _freeze(self.backend_rng_state),
            "results": [(eval_id, tuple(residues)) for eval_id, residues in self.results],
            "parties": party_blobs,
        }
        return encode_payload(payload)

    @classmethod
    def decode(cls, blob: bytes) -> "ServiceSnapshot":
        payload = decode_payload(blob)
        if not isinstance(payload, dict) or payload.get("version") != SNAPSHOT_VERSION:
            found = payload.get("version") if isinstance(payload, dict) else None
            raise SnapshotVersionError(found, SNAPSHOT_VERSION)
        field_obj = GF(payload["modulus"], check_prime=False)
        parties: Dict[int, PartySnapshot] = {}
        for pid, (rng_state, first_seq, packed) in payload["parties"].items():
            values = packed.values
            if len(values) % 3:
                raise ValueError(f"party {pid} reservoir residues not in triples")
            triples = [
                (
                    FieldElement(values[i], field_obj),
                    FieldElement(values[i + 1], field_obj),
                    FieldElement(values[i + 2], field_obj),
                )
                for i in range(0, len(values), 3)
            ]
            parties[pid] = PartySnapshot(
                party_id=pid,
                rng_state=rng_state,
                reservoir_first_seq=first_seq,
                reservoir_triples=triples,
            )
        return cls(
            n=payload["n"],
            ts=payload["ts"],
            ta=payload["ta"],
            field_modulus=payload["modulus"],
            now=payload["now"],
            eval_seq=payload["eval_seq"],
            preproc_round=payload["preproc_round"],
            consumed=payload["consumed"],
            produced=payload["produced"],
            backend_rng_state=payload["backend_rng"],
            results=[(eval_id, list(residues)) for eval_id, residues in payload["results"]],
            parties=parties,
        )


def _freeze(state: Any) -> Any:
    """``random.Random.getstate()`` nests tuples of ints -- wire-native as is;
    guard anything else (a custom Random subclass) out loudly."""
    if isinstance(state, tuple):
        return tuple(_freeze(item) for item in state)
    if state is None or isinstance(state, (int, float, str)):
        return state
    raise TypeError(f"rng state component {type(state).__name__} is not wire-encodable")


class CheckpointStore:
    """Monotone-versioned snapshot store (in memory, optionally on disk).

    ``save`` assigns version numbers 1, 2, ...; ``load`` with no argument
    returns the latest.  With ``directory`` set, every blob is also written
    to ``snapshot-<version>.bin`` and ``load`` falls back to disk, so a
    store outlives the process the way real checkpoint storage does.
    """

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory
        self._blobs: Dict[int, bytes] = {}
        self._next_version = 1
        # A restarted process starts with empty in-memory state but must see
        # the snapshots its predecessor persisted: discover them up front so
        # load()/latest_version/save() continue where the old process died.
        for version in self._disk_versions():
            self._next_version = max(self._next_version, version + 1)

    def _disk_versions(self) -> List[int]:
        if self.directory is None:
            return []
        import glob
        import os
        import re

        versions = []
        for path in glob.glob(os.path.join(self.directory, "snapshot-*.bin")):
            match = re.fullmatch(r"snapshot-(\d+)\.bin", os.path.basename(path))
            if match:
                versions.append(int(match.group(1)))
        return sorted(versions)

    def save(self, snapshot: ServiceSnapshot) -> int:
        version = self._next_version
        self._next_version += 1
        blob = snapshot.encode()
        self._blobs[version] = blob
        if self.directory is not None:
            import os

            os.makedirs(self.directory, exist_ok=True)
            with open(os.path.join(self.directory, f"snapshot-{version}.bin"), "wb") as fh:
                fh.write(blob)
        return version

    def load(self, version: Optional[int] = None) -> ServiceSnapshot:
        if version is None:
            version = self.latest_version
            if version is None:
                raise KeyError("no snapshots saved")
        blob = self._blobs.get(version)
        if blob is None and self.directory is not None:
            import os

            path = os.path.join(self.directory, f"snapshot-{version}.bin")
            try:
                with open(path, "rb") as fh:
                    blob = fh.read()
            except FileNotFoundError:
                blob = None
        if blob is None:
            raise KeyError(f"no snapshot version {version}")
        return ServiceSnapshot.decode(blob)

    @property
    def latest_version(self) -> Optional[int]:
        versions = set(self._blobs) | set(self._disk_versions())
        return max(versions) if versions else None

    def versions(self) -> List[int]:
        return sorted(set(self._blobs) | set(self._disk_versions()))

    def blob_bytes(self, version: int) -> int:
        return len(self._blobs[version])

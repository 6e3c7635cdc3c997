"""Broadcast primitives: Bracha's Acast and the best-of-both-worlds ΠBC."""

from repro.broadcast.acast import (
    AcastProtocol,
    Bundle,
    PackedFieldVector,
    acast_time_bound,
    maybe_pack_payload,
)
from repro.broadcast.bc import BroadcastProtocol, bc_time_bound

__all__ = [
    "AcastProtocol",
    "PackedFieldVector",
    "acast_time_bound",
    "maybe_pack_payload",
    "BroadcastProtocol",
    "Bundle",
    "bc_time_bound",
]

"""Picklable protocol factories for multi-process (and benchmark) runs.

The single-process backends accept any ``factory(party)`` callable, closures
included.  A multi-process run cannot: the launcher pickles the factory into
the job spec and every party process unpickles and calls it locally, so the
factory must be an importable top-level callable.  This module collects the
standard ones -- used by ``python -m repro.launch``, the runtime benchmarks,
and the TCP tests -- plus :class:`MultiAcast`, the all-parties-broadcast
workload whose n concurrent Acast instances give a multi-core deployment
something to parallelize.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.broadcast.acast import AcastProtocol
from repro.sim.party import Party, ProtocolInstance


class AcastFactory:
    """One Acast from ``sender``; ``message`` is a list of int residues.

    The residues are lifted into the (process-local) field at instantiation
    time, so the pickled spec stays free of boxed field elements.
    """

    def __init__(self, sender: int, faults: int, message: List[int]):
        self.sender = sender
        self.faults = faults
        self.message = list(message)

    def __call__(self, party: Party) -> ProtocolInstance:
        message = None
        if party.id == self.sender:
            message = [party.field(value) for value in self.message]
        return AcastProtocol(
            party, "acast", sender=self.sender, faults=self.faults, message=message
        )


class MultiAcast(ProtocolInstance):
    """Every party Acasts its own vector; output maps sender -> delivered value.

    The n concurrent Acast instances are the runtime benchmark's scaling
    workload: a single process multiplexes all n senders' echo/ready storms
    on one core, while the multi-process deployment spreads them across n.
    """

    def __init__(self, party: Party, tag: str, faults: int, my_message: Any):
        super().__init__(party, tag)
        self._children: Dict[int, ProtocolInstance] = {}
        self._delivered: Dict[int, Any] = {}
        for sender in party.all_party_ids():
            child = self.spawn(
                AcastProtocol,
                f"acast[{sender}]",
                sender=sender,
                faults=faults,
                message=my_message if sender == party.id else None,
            )
            child.on_output(lambda value, sender=sender: self._on_child(sender, value))
            self._children[sender] = child

    def start(self) -> None:
        for child in self._children.values():
            child.start()

    def _on_child(self, sender: int, value: Any) -> None:
        self._delivered[sender] = value
        if len(self._delivered) == self.n:
            self.set_output(dict(sorted(self._delivered.items())))


class MultiAcastFactory:
    """Every party broadcasts ``length`` residues derived from its id."""

    def __init__(self, faults: int, length: int):
        self.faults = faults
        self.length = length

    def __call__(self, party: Party) -> ProtocolInstance:
        message = [
            party.field(party.id * 1000 + index) for index in range(self.length)
        ]
        return MultiAcast(party, "multiacast", faults=self.faults, my_message=message)

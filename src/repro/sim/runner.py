"""Convenience harness for setting up and running protocol executions.

:class:`ProtocolRunner` is a thin facade over the pluggable execution
backends in :mod:`repro.runtime`: ``backend="sim"`` (the default) builds the
deterministic discrete-event :class:`~repro.runtime.sim_backend.SimBackend`,
``backend="asyncio"`` the :class:`~repro.runtime.asyncio_backend.
AsyncioBackend`, the same simulator paced by the wall clock; an
:class:`~repro.runtime.api.ExecutionBackend` subclass or instance is used
directly.  :class:`RunResult` lives in :mod:`repro.runtime.api` and is
re-exported here for the historical import path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from repro.field.gf import GF
from repro.runtime import make_backend
from repro.runtime.api import ExecutionBackend, RunResult
from repro.sim.adversary import Behavior
from repro.sim.network import NetworkModel
from repro.sim.party import Party, ProtocolInstance

__all__ = ["ProtocolRunner", "RunResult"]


class ProtocolRunner:
    """Builds an execution backend, instantiates a protocol at every party,
    and runs it.

    ``factory(party)`` must return the root :class:`ProtocolInstance` for
    that party; corrupt parties get their behaviour attached before
    instantiation so dealer-style attacks already apply to the first
    messages.  ``backend_options`` are forwarded to the backend constructor
    (e.g. ``faults=...``, or ``time_scale=...`` / ``transport=...`` for the
    asyncio backend).
    """

    def __init__(
        self,
        n: int,
        network: Optional[NetworkModel] = None,
        field: Optional[GF] = None,
        seed: int = 0,
        corrupt: Optional[Dict[int, Behavior]] = None,
        backend: Union[str, type, ExecutionBackend] = "sim",
        **backend_options: Any,
    ):
        self.backend = make_backend(
            backend,
            n,
            network=network,
            field=field,
            seed=seed,
            corrupt=corrupt,
            **backend_options,
        )

    @property
    def simulator(self):
        """The underlying :class:`Simulator` (sim backend; else the backend)."""
        return getattr(self.backend, "simulator", self.backend)

    @property
    def field(self) -> GF:
        return self.backend.field

    @property
    def parties(self) -> Dict[int, Party]:
        return self.backend.parties

    def run(
        self,
        factory: Callable[[Party], ProtocolInstance],
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
        wait_for_all_honest: bool = True,
        extra_predicate: Optional[Callable[[], bool]] = None,
    ) -> RunResult:
        """Instantiate, start and run the protocol to completion."""
        return self.backend.run(
            factory,
            max_time=max_time,
            max_events=max_events,
            wait_for_all_honest=wait_for_all_honest,
            extra_predicate=extra_predicate,
        )

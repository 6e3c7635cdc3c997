"""SimBackend: the deterministic discrete-event execution backend.

A thin adapter that exposes the historical :class:`~repro.sim.simulator.Simulator`
through the :class:`~repro.runtime.api.ExecutionBackend` interface.  It is
bit-for-bit identical to the pre-runtime-refactor behaviour: same rng draw
order (party rngs seeded in party order from the backend rng, network delays
drawn at dispatch), same event ordering, same
:class:`~repro.sim.simulator.SimulationMetrics` -- the scenario-matrix
regression grid runs through it unchanged.  ``faults=`` puts a
:class:`~repro.faults.plan.FaultPlan` on the simulator itself.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set

from repro.faults.plan import FaultPlan
from repro.field.gf import GF, default_field
from repro.runtime.api import ExecutionBackend, RunResult
from repro.sim.network import NetworkModel, SynchronousNetwork
from repro.sim.simulator import Simulator


class SimBackend(ExecutionBackend):
    """Run protocols on the single-process discrete-event simulator."""

    def __init__(
        self,
        n: int,
        network: Optional[NetworkModel] = None,
        field: Optional[GF] = None,
        seed: int = 0,
        corrupt: Optional[Dict[int, Any]] = None,
        faults: Optional[FaultPlan] = None,
    ):
        self.simulator = Simulator(
            n,
            network=network or SynchronousNetwork(),
            field=field or default_field(),
            seed=seed,
            corrupt_parties=set(corrupt or {}),
            faults=faults,
        )
        for party_id, behavior in (corrupt or {}).items():
            self.simulator.set_behavior(party_id, behavior)

    # -- ExecutionBackend surface (delegates to the simulator) --------------
    @property
    def n(self) -> int:
        return self.simulator.n

    @property
    def corrupt_parties(self) -> Set[int]:
        return self.simulator.corrupt_parties

    @property
    def parties(self) -> Dict[int, Any]:
        return self.simulator.parties

    @property
    def field(self) -> GF:
        return self.simulator.field

    @property
    def metrics(self):
        return self.simulator.metrics

    @property
    def now(self) -> float:
        return self.simulator.now

    def set_behavior(self, party_id: int, behavior) -> None:
        self.simulator.set_behavior(party_id, behavior)

    def crash_party(self, party_id: int, at_time: Optional[float] = None) -> None:
        """Crash-stop a party immediately or at a simulated time."""
        self.simulator.crash_party(party_id, at_time)

    def revive_party(self, party_id: int):
        """Replace a crashed party with a fresh (blank-state) incarnation."""
        return self.simulator.revive_party(party_id)

    def run(
        self,
        factory: Callable[[Any], Any],
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
        wait_for_all_honest: bool = True,
        extra_predicate: Optional[Callable[[], bool]] = None,
    ) -> RunResult:
        """Instantiate, start and run the protocol to completion."""
        instances = self._instantiate(factory)
        done = self._done_predicate(instances, wait_for_all_honest, extra_predicate)
        self.simulator.run(until=done, max_time=max_time, max_events=max_events)
        return RunResult(self, instances)

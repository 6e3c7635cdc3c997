"""High-level engine API: one call to run the full best-of-both-worlds MPC.

This is the entry point the examples use::

    from repro import run_mpc, default_field
    from repro.circuits import multiplication_circuit

    field = default_field()
    circuit = multiplication_circuit(field, n_parties=4)
    result = run_mpc(circuit, inputs={1: 3, 2: 5, 3: 7, 4: 11}, n=4, ts=1, ta=0)
    print(result.outputs)
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from repro.circuits.circuit import Circuit
from repro.field.gf import GF, FieldElement
from repro.mpc.protocol import CircuitEvaluation
from repro.runtime import make_backend
from repro.sim.adversary import Behavior
from repro.sim.api import ExecutionBackend, RunResult
from repro.sim.network import NetworkModel


class MPCResult:
    """Outcome of a full MPC execution."""

    def __init__(self, run: RunResult, circuit: Circuit, field: GF):
        self.run = run
        self.circuit = circuit
        self.field = field

    @property
    def outputs(self) -> Optional[List[FieldElement]]:
        """The circuit outputs agreed by the honest parties (None if not all done)."""
        values = list(self.run.honest_outputs().values())
        if not values:
            return None
        return values[0]

    @property
    def per_party_outputs(self) -> Dict[int, List[FieldElement]]:
        return self.run.honest_outputs()

    @property
    def output_times(self) -> Dict[int, float]:
        return self.run.honest_output_times()

    @property
    def completed(self) -> bool:
        return self.run.all_honest_done()

    @property
    def agreed(self) -> bool:
        """Whether every honest party that output agrees on the same values."""
        values = [tuple(int(v) for v in out) for out in self.run.honest_outputs().values()]
        return len(set(values)) <= 1

    @property
    def common_subset(self) -> Optional[List[int]]:
        for pid in self.run.backend.honest_party_ids():
            instance = self.run.instances[pid]
            if getattr(instance, "common_subset", None) is not None:
                return instance.common_subset
        return None

    @property
    def metrics(self):
        return self.run.metrics


def check_parameters(n: int, ts: int, ta: int) -> None:
    """Enforce the paper's resilience condition 3·t_s + t_a < n with t_a <= t_s."""
    if ta > ts:
        raise ValueError("the interesting setting requires t_a <= t_s")
    if 3 * ts + ta >= n:
        raise ValueError(f"resilience condition violated: 3*{ts} + {ta} >= {n}")


def check_party_ids(name: str, ids, n: int) -> None:
    """Reject party ids outside ``1..n`` (they would be silently ignored).

    ``inputs={0: 5}`` or ``corrupt={7: ...}`` at n=4 used to no-op -- the
    absent party "inputs 0" / the behaviour is never attached -- which turns
    an off-by-one in the caller into a silently wrong execution.
    """
    unknown = sorted(pid for pid in ids if not (isinstance(pid, int) and 1 <= pid <= n))
    if unknown:
        raise ValueError(
            f"unknown party ids in {name}: {unknown} (parties are numbered 1..{n})"
        )


class CircuitEvaluationFactory:
    """Per-party ΠCirEval factory; a top-level class so it pickles.

    The multi-process TCP backend ships the factory to every party process
    inside the job spec, which a closure over ``run_mpc``'s locals could not
    survive; the single-process backends call it the same way.
    """

    def __init__(
        self,
        circuit: Circuit,
        ts: int,
        ta: int,
        inputs: Dict[int, Any],
        n: Optional[int] = None,
        offline: str = "tripsh",
    ):
        self.circuit = circuit
        self.ts = ts
        self.ta = ta
        self.inputs = dict(inputs)
        self.offline = offline
        if n is not None:
            check_party_ids("inputs", self.inputs, n)

    def __call__(self, party) -> CircuitEvaluation:
        # Backstop for factories built without n: by now the runtime knows it.
        check_party_ids("inputs", self.inputs, party.n)
        my_input = self.inputs.get(party.id, 0)
        my_inputs = list(my_input) if isinstance(my_input, (list, tuple)) else [my_input]
        return CircuitEvaluation(
            party,
            "mpc",
            circuit=self.circuit,
            ts=self.ts,
            ta=self.ta,
            my_inputs=my_inputs,
            anchor=0.0,
            offline=self.offline,
        )


def run_mpc(
    circuit: Circuit,
    inputs: Dict[int, int],
    n: int,
    ts: int,
    ta: int,
    network: Optional[NetworkModel] = None,
    field: Optional[GF] = None,
    seed: int = 0,
    corrupt: Optional[Dict[int, Behavior]] = None,
    max_time: Optional[float] = None,
    max_events: Optional[int] = None,
    offline: str = "tripsh",
    backend: Union[str, ExecutionBackend] = "sim",
    **backend_options: Any,
) -> MPCResult:
    """Run ΠCirEval end-to-end and return the result.

    ``inputs`` maps party ids to their private input (parties absent from the
    map input 0).  ``corrupt`` attaches Byzantine behaviours to party ids.

    ``offline`` selects the triple-preprocessing pipeline: ``"tripsh"`` (the
    per-dealer ΠTripSh reference, the default) or ``"him"`` (the
    hyper-invertible-matrix batch pipeline of :mod:`repro.triples.him` --
    one ACS instead of n VSS banks, sacrifice-check refinement,
    loud abort on detected dealer corruption).  Both produce uniformly
    random Beaver triples, so the circuit outputs are mode-independent.

    ``backend`` selects the execution runtime: ``"sim"`` (the deterministic
    discrete-event simulator, the default), ``"asyncio"`` (the same
    simulator paced by the wall clock, optionally over sockets), or ``"tcp"``
    (one OS process per party over real sockets, spawned and collected by
    :class:`~repro.runtime.launcher.TcpBackend`), or an already-built
    backend; ``backend_options`` are forwarded to the backend constructor
    (e.g. ``time_scale=...``, ``faults=...`` or ``roster=...``).
    """
    check_parameters(n, ts, ta)
    check_party_ids("inputs", inputs, n)
    check_party_ids("corrupt", corrupt or {}, n)
    # The backends default an absent network to SynchronousNetwork; passing
    # None through keeps already-built backend instances usable here.
    built = make_backend(backend, n, network=network, field=field, seed=seed,
                         corrupt=corrupt, **backend_options)
    factory = CircuitEvaluationFactory(circuit, ts, ta, inputs, n=n, offline=offline)

    run = built.run(factory, max_time=max_time, max_events=max_events)
    return MPCResult(run, circuit, built.field)

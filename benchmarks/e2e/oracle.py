"""Correctness oracle: the definition of a failed evaluation, in one function.

An evaluation fails when it is not ``completed``/``agreed``, is ``degraded``
(service), has |CS| < n - t_s, or outputs something other than the plaintext
circuit evaluation with the inputs outside the common subset zeroed.  On the
simulated fault-free synchronous workloads it also fails when a party is left
out of CS or when it finishes after the nominal time bound.
Raising and hitting the wall cap are caught by the caller, which records
them the same way.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence


def plaintext_outputs(circuit, field, inputs: Dict[int, int], included: Sequence[int]) -> List[int]:
    """Evaluate the circuit in the clear with inputs outside ``included`` zeroed."""
    effective = {pid: field(value if pid in included else 0) for pid, value in inputs.items()}
    return [int(v) for v in circuit.evaluate(effective)]


def check_evaluation(
    circuit,
    field,
    inputs: Dict[int, int],
    result: Any,
    *,
    n: int,
    ts: int,
    all_in_subset: bool = False,
    rounds: Optional[float] = None,
    time_bound: Optional[float] = None,
) -> List[str]:
    """Return the reasons ``result`` fails (empty list = the evaluation is good).

    ``result`` is an ``MPCResult`` (``run_mpc``) or an ``EvalResult``
    (``MpcService.evaluate``).  The service does not expose its common
    subset, so there the participating ``parties`` stand in for it: with
    all n taking part and ``degraded`` false, a party left out of CS shows
    as an output that differs from the all-inputs evaluation.

    ``all_in_subset`` is the expectation, on the simulated fault-free
    synchronous workloads, that no party is left out.
    """
    failures: List[str] = []
    if not getattr(result, "completed", True):
        failures.append("not completed")
    if not getattr(result, "agreed", True):
        failures.append("honest outputs disagree")
    if getattr(result, "degraded", False):
        failures.append("degraded")
    if result.outputs is None:
        return failures + ["no output"]

    subset = getattr(result, "common_subset", None)
    if subset is None:
        subset = getattr(result, "parties", None)
    if subset is None:
        return failures + ["no common subset"]
    if len(subset) < n - ts:
        failures.append(f"|CS|={len(subset)} < n-ts={n - ts}")
    if all_in_subset and sorted(subset) != list(range(1, n + 1)):
        failures.append(f"party left out of CS {sorted(subset)}")

    outputs = [int(v) for v in result.outputs]
    expected = plaintext_outputs(circuit, field, inputs, subset)
    if outputs != expected:
        failures.append(f"outputs {outputs} != plaintext {expected}")
    if time_bound is not None and rounds is not None and rounds > time_bound:
        failures.append(f"rounds {rounds} > time bound {time_bound}")
    return failures

"""repro: perfectly-secure synchronous MPC with asynchronous fallback guarantees.

A reference implementation of Appan, Chandramouli and Choudhury (PODC 2022):
a single perfectly-secure MPC protocol that tolerates t_s < n/3 corruptions
when the network is synchronous and t_a < n/4 corruptions when it is
asynchronous (3·t_s + t_a < n), without the parties knowing the network type.

Quickstart::

    from repro import run_mpc, default_field
    from repro.circuits import multiplication_circuit

    field = default_field()
    circuit = multiplication_circuit(field, n_parties=4)
    result = run_mpc(circuit, inputs={1: 3, 2: 5, 3: 7, 4: 11}, n=4, ts=1, ta=0)
    print(int(result.outputs[0]))   # 1155
"""

from repro.field import (
    GF,
    FieldArray,
    FieldElement,
    Polynomial,
    SymmetricBivariatePolynomial,
    default_field,
)
from repro.mpc import run_mpc, MPCResult, CircuitEvaluation
from repro.sim import (
    ProtocolRunner,
    SynchronousNetwork,
    AsynchronousNetwork,
    AdversarialAsynchronousNetwork,
)

__version__ = "1.0.0"

__all__ = [
    "GF",
    "FieldArray",
    "FieldElement",
    "Polynomial",
    "SymmetricBivariatePolynomial",
    "default_field",
    "run_mpc",
    "MPCResult",
    "CircuitEvaluation",
    "ProtocolRunner",
    "SynchronousNetwork",
    "AsynchronousNetwork",
    "AdversarialAsynchronousNetwork",
    "__version__",
]

"""The unified fault plane: declarative chaos plans + seeded campaigns.

:class:`FaultPlan` is the one representation of every injectable fault --
partitions, per-link loss/corruption/latency schedules, clock skew, process
kill -- passed as ``faults=`` to the scheduler on every backend,
whose :class:`FaultGate` applies it with order-independent hash-keyed
decisions (chaos failures replay bit-identically on the simulator).
:mod:`repro.faults.campaign` samples plans from a seed and checks runs
against the paper's guarantee table, dumping a replayable artifact on any
violation; it is imported from there (not re-exported here, so that
``python -m repro.faults.campaign`` runs it once).
"""

from repro.faults.plan import (
    CORRUPTED,
    FaultGate,
    FaultPlan,
    LinkFault,
    LinkLatency,
    PARTITIONED,
    Partition,
    ProcessFault,
)

__all__ = [
    "FaultPlan",
    "FaultGate",
    "LinkFault",
    "LinkLatency",
    "Partition",
    "ProcessFault",
    "PARTITIONED",
    "CORRUPTED",
]

"""The unified fault plane: declarative chaos plans + seeded campaigns.

:class:`FaultPlan` is the one representation of every injectable fault --
partitions, per-link loss/corruption/latency schedules, clock skew, process
kill/restart -- passed as ``faults=`` to the scheduler on every backend,
whose :class:`FaultGate` applies it with order-independent hash-keyed
decisions (chaos failures replay bit-identically on the simulator).
:mod:`repro.faults.campaign` samples plans from a seed and checks runs
against the paper's guarantee table, dumping a replayable artifact on any
violation.
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
from repro.faults.campaign import (
    ChaosCampaignFailure,
    ThresholdExceededAbort,
    run_campaign,
    run_case,
    sample_plan,
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
    "ChaosCampaignFailure",
    "ThresholdExceededAbort",
    "sample_plan",
    "run_case",
    "run_campaign",
]

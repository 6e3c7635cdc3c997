"""Discrete-event simulation substrate: the execution core.

Implements the paper's communication model: n parties connected by pairwise
private authenticated channels, running either over a synchronous network
(every message delivered within a publicly-known bound Delta) or an
asynchronous network (arbitrary but finite, adversary-scheduled delays),
with a static Byzantine adversary.  :class:`Simulator` is the one scheduler
and the ``"sim"`` execution backend; :mod:`repro.runtime` builds on it and
this package imports nothing from there.
"""

from repro.sim.messages import Message, payload_bits
from repro.sim.network import (
    NetworkModel,
    SynchronousNetwork,
    AsynchronousNetwork,
    AdversarialAsynchronousNetwork,
)
from repro.sim.party import Party, ProtocolInstance
from repro.sim.simulator import Simulator, SimulationMetrics
from repro.sim.adversary import (
    Behavior,
    HonestBehavior,
    CrashBehavior,
    SilentBehavior,
    EquivocatingBehavior,
    WrongValueBehavior,
    DelayBehavior,
    RandomDropBehavior,
)
from repro.sim.api import RunResult

__all__ = [
    "Message",
    "payload_bits",
    "NetworkModel",
    "SynchronousNetwork",
    "AsynchronousNetwork",
    "AdversarialAsynchronousNetwork",
    "Party",
    "ProtocolInstance",
    "Simulator",
    "SimulationMetrics",
    "Behavior",
    "HonestBehavior",
    "CrashBehavior",
    "SilentBehavior",
    "EquivocatingBehavior",
    "WrongValueBehavior",
    "DelayBehavior",
    "RandomDropBehavior",
    "RunResult",
]

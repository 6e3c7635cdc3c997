"""Pluggable execution runtimes for the protocol stack.

Protocols talk only to the :class:`~repro.runtime.api.PartyRuntime` context
API, which one scheduler implements: the discrete-event
:class:`~repro.sim.simulator.Simulator`.  This package provides the
interface (`api`) and the backends that drive it:

* :class:`SimBackend` -- the deterministic discrete-event simulator
  (bit-identical to the historical behaviour), and
* :class:`AsyncioBackend` -- the same simulator on an asyncio loop, paced by
  the wall clock, optionally over the sockets of a :class:`TcpTransport`
  (:class:`TcpBackend` runs one such process per party).

Exports resolve lazily: ``repro.sim.simulator`` imports ``repro.runtime.api``
while the backends import ``repro.sim``, and the lazy indirection keeps that
mutual dependency acyclic at import time.
"""

from __future__ import annotations

from typing import Any, Union

from repro.runtime.api import ExecutionBackend, PartyRuntime, RealClock, RunResult
from repro.runtime.errors import (
    ChannelBrokenError,
    PartyProcessDied,
    ScheduleMiss,
    SendBufferOverflowError,
    SendTimeoutError,
    TransportError,
)

# TcpTransport stays lazy alongside the backends: its wire codec imports the
# broadcast/sharing payload types, which import repro.sim, which imports this
# package.
_LAZY_BACKENDS = {
    "SimBackend": "repro.runtime.sim_backend",
    "AsyncioBackend": "repro.runtime.asyncio_backend",
    "TcpBackend": "repro.runtime.launcher",
    "TcpTransport": "repro.runtime.tcp_transport",
    "TcpMpcService": "repro.runtime.supervisor",
    "ServiceSpec": "repro.runtime.supervisor",
}

#: Names accepted by :func:`make_backend` (and `ProtocolRunner(backend=...)`).
BACKEND_NAMES = ("sim", "asyncio", "tcp")


def __getattr__(name: str):
    module_name = _LAZY_BACKENDS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def make_backend(
    backend: Union[str, type, ExecutionBackend],
    n: int,
    network=None,
    field=None,
    seed: int = 0,
    corrupt=None,
    **options: Any,
) -> ExecutionBackend:
    """Build an execution backend from a name, a backend class, or pass one through.

    ``backend`` is ``"sim"``, ``"asyncio"``, an :class:`ExecutionBackend`
    subclass (constructed with the standard signature plus ``options``), or
    an already-constructed backend instance (returned as-is).  An instance
    must already carry its configuration: re-specifying ``network`` /
    ``field`` / ``corrupt`` / ``options`` alongside one raises (a mismatch
    would otherwise be silently ignored); ``seed`` cannot be validated that
    way and is simply unused for instances.
    """
    if isinstance(backend, ExecutionBackend):
        if options or network is not None or field is not None or corrupt is not None:
            raise ValueError(
                "network/field/corrupt/options cannot be re-specified for an "
                "already-built backend instance"
            )
        if backend.n != n:
            raise ValueError(f"backend was built for n={backend.n}, not n={n}")
        return backend
    if backend == "sim":
        from repro.runtime.sim_backend import SimBackend as cls
    elif backend == "asyncio":
        from repro.runtime.asyncio_backend import AsyncioBackend as cls
    elif backend == "tcp":
        from repro.runtime.launcher import TcpBackend as cls
    elif isinstance(backend, type) and issubclass(backend, ExecutionBackend):
        cls = backend
    else:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}, an "
            "ExecutionBackend subclass, or an instance"
        )
    return cls(n, network=network, field=field, seed=seed, corrupt=corrupt, **options)


__all__ = [
    "RealClock",
    "PartyRuntime",
    "ExecutionBackend",
    "RunResult",
    "SimBackend",
    "AsyncioBackend",
    "TcpBackend",
    "TcpTransport",
    "TcpMpcService",
    "ServiceSpec",
    "TransportError",
    "SendTimeoutError",
    "SendBufferOverflowError",
    "ChannelBrokenError",
    "PartyProcessDied",
    "ScheduleMiss",
    "BACKEND_NAMES",
    "make_backend",
]

"""Execution backends beyond the bare simulator.

Protocols talk only to the :class:`~repro.sim.api.PartyRuntime` context
API, which one scheduler implements: the discrete-event
:class:`~repro.sim.simulator.Simulator`, itself the ``"sim"`` backend.  This
package builds on it (``repro.sim`` imports nothing from here):

* :class:`AsyncioBackend` -- the same simulator on an asyncio loop, paced by
  the wall clock, optionally over the sockets of a
  :class:`~repro.runtime.tcp_transport.TcpTransport`, and
* :class:`~repro.runtime.launcher.TcpBackend` -- one such process per party.
"""

from __future__ import annotations

from typing import Any, Union

from repro.runtime.asyncio_backend import AsyncioBackend
from repro.sim.api import ExecutionBackend
from repro.sim.simulator import Simulator


def make_backend(
    backend: Union[str, ExecutionBackend],
    n: int,
    network=None,
    field=None,
    seed: int = 0,
    corrupt=None,
    **options: Any,
) -> ExecutionBackend:
    """Build an execution backend from its name, or pass one through.

    ``backend`` is ``"sim"``, ``"asyncio"``, ``"tcp"`` (constructed with the
    standard signature plus ``options``) or an already-constructed backend
    instance (returned as-is).  An instance must already carry its
    configuration: re-specifying ``network`` / ``field`` / ``corrupt`` /
    ``options`` alongside one raises (a mismatch would otherwise be silently
    ignored); ``seed`` cannot be validated that way and is simply unused for
    instances.
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
        cls = Simulator
    elif backend == "asyncio":
        cls = AsyncioBackend
    elif backend == "tcp":
        # The socket stack loads only where a multi-process run is built.
        from repro.runtime.launcher import TcpBackend as cls
    else:
        raise ValueError(
            f"unknown backend {backend!r}; expected 'sim', 'asyncio', 'tcp' or "
            "an instance"
        )
    return cls(n, network=network, field=field, seed=seed, corrupt=corrupt, **options)


__all__ = ["AsyncioBackend", "make_backend"]

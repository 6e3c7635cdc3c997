"""Shared fixtures for the test suite."""

import os
import random
import signal
import sys

import pytest

from repro.field import GF, default_field

# Allow plain `import protocol_helpers` from the test modules regardless of
# how pytest was invoked.
_TESTS_DIR = os.path.dirname(__file__)
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)


@pytest.fixture(scope="session")
def field() -> GF:
    """The default 61-bit prime field used across the suite."""
    return default_field()


@pytest.fixture()
def rng() -> random.Random:
    """A deterministic RNG so failures are reproducible."""
    return random.Random(0xDECADE)


@pytest.fixture(scope="session")
def small_field() -> GF:
    """A small prime field (p = 257) for exhaustive-ish checks."""
    return GF(257)


@pytest.fixture(autouse=True)
def _tcp_test_timeout(request):
    """Hard wall-clock cap for ``tcp``/``service``/``chaos`` tests.

    Socket tests must never hang the tier-1 run (a lost stop frame or a
    wedged child process would otherwise block pytest forever, since there
    is no pytest-timeout plugin in this environment), the long-lived
    service tests drive open-ended streams (refill loops, rejoin retries)
    where a bug could spin instead of fail, and the chaos tests kill and
    restart processes.  SIGALRM fires in the main thread, interrupting even a blocked
    ``asyncio.run`` or ``subprocess.run``.
    """
    marker = (
        request.node.get_closest_marker("tcp")
        or request.node.get_closest_marker("service")
        or request.node.get_closest_marker("chaos")
    )
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    defaults = {"tcp": 120, "service": 300, "chaos": 600}
    default_seconds = defaults[marker.name]
    seconds = int(marker.kwargs.get("timeout", default_seconds))

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"{marker.name} test exceeded its {seconds}s wall-clock cap "
            "(likely a hung socket/party process or a spinning stream loop)"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

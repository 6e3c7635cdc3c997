"""Pytest bootstrap: make the in-tree package importable without installation.

``pip install -e .`` is the normal route, but on fully-offline environments
without the ``wheel`` package the editable install can fail; adding ``src``
to ``sys.path`` here keeps the test and benchmark suites runnable either way.
"""

import os
import sys

_ROOT = os.path.dirname(__file__)
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# The tier-1 suite runs a quick smoke of the batch benchmarks (see
# tests/test_field_array.py and tests/test_bench_smoke.py), so the
# benchmarks package must be importable from the tests no matter how pytest
# was invoked.
_BENCH = os.path.join(_ROOT, "benchmarks")
if os.path.isdir(_BENCH) and _BENCH not in sys.path:
    sys.path.append(_BENCH)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running test")
    config.addinivalue_line(
        "markers",
        "bench_smoke: tiny-size smoke of a benchmarks/bench_*.py module, run "
        "under tier-1 so the benchmark suite cannot silently rot",
    )
    config.addinivalue_line(
        "markers",
        "tier2: the slow full scenario-matrix grid and other exhaustive "
        "sweeps; deselected from the default (tier-1) run, executed with "
        "`pytest -m tier2`",
    )
    config.addinivalue_line(
        "markers",
        "examples_smoke: runs an examples/*.py entry point end to end so the "
        "public examples cannot silently rot; deselect with "
        "`-m 'not examples_smoke'` when iterating",
    )
    config.addinivalue_line(
        "markers",
        "service: long-lived MpcService tests (reservoir preprocessing, "
        "checkpoint/restore, crash-rejoin); run in tier-1, selectable with "
        "`-m service`, and covered by the tests/conftest.py per-test "
        "wall-clock cap (override with @pytest.mark.service(timeout=N))",
    )
    config.addinivalue_line(
        "markers",
        "tcp: opens real sockets (and possibly spawns party processes); the "
        "tests/conftest.py timeout fixture gives each a hard per-test "
        "wall-clock cap so a wedged socket can never hang tier-1 "
        "(override with @pytest.mark.tcp(timeout=N))",
    )
    config.addinivalue_line(
        "markers",
        "chaos: fault-injection tests (FaultPlan campaigns, partition/"
        "reconnect exercises, process kill-restart-rejoin); covered by the "
        "tests/conftest.py wall-clock cap (override with "
        "@pytest.mark.chaos(timeout=N))",
    )


def pytest_collection_modifyitems(config, items):
    """Keep tier-1 (`pytest -x -q`) fast: deselect tier2 unless -m was given.

    Explicit node ids (``pytest path::test[param]``) also bypass the
    deselection, so a failing grid cell reproduces by pasting its id.  A
    marker expression only bypasses it when it mentions tier2 itself --
    ``-m "not examples_smoke"`` must not accidentally pull in the grid.
    """
    if "tier2" in (config.getoption("-m") or ""):
        return
    explicit = [str(arg).replace(os.sep, "/") for arg in config.args if "::" in str(arg)]

    def requested_by_node_id(item):
        return any(arg.endswith(item.nodeid) for arg in explicit)

    tier2_items = [
        item
        for item in items
        if item.get_closest_marker("tier2") and not requested_by_node_id(item)
    ]
    if tier2_items:
        config.hook.pytest_deselected(items=tier2_items)
        keep = set(id(item) for item in tier2_items)
        items[:] = [item for item in items if id(item) not in keep]

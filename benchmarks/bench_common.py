"""Shared helpers for the benchmark suite."""

from __future__ import annotations

import functools
import json
import os
import platform
import random
import subprocess
import time
from typing import Dict, Mapping, Optional

from repro.field import Polynomial, default_field
from repro.field.kernels import kernel_name
from repro.sim import ProtocolRunner, SynchronousNetwork
from repro.sim.network import NetworkModel

FIELD = default_field()

#: Repo root -- BENCH_<name>.json files land next to ROADMAP.md so the perf
#: trajectory is tracked (and diffed) across PRs.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fresh_polynomials(count: int, degree: int, seed: int):
    rng = random.Random(seed)
    return [Polynomial.random(FIELD, degree, rng=rng) for _ in range(count)]


def make_runner(n: int, network: Optional[NetworkModel] = None, seed: int = 0, corrupt=None):
    return ProtocolRunner(n, network=network or SynchronousNetwork(), seed=seed,
                          corrupt=corrupt or {})


def best_of(callable_, repeats: int = 3) -> float:
    """Best wall time of ``repeats`` calls (the result is the caller's to keep)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def summarize(result) -> Dict[str, float]:
    """Extract the standard measurement row from a protocol run."""
    times = result.honest_output_times()
    return {
        "honest_outputs": float(len(result.honest_outputs())),
        "max_output_time": max(times.values()) if times else float("nan"),
        "messages_sent": float(result.metrics.messages_sent),
        "honest_bits": float(result.metrics.honest_bits),
        "total_bits": float(result.metrics.total_bits),
    }


def bench_json_path(name: str) -> str:
    """Where BENCH_<name>.json lives (the repo root)."""
    return os.path.join(_ROOT, f"BENCH_{name}.json")


@functools.lru_cache(maxsize=1)
def _git_sha() -> str:
    """``git describe`` of the checkout, asked once per benchmark process."""
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=_ROOT, capture_output=True, text=True, check=False, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return (described.stdout.strip() if described.returncode == 0 else "") or "unknown"


def host_fingerprint() -> Dict[str, object]:
    """What a row's timings depend on besides the code: cores, interpreter, commit.

    ``git_sha`` ends in ``-dirty`` when tracked files differ from the commit
    (a row recorded while the change it measures is still uncommitted).
    """
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }


def record_bench(name: str, key: str, payload: Mapping) -> str:
    """Persist one measurement row into BENCH_<name>.json.

    ``key`` identifies the measurement (include the parameters, e.g.
    ``"wps_dealer_verify_n16"``) so repeated runs update their own row
    instead of clobbering others.  Existing rows from earlier runs/PRs are
    kept, which is what makes the JSON a perf trajectory rather than a
    single snapshot.  Every row is stamped with :func:`host_fingerprint`.
    Returns the file path.
    """
    path = bench_json_path(name)
    data: Dict = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (ValueError, OSError):
            data = {}
    entry = {k: v for k, v in payload.items()}
    # Every row names the numerical kernel backend it was measured under
    # (rows that compare kernels explicitly set their own value).
    entry.setdefault("kernel", kernel_name())
    for stamp, value in host_fingerprint().items():
        entry.setdefault(stamp, value)
    entry["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    data[key] = entry
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path

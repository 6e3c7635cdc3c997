"""Tiny-size smokes of every benchmark module (the ``bench_smoke`` marker).

The benchmark files under ``benchmarks/`` are not collected by the tier-1
suite (they don't match the ``test_*.py`` pattern), so without this module
a refactor could break them silently until the next full benchmark run.
Each ``bench_*.py`` exposes a ``smoke()`` entry point that exercises its
core measurement at the smallest meaningful size; this test imports and
runs every one of them under tier-1.

Deselect with ``-m "not bench_smoke"`` when iterating on unrelated code.
"""

import importlib
import pathlib

import pytest

_BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"

BENCH_MODULES = sorted(
    path.stem for path in _BENCH_DIR.glob("bench_*.py") if path.stem != "bench_common"
)


def test_every_bench_module_is_smoked():
    """A new bench_*.py must grow a smoke() and get picked up here."""
    assert BENCH_MODULES, "no benchmark modules found"


@pytest.mark.bench_smoke
@pytest.mark.parametrize("module_name", BENCH_MODULES)
def test_bench_smoke(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "smoke"), (
        f"{module_name} lacks a smoke() entry point; every benchmarks/bench_*.py "
        "must expose one so tier-1 can keep it from rotting"
    )
    result = module.smoke()
    assert result is not None


def test_record_bench_stamps_the_host_fingerprint(tmp_path, monkeypatch):
    """Every ledger row says which cores, interpreter and commit produced it."""
    import json

    bench_common = importlib.import_module("bench_common")
    sha = bench_common.host_fingerprint()["git_sha"]
    monkeypatch.setattr(bench_common, "bench_json_path", lambda name: str(tmp_path / name))
    path = bench_common.record_bench("ledger", "row", {"wall_s": 1.0, "cpu_count": 7})
    with open(path, encoding="utf-8") as handle:
        row = json.load(handle)["row"]
    assert row["wall_s"] == 1.0
    assert row["cpu_count"] == 7  # a row's own value wins
    assert row["python"].count(".") == 2
    assert row["git_sha"] == sha and sha

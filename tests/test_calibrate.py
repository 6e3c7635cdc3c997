"""Dispatch-threshold calibration: persistence, loading, and the CLI smoke run.

``python -m repro.field.calibrate`` measures int-vs-accelerated crossovers
and persists them to a JSON document that
:func:`repro.field.kernels.load_dispatch_calibration` applies at import.
These tests cover the load/apply contract hermetically (hand-written
documents, no timing) and run the real CLI in ``--smoke`` mode in a
subprocess -- wall-clock capped via the ``calibrate`` marker's SIGALRM
fixture -- to prove the end-to-end path works in CI.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.field import kernels
from repro.field.kernels import (
    DISPATCH_THRESHOLDS,
    load_dispatch_calibration,
)

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _subprocess_env(calibration_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_DISPATCH_CALIBRATION"] = str(calibration_path)
    return env


@pytest.fixture()
def _restore_thresholds():
    """Snapshot the dispatch table; undo any mutation after the test."""
    saved = dict(DISPATCH_THRESHOLDS)
    try:
        yield
    finally:
        DISPATCH_THRESHOLDS.clear()
        DISPATCH_THRESHOLDS.update(saved)


def test_load_applies_known_keys_only(tmp_path, _restore_thresholds):
    document = {
        "thresholds": {
            "numpy": {
                "elementwise": 7,
                "matmul_ops": 9,
                "no_such_knob": 123,
            },
            "cupy": {"elementwise": 5},
        },
        "meta": {"smoke": True},
    }
    target = tmp_path / "calibration.json"
    target.write_text(json.dumps(document))
    assert load_dispatch_calibration(str(target)) is True
    assert DISPATCH_THRESHOLDS["elementwise"] == 7
    assert DISPATCH_THRESHOLDS["matmul_ops"] == 9
    assert "no_such_knob" not in DISPATCH_THRESHOLDS


@pytest.mark.parametrize(
    "content",
    [
        "",  # empty file
        "not json {",  # malformed
        json.dumps([1, 2, 3]),  # wrong top-level type
        json.dumps({"thresholds": {"numpy": {"elementwise": -4}}}),  # bad value
        json.dumps({"thresholds": {"numpy": {"elementwise": "32"}}}),  # bad type
    ],
)
def test_load_rejects_bad_documents(tmp_path, content, _restore_thresholds):
    before = dict(DISPATCH_THRESHOLDS)
    target = tmp_path / "calibration.json"
    target.write_text(content)
    assert load_dispatch_calibration(str(target)) is False
    assert DISPATCH_THRESHOLDS == before


def test_load_missing_file_is_a_noop(tmp_path, _restore_thresholds):
    before = dict(DISPATCH_THRESHOLDS)
    assert load_dispatch_calibration(str(tmp_path / "absent.json")) is False
    assert DISPATCH_THRESHOLDS == before


def test_calibration_path_honors_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DISPATCH_CALIBRATION", str(tmp_path / "x.json"))
    assert kernels._calibration_path() == str(tmp_path / "x.json")
    monkeypatch.delenv("REPRO_DISPATCH_CALIBRATION")
    assert kernels._calibration_path().endswith("DISPATCH_CALIBRATION.json")


@pytest.mark.calibrate
def test_calibrate_smoke_cli_writes_loadable_document(tmp_path):
    """The CI-friendly path: ``--smoke`` run, then import-time pickup."""
    target = tmp_path / "calibration.json"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.field.calibrate",
            "--smoke",
            "--output",
            str(target),
        ],
        env=_subprocess_env(target),
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr
    document = json.loads(target.read_text())
    assert document["meta"]["smoke"] is True
    thresholds = document["thresholds"]
    assert isinstance(thresholds, dict)
    for table in thresholds.values():
        for value in table.values():
            assert isinstance(value, int) and value > 0

    # A fresh interpreter with REPRO_DISPATCH_CALIBRATION pointing at the
    # document must apply it during ``repro.field.kernels`` import.
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json; from repro.field.kernels import DISPATCH_THRESHOLDS;"
            " print(json.dumps(DISPATCH_THRESHOLDS))",
        ],
        env=_subprocess_env(target),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    loaded = json.loads(probe.stdout)
    for name, value in thresholds.get("numpy", {}).items():
        if name in loaded:
            assert loaded[name] == value

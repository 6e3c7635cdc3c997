"""Golden transcript digests: the pinned reference for whole-protocol runs.

``transcript_digests.json`` next to this file holds two sha256 digests per
pinned cell (scenario-matrix cells, ``run_mpc`` runs, baseline and sharing
runs) of one seeded run, with every field value reduced to a plain int:
``outputs`` covers the honest outputs and the cell's ``extra`` state
(common subsets, verdict maps, BA outputs, accepted stars), ``transcript``
the message/bit fingerprint.  Any change to a single protocol message moves
``transcript``; a change that is meant to keep what the parties compute
must leave every ``outputs`` digest byte-identical.  The file's header
states which commit and which code path produced it.

Tests call :func:`assert_matches_golden`.  Regeneration is explicit and
loud -- ``python -m tests.golden --write`` from the repository root, which
refuses to run on a dirty ``src/``, re-runs every pinned test, says which
cells moved in which half against the file it replaces and refuses to write
if any ``outputs`` half would move -- never a side effect of an environment
variable or a pytest flag.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, Optional

from repro.broadcast.acast import PackedFieldVector
from repro.field.gf import FieldElement

_TESTS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_REPO_ROOT = os.path.dirname(_TESTS_DIR)
GOLDEN_FILE = os.path.join(_TESTS_DIR, "golden", "transcript_digests.json")

#: Test modules containing pinned cells; ``--write`` re-runs exactly these.
PINNED_MODULES = (
    "test_scenario_matrix.py",
    "test_mpc.py",
    "test_acast.py",
    "test_baselines.py",
    "test_bivariate_batch.py",
)

#: Header note naming the code path that produces the digests.
PRODUCED_BY = (
    "the single protocol path with the verdict-vector Phase III of PiWPS/PiVSS, "
    "every PiBA a slot of a bank whose votes ride one PiBC per party, every "
    "logical PiBC an entry of the broadcast carrier of its (sender, anchor "
    "instant), what a sender gives late (verdicts, star2, a late PiBC input) on "
    "the numbered late carriers of that broadcast carrier, one per flush instant, "
    "and the PiABAs of the slots launched at one instant speaking in one vector "
    "per step (the AbaCarrier of repro.ba.aba), priced on the bundle's vote line, "
    "and the rows and points every PiWPS/PiVSS under one root owes one peer at one "
    "instant leaving as one message of the root's SharingPost (repro.sharing.wps), "
    "the L groups of a PiTripSh's PiTripTrans and of a preprocessing's PiTripExt "
    "opening their masks in one PiBeaver, and the shares the n PiTripSh of a "
    "preprocessing open to one peer at one instant leaving as one message of its "
    "OpeningPost (repro.triples.reconstruction): every outputs digest is "
    "byte-identical to the one recorded at 52f183b (one PiBeaver per group and "
    "one message per opening; the transcript digests of every cell with a "
    "PiTripSh or PiTripExt moved), 322462e (one "
    "message per row and per pair's points; the transcript digests of every cell "
    "with two or more sharings under one root moved, those of the lone-PiWPS cells "
    "did not), e6099bc (one "
    "PiBC per ordered pair), 6fb28d1 (one PiBC per PiBA and voter), 2a4941f (one "
    "run of Fig 1 per logical PiBC), b8ff26b (one PiABA message per slot per "
    "step) and 15b8279 (one Acast per late verdict, star2 and late input, and a "
    "PiABA slot priced at 64 bits); the transcript digests of every cell that "
    "runs a PiBA moved, those of the Acast, ampc and two smpc cells did not"
)

#: cell id -> digests while ``--write`` is recording; None in every test run.
_recording: Optional[Dict[str, Dict[str, str]]] = None


def canonical(value: Any) -> Any:
    """Reduce a protocol value to JSON data: field values become ints."""
    if isinstance(value, FieldElement):
        return int(value)
    if isinstance(value, PackedFieldVector):
        return [int(v) for v in value.values]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, dict):
        return [[canonical(k), canonical(v)] for k, v in sorted(value.items())]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"no canonical form for {type(value).__name__} (ints only)")


def transcript_fingerprint(result: Any) -> Dict[str, Any]:
    """Message/bit counters that change if any protocol message does."""
    metrics = result.metrics
    return {
        "messages_sent": metrics.messages_sent,
        "messages_delivered": metrics.messages_delivered,
        "honest_bits": metrics.honest_bits,
        "total_bits": metrics.total_bits,
        "max_message_bits": metrics.max_message_bits,
        "bits_by_round": tuple(sorted(metrics.bits_by_round.items())),
    }


def _sha256(payload: Any) -> str:
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def digest(result: Any, extra: Any = None) -> Dict[str, str]:
    """The ``outputs`` and ``transcript`` sha256 digests of a run.

    ``result`` is a ``RunResult`` or an ``MPCResult``; ``extra`` is any
    further per-cell state the test wants pinned (common subset, verdicts)
    and belongs to the ``outputs`` half.
    """
    run = getattr(result, "run", result)
    return {
        "outputs": _sha256({
            "outputs": canonical(run.honest_outputs()),
            "extra": canonical(extra),
        }),
        "transcript": _sha256(canonical(transcript_fingerprint(run))),
    }


def assert_matches_golden(cell_id: str, result: Any, extra: Any = None) -> None:
    """Assert that both of this run's digests equal those pinned for ``cell_id``."""
    actual = digest(result, extra)
    if _recording is not None:
        previous = _recording.setdefault(cell_id, actual)
        assert previous == actual, (
            f"golden cell {cell_id!r} recorded twice with different digests: "
            f"{previous} then {actual}"
        )
        return
    with open(GOLDEN_FILE, encoding="utf-8") as handle:
        expected = json.load(handle)["cells"].get(cell_id)
    assert expected is not None, (
        f"golden cell {cell_id!r} is missing from {GOLDEN_FILE} (this run: "
        f"{actual}); regenerate explicitly with `python -m tests.golden --write`"
    )
    moved = [half for half in ("outputs", "transcript") if actual[half] != expected[half]]
    assert not moved, (
        f"golden cell {cell_id!r} changed in {' and '.join(moved)}: "
        f"pinned {expected}, this run {actual}"
    )


def write_golden(cells: Dict[str, Dict[str, str]]) -> None:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=_REPO_ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    document = {
        "header": {
            "commit": commit,
            "produced_by": PRODUCED_BY,
            "python": platform.python_version(),
            "cells": len(cells),
        },
        "cells": dict(sorted(cells.items())),
    }
    with open(GOLDEN_FILE, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def replace_golden(cells: Dict[str, Dict[str, str]]) -> int:
    """Write ``cells`` over the golden file, saying which cells pinned in both
    moved in which half -- unless an ``outputs`` half would move (exit 1)."""
    previous = {}
    if os.path.exists(GOLDEN_FILE):
        with open(GOLDEN_FILE, encoding="utf-8") as handle:
            previous = json.load(handle)["cells"]
    moved = {
        half: sorted(cell for cell in previous.keys() & cells.keys()
                     if previous[cell][half] != cells[cell][half])
        for half in ("outputs", "transcript")
    }
    print(f"outputs moved: {len(moved['outputs'])}, transcript moved: {len(moved['transcript'])}")
    for half, ids in moved.items():
        for cell in ids:
            print(f"  {half}: {cell}")
    if moved["outputs"]:
        print("what the parties compute changed; golden file left untouched")
        return 1
    write_golden(cells)
    print(f"wrote {len(cells)} cells to {GOLDEN_FILE}")
    return 0


def main(argv=None) -> int:
    """``python -m tests.golden --write``: re-record every pinned cell."""
    global _recording
    if (sys.argv[1:] if argv is None else argv) != ["--write"]:
        print("usage: python -m tests.golden --write   (re-records every pinned cell)")
        return 2
    dirty = subprocess.run(
        ["git", "status", "--porcelain", "--", "src"], cwd=_REPO_ROOT, check=True,
        capture_output=True, text=True,
    ).stdout
    if dirty:
        print("refusing to record golden digests from a dirty src/:\n" + dirty)
        return 2

    import pytest

    _recording = {}
    modules = [os.path.join(_TESTS_DIR, name) for name in PINNED_MODULES]
    # "tier2 or not tier2" selects everything, including the full grid.
    status = pytest.main(["-q", "-m", "tier2 or not tier2", *modules])
    if status != 0 or not _recording:
        print(f"pinned tests did not pass (pytest exit {status}); golden file left untouched")
        return 1
    return replace_golden(_recording)

"""Where the benchmark lives in the checkout, and its build step."""

from __future__ import annotations

import compileall
import json
import os
import sys
import tempfile
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(HERE, ".build")
RESULTS = os.path.join(HERE, "results")
#: Temporary files of this checkout's runs (the tcp job specs).
TMP = os.path.join(BUILD, "tmp")


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def prepare_checkout() -> None:
    """The build step: compile the stack, keep temporary files in the checkout.

    Bytecode is compiled here, up front, whatever PYTHONDONTWRITEBYTECODE
    says, so that the first run in a fresh checkout and the hundredth pay
    the same import cost in ``setup_s`` and in every tcp party process.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"benchmarks/e2e: no src/repro under {ROOT}: the benchmark needs the repository")
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = TMP
    for directory in (os.path.join(SRC, "repro"), HERE):
        if not compileall.compile_dir(directory, quiet=2):
            sys.exit(f"benchmarks/e2e: could not compile {directory}")
    sys.path.insert(0, SRC)

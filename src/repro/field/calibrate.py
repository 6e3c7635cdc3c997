"""Dispatch-threshold calibration: ``python -m repro.field.calibrate``.

The numpy kernel self-dispatches per call: list inputs below the size
crossovers in :data:`repro.field.kernels.DISPATCH_THRESHOLDS` run the int
reference path instead.  The shipped values were measured on the dev
container; this module re-measures the crossovers on the *local* machine
and persists them to
``DISPATCH_CALIBRATION.json`` at the repo root (next to
``BENCH_batch.json``), where
:func:`repro.field.kernels.load_dispatch_calibration` picks them up at the
next import.

Measurement method: for each dispatched op family we time the accelerated
path against the int reference path over a geometric ladder of input sizes
and take the first size where the accelerated path wins two consecutive
rungs (hysteresis against timer noise).  If the accelerated path never
wins within the ladder, the crossover is pinned above the ladder's top so
the kernel keeps delegating.  ``--smoke`` shrinks repetitions and the
ladder for CI; the persisted file keeps the same shape either way.

The thresholds only steer *dispatch* between exact twins -- a bad
calibration can cost speed, never correctness.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.field.kernels import (
    DISPATCH_THRESHOLDS,
    M61,
    IntKernel,
    NumpyKernel,
    _calibration_path,
    numpy_available,
)

#: Geometric size ladders per op family (full mode); --smoke keeps every
#: other rung.  "matmul_ops" sizes are scalar-multiplication counts realized
#: as square-ish mat_rows shapes.
_LADDERS: Dict[str, List[int]] = {
    "elementwise": [16, 32, 64, 128, 256, 512, 1024, 2048],
    "inverse": [16, 32, 64, 128, 256, 512, 1024, 2048, 4096],
    "matmul_ops": [64, 128, 256, 512, 1024, 2048, 4096, 8192],
}

def _det_values(p: int, count: int, seed: int = 1) -> List[int]:
    """Deterministic nonzero residues (no randomness: calibration must not
    perturb any seeded rng stream a caller shares with a protocol run)."""
    out = []
    value = seed
    for _ in range(count):
        value = (value * 6364136223846793005 + 1442695040888963407) % p
        out.append(value or 1)
    return out


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_crossover(
    sizes: List[int],
    accel_fn: Callable[[int], Callable[[], object]],
    ref_fn: Callable[[int], Callable[[], object]],
    repeats: int,
) -> int:
    """First ladder size where the accelerated path wins twice in a row.

    Returns one rung above the ladder top when it never wins (the kernel
    then always delegates within measured range).
    """
    first_win: Optional[int] = None
    for size in sizes:
        accel = _best_of(accel_fn(size), repeats)
        ref = _best_of(ref_fn(size), repeats)
        if accel < ref:
            if first_win is None:
                first_win = size
            else:
                return first_win
        else:
            first_win = None
    if first_win is not None:
        return first_win
    return sizes[-1] * 2


def _matmul_shape(ops: int) -> tuple:
    """(rows, m, k) with rows*m*k ~ ops, biased to the decode-path shapes
    (a handful of wide rows against a square-ish cached matrix)."""
    m = max(2, int(round(ops ** (1 / 3))))
    rows = max(1, ops // (m * m))
    return rows, m, m


def _calibrate_kernel(kernel, p: int, smoke: bool) -> Dict[str, int]:
    """Measured crossovers for one accelerated kernel at modulus ``p``.

    The accelerated path is forced by lowering the kernel's own thresholds
    to 1 for the duration (dispatch would otherwise hide the crossover);
    the reference path is a fresh :class:`IntKernel`.
    """
    ref = IntKernel()
    repeats = 3 if smoke else 7
    ladders = {
        name: (ladder[::2] if smoke else ladder)
        for name, ladder in _LADDERS.items()
    }
    table = DISPATCH_THRESHOLDS
    saved = dict(table)
    for key in ("elementwise", "inverse", "matmul_ops"):
        table[key] = 1
    try:
        results: Dict[str, int] = {}

        def elem(size: int) -> Callable[[], object]:
            a = _det_values(p, size, 1)
            b = _det_values(p, size, 2)
            return lambda: kernel.mul(p, a, b)

        def elem_ref(size: int) -> Callable[[], object]:
            a = _det_values(p, size, 1)
            b = _det_values(p, size, 2)
            return lambda: ref.mul(p, a, b)

        results["elementwise"] = _measure_crossover(
            ladders["elementwise"], elem, elem_ref, repeats
        )

        def inverse(size: int) -> Callable[[], object]:
            a = _det_values(p, size, 3)
            return lambda: kernel.batch_inverse(p, a)

        def inverse_ref(size: int) -> Callable[[], object]:
            a = _det_values(p, size, 3)
            return lambda: ref.batch_inverse(p, a)

        results["inverse"] = _measure_crossover(
            ladders["inverse"], inverse, inverse_ref, repeats
        )

        def matmul(size: int) -> Callable[[], object]:
            rows, m, k = _matmul_shape(size)
            matrix = [_det_values(p, k, 10 + j) for j in range(m)]
            data = [_det_values(p, k, 100 + j) for j in range(rows)]
            return lambda: kernel.mat_rows(p, matrix, data)

        def matmul_ref(size: int) -> Callable[[], object]:
            rows, m, k = _matmul_shape(size)
            matrix = [_det_values(p, k, 10 + j) for j in range(m)]
            data = [_det_values(p, k, 100 + j) for j in range(rows)]
            return lambda: ref.mat_rows(p, matrix, data)

        results["matmul_ops"] = _measure_crossover(
            ladders["matmul_ops"], matmul, matmul_ref, repeats
        )
        # Matrix storage follows the same conversion-overhead tradeoff as
        # element-wise work: below the elementwise crossover, keeping list
        # storage is cheaper than building an array.
        results["matrix_elems"] = results["elementwise"]
        return results
    finally:
        table.update(saved)


def calibrate(
    kernels: Optional[List[str]] = None, smoke: bool = False
) -> Dict[str, object]:
    """Measure dispatch crossovers for each requested installed kernel.

    Returns the persistable document: ``{"thresholds": {kernel: {name:
    crossover}}, "meta": {...}}``.  Kernels that are not installed are
    skipped (recorded in meta) rather than failing -- calibration must run
    on any machine the repo lands on.
    """
    wanted = kernels if kernels is not None else ["numpy"]
    thresholds: Dict[str, Dict[str, int]] = {}
    skipped: List[str] = []
    for name in wanted:
        if name == "numpy":
            if not numpy_available():
                skipped.append(name)
                continue
            thresholds[name] = _calibrate_kernel(NumpyKernel(), M61, smoke)
        else:
            raise ValueError(f"unknown calibratable kernel {name!r}")
    return {
        "thresholds": thresholds,
        "meta": {
            "smoke": smoke,
            "skipped": skipped,
            "python": sys.version.split()[0],
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.field.calibrate",
        description="Re-measure kernel dispatch crossovers and persist them.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: fewer repeats, a shorter size ladder",
    )
    parser.add_argument(
        "--kernels",
        default="numpy",
        help="comma-separated kernels to calibrate (default: numpy)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="destination JSON (default: DISPATCH_CALIBRATION.json at the "
        "repo root, or $REPRO_DISPATCH_CALIBRATION)",
    )
    args = parser.parse_args(argv)
    wanted = [name.strip() for name in args.kernels.split(",") if name.strip()]
    document = calibrate(wanted, smoke=args.smoke)
    target = args.output or _calibration_path()
    parent = os.path.dirname(os.path.abspath(target))
    os.makedirs(parent, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for kernel_name, table in document["thresholds"].items():
        line = ", ".join(f"{k}={v}" for k, v in sorted(table.items()))
        print(f"{kernel_name}: {line}")
    for kernel_name in document["meta"]["skipped"]:
        print(f"{kernel_name}: skipped (not installed)")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

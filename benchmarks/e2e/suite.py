"""The suite: every workload of BENCHMARK.json, each run in a fresh process.

``run.py`` without ``--workload`` lands here.  The timed pass runs every
workload twice, the halves interleaved across workloads (A B C D A B C D)
with seeds S and S+1, so that drift of this shared host shows as the
difference between a workload's two halves instead of hiding in one of them;
a metric's value for the set is the median of its halves.  ``--trace`` runs
the per-layer pass instead, ``--smoke`` both passes at their smallest size,
and ``--check-repeat`` two timed sets of the same seeds, compared metric by
metric against the bounds in BENCHMARK.json.  Every report is stamped with
the host's fingerprint and written to ``results/suite-<mode>.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from checkout import HERE, RESULTS, ROOT, prepare_checkout

#: Outer cap on one child run; the tcp caps inside it are tighter.
RUN_TIMEOUT_S = 180
#: Counts on these workloads are a function of the seed alone.
SIMULATED = ("sync_n4_tripsh", "async_n5_him", "service_n4_stream")


def fingerprint() -> Dict[str, Any]:
    import numpy
    from repro.field.kernels import kernel_name

    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=False)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": kernel_name(),
        "git_sha": git.stdout.strip() if git.returncode == 0 else "unknown",
        "load_average_start": os.getloadavg(),
    }


def run_child(workload: str, seed: int, options: List[str]) -> Dict[str, Any]:
    """One ``run.py --workload`` process; echoes its metric lines as they end."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed)] + options
    started = time.perf_counter()
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                              check=False)
        code, lines = done.returncode, done.stdout.splitlines()
        sys.stderr.write(done.stderr)
    except subprocess.TimeoutExpired:
        code, lines = 1, []
        print(f"suite: {workload} did not end within {RUN_TIMEOUT_S} s", file=sys.stderr)
    result: Dict[str, Any] = {"workload": workload, "seed": seed, "returncode": code,
                              "wall_s": time.perf_counter() - started, "reps": []}
    for line in lines:
        if line.startswith("reps "):
            result["reps"] = json.loads(line[5:])
        elif line.startswith("{"):
            result.update(json.loads(line))
        else:
            print(line)
    if "metrics" not in result:
        result.update(correct=False, attempted=0, failed=0, metrics={}, returncode=code or 1)
    sys.stdout.flush()
    return result


def timed_set(spec: Dict[str, Any], args) -> Dict[str, List[Dict[str, Any]]]:
    """Two interleaved halves of every workload; returns the runs by workload."""
    runs: Dict[str, List[Dict[str, Any]]] = {w["name"]: [] for w in spec["workloads"]}
    for half in (0, 1):
        for name in runs:
            runs[name].append(run_child(
                name, args.seed + half, ["--seconds", str(args.seconds), "--trace", "0"]))
    return runs


def set_values(spec: Dict[str, Any], halves: List[Dict[str, Any]]) -> Dict[str, float]:
    """A set's value per end-to-end metric: the median of the halves that report it."""
    values = {}
    for metric in spec["end_to_end"]:
        reported = [h["metrics"][metric["name"]]["value"] for h in halves
                    if metric["name"] in h["metrics"]]
        if reported:
            values[metric["name"]] = statistics.median(reported)
    return values


def print_set(spec: Dict[str, Any], runs: Dict[str, List[Dict[str, Any]]]) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, halves in runs.items():
        for key, value in set_values(spec, halves).items():
            parts = " ".join(repr(h["metrics"][key]["value"]) for h in halves
                             if key in h["metrics"])
            print(f"e2e {name} {key} {value!r} {units[key]} (halves: {parts})")
        print(f"e2e {name} failed_evals {sum(h['failed'] for h in halves)} count "
              f"(of evals_attempted {sum(h['attempted'] for h in halves)})")


def compare_sets(spec: Dict[str, Any], first, second) -> bool:
    """Print both medians, their relative difference and the verdict; True if all pass."""
    agreed = True
    for name in first:
        one, two = set_values(spec, first[name]), set_values(spec, second[name])
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in one or key not in two:
                print(f"repeat {name} {key} missing FAIL")
                agreed = False
                continue
            relative = abs(two[key] - one[key]) / abs(one[key])
            verdict = "pass" if relative <= metric["bound"] else "FAIL"
            agreed &= verdict == "pass"
            print(f"repeat {name} {key} {one[key]!r} {two[key]!r} {metric['unit']} "
                  f"differ {relative:.4f} bound {metric['bound']} {verdict}")
        if name in SIMULATED:
            # Same seed, same evaluation: messages, bits and rounds must be
            # identical wherever both sets got as far as that evaluation.
            for half, (a, b) in enumerate(zip(first[name], second[name])):
                common = min(len(a["reps"]), len(b["reps"]))
                same = common > 0 and a["reps"][:common] == b["reps"][:common]
                agreed &= same
                print(f"repeat {name} half {half} counts of {common} evaluations "
                      f"{'identical' if same else 'DIFFER'}")
    return agreed


def run_suite(args, spec: Dict[str, Any]) -> int:
    prepare_checkout()
    stamp = fingerprint()
    print("host " + json.dumps(stamp))
    names = [w["name"] for w in spec["workloads"]]
    report: Dict[str, Any] = {"host": stamp, "seed": args.seed}
    agreed = True
    if args.smoke:
        mode = "smoke"
        extra = ["--break-oracle"] if args.break_oracle else []
        runs = {name: [run_child(name, args.seed, ["--smoke"] + extra)] for name in names}
    elif args.trace:
        mode = "trace"
        runs = {name: [run_child(name, args.seed, ["--trace", "1"])] for name in names}
    else:
        mode = "repeat" if args.check_repeat else "timed"
        runs = timed_set(spec, args)
        print_set(spec, runs)
        if args.check_repeat:
            second = timed_set(spec, args)
            print_set(spec, second)
            agreed = compare_sets(spec, runs, second)
            runs = {name: runs[name] + second[name] for name in names}
    report["runs"] = runs

    # Only the load found at the start is held against the run: the tcp
    # workload's four processes alone put the end's above nproc on this host.
    stamp["load_average_end"] = os.getloadavg()
    if stamp["load_average_start"][0] > stamp["nproc"]:
        print(f"WARNING load average {stamp['load_average_start'][0]} above "
              f"nproc={stamp['nproc']} at the start: timings are suspect")
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"suite-{mode}.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")

    every = [r for halves in runs.values() for r in halves]
    failed = sum(r["failed"] for r in every)
    broken = [r["workload"] for r in every if r["returncode"] != 0]
    print(f"suite {mode}: {sum(r['attempted'] for r in every)} evaluations, {failed} failed, "
          f"runs exiting non-zero: {broken or 'none'}"
          + ("" if agreed else ", sets disagree"))
    return 0 if not failed and not broken and agreed else 1

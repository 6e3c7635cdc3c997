"""End-to-end benchmark of the MPC stack: one run of one workload, or the suite.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1

is the unit the benchmark driver calls (see BENCHMARK.json at the repo root):
it sets the workload up, measures it for N seconds through the public API,
checks every output with :mod:`oracle`, prints each metric by name with its
unit and ends with one JSON line.  ``--trace 0`` reports the end-to-end
metrics with no wrapper installed; ``--trace 1`` reports the per-layer table
from :mod:`tracer`'s wrappers and writes ``results/trace-<workload>.json``.

Without ``--workload`` it runs every workload, each run in a fresh process,
as :mod:`suite` describes (``--smoke``, ``--check-repeat``).  README.md in
this directory is the glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from checkout import RESULTS, TMP, load_spec, prepare_checkout
from hostspeed import Gauge

PROBE_TIMEOUT_S = 150

Metric = Tuple[float, str]  # value, human-readable note


def peak_rss_mb() -> float:
    """Largest resident set so far of this process or any reaped child."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def quartiles(values: Sequence[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f}"


def build_workload(args: argparse.Namespace, gauge: Optional[Gauge]):
    """Import the stack and construct the workload.

    Returns it and the seconds that took, corrected for the host's slowdown.
    """
    started = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke,
                                        break_oracle=args.break_oracle, gauge=gauge)
    ended = time.perf_counter()
    return workload, (ended - started) / (gauge.slowdown(started, ended) if gauge else 1.0)


def probe_setup(args: argparse.Namespace, gauge: Gauge, count: int) -> List[float]:
    """Set the workload up ``count`` more times, each in a fresh process.

    A probe is too short to gauge the host itself, so this process does.
    """
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        slowdown = gauge.slowdown(started, time.perf_counter())
        samples.append(float(done.stdout.splitlines()[-1]) / slowdown)
    return samples


def measure_end_to_end(args: argparse.Namespace, workload, setup_s: float, gauge: Gauge):
    """The timed pass: rounds until they add up to ``--seconds``, no wrapper installed.

    A round that has started is finished, so the pass overshoots by at most
    one round (one evaluation; one refill cycle on the service).  The set-up
    probes run between the rounds, a few after each, so that one slow phase
    of a shared host cannot colour every sample of ``setup_s``.
    """
    evaluations = []
    setup_samples = [setup_s]
    probes_left = 0 if workload.smoke else workload.setup_probes
    rss = measured = 0.0
    index = 1
    while index == 1 or (measured < args.seconds and not workload.smoke):
        if workload.collect_between_rounds:
            gc.collect()
        started = time.perf_counter()
        evaluations += workload.round(index)
        measured += time.perf_counter() - started
        if index == 1:
            # Read at a fixed amount of work: the service heap grows with
            # every evaluation, and how many fit in the run depends on speed.
            rss = peak_rss_mb()
        index += 1
        probes = min(probes_left, workload.probes_per_round)
        setup_samples += probe_setup(args, gauge, probes)
        probes_left -= probes
    setup_samples += probe_setup(args, gauge, probes_left)

    # Times are divided by the host's slowdown while they were measured
    # (see hostspeed.py), except a wall that a real clock paces.
    walls = [e.wall_s / (e.slowdown if workload.cpu_bound_wall else 1.0) for e in evaluations]
    count = len(evaluations)
    metrics: Dict[str, Metric] = {
        "setup_s": (statistics.median(setup_samples), quartiles(setup_samples)),
        "eval_wall_s_p50": (statistics.median(walls), quartiles(walls)),
        "evals_per_s": (count / sum(walls), f"{count} evaluations in {sum(walls):.2f} s"),
        "cpu_s_per_eval": (sum(e.cpu_s / e.slowdown for e in evaluations) / count,
                           "self + children"),
        "peak_rss_mb": (rss, "after the first timed round"),
        "messages_per_eval": (sum(e.messages for e in evaluations) / count, "mean"),
        "honest_bits_per_eval": (sum(e.honest_bits for e in evaluations) / count, "mean"),
        "rounds_to_output": (statistics.median(e.rounds for e in evaluations), "median"),
    }
    print(f"info {workload.name} host_slowdown "
          f"{statistics.mean(e.slowdown for e in evaluations):.3f} mean, uncorrected "
          f"eval_wall_s_p50 {statistics.median(e.wall_s for e in evaluations):.4f} s")
    print(f"info {workload.name} parties_left_out_of_cs {sum(e.left_out for e in evaluations)}")
    if count >= 20:  # ten samples beyond the percentile
        p80 = statistics.quantiles(walls, n=5)[-1]
        print(f"info {workload.name} eval_wall_s_p80 {p80:.4f} s")
    return metrics, evaluations


def report(workload_name: str, units: Dict[str, str], metrics: Dict[str, Metric],
           evaluations: list) -> int:
    """Print every metric by name with its unit, then the driver's JSON line."""
    for name, unit in units.items():
        value, note = metrics[name]
        print(f"metric {workload_name} {name} {value!r} {unit} ({note})")
    failed = [e for e in evaluations if e.failures]
    for evaluation in failed:
        print(f"failed {workload_name}: {evaluation.failures}", file=sys.stderr)
    # Per-evaluation counts: --check-repeat holds two runs of one seed to
    # identical values wherever both got as far as the same evaluation.
    print("reps " + json.dumps([[e.messages, e.honest_bits, e.rounds] for e in evaluations]))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(evaluations),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if failed else 0


def run_one(args: argparse.Namespace) -> int:
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"run.py: unknown workload {args.workload!r}")
    prepare_checkout()
    end_to_end, per_layer = not args.trace or args.smoke, args.trace or args.smoke
    gauge = None
    if end_to_end and not args.setup_probe:  # a probe is gauged by its parent
        gauge = Gauge()
        gauge.start()
    workload, setup_s = build_workload(args, gauge)
    if args.setup_probe:
        workload.close()
        print(repr(setup_s))
        return 0

    units: Dict[str, str] = {}
    metrics: Dict[str, Metric] = {}
    try:
        if end_to_end:
            values, evaluations = measure_end_to_end(args, workload, setup_s, gauge)
            gauge.stop()
            workload.gauge = None
            units.update((m["name"], m["unit"]) for m in spec["end_to_end"])
            metrics.update(values)
        else:
            evaluations = workload.round(1)
        if per_layer:
            from layers import measure_layers

            rows, traced = measure_layers(workload, evaluations, RESULTS)
            evaluations = evaluations + traced
            layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            unknown = sorted(set(rows) - set(layer_units))
            if unknown:
                sys.exit(f"run.py: layer rows {unknown} are not in BENCHMARK.json")
            units.update(layer_units)
            # A layer that did not run on this workload reads 0.
            metrics.update((name, (rows.get(name, 0.0), "traced")) for name in layer_units)
    finally:
        workload.close()
    status = report(workload.name, units, metrics, evaluations)
    return status or stray_party_processes()


def stray_party_processes() -> int:
    """1 if a ``repro.launch`` party process of this checkout is still alive."""
    marker = TMP.encode()
    stray = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                command = handle.read()
        except OSError:  # exited while we looked
            continue
        if b"repro.launch" in command and marker in command:
            stray.append(int(pid))
    if stray:
        print(f"run.py: orphan party processes {stray}", file=sys.stderr)
    return 1 if stray else 0


def parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: the per-layer pass instead of the end-to-end pass")
    parser.add_argument("--smoke", action="store_true",
                        help="both passes at their smallest size (under a minute for the suite)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="suite only: run two sets and compare them against the bounds")
    parser.add_argument("--break-oracle", action="store_true",
                        help="give the oracle a wrong expectation: the run must exit non-zero")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return args


def main(argv: Sequence[str]) -> int:
    args = parse(argv)
    if args.workload is not None:
        return run_one(args)
    from suite import run_suite

    return run_suite(args, load_spec())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

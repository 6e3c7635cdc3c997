"""Smoke test of the end-to-end benchmark (about a minute; not part of tier-1).

    python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: One ``run_mpc`` call or a few identical service evaluations: whole numbers.
EXACT = {(workload, metric)
         for workload in ("sync_n4_tripsh", "async_n5_him", "service_n4_stream")
         for metric in ("messages_per_eval", "honest_bits_per_eval")}


def test_smoke_prints_every_metric_of_every_workload_with_its_unit():
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    done = subprocess.run(RUN + ["--smoke"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]

    printed = {}
    for line in done.stdout.splitlines():
        if line.startswith("metric "):
            _, workload, metric, value, unit = line.split()[:5]
            printed[workload, metric] = (float(value), unit)
    for workload in spec["workloads"]:
        assert NAME.fullmatch(workload["name"])
        for metric in spec["end_to_end"] + spec["per_layer"]:
            key = (workload["name"], metric["name"])
            assert NAME.fullmatch(metric["name"])
            assert key in printed, f"{key} was not printed"
            value, unit = printed[key]
            assert unit == metric["unit"]
            if key in EXACT:
                assert value > 0 and value.is_integer(), f"{key} = {value}"
    assert "0 failed" in done.stdout.splitlines()[-1]


def test_a_wrong_expected_output_makes_the_run_exit_non_zero():
    done = subprocess.run(RUN + ["--workload", "sync_n4_tripsh", "--smoke", "--break-oracle"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode != 0
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False

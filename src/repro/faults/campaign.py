"""Seeded chaos campaigns: sampled fault plans vs the guarantee table.

A campaign samples :class:`~repro.faults.plan.FaultPlan`s from a seed, runs
the reference MPC workload (the all-party multiplication circuit) under each
plan on the deterministic simulator, and checks the run
against the paper's guarantee matrix:

* **Safety always.**  If the run completes, every honest party must agree
  and the outputs must equal the circuit evaluated in the clear on the
  inputs of the agreed common subset CS, every input outside it 0 (Theorem
  7.1: a party crashed, partitioned or slowed past its ΠVSS may be left
  out, and then contributes 0).  CS holds at least n - t_s parties, and
  every party that was not killed when the plan loses no message on a
  network that stays synchronous.
* **Liveness per the threshold of the *effective* network model.**  A
  plan that preserves delivery (no drops/corruption/partitions) must
  complete when its kills fit the threshold: ``t_s`` for a synchronous
  run whose plan also preserves synchrony, ``t_a`` otherwise -- injected
  latency/skew can stretch deliveries past the sync Delta
  (:meth:`FaultPlan.breaks_synchrony`), which lawfully degrades a
  synchronous run to the paper's asynchronous guarantees (the best-of-
  both fallback paths).  Message-losing plans void the liveness guarantee
  entirely (the delivery contract); the run may stall, but never emit
  wrong outputs.
* **Typed, loud abort beyond the threshold.**  More kills than the model
  tolerates is outside the paper's guarantees: a stalled run is reported as
  a :class:`ThresholdExceededAbort` outcome rather than a silent pass or a
  failure.

On any violation the campaign dumps the plan seed + spec + decision log to
a JSON artifact and prints a one-line repro command (the CLI below replays
an artifact or a ``(seed, scenario)`` pair), then raises
:class:`ChaosCampaignFailure`.

CLI::

    python -m repro.faults.campaign --plans 8 --n 4 --ts 1 --ta 0
    python -m repro.faults.campaign --replay chaos-artifacts/plan-ab12.json
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from typing import Any, Dict, List, Optional

from repro.faults.plan import FaultPlan, LinkFault, LinkLatency, Partition, ProcessFault

#: Outcome labels for one chaos case.
OK, STALLED_ALLOWED, THRESHOLD_ABORT = "ok", "stalled-allowed", "threshold-abort"


class ChaosCampaignFailure(AssertionError):
    """A sampled fault plan violated the guarantee table.

    Carries the plan and the artifact path so harnesses can surface the
    repro command; the message already includes both.
    """

    def __init__(self, message: str, plan: FaultPlan, artifact: Optional[str]):
        self.plan = plan
        self.artifact = artifact
        super().__init__(message)


class ThresholdExceededAbort(RuntimeError):
    """Typed abort: the plan killed more parties than ``t_s``/``t_a`` allow.

    Raised (and, inside a campaign, caught and recorded) when such a run
    fails to complete -- the paper makes no liveness promise there, and the
    loud typed outcome keeps it from reading as a silent success.
    """

    def __init__(self, killed: List[int], threshold: int, synchronous: bool):
        self.killed = killed
        self.threshold = threshold
        self.synchronous = synchronous
        mode = "t_s" if synchronous else "t_a"
        super().__init__(
            f"{len(killed)} parties killed {killed} exceeds {mode}={threshold}; "
            "no liveness guarantee (safety still held)"
        )


def sample_plan(
    seed: int,
    n: int,
    include_loss: bool = True,
    include_kills: bool = True,
    max_kills: int = 2,
) -> FaultPlan:
    """Draw one random-but-seeded fault plan over ``n`` parties.

    Always includes benign chaos (duplicates, reorders, latency, clock
    skew); ``include_loss`` adds drop/corrupt schedules and a healing
    partition, ``include_kills`` adds crash-kill process faults.  Everything
    derives from ``random.Random(seed)``, so a campaign is replayable from
    its base seed alone.
    """
    rng = random.Random(seed)
    link_faults: List[LinkFault] = [
        LinkFault(
            duplicate=rng.uniform(0.0, 0.15),
            reorder=rng.uniform(0.0, 0.15),
        )
    ]
    latencies: List[LinkLatency] = []
    if rng.random() < 0.6:
        latencies.append(
            LinkLatency(
                sender=rng.randrange(1, n + 1),
                base=rng.uniform(0.0, 0.3),
                jitter=rng.uniform(0.0, 0.2),
            )
        )
    clock_skews: Dict[int, float] = {}
    if rng.random() < 0.5:
        clock_skews[rng.randrange(1, n + 1)] = rng.uniform(0.0, 0.4)
    partitions: List[Partition] = []
    if include_loss and rng.random() < 0.5:
        isolated = rng.randrange(1, n + 1)
        rest = frozenset(range(1, n + 1)) - {isolated}
        window = rng.randrange(5, 40)
        partitions.append(
            Partition(
                groups=(frozenset({isolated}), rest),
                from_seq=0,
                until_seq=window,
            )
        )
    if include_loss and rng.random() < 0.5:
        link_faults.insert(
            0,
            LinkFault(
                sender=rng.randrange(1, n + 1),
                drop=rng.uniform(0.0, 0.08),
                corrupt=rng.uniform(0.0, 0.05),
            ),
        )
    process_faults: List[ProcessFault] = []
    if include_kills:
        kills = rng.randrange(0, max_kills + 1)
        victims = rng.sample(range(1, n + 1), min(kills, n))
        for victim in victims:
            process_faults.append(
                ProcessFault(party=victim, sim_time=round(rng.uniform(0.0, 20.0), 3))
            )
    return FaultPlan(
        seed=seed,
        link_faults=link_faults,
        partitions=partitions,
        latencies=latencies,
        clock_skews=clock_skews,
        process_faults=process_faults,
    )


def run_case(
    plan: FaultPlan,
    n: int = 4,
    ts: int = 1,
    ta: int = 0,
    synchronous: bool = True,
    seed: int = 0,
    max_time: Optional[float] = None,
) -> Dict[str, Any]:
    """Run the reference workload under one plan; return the case record.

    Raises :class:`AssertionError` on a safety/liveness violation and
    :class:`ThresholdExceededAbort` when an over-threshold kill plan stalls
    (callers distinguish the typed abort from a genuine failure).
    """
    from repro.circuits import multiplication_circuit
    from repro.field.gf import default_field
    from repro.mpc.engine import run_mpc
    from repro.mpc.protocol import cir_eval_time_bound
    from repro.runtime import make_backend
    from repro.sim.network import AsynchronousNetwork, SynchronousNetwork

    plan = plan.fresh()
    field = default_field()
    circuit = multiplication_circuit(field, n_parties=n)
    inputs = {pid: pid + 2 for pid in range(1, n + 1)}
    network = SynchronousNetwork() if synchronous else AsynchronousNetwork()
    backend = make_backend("sim", n, network=network, field=field, seed=seed, faults=plan)
    killed = []
    for pf in plan.process_faults:
        killed.append(pf.party)
        backend.crash_party(pf.party, at_time=pf.sim_time or 0.0)
    killed = sorted(set(killed))
    if max_time is None:
        # Generous stall cutoff: several nominal bounds plus the extra
        # latency the plan itself injects (skews/latency stretch rounds).
        bound = cir_eval_time_bound(
            n, ts, circuit.multiplicative_depth, network.delta
        )
        max_time = 8.0 * bound + 50.0
    result = run_mpc(
        circuit,
        inputs,
        n=n,
        ts=ts,
        ta=ta,
        seed=seed,
        max_time=max_time,
        backend=backend,
    )
    # The liveness threshold follows the *effective* network model: a plan
    # that injects latency/skew stretches deliveries past the sync Delta,
    # so a synchronous run under it only keeps the asynchronous guarantees
    # (t_a) via the best-of-both fallback paths.
    effective_sync = synchronous and not plan.breaks_synchrony()
    threshold = ts if effective_sync else ta
    record: Dict[str, Any] = {
        "plan_seed": plan.seed,
        "plan_hash": plan.plan_hash(),
        "n": n,
        "ts": ts,
        "ta": ta,
        "synchronous": synchronous,
        "killed": killed,
        "loses_messages": plan.loses_messages(),
        "breaks_synchrony": plan.breaks_synchrony(),
        "completed": result.completed,
        "decisions": len(plan.log),
        "outcome": None,
        "outputs": None,
    }
    if result.completed:
        # Safety: agreement plus outputs matching a legal reference.
        assert result.agreed, (
            f"plan {plan.plan_hash()}: honest parties disagree on outputs"
        )
        outputs = tuple(int(v) for v in result.outputs)
        record["outputs"] = list(outputs)
        common = result.common_subset or []
        record["common_subset"] = common
        assert len(common) >= n - ts, (
            f"plan {plan.plan_hash()}: common subset {common} has fewer than n - t_s parties"
        )
        if effective_sync and not plan.loses_messages():
            assert set(common) >= set(inputs) - set(killed), (
                f"plan {plan.plan_hash()}: common subset {common} leaves out a party "
                f"that was not killed (killed={killed}) on a lossless synchronous plan"
            )
        reference = tuple(int(v) for v in circuit.evaluate(
            {pid: value if pid in common else 0 for pid, value in inputs.items()}))
        assert outputs == reference, (
            f"plan {plan.plan_hash()}: outputs {list(outputs)} are not the circuit on "
            f"the inputs of the common subset {common} ({list(reference)})"
        )
        record["outcome"] = OK
        return record
    if len(killed) > threshold:
        record["outcome"] = THRESHOLD_ABORT
        raise ThresholdExceededAbort(killed, threshold, effective_sync)
    assert plan.loses_messages(), (
        f"plan {plan.plan_hash()}: delivery-preserving plan with "
        f"{len(killed)} <= {threshold} kills stalled (liveness violated)"
    )
    record["outcome"] = STALLED_ALLOWED
    return record


# -- artifacts & repro --------------------------------------------------------

def artifact_dir(override: Optional[str] = None) -> str:
    return (
        override
        or os.environ.get("REPRO_CHAOS_ARTIFACTS")
        or os.path.join(os.getcwd(), "chaos-artifacts")
    )


def dump_artifact(
    plan: FaultPlan,
    case: Dict[str, Any],
    error: str,
    directory: Optional[str] = None,
) -> str:
    """Write the failing plan (seed, spec, decision log) for replay."""
    directory = artifact_dir(directory)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"plan-{plan.plan_hash()}-seed{plan.seed}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "error": error,
                "case": case,
                "spec": plan.spec(),
                "decision_log": [list(row) for row in plan.log],
            },
            fh,
            indent=2,
            sort_keys=True,
        )
    return path


def repro_command(artifact_path: str) -> str:
    return f"PYTHONPATH=src python -m repro.faults.campaign --replay {artifact_path}"


def run_campaign(
    num_plans: int,
    n: int = 4,
    ts: int = 1,
    ta: int = 0,
    synchronous: bool = True,
    base_seed: int = 0,
    include_loss: bool = True,
    include_kills: bool = True,
    artifacts: Optional[str] = None,
    verbose: bool = False,
) -> List[Dict[str, Any]]:
    """Sample and check ``num_plans`` plans; fail loudly with an artifact.

    Returns the list of case records (one per plan).  The first guarantee
    violation dumps its artifact, prints the one-line repro command, and
    raises :class:`ChaosCampaignFailure`.
    """
    records: List[Dict[str, Any]] = []
    for index in range(num_plans):
        seed = base_seed + index
        plan = sample_plan(
            seed, n, include_loss=include_loss, include_kills=include_kills,
            max_kills=ts + 1,
        )
        run = plan.fresh()
        try:
            record = run_case(run, n=n, ts=ts, ta=ta, synchronous=synchronous)
        except ThresholdExceededAbort as abort:
            records.append(
                {
                    "plan_seed": seed,
                    "plan_hash": plan.plan_hash(),
                    "outcome": THRESHOLD_ABORT,
                    "killed": abort.killed,
                    "detail": str(abort),
                }
            )
            if verbose:
                print(f"[chaos] plan seed={seed}: {abort}", file=sys.stderr)
            continue
        except AssertionError as violation:
            case = {
                "plan_seed": seed,
                "n": n,
                "ts": ts,
                "ta": ta,
                "synchronous": synchronous,
            }
            path = dump_artifact(run, case, str(violation), artifacts)
            command = repro_command(path)
            print(
                f"[chaos] FAIL plan seed={seed} hash={plan.plan_hash()}: "
                f"{violation}\n[chaos] artifact: {path}\n[chaos] repro: {command}",
                file=sys.stderr,
            )
            raise ChaosCampaignFailure(
                f"{violation} (artifact: {path}; repro: {command})", run, path
            ) from violation
        records.append(record)
        if verbose:
            print(
                f"[chaos] plan seed={seed} hash={plan.plan_hash()}: "
                f"{record['outcome']}",
                file=sys.stderr,
            )
    return records


# -- CLI ---------------------------------------------------------------------

def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.campaign",
        description="Run seeded chaos campaigns or replay a failure artifact.",
    )
    parser.add_argument("--plans", type=int, default=8)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--ts", type=int, default=1)
    parser.add_argument("--ta", type=int, default=0)
    parser.add_argument("--asynchronous", action="store_true")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--no-loss", action="store_true",
                        help="benign-only plans (liveness asserted)")
    parser.add_argument("--no-kills", action="store_true")
    parser.add_argument("--artifacts", default=None)
    parser.add_argument("--replay", default=None,
                        help="replay one failure artifact (JSON) and exit")
    args = parser.parse_args(argv)

    if args.replay is not None:
        with open(args.replay, "r", encoding="utf-8") as fh:
            artifact = json.load(fh)
        plan = FaultPlan.from_spec(artifact["spec"])
        case = artifact.get("case", {})
        started = time.monotonic()
        record = run_case(
            plan,
            n=case.get("n", args.n),
            ts=case.get("ts", args.ts),
            ta=case.get("ta", args.ta),
            synchronous=case.get("synchronous", not args.asynchronous),
        )
        print(json.dumps({
            "replayed": artifact.get("error"),
            "record": record,
            "wall_seconds": round(time.monotonic() - started, 3),
        }, indent=2))
        return 0

    records = run_campaign(
        args.plans,
        n=args.n,
        ts=args.ts,
        ta=args.ta,
        synchronous=not args.asynchronous,
        base_seed=args.base_seed,
        include_loss=not args.no_loss,
        include_kills=not args.no_kills,
        artifacts=args.artifacts,
        verbose=True,
    )
    outcomes: Dict[str, int] = {}
    for record in records:
        outcomes[record["outcome"]] = outcomes.get(record["outcome"], 0) + 1
    print(json.dumps({"plans": len(records), "outcomes": outcomes}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m repro.launch``: the distributed / multi-process run CLI.

Two modes:

* **Host mode** (``--program ...``): run one of the canned workloads with
  one OS process per party on this machine, printing outputs and metrics as
  JSON.  Pass ``--roster roster.json`` (``{"1": ["10.0.0.1", 7001], ...}``)
  to place parties on fixed endpoints instead of ephemeral localhost ports.
* **Child mode** (``--party i --spec spec.pkl``): internal -- a
  :class:`~repro.runtime.launcher.PartyPool` spawns these; each runs one
  party of the pickled spec, a job or a service party by the spec's type.

Examples::

    python -m repro.launch --program multiacast --n 8
    python -m repro.launch --program mpc-mult --n 4 --latency-ms 20
"""

from __future__ import annotations

import argparse
import json
import socket
import time
from typing import Any, Dict, Optional


def _load_roster(path: Optional[str]) -> Optional[Dict[int, tuple]]:
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    return {int(pid): (host, int(port)) for pid, (host, port) in raw.items()}


def _jsonable(value: Any) -> Any:
    """Project protocol outputs onto JSON (field residues become ints)."""
    from repro.broadcast.acast import PackedFieldVector
    from repro.field.gf import FieldElement

    if isinstance(value, FieldElement):
        return int(value)
    if isinstance(value, PackedFieldVector):
        return [int(v) for v in value.values]
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.launch",
        description="Run a protocol with one OS process per party over TCP.",
    )
    parser.add_argument("--party", type=int, default=None,
                        help="internal: run one party of a pickled spec")
    parser.add_argument("--spec", default=None,
                        help="internal: path to the pickled spec")
    parser.add_argument("--resume", action="store_true",
                        help="internal: restore the service party from its "
                             "latest on-disk snapshot before rejoining")
    parser.add_argument("--listen-fd", type=int, default=None,
                        help="internal: inherited descriptor of the party's "
                             "bound roster socket")
    parser.add_argument("--program", choices=["acast", "multiacast", "mpc-mult"],
                        default=None, help="host mode: the workload to run")
    parser.add_argument("--n", type=int, default=4, help="number of parties")
    parser.add_argument("--roster", default=None,
                        help='JSON file {"1": [host, port], ...}; default: '
                             "ephemeral localhost ports")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind host for ephemeral rosters and control")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--length", type=int, default=8,
                        help="broadcast vector length (acast/multiacast)")
    parser.add_argument("--time-scale", type=float, default=None,
                        help="real seconds per simulated time unit")
    parser.add_argument("--latency-ms", type=float, default=0.0,
                        help="base one-way latency injected per message")
    parser.add_argument("--jitter-ms", type=float, default=0.0,
                        help="deterministic per-message latency jitter bound")
    parser.add_argument("--max-time", type=float, default=None,
                        help="simulated-time cap per party process")
    args = parser.parse_args(argv)

    if args.party is not None:
        if args.spec is None:
            parser.error("--party requires --spec")
        from repro.runtime.launcher import run_party

        listener = None if args.listen_fd is None else socket.socket(fileno=args.listen_fd)
        run_party(args.party, args.spec, listener=listener, resume=args.resume)
        return 0

    if args.program is None:
        parser.error("either --program (host mode) or --party/--spec is required")

    from repro.faults.plan import FaultPlan, LinkLatency
    from repro.runtime.launcher import DEFAULT_TIME_SCALE, TcpBackend

    time_scale = DEFAULT_TIME_SCALE if args.time_scale is None else args.time_scale
    plan = None
    if args.latency_ms or args.jitter_ms:
        # The flags are real milliseconds; a LinkLatency rule is in nominal
        # units, which the real clock paces at time_scale seconds each.
        plan = FaultPlan(seed=args.seed, latencies=[LinkLatency(
            base=args.latency_ms / 1000.0 / time_scale,
            jitter=args.jitter_ms / 1000.0 / time_scale,
        )])
    backend_options: Dict[str, Any] = {
        "roster": _load_roster(args.roster),
        "host": args.host,
        "time_scale": time_scale,
        "faults": plan,
    }
    n = args.n
    faults = (n - 1) // 3
    started = time.monotonic()

    if args.program == "mpc-mult":
        from repro.circuits import multiplication_circuit
        from repro.field.gf import default_field
        from repro.mpc.engine import run_mpc

        circuit = multiplication_circuit(default_field(), n_parties=n)
        inputs = {pid: pid + 2 for pid in range(1, n + 1)}
        result = run_mpc(circuit, inputs, n=n, ts=faults, ta=0, seed=args.seed,
                         max_time=args.max_time, backend="tcp", **backend_options)
        outputs = {str(pid): _jsonable(out)
                   for pid, out in result.per_party_outputs.items()}
        agreed = result.agreed
        metrics = result.metrics
    else:
        from repro.runtime.programs import AcastFactory, MultiAcastFactory

        if args.program == "acast":
            factory: Any = AcastFactory(
                sender=1, faults=faults, message=list(range(args.length)))
        else:
            factory = MultiAcastFactory(faults=faults, length=args.length)
        backend = TcpBackend(n, seed=args.seed, **backend_options)
        run = backend.run(factory, max_time=args.max_time)
        outputs = {str(pid): _jsonable(out)
                   for pid, out in run.honest_outputs().items()}
        agreed = len({json.dumps(o, sort_keys=True) for o in outputs.values()}) <= 1
        metrics = run.metrics

    print(json.dumps({
        "program": args.program,
        "n": n,
        "agreed": agreed,
        "outputs": outputs,
        "metrics": {
            "messages_sent": metrics.messages_sent,
            "messages_delivered": metrics.messages_delivered,
            "total_bits": metrics.total_bits,
            "honest_bits": metrics.honest_bits,
        },
        "wall_seconds": round(time.monotonic() - started, 3),
    }, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

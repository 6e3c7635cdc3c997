"""The deterministic scenario-matrix harness: one regression gate for the
whole preprocessing stack.

Sweeps (n, t_s/t_a) x adversary behaviour (honest / crash / equivocating
dealer / seeded random drop) x synchrony (sync / async fallback) x round
sharding, runs every cell once and asserts its **outputs and transcript**
(message counts and bit totals) against the golden digest pinned for that
cell in ``tests/golden/transcript_digests.json``.  Any change to a single
protocol message or output anywhere in the stack trips this grid.

The full grid is `tier2` (run it with ``pytest -m tier2``); a representative
diagonal stays in tier-1 so the gate is always armed.  Every cell is seeded:
the simulator rng, the per-party rngs and the adversary's injected
``random.Random`` all derive from the cell's scenario seed, so a failure
reproduces from the printed parameters alone.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, Optional

import pytest

from repro.analysis.metrics import (
    bundle_message_bound,
    max_message_bits,
    per_round_bits,
    sharded_triple_message_bound,
    sibling_sharings,
)
from repro.field import default_field
from repro.field.polynomial import interpolate_at
from repro.sim.simulator import SimulationMetrics
from repro.sim import (
    AsynchronousNetwork,
    CrashBehavior,
    EquivocatingBehavior,
    ProtocolRunner,
    RandomDropBehavior,
    SynchronousNetwork,
)
from repro.triples.him import HimExtractionAbort, him_slots
from repro.triples.preprocessing import Preprocessing, shard_bounds, triples_per_dealer

from golden import assert_matches_golden, digest, transcript_fingerprint  # noqa: F401

FIELD = default_field()

#: (n, ts, ta) settings satisfying 3*ts + ta < n.
PARAM_SETS = [(4, 1, 0), (5, 1, 1)]

ADVERSARIES = ["honest", "crash", "equivocating_dealer", "random_drop"]

NETWORKS = ["sync", "async"]

SHARDS = [None, 1]


@dataclass(frozen=True)
class Scenario:
    n: int
    ts: int
    ta: int
    adversary: str
    network: str
    shard_size: Optional[int]
    num_triples: int = 2
    seed: int = 0
    #: Offline pipeline under test ("tripsh" reference or "him" batch).
    offline: str = "tripsh"

    @property
    def corruptions(self) -> int:
        return 0 if self.adversary == "honest" else 1

    @property
    def expects_liveness(self) -> bool:
        """The paper's guarantee matrix.

        A synchronous network tolerates t_s corruptions, an asynchronous one
        only t_a -- beyond that the adversary may stall the execution (no
        liveness), but safety (agreement, and the pinned transcript) must
        still hold.  The n=4, t_a=0 asynchronous cells with an
        active adversary are exactly the out-of-model corner: the protocol
        may not terminate there, and the harness only checks safety.
        """
        threshold = self.ts if self.network == "sync" else self.ta
        return self.corruptions <= threshold

    @property
    def scenario_seed(self) -> int:
        """One deterministic seed per grid cell (stable across processes,
        unlike builtin ``hash`` on strings)."""
        key = (self.n, self.ts, self.ta, self.adversary, self.network,
               self.shard_size or 0, self.num_triples, self.seed)
        if self.offline != "tripsh":
            # Appended only for non-default modes so every historical
            # "tripsh" cell keeps its exact seed (and hence transcript).
            key = key + (self.offline,)
        return zlib.crc32(repr(key).encode("utf-8")) & 0x7FFFFFFF

    @property
    def cell_id(self) -> str:
        """This cell's key in the golden digest file."""
        return (
            f"preproc/{self.offline}/n{self.n}ts{self.ts}ta{self.ta}/"
            f"{self.adversary}/{self.network}/shard{self.shard_size}"
        )

    def build_network(self):
        if self.network == "sync":
            return SynchronousNetwork()
        return AsynchronousNetwork(max_delay=3.0)

    def build_corrupt(self) -> Dict[int, object]:
        """The corrupt party is always P_n (never the observed dealer P_1)."""
        target = self.n
        if self.adversary == "honest":
            return {}
        if self.adversary == "crash":
            return {target: CrashBehavior()}
        if self.adversary == "equivocating_dealer":
            # P_n equivocates on everything it deals/sends: group B gets
            # perturbed payloads (including packed broadcast vectors).
            group_b = list(range(1, self.n // 2 + 1))
            return {target: EquivocatingBehavior(group_b=group_b, offset=3)}
        if self.adversary == "random_drop":
            # Reproducible lossy party: the rng is injected, never module-global.
            return {target: RandomDropBehavior(0.25, random.Random(self.scenario_seed))}
        if self.adversary == "bad_triple_dealer":
            # Corrupt at the protocol-input level, not the transport level:
            # P_1 follows the protocol but deals rigged triples (see
            # :func:`bad_dealer_triples`).  It must be P_1, not P_n -- a
            # synchronous ΠACS deterministically admits the first n - t_s
            # dealers, and the sacrifice check can only judge dealers whose
            # sharings made it into CS.  Only meaningful with
            # ``offline="him"``; the reference pipeline verifies each
            # dealer's triples inside ΠTripSh instead.
            return {}
        raise ValueError(self.adversary)


def bad_dealer_triples(scenario: Scenario):
    """Sacrifice-check bait: VSS-consistent slots whose candidate has c != a*b.

    The ``bad_triple_dealer`` adversary deals these through the hook instead
    of honest random triples -- the sharing itself is perfectly consistent
    (so ΠACS admits the dealer into CS), and only the HIM pipeline's
    sacrifice check can catch the corruption.
    """
    one = FIELD(1)
    slots = him_slots(scenario.n, scenario.ts, scenario.num_triples)
    return [((one, one, FIELD(2)), (one, one, one))] * slots


def run_preprocessing(scenario: Scenario):
    runner = ProtocolRunner(
        scenario.n,
        network=scenario.build_network(),
        seed=scenario.scenario_seed,
        corrupt=scenario.build_corrupt(),
    )

    def factory(party):
        kwargs = {}
        if scenario.adversary == "bad_triple_dealer" and party.id == 1:
            kwargs["dealer_triples"] = bad_dealer_triples(scenario)
        return Preprocessing(
            party,
            "preproc",
            ts=scenario.ts,
            ta=scenario.ta,
            num_triples=scenario.num_triples,
            anchor=0.0,
            shard_size=scenario.shard_size,
            mode=scenario.offline,
            **kwargs,
        )

    return runner.run(factory, max_time=5_000_000.0)


def heaviest_messages(run):
    """``run()``'s result, its largest message on a carrier's tags (a broadcast
    bundle, ``repro.broadcast.bc``, or a ΠABA vector, ``repro.ba.aba``: sized by n
    and the siblings per instant) and its largest on any other tag."""
    heaviest = {True: 0, False: 0}
    record = SimulationMetrics.record_send

    def recording(metrics, message, *args, **kwargs):
        on_carrier = "/bc@" in message.tag or "/aba@" in message.tag
        heaviest[on_carrier] = max(heaviest[on_carrier], message.bits)
        return record(metrics, message, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimulationMetrics, "record_send", recording)
        result = run()
    return result, heaviest[True], heaviest[False]


def canonical_outputs(result) -> Dict[int, list]:
    """Honest outputs as plain ints (bit-level comparable)."""
    return {
        pid: [(int(a), int(b), int(c)) for a, b, c in out]
        for pid, out in result.honest_outputs().items()
    }


def triples_are_valid(result, ts: int) -> bool:
    outputs = result.honest_outputs()
    if len(outputs) < ts + 1:
        # Too few shares to interpolate degree-ts polynomials: vacuously
        # valid (completion itself is asserted by the caller where the
        # model guarantees it).
        return True
    count = len(next(iter(outputs.values())))
    for index in range(count):
        points_a = [(FIELD.alpha(pid), out[index][0]) for pid, out in outputs.items()]
        points_b = [(FIELD.alpha(pid), out[index][1]) for pid, out in outputs.items()]
        points_c = [(FIELD.alpha(pid), out[index][2]) for pid, out in outputs.items()]
        a = interpolate_at(FIELD, points_a[: ts + 1], 0)
        b = interpolate_at(FIELD, points_b[: ts + 1], 0)
        c = interpolate_at(FIELD, points_c[: ts + 1], 0)
        if a * b != c:
            return False
    return True


def assert_cell_matches_golden(scenario: Scenario) -> None:
    """The core scenario-matrix property for one grid cell.

    Outputs and transcript must equal the pinned digest in *every* cell;
    completion and triple validity are asserted exactly where the paper
    guarantees them (see :meth:`Scenario.expects_liveness`).
    """
    result = run_preprocessing(scenario)
    assert_matches_golden(scenario.cell_id, result)

    honest = scenario.n - scenario.corruptions
    if scenario.expects_liveness:
        assert len(result.honest_outputs()) == honest, scenario
        assert triples_are_valid(result, scenario.ts), scenario
    elif result.honest_outputs():
        # Out-of-model cells may stall, but whatever is produced must still
        # be safe: consistent valid triples at every party that finished.
        assert triples_are_valid(result, scenario.ts), scenario


# -- tier-1 representative diagonal -------------------------------------------------


@pytest.mark.parametrize(
    "scenario",
    [
        Scenario(4, 1, 0, "honest", "sync", None),
        Scenario(4, 1, 0, "crash", "sync", 1),
        Scenario(5, 1, 1, "equivocating_dealer", "async", None),
    ],
    ids=lambda s: f"{s.n}p-{s.adversary}-{s.network}-shard{s.shard_size}",
)
def test_scenario_diagonal(scenario):
    """Fast tier-1 subset of the matrix: the gate is always armed."""
    assert_cell_matches_golden(scenario)


# -- the full tier2 grid ----------------------------------------------------------


@pytest.mark.tier2
@pytest.mark.parametrize("params", PARAM_SETS, ids=lambda p: f"n{p[0]}ts{p[1]}ta{p[2]}")
@pytest.mark.parametrize("adversary", ADVERSARIES)
@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("shard_size", SHARDS, ids=lambda s: f"shard{s}")
def test_scenario_matrix(params, adversary, network, shard_size):
    n, ts, ta = params
    assert_cell_matches_golden(Scenario(n, ts, ta, adversary, network, shard_size))


# -- the HIM offline pipeline: same grid, second mode -------------------------------


@pytest.mark.parametrize(
    "scenario",
    [
        Scenario(4, 1, 0, "honest", "sync", None, offline="him"),
        Scenario(4, 1, 0, "crash", "sync", 1, offline="him"),
        Scenario(5, 1, 1, "equivocating_dealer", "async", None, offline="him"),
    ],
    ids=lambda s: f"him-{s.n}p-{s.adversary}-{s.network}-shard{s.shard_size}",
)
def test_him_scenario_diagonal(scenario):
    """Tier-1 diagonal for ``offline="him"``: the golden-digest gate is
    armed for the HIM pipeline exactly like for the reference pipeline."""
    assert_cell_matches_golden(scenario)


@pytest.mark.tier2
@pytest.mark.parametrize("params", PARAM_SETS, ids=lambda p: f"n{p[0]}ts{p[1]}ta{p[2]}")
@pytest.mark.parametrize("adversary", ADVERSARIES)
@pytest.mark.parametrize("network", NETWORKS)
@pytest.mark.parametrize("shard_size", SHARDS, ids=lambda s: f"shard{s}")
def test_him_scenario_matrix(params, adversary, network, shard_size):
    n, ts, ta = params
    assert_cell_matches_golden(
        Scenario(n, ts, ta, adversary, network, shard_size, offline="him")
    )


def test_him_bad_dealer_is_discarded_and_extraction_continues():
    """n=5: the sacrifice check publicly catches the rigged dealer; the
    survivors (2t_s+1 of them) still extract the full triple budget, pinned
    bit for bit by the cell's golden digest."""
    scenario = Scenario(5, 1, 1, "bad_triple_dealer", "sync", None, offline="him")
    result = run_preprocessing(scenario)

    outputs = result.honest_outputs()
    assert len(outputs) == 5  # P_1 is protocol-honest, only its triples are rigged
    assert triples_are_valid(result, scenario.ts)
    for instance in result.instances.values():
        assert instance.discarded_dealers == [1]
    assert_matches_golden(scenario.cell_id, result)


def test_him_bad_dealer_aborts_loudly_below_survivor_threshold():
    """n=4: discarding the rigged dealer leaves 2 < 2t_s+1 survivors, so the
    extraction must abort with the named exception -- never silently emit
    triples from a pool that can no longer guarantee randomness."""
    scenario = Scenario(4, 1, 0, "bad_triple_dealer", "sync", None, offline="him")
    with pytest.raises(HimExtractionAbort) as excinfo:
        run_preprocessing(scenario)
    assert excinfo.value.discarded == [1]
    assert len(excinfo.value.survivors) == 2


def test_him_sharded_round_payloads_are_bounded():
    """Satellite contract, HIM edition: the offline-mode-aware bound holds
    for every sharded round's triple payload and really binds (the unsharded
    run exceeds it); the size of a carrier's message (a bundle, a ΠABA vector)
    is the second term, the same either way."""
    scenario_sharded = Scenario(
        4, 1, 0, "honest", "sync", 1, num_triples=3, offline="him"
    )
    scenario_full = Scenario(
        4, 1, 0, "honest", "sync", None, num_triples=3, offline="him"
    )
    sharded, sharded_bundle, sharded_payload = heaviest_messages(
        lambda: run_preprocessing(scenario_sharded))
    unsharded, unsharded_bundle, unsharded_payload = heaviest_messages(
        lambda: run_preprocessing(scenario_full))

    slots = him_slots(4, 1, 3)
    assert slots >= 3  # several slots, so shard_size=1 is a real constraint
    bound = sharded_triple_message_bound(1, 1, FIELD.element_bits(), offline="him")
    full_bound = sharded_triple_message_bound(
        slots, 1, FIELD.element_bits(), offline="him"
    )
    bundle_bound = bundle_message_bound(
        4, 1, sibling_sharings(4, "him", inputs=False), FIELD.element_bits())

    assert sharded_payload <= bound
    assert bound < unsharded_payload <= full_bound
    assert 0 < sharded_bundle == unsharded_bundle <= bundle_bound
    assert max_message_bits(sharded.metrics) <= max(bound, bundle_bound)
    assert sharded.metrics.max_message_bits_by_round
    assert all(
        heaviest <= max(bound, bundle_bound)
        for heaviest in sharded.metrics.max_message_bits_by_round.values()
    )

    # Sharding must not change what is produced: same triple count, still valid.
    assert triples_are_valid(sharded, 1) and triples_are_valid(unsharded, 1)
    counts = {len(out) for out in sharded.honest_outputs().values()}
    assert counts == {len(next(iter(unsharded.honest_outputs().values())))}


# -- sharding-specific contracts ----------------------------------------------------


def test_sharded_round_payloads_are_bounded():
    """No protocol round carries more than a shard_size-bounded triple payload,
    nor any message heavier than the larger of that and a carrier's message
    (a broadcast bundle or, heavier when nobody reports a NOK, a ΠABA vector)."""
    scenario_sharded = Scenario(4, 1, 0, "honest", "sync", 1, num_triples=3)
    scenario_full = Scenario(4, 1, 0, "honest", "sync", None, num_triples=3)
    sharded, sharded_bundle, sharded_payload = heaviest_messages(
        lambda: run_preprocessing(scenario_sharded))
    unsharded, unsharded_bundle, unsharded_payload = heaviest_messages(
        lambda: run_preprocessing(scenario_full))

    per_dealer = triples_per_dealer(4, 1, 3)
    assert per_dealer >= 3  # the bound is only meaningful for a real bank
    bound = sharded_triple_message_bound(1, 1, FIELD.element_bits())
    full_bound = sharded_triple_message_bound(per_dealer, 1, FIELD.element_bits())
    bundle_bound = bundle_message_bound(
        4, 1, sibling_sharings(4, "tripsh", inputs=False), FIELD.element_bits())

    # The sharded run's heaviest triple-sharing message is bounded by the
    # shard, not by L...
    assert sharded_payload <= bound
    # ...and the bound really binds: the unsharded run exceeds it (while
    # respecting its own L-sized bound).
    assert bound < unsharded_payload <= full_bound
    # The second term: what a carrier sends depends on n and the sibling
    # sharings per instant, not on L or shard_size, and is the heaviest
    # message here (the ΠABA vector of the 80 ``wps_ba`` slots: 64 bits each).
    assert 0 < sharded_bundle == unsharded_bundle == 80 * 64 + 160 <= bundle_bound
    assert max_message_bits(sharded.metrics) == sharded_bundle > bound

    # Round-level accounting: *no* protocol round of the sharded run carries
    # a message above the two-term bound.
    assert sharded.metrics.max_message_bits_by_round
    assert all(
        heaviest <= max(bound, bundle_bound)
        for heaviest in sharded.metrics.max_message_bits_by_round.values()
    )
    assert sum(per_round_bits(sharded.metrics).values()) == sharded.metrics.total_bits
    # Grid-aligned staggering: sharding must not make any single round
    # heavier in total than the unsharded execution's heaviest round.
    from repro.analysis.metrics import max_round_bits

    assert max_round_bits(sharded.metrics) <= max_round_bits(unsharded.metrics)

    # Sharding must not change what is produced: same triple count, still valid.
    assert triples_are_valid(sharded, 1) and triples_are_valid(unsharded, 1)
    counts = {len(out) for out in sharded.honest_outputs().values()}
    assert counts == {len(next(iter(unsharded.honest_outputs().values())))}


def test_shard_bounds_partition():
    assert shard_bounds(5, None) == [(0, 5)]
    assert shard_bounds(5, 2) == [(0, 2), (2, 4), (4, 5)]
    assert shard_bounds(1, 4) == [(0, 1)]
    with pytest.raises(ValueError):
        shard_bounds(3, 0)


def test_run_mpc_sharded_outputs_match_unsharded():
    """The shard_size knob is output-invariant end to end through run_mpc."""
    from repro.circuits import millionaires_product_circuit
    from repro.mpc import run_mpc

    circuit = millionaires_product_circuit(FIELD, 4)
    inputs = {1: 3, 2: 5, 3: 7, 4: 11}
    expected = circuit.evaluate({pid: FIELD(v) for pid, v in inputs.items()})
    unsharded, _, unsharded_payload = heaviest_messages(
        lambda: run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=9))
    sharded, _, sharded_payload = heaviest_messages(
        lambda: run_mpc(circuit, inputs, n=4, ts=1, ta=0, seed=9, shard_size=1))
    assert unsharded.completed and sharded.completed
    assert unsharded.outputs == sharded.outputs == expected
    assert sharded_payload < unsharded_payload
    bundle_bound = bundle_message_bound(4, 1, sibling_sharings(4), FIELD.element_bits())
    shard_bound = sharded_triple_message_bound(1, 1, FIELD.element_bits())
    assert sharded.metrics.max_message_bits == 6_304 <= max(shard_bound, bundle_bound)
    # One n = 7, t_s = 2 evaluation measured 28,384 (its ΠABA vector).
    assert bundle_message_bound(7, 2, sibling_sharings(7), FIELD.element_bits()) >= 28_384
    per_dealer = triples_per_dealer(4, 1, circuit.multiplication_count)
    assert unsharded.metrics.max_message_bits <= max(
        sharded_triple_message_bound(per_dealer, 1, FIELD.element_bits()), bundle_bound)


def test_random_drop_behavior_is_reproducible_from_seed():
    """Satellite contract: adversarial draws come from the injected rng only."""
    scenario = Scenario(4, 1, 0, "random_drop", "sync", None)
    assert digest(run_preprocessing(scenario)) == digest(run_preprocessing(scenario))


def test_golden_write_names_the_cells_that_moved_and_refuses_an_outputs_move(
    tmp_path, monkeypatch, capsys
):
    """``--write`` against the file it replaces: a transcript half may move (it is
    named), an ``outputs`` half may not (exit 1, file untouched)."""
    import json

    import golden

    target = tmp_path / "digests.json"
    monkeypatch.setattr(golden, "GOLDEN_FILE", str(target))
    cells = {"a": {"outputs": "o1", "transcript": "t1"}, "b": {"outputs": "o2", "transcript": "t2"}}
    assert golden.replace_golden(cells) == 0  # nothing to compare with
    assert "outputs moved: 0, transcript moved: 0" in capsys.readouterr().out

    messages_changed = {"a": {"outputs": "o1", "transcript": "t9"}, "b": cells["b"],
                        "c": {"outputs": "o3", "transcript": "t3"}}
    assert golden.replace_golden(messages_changed) == 0
    said = capsys.readouterr().out
    assert "outputs moved: 0, transcript moved: 1" in said and "  transcript: a\n" in said
    assert json.loads(target.read_text())["cells"] == messages_changed

    decisions_changed = {**messages_changed, "b": {"outputs": "o9", "transcript": "t2"}}
    assert golden.replace_golden(decisions_changed) == 1
    said = capsys.readouterr().out
    assert "outputs moved: 1, transcript moved: 0" in said and "  outputs: b\n" in said
    assert json.loads(target.read_text())["cells"] == messages_changed

"""E7 -- Preprocessing / triple generation (Theorem 6.5, Lemma 6.3).

ΠTripSh and ΠPreProcessing must output t_s-shared multiplication triples in
both network types; the benchmark records bits, simulated time and verifies
every generated triple.

Recorded rows (BENCH_triples.json):

* ``dealer_pipeline_n16_ts5_cm64`` -- wall time of the ΠTripSh dealer-side
  pipeline.
* ``shard_round_bound_n4_ts1_cm3`` -- max single-message size with and
  without round sharding, against the analytic bound.
* ``him_extract_n64`` -- dealer-side sharing work per output triple of the
  HIM offline phase (7 polynomials per slot) against the per-dealer ΠTripSh
  pipeline (3·(2t_s+1) polynomials per triple) at n=64, t_s=21, c_M=64.
  Total dealer work is shard-independent (sharding only splits the same
  polynomials across rounds), so the row stands for the sharded pipeline at
  any shard size.  Acceptance: >= 3x triples/sec.
* ``him_refine_n64`` -- same comparison with each pipeline's post-sharing
  refinement math appended: the HIM challenge-extraction product plus every
  dealer-slot's sigma/tau/zeta sacrifice arithmetic, versus ΠTripTrans /
  ΠTripExt's share-polynomial extensions.  Acceptance: >= 3x.
"""

import random

import pytest

from repro.analysis.metrics import (
    bundle_message_bound,
    sharded_triple_message_bound,
    sibling_sharings,
)
from repro.field.polynomial import Polynomial, interpolate_at
from repro.sharing.wps import make_bivariates, rows_for_all_parties
from repro.sim import AsynchronousNetwork, SynchronousNetwork, WrongValueBehavior
from repro.triples import extract_random_shares, him_slots
from repro.triples.preprocessing import (
    Preprocessing,
    preprocessing_time_bound,
    triples_per_dealer,
)
from repro.triples.sharing import (
    TripleSharing,
    random_multiplication_triple,
    triple_polynomials,
)
from repro.triples.transform import extend_shares_batch, transformed_points

from bench_common import FIELD, best_of, make_runner, record_bench, summarize


def _reconstruct(shares_by_party, degree):
    points = [(FIELD.alpha(pid), value) for pid, value in shares_by_party.items()]
    return interpolate_at(FIELD, points[: degree + 1], 0)


def _triples_valid(result, ts):
    outputs = result.honest_outputs()
    if not outputs:
        return False
    count = len(next(iter(outputs.values())))
    for index in range(count):
        a = _reconstruct({pid: out[index][0] for pid, out in outputs.items()}, ts)
        b = _reconstruct({pid: out[index][1] for pid, out in outputs.items()}, ts)
        c = _reconstruct({pid: out[index][2] for pid, out in outputs.items()}, ts)
        if a * b != c:
            return False
    return True


def test_triple_sharing_sync(benchmark):
    n, ts, ta = 4, 1, 0

    def run():
        runner = make_runner(n, network=SynchronousNetwork(), seed=1)
        return runner.run(
            lambda party: TripleSharing(party, "tripsh", dealer=1, ts=ts, ta=ta,
                                        num_triples=1, anchor=0.0),
            max_time=500_000.0,
        )

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    stats = summarize(result)
    stats["triples_valid"] = float(_triples_valid(result, ts))
    benchmark.extra_info.update(stats)
    assert stats["triples_valid"] == 1.0


@pytest.mark.parametrize("network_kind", ["sync", "async"])
def test_preprocessing(benchmark, network_kind):
    n, ts, ta = 4, 1, 0
    network = SynchronousNetwork() if network_kind == "sync" else AsynchronousNetwork(max_delay=3.0)

    def run():
        runner = make_runner(n, network=network, seed=2)
        return runner.run(
            lambda party: Preprocessing(party, "preproc", ts=ts, ta=ta, num_triples=1,
                                        anchor=0.0),
            max_time=800_000.0,
        )

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    stats = summarize(result)
    stats["triples_valid"] = float(_triples_valid(result, ts))
    stats["nominal_time_bound"] = preprocessing_time_bound(n, ts, 1.0)
    benchmark.extra_info.update(stats)
    assert stats["honest_outputs"] == n
    assert stats["triples_valid"] == 1.0


def test_preprocessing_with_byzantine_dealer(benchmark):
    n, ts, ta = 4, 1, 0

    def run():
        runner = make_runner(n, network=SynchronousNetwork(), seed=3,
                             corrupt={3: WrongValueBehavior(offset=2)})
        return runner.run(
            lambda party: Preprocessing(party, "preproc", ts=ts, ta=ta, num_triples=1,
                                        anchor=0.0),
            max_time=800_000.0,
        )

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    stats = summarize(result)
    stats["triples_valid"] = float(_triples_valid(result, ts))
    benchmark.extra_info.update(stats)
    assert stats["triples_valid"] == 1.0


# -- dealer-side triple pipeline ------------------------------------------------------


def _dealer_pipeline(n, ts, per_dealer, seed):
    """The local work a ΠTripSh dealer does before anything hits the wire.

    Generates the L·(2t_s+1) random multiplication triples, builds their
    3 sharing polynomials each, embeds every polynomial into a symmetric
    bivariate and extracts all n parties' rows -- the exact distribution
    path of ``TripleSharing`` + ``VerifiableSecretSharing``.  Returns a
    checksum digest of what was computed.
    """
    rng = random.Random(seed)
    triples = [
        random_multiplication_triple(FIELD, rng)
        for _ in range(per_dealer * (2 * ts + 1))
    ]
    polynomials = triple_polynomials(FIELD, ts, triples, rng)
    bivariates = make_bivariates(FIELD, polynomials, rng)
    per_party_rows = rows_for_all_parties(FIELD, bivariates, list(range(1, n + 1)))
    checksum = 0
    for rows in per_party_rows:
        for row in rows:
            checksum = (checksum + sum(int(c) for c in row.coeffs)) % FIELD.modulus
    return {
        "checksum": checksum,
        "polynomials": len(polynomials),
        "triples": [(int(a), int(b), int(c)) for a, b, c in triples[:4]],
    }


def measure_dealer_pipeline(n=16, ts=5, c_m=64, seed=31, repeats=1):
    """Best-of-``repeats`` wall time of the dealer-side triple-sharing pipeline."""
    per_dealer = triples_per_dealer(n, ts, c_m)
    digests = []
    best = best_of(lambda: digests.append(_dealer_pipeline(n, ts, per_dealer, seed)), repeats)
    return {
        "n": float(n),
        "ts": float(ts),
        "c_m": float(c_m),
        "per_dealer": float(per_dealer),
        "polynomials": float(digests[-1]["polynomials"]),
        "batch_s": best,
    }


def test_dealer_pipeline_n16():
    record_bench(
        "triples", "dealer_pipeline_n16_ts5_cm64", measure_dealer_pipeline(n=16, ts=5, c_m=64)
    )


# -- HIM offline phase vs the per-dealer pipeline -------------------------------------


def _him_dealer_pipeline(n, ts, slots, seed):
    """Dealer-side local work of one HIM round: 7 polynomials per slot
    (candidate + sacrifice triple + extraction input), embedded into
    bivariates with all parties' rows extracted -- the exact ACS/VSS
    distribution path, mirroring :func:`_dealer_pipeline` for ΠTripSh."""
    rng = random.Random(seed)
    values = []
    for _ in range(slots):
        values.extend(random_multiplication_triple(FIELD, rng))
        values.extend(random_multiplication_triple(FIELD, rng))
        values.append(FIELD.random(rng))
    polynomials = [
        Polynomial.random(FIELD, ts, constant_term=v, rng=rng) for v in values
    ]
    bivariates = make_bivariates(FIELD, polynomials, rng)
    per_party_rows = rows_for_all_parties(FIELD, bivariates, list(range(1, n + 1)))
    checksum = 0
    for rows in per_party_rows:
        for row in rows:
            checksum = (checksum + sum(int(c) for c in row.coeffs)) % FIELD.modulus
    return {"checksum": checksum, "polynomials": len(polynomials)}


def _him_refinement(n, ts, slots, seed):
    """Per-party refinement math of one HIM round at |CS| = n - t_s dealers:
    the batch challenge-extraction product plus every dealer-slot's
    sigma/tau/zeta computation (the share arithmetic of
    ``HimPreprocessing._challenges_ready`` / ``_sacrifice_opened``)."""
    rng = random.Random(seed)
    cs = n - ts
    r_rows = [[FIELD.random(rng) for _ in range(slots)] for _ in range(cs)]
    extracted = extract_random_shares(FIELD, r_rows, max(1, cs - ts))
    rhos = [FIELD(v) for v in extracted[0]]
    checksum = FIELD.zero()
    for _dealer in range(cs):
        bank = [[FIELD.random(rng) for _ in range(6)] for _ in range(slots)]
        for k in range(slots):
            a, b, c, u, v, w = bank[k]
            sigma = rhos[k] * a - u
            tau = b - v
            zeta = rhos[k] * c - w - sigma * v - tau * u - sigma * tau
            checksum = checksum + sigma + tau + zeta
    return int(checksum)


def _tripsh_refinement(n, ts, c_m, seed):
    """Per-party post-sharing math of the per-dealer pipeline: each output
    triple extends its providers' triple shares to the 2d+1 transformed
    evaluation points (the ΠTripTrans/ΠTripExt extension work)."""
    rng = random.Random(seed)
    d = (n - ts - 1) // 2
    ats = transformed_points(FIELD, 2 * d + 1)
    checksum = FIELD.zero()
    for _ in range(c_m):
        share_rows = [[FIELD.random(rng) for _ in range(d + 1)] for _ in range(3)]
        table = extend_shares_batch(FIELD, share_rows, d, ats)
        checksum = checksum + table[0][0] + table[-1][-1]
    return int(checksum)


def measure_him_speedup(n=64, ts=21, c_m=64, seed=41, repeats=1, refine=False):
    """Wall-time per output triple: HIM offline phase vs per-dealer ΠTripSh.

    Both pipelines run their dealer-side sharing work for the same c_M
    target (batching enabled for both -- this is a pipeline-vs-pipeline
    comparison, not batch-vs-scalar); with ``refine=True`` each also runs
    its post-sharing refinement math.  Dealer-side totals are independent
    of round sharding (a shard splits the same work across rounds), so the
    ratio holds for the sharded pipeline at every shard size.
    """
    per_dealer = triples_per_dealer(n, ts, c_m)
    slots = him_slots(n, ts, c_m)

    def run_tripsh():
        digest = _dealer_pipeline(n, ts, per_dealer, seed)
        if refine:
            _tripsh_refinement(n, ts, c_m, seed)
        return digest

    def run_him():
        digest = _him_dealer_pipeline(n, ts, slots, seed)
        if refine:
            _him_refinement(n, ts, slots, seed)
        return digest

    tripsh_s = best_of(run_tripsh, repeats)
    him_s = best_of(run_him, repeats)
    return {
        "n": float(n),
        "ts": float(ts),
        "c_m": float(c_m),
        "per_dealer": float(per_dealer),
        "slots": float(slots),
        "tripsh_polynomials": float(per_dealer * (2 * ts + 1) * 3),
        "him_polynomials": float(slots * 7),
        "refine": float(refine),
        "tripsh_s": tripsh_s,
        "him_s": him_s,
        "tripsh_triples_per_s": c_m / tripsh_s if tripsh_s else float("inf"),
        "him_triples_per_s": c_m / him_s if him_s else float("inf"),
        "speedup": tripsh_s / him_s if him_s else float("inf"),
    }


def test_him_extract_beats_per_dealer_pipeline_n64():
    """Acceptance: >= 3x triples/sec over the (sharded or not) per-dealer
    pipeline's sharing stage at n=64, t_s=21, c_M=64."""
    stats = measure_him_speedup(n=64, ts=21, c_m=64, refine=False)
    record_bench("triples", "him_extract_n64", stats)
    assert stats["speedup"] >= 3.0, f"speedup only {stats['speedup']:.1f}x"


def test_him_refine_beats_per_dealer_pipeline_n64():
    """Acceptance: the advantage survives with the refinement math included."""
    stats = measure_him_speedup(n=64, ts=21, c_m=64, refine=True)
    record_bench("triples", "him_refine_n64", stats)
    assert stats["speedup"] >= 3.0, f"speedup only {stats['speedup']:.1f}x"


# -- round sharding: bounded per-round triple payloads --------------------------------


def _run_preprocessing(shard_size, n=4, ts=1, ta=0, c_m=3, seed=5):
    runner = make_runner(n, network=SynchronousNetwork(), seed=seed)
    return runner.run(
        lambda party: Preprocessing(party, "preproc", ts=ts, ta=ta, num_triples=c_m,
                                    anchor=0.0, shard_size=shard_size),
        max_time=5_000_000.0,
    )


def measure_sharding_round_bound(n=4, ts=1, ta=0, c_m=3, shard_size=1, seed=5):
    """Max single-message size with and without round sharding, plus the bound."""
    sharded = _run_preprocessing(shard_size, n=n, ts=ts, ta=ta, c_m=c_m, seed=seed)
    unsharded = _run_preprocessing(None, n=n, ts=ts, ta=ta, c_m=c_m, seed=seed)
    assert _triples_valid(sharded, ts) and _triples_valid(unsharded, ts)
    per_dealer = triples_per_dealer(n, ts, c_m)
    return {
        "n": float(n),
        "ts": float(ts),
        "c_m": float(c_m),
        "per_dealer": float(per_dealer),
        "shard_size": float(shard_size),
        "bound_bits": float(sharded_triple_message_bound(shard_size, ts, FIELD.element_bits())),
        # A broadcast bundle does not shrink with the shard (repro.broadcast.bc).
        "bundle_bound_bits": float(bundle_message_bound(
            n, ts, sibling_sharings(n, "tripsh", inputs=False), FIELD.element_bits())),
        "sharded_max_message_bits": float(sharded.metrics.max_message_bits),
        "unsharded_max_message_bits": float(unsharded.metrics.max_message_bits),
        "sharded_sim_time": max(sharded.honest_output_times().values()),
        "unsharded_sim_time": max(unsharded.honest_output_times().values()),
        "sharded_total_bits": float(sharded.metrics.total_bits),
        "unsharded_total_bits": float(unsharded.metrics.total_bits),
    }


def test_sharded_preprocessing_bounds_round_payloads():
    stats = measure_sharding_round_bound()
    record_bench("triples", "shard_round_bound_n4_ts1_cm3", stats)
    assert stats["sharded_max_message_bits"] <= max(stats["bound_bits"], stats["bundle_bound_bits"])
    assert stats["unsharded_max_message_bits"] > stats["bound_bits"]


def smoke():
    """Tiny-size rot check used by the bench_smoke tier-1 marker."""
    runner = make_runner(4, network=SynchronousNetwork(), seed=1)
    result = runner.run(
        lambda party: TripleSharing(party, "tripsh", dealer=1, ts=1, ta=0,
                                    num_triples=1, anchor=0.0),
        max_time=500_000.0,
    )
    assert _triples_valid(result, 1)
    stats = measure_dealer_pipeline(n=4, ts=1, c_m=2, repeats=1)
    assert stats["batch_s"] > 0
    him_stats = measure_him_speedup(n=5, ts=1, c_m=2, repeats=1, refine=True)
    assert him_stats["him_s"] > 0 and him_stats["tripsh_s"] > 0
    return summarize(result)

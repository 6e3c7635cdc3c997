"""E4 -- VSS correctness, commitment and timing (Theorem 4.16 / Theorem 4.8).

Honest-dealer runs in both network types must give every honest party its
correct share (within T_VSS in the synchronous case); corrupt-dealer runs
must either give no output or consistent shares of a committed polynomial.

Also measures the bivariate pipeline: the dealer's Phase-I distribution
plus every party's pairwise verification (the field-work core of Pi_WPS /
Pi_VSS) timed at realistic n, persisted to ``BENCH_vss.json``.  Run
standalone (``python benchmarks/bench_vss.py``) for the wall-time report at
n = 16 and n = 25.
"""

import os
import random
import sys

import pytest

# Keep the standalone invocation working without an editable install.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.field.array import batch_interpolate_at
from repro.sharing.vss import VerifiableSecretSharing, vss_time_bound
from repro.sharing.wps import (
    WeakPolynomialSharing,
    make_bivariates,
    row_value_table,
    rows_for_all_parties,
    wps_time_bound,
)
from repro.sim import (
    AsynchronousNetwork,
    EquivocatingBehavior,
    SynchronousNetwork,
)

from bench_common import (
    FIELD, best_of, fresh_polynomials, make_runner, record_bench, summarize,
)


def _run_sharing(cls, n, ts, ta, dealer, polynomials, network, corrupt=None, seed=0):
    runner = make_runner(n, network=network, seed=seed, corrupt=corrupt)
    return runner.run(
        lambda party: cls(
            party, "share", dealer=dealer, ts=ts, ta=ta,
            num_polynomials=len(polynomials),
            polynomials=polynomials if party.id == dealer else None,
            anchor=0.0,
        ),
        max_time=300_000.0,
    )


def _shares_correct(result, polynomials):
    for pid, shares in result.honest_outputs().items():
        for poly, share in zip(polynomials, shares):
            if share != poly.evaluate(FIELD.alpha(pid)):
                return False
    return True


# -- the bivariate dealer + verification pipeline ------------------------------


def _dealer_verify_pipeline(n, ts, polynomials, embed_seed):
    """The field-work core of one Pi_WPS/Pi_VSS instance.

    Runs the dealer's Phase-I embedding + row distribution, every party's
    row-value table (the points it sends and the expected values its
    verdicts compare against), the dealer's full pairwise NOK cross-check
    grid, and the share reconstruction a party outside W performs, through
    the same helpers as the protocol classes.  Returns a digest of what was
    computed.
    """
    rng = random.Random(embed_seed)
    ids = list(range(1, n + 1))
    alphas = [int(FIELD.alpha(j)) for j in ids]
    bivariates = make_bivariates(FIELD, polynomials, rng)
    per_party_rows = rows_for_all_parties(FIELD, bivariates, ids)
    # Every party evaluates each of its rows at every alpha (send + verify).
    tables = [row_value_table(FIELD, rows, ids) for rows in per_party_rows]
    # The dealer's pairwise expected-value grid for NOK validation.
    grids = [biv.eval_grid(alphas, alphas) for biv in bivariates]
    # Pairwise verdicts: q_i(alpha_j) == q_j(alpha_i) for every pair.
    all_ok = all(
        tables[i - 1][index][j - 1] == tables[j - 1][index][i - 1]
        for index in range(len(polynomials))
        for i in ids
        for j in ids
        if i < j
    )
    # Reconstruction of one party's secrets from ts + 1 row shares (the
    # Pi_VSS output path for parties outside W).
    support = ids[: ts + 1]
    support_alphas = [int(FIELD.alpha(j)) for j in support]
    value_rows = [
        [int(tables[j - 1][index][0]) for j in support]
        for index in range(len(polynomials))
    ]
    secrets = batch_interpolate_at(FIELD, support_alphas, value_rows, 0)
    secrets = [int(v) for v in secrets]
    checksum = sum(
        sum(sum(int(v) for v in values) for values in table) for table in tables
    ) % FIELD.modulus
    grid_checksum = sum(sum(sum(row) for row in grid) for grid in grids) % FIELD.modulus
    return {
        "all_ok": all_ok,
        "secrets": secrets,
        "table_checksum": checksum,
        "grid_checksum": grid_checksum,
    }


def measure_dealer_verify(n=16, ts=5, num_polynomials=4, seed=23, repeats=3):
    """Best-of-``repeats`` wall time of the WPS/VSS dealer+verification core."""
    polynomials = fresh_polynomials(num_polynomials, ts, seed=seed)
    digests = []
    best = best_of(
        lambda: digests.append(
            _dealer_verify_pipeline(n, ts, polynomials, embed_seed=seed + 1)
        ),
        repeats,
    )
    assert digests[-1]["all_ok"], "honest-dealer rows must be pairwise consistent"
    return {
        "n": float(n),
        "ts": float(ts),
        "num_polynomials": float(num_polynomials),
        "batch_s": best,
    }


def test_dealer_verify_n16():
    record_bench("vss", "dealer_verify_n16_ts5_L4", measure_dealer_verify(n=16, ts=5))


def test_dealer_verify_n25():
    record_bench("vss", "dealer_verify_n25_ts8_L4", measure_dealer_verify(n=25, ts=8))


def smoke():
    """Tiny-size rot check used by the bench_smoke tier-1 marker."""
    stats = measure_dealer_verify(n=5, ts=1, num_polynomials=2, repeats=1)
    assert stats["batch_s"] > 0
    polynomials = fresh_polynomials(1, 1, seed=11)
    result = _run_sharing(
        WeakPolynomialSharing, 4, 1, 0, 1, polynomials, SynchronousNetwork()
    )
    assert _shares_correct(result, polynomials)
    return stats


@pytest.mark.parametrize("protocol", ["wps", "vss"])
@pytest.mark.parametrize("network_kind", ["sync", "async"])
def test_sharing_honest_dealer(benchmark, protocol, network_kind):
    n, ts, ta = (4, 1, 0) if network_kind == "sync" else (5, 1, 1)
    cls = WeakPolynomialSharing if protocol == "wps" else VerifiableSecretSharing
    network = SynchronousNetwork() if network_kind == "sync" else AsynchronousNetwork(max_delay=5.0)
    polynomials = fresh_polynomials(1, ts, seed=11)
    result = benchmark.pedantic(
        lambda: _run_sharing(cls, n, ts, ta, 1, polynomials, network),
        iterations=1, rounds=1,
    )
    stats = summarize(result)
    stats["shares_correct"] = float(_shares_correct(result, polynomials))
    bound_fn = wps_time_bound if protocol == "wps" else vss_time_bound
    stats["nominal_time_bound"] = bound_fn(n, ts, 1.0)
    if network_kind == "sync":
        stats["within_bound"] = float(stats["max_output_time"] <= stats["nominal_time_bound"])
    benchmark.extra_info.update(stats)
    record_bench("vss", f"{protocol}_honest_dealer_{network_kind}", stats)
    assert stats["honest_outputs"] == n
    assert stats["shares_correct"] == 1.0


def test_vss_corrupt_dealer_commitment(benchmark):
    n, ts, ta = 4, 1, 0
    polynomials = fresh_polynomials(1, ts, seed=13)
    corrupt = {2: EquivocatingBehavior(group_b=[4], tag_predicate=lambda tag: True)}
    result = benchmark.pedantic(
        lambda: _run_sharing(VerifiableSecretSharing, n, ts, ta, 2, polynomials,
                             SynchronousNetwork(), corrupt=corrupt, seed=5),
        iterations=1, rounds=1,
    )
    stats = summarize(result)
    outputs = result.honest_outputs()
    # Strong commitment: either nobody outputs, or everyone outputs shares of
    # one degree-ts polynomial.
    stats["all_or_nothing"] = float(len(outputs) in (0, n - 1))
    benchmark.extra_info.update(stats)
    record_bench("vss", "vss_corrupt_dealer_commitment", stats)
    assert stats["all_or_nothing"] == 1.0


if __name__ == "__main__":
    for n, ts in ((16, 5), (25, 8)):
        stats = measure_dealer_verify(n=n, ts=ts)
        path = record_bench("vss", f"dealer_verify_n{n}_ts{ts}_L4", stats)
        print(
            f"wps/vss dealer+verify (n={n:2d}, ts={ts}, L=4):"
            f" {stats['batch_s'] * 1e3:8.2f} ms"
        )
    print(f"written to {path}")

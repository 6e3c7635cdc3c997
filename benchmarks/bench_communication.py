"""E5 -- Communication-complexity scaling (Lemma 4.7, Thm 4.8/4.16, Lemma 5.1).

Measures the bits sent by honest parties *and* the number of messages for
ΠBC, ΠWPS, ΠVSS and ΠACS as n grows and fits the growth exponents, to be
compared with the paper's asymptotics (O(n²ℓ), O(n⁴ log|F|), O(n⁵ log|F|),
O(n⁶ log|F|) respectively, :mod:`repro.analysis.complexity`).  Absolute
constants are not expected to match the paper (our ΠBGP differs); the
*shape* is.

``python benchmarks/bench_communication.py`` persists one ``scaling_<label>``
row per protocol to ``BENCH_communication.json`` and asserts the tolerances.
Rows measured with this file at an earlier commit's ``src/`` are kept beside
them: all four with one message per row and per pair's points as
``@parent_322462e`` (the sharing post of ``repro.sharing.wps`` came after it;
:data:`PARENT_ROWS`), all four with a phase-king bank that agreed on whole
bundles as ``@parent_2794c4d`` (the binary bank of ``repro.ba.sba`` came
after it), all four with a phase-king run per ΠBC carrier as
``@parent_2240655`` (the one bank per anchor instant of
``repro.broadcast.bc`` came after it), all four with one run of Fig 1 per
logical ΠBC as ``@parent_2a4941f`` (the broadcast carriers of
``repro.broadcast.bc`` came after it), all four
with one ΠABA message per slot per step as ``@parent_b8ff26b`` (the ΠABA
carriers of ``repro.ba.aba`` came after it), all four with a bundle priced as
the plain tuple it was as ``@parent_a4b1a25`` (``repro.broadcast.acast.Bundle``
came after it), all four with a ΠABA slot priced at 64 bits as
``@parent_15b8279`` (the vote vectors on the bundle's vote line came after
it), ΠWPS/ΠVSS before the verdict-vector ΠBC as
``@parent_e6099bc``.
"""

import json
import os

import pytest

from repro.acs.acs import AgreementOnCommonSubset
from repro.analysis import acs_bits, bc_bits, fit_power_law, vss_bits, wps_bits
from repro.broadcast.bc import BroadcastProtocol
from repro.sharing.vss import VerifiableSecretSharing
from repro.sharing.wps import WeakPolynomialSharing
from repro.sim import SynchronousNetwork

from bench_common import FIELD, bench_json_path, fresh_polynomials, make_runner, record_bench

#: (n, ts) pairs used for the scaling sweep; ta = 0 keeps runs comparable.
SWEEP = [(4, 1), (5, 1), (7, 2)]

#: A fitted bits exponent may exceed the paper's by this much (three small n,
#: with t stepping from 1 to 2 inside the sweep) before the shape is wrong.
EXPONENT_TOLERANCE = 1.5

#: label -> suffix of the row measured with this file at that commit's
#: ``src/``.  The sharing post sends the rows and points one party owes one
#: peer at one instant as one message, and a synchronous sweep takes no late
#: path: against ``@parent_322462e`` neither the messages nor the bits may be
#: higher at any n of the sweep (a lone ΠWPS, one sharing per root, sends the
#: same messages and bits).  (Against ``@parent_2794c4d`` the bank vectors
#: carried the n senders' bundles, against ``@parent_2240655``
#: the bank sent one vector where each carrier sent its own vote, against
#: ``@parent_15b8279`` the vote vectors were the same messages at fewer bits,
#: against ``@parent_b8ff26b`` the ΠABA vectors took 7-8% of ΠVSS's messages,
#: against ``@parent_2a4941f`` the carriers half an exponent.)
PARENT_ROWS = {label: "@parent_322462e" for label in ("bc", "wps", "vss", "acs")}


def _counts(n, factory):
    """(honest bits, messages) of one synchronous run of ``factory`` at every party."""
    runner = make_runner(n, network=SynchronousNetwork(), seed=1)
    runner.run(factory, max_time=300_000.0)
    metrics = runner.metrics
    return metrics.honest_bits, metrics.messages_sent


def _counts_for_bc(n, t):
    return _counts(n, lambda party: BroadcastProtocol(
        party, "bc", sender=1, faults=t, message="m" * 8 if party.id == 1 else None,
        anchor=0.0))


def _counts_for_sharing(cls, n, t):
    polynomials = fresh_polynomials(1, t, seed=3)
    return _counts(n, lambda party: cls(
        party, "share", dealer=1, ts=t, ta=0, num_polynomials=1,
        polynomials=polynomials if party.id == 1 else None, anchor=0.0))


def _counts_for_acs(n, t):
    polynomials = {pid: fresh_polynomials(1, t, seed=3 + pid) for pid in range(1, n + 1)}
    return _counts(n, lambda party: AgreementOnCommonSubset(
        party, "acs", ts=t, ta=0, num_polynomials=1, polynomials=polynomials[party.id],
        anchor=0.0))


#: label -> (measure(n, t) -> (honest bits, messages), the paper's leading
#: term as a function of n, the paper's asymptotic exponent).
PROTOCOLS = {
    "bc": (_counts_for_bc, lambda n: bc_bits(n, 64), 2.0),
    "wps": (lambda n, t: _counts_for_sharing(WeakPolynomialSharing, n, t),
            lambda n: wps_bits(n, 1, FIELD.element_bits()), 4.0),
    "vss": (lambda n, t: _counts_for_sharing(VerifiableSecretSharing, n, t),
            lambda n: vss_bits(n, 1, FIELD.element_bits()), 5.0),
    "acs": (_counts_for_acs, lambda n: acs_bits(n, 1, FIELD.element_bits()), 6.0),
}


def measure_scaling(label, sweep=SWEEP):
    """One ledger row: bits and messages by n, fitted and paper exponents."""
    measure, paper_bits, paper_exponent = PROTOCOLS[label]
    counts = {n: measure(n, t) for n, t in sweep}
    ns = sorted(counts)
    row = {
        "sweep": [list(pair) for pair in sweep],
        "bits_by_n": {str(n): counts[n][0] for n in ns},
        "messages_by_n": {str(n): counts[n][1] for n in ns},
        "fitted_bits_exponent": fit_power_law(ns, [counts[n][0] for n in ns])[0],
        "fitted_messages_exponent": fit_power_law(ns, [counts[n][1] for n in ns])[0],
        "paper_exponent": paper_exponent,
        "paper_formula_exponent": fit_power_law(ns, [paper_bits(n) for n in ns])[0],
    }
    # Clearly super-linear, and not wildly above the paper's asymptotics.
    assert 1.5 <= row["fitted_bits_exponent"] <= paper_exponent + EXPONENT_TOLERANCE, row
    return row


@pytest.mark.parametrize("label", ["bc", "wps", "vss"], ids=["bc-n2", "wps-n4", "vss-n5"])
def test_communication_scaling(benchmark, label):
    row = benchmark.pedantic(lambda: measure_scaling(label), iterations=1, rounds=1)
    benchmark.extra_info.update(row)


def smoke():
    """Tiny-size rot check used by the bench_smoke tier-1 marker."""
    bc = measure_scaling("bc", sweep=SWEEP[:2])
    bits, messages = PROTOCOLS["wps"][0](4, 1)
    assert bits > 0 and 0 < messages < 1440  # 1440 with one ΠBC per ordered pair
    return {"bc_bits_n4": bc["bits_by_n"]["4"], "wps_messages_n4": messages}


def main(suffix: str = "") -> None:
    parents = {}
    if os.path.exists(bench_json_path("communication")):
        with open(bench_json_path("communication"), encoding="utf-8") as handle:
            parents = json.load(handle)
    for label in PROTOCOLS:
        row = measure_scaling(label)
        parent = parents.get(f"scaling_{label}{PARENT_ROWS[label]}")
        if parent is not None and not suffix:
            # Bits are compared n by n, not by the fit: lowering every point by
            # a lower-order term *raises* the exponent fitted through three small n.
            assert all(row["messages_by_n"][n] <= parent["messages_by_n"][n]
                       for n in row["messages_by_n"]), (label, row["messages_by_n"])
            assert all(row["bits_by_n"][n] <= parent["bits_by_n"][n]
                       for n in row["bits_by_n"]), (label, row["bits_by_n"])
            for count in ("messages", "bits"):
                row[f"{count}_vs_parent_by_n"] = {
                    n: row[f"{count}_by_n"][n] / parent[f"{count}_by_n"][n]
                    for n in row[f"{count}_by_n"]}
        record_bench("communication", f"scaling_{label}{suffix}", row)
        print(f"{label:4s} bits ~ n^{row['fitted_bits_exponent']:.2f} "
              f"(paper n^{row['paper_exponent']:.0f}, its formula on this sweep "
              f"n^{row['paper_formula_exponent']:.2f}), messages ~ "
              f"n^{row['fitted_messages_exponent']:.2f}   {row['messages_by_n']}")


if __name__ == "__main__":
    import sys

    main(*sys.argv[1:2])

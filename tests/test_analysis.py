"""Tests for the analysis helpers (complexity formulas, power-law fitting)."""

import pytest

from repro.analysis import (
    acast_bits,
    acs_bits,
    bc_bits,
    cir_eval_bits,
    communication_summary,
    fit_power_law,
    paper_cir_eval_time,
    preprocessing_bits,
    vss_bits,
    wps_bits,
)
from repro.sim.simulator import SimulationMetrics
from repro.sim.messages import Message


def test_formula_growth_rates():
    # Doubling n multiplies the leading terms by the expected powers.
    assert acast_bits(8, 100) / acast_bits(4, 100) == pytest.approx(4.0)
    assert bc_bits(8, 100) / bc_bits(4, 100) == pytest.approx(4.0)
    assert wps_bits(8, 1, 61) / wps_bits(4, 1, 61) == pytest.approx(16.0, rel=0.2)
    assert vss_bits(8, 1, 61) / vss_bits(4, 1, 61) == pytest.approx(32.0, rel=0.2)
    assert acs_bits(8, 1, 61) / acs_bits(4, 1, 61) == pytest.approx(64.0, rel=0.2)
    assert preprocessing_bits(8, 1, 1, 61) / preprocessing_bits(4, 1, 1, 61) == pytest.approx(
        128.0, rel=0.2
    )
    assert cir_eval_bits(6, 1, 10, 61) == preprocessing_bits(6, 1, 10, 61)


def test_formula_scales_with_payload():
    assert wps_bits(4, 10, 61) > wps_bits(4, 1, 61)
    assert preprocessing_bits(4, 0, 100, 61) > preprocessing_bits(4, 0, 1, 61)


def test_paper_time_bound_formula():
    assert paper_cir_eval_time(8, 10, 1.0, k=3) == pytest.approx(120 * 8 + 10 + 18 - 20)
    assert paper_cir_eval_time(4, 0, 2.0) == pytest.approx((480 - 20 + 18) * 2.0)


def test_fit_power_law_recovers_exponent():
    xs = [4, 5, 6, 7, 8]
    ys = [3.0 * x ** 2.5 for x in xs]
    exponent, constant = fit_power_law(xs, ys)
    assert exponent == pytest.approx(2.5, abs=0.01)
    assert constant == pytest.approx(3.0, rel=0.05)


def test_fit_power_law_requires_two_points():
    with pytest.raises(ValueError):
        fit_power_law([1], [1])
    with pytest.raises(ValueError):
        fit_power_law([1, 2], [1])


def test_communication_summary():
    metrics = SimulationMetrics()
    metrics.record_send(Message(1, 2, "a/b", 7, 0.0), sender_corrupt=False)
    metrics.record_send(Message(3, 2, "a/b", 7, 0.0), sender_corrupt=True)
    metrics.record_delivery()
    summary = communication_summary(metrics)
    assert summary["messages_sent"] == 2
    assert summary["messages_delivered"] == 1
    assert summary["total_bits"] > summary["honest_bits"] > 0
    assert metrics.bits_by_tag_prefix["a"] == metrics.total_bits


def test_per_round_message_accounting():
    from repro.analysis import max_message_bits, max_round_bits, per_round_bits

    metrics = SimulationMetrics()
    small = Message(1, 2, "preproc/x", 7, 0.0)
    big = Message(1, 2, "preproc/y", [7] * 10, 1.0)
    other = Message(1, 2, "other", "zz", 1.5)
    metrics.record_send(small, sender_corrupt=False, round_index=0)
    metrics.record_send(big, sender_corrupt=False, round_index=1)
    metrics.record_send(other, sender_corrupt=False, round_index=1)

    rounds = per_round_bits(metrics)
    assert rounds == {0: small.bits, 1: big.bits + other.bits}
    assert max_round_bits(metrics) == big.bits + other.bits
    assert max_message_bits(metrics) == big.bits
    assert max_message_bits(metrics, "preproc") == big.bits
    assert max_message_bits(metrics, "other") == other.bits
    assert max_message_bits(metrics, "absent") == 0

    summary = communication_summary(metrics)
    assert summary["max_message_bits"] == big.bits
    assert summary["max_round_bits"] == big.bits + other.bits

"""Tests for the timing helpers and the protocol time-bound functions."""

import pytest

from repro.ba.aba import aba_nominal_time_bound, aba_unanimous_time_bound
from repro.ba.bobw import ba_time_bound
from repro.ba.sba import sba_time_bound
from repro.broadcast.acast import acast_time_bound
from repro.broadcast.bc import bc_time_bound
from repro.acs.acs import acs_time_bound
from repro.mpc.protocol import cir_eval_time_bound
from repro.sharing.vss import vss_time_bound
from repro.sharing.wps import wps_time_bound
from repro.timing import epsilon, next_multiple_of_delta
from repro.triples.preprocessing import preprocessing_time_bound
from repro.triples.sharing import triple_sharing_time_bound


def test_epsilon_is_small_fraction_of_delta():
    assert epsilon(1.0) == pytest.approx(0.001)
    assert epsilon(10.0) == pytest.approx(0.01)


def test_next_multiple_of_delta_basic():
    assert next_multiple_of_delta(0.0, 1.0) == pytest.approx(0.0)
    assert next_multiple_of_delta(0.5, 1.0) == pytest.approx(1.0)
    assert next_multiple_of_delta(1.0, 1.0) == pytest.approx(1.0)
    assert next_multiple_of_delta(2.3, 1.0) == pytest.approx(3.0)


def test_next_multiple_of_delta_tolerates_epsilon_drift():
    # A time just past a multiple (within the tie-breaking epsilon) does not
    # cost a whole extra round.
    value = next_multiple_of_delta(3.0005, 1.0)
    assert value <= 3.0005 + 1e-9
    # Far past the multiple, the next one is used.
    assert next_multiple_of_delta(3.01, 1.0) == pytest.approx(4.0)


def test_time_bounds_are_monotone_in_n_and_t():
    assert sba_time_bound(4, 1, 1.0) == pytest.approx(6.0)
    assert sba_time_bound(7, 2, 1.0) == pytest.approx(9.0)
    assert bc_time_bound(7, 2, 1.0) > bc_time_bound(4, 1, 1.0)
    assert ba_time_bound(4, 1, 1.0) > bc_time_bound(4, 1, 1.0)
    assert wps_time_bound(4, 1, 1.0) > 2 * bc_time_bound(4, 1, 1.0)
    assert vss_time_bound(4, 1, 1.0) > wps_time_bound(4, 1, 1.0)
    assert acs_time_bound(4, 1, 1.0) > vss_time_bound(4, 1, 1.0)
    assert triple_sharing_time_bound(4, 1, 1.0) > acs_time_bound(4, 1, 1.0)
    assert preprocessing_time_bound(4, 1, 1.0) > triple_sharing_time_bound(4, 1, 1.0)


def test_time_bounds_scale_with_delta():
    assert acast_time_bound(2.0) == pytest.approx(6.0)
    assert bc_time_bound(4, 1, 2.0) == pytest.approx(2.0 * bc_time_bound(4, 1, 1.0), rel=0.01)
    assert aba_nominal_time_bound(2.0) == 2 * aba_nominal_time_bound(1.0)
    assert aba_unanimous_time_bound(3.0) == 3 * aba_unanimous_time_bound(1.0)


def test_cir_eval_time_bound_grows_with_depth():
    shallow = cir_eval_time_bound(4, 1, 1, 1.0)
    deep = cir_eval_time_bound(4, 1, 10, 1.0)
    assert deep - shallow == pytest.approx(9.0, abs=0.01)

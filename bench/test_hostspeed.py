"""Tests of the host factors and of reading op times in reference time.

Run with `python3 -m pytest bench/test_hostspeed.py` from the repository root.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from hostspeed import UNITS, WINDOW, HostSpeed
from run import timings


def Op(round, units, seconds):  # the fields of workloads.Op that timings reads
    return SimpleNamespace(round=round, units=units, seconds=seconds)


def test_factor_is_median_of_nearby_samples_over_reference():
    speed = HostSpeed("numpy_small")
    reference = speed.unit.reference_ms
    times = [1.0, 1.0, 1.0, 9.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    speed.samples = {index: ms * reference for index, ms in enumerate(times)}
    factors = speed.factors()
    assert WINDOW == 2
    assert factors[3] == pytest.approx(1.0)  # one slow sample does not move its round
    assert factors[0] == pytest.approx(1.0)  # the window is cut at the ends
    assert factors[8] == pytest.approx(2.0)
    assert factors[5] == pytest.approx(2.0)  # samples 3..7: 9, 1, 1, 2, 2


def test_timings_divide_each_op_by_its_round_factor():
    ops = [Op(0, 2, 0.2), Op(1, 1, 0.4), Op(1, 1, 0.6)]
    wall = timings(ops)
    assert wall["ops_per_s"] == pytest.approx(4 / 1.2)
    ref = timings(ops, {0: 1.0, 1: 2.0})
    assert ref["ops_per_s"] == pytest.approx(4 / (0.2 + 0.2 + 0.3))
    # per-unit samples in reference time: 100, 200, 300 ms
    assert ref["p50_ms"] == pytest.approx(200.0)


@pytest.mark.parametrize("name", sorted(UNITS))
def test_sample_records_a_positive_unit_time(name):
    speed = HostSpeed(name)
    speed.sample(0)
    assert speed.samples[0] > 0

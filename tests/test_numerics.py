import math

import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from hcchroma import InputError, NumericError, lambert_w, numerics


def test_trivial_values():
    assert lambert_w(0.0) == 0.0
    assert abs(lambert_w(math.e) - 1.0) <= 1e-14


def test_unit_value_residual():
    w = lambert_w(1.0)
    assert abs(w * math.exp(w) - 1.0) <= 1e-12
    assert abs(w - 0.5671432904097838) <= 1e-12


def test_round_trip_grid():
    for i in range(1001):
        w = 20.0 * i / 1000.0
        x = w * math.exp(w)
        assert abs(lambert_w(x) - w) <= 1e-10


def test_monotone_on_grid():
    values = [lambert_w(x / 7.0) for x in range(200)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_matches_scipy():
    for x in [1e-6, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3, 1e6, 1e9]:
        ref = float(scipy.special.lambertw(x).real)
        assert abs(lambert_w(x) - ref) <= 1e-10 * (1 + abs(ref))


def test_asymptotic_form_improves():
    gaps = [
        abs(lambert_w(x) - (math.log(x) - math.log(math.log(x))))
        for x in (1e3, 1e6, 1e9)
    ]
    assert gaps[0] > gaps[1] > gaps[2]


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
def test_residual_property(w):
    x = w * math.exp(w)
    got = lambert_w(x)
    assert abs(got * math.exp(got) - x) <= 1e-12 * (1.0 + x)


def test_domain_error():
    with pytest.raises(InputError):
        lambert_w(-0.1)
    with pytest.raises(InputError):
        lambert_w(float("nan"))


def test_unreachable_tolerance_fails_loudly(monkeypatch):
    # an unreachable tolerance must raise after MAX_ITER steps, not loop forever
    monkeypatch.setattr(numerics, "ABS_TOL", 1e-300)
    monkeypatch.setattr(numerics, "MAX_ITER", 3)
    with pytest.raises(NumericError):
        lambert_w(5.0)

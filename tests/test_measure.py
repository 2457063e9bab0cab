import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl import (
    DunklParams,
    ball_measure,
    ball_measure_origin,
    doubling_ratio,
    interval_measure,
)
from dunkl.measure import _check_radius


def _quad_oracle(params, a, b, n=200_001):
    """Trapezoid integration of the density with the kink on a node."""
    if a < 0.0 < b:
        return _quad_oracle(params, a, 0.0, n) + _quad_oracle(params, 0.0, b, n)
    t = np.linspace(a, b, n)
    return float(np.trapezoid(params.c_kappa * np.abs(t) ** (2 * params.kappa + 1), t))


def test_origin_ball_closed_forms():
    p0 = DunklParams(0.0)
    assert ball_measure_origin(p0, 1.0) == pytest.approx(0.5, rel=1e-14)
    assert ball_measure_origin(p0, 2.0) == pytest.approx(2.0, rel=1e-14)
    pc = DunklParams(-0.5, classical=True)
    assert ball_measure_origin(pc, 1.0) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-12)


def test_ball_measure_examples():
    p0 = DunklParams(0.0)
    assert ball_measure(p0, 2.0, 1.0) == pytest.approx(4.0, rel=1e-14)
    assert ball_measure(p0, 0.5, 1.0) == pytest.approx(1.125, rel=1e-14)
    # B(0, r) is the origin ball
    for kappa in (0.0, 0.5, 1.5):
        p = DunklParams(kappa)
        assert ball_measure(p, 0.0, 0.7) == pytest.approx(ball_measure_origin(p, 0.7), rel=1e-14)


def test_interval_measure_examples():
    p0 = DunklParams(0.0)
    assert interval_measure(p0, 2.0, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert interval_measure(p0, 0.5, 1.0) == pytest.approx(0.625, rel=1e-14)
    for kappa in (0.0, 0.8):
        p = DunklParams(kappa)
        assert interval_measure(p, 0.0, 1.3) == pytest.approx(ball_measure_origin(p, 1.3), rel=1e-14)


def test_measures_match_quadrature():
    for kappa in (0.0, 0.5, 1.5):
        p = DunklParams(kappa)
        for (x, r) in ((0.0, 1.0), (0.5, 1.0), (2.0, 1.0), (-3.0, 2.5)):
            assert interval_measure(p, x, r) == pytest.approx(
                _quad_oracle(p, x - r, x + r), rel=1e-8
            )


def test_doubling_examples():
    p0 = DunklParams(0.0)
    assert doubling_ratio(p0, 0.0, 1.0) == pytest.approx(4.0, rel=1e-13)
    assert doubling_ratio(p0, 100.0, 1.0) == pytest.approx(2.0, abs=0.01)
    pc = DunklParams(-0.5, classical=True)
    for x in (0.0, 3.7, -12.0):
        assert doubling_ratio(pc, x, 0.8) == pytest.approx(2.0, rel=1e-12)


@given(
    st.floats(-0.499, 3.0),
    st.floats(-20.0, 20.0),
    st.floats(0.01, 10.0),
)
@settings(max_examples=400, deadline=None)
def test_ball_vs_interval_lemma(kappa, x, r):
    p = DunklParams(kappa)
    b = ball_measure(p, x, r)
    iv = interval_measure(p, x, r)
    assert b <= 2.0 * iv * (1.0 + 1e-12)
    if abs(x) >= r:
        assert b == pytest.approx(2.0 * iv, rel=1e-12)


@given(
    st.floats(-0.499, 3.0),
    st.floats(-20.0, 20.0),
    st.floats(0.01, 10.0),
)
@settings(max_examples=400, deadline=None)
def test_origin_interval_lemma(kappa, x, r):
    p = DunklParams(kappa)
    assert interval_measure(p, 0.0, r) <= 2.0 * interval_measure(p, x, r) * (1.0 + 1e-12)


@given(st.floats(0.0, 3.0), st.floats(-20.0, 20.0), st.floats(0.01, 5.0))
@settings(max_examples=300, deadline=None)
def test_doubling_capped_by_origin_case(kappa, x, r):
    p = DunklParams(kappa)
    assert doubling_ratio(p, x, r) <= 2.0 ** (2 * kappa + 2) * (1.0 + 1e-9)


@given(st.floats(0.0, 3.0), st.floats(-15.0, 15.0), st.floats(0.01, 4.0), st.floats(1.0, 6.0))
@settings(max_examples=300, deadline=None)
def test_reverse_doubling_unit_constant_nonnegative_kappa(kappa, x, r, rho):
    p = DunklParams(kappa)
    ratio = interval_measure(p, x, rho * r) / interval_measure(p, x, r)
    assert ratio >= rho * (1.0 - 1e-9)


def test_reverse_doubling_unit_constant_fails_for_negative_kappa():
    # documents why the unit-constant check is restricted to kappa >= 0
    p = DunklParams(-0.25)
    ratio = interval_measure(p, 2.0, 2.0) / interval_measure(p, 2.0, 1.0)
    assert ratio < 2.0


def test_rejects_nonpositive_radius():
    p = DunklParams(0.5)
    for fn in (lambda: ball_measure_origin(p, 0.0), lambda: ball_measure(p, 1.0, -1.0), lambda: interval_measure(p, 0.0, 0.0), lambda: doubling_ratio(p, 0.0, -2.0)):
        with pytest.raises(ValueError):
            fn()


@pytest.mark.parametrize("kappa", [-0.5, 0.0, 0.5, 1.5])
def test_array_measures_match_scalar_calls(kappa):
    # array pow and scalar pow may differ in the last bit, so not bitwise
    p = DunklParams(kappa, classical=(kappa == -0.5))
    x = np.array([-7.5, -2.0, -0.3, 0.0, 0.25, 0.9, 1.0, 3.0, 12.0])
    for r in (0.1, 1.0, 2.5):
        for fn in (ball_measure, interval_measure):
            got = fn(p, x, r)
            want = np.array([fn(p, float(xi), r) for xi in x])
            assert got.shape == x.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # array radii broadcast against the centers
    rs = np.array([0.1, 1.0, 2.5])
    for fn in (ball_measure, interval_measure):
        got = fn(p, x[:, None], rs[None, :])
        want = np.array([[fn(p, float(xi), float(r)) for r in rs] for xi in x])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_scalar_ball_measure_has_the_bits_of_the_array_path():
    # samples drawn like those of the measure_lemmas suite: a scalar center
    # gives a float with the bits of the one-entry array
    rng = np.random.default_rng(17)
    n = 10_000
    kap = rng.uniform(-0.499, 3.0, n)
    x = rng.uniform(-20.0, 20.0, n)
    r = np.exp(rng.uniform(math.log(0.01), math.log(10.0), n))
    moved = []
    for k, xi, ri in zip(kap, x, r):
        p = DunklParams(float(k))
        got = ball_measure(p, float(xi), float(ri))
        assert type(got) is float
        if got.hex() != float(ball_measure(p, np.array([xi]), float(ri))[0]).hex():
            moved.append((k, xi, ri))
    assert not moved, f"{len(moved)} samples differ, first {moved[0]}"


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.0, float("nan"), float("inf"), float("-inf")])
def test_scalar_radius_paths_agree(bad):
    # a Python float takes the fast path, a numpy scalar or an int the numpy
    # one: the same value back, and the same message for a bad radius
    assert _check_radius(2.5) == _check_radius(np.float64(2.5)) == _check_radius(np.array(2.5)) == 2.5
    assert type(_check_radius(2.5)) is float and type(_check_radius(3)) is float
    for r in (bad, np.float64(bad)):
        with pytest.raises(ValueError, match=f"radius must be positive and finite, got {bad}"):
            _check_radius(r)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_array_radius_entries_validated(bad):
    p = DunklParams(0.5)
    rs = np.array([1.0, bad, 2.0])
    for fn in (ball_measure, interval_measure):
        with pytest.raises(ValueError, match="radius"):
            fn(p, 0.5, rs)
        with pytest.raises(ValueError, match="radius"):
            fn(p, np.array([0.0, 1.0, 2.0]), rs)

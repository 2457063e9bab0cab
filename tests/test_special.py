import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl import (
    DunklParams,
    GridFunction,
    bessel_normalized,
    dunkl_derivative,
    dunkl_kernel,
    make_grid,
    sample_family,
)
from dunkl import transform
from dunkl import special
from dunkl.special import _SERIES_CUTOFF, kernel_pair, kernel_values
from dunkl.translation import _INDICATOR_BAND
from dunkl.transform import multiplier_pair


def _series_oracle(order, z, terms=120):
    """Direct series summation, independent of the production stopping rule."""
    total = 0.0
    term = 1.0
    for n in range(terms):
        total += term
        term *= -z * z / (4.0 * (n + 1) * (n + 1 + order))
    return total


def test_bessel_at_zero_is_one():
    assert bessel_normalized(0.7, 0.0) == 1.0


def test_bessel_half_order_closed_forms():
    # j_{1/2}(z) = sin(z)/z and j_{-1/2}(z) = cos(z)
    assert abs(bessel_normalized(0.5, math.pi)) < 1e-12
    assert bessel_normalized(-0.5, math.pi) == pytest.approx(-1.0, abs=1e-12)
    for z in (0.3, 1.7, 4.4, 9.2):
        assert bessel_normalized(0.5, z) == pytest.approx(math.sin(z) / z, abs=5e-12)
        assert bessel_normalized(-0.5, z) == pytest.approx(math.cos(z), abs=5e-12)


def test_bessel_agrees_with_direct_series():
    for order in (-0.3, 0.0, 0.8, 2.5):
        for z in (0.1, 1.0, 3.3, 8.0):
            assert bessel_normalized(order, z) == pytest.approx(
                _series_oracle(order, z), rel=1e-12, abs=1e-14
            )


def test_bessel_branches_agree_with_high_precision_oracle():
    # both the series branch (z < 10) and the renormalized backend branch
    # (z > 10) match an independent high-precision evaluation
    import mpmath

    mpmath.mp.dps = 30
    for order in (-0.4, 0.0, 1.5, 3.5):
        for z in (9.99, 10.01, 25.0):
            oracle = float(
                2.0**order * mpmath.gamma(order + 1) * mpmath.besselj(order, z) / mpmath.mpf(z) ** order
            )
            assert bessel_normalized(order, z) == pytest.approx(oracle, abs=1e-11)


# Orders with their own large-argument route (half-integer closed forms, j0,
# j1) and two general orders that keep jv.
ROUTE_ORDERS = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.5, 3.5, 0.3, 2.2)
ROUTE_Z = (0.5, 9.99, 10.01, 17.3, 64.0, 250.5, 1000.0)


def _mp_normalized(order, z):
    import mpmath

    with mpmath.workdps(40):
        z = mpmath.mpf(z)
        return float(2**order * mpmath.gamma(order + 1) * mpmath.besselj(order, z) / z**order)


@pytest.mark.parametrize("order", ROUTE_ORDERS)
def test_bessel_routes_match_mpmath_table(order):
    assert ROUTE_Z[1] < _SERIES_CUTOFF < ROUTE_Z[2]
    z = np.array(ROUTE_Z)
    oracle = np.array([_mp_normalized(order, zz) for zz in ROUTE_Z])
    np.testing.assert_allclose(bessel_normalized(order, z), oracle, rtol=0.0, atol=1e-13)


def _series_reference(order, z2, tol=None):
    """The series with its convergence test on every term; without tol, the
    sum of all _MAX_TERMS terms."""
    term = np.ones_like(z2)
    total = np.ones_like(z2)
    for n in range(1, special._MAX_TERMS):
        term = term * (-z2) / (4.0 * n * (n + order))
        total += term
        if tol is not None and np.all(np.abs(term) < tol * np.maximum(np.abs(total), 1e-300)):
            return total
    assert tol is None, "reference series did not converge"
    return total


@pytest.mark.parametrize("tol", [special._SERIES_TOL, 1e-19])
@pytest.mark.parametrize("order", [-0.5, -0.3, 0.0, 0.3, 1.0, 1.5, 2.5])
def test_series_cadence_is_bit_exact(order, tol):
    # one array across the whole series range, with points near the first
    # zero of j_0 and tiny arguments that converge after a few terms: the
    # sums equal the every-term test, the sum of all terms, and each entry
    # summed alone
    z = np.concatenate([np.linspace(0.0, _SERIES_CUTOFF, 2001), [1e-8, 0.01, 2.404825557695773]])
    got = special._series(order, z * z, tol)
    assert np.array_equal(got, _series_reference(order, z * z, tol))
    assert np.array_equal(got, _series_reference(order, z * z))
    alone = [special._series(order, np.array([zz * zz]), tol)[0] for zz in z[::20]]
    assert np.array_equal(alone, got[::20])


@pytest.mark.parametrize("order", [-0.5, 0.0, 0.3, 1.0, 1.5, 2.2])
def test_single_route_inputs_match_mixed_input(order):
    # an all-series or all-large input takes its route whole; its values
    # equal the same entries of a mixed input, which splits by route
    small = np.linspace(-_SERIES_CUTOFF, _SERIES_CUTOFF, 301).reshape(7, 43)
    large = np.linspace(_SERIES_CUTOFF + 1e-3, 400.0, 301).reshape(7, 43)
    mixed = bessel_normalized(order, np.concatenate([small, -large], axis=1))
    assert np.array_equal(bessel_normalized(order, small), mixed[:, :43])
    assert np.array_equal(bessel_normalized(order, large), mixed[:, 43:])
    for z in (0.0, 3.5, _SERIES_CUTOFF, 12.5, np.float64(-40.0), np.array(7.0)):
        val = bessel_normalized(order, z)
        assert type(val) is float
        assert val == bessel_normalized(order, np.array([z, 100.0]))[0]


@pytest.mark.parametrize("kappa", [-0.5, 0.0, 0.5, 1.5, 2.5, 0.3, 3.5])
def test_fused_kernel_pair_matches_separate_orders_bit_for_bit(kappa):
    # one split and (for half-integer kappa) one recurrence for both orders
    # give the bits of two separate bessel_normalized calls: on inputs wholly
    # below or above the cutoff, on arrays that straddle |z| = 10, and on a
    # kernel-block-shaped argument
    p = DunklParams(kappa, classical=kappa == -0.5)
    rng = np.random.default_rng(17)
    inputs = [
        rng.uniform(-_SERIES_CUTOFF, _SERIES_CUTOFF, 500),
        rng.uniform(_SERIES_CUTOFF + 1e-9, 300.0, 500),
        np.concatenate([np.linspace(9.0, 11.0, 401), -np.linspace(9.0, 11.0, 401)]),
        np.array([_SERIES_CUTOFF, np.nextafter(_SERIES_CUTOFF, 11.0), 0.0, -25.0]),
        np.outer(np.arange(1, 64) * 0.19, np.arange(1, 48) * 0.37),
    ]
    for s in inputs:
        even, odd = kernel_pair(p, s)
        assert np.array_equal(even, bessel_normalized(kappa, s))
        assert np.array_equal(odd, s / (2.0 * kappa + 2.0) * bessel_normalized(kappa + 1.0, s))


def test_fused_kernel_pair_rejects_nonfinite_arguments():
    p = DunklParams(0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            kernel_pair(p, np.array([1.0, bad, 20.0]))


@pytest.mark.parametrize("kappa", [-0.5, 0.0, 1.5, 0.3])
def test_chunked_blocks_match_whole_array_evaluation(kappa, monkeypatch):
    # 1000 elements per piece forces several row pieces and a short last one
    p = DunklParams(kappa, classical=kappa == -0.5)
    xg, lg = make_grid(p, 8.0, 256), make_grid(p, 32.0, 200)
    monkeypatch.setattr(transform, "_cache", type(transform._cache)())
    monkeypatch.setattr(transform, "_BUILD_PIECE_ELEMENTS", 1000)
    a, b = transform._blocks(p, lg, xg)
    ea, eb = kernel_pair(p, np.outer(lg.positive_nodes, xg.positive_nodes))
    np.testing.assert_allclose(a, ea, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(b, eb, rtol=0.0, atol=1e-15)


def test_kernel_users_agree_with_evaluator():
    p = DunklParams(1.5)
    lg = make_grid(p, _INDICATOR_BAND * 8.0, 256)
    y = 2.7
    a, b = kernel_pair(p, lg.positive_nodes * y)
    ma, mb = multiplier_pair(p, lg, y)
    np.testing.assert_array_equal(ma, a)
    np.testing.assert_array_equal(mb, b)
    s = np.linspace(-60.0, 60.0, 241)
    a, b = kernel_pair(p, s)
    np.testing.assert_array_equal(kernel_values(p, s), a + 1j * b)


@given(st.floats(-60.0, 60.0))
@settings(max_examples=200, deadline=None)
def test_bessel_even_exactly(z):
    for order in (-0.4, 0.5, 2.0):
        assert bessel_normalized(order, z) == bessel_normalized(order, -z)


def test_bessel_rejects_bad_input():
    with pytest.raises(ValueError):
        bessel_normalized(-1.0, 1.0)
    with pytest.raises(ValueError):
        bessel_normalized(-1.5, 1.0)
    with pytest.raises(ValueError):
        bessel_normalized(0.5, float("inf"))


def test_kernel_at_zero_and_classical():
    p = DunklParams(0.3)
    assert dunkl_kernel(p, 0.0) == 1.0 + 0.0j
    pc = DunklParams(-0.5, classical=True)
    assert dunkl_kernel(pc, math.pi) == pytest.approx(-1.0 + 0.0j, abs=1e-12)
    for s in (-11.3, 0.7, 25.0):
        assert dunkl_kernel(pc, s) == pytest.approx(np.exp(1j * s), abs=1e-12)


def test_kernel_first_bessel_zero():
    # at kappa = 0 the kernel is J_0(s) + i J_1(s); s is near the first zero
    # of J_0, where high-precision series evaluation gives the imaginary part
    import mpmath

    s = 2.404826
    expected = complex(mpmath.besselj(0, s), mpmath.besselj(1, s))
    p = DunklParams(0.0)
    assert dunkl_kernel(p, s) == pytest.approx(expected, abs=1e-10)
    assert dunkl_kernel(p, s).imag == pytest.approx(0.519147, abs=1e-5)
    assert abs(dunkl_kernel(p, s).real) < 1e-5


@given(st.floats(-0.499, 3.0), st.floats(-50.0, 50.0))
@settings(max_examples=300, deadline=None)
def test_kernel_modulus_bound(kappa, s):
    assert abs(dunkl_kernel(DunklParams(kappa), s)) <= 1.0 + 1e-10


def test_kernel_conjugate_symmetry():
    p = DunklParams(0.9)
    s = np.linspace(-40, 40, 101)
    assert np.array_equal(kernel_values(p, -s), np.conj(kernel_values(p, s)))


def test_kernel_rejects_nonfinite():
    with pytest.raises(ValueError):
        dunkl_kernel(DunklParams(0.5), float("nan"))


def test_derivative_classical_is_plain_derivative():
    p = DunklParams(-0.5, classical=True)
    g = make_grid(p, 2.0, 256)
    d = dunkl_derivative(p, GridFunction(g, g.nodes**2))
    assert np.max(np.abs(d.values[1:-1] - 2.0 * g.nodes[1:-1])) < 1e-10


def test_derivative_even_function_drops_difference_term():
    p = DunklParams(1.2)
    g = make_grid(p, 2.0, 512)
    d = dunkl_derivative(p, GridFunction(g, np.cos(g.nodes)))
    assert np.max(np.abs(d.values[1:-1] + np.sin(g.nodes[1:-1]))) < 5e-5


@pytest.mark.parametrize("kappa,lam", [(0.5, 1.0), (1.5, 0.5), (0.0, 2.0)])
def test_derivative_eigenfunction_second_order(kappa, lam):
    p = DunklParams(kappa)
    errs = []
    for n in (256, 512, 1024):
        g = make_grid(p, 4.0, n)
        kv = kernel_values(p, lam * g.nodes)
        d = dunkl_derivative(p, GridFunction(g, kv.real))
        sel = slice(4, -4)
        errs.append(np.max(np.abs(d.values[sel] + lam * kv.imag[sel])))
    assert errs[1] < 0.3 * errs[0]
    assert errs[2] < 0.3 * errs[1]


def test_derivative_rejects_another_kappa():
    # the (2k + 1)/x term takes kappa from params: on a kappa = 1/2 grid the
    # kappa = 3/2 derivative of a bump was off by up to 2.64
    g = make_grid(DunklParams(0.5), 8.0, 256)
    f = sample_family("bump", [0.5, 1.0], g)
    with pytest.raises(ValueError, match="derivative kappa 1.5 differs from the grid's kappa 0.5"):
        dunkl_derivative(DunklParams(1.5), f)


def test_derivative_rejects_asymmetric_grid():
    p = DunklParams(0.5)
    g = make_grid(p, 2.0, 64)
    shifted = make_grid(p, 2.0, 64)
    object.__setattr__(shifted, "nodes", g.nodes + 0.01)
    with pytest.raises(ValueError):
        dunkl_derivative(p, GridFunction(shifted, np.ones(64)))

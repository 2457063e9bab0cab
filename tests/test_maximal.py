import warnings

import numpy as np
import pytest

from dunkl import translation
from dunkl._windows import WindowGeometry
from dunkl import (
    DunklParams,
    GridFunction,
    centered_maximal,
    default_radius_grid,
    dunkl_maximal,
    interval_maximal,
    make_grid,
    sample_family,
)

KAPPAS = [(-0.5, True), (0.0, False), (0.5, False), (1.5, False)]


@pytest.fixture(scope="module")
def grids():
    out = {}
    for kappa, cls in KAPPAS:
        p = DunklParams(kappa, classical=cls)
        g = make_grid(p, 16.0, 2048)
        out[kappa] = (p, g, default_radius_grid(g))
    return out


@pytest.mark.parametrize("kappa", [k for k, _ in KAPPAS])
def test_indicator_peak_is_one(grids, kappa):
    p, g, rho = grids[kappa]
    chi = sample_family("indicator_ball", [1.0], g)
    i0 = g.node_count // 2  # node nearest zero from above
    assert float(dunkl_maximal(chi, rho).values[i0]) == pytest.approx(1.0, abs=1e-2)
    assert float(centered_maximal(chi, rho).values[i0]) == pytest.approx(1.0, abs=1e-2)
    assert float(interval_maximal(chi, rho).values[i0]) == pytest.approx(1.0, abs=1e-2)


@pytest.mark.parametrize("kappa", [0.0, 1.5])
def test_constant_function_averages_to_one(grids, kappa):
    p, g, rho = grids[kappa]
    one = GridFunction(g, np.ones(g.node_count))
    sel = np.abs(g.nodes) <= 8.0
    assert np.max(np.abs(centered_maximal(one, rho).values[sel] - 1.0)) < 1e-10
    assert np.max(np.abs(interval_maximal(one, rho).values[sel] - 1.0)) < 1e-10


def test_nonnegative_output(grids):
    p, g, rho = grids[0.5]
    f = sample_family("trig_gauss", [4], g)
    for op in (dunkl_maximal, centered_maximal, interval_maximal):
        assert np.min(op(f, rho).values) >= 0.0


def test_window_routes_monotone(grids):
    p, g, rho = grids[0.5]
    lo = sample_family("gaussian", [2.0], g)
    hi = sample_family("gaussian", [0.25], g)
    for op in (centered_maximal, interval_maximal):
        assert np.max(op(lo, rho).values - op(hi, rho).values) <= 1e-10


def test_transform_route_monotone_within_spectral_tolerance(grids):
    p, g, rho = grids[0.5]
    lo = sample_family("indicator_ball", [0.5], g)
    hi = sample_family("indicator_ball", [1.0], g)
    assert np.max(dunkl_maximal(lo, rho).values - dunkl_maximal(hi, rho).values) <= 2e-2


def test_classical_dunkl_matches_direct_window_sweep(grids):
    p, g, rho = grids[-0.5]
    f = sample_family("gaussian", [0.5], g)
    md = dunkl_maximal(f, rho).values
    # independent oracle: brute-force window averages of the step extension
    x, dx, vals = g.nodes, g.spacing, np.abs(f.values)
    edges = np.concatenate([x - dx / 2, [x[-1] + dx / 2]])
    cum = np.concatenate([[0.0], np.cumsum(vals) * dx])

    def mass(t):
        t = np.clip(t, edges[0], edges[-1])
        j = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, x.size - 1)
        return cum[j] + vals[j] * (t - edges[j])

    oracle = np.zeros(x.size)
    for r in rho:
        np.maximum(oracle, (mass(x + r) - mass(x - r)) / (2 * r), out=oracle)
    sel = np.abs(x) <= 8.0
    assert np.max(np.abs(md[sel] - oracle[sel]) / oracle[sel]) < 0.02


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.5])
def test_equivalence_windows_finite(grids, kappa):
    p, g, rho = grids[kappa]
    f = sample_family("gaussian", [0.5], g)
    md = dunkl_maximal(f, rho).values
    mc = centered_maximal(f, rho).values
    mi = interval_maximal(f, rho).values
    sel = (np.abs(g.nodes) <= 8.0) & (md > 1e-6) & (mc > 1e-6) & (mi > 1e-6)
    for num, den in ((md, mc), (mc, mi)):
        r = num[sel] / den[sel]
        assert np.all(np.isfinite(r))
        assert r.max() < 50.0
        assert r.min() > 1.0 / 50.0


def test_centered_maximal_indicator_decay_profile(grids):
    p, g, rho = grids[1.5]
    chi = sample_family("indicator_ball", [1.0], g)
    mc = centered_maximal(chi, rho).values
    # far from the support the averages decay; compare 4 vs 8
    i4 = int(np.argmin(np.abs(g.nodes - 4.0)))
    i8 = int(np.argmin(np.abs(g.nodes - 8.0)))
    assert mc[i8] < mc[i4] < 1.0


def test_empty_rho_grid_rejected(grids):
    p, g, _ = grids[0.0]
    f = sample_family("gaussian", [0.5], g)
    for op in (dunkl_maximal, centered_maximal, interval_maximal):
        with pytest.raises(ValueError):
            op(f, [])
        with pytest.raises(ValueError):
            op(f, [0.0])


def test_zero_measure_radius_rejected_before_any_work(monkeypatch):
    # far below the node spacing the window measures round to 0 away from
    # the origin, and at kappa 3/2 mu(B_rho) underflows: every operator
    # names the radius before any transform or window mass, with no 0 / 0
    def no_work(*args):
        raise AssertionError("work started before the radii were checked")

    monkeypatch.setattr(translation, "_ball_convolution_stack", no_work)
    monkeypatch.setattr(WindowGeometry, "masses", no_work)
    cases = []
    for kappa, rho, ops in (
        (-0.5, 1e-20, (centered_maximal, interval_maximal)),
        (1.5, 1e-70, (dunkl_maximal,)),
    ):
        g = make_grid(DunklParams(kappa, classical=(kappa == -0.5)), 8.0, 64)
        cases += [(op, sample_family("gaussian", [0.5], g), rho) for op in ops]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op, f, rho in cases:
            with pytest.raises(ValueError, match=f"radius {rho} "):
                op(f, [1.0, rho])

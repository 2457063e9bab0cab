"""Window masses of `_windows.WindowGeometry` against an independent oracle:
the cell-by-cell overlap integrals of the step extension, and the rows of a
stack against the same rows alone."""

import numpy as np
import pytest

from dunkl import DunklParams, make_grid, sample_family
from dunkl._windows import WindowGeometry

KAPPAS = [-0.5, 0.3, 0.5, 1.5]
MEMBERS = (
    ("gaussian", (0.25,)),
    ("gaussian", (4.0,)),
    ("indicator_ball", (1.0,)),
    ("bump", (2.0, 1.5)),
    ("power_tail", (4.0, 1.0)),
    ("trig_gauss", (3.0,)),
)


def _setup(kappa):
    g = make_grid(DunklParams(kappa, classical=kappa == -0.5), 8.0, 256)
    rows = np.abs([sample_family(name, ps, g).values for name, ps in MEMBERS])
    # windows inside one cell, the defaults, and windows past L
    radii = (0.3 * g.spacing, 0.1, 0.7, 2.0, 5.0, 40.0)
    return g, rows, radii


def _antiderivative(params, t):
    """The weight antiderivative W in extended precision."""
    t = np.asarray(t, dtype=np.longdouble)
    e = 2 * np.longdouble(params.kappa) + 2
    return np.sign(t) * np.longdouble(params.c_kappa) * np.abs(t) ** e / e


def _overlap_masses(g, rows, lo, hi):
    """sum over the line cells (e_i, e_{i+1}) of row[i] times the weight
    mass W(min(hi, e_{i+1})) - W(max(lo, e_i)) of their overlap with each
    window (lo, hi), in extended precision: (F, windows)."""
    x = g.nodes
    edges = np.concatenate([[-g.half_width], 0.5 * (x[:-1] + x[1:]), [g.half_width]])
    a = np.maximum(lo[:, None], edges[:-1])
    b = np.minimum(hi[:, None], edges[1:])
    cover = np.where(b > a, _antiderivative(g.params, b) - _antiderivative(g.params, a), 0.0)
    return np.sum(rows[:, None, :] * cover, axis=-1).astype(float)


def _annulus_overlap_masses(g, rows, lo, hi):
    """The annuli {lo < |y| < hi} as the two line windows (lo, hi) and (-hi, -lo)."""
    return _overlap_masses(g, rows, lo, hi) + _overlap_masses(g, rows, -hi, -lo)


def _assert_close_to_total(g, rows, got, want):
    # the error relative to each row's total mass: relative to each window
    # it is meaningless where Gaussian tails cancel to masses near 1e-15
    total = _overlap_masses(g, rows, np.array([-g.half_width]), np.array([g.half_width]))
    err = np.abs(got - want).max(axis=1, keepdims=True)
    assert np.all(err <= 1e-15 * total), err / total


@pytest.mark.parametrize("kappa", KAPPAS)
def test_window_masses_match_cell_overlap_integrals(kappa):
    g, rows, radii = _setup(kappa)
    x, s = g.nodes, g.positive_nodes
    intervals = WindowGeometry.interval(g).masses(rows, radii)
    annuli = WindowGeometry.annulus(g).masses(rows, radii)
    for k, r in enumerate(radii):
        _assert_close_to_total(g, rows, intervals[:, k], _overlap_masses(g, rows, x - r, x + r))
        want = _annulus_overlap_masses(g, rows, np.maximum(0.0, s - r), s + r)
        _assert_close_to_total(g, rows, annuli[:, k], want)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_masses_between_arbitrary_ends_match_cell_overlap_integrals(kappa):
    # ends off the nodes and the edges, past the domain ends, and windows
    # inside one cell
    g, rows, _ = _setup(kappa)
    rng = np.random.default_rng(5)
    L = g.half_width
    lo, hi = np.sort(rng.uniform(-1.2 * L, 1.2 * L, (2, 400)), axis=0)
    got = WindowGeometry.interval(g).between(rows, lo, hi)
    _assert_close_to_total(g, rows, got, _overlap_masses(g, rows, lo, hi))
    narrow = lo + 0.1 * g.spacing
    got = WindowGeometry.interval(g).between(rows, lo, narrow)
    _assert_close_to_total(g, rows, got, _overlap_masses(g, rows, lo, narrow))
    lo, hi = np.sort(rng.uniform(0.0, 1.2 * L, (2, 400)), axis=0)
    got = WindowGeometry.annulus(g).between(rows, lo, hi)
    _assert_close_to_total(g, rows, got, _annulus_overlap_masses(g, rows, lo, hi))


@pytest.mark.parametrize("kappa", KAPPAS)
def test_stacked_window_masses_have_the_bits_of_each_row_alone(kappa):
    g, rows, radii = _setup(kappa)
    lo, hi = np.sort(np.random.default_rng(6).uniform(0.0, 9.0, (2, 50)), axis=0)
    for windows in (WindowGeometry.interval(g), WindowGeometry.annulus(g)):
        masses = windows.masses(rows, radii)
        between = windows.between(rows, lo, hi)
        for i in range(len(rows)):
            np.testing.assert_array_equal(windows.masses(rows[i : i + 1], radii)[0], masses[i])
            np.testing.assert_array_equal(windows.between(rows[i : i + 1], lo, hi)[0], between[i])

"""The stacked paths: ball convolutions, window profiles, amalgam and
Fofana norms and Dunkl maximal functions of whole stacks of functions on one
grid, the interval profile stack, and their one-function wrappers."""

import math

import numpy as np
import pytest

from dunkl import (
    DunklParams,
    GridFunction,
    NormSpec,
    amalgam_norm_r,
    ball_scaled_interval_fofana_norm,
    default_radius_grid,
    dunkl_maximal,
    fofana_norm,
    interval_amalgam_norm_r,
    interval_fofana_norm,
    lp_norm,
    make_grid,
    sample_family,
)
from dunkl import _windows, transform, translation
from dunkl._windows import LineWindowMass, WindowGeometry
from dunkl.maximal import _dunkl_maximal_stack, _window_maximal, centered_maximal, interval_maximal
from dunkl.measure import ball_measure, ball_measure_origin, interval_measure
from dunkl.norms import _IntervalProfileStack, _ProfileStack
from dunkl.transform import band_grid, forward_pair, inverse_pair
from dunkl.translation import _ball_convolution_stack, ball_convolutions, ball_multiplier

INF = math.inf
KAPPAS = [(-0.5, True), (0.0, False), (0.5, False), (1.5, False)]
MEMBERS = (
    ("gaussian", (0.25,)),
    ("gaussian", (2.0,)),
    ("indicator_ball", (1.0,)),
    ("bump", (0.0, 2.0)),
    ("power_tail", (6.0, 1.0)),
    ("trig_gauss", (3.0,)),
)


def _setup(kappa, classical, n=1024):
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, n)
    fam = [sample_family(name, ps, g) for name, ps in MEMBERS]
    return g, fam, default_radius_grid(g)


def _single_row_convolutions(f, radii):
    """Ball convolutions of one real f as a single-row forward transform and
    one inverse of all radius rows (one chunk): the one-function path."""
    g, p = f.grid, f.grid.params
    lg = band_grid(g, translation._INDICATOR_BAND)
    mult = np.stack([ball_multiplier(p, lg, r) for r in radii])
    assert mult.shape[0] * g.node_count <= transform._CHUNK_ELEMENTS
    u, v = forward_pair(p, g, lg, f.values)
    return np.maximum(inverse_pair(p, lg, g, mult * u, mult * v), 0.0)


def _refuse_forward(*args, **kwargs):
    raise AssertionError("transform ran before the input checks")


@pytest.mark.parametrize("kappa,classical", KAPPAS)
def test_stack_equals_separate_convolutions(kappa, classical):
    # one forward matrix product for the stack against one matrix-vector
    # product per function: equal to rounding, not bit for bit
    g, fam, radii = _setup(kappa, classical)
    stacked = _ball_convolution_stack(g, np.stack([f.values for f in fam]), radii)
    assert stacked.shape == (len(fam), len(radii), g.node_count)
    for f, rows in zip(fam, stacked):
        single = ball_convolutions(f, radii)
        assert np.max(np.abs(rows - single)) <= 1e-13 * np.max(np.abs(single))
    maxima = _dunkl_maximal_stack(g, np.stack([f.values for f in fam]), radii)
    for f, m in zip(fam, maxima):
        single = dunkl_maximal(f, radii).values
        assert np.max(np.abs(m - single)) <= 1e-13 * np.max(single)
    stack = _ProfileStack(g, np.stack([f.values for f in fam]), radii)
    for q in (1.0, 2.0, INF):
        spec = NormSpec(q, INF, INF, radii)
        for f, norm in zip(fam, stack.fofana(spec)):
            assert norm == pytest.approx(fofana_norm(f, spec), rel=1e-13)
        for r in radii[::3]:
            for f, norm in zip(fam, stack.amalgam(q, 4.0, r)):
                assert norm == pytest.approx(amalgam_norm_r(f, q, 4.0, r), rel=1e-13)


@pytest.mark.parametrize("kappa,classical", KAPPAS)
def test_one_function_wrappers_keep_the_single_row_bits(kappa, classical):
    g, fam, radii = _setup(kappa, classical)
    p = g.params
    measures = np.array([ball_measure_origin(p, r) for r in radii])
    for f in fam:
        conv = _single_row_convolutions(f, radii)
        assert np.array_equal(ball_convolutions(f, radii), conv)
        absf = GridFunction(g, np.abs(f.values))
        want = np.max(_single_row_convolutions(absf, radii) / measures[:, None], axis=0)
        assert np.array_equal(dunkl_maximal(f, radii).values, want)
        for q, pp, alpha in ((2.0, 8.0, 4.0), (1.5, 6.0, 2.0), (1.0, 2.0, 1.0)):
            profiles = _single_row_convolutions(GridFunction(g, np.abs(f.values) ** q), radii) ** (1.0 / q)
            theta = 1.0 / alpha - 1.0 / q - 1.0 / pp
            best = 0.0
            for r, u in zip(radii, profiles):
                best = max(best, ball_measure_origin(p, r) ** theta * lp_norm(GridFunction(g, u), pp))
            assert fofana_norm(f, NormSpec(q, pp, alpha, radii)) == best
            # one radius: one inverse row, as the one-radius path makes it
            u = _single_row_convolutions(GridFunction(g, np.abs(f.values) ** q), radii[2:3]) ** (1.0 / q)
            assert amalgam_norm_r(f, q, pp, radii[2]) == lp_norm(GridFunction(g, u[0]), pp)


def test_stack_across_inverse_chunks_equals_one_chunk(monkeypatch):
    g, fam, _ = _setup(0.5, False)
    rows = np.stack([f.values for f in fam])
    radii = np.linspace(0.25, 8.0, 50)
    count = rows.shape[0] * radii.size
    # the rows of one function straddle a chunk boundary
    step = transform._CHUNK_ELEMENTS // g.node_count
    assert step < count and step % radii.size
    chunked = _ball_convolution_stack(g, rows, radii)
    monkeypatch.setattr(transform, "_CHUNK_ELEMENTS", count * g.node_count)
    assert np.array_equal(chunked, _ball_convolution_stack(g, rows, radii))


def test_stack_checks_its_input_before_any_transform(monkeypatch):
    g, fam, radii = _setup(0.5, False, n=256)
    rows = np.stack([f.values for f in fam])
    monkeypatch.setattr(translation, "forward_pair", _refuse_forward)
    bad = (
        (np.empty((0, g.node_count)), radii, "non-empty"),
        (rows[0], radii, "non-empty"),
        (rows * (1.0 + 1.0j), radii, "real"),
        (rows[:, :-2], radii, "grid nodes"),
        (rows, [], "no radii"),
        (rows, [1.0, -1.0], "radius"),
        (rows, [float("nan")], "radius"),
        (rows, [1.0, float("inf")], "radius"),
    )
    for stack, rr, msg in bad:
        with pytest.raises(ValueError, match=msg):
            _ball_convolution_stack(g, stack, rr)


@pytest.mark.parametrize("kappa,classical", KAPPAS)
def test_interval_stack_rows_equal_one_function_norms(kappa, classical):
    # every row of the interval stack is the one-function norm to the bit,
    # for both center weights and across the exponents that take separate
    # routes (q = 1, finite q, q = inf; finite p, p = inf)
    g, fam, radii = _setup(kappa, classical)
    stack = _IntervalProfileStack(WindowGeometry.interval(g), np.stack([f.values for f in fam]), radii)
    for q, pp, alpha in ((1.0, 2.0, 1.0), (1.0, INF, 2.0), (2.0, 8.0, 4.0), (2.0, INF, 4.0), (INF, INF, INF)):
        spec = NormSpec(q, pp, alpha, radii)
        assert stack.fofana(spec) == [interval_fofana_norm(f, spec) for f in fam]
        assert stack.fofana(spec, ball_scaled=True) == [
            ball_scaled_interval_fofana_norm(f, spec) for f in fam
        ]
        r = radii[3]
        assert stack.amalgam(q, pp, r) == [interval_amalgam_norm_r(f, q, pp, r) for f in fam]


@pytest.mark.parametrize("kappa,classical", KAPPAS)
def test_interval_window_geometry_matches_fresh_window_masses(kappa, classical, monkeypatch):
    # one window geometry per radius serves the whole stack at every finite
    # q and its center weights, with the bits of a fresh window mass per
    # function and radius and of interval_measure; the windows of the edge
    # nodes cross -L and L, and rho = 2L crosses both
    g, fam, radii = _setup(kappa, classical)
    x = g.nodes
    assert x[-1] + radii[0] > g.half_width
    ends = []
    window_end = _windows._window_end

    def counted(*args):
        ends.append(1)
        return window_end(*args)

    monkeypatch.setattr(_windows, "_window_end", counted)
    stack = _IntervalProfileStack(WindowGeometry.interval(g), np.stack([f.values for f in fam]), radii)
    profiles = {q: stack.at(q, radii) for q in (1.0, 1.5, 2.0)}
    stack.fofana(NormSpec(2.0, 8.0, 4.0, radii), ball_scaled=True)
    assert len(ends) == 2 * len(radii)
    monkeypatch.undo()
    for q, stacked in profiles.items():
        for f, got in zip(fam, stacked):
            mass = LineWindowMass.line(g, np.abs(f.values) ** q)
            for r, u in zip(radii, got):
                np.testing.assert_array_equal(u, mass.window(x - r, x + r) ** (1.0 / q))
    for r in radii:
        np.testing.assert_array_equal(stack.windows.measure(r), interval_measure(g.params, x, r))
    rhos = (*radii, 2.0 * g.half_width)
    stacked = _window_maximal(stack.windows, stack.rows, rhos)
    for f, got in zip(fam, stacked):
        mass = LineWindowMass.line(g, np.abs(f.values))
        best = np.zeros(g.node_count)
        for rho in rhos:
            avg = mass.window(x - rho, x + rho) / interval_measure(g.params, x, rho)
            np.maximum(best, avg, out=best)
        np.testing.assert_array_equal(got, best)
        np.testing.assert_array_equal(interval_maximal(f, rhos).values, best)


@pytest.mark.parametrize("kappa,classical", KAPPAS)
def test_annulus_window_maximal_matches_fresh_window_masses(kappa, classical):
    # the annulus twin: the stacked centered maximal functions have the bits
    # of a fresh folded window mass per function over ball_measure, and of
    # the one-row calls; the windows of the inner nodes are cut at 0, those
    # of the edge nodes cross L, and rho = 2L crosses L everywhere
    g, fam, radii = _setup(kappa, classical)
    s = g.positive_nodes
    rhos = (*radii, 2.0 * g.half_width)
    stacked = _window_maximal(WindowGeometry.annulus(g), np.stack([f.values for f in fam]), rhos)
    for f, got in zip(fam, stacked):
        mass = LineWindowMass.folded(g, np.abs(f.values))
        best = np.zeros(s.size)
        for rho in rhos:
            avg = mass.window(np.maximum(0.0, s - rho), s + rho) / ball_measure(g.params, s, rho)
            np.maximum(best, avg, out=best)
        np.testing.assert_array_equal(got, np.concatenate([best[::-1], best]))
        np.testing.assert_array_equal(centered_maximal(f, rhos).values, got)

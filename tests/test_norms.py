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
    fofana_norm,
    interval_amalgam_norm_r,
    interval_fofana_norm,
    lp_norm,
    make_grid,
    sample_family,
    weak_fofana_norm,
    weak_l1_norm,
)
from dunkl.measure import ball_measure_origin, interval_measure
from dunkl import norms
from dunkl._windows import LineWindowMass, WindowGeometry, _range_max
from dunkl.norms import _interval_profiles, _IntervalProfileStack
from dunkl import translation
from dunkl.transform import band_grid, inverse_rows, multiplier_pair
from dunkl.translation import _INDICATOR_BAND, ball_multiplier, translate_indicator_rows

INF = math.inf


def _support_windows(rows, weights, nodes, ys, r):
    """Column windows of dense rows supported on the annuli
    {max(0,|y|-r) < |x| < |y|+r}: the two intervals (-hi,-lo) and (lo,hi),
    each widened by one node and cut to the grid.  Returns the column
    indices of the negative then the positive window, padded to a common
    width, and the rows and the weights gathered on them, both zero on the
    padding: the windows the workspace gathers chunk by chunk."""
    n = nodes.size
    lo = np.maximum(0.0, np.abs(ys) - r)
    hi = np.abs(ys) + r
    a = np.maximum(np.searchsorted(nodes, -hi, side="right") - 1, 0)
    b = np.searchsorted(nodes, -lo, side="left") + 1
    c = np.maximum(np.searchsorted(nodes, lo, side="right") - 1, b)
    d = np.minimum(np.searchsorted(nodes, hi, side="left") + 1, n)
    width = int(max(np.max(b - a), np.max(d - c), 1))
    offs = np.arange(width)
    idx = np.concatenate(
        [np.clip(a[:, None] + offs, 0, n - 1), np.clip(c[:, None] + offs, 0, n - 1)], axis=1
    )
    pad = ~np.concatenate([offs < (b - a)[:, None], offs < (d - c)[:, None]], axis=1)
    wrows = np.take_along_axis(rows, idx, axis=1)
    wrows[pad] = 0.0
    wweights = weights[idx]
    wweights[pad] = 0.0
    return idx, wrows, wweights


def _whole_block_indicator_rows(p, ys, r, g):
    """Translated indicators as one chunked inverse of the whole stack,
    clamped and masked over the full block afterwards."""
    lg = band_grid(g, _INDICATOR_BAND)
    m = ball_multiplier(p, lg, r)
    raw = inverse_rows(p, lg, g, ys.size, lambda s: [m * c for c in multiplier_pair(p, lg, ys[s])])
    np.clip(raw, 0.0, 1.0, out=raw)
    absx = np.abs(g.nodes)
    raw[(absx <= np.maximum(0.0, np.abs(ys) - r)[:, None]) | (absx >= (np.abs(ys) + r)[:, None])] = 0.0
    return raw


@pytest.fixture(scope="module")
def setup():
    p = DunklParams(0.0)
    g = make_grid(p, 16.0, 2048)
    return p, g


def test_lp_norm_examples(setup):
    p, g = setup
    small = make_grid(p, 1.0, 512)
    one = GridFunction(small, np.ones(512))
    assert lp_norm(one, 2.0) == pytest.approx(math.sqrt(0.5), abs=1e-6)
    assert lp_norm(GridFunction(g, np.zeros(2048)), 3.0) == 0.0
    chi = sample_family("indicator_ball", [1.0], make_grid(p, 4.0, 1024))
    assert lp_norm(chi, 1.0) == pytest.approx(0.5, abs=1e-2)
    with pytest.raises(ValueError):
        lp_norm(chi, 0.5)


def test_weak_norm_exact_for_indicators(setup):
    p, g = setup
    chi = sample_family("indicator_ball", [1.0], g)
    assert weak_l1_norm(chi) == pytest.approx(0.5, abs=1e-2)
    assert weak_l1_norm(2.0 * chi) == pytest.approx(1.0, abs=2e-2)
    assert weak_l1_norm(GridFunction(g, np.zeros(2048))) == 0.0
    # dominated by the L1 norm
    f = sample_family("trig_gauss", [5], g)
    assert weak_l1_norm(f) <= lp_norm(f, 1.0) * (1 + 1e-12)


def test_amalgam_constant_function(setup):
    p, g = setup
    one = GridFunction(g, np.ones(2048))
    assert amalgam_norm_r(one, 2.0, INF, 1.0) == pytest.approx(math.sqrt(0.5), abs=1e-2)
    zero = GridFunction(g, np.zeros(2048))
    assert amalgam_norm_r(zero, 2.0, 4.0, 1.0) == 0.0


def test_amalgam_equal_exponents_mass_identity(setup):
    p, g = setup
    f = sample_family("gaussian", [0.5], g)
    for q, r in ((2.0, 1.0), (1.0, 0.5)):
        val = amalgam_norm_r(f, q, q, r)
        oracle = ball_measure_origin(p, r) ** (1.0 / q) * lp_norm(f, q)
        assert val == pytest.approx(oracle, rel=0.02)


def test_amalgam_linf_identity(setup):
    p, g = setup
    for name, ps in (("gaussian", [0.5]), ("trig_gauss", [2]), ("indicator_ball", [1.0])):
        f = sample_family(name, ps, g)
        assert amalgam_norm_r(f, INF, INF, 1.0) == pytest.approx(
            lp_norm(f, INF), rel=1e-6
        )


def test_amalgam_window_radius_validation(setup):
    p, g = setup
    f = sample_family("gaussian", [0.5], g)
    for norm in (amalgam_norm_r, interval_amalgam_norm_r):
        with pytest.raises(ValueError, match="window radius"):
            norm(f, 2.0, 4.0, 9.0)
        with pytest.raises(ValueError, match="q must lie"):
            norm(f, 0.9, 4.0, 9.0)
    spec = NormSpec(2.0, 8.0, 4.0, (1.0, 9.0))
    for norm in (fofana_norm, interval_fofana_norm, ball_scaled_interval_fofana_norm):
        with pytest.raises(ValueError, match="window radius"):
            norm(f, spec)


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec(4.0, 8.0, 2.0, (1.0,))  # q > alpha
    with pytest.raises(ValueError):
        NormSpec(1.0, 2.0, 4.0, (1.0,))  # alpha > p
    with pytest.raises(ValueError):
        NormSpec(1.0, 4.0, 2.0, ())
    with pytest.raises(ValueError):
        NormSpec(1.0, 4.0, 2.0, (2.0, 1.0))
    spec = NormSpec(1, INF, 2, (0.5, 1.0))
    assert spec.q == 1.0 and spec.p == INF


def test_default_radius_grid_properties(setup):
    p, g = setup
    rg = default_radius_grid(g)
    assert rg[0] >= 8.0 * g.spacing
    assert rg[-1] == pytest.approx(8.0)
    assert all(b > a for a, b in zip(rg, rg[1:]))


def test_fofana_reduces_to_lebesgue_at_equal_exponents(setup):
    p, g = setup
    f = sample_family("gaussian", [0.5], g)
    spec = NormSpec(2.0, 2.0, 2.0, default_radius_grid(g))
    assert fofana_norm(f, spec) == pytest.approx(lp_norm(f, 2.0), rel=0.02)


def test_fofana_zero(setup):
    p, g = setup
    spec = NormSpec(2.0, 8.0, 4.0, default_radius_grid(g))
    assert fofana_norm(GridFunction(g, np.zeros(2048)), spec) == 0.0


def test_fofana_classical_indicator_against_direct_shift_windows():
    # at the classical parameter the translated window is a sharp shift, so
    # the windowed content can be computed by direct interval sums
    p = DunklParams(-0.5, classical=True)
    g = make_grid(p, 16.0, 2048)
    f = sample_family("indicator_ball", [1.0], g)
    rg = default_radius_grid(g)
    spec = NormSpec(1.0, INF, 2.0, rg)
    val = fofana_norm(f, spec)
    direct = 0.0
    for r, local in zip(rg, _interval_profiles(WindowGeometry.interval(g), f.values[None, :], 1.0, rg)[0]):
        direct = max(
            direct,
            ball_measure_origin(p, r) ** (0.5 - 1.0) * float(np.max(local)),
        )
    assert val == pytest.approx(direct, rel=0.01)


def test_weak_fofana_dominated_by_strong(setup):
    p, g = setup
    rg = default_radius_grid(g, ratio=2.0)
    for name, ps in (("gaussian", [0.5]), ("indicator_ball", [1.0])):
        f = sample_family(name, ps, g)
        w = weak_fofana_norm(f, 8.0, 4.0, rg)
        strong = fofana_norm(f, NormSpec(1.0, 8.0, 4.0, rg))
        assert w <= strong * 1.02
        assert w > 0.0


def test_weak_fofana_exponent_validation(setup):
    p, g = setup
    f = sample_family("gaussian", [0.5], g)
    with pytest.raises(ValueError):
        weak_fofana_norm(f, 2.0, 4.0, (1.0,))  # alpha > p


def test_interval_amalgam_window_at_origin(setup):
    p, g = setup
    one = GridFunction(g, np.ones(2048))
    # the window content at the origin center equals mu(I(0,1))
    local = _interval_profiles(WindowGeometry.interval(g), one.values[None, :], 1.0, [1.0])[0, 0]
    i0 = int(np.argmin(np.abs(g.nodes)))
    assert local[i0] == pytest.approx(0.5, abs=1e-2)
    assert interval_amalgam_norm_r(GridFunction(g, np.zeros(2048)), 1.0, INF, 1.0) == 0.0


def test_interval_fofana_close_to_translation_fofana_for_gaussian(setup):
    p, g = setup
    f = sample_family("gaussian", [0.5], g)
    spec = NormSpec(2.0, 8.0, 4.0, default_radius_grid(g))
    iv = interval_fofana_norm(f, spec)
    tv = fofana_norm(f, spec)
    # comparable scales; the strict one-sided domination fails off the
    # classical parameter (window measures differ off the origin)
    assert 0.3 * tv < iv < 3.0 * tv


def test_interval_fofana_classical_dominated(setup):
    pc = DunklParams(-0.5, classical=True)
    gc = make_grid(pc, 16.0, 1024)
    spec = NormSpec(2.0, 8.0, 4.0, default_radius_grid(gc))
    for name, ps in (("gaussian", [0.5]), ("bump", [0.0, 2.0]), ("trig_gauss", [1],)):
        f = sample_family(name, ps, gc)
        assert interval_fofana_norm(f, spec) <= fofana_norm(f, spec) * 1.02


_INTERVAL_FAMILY = (("gaussian", [0.5]), ("bump", [0.0, 2.0]), ("trig_gauss", [1]), ("power_tail", [6.0, 1.0]))


def _interval_specs(g, exponents):
    rg = default_radius_grid(g)
    return [NormSpec(q, pp, alpha, rg) for (q, pp, alpha) in exponents]


def test_ball_scaled_interval_fofana_matches_interval_norm_at_classical_parameter():
    # the origin ball and every interval of radius r have measure 2r here
    pc = DunklParams(-0.5, classical=True)
    gc = make_grid(pc, 16.0, 1024)
    for spec in _interval_specs(gc, ((2.0, 8.0, 4.0), (1.5, 6.0, 2.0), (2.0, INF, 4.0))):
        for name, ps in _INTERVAL_FAMILY:
            f = sample_family(name, ps, gc)
            assert ball_scaled_interval_fofana_norm(f, spec) == pytest.approx(
                interval_fofana_norm(f, spec), rel=1e-12
            )


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.5])
def test_ball_scaled_interval_fofana_dominated_by_interval_norm(kappa):
    # mu(I(y,r)) >= mu(B_r), and the rescaling exponent 1/alpha - 1/p is
    # positive for alpha < p
    g = make_grid(DunklParams(kappa), 16.0, 1024)
    strict = False
    for spec in _interval_specs(g, ((2.0, 8.0, 4.0), (1.5, 6.0, 2.0), (2.0, INF, 4.0))):
        for name, ps in _INTERVAL_FAMILY:
            f = sample_family(name, ps, g)
            scaled = ball_scaled_interval_fofana_norm(f, spec)
            iv = interval_fofana_norm(f, spec)
            assert scaled <= iv * (1.0 + 1e-12)
            strict = strict or scaled < iv * (1.0 - 1e-3)
    assert strict


@pytest.mark.parametrize("kappa", [0.0, 1.5])
def test_ball_scaled_interval_fofana_equals_interval_norm_when_alpha_eq_p(kappa):
    g = make_grid(DunklParams(kappa), 16.0, 1024)
    for spec in _interval_specs(g, ((2.0, 4.0, 4.0), (1.0, INF, INF))):
        for name, ps in _INTERVAL_FAMILY:
            f = sample_family(name, ps, g)
            assert ball_scaled_interval_fofana_norm(f, spec) == interval_fofana_norm(f, spec)


def test_norm_axioms_amalgam(setup):
    p, g = setup
    f = sample_family("gaussian", [0.5], g)
    h = sample_family("bump", [0.0, 2.0], g)
    nf = amalgam_norm_r(f, 2.0, 4.0, 1.0)
    nh = amalgam_norm_r(h, 2.0, 4.0, 1.0)
    assert amalgam_norm_r(-2.5 * f, 2.0, 4.0, 1.0) == pytest.approx(2.5 * nf, rel=1e-10)
    assert amalgam_norm_r(f + h, 2.0, 4.0, 1.0) <= nf + nh + 1e-8 * (nf + nh)
    assert nf > 0.0


def test_weak_fofana_zero(setup):
    p, g = setup
    z = GridFunction(g, np.zeros(g.node_count))
    assert weak_fofana_norm(z, 8.0, 4.0, (1.0, 2.0)) == 0.0


def test_weak_window_statistic_bounded_by_window_mass(setup):
    # the per-center weak statistic of an indicator is at most its mass
    p, g = setup
    chi = sample_family("indicator_ball", [1.0], g)
    from dunkl import translate_indicator

    mu1 = ball_measure_origin(p, 1.0)
    for y in (0.5, 2.0, 5.0):
        w = weak_l1_norm(chi * translate_indicator(p, -y, 4.0, g))
        assert w <= mu1 * (1.0 + 1e-6)


@pytest.mark.parametrize("r", [0.7, 3.0])
def test_windowed_weak_rows_chunking_is_exact(r, monkeypatch):
    # row chunks reproduce the one-chunk statistic exactly, and every row
    # reproduces the dense row-wise reference, also where the two support
    # windows meet (|y| < r)
    for kappa in (-0.5, 0.5):
        p = DunklParams(kappa, classical=(kappa == -0.5))
        g = make_grid(p, 8.0, 512)
        f = sample_family("gaussian", [0.6], g)
        ys = g.nodes[g.node_count // 2 :: 5]
        assert ys.size > 2 * norms._WEAK_CHUNK_ROWS
        assert np.any(ys < r)
        rows = translate_indicator_rows(p, -ys, r, g)
        windows = _support_windows(rows, g.weights, g.nodes, ys, r)
        absf = np.abs(f.values)
        got = norms._weak_window_rows(absf, *windows)
        with monkeypatch.context() as m:
            m.setattr(norms, "_WEAK_CHUNK_ROWS", ys.size)
            whole = norms._weak_window_rows(absf, *windows)
        np.testing.assert_array_equal(got, whole)
        np.testing.assert_array_equal(got, norms._weak_rows(rows, f.values, g.weights))


@pytest.mark.parametrize("r", [0.7, 3.0])
def test_support_windows_take_each_column_once(r):
    # the windows cover the support of every row, and no column twice (the
    # central nodes +-dx/2 when |y| < r, the end nodes when |y| + r > L)
    p = DunklParams(0.5)
    g = make_grid(p, 8.0, 512)
    ys = g.nodes[g.node_count // 2 :: 5]
    assert np.any(ys < r) and np.any(ys + r > g.half_width)
    rows = translate_indicator_rows(p, -ys, r, g)
    idx, wrows, wweights = _support_windows(rows, g.weights, g.nodes, ys, r)
    for i in range(ys.size):
        cols = idx[i][wweights[i] > 0.0]
        assert np.all(np.diff(cols) > 0)
        outside = np.ones(g.node_count, dtype=bool)
        outside[cols] = False
        assert not np.any(rows[i, outside])


@pytest.mark.parametrize("name, ps", [("gaussian", [0.6]), ("trig_gauss", [1.0])])
def test_weak_workspace_statistics_match_dense_rows(name, ps):
    # gaussian is mirror-symmetric (the mirrored statistics are reused),
    # trig_gauss is not; both match the dense reference at every center
    p = DunklParams(0.5)
    g = make_grid(p, 8.0, 512)
    f = sample_family(name, ps, g)
    absf = np.abs(f.values)
    symmetric = np.array_equal(absf, absf[::-1])
    assert symmetric == (name == "gaussian")
    ws = norms.WeakWindowWorkspace(g, default_radius_grid(g, ratio=2.0), y_stride=3)
    for r, (w_pos, w_neg) in zip(ws.radii, ws._statistics(absf)):
        rows = translate_indicator_rows(p, -ws.ypos, r, g)
        np.testing.assert_array_equal(w_pos, norms._weak_rows(rows, f.values, g.weights))
        np.testing.assert_array_equal(w_neg, norms._weak_rows(rows, f.values[::-1], g.weights))
        assert (w_neg is w_pos) == symmetric


@pytest.mark.parametrize("n, stride", [(512, None), (2048, 3)])
@pytest.mark.parametrize("kappa", [-0.5, 0.0, 0.5, 1.5, 0.3])
def test_weak_workspace_windows_equal_dense_row_windows(kappa, n, stride):
    # the windows gathered chunk by chunk, every radius sharing the chunk's
    # multipliers, are the windows of the dense rows, and those rows are the
    # rows of one chunked inverse of the whole stack, to the bit; N = 512
    # takes its 256 centers in one chunk, and stride 3 at N = 2048 gives
    # 341 centers, two chunks of 128 and a short one
    p = DunklParams(kappa, classical=(kappa == -0.5))
    g = make_grid(p, 8.0, n)
    ws = norms.WeakWindowWorkspace(g, default_radius_grid(g, ratio=2.0), stride)
    assert ws.ypos.size == (256 if stride is None else 341)
    for r in ws.radii:
        rows = translate_indicator_rows(p, -ws.ypos, r, g)
        np.testing.assert_array_equal(rows, _whole_block_indicator_rows(p, -ws.ypos, r, g))
        for got, want in zip(ws.windows[r], _support_windows(rows, g.weights, g.nodes, ws.ypos, r)):
            np.testing.assert_array_equal(got, want)


def test_weak_workspace_evaluates_multipliers_once_per_center_chunk(monkeypatch):
    # one multiplier evaluation per chunk of centers serves every radius
    calls = []

    def counted(params, lg, ys):
        calls.append(len(ys))
        return multiplier_pair(params, lg, ys)

    monkeypatch.setattr(translation, "multiplier_pair", counted)
    g = make_grid(DunklParams(0.5), 8.0, 2048)
    ws = norms.WeakWindowWorkspace(g, default_radius_grid(g, ratio=2.0), y_stride=3)
    assert len(ws.radii) > 1
    assert calls == [128, 128, 85]


def _dense_weak_fofana(ws, f, pp, alpha):
    # one (p, alpha) pair on the full rows, as the windowed workspace replaced
    g = ws.grid
    best = 0.0
    for r in ws.radii:
        rows = translate_indicator_rows(g.params, -ws.ypos, r, g)
        w_pos = norms._weak_rows(rows, f.values, g.weights)
        w_neg = norms._weak_rows(rows, f.values[::-1], g.weights)
        pref = ball_measure_origin(g.params, r) ** (1.0 / alpha - 1.0 - norms._inv(pp))
        if pp == INF:
            val = pref * max(float(np.max(w_pos)), float(np.max(w_neg)))
        else:
            val = pref * float(
                (np.sum(ws.wdec * w_pos**pp) + np.sum(ws.wdec * w_neg**pp)) ** (1.0 / pp)
            )
        best = max(best, val)
    return best


def test_weak_fofana_pairs_match_single_pair_norms():
    # one call over several (p, alpha) pairs gives the single-pair values and
    # the per-pair evaluation on full rows, to the bit
    g = make_grid(DunklParams(0.5), 8.0, 512)
    rg = default_radius_grid(g, ratio=2.0)
    ws = norms.WeakWindowWorkspace(g, rg)
    pairs = [(8.0, 4.0), (INF, 2.0)]
    for name, ps in (("gaussian", [0.6]), ("trig_gauss", [1.0])):
        f = sample_family(name, ps, g)
        got = ws.weak_fofana(f, pairs)
        assert got == [weak_fofana_norm(f, pp, a, rg) for pp, a in pairs]
        assert got == [_dense_weak_fofana(ws, f, pp, a) for pp, a in pairs]
    with pytest.raises(ValueError):
        ws.weak_fofana(f, [(8.0, 4.0), (2.0, 4.0)])  # alpha > p in the second pair


def test_weak_workspace_keeps_windows_not_full_rows():
    g = make_grid(DunklParams(0.5), 8.0, 512)
    ws = norms.WeakWindowWorkspace(g, (0.5, 1.0))
    arrays = [a for w in ws.windows.values() for a in w]
    arrays += [v for v in vars(ws).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 3 * len(ws.radii) + 2
    # two windows of at most 2r / dx + 2 = 66 nodes each, never a full row
    assert all(a.shape[-1] <= 132 for a in arrays if a.ndim == 2)


def _per_radius_interval_fofana(f, spec, ball_scaled):
    """The interval Fofana loop with a fresh window mass (or, at q = inf,
    the per-node loop) for every radius."""
    g, x, q = f.grid, f.grid.nodes, spec.q
    theta = norms._scale_exponent(spec)
    e = norms._inv(spec.alpha) - norms._inv(spec.p)
    best = 0.0
    for r in spec.r_grid:
        if q == INF:
            local = _loop_interval_max(f, r)
        else:
            mass = LineWindowMass.line(g, np.abs(f.values) ** q)
            local = mass.window(x - r, x + r) ** (1.0 / q)
        mu_i = interval_measure(g.params, x, r)
        w = mu_i**theta
        if ball_scaled:
            w = w * (ball_measure_origin(g.params, r) / mu_i) ** e
        best = max(best, lp_norm(GridFunction(g, w * local), spec.p))
    return best


def test_interval_fofana_builds_one_window_mass_per_function(monkeypatch):
    # the interval stack builds the window mass of |f|^q once per function
    # and q for all radii and both center weights, with the bits of one
    # build per radius
    g = make_grid(DunklParams(0.5), 16.0, 1024)
    fam = [sample_family(name, ps, g) for name, ps in _INTERVAL_FAMILY]
    builds = []
    init = LineWindowMass.__init__

    def counted(self, *args):
        builds.append(1)
        init(self, *args)

    for spec in _interval_specs(g, ((1.0, 2.0, 1.0), (2.0, 8.0, 4.0), (INF, INF, INF))):
        want = [[_per_radius_interval_fofana(f, spec, scaled) for f in fam] for scaled in (False, True)]
        stack = _IntervalProfileStack(WindowGeometry.interval(g), np.stack([f.values for f in fam]), spec.r_grid)
        monkeypatch.setattr(LineWindowMass, "__init__", counted)
        builds.clear()
        assert [stack.fofana(spec), stack.fofana(spec, ball_scaled=True)] == want
        assert len(builds) == (0 if spec.q == INF else len(fam))
        monkeypatch.setattr(LineWindowMass, "__init__", init)


def _loop_range_max(vals, lo, hi):
    """The per-node loop the sparse-table range maximum replaced."""
    out = np.empty(lo.size)
    for k in range(lo.size):
        out[k] = vals[lo[k] : hi[k]].max() if hi[k] > lo[k] else 0.0
    return out


def _loop_annulus_max(f, r):
    half = f.grid.node_count // 2
    s = f.grid.positive_nodes
    a = np.abs(f.values)
    g = np.maximum(a[half:], a[half - 1 :: -1])
    lo = np.searchsorted(s, np.maximum(0.0, s - r), side="right")
    hi = np.searchsorted(s, s + r, side="left")
    upos = _loop_range_max(g, lo, hi)
    return np.concatenate([upos[::-1], upos])


def _loop_interval_max(f, r):
    x = f.grid.nodes
    lo = np.searchsorted(x, x - r, side="right")
    hi = np.searchsorted(x, x + r, side="left")
    return _loop_range_max(np.abs(f.values), lo, hi)


@pytest.mark.parametrize("n", [256, 4096])
@pytest.mark.parametrize("kappa", [-0.5, 0.0, 0.5, 1.5])
def test_range_max_matches_per_node_loops(kappa, n):
    # radii from the default grids (both ratios), plus windows clipped at 0
    # (r = 1, 8) and windows clipped at both domain ends (r = 100 > L)
    g = make_grid(DunklParams(kappa, classical=(kappa == -0.5)), 16.0, n)
    f = sample_family("trig_gauss", [1.0], g)
    radii = default_radius_grid(g) + default_radius_grid(g, ratio=2.0) + (1.0, 8.0, 100.0)
    balls = norms._amalgam_profiles(g, f.values[None, :], INF, radii)[0]
    intervals = _interval_profiles(WindowGeometry.interval(g), f.values[None, :], INF, radii)[0]
    for r, u, v in zip(radii, balls, intervals):
        assert np.array_equal(u, _loop_annulus_max(f, r))
        assert np.array_equal(v, _loop_interval_max(f, r))


def test_range_max_arbitrary_and_empty_windows():
    rng = np.random.default_rng(7)
    vals = rng.random(1000)
    lo = rng.integers(0, 1000, 5000)
    hi = np.minimum(lo + rng.integers(0, 300, 5000), 1000)
    hi[:50] = 1000  # windows reaching the end
    lo[50:100] = 0  # windows starting at 0
    hi[::7] = lo[::7]  # empty windows
    got, empty, none = _range_max(vals, [(lo, hi), (lo, lo), (lo[:0], hi[:0])])
    assert np.array_equal(got, _loop_range_max(vals, lo, hi))
    assert np.all(got[::7] == 0.0)
    # all windows empty, and no windows at all
    assert np.array_equal(empty, np.zeros(lo.size))
    assert none.size == 0
    # one table serves every range: the same answers one range at a time
    assert np.array_equal(_range_max(vals, [(lo, hi)])[0], got)


@pytest.mark.parametrize("kappa", [-0.5, 0.5])
def test_window_maxima_match_brute_force_windows(kappa):
    # each window maximum is the maximum of |f| over the nodes strictly
    # inside the window, found by a mask per window; at r = 1e-20 both ends
    # round onto the center node, so every window is empty (0.0), and r = 3
    # and r = 100 clip the windows at -L and L
    g = make_grid(DunklParams(kappa, classical=(kappa == -0.5)), 16.0, 256)
    x = g.nodes
    a = np.abs([sample_family(name, ps, g).values for name, ps in _INTERVAL_FAMILY])
    radii = (1e-20, 0.3, 3.0, 100.0)
    inside = {
        "interval": lambda x0, r: (x > x0 - r) & (x < x0 + r),
        "annulus": lambda x0, r: (np.abs(x) > max(0.0, abs(x0) - r)) & (np.abs(x) < abs(x0) + r),
    }
    for kind, window in inside.items():
        windows = getattr(WindowGeometry, kind)(g)
        got = windows.unfold(windows.maxima(a, radii))
        for v, u in zip(a, got):
            for r, ur in zip(radii, u):
                want = [v[window(x0, r)].max(initial=0.0) for x0 in x]
                assert np.array_equal(ur.view(np.uint64), np.array(want).view(np.uint64))
        assert not np.any(got[:, 0])


@pytest.mark.parametrize("stride", [-1, -3, 0, 2.5])
def test_weak_fofana_rejects_bad_y_stride(stride):
    g = make_grid(DunklParams(0.5), 8.0, 512)
    f = sample_family("gaussian", [0.6], g)
    rg = default_radius_grid(g)
    with pytest.raises(ValueError, match=f"got {stride!r}$"):
        weak_fofana_norm(f, 8.0, 4.0, rg, stride)
    with pytest.raises(ValueError, match="y_stride"):
        norms.WeakWindowWorkspace(g, rg, stride)


def test_weak_fofana_rejects_stride_without_centers():
    # a stride of N or more leaves no decimated center; N - 1 keeps one
    g = make_grid(DunklParams(0.5), 8.0, 512)
    f = sample_family("gaussian", [0.6], g)
    rg = default_radius_grid(g)
    for stride in (512, 1000, 100000):
        with pytest.raises(ValueError, match="largest valid stride is 511$"):
            weak_fofana_norm(f, 8.0, 4.0, rg, stride)
    ws = norms.WeakWindowWorkspace(g, rg, 511)
    assert ws.ypos.size == 1

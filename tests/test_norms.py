import math
import threading
import time

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
from dunkl import _threads, norms
from dunkl._windows import WindowGeometry, _range_max
from dunkl.norms import _ProfileStack, _profiles
from dunkl import translation
from dunkl.translation import TranslatedBalls, translate_indicator_rows
from dunkl.verify import DEFAULT_FAMILY

INF = math.inf


def _weak_rows(rows: np.ndarray, fvals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise weak-L1 norms of f * row on dense rows: the oracle of the
    windowed weak statistics."""
    g = np.abs(fvals)[None, :] * rows
    order = np.argsort(-g, axis=1, kind="stable")
    gs = np.take_along_axis(g, order, axis=1)
    cw = np.cumsum(weights[order], axis=1)
    return np.max(gs * cw, axis=1)


def _assert_windows_hold_support(ws, r, rows):
    """The workspace windows at radius r against the dense rows of its
    centers: the entries of positive weight are the annulus columns
    {max(0,|y|-r) < |x| < |y|+r}, ascending and so each once, holding the
    row value and the weight of their own column; every nonzero row entry
    lies among them; the padding (weight 0) has row value 0."""
    g = ws.grid
    assert np.all(g.weights > 0.0)
    absx = np.abs(g.nodes)
    idx, wrows, wweights = ws.windows[r]
    for i, y in enumerate(ws.ypos):
        kept = wweights[i] > 0.0
        cols = idx[i][kept]
        annulus = np.flatnonzero((absx > max(0.0, y - r)) & (absx < y + r))
        np.testing.assert_array_equal(cols, annulus)
        np.testing.assert_array_equal(wrows[i][kept], rows[i, cols])
        np.testing.assert_array_equal(wweights[i][kept], g.weights[cols])
        outside = np.ones(g.node_count, dtype=bool)
        outside[cols] = False
        assert not np.any(rows[i, outside])
        assert not np.any(wrows[i][~kept])


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


def test_window_radius_of_zero_ball_measure_is_rejected():
    # at kappa 140 the origin ball of radius 0.5 has measure 0.0 in floating
    # point, so its Fofana scale 0.0 ** theta (theta < 0) would divide by 0
    p = DunklParams(140.0)
    g = make_grid(p, 1.0, 64)
    assert ball_measure_origin(p, 0.5) == 0.0
    f = sample_family("gaussian", [1.0], g)
    with pytest.raises(ValueError, match="radius 0.5 is too small"):
        fofana_norm(f, NormSpec(1.0, 2.0, 1.5, (0.5,)))


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec(4.0, 8.0, 2.0, (1.0,))  # q > alpha
    with pytest.raises(ValueError):
        NormSpec(1.0, 2.0, 4.0, (1.0,))  # alpha > p
    with pytest.raises(ValueError):
        NormSpec(1.0, 4.0, 2.0, ())
    with pytest.raises(ValueError):
        NormSpec(1.0, 4.0, 2.0, (2.0, 1.0))
    for r_grid in ((1.0, float("nan")), (INF,), (1.0, INF)):
        with pytest.raises(ValueError, match=r"^r_grid must be finite"):
            NormSpec(1.0, 4.0, 2.0, r_grid)
    spec = NormSpec(1, INF, 2, (0.5, 1.0))
    assert spec.q == 1.0 and spec.p == INF


def test_default_radius_grid_properties(setup):
    p, g = setup
    rg = default_radius_grid(g)
    assert rg[0] >= 8.0 * g.spacing
    assert rg[-1] == pytest.approx(8.0)
    assert all(b > a for a, b in zip(rg, rg[1:]))


@pytest.mark.parametrize("ratio", [1.0, 0.5, 0.0, -2.0, math.inf, math.nan])
def test_default_radius_grid_rejects_a_ratio_that_does_not_grow(ratio):
    g = make_grid(DunklParams(0.5), 8.0, 256)
    with pytest.raises(ValueError, match=f"ratio must be finite and > 1, got {ratio}$"):
        default_radius_grid(g, ratio)


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
    for r, local in zip(rg, _profiles(WindowGeometry.interval(g), f.values[None, :], 1.0, rg)[0]):
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
    local = _profiles(WindowGeometry.interval(g), one.values[None, :], 1.0, [1.0])[0, 0]
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


def test_weak_fofana_rejects_an_empty_radius_grid(setup):
    # the message of NormSpec, which rejects an empty r_grid of every other norm
    p, g = setup
    f = sample_family("gaussian", [0.6], g)
    for call in (
        lambda: NormSpec(2.0, 8.0, 4.0, []),
        lambda: weak_fofana_norm(f, 8.0, 4.0, []),
        lambda: norms.WeakWindowWorkspace(g, ()),
    ):
        with pytest.raises(ValueError, match="^r_grid must be non-empty$"):
            call()


def test_weak_window_statistic_bounded_by_window_mass(setup):
    # the per-center weak statistic of an indicator is at most its mass
    p, g = setup
    chi = sample_family("indicator_ball", [1.0], g)
    from dunkl import translate_indicator

    mu1 = ball_measure_origin(p, 1.0)
    for y in (0.5, 2.0, 5.0):
        w = weak_l1_norm(chi * translate_indicator(p, -y, 4.0, g))
        assert w <= mu1 * (1.0 + 1e-6)


@pytest.mark.parametrize("n", [256, 2048, 4096])
@pytest.mark.parametrize("kappa", [-0.5, 0.0, 0.5, 1.5, 0.3])
def test_weak_l1_norm_is_the_one_row_windowed_statistic(kappa, n):
    # a window row over every column, with unit values and the grid
    # weights, gives the bits of weak_l1_norm
    g = make_grid(DunklParams(kappa, classical=(kappa == -0.5)), 16.0, n)
    fs = [c * sample_family(name, ps, g) for name, ps in DEFAULT_FAMILY for c in (1.0, -2.5)]
    cols, ones, weights = np.arange(n)[None], np.ones((1, n)), g.weights[None]
    for f in [*fs, GridFunction(g, np.zeros(n))]:
        row = norms._weak_window_rows(np.abs(f.values), cols, ones, weights)
        assert float(row[0]) == weak_l1_norm(f)


@pytest.mark.parametrize("r", [0.7, 3.0])
def test_windowed_weak_rows_chunking_is_exact(r, monkeypatch):
    # row chunks reproduce the one-chunk statistic exactly, and every row
    # reproduces the dense row-wise reference, also where the two support
    # windows meet (|y| < r); chunks of 15 and 24 rows end in a short chunk
    # (of 1 and 16 rows) at the 256 centers of N = 512, and each chunking
    # takes the rows rolled by its own shift, so a row it left unset cannot
    # hold its value by chance in a reused output buffer
    for kappa in (-0.5, 0.5):
        p = DunklParams(kappa, classical=(kappa == -0.5))
        g = make_grid(p, 8.0, 512)
        f = sample_family("gaussian", [0.6], g)
        ws = norms.WeakWindowWorkspace(g, (r,))
        ys = ws.ypos
        assert ys.size > 2 * norms._INDICATOR_CHUNK_ROWS
        assert np.any(ys < r)
        rows = translate_indicator_rows(p, -ys, r, g)
        absf = np.abs(f.values)
        dense = _weak_rows(rows, f.values, g.weights)
        with monkeypatch.context() as m:
            m.setattr(norms, "_INDICATOR_CHUNK_ROWS", ys.size)
            whole = norms._weak_window_rows(absf, *ws.windows[r])
        np.testing.assert_array_equal(whole, dense)
        for chunk in (norms._INDICATOR_CHUNK_ROWS, 15, 24):
            assert chunk == 16 or ys.size % chunk != 0
            rolled = [np.roll(a, chunk, axis=0) for a in ws.windows[r]]
            with monkeypatch.context() as m:
                m.setattr(norms, "_INDICATOR_CHUNK_ROWS", chunk)
                got = norms._weak_window_rows(absf, *rolled)
            np.testing.assert_array_equal(got, np.roll(whole, chunk))


@pytest.mark.parametrize("r", [0.7, 3.0])
def test_support_windows_take_each_column_once(r):
    # the windows cover the support of every row, and no column twice (the
    # central nodes +-dx/2 when |y| < r, the end nodes when |y| + r > L)
    p = DunklParams(0.5)
    g = make_grid(p, 8.0, 512)
    ws = norms.WeakWindowWorkspace(g, (r,))
    assert np.any(ws.ypos < r) and np.any(ws.ypos + r > g.half_width)
    _assert_windows_hold_support(ws, r, translate_indicator_rows(p, -ws.ypos, r, g))


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
    ws = norms.WeakWindowWorkspace(g, default_radius_grid(g, ratio=2.0))
    for r, (w_pos, w_neg) in zip(ws.radii, ws._statistics(absf)):
        rows = translate_indicator_rows(p, -ws.ypos, r, g)
        np.testing.assert_array_equal(w_pos, _weak_rows(rows, f.values, g.weights))
        np.testing.assert_array_equal(w_neg, _weak_rows(rows, f.values[::-1], g.weights))
        assert (w_neg is w_pos) == symmetric


def _weak_statistics_setup(name):
    # a workspace at N = 512 with six radii, and |f| of the named family
    g = make_grid(DunklParams(0.5), 8.0, 512)
    ws = norms.WeakWindowWorkspace(g, default_radius_grid(g, ratio=2.0))
    assert len(ws.radii) > 3
    absf = np.abs(sample_family(name, [0.6 if name == "gaussian" else 1.0], g).values)
    assert np.array_equal(absf, absf[::-1]) == (name == "gaussian")
    return ws, absf


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", ["gaussian", "trig_gauss"])
def test_threaded_weak_statistics_equal_a_serial_loop(name, threads, monkeypatch):
    # one job per radius and side (one side when |f| is mirror-symmetric),
    # largest radius first: every (w_pos, w_neg) is the bits of the serial
    # loop at its own radius and side, either thread count takes part, and
    # no thread outlives the call
    ws, absf = _weak_statistics_setup(name)
    symmetric = name == "gaussian"
    rows = norms._weak_window_rows
    serial = [(rows(absf, *ws.windows[r]), rows(absf[::-1], *ws.windows[r])) for r in ws.radii]
    idents, widths = set(), []

    def timed(*args):
        idents.add(threading.get_ident())
        widths.append(args[1].shape[1])
        time.sleep(0.002)  # lets the worker take jobs
        return rows(*args)

    monkeypatch.setattr(_threads, "thread_count", lambda: threads)
    monkeypatch.setattr(norms, "_weak_window_rows", timed)
    before = threading.active_count()
    stats = ws._statistics(absf)
    assert threading.active_count() == before
    assert len(stats) == len(ws.radii)
    for (w_pos, w_neg), (s_pos, s_neg) in zip(stats, serial):
        np.testing.assert_array_equal(w_pos, s_pos)
        np.testing.assert_array_equal(w_neg, s_neg)
        assert (w_neg is w_pos) == symmetric
    assert len(widths) == len(ws.radii) * (1 if symmetric else 2)
    assert len(idents) == threads
    if threads == 1:
        assert widths == sorted(widths, reverse=True)


def test_weak_statistics_of_one_job_start_no_worker(monkeypatch):
    # one radius and a mirror-symmetric |f| make one job, which the calling
    # thread runs alone
    g = make_grid(DunklParams(0.5), 8.0, 512)
    ws = norms.WeakWindowWorkspace(g, (1.0,))
    absf = np.abs(sample_family("gaussian", [0.6], g).values)
    rows = norms._weak_window_rows
    idents = []

    def recorded(*args):
        idents.append(threading.get_ident())
        return rows(*args)

    monkeypatch.setattr(_threads, "thread_count", lambda: 2)
    monkeypatch.setattr(norms, "_weak_window_rows", recorded)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t)))
    [(w_pos, w_neg)] = ws._statistics(absf)
    assert w_neg is w_pos
    assert idents == [threading.get_ident()]
    assert started == []


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_failed_weak_statistics_job_stops_both_threads(failing, error, monkeypatch):
    # one thread's first job raises while the other thread is inside its
    # own first job: that job completes, no further job starts, and the
    # exception reaches the caller of _statistics unchanged
    ws, absf = _weak_statistics_setup("trig_gauss")
    monkeypatch.setattr(_threads, "thread_count", lambda: 2)
    caller = threading.get_ident()
    inside = {"caller": threading.Event(), "worker": threading.Event()}
    raised = threading.Event()
    calls = []
    failure = error("no room for the sort")
    rows = norms._weak_window_rows

    def job(*args):
        who = "caller" if threading.get_ident() == caller else "worker"
        calls.append(who)
        inside[who].set()
        inside["worker" if who == "caller" else "caller"].wait(timeout=30)
        if who == failing:
            raised.set()
            raise failure
        raised.wait(timeout=30)
        time.sleep(0.1)  # the failing thread records its failure meanwhile
        return rows(*args)

    monkeypatch.setattr(norms, "_weak_window_rows", job)
    before = threading.active_count()
    with pytest.raises(error) as info:
        ws._statistics(absf)
    assert info.value is failure
    assert sorted(calls) == ["caller", "worker"]
    assert threading.active_count() == before


@pytest.mark.parametrize("n", [512, 1536])
@pytest.mark.parametrize("kappa", [-0.5, 0.0, 0.5, 1.5, 0.3])
def test_weak_workspace_windows_equal_dense_row_windows(kappa, n):
    # the windows, evaluated on the support columns alone, hold every
    # nonzero entry of the dense rows of translate_indicator_rows at its own
    # column, to the bit; N = 512 takes every other positive node as a
    # center, N = 1536 every third
    p = DunklParams(kappa, classical=(kappa == -0.5))
    g = make_grid(p, 8.0, n)
    ws = norms.WeakWindowWorkspace(g, default_radius_grid(g, ratio=2.0))
    assert ws.ypos.size == 256
    for r in ws.radii:
        _assert_windows_hold_support(ws, r, translate_indicator_rows(p, -ws.ypos, r, g))


def test_weak_workspace_evaluates_indicators_on_support_columns_only(monkeypatch):
    # radius by radius, in chunks of _INDICATOR_CHUNK_ROWS rows, the indicators
    # are evaluated on the window columns and nowhere else
    sizes = []

    def counted(params, x, y, r):
        sizes.append((r, x.shape))
        return translation._indicator_values(params, x, y, r)

    monkeypatch.setattr(norms, "_indicator_values", counted)
    g = make_grid(DunklParams(0.5), 8.0, 1536)
    ws = norms.WeakWindowWorkspace(g, default_radius_grid(g, ratio=2.0))
    assert len(ws.radii) > 1
    k = norms._INDICATOR_CHUNK_ROWS
    assert ws.ypos.size % k == 0
    chunks = ws.ypos.size // k
    assert sizes == [(r, (k, ws.windows[r][0].shape[1])) for r in ws.radii for _ in range(chunks)]
    assert all(ws.windows[r][0].shape[1] < g.node_count for r in ws.radii[:-1])


def _dense_weak_fofana(ws, f, pp, alpha):
    # one (p, alpha) pair on the full rows, as the windowed workspace replaced
    g = ws.grid
    best = 0.0
    for r in ws.radii:
        rows = translate_indicator_rows(g.params, -ws.ypos, r, g)
        w_pos = _weak_rows(rows, f.values, g.weights)
        w_neg = _weak_rows(rows, f.values[::-1], g.weights)
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
    # two windows of at most 2r / dx = 64 nodes each, never a full row
    assert all(a.shape[-1] <= 128 for a in arrays if a.ndim == 2)


def _per_radius_interval_fofana(f, spec, ball_scaled):
    """The interval Fofana loop with masses over fresh window ends (or, at
    q = inf, the per-node loop) for every radius."""
    g, x, q = f.grid, f.grid.nodes, spec.q
    theta = norms._scale_exponent(spec.q, spec.p, spec.alpha)
    e = norms._inv(spec.alpha) - norms._inv(spec.p)
    best = 0.0
    for r in spec.r_grid:
        if q == INF:
            local = _loop_interval_max(f, r)
        else:
            mass = WindowGeometry.interval(g).between(np.abs(f.values[None]) ** q, x - r, x + r)[0]
            local = mass ** (1.0 / q)
        mu_i = interval_measure(g.params, x, r)
        w = mu_i**theta
        if ball_scaled:
            w = w * (ball_measure_origin(g.params, r) / mu_i) ** e
        best = max(best, lp_norm(GridFunction(g, w * local), spec.p))
    return best


def test_interval_fofana_builds_one_window_mass_per_function(monkeypatch):
    # the interval stack builds the window mass of |f|^q of every function
    # in one prefix sum per stack and q for all radii and both center
    # weights, with the bits of fresh window ends per function and radius
    g = make_grid(DunklParams(0.5), 16.0, 1024)
    fam = [sample_family(name, ps, g) for name, ps in _INTERVAL_FAMILY]
    sums = []
    prefix = WindowGeometry._prefix

    def counted(self, rows):
        sums.append(len(rows))
        return prefix(self, rows)

    for spec in _interval_specs(g, ((1.0, 2.0, 1.0), (2.0, 8.0, 4.0), (INF, INF, INF))):
        want = [[_per_radius_interval_fofana(f, spec, scaled) for f in fam] for scaled in (False, True)]
        stack = _ProfileStack(WindowGeometry.interval(g), np.stack([f.values for f in fam]))
        monkeypatch.setattr(WindowGeometry, "_prefix", counted)
        sums.clear()
        assert [stack.fofana(spec), stack.fofana(spec, ball_scaled=True)] == want
        assert sums == ([] if spec.q == INF else [len(fam)])
        monkeypatch.setattr(WindowGeometry, "_prefix", prefix)


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
    balls = _profiles(TranslatedBalls(g), f.values[None, :], INF, radii)[0]
    intervals = _profiles(WindowGeometry.interval(g), f.values[None, :], INF, radii)[0]
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

import math

import numpy as np
import pytest

from dunkl import (
    DunklParams,
    GridFunction,
    convolve,
    integrate,
    make_grid,
    sample_family,
    translate,
    translate_indicator,
    translate_rows,
)
from dunkl import translation
from dunkl.measure import ball_measure_origin
from dunkl.transform import forward_pair, inverse_pair, multiplier_pair, pair_multiply

KAPPAS = [(-0.5, True), (0.0, False), (0.5, False), (1.5, False)]


@pytest.mark.parametrize("kappa,classical", KAPPAS)
def test_translate_zero_is_identity(kappa, classical):
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 1024)
    f = sample_family("gaussian", [0.5], g)
    tol = 1e-4 if classical or kappa == 0.5 else 5e-3
    assert np.max(np.abs(translate(f, 0.0).values - f.values)) < tol


def test_classical_translation_is_shift():
    p = DunklParams(-0.5, classical=True)
    g = make_grid(p, 16.0, 1024)
    f = sample_family("gaussian", [0.5], g)
    t = translate(f, 1.0)
    assert np.max(np.abs(t.values - np.exp(-((g.nodes + 1.0) ** 2) / 2))) < 1e-10


def test_translate_real_stays_real_and_range_checked():
    p = DunklParams(0.5)
    g = make_grid(p, 8.0, 512)
    f = sample_family("bump", [0.0, 2.0], g)
    t = translate(f, 1.5)
    assert t.is_real
    with pytest.raises(ValueError):
        translate(f, 9.0)
    with pytest.raises(ValueError):
        translate(f, float("nan"))


@pytest.mark.parametrize("kappa,classical", KAPPAS)
def test_translation_symmetry_in_arguments(kappa, classical):
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 12.0, 1024)
    f = sample_family("gaussian", [0.5], g)
    sup = float(np.max(np.abs(f.values)))
    rng = np.random.default_rng(3)
    pool = np.where(np.abs(g.nodes) <= 6.0)[0]
    cache = {}

    def tau(i):
        if i not in cache:
            cache[i] = translate(f, float(g.nodes[i])).values
        return cache[i]

    for i, j in rng.choice(pool, size=(20, 2)):
        assert abs(float(tau(i)[j]) - float(tau(j)[i])) < 1e-4 * sup


@pytest.mark.parametrize("kappa,classical", KAPPAS)
def test_translation_mass_preserved(kappa, classical):
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 1024)
    f = sample_family("bump", [0.0, 2.0], g)
    base = integrate(f)
    tol = 1e-4 if classical or kappa == 0.5 else 5e-3
    for y in (1.0, -3.0, 6.0):
        assert integrate(translate(f, y)) == pytest.approx(base, rel=tol)


@pytest.mark.parametrize("kappa,classical", KAPPAS)
def test_translation_contraction_constant_four(kappa, classical):
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 1024)
    from dunkl import lp_norm

    for name, ps in (("gaussian", [0.5]), ("indicator_ball", [1.0])):
        f = sample_family(name, ps, g)
        for q in (1.0, 2.0, 4.0, math.inf):
            base = lp_norm(f, q)
            for y in (1.0, -4.0):
                assert lp_norm(translate(f, y), q) <= 4.0 * 1.01 * base


def test_translate_indicator_support_and_bounds():
    p = DunklParams(0.5)
    g = make_grid(p, 16.0, 2048)
    t = translate_indicator(p, 2.0, 1.0, g)
    assert np.all(t.values >= 0.0)
    assert np.all(t.values <= 1.0)
    absx = np.abs(g.nodes)
    assert np.all(t.values[(absx <= 1.0) | (absx >= 3.0)] == 0.0)
    # identity at zero offset: the window itself away from the jump and away
    # from the origin (pointwise band-limited reconstruction of an indicator
    # is O(1)-wrong on the few nodes nearest the measure's degenerate point,
    # which carry vanishing mass)
    t0 = translate_indicator(p, 0.0, 1.0, g)
    chi = sample_family("indicator_ball", [1.0], g)
    inner = (np.abs(np.abs(g.nodes) - 1.0) > 0.25) & (np.abs(g.nodes) > 0.25)
    assert np.max(np.abs(t0.values - chi.values)[inner]) < 0.05


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.5])
def test_translate_indicator_mass(kappa):
    p = DunklParams(kappa)
    g = make_grid(p, 16.0, 2048)
    for (y, r) in ((2.0, 1.0), (4.0, 2.0)):
        m = integrate(translate_indicator(p, y, r, g))
        assert m == pytest.approx(ball_measure_origin(p, r), rel=2e-3)


def test_translate_indicator_rejects_bad_radius():
    p = DunklParams(0.5)
    g = make_grid(p, 8.0, 256)
    with pytest.raises(ValueError):
        translate_indicator(p, 1.0, 0.0, g)


def test_convolution_classical_triangle():
    p = DunklParams(-0.5, classical=True)
    g = make_grid(p, 16.0, 4096)
    chi = sample_family("indicator_ball", [1.0], g)
    conv = convolve(chi, chi)
    i0 = int(np.argmin(np.abs(g.nodes)))
    x0 = abs(float(g.nodes[i0]))
    assert float(conv.values[i0]) == pytest.approx(
        (2.0 - x0) / math.sqrt(2 * math.pi), abs=1e-2
    )


def test_convolution_commutative_and_zero():
    p = DunklParams(0.7)
    g = make_grid(p, 8.0, 512)
    f = sample_family("gaussian", [0.5], g)
    h = sample_family("bump", [0.0, 2.0], g)
    assert np.array_equal(convolve(f, h).values, convolve(h, f).values)
    z = convolve(f, GridFunction(g, np.zeros(512)))
    assert np.max(np.abs(z.values)) == 0.0


def test_convolution_grid_mismatch():
    p = DunklParams(0.7)
    f = sample_family("gaussian", [0.5], make_grid(p, 8.0, 512))
    h = sample_family("gaussian", [0.5], make_grid(p, 8.0, 256))
    with pytest.raises(ValueError):
        convolve(f, h)


def test_translation_commutes_with_convolution():
    p = DunklParams(0.5)
    g = make_grid(p, 12.0, 1024)
    f = sample_family("gaussian", [0.5], g)
    h = sample_family("bump", [0.0, 2.0], g)
    conv = convolve(f, h)
    lhs = translate(conv, 1.5).values
    rhs = convolve(translate(f, 1.5), h).values
    assert np.max(np.abs(lhs - rhs)) < 1e-3 * np.max(np.abs(conv.values))


def test_convolution_matches_defining_integral():
    # spot-check the spectral convolution against the definition
    # (f * h)(x) = integral of tau_x f(-y) h(y) dmu(y) at a few nodes
    p = DunklParams(0.5)
    g = make_grid(p, 12.0, 1024)
    f = sample_family("gaussian", [0.5], g)
    h = sample_family("bump", [0.0, 2.0], g)
    conv = convolve(f, h)
    for target in (0.5, -2.0, 3.3):
        i = int(np.argmin(np.abs(g.nodes - target)))
        x0 = float(g.nodes[i])
        direct = integrate(translate(f, x0).mirrored() * h)
        assert float(conv.values[i]) == pytest.approx(direct, rel=1e-6, abs=1e-9)


def _refuse_forward(*args):
    raise AssertionError("forward transform ran before the inputs were checked")


@pytest.mark.parametrize("kappa,classical", KAPPAS)
def test_translate_rows_match_single_offsets(kappa, classical):
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 1024)
    f = sample_family("trig_gauss", [2.0], g)
    ys = np.linspace(-15.0, 15.0, 37)
    rows = translate_rows(f, ys)
    single = np.stack([translate(f, y).values for y in ys])
    assert rows.shape == (37, 1024)
    # GEMM against GEMV: equal to rounding, not bit for bit
    assert np.max(np.abs(rows - single)) <= 1e-14 * np.max(np.abs(f.values))


@pytest.mark.parametrize("kappa,classical", KAPPAS)
def test_translate_rows_single_offset_is_vector_path(kappa, classical):
    # one offset gives the bits of the one-vector multiplier and inverse
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 1024)
    f = sample_family("bump", [0.0, 2.0], g)
    lg = translation._band_grid(g, translation._FUNCTION_BAND)
    u, v = forward_pair(p, g, lg, f.values)
    for y in (0.0, 1.5, -7.25):
        a, b = multiplier_pair(p, lg, y)
        ra, rb = multiplier_pair(p, lg, [y])
        assert np.array_equal(a, ra[0]) and np.array_equal(b, rb[0])
        vec = inverse_pair(p, lg, g, *pair_multiply(u, v, a, b))
        assert np.array_equal(translate_rows(f, [y])[0], vec)
        assert np.array_equal(translate(f, y).values, vec)


def test_translate_rows_chunks_equal_one_whole_chunk():
    p = DunklParams(0.5)
    g = make_grid(p, 16.0, 1024)
    f = sample_family("trig_gauss", [1.0], g)
    ys = np.linspace(-15.5, 15.5, 300)
    assert translation._row_chunk(g) < ys.size
    lg = translation._band_grid(g, translation._FUNCTION_BAND)
    u, v = forward_pair(p, g, lg, f.values)
    a, b = multiplier_pair(p, lg, ys)
    whole = inverse_pair(p, lg, g, *pair_multiply(u, v, a, b))
    assert np.array_equal(translate_rows(f, ys), whole)


def test_translate_rows_classical_shift():
    p = DunklParams(-0.5, classical=True)
    g = make_grid(p, 16.0, 1024)
    f = sample_family("gaussian", [0.5], g)
    ys = np.array([-4.0, -1.0, 0.5, 1.0, 3.0])
    rows = translate_rows(f, ys)
    exact = np.exp(-((g.nodes[None, :] + ys[:, None]) ** 2) / 2)
    assert np.max(np.abs(rows - exact)) < 1e-10


@pytest.mark.parametrize("bad", [9.0, -8.5, float("nan"), float("inf")])
def test_translate_rows_checks_every_offset_first(bad, monkeypatch):
    p = DunklParams(0.5)
    g = make_grid(p, 8.0, 256)
    f = sample_family("gaussian", [0.5], g)
    monkeypatch.setattr(translation, "forward_pair", _refuse_forward)
    for ys in ([bad, 1.0, 2.0], [1.0, bad, 2.0], [1.0, 2.0, bad]):
        with pytest.raises(ValueError):
            translate_rows(f, ys)
    with pytest.raises(ValueError):
        translate_rows(f, [])


def test_translate_rows_rejects_complex():
    p = DunklParams(0.5)
    g = make_grid(p, 8.0, 256)
    f = sample_family("gaussian", [0.5], g)
    with pytest.raises(ValueError):
        translate_rows(GridFunction(g, f.values * (1.0 + 1.0j)), [1.0])


def test_ball_convolutions_checks_radii_first(monkeypatch):
    p = DunklParams(0.5)
    f = sample_family("gaussian", [0.5], make_grid(p, 8.0, 256))
    monkeypatch.setattr(translation, "forward_pair", _refuse_forward)
    with pytest.raises(ValueError, match="no radii"):
        translation.ball_convolutions(f, [])


def _complex_pair(g):
    """Two complex grid functions with nonzero real and imaginary parts."""
    x = g.nodes
    f = GridFunction(g, np.exp(-x * x / 2) * np.exp(1.5j * x))
    h = sample_family("bump", [0.5, 2.0], g) + 1j * sample_family("gaussian", [1.0], g)
    return f, h


def _parts(f):
    return GridFunction(f.grid, f.values.real), GridFunction(f.grid, f.values.imag)


@pytest.mark.parametrize("kappa,classical", [(-0.5, True), (0.5, False)])
def test_translate_of_complex_is_linear_in_its_parts(kappa, classical):
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 1024)
    f, _ = _complex_pair(g)
    re, im = _parts(f)
    for y in (-3.0, 0.75, 5.5):
        got = translate(f, y)
        assert not got.is_real
        want = translate(re, y).values + 1j * translate(im, y).values
        assert np.max(np.abs(got.values - want)) <= 1e-13 * np.max(np.abs(f.values))


@pytest.mark.parametrize("kappa,classical", [(-0.5, True), (0.5, False)])
def test_convolve_of_complex_is_bilinear_in_the_parts(kappa, classical):
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 1024)
    f, h = _complex_pair(g)
    fr, fi = _parts(f)
    hr, hi = _parts(h)
    want = (convolve(fr, hr).values - convolve(fi, hi).values) + 1j * (
        convolve(fr, hi).values + convolve(fi, hr).values
    )
    scale = np.max(np.abs(want))
    assert np.max(np.abs(convolve(f, h).values - want)) <= 1e-13 * scale
    # one complex and one real argument
    want_real_h = convolve(fr, hr).values + 1j * convolve(fi, hr).values
    assert np.max(np.abs(convolve(f, hr).values - want_real_h)) <= 1e-13 * scale


def test_classical_translation_of_complex_is_shift():
    p = DunklParams(-0.5, classical=True)
    g = make_grid(p, 16.0, 1024)
    f, _ = _complex_pair(g)
    x = g.nodes
    for y in (-2.0, 1.0, 3.5):
        exact = np.exp(-((x + y) ** 2) / 2) * np.exp(1.5j * (x + y))
        assert np.max(np.abs(translate(f, y).values - exact)) < 1e-10

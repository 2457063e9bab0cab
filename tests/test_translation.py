import math

import numpy as np
import pytest
from scipy.integrate import quad

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
from dunkl import transform, translation
from dunkl.measure import ball_measure_origin
from dunkl.transform import (
    band_grid,
    forward_pair,
    inverse_pair,
    inverse_rows,
    multiplier_pair,
    pair_multiply,
)

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
    # values in [0, 1], exactly 0 outside the annulus by the float
    # comparisons of the annulus node ranges, and the window itself at
    # offset 0; at r = 1 + ulp, nodes with |x| - |y| = 1 took -1.3e-46
    # (kappa 1.5) before the clip
    for kappa in (0.0, 0.3, 0.5, 1.5):
        p = DunklParams(kappa)
        g = make_grid(p, 16.0, 2048)
        rows = translation.translate_indicator_rows(p, g.nodes[::8], np.nextafter(1.0, 2.0), g)
        assert np.all((rows >= 0.0) & (rows <= 1.0))
        absx = np.abs(g.nodes)
        for y, r in ((2.0, 1.0), (-3.0, 1.5), (0.3, 1.1), (5.0, 8.0)):
            t = translate_indicator(p, y, r, g)
            assert np.all((t.values >= 0.0) & (t.values <= 1.0))
            outside = (absx <= max(0.0, abs(y) - r)) | (absx >= abs(y) + r)
            assert np.all(t.values[outside] == 0.0)
            assert np.all(t.values[~outside] > 0.0)
        chi = sample_family("indicator_ball", [1.0], g)
        np.testing.assert_array_equal(translate_indicator(p, 0.0, 1.0, g).values, chi.values)


def test_indicator_values_on_the_float_ends_of_the_annulus():
    # points on the float ends |y| - r and |y| + r, which the annulus node
    # ranges count as outside: without the support mask the rounded T left
    # values there in about one case of six, up to 2.6e-7 (kappa 0, xy < 0);
    # and on the inner end x = -(r - y), where the value is 1, it rounded up
    # to 1 + 4.7e-9 (kappa 0) before the clip
    rng = np.random.default_rng(3)
    y, r = rng.uniform(0.5, 16.0, 2000), rng.uniform(0.01, 8.0, 2000)
    for kappa in (0.0, 0.3, 0.5, 1.5):
        p = DunklParams(kappa)
        for end in (y - r, y + r):
            keep = end > 0.0
            for x in (end[keep], -end[keep]):
                assert not np.any(translation._indicator_values(p, x, y[keep], r[keep]))
        keep = r > y
        assert np.all(translation._indicator_values(p, y[keep] - r[keep], y[keep], r[keep]) <= 1.0)


def _product_formula(kappa, x, y, r):
    """c_k times the t-integral of the product formula by adaptive
    quadrature, with the endpoint singularity (1 -+ t)^(k - 1/2) taken as
    the algebraic weight of `quad`."""
    ck = math.gamma(kappa + 1.0) / (math.sqrt(math.pi) * math.gamma(kappa + 0.5))
    b = kappa - 0.5
    t = (r * r - x * x - y * y) / (2.0 * x * y)
    if x * y > 0.0:  # x^2 + y^2 + 2xyt < r^2 for t < T
        if not -1.0 < t < 1.0:
            return float(t >= 1.0)
        return ck * quad(lambda s: (1.0 + s) * (1.0 - s) ** b, -1.0, t, weight="alg", wvar=(b, 0.0))[0]
    if not -1.0 < t < 1.0:  # for t > T
        return float(t <= -1.0)
    return ck * quad(lambda s: (1.0 + s) ** (b + 1.0), t, 1.0, weight="alg", wvar=(0.0, b))[0]


@pytest.mark.parametrize("kappa", [0.0, 0.3, 0.5, 1.5, 3.0])
def test_indicator_values_match_quadrature_of_the_product_formula(kappa):
    p = DunklParams(kappa)
    rng = np.random.default_rng(int(10 * kappa))
    for _ in range(300):
        x, y = rng.uniform(-6.0, 6.0, 2)
        r = rng.uniform(0.1, 4.0)
        got = float(translation._indicator_values(p, x, y, r))
        assert got == pytest.approx(_product_formula(kappa, x, y, r), rel=0.0, abs=1e-11)


def test_indicator_values_classical_limit():
    # at kappa = -1/2 the shifted indicator exactly; as kappa -> -1/2 the
    # values converge to it away from its jumps, like kappa + 1/2
    g = make_grid(DunklParams(-0.5, classical=True), 16.0, 1024)
    ys, r = np.array([-3.0, -0.5, 0.0, 1.0, 4.0]), 1.5
    shifted = np.abs(g.nodes[None, :] + ys[:, None])
    sharp = (shifted < r).astype(float)
    rows = translation.translate_indicator_rows(g.params, ys, r, g)
    np.testing.assert_array_equal(rows, sharp)
    far = np.abs(shifted - r) > 0.25
    for eps in (1e-3, 1e-4, 1e-6):
        p = DunklParams(-0.5 + eps)
        rows = translation.translate_indicator_rows(p, ys, r, make_grid(p, 16.0, 1024))
        # measured 4.7e-3, 4.8e-4 and 4.8e-6
        assert np.max(np.abs(rows - sharp)[far]) < 10.0 * eps


@pytest.mark.parametrize("kappa", [-0.5, 0.0, 0.3, 1.5])
def test_translate_indicator_rows_chunking_is_exact(kappa, monkeypatch):
    # 40 offsets (y = 0 among them) take chunks of 16, 16 and 8 rows, or of
    # 15, 15 and 10; either way the rows are the bits of one evaluation
    # over the whole (offsets, N) block
    p = DunklParams(kappa, classical=kappa == -0.5)
    g = make_grid(p, 8.0, 512)
    ys, r = np.append(np.linspace(-7.5, 7.5, 39), 0.0), 1.3
    values = translation._indicator_values
    whole = values(p, g.nodes[None, :], ys[:, None], r)
    assert np.count_nonzero(whole) > 0
    shapes = []

    def counted(params, x, y, radius):
        shapes.append(np.broadcast_shapes(x.shape, y.shape))
        return values(params, x, y, radius)

    monkeypatch.setattr(translation, "_indicator_values", counted)
    for chunk, sizes in ((translation._INDICATOR_CHUNK_ROWS, [16, 16, 8]), (15, [15, 15, 10])):
        monkeypatch.setattr(translation, "_INDICATOR_CHUNK_ROWS", chunk)
        shapes.clear()
        rows = translation.translate_indicator_rows(p, ys, r, g)
        assert shapes == [(k, g.node_count) for k in sizes]
        np.testing.assert_array_equal(rows, whole)


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.5])
def test_translate_indicator_mass(kappa):
    p = DunklParams(kappa)
    g = make_grid(p, 16.0, 2048)
    for (y, r) in ((2.0, 1.0), (4.0, 2.0)):
        m = integrate(translate_indicator(p, y, r, g))
        assert m == pytest.approx(ball_measure_origin(p, r), rel=2e-3)


@pytest.mark.parametrize("kappa", [0.0, 0.3, 0.5, 1.5])
def test_translate_indicator_mass_converges_under_refinement(kappa):
    # the relative mass error of the sampled rows (a quadrature of a
    # function with jumps) falls at every doubling of N; the largest at
    # N = 4096 was 1.6e-4 (kappa 0, y = 0.4, r = 1.1)
    p = DunklParams(kappa)
    for y, r in ((2.0, 1.0), (-1.3, 0.7), (0.4, 1.1)):
        mu = ball_measure_origin(p, r)
        errs = [
            abs(integrate(translate_indicator(p, y, r, make_grid(p, 16.0, n))) - mu) / mu
            for n in (1024, 2048, 4096)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 2e-4


@pytest.mark.parametrize("kappa", [0.0, 0.3, 0.5, 1.5])
def test_translate_indicator_rows_agree_with_spectral_rows_at_large_radius(kappa):
    # the band-limited inverse of the ball multiplier times E(i l y) against
    # the closed form, in weighted L1 relative to mu(B_r); at N = 2048 the
    # largest was 3.0e-3 (kappa 0, r = 4), and at y = 0, left out here, the
    # spectral rows carry their own Gibbs error of the ball (up to 0.12)
    p = DunklParams(kappa)
    g = make_grid(p, 16.0, 2048)
    lg = band_grid(g, translation._INDICATOR_BAND)
    ys = np.array([-6.0, -2.5, 1.0, 3.5, 7.0])
    for r in (4.0, 8.0):
        m = translation.ball_multiplier(p, lg, r)
        spectral = inverse_rows(p, lg, g, ys.size, lambda s: [m * c for c in multiplier_pair(p, lg, ys[s])])
        rows = translation.translate_indicator_rows(p, ys, r, g)
        assert np.max(np.abs(rows - spectral) @ g.weights) < 5e-3 * ball_measure_origin(p, r)


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
    lg = band_grid(g, translation._FUNCTION_BAND)
    u, v = forward_pair(p, g, lg, f.values)
    for y in (0.0, 1.5, -7.25):
        a, b = multiplier_pair(p, lg, y)
        ra, rb = multiplier_pair(p, lg, [y])
        assert np.array_equal(a, ra[0]) and np.array_equal(b, rb[0])
        vec = inverse_pair(p, lg, g, *pair_multiply(u, v, a, b))
        assert np.array_equal(translate_rows(f, [y])[0], vec)
        assert np.array_equal(translate(f, y).values, vec)


def test_translate_rows_chunks_equal_one_whole_chunk(monkeypatch):
    # every stacked caller of the chunked inverse: more rows than one chunk
    # give the bits of a one-chunk evaluation
    p = DunklParams(0.5)
    g = make_grid(p, 16.0, 1024)
    f = sample_family("trig_gauss", [1.0], g)
    ys = np.linspace(-15.5, 15.5, 300)
    radii = np.linspace(0.25, 8.0, 300)
    assert transform._CHUNK_ELEMENTS // g.node_count < ys.size
    lg = band_grid(g, translation._FUNCTION_BAND)
    u, v = forward_pair(p, g, lg, f.values)
    a, b = multiplier_pair(p, lg, ys)
    whole = inverse_pair(p, lg, g, *pair_multiply(u, v, a, b))
    assert np.array_equal(translate_rows(f, ys), whole)

    chunked = translation._ball_convolution_stack(g, f.values[None, :], radii)
    monkeypatch.setattr(transform, "_CHUNK_ELEMENTS", ys.size * g.node_count)
    assert np.array_equal(chunked, translation._ball_convolution_stack(g, f.values[None, :], radii))


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


def _family_stack(g):
    return np.stack(
        [sample_family("gaussian", [0.5], g).values, sample_family("bump", [0.0, 2.0], g).values]
        + [sample_family("trig_gauss", [a], g).values for a in (1.0, 3.0)]
        + [sample_family("indicator_ball", [1.0], g).values]
    )


@pytest.mark.parametrize("kappa,classical", KAPPAS)
def test_translates_one_row_is_translate(kappa, classical):
    # one row by one offset is the one-row inverse of `translate`, bit for bit
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 1024)
    stack = _family_stack(g)
    tr = translation._Translates(g, stack)
    for i in range(stack.shape[0]):
        f = GridFunction(g, stack[i])
        for y in (0.0, 1.5, -7.25):
            row = tr.rows([i], [y])
            assert row.shape == (1, 1, g.node_count)
            assert np.array_equal(row[0, 0], translate(f, y).values)
            assert np.array_equal(row[0, 0], translate_rows(f, [y])[0])


# Stacked rows keep their bits in any stack whose products BLAS runs through
# one kernel.  OpenBLAS on AVX-512 takes a small-matrix kernel below 10^6
# multiply-adds, so this test stacks at N = 2048, where a product of two
# rows with the 1024 x 1024 blocks is past it.


@pytest.mark.parametrize("kappa,classical", KAPPAS)
def test_translates_stack_equals_translate_rows_per_member(kappa, classical):
    # F members by two or more offsets each, stacked into chunks of several
    # members, give every member's own `translate_rows`, bit for bit
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 2048)
    stack = _family_stack(g)
    tr = translation._Translates(g, stack)
    assert transform._CHUNK_ELEMENTS // g.node_count == 128
    for ys in ([1.0, -2.5], np.linspace(-15.0, 15.0, 37), np.linspace(-8.0, 8.0, 66)):
        which = [4, 0, 2, 1, 3]
        rows = tr.rows(which, ys)
        assert rows.shape == (len(which), len(ys), g.node_count)
        for i, got in zip(which, rows):
            assert np.array_equal(got, translate_rows(GridFunction(g, stack[i]), ys))


@pytest.mark.parametrize("kappa,classical", KAPPAS)
def test_translates_at_nodes_equal_the_full_rows(kappa, classical):
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 1024)
    tr = translation._Translates(g, _family_stack(g))
    ys = np.array([-15.0, -6.0, -0.5, 0.0, 0.75, 2.25, 9.0, 16.0])
    full = tr.rows([0, 1, 4], ys)
    # every node, shuffled and some repeated: the products take every block
    # column, as the full rows do, and the join gives each node its side of
    # 0, bit for bit
    shuffled = np.random.default_rng(5).permutation(g.node_count)
    nodes = np.concatenate([shuffled, shuffled[:40], [511, 512, 511]])
    at = tr.rows([0, 1, 4], ys, nodes=nodes)
    assert at.shape == (3, ys.size, nodes.size)
    assert np.array_equal(at, full[:, :, nodes])
    # fewer nodes take fewer block columns: equal to rounding, since a BLAS
    # kernel may round a column by its place in the product
    scale = np.max(np.abs(full))
    for nodes in ([3, 1020, 511, 512, 700], [600, 600, 17, 600, 17], np.arange(100, 924, 37)):
        at = tr.rows([0, 1, 4], ys, nodes=nodes)
        assert at.shape == (3, ys.size, len(nodes))
        assert np.max(np.abs(at - full[:, :, nodes])) <= 1e-14 * scale


def _refuse(*args, **kwargs):
    raise AssertionError("a transform ran before the inputs were checked")


def test_translates_check_offsets_and_indices_before_any_transform(monkeypatch):
    p = DunklParams(0.5)
    g = make_grid(p, 8.0, 256)
    tr = translation._Translates(g, _family_stack(g))
    monkeypatch.setattr(translation, "multiplier_pair", _refuse)
    monkeypatch.setattr(translation, "inverse_rows", _refuse)
    offsets = (
        ([1.0, 9.0], "leaves the resolved domain"),
        ([float("nan")], "finite"),
        ([], "no translation offsets"),
        ([[1.0, 2.0]], "1-D list, got 2-D"),
    )
    for which, ys, nodes, msg in (
        *(([0], ys, None, msg) for ys, msg in offsets),
        ([5], [1.0], None, r"rows must be whole indices in \[0, 5\)"),
        ([-1], [1.0], None, "rows must be whole"),
        ([0.5], [1.0], None, "rows must be whole"),
        ([], [1.0], None, "rows must be a non-empty"),
        ([0, 1], [1.0], [3, 256], r"nodes must be whole indices in \[0, 256\)"),
        ([0, 1], [1.0], [-1, 3], "nodes must be whole"),
        ([0, 1], [1.0], [1.5], "nodes must be whole"),
        ([0, 1], [1.0], [], "nodes must be a non-empty"),
    ):
        with pytest.raises(ValueError, match=msg):
            tr.rows(which, ys, nodes=nodes)
    # the indicator rows take their offsets through the same check
    for ys, msg in offsets:
        with pytest.raises(ValueError, match=msg):
            translation.translate_indicator_rows(p, ys, 1.0, g)
    monkeypatch.setattr(translation, "forward_pair", _refuse)
    for rows, msg in (
        (np.zeros((0, 256)), "non-empty"),
        (np.zeros(256), "non-empty"),
        (np.zeros((2, 255)), "255 samples"),
        (np.zeros((2, 256), dtype=complex), "real samples"),
    ):
        with pytest.raises(ValueError, match=msg):
            translation._Translates(g, rows)


def test_translates_transform_each_row_once(monkeypatch):
    p = DunklParams(0.5)
    g = make_grid(p, 8.0, 256)
    calls = []

    def counted(params, xg, lg, vals):
        calls.append(np.shape(vals))
        return forward_pair(params, xg, lg, vals)

    monkeypatch.setattr(translation, "forward_pair", counted)
    tr = translation._Translates(g, _family_stack(g))
    tr.rows(range(5), [1.0, -2.0])
    tr.rows([1], [0.5], nodes=[3, 200])
    # one matrix-vector forward per row, none per call of rows
    assert calls == [(256,)] * 5


def test_translate_indicator_rejects_params_of_another_kappa():
    g = make_grid(DunklParams(0.5), 8.0, 256)
    with pytest.raises(ValueError, match=r"kappa 1\.5 .* kappa 0\.5"):
        translate_indicator(DunklParams(1.5), 1.0, 1.0, g)
    assert np.max(translate_indicator(DunklParams(0.5), 1.0, 1.0, g).values) > 0.5


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
    for radii, msg in (([], "no radii"), ([1.0, -1.0], "radius"), ([float("nan"), 1.0], "radius")):
        with pytest.raises(ValueError, match=msg):
            translation._ball_convolution_stack(f.grid, f.values[None, :], radii)


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

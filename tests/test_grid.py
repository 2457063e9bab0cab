import math

import numpy as np
import pytest

from dunkl import (
    DunklParams,
    GridFunction,
    integrate,
    make_grid,
    read_csv_function,
    sample_family,
    write_csv_function,
)
from dunkl.grid import CsvFormatError, FAMILY_IDS, Grid, _quadrature_weights


def test_small_grid_nodes():
    g = make_grid(DunklParams(0.0), 1.0, 4)
    assert np.allclose(g.nodes, [-0.75, -0.25, 0.25, 0.75], atol=0)


def test_nodes_exactly_symmetric_no_zero():
    for kappa in (0.0, 0.7):
        g = make_grid(DunklParams(kappa), 5.0, 128)
        assert np.array_equal(g.nodes, -g.nodes[::-1])
        assert np.all(g.nodes != 0.0)
        assert np.all(np.diff(g.nodes) > 0)


def test_weights_sum_to_domain_measure():
    for kappa, cls in ((-0.5, True), (0.0, False), (0.5, False), (1.5, False), (2.9, False)):
        p = DunklParams(kappa, classical=cls)
        g = make_grid(p, 1.0, 1024)
        expected = p.b_kappa
        assert abs(float(np.sum(g.weights)) - expected) <= 1e-10 * expected
        assert np.array_equal(g.weights, g.weights[::-1])
        assert np.all(g.weights >= 0.0)


def test_weights_classical_example():
    g = make_grid(DunklParams(-0.5, classical=True), 1.0, 1024)
    assert float(np.sum(g.weights)) == pytest.approx(math.sqrt(2 / math.pi), abs=1e-6)


def test_make_grid_validation():
    p = DunklParams(0.5)
    with pytest.raises(ValueError):
        make_grid(p, -1.0, 64)
    with pytest.raises(ValueError):
        make_grid(p, 1.0, 63)
    with pytest.raises(ValueError):
        make_grid(p, 1.0, 2)


@pytest.mark.parametrize("node_count", [math.inf, math.nan, 2.5, 64.5])
def test_make_grid_names_a_node_count_that_is_not_whole(node_count):
    # checked before any int() conversion, which raised OverflowError at inf
    with pytest.raises(ValueError, match=f"node_count must be an integer, got {node_count}"):
        make_grid(DunklParams(0.5), 16.0, node_count)


@pytest.mark.parametrize("kappa", [-0.5, 0.0, 1.5])
def test_grid_is_its_three_values(kappa):
    # the nodes and weights follow from (params, L, N): grids built apart are
    # equal, hash alike and carry the bits of the midpoint formula
    p = DunklParams(kappa, classical=kappa == -0.5)
    g, h = Grid(p, 8, 64.0), make_grid(p, 8.0, 64)
    assert g == h and hash(g) == hash(h) and g is not h
    assert (g.half_width, g.node_count) == (8.0, 64)
    assert g != make_grid(p, 8.0, 128) and g != make_grid(p, 4.0, 64)
    assert g != make_grid(DunklParams(0.5), 8.0, 64)
    dx = 2.0 * 8.0 / 64
    pos = (np.arange(32) + 0.5) * dx
    nodes = np.concatenate([-pos[::-1], pos])
    assert np.array_equal(g.nodes, nodes)
    assert np.array_equal(g.weights, _quadrature_weights(p, 8.0, nodes))
    for arr in (g.nodes, g.weights):
        assert not arr.flags.writeable


def test_grid_takes_no_nodes_or_weights():
    # nodes and weights given apart from (params, L, N) could disagree with
    # the values grids compare by
    p = DunklParams(0.5)
    g = make_grid(p, 8.0, 64)
    with pytest.raises(TypeError):
        Grid(p, 8.0, 64, g.nodes * 0.5, g.weights.copy())


@pytest.mark.parametrize(
    "half_width,node_count,message",
    [
        (0.0, 64, "half_width must be positive, got 0.0"),
        (-1.0, 64, "half_width must be positive, got -1.0"),
        (math.nan, 64, "half_width must be positive, got nan"),
        (8.0, 63, "node_count must be an even integer >= 4, got 63"),
        (8.0, 2, "node_count must be an even integer >= 4, got 2"),
    ],
)
def test_grid_rejects_invalid_sizes(half_width, node_count, message):
    with pytest.raises(ValueError, match=message):
        Grid(DunklParams(0.5), half_width, node_count)


def test_grid_rejects_a_measure_past_the_float_range():
    # |t| ** (2 kappa + 2) overflows at L = 16 from kappa = 127 on; the
    # masses would hold inf and nan
    with pytest.raises(ValueError, match="kappa = 127.0 is too large for half_width 16.0"):
        make_grid(DunklParams(127), 16, 256)
    for kappa, half_width in ((126, 16), (148, 1)):
        g = make_grid(DunklParams(kappa), half_width, 256)
        assert np.all(np.isfinite(g.weights)) and math.isfinite(np.sum(g.weights))


def test_integrate_constant_and_odd():
    p = DunklParams(0.0)
    g = make_grid(p, 1.0, 2048)
    one = GridFunction(g, np.ones(2048))
    assert integrate(one) == pytest.approx(0.5, abs=1e-6)
    odd = GridFunction(g, g.nodes**3)
    assert integrate(odd) == 0.0


def test_integrate_indicator():
    p = DunklParams(0.0)
    g = make_grid(p, 1.0, 2048)
    chi = sample_family("indicator_ball", [0.5], g)
    assert integrate(chi) == pytest.approx(0.125, abs=g.spacing)


def test_integrate_refinement_order():
    p = DunklParams(0.8)
    vals = []
    for n in (256, 512, 1024):
        g = make_grid(p, 6.0, n)
        vals.append(integrate(sample_family("gaussian", [0.5], g)))
    exact = vals[-1]
    e0, e1 = abs(vals[0] - exact), abs(vals[1] - exact)
    assert e1 < 0.3 * e0


def test_sample_family_values():
    p = DunklParams(0.5)
    g = make_grid(p, 8.0, 64)
    gau = sample_family("gaussian", [0.5], g)
    idx = int(np.argmin(np.abs(g.nodes - 0.25)))
    x = g.nodes[idx]
    assert gau.values[idx] == pytest.approx(math.exp(-0.5 * x * x), rel=1e-15)
    chi = sample_family("indicator_ball", [1.0], g)
    assert chi.values[np.abs(g.nodes) > 1.0].max() == 0.0
    tg1 = sample_family("trig_gauss", [7], g)
    tg2 = sample_family("trig_gauss", [7], g)
    assert np.array_equal(tg1.values, tg2.values)
    pt = sample_family("power_tail", [6.0, 1.0], g)
    assert np.all(pt.values[np.abs(g.nodes) <= 1.0] == 0.0)


def test_sample_family_rejects_bad_input():
    g = make_grid(DunklParams(0.5), 8.0, 64)
    with pytest.raises(ValueError):
        sample_family("nosuch", [1.0], g)
    with pytest.raises(ValueError):
        sample_family("gaussian", [-1.0], g)
    with pytest.raises(ValueError):
        sample_family("bump", [0.0, 0.0], g)
    assert set(FAMILY_IDS) == {"gaussian", "indicator_ball", "bump", "power_tail", "trig_gauss"}


@pytest.mark.parametrize(
    "name,params,value",
    [
        ("gaussian", [math.inf], "inf"),
        ("gaussian", [math.nan], "nan"),
        ("indicator_ball", [math.nan], "nan"),
        ("indicator_ball", [math.inf], "inf"),
        ("bump", [math.inf, 1.0], "inf"),
        ("bump", [0.0, math.nan], "nan"),
        ("power_tail", [math.nan, 1.0], "nan"),
        ("power_tail", [1.0, math.inf], "inf"),
    ],
)
def test_sample_family_rejects_nonfinite_parameters(name, params, value):
    # nan fails no comparison test and inf passes positivity, but both gave
    # a silently zero (or empty) sample: every family names itself and the value
    g = make_grid(DunklParams(0.5), 8.0, 64)
    with pytest.raises(ValueError, match=f"^{name} .*finite.*, got {value}$"):
        sample_family(name, params, g)


@pytest.mark.parametrize(
    "name,params,takes",
    [
        ("gaussian", [1.0, 2.0], "1 parameter(s) (a), got 2"),
        ("indicator_ball", [], "1 parameter(s) (r), got 0"),
        ("bump", [1.0], "2 parameter(s) (center, width), got 1"),
        ("power_tail", [1.0, 2.0, 3.0], "2 parameter(s) (beta, cutoff), got 3"),
        ("trig_gauss", [1.0, 2.0], "1 parameter(s) (seed), got 2"),
    ],
)
def test_sample_family_checks_the_parameter_count_first(name, params, takes):
    g = make_grid(DunklParams(0.5), 8.0, 64)
    with pytest.raises(ValueError) as err:
        sample_family(name, params, g)
    assert str(err.value) == f"{name} takes {takes}"


@pytest.mark.parametrize("seed", [2.7, -1.0, math.inf, math.nan])
def test_trig_gauss_rejects_a_seed_that_is_not_a_finite_integer(seed):
    g = make_grid(DunklParams(0.5), 8.0, 64)
    with pytest.raises(ValueError, match=f"trig_gauss seed must be a finite integer >= 0, got {seed}"):
        sample_family("trig_gauss", [seed], g)


def test_gridfunction_arithmetic_same_grid_only():
    p = DunklParams(0.5)
    g1 = make_grid(p, 8.0, 64)
    g2 = make_grid(p, 8.0, 128)
    f1 = sample_family("gaussian", [0.5], g1)
    f2 = sample_family("gaussian", [0.5], g2)
    with pytest.raises(ValueError):
        _ = f1 + f2
    h = 2.0 * f1 - f1
    assert np.allclose(h.values, f1.values)
    assert abs(f1 * -1.0).values.min() >= 0.0


def test_gridfunction_rejects_nonfinite():
    g = make_grid(DunklParams(0.5), 8.0, 64)
    bad = np.ones(64)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        GridFunction(g, bad)


def test_gridfunction_immutable():
    g = make_grid(DunklParams(0.5), 8.0, 64)
    f = sample_family("gaussian", [1.0], g)
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_csv_roundtrip_real_and_complex(tmp_path):
    p = DunklParams(0.5)
    g = make_grid(p, 8.0, 128)
    f = sample_family("trig_gauss", [3], g)
    path = tmp_path / "f.csv"
    write_csv_function(path, f)
    assert np.array_equal(read_csv_function(path, g).values, f.values)
    fc = GridFunction(g, f.values + 1j * np.roll(f.values, 5))
    write_csv_function(path, fc)
    assert np.array_equal(read_csv_function(path, g).values, fc.values)


def test_csv_interpolation_and_range(tmp_path):
    p = DunklParams(0.5)
    g = make_grid(p, 4.0, 64)
    path = tmp_path / "f.csv"
    path.write_text("-1.0,1.0\n1.0,3.0\n")
    f = read_csv_function(path, g)
    inside = np.abs(g.nodes) < 1.0
    assert np.allclose(f.values[inside], 2.0 + g.nodes[inside], atol=1e-12)
    assert np.all(f.values[g.nodes > 1.0] == 0.0)
    assert np.all(f.values[g.nodes < -1.0] == 0.0)


def test_csv_error_reports_line(tmp_path):
    g = make_grid(DunklParams(0.5), 4.0, 64)
    path = tmp_path / "bad.csv"
    path.write_text("0.0,1.0\n0.5,oops\n")
    with pytest.raises(CsvFormatError) as err:
        read_csv_function(path, g)
    assert err.value.line_number == 2
    path.write_text("")
    with pytest.raises(CsvFormatError):
        read_csv_function(path, g)

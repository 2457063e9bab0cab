import math
import os
import subprocess
import sys

import numpy as np
import pytest

from dunkl import (
    DunklParams,
    GridFunction,
    bessel_normalized,
    forward,
    integrate,
    inverse,
    make_grid,
    plancherel_defect,
    sample_family,
)
from dunkl import transform
from dunkl.transform import mirror_grid

KAPPAS = [(-0.5, True), (0.0, False), (0.5, False), (1.0, False)]


def test_classical_gaussian_closed_form():
    p = DunklParams(-0.5, classical=True)
    g = make_grid(p, 16.0, 2048)
    f = sample_family("gaussian", [0.5], g)
    F = forward(f)
    assert np.max(np.abs(F.values - np.exp(-F.grid.nodes**2 / 2))) < 1e-6


@pytest.mark.parametrize("kappa,classical", KAPPAS)
def test_roundtrip_gaussian(kappa, classical):
    # frequency-quadrature noise scales with the node spacing; the strict
    # 1e-4 contract is checked at production size below and in the suites
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 2048)
    f = sample_family("gaussian", [0.5], g)
    rt = inverse(forward(f))
    assert rt.grid == g
    assert np.max(np.abs(rt.values - f.values)) < 2e-3


def test_roundtrip_gaussian_production_tolerance():
    p = DunklParams(0.0)
    g = make_grid(p, 16.0, 4096)
    f = sample_family("gaussian", [0.5], g)
    assert np.max(np.abs(inverse(forward(f)).values - f.values)) < 1e-4


def test_roundtrip_bump_interior():
    p = DunklParams(0.5)
    g = make_grid(p, 16.0, 4096)
    f = sample_family("bump", [0.0, 2.0], g)
    rt = inverse(forward(f))
    interior = np.abs(g.nodes) <= 8.0
    assert np.max(np.abs(rt.values - f.values)[interior]) < 1e-4


def test_inverse_of_zero():
    p = DunklParams(0.5)
    g = make_grid(p, 8.0, 256)
    spec = forward(GridFunction(g, np.zeros(256)))
    assert np.max(np.abs(spec.values)) == 0.0
    back = inverse(spec)
    assert np.max(np.abs(back.values)) == 0.0


def test_linearity():
    p = DunklParams(0.7)
    g = make_grid(p, 8.0, 512)
    f = sample_family("gaussian", [0.5], g)
    h = sample_family("bump", [0.0, 2.0], g)
    lhs = forward(GridFunction(g, 2.0 * f.values + 3.0 * h.values)).values
    rhs = 2.0 * forward(f).values + 3.0 * forward(h).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_parity():
    p = DunklParams(0.7)
    g = make_grid(p, 8.0, 512)
    even = sample_family("gaussian", [0.5], g)
    Fe = forward(even)
    assert np.max(np.abs(Fe.values.imag)) < 1e-10 * np.max(np.abs(Fe.values))
    odd = GridFunction(g, g.nodes * even.values)
    Fo = forward(odd)
    assert np.max(np.abs(Fo.values.real)) < 1e-10 * np.max(np.abs(Fo.values))
    # even in, even out; odd flips sign under reflection
    assert np.allclose(Fe.values, Fe.values[::-1])
    assert np.allclose(Fo.values, -Fo.values[::-1])


@pytest.mark.parametrize("kappa,classical", KAPPAS + [(1.5, False)])
def test_plancherel_small_at_desk_scale(kappa, classical):
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 2048)
    f = sample_family("gaussian", [0.5], g)
    tol = 1e-6 if classical else 1e-4
    assert plancherel_defect(f) < tol


def test_plancherel_decreases_under_refinement():
    p = DunklParams(1.5)
    defects = []
    for n in (1024, 2048):
        g = make_grid(p, 16.0, n)
        defects.append(plancherel_defect(sample_family("gaussian", [0.5], g)))
    assert defects[1] <= 1.05 * defects[0] + 1e-12


def test_plancherel_rejects_zero():
    p = DunklParams(0.5)
    g = make_grid(p, 8.0, 256)
    with pytest.raises(ValueError):
        plancherel_defect(GridFunction(g, np.zeros(256)))


@pytest.mark.parametrize("kappa,classical", KAPPAS + [(1.5, False)])
def test_gaussian_fixed_point(kappa, classical):
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 2048)
    f = sample_family("gaussian", [0.5], g)
    lam = mirror_grid(g)
    F = forward(f, lam)
    assert np.max(np.abs(F.values - np.exp(-lam.nodes**2 / 2))) < 1e-3


def test_transform_near_zero_matches_integral():
    p = DunklParams(0.5)
    g = make_grid(p, 12.0, 1024)
    f = sample_family("bump", [0.0, 2.0], g)
    F = forward(f)
    i0 = int(np.argmin(np.abs(F.grid.nodes)))
    assert complex(F.values[i0]) == pytest.approx(integrate(f), abs=1e-3)


def test_grid_kappa_mismatch_rejected():
    f = sample_family("gaussian", [0.5], make_grid(DunklParams(0.5), 8.0, 256))
    other = make_grid(DunklParams(1.0), 8.0, 256)
    with pytest.raises(ValueError):
        forward(f, other)


def test_plancherel_indicator_looser_threshold():
    # slowly decaying spectra leave a larger truncation defect; reported
    # against the looser desk-scale threshold
    p = DunklParams(0.5)
    g = make_grid(p, 16.0, 2048)
    chi = sample_family("indicator_ball", [1.0], g)
    assert plancherel_defect(chi) < 1e-2


def test_blocks_on_equal_spacing_are_leading_sub_blocks():
    # half the domain at half the nodes keeps the spacing of both grids, so
    # its kernel blocks come from the cached pair without a new entry
    p = DunklParams(0.5)
    xg, lg = make_grid(p, 4.0, 256), make_grid(p, 16.0, 256)
    xh, lh = make_grid(p, 2.0, 128), make_grid(p, 8.0, 128)
    a, b = transform._blocks(p, lg, xg)
    entries = len(transform._cache)
    ah, bh = transform._blocks(p, lh, xh)
    assert len(transform._cache) == entries
    np.testing.assert_array_equal(ah, a[:64, :64])
    np.testing.assert_array_equal(bh, b[:64, :64])
    s = np.outer(lh.positive_nodes, xh.positive_nodes)
    np.testing.assert_allclose(ah, bessel_normalized(0.5, s), rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(bh, s / 3.0 * bessel_normalized(1.5, s), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_kernel_cache_variable_rejects_bad_values(value):
    src = os.path.dirname(os.path.dirname(transform.__file__))
    env = {**os.environ, "DUNKL_KERNEL_CACHE": value, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", "import dunkl"], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert f"ValueError: DUNKL_KERNEL_CACHE must be an integer >= 0, got {value!r}" in proc.stderr


def _modulated_gaussian(g, omega=1.5):
    """exp(-x^2/2) * exp(i omega x): complex samples with both parts nonzero."""
    x = g.nodes
    return GridFunction(g, np.exp(-x * x / 2) * np.exp(1j * omega * x))


@pytest.mark.parametrize("kappa,classical", [(-0.5, True), (0.5, False)])
def test_forward_of_complex_is_linear_in_its_parts(kappa, classical):
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 1024)
    f = _modulated_gaussian(g)
    parts = forward(GridFunction(g, f.values.real)).values + 1j * forward(
        GridFunction(g, f.values.imag)
    ).values
    assert np.array_equal(forward(f).values, parts)


@pytest.mark.parametrize("kappa,classical", [(-0.5, True), (0.5, False)])
def test_complex_roundtrip(kappa, classical):
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 1024)
    f = _modulated_gaussian(g)
    spec = forward(f)
    rt = inverse(spec)
    assert rt.grid == g
    assert not rt.is_real
    assert np.max(np.abs(rt.values - f.values)) < 1e-6
    # the inverse is linear in the real and imaginary parts of the spectrum
    parts = inverse(GridFunction(spec.grid, spec.values.real)).values + 1j * inverse(
        GridFunction(spec.grid, spec.values.imag)
    ).values
    assert np.max(np.abs(rt.values - parts)) <= 1e-13 * np.max(np.abs(f.values))

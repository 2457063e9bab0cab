"""Generalized translation and convolution, realized spectrally.

Translation by y multiplies the transform by the kernel factor E(i l y); at
kappa = -1/2 this reduces to the classical shift f(x) -> f(x + y).
Translating one real f by many offsets takes one forward transform of f and
one multiplier row per offset, inverted as stacked rows (a matrix product per
row chunk, not a matrix-vector product per offset); `translate` is that path
with a single offset.  The rows run in chunks of at most the kernel-block
chunk of values, so no temporary outgrows a block chunk.

Convolution multiplies transforms pointwise.  Translated ball indicators use
the closed form of the indicator transform,

    F[chi_{B_r}](l) = mu(B_r) * j_{k+1}(l r),

instead of transforming a sampled indicator, which removes one layer of
sampling error from every windowed quantity built on them.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Grid, GridFunction, make_grid
from .measure import _check_radius, ball_measure_origin
from .params import DunklParams
from .special import bessel_normalized, kernel_pair
from .transform import (
    _CHUNK_ELEMENTS,
    forward_pair,
    inverse_pair,
    multiplier_pair,
    pair_multiply,
)

__all__ = ["translate", "translate_rows", "translate_indicator", "convolve"]

# Frequency half-widths, as multiples of the spatial half-width.  Multiplier
# convolutions against indicator windows have slowly decaying spectra whose
# truncation error falls off only like 1/band, so indicator work runs on a 4x
# band; translation and convolution of resolved functions are instead limited
# by frequency-quadrature noise, which grows with the band, so they run on 2x.
# At fixed node count the wider bands cost nothing.
_FUNCTION_BAND = 2.0
_INDICATOR_BAND = 4.0


def _band_grid(grid: Grid, factor: float) -> Grid:
    return make_grid(grid.params, factor * grid.half_width, grid.node_count)


def _parts(f: GridFunction) -> tuple:
    """Real and imaginary parts of f as real grid functions."""
    return GridFunction(f.grid, f.values.real), GridFunction(f.grid, f.values.imag)


def _check_shift(grid: Grid, y: float) -> float:
    y = float(y)
    if not math.isfinite(y):
        raise ValueError("translation offset must be finite")
    if abs(y) > grid.half_width:
        raise ValueError(
            f"translation by {y} leaves the resolved domain [-{grid.half_width}, {grid.half_width}]"
        )
    return y


def ball_multiplier(params: DunklParams, lg: Grid, r: float) -> np.ndarray:
    """Closed-form transform of the ball indicator on the positive frequency half."""
    return ball_measure_origin(params, r) * bessel_normalized(
        params.kappa + 1.0, lg.positive_nodes * float(r)
    )


def _row_chunk(grid: Grid) -> int:
    """Offsets per row chunk: a chunk of translates holds at most
    _CHUNK_ELEMENTS values."""
    return max(1, _CHUNK_ELEMENTS // grid.node_count)


def translate_rows(f: GridFunction, ys) -> np.ndarray:
    """Translates of real f by every offset in ys, stacked one row per offset.

    Every offset is checked before any work; f is transformed once, and the
    multipliers and the inverse run per row chunk (see `_row_chunk`).
    """
    grid = f.grid
    ya = np.asarray([_check_shift(grid, y) for y in ys], dtype=float)
    if not ya.size:
        raise ValueError("no translation offsets given")
    if not f.is_real:
        raise ValueError("stacked translation expects real samples")
    params = grid.params
    lg = _band_grid(grid, _FUNCTION_BAND)
    u, v = forward_pair(params, grid, lg, f.values)
    out = np.empty((ya.size, grid.node_count))
    step = _row_chunk(grid)
    for i in range(0, ya.size, step):
        a, b = multiplier_pair(params, lg, ya[i : i + step])
        out[i : i + step] = inverse_pair(params, lg, grid, *pair_multiply(u, v, a, b))
    return out


def translate(f: GridFunction, y: float) -> GridFunction:
    """Generalized translation by y, spectrally.

    Real input yields real output: the symmetric fold of the quadrature keeps
    the imaginary round-trip residue at exactly zero, which tightens the
    contract that it must stay below 1e-8 * sup|f| before being discarded.
    Complex input is translated by linearity, one real part at a time.
    """
    if not f.is_real:
        re, im = _parts(f)
        return translate(re, y) + 1j * translate(im, y)
    return GridFunction(f.grid, translate_rows(f, [y])[0])


def translate_indicator(params: DunklParams, y: float, r: float, grid: Grid) -> GridFunction:
    """Translated ball indicator tau_y chi_{B_r}, clamped to [0, 1] and zeroed
    outside its support annulus {max(0, |y|-r) < |x| < |y|+r}.

    Pointwise caveat: on the few nodes nearest the origin the band-limited
    reconstruction does not settle (the inversion integrand fails to decay at
    the measure's degenerate point for kappa > 0), so values there can be off
    by order one.  Those nodes carry measure O(|x|**(2*kappa+1)) and do not
    move any integrated quantity; window masses stay accurate.
    """
    rows = translate_indicator_rows(params, [y], r, grid)
    return GridFunction(grid, rows[0])


def translate_indicator_rows(params: DunklParams, ys, r: float, grid: Grid) -> np.ndarray:
    """Stacked translated ball indicators, one row per offset in ys."""
    r = _check_radius(r)
    lg = _band_grid(grid, _INDICATOR_BAND)
    m = ball_multiplier(params, lg, r)
    ya = np.asarray([_check_shift(grid, y) for y in ys], dtype=float)
    a, b = kernel_pair(params, np.outer(ya, lg.positive_nodes))
    raw = inverse_pair(params, lg, grid, m * a, m * b)
    np.clip(raw, 0.0, 1.0, out=raw)
    absx = np.abs(grid.nodes)
    lo = np.maximum(0.0, np.abs(ya) - r)[:, None]
    hi = (np.abs(ya) + r)[:, None]
    raw[(absx <= lo) | (absx >= hi)] = 0.0
    return raw


def ball_convolutions(f: GridFunction, radii) -> np.ndarray:
    """(f * chi_{B_r}) for each r in radii, stacked rows, via one transform.

    f must be real; rows are clamped at 0 (spectral windows of non-negative
    data may undershoot slightly).
    """
    if not f.is_real:
        raise ValueError("ball convolutions expect real samples")
    rr = [float(r) for r in radii]
    if not rr:
        raise ValueError("no radii given")
    params = f.grid.params
    lg = _band_grid(f.grid, _INDICATOR_BAND)
    u, v = forward_pair(params, f.grid, lg, f.values)
    mult = np.stack([ball_multiplier(params, lg, r) for r in rr])
    out = inverse_pair(params, lg, f.grid, mult * u, mult * v)
    np.maximum(out, 0.0, out=out)
    return out


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Generalized convolution via multiplication of transforms; complex
    input goes by bilinearity through the real parts."""
    if f.grid != g.grid:
        raise ValueError("convolution requires both functions on the same grid")
    if not (f.is_real and g.is_real):
        (fr, fi), (gr, gi) = _parts(f), _parts(g)
        return convolve(fr, gr) - convolve(fi, gi) + 1j * (convolve(fr, gi) + convolve(fi, gr))
    params = f.grid.params
    lg = _band_grid(f.grid, _FUNCTION_BAND)
    uf, vf = forward_pair(params, f.grid, lg, f.values)
    ug, vg = forward_pair(params, g.grid, lg, g.values)
    out = inverse_pair(params, lg, f.grid, *pair_multiply(uf, vf, ug, vg))
    return GridFunction(f.grid, out)

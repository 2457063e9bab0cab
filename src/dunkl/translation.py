"""Generalized translation and convolution, realized spectrally.

Translation by y multiplies the transform by the kernel factor E(i l y); at
kappa = -1/2 this reduces to the classical shift f(x) -> f(x + y).
Translating one real f by many offsets takes one forward transform of f and
one multiplier row per offset, inverted as stacked rows (a matrix product per
row chunk, not a matrix-vector product per offset); `translate` is that path
with a single offset.  Translated indicators (a row per offset) and ball
convolutions (a row per radius) invert the same way, in the chunks of
`transform.row_chunks`, so no temporary outgrows a kernel-block chunk.
Translated indicators come from one chunk generator,
`_indicator_row_chunks`: per chunk of offsets the multiplier rows E(i l y)
are evaluated once and serve every radius, each radius taking one inverse
of the chunk.  `translate_indicator_rows` is its one-radius case, and the
weak-window workspace of `norms` gathers its windows from the chunks as they
come, without holding a full block of rows.
Ball convolutions take whole stacks of functions on one grid: one forward
matrix product for the stack, the ball multipliers (memoized across calls
per frequency grid and radius, see `ball_multiplier`), and one chunked
inverse over every (function, radius) row.

Convolution multiplies transforms pointwise.  Translated ball indicators use
the closed form of the indicator transform,

    F[chi_{B_r}](l) = mu(B_r) * j_{k+1}(l r),

instead of transforming a sampled indicator, which removes one layer of
sampling error from every windowed quantity built on them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .grid import Grid, GridFunction
from .measure import _check_radius, ball_measure_origin
from .params import DunklParams
from .special import bessel_normalized
from .transform import (
    band_grid,
    forward_pair,
    inverse_pair,
    inverse_rows,
    multiplier_pair,
    pair_multiply,
    row_chunks,
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


# Ball multipliers kept by `ball_multiplier`, least recently used first out.
# A library session sweeps one or two radius grids of about a dozen radii on
# each band grid.  An entry is N/2 floats, 16 KB at N = 4096 (1 MB for the
# bound).
_MULTIPLIER_CACHE = 64


def ball_multiplier(params: DunklParams, lg: Grid, r: float) -> np.ndarray:
    """Closed-form transform of the ball indicator on the positive frequency
    half; computed once per (params, lg, r), kept and returned read-only."""
    return _ball_multiplier(params, lg, float(r))


@functools.lru_cache(maxsize=_MULTIPLIER_CACHE)
def _ball_multiplier(params: DunklParams, lg: Grid, r: float) -> np.ndarray:
    out = ball_measure_origin(params, r) * bessel_normalized(params.kappa + 1.0, lg.positive_nodes * r)
    out.setflags(write=False)
    return out


def translate_rows(f: GridFunction, ys) -> np.ndarray:
    """Translates of real f by every offset in ys, stacked one row per offset.

    Every offset is checked before any work; f is transformed once, and the
    multipliers and the inverse run per row chunk (see `inverse_rows`).
    """
    grid = f.grid
    ya = np.asarray([_check_shift(grid, y) for y in ys], dtype=float)
    if not ya.size:
        raise ValueError("no translation offsets given")
    if not f.is_real:
        raise ValueError("stacked translation expects real samples")
    params = grid.params
    lg = band_grid(grid, _FUNCTION_BAND)
    u, v = forward_pair(params, grid, lg, f.values)
    return inverse_rows(
        params, lg, grid, ya.size, lambda s: pair_multiply(u, v, *multiplier_pair(params, lg, ya[s]))
    )


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
    """Stacked translated ball indicators, one row per offset in ys: the
    one-radius case of `_indicator_row_chunks`."""
    if params.kappa != grid.params.kappa:
        raise ValueError(
            f"indicator kappa {params.kappa:g} differs from the grid's kappa {grid.params.kappa:g}"
        )
    r = _check_radius(r)
    ya = np.asarray([_check_shift(grid, y) for y in ys], dtype=float)
    out = np.empty((ya.size, grid.node_count))
    for s, _, rows in _indicator_row_chunks(params, ya, [r], grid):
        out[s] = rows
    return out


def _indicator_row_chunks(params: DunklParams, ya: np.ndarray, radii, grid: Grid):
    """Translated ball indicators tau_y chi_{B_r} of the checked offsets ya
    for every radius, one chunk of offsets at a time: yields (s, r, rows),
    the rows of the offsets ya[s] at radius r, clamped to [0, 1] and zeroed
    outside their support annuli {max(0, |y|-r) < |x| < |y|+r}.

    The multiplier rows of a chunk are evaluated once and serve every radius,
    times that radius's ball multiplier; each radius then takes one inverse
    of the chunk.  The chunks are those of `row_chunks`, so every matrix
    product has the shape of a chunk of `inverse_rows`."""
    lg = band_grid(grid, _INDICATOR_BAND)
    mults = [(r, ball_multiplier(params, lg, r)) for r in radii]
    absx = np.abs(grid.nodes)
    for s in row_chunks(ya.size, grid):
        ea, eb = multiplier_pair(params, lg, ya[s])
        ay = np.abs(ya[s])[:, None]
        for r, m in mults:
            rows = inverse_pair(params, lg, grid, m * ea, m * eb)
            np.clip(rows, 0.0, 1.0, out=rows)
            rows[(absx <= np.maximum(0.0, ay - r)) | (absx >= ay + r)] = 0.0
            yield s, r, rows


def _ball_convolution_stack(grid: Grid, rows, radii) -> np.ndarray:
    """(f * chi_{B_r}) for every real row f of rows (F, N) sampled on grid and
    every r in radii, stacked as (F, R, N) and clamped at 0.

    The stack, its row length and every radius are checked before any
    transform.  The R ball multipliers are built once, the F rows take one
    forward transform (a matrix product, not F matrix-vector products), and
    the F * R spectra go back through the chunked `inverse_rows`, function by
    function and radius by radius.
    """
    vals = np.asarray(rows)
    if vals.ndim != 2 or not vals.shape[0]:
        raise ValueError("ball convolutions need a non-empty (F, N) stack of rows")
    if np.iscomplexobj(vals):
        raise ValueError("ball convolutions expect real samples")
    if vals.shape[1] != grid.node_count:
        raise ValueError(f"rows of {vals.shape[1]} samples do not match {grid.node_count} grid nodes")
    rr = [float(r) for r in radii]
    if not rr:
        raise ValueError("no radii given")
    params = grid.params
    lg = band_grid(grid, _INDICATOR_BAND)
    mult = np.stack([ball_multiplier(params, lg, r) for r in rr])
    u, v = forward_pair(params, grid, lg, vals)
    nf, nr = vals.shape[0], len(rr)

    def spectra(s):
        fi, ri = np.divmod(np.arange(nf * nr)[s], nr)
        return mult[ri] * u[fi], mult[ri] * v[fi]

    out = inverse_rows(params, lg, grid, nf * nr, spectra)
    np.maximum(out, 0.0, out=out)
    return out.reshape(nf, nr, grid.node_count)


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Generalized convolution via multiplication of transforms; complex
    input goes by bilinearity through the real parts."""
    if f.grid != g.grid:
        raise ValueError("convolution requires both functions on the same grid")
    if not (f.is_real and g.is_real):
        (fr, fi), (gr, gi) = _parts(f), _parts(g)
        return convolve(fr, gr) - convolve(fi, gi) + 1j * (convolve(fr, gi) + convolve(fi, gr))
    params = f.grid.params
    lg = band_grid(f.grid, _FUNCTION_BAND)
    uf, vf = forward_pair(params, f.grid, lg, f.values)
    ug, vg = forward_pair(params, g.grid, lg, g.values)
    out = inverse_pair(params, lg, f.grid, *pair_multiply(uf, vf, ug, vg))
    return GridFunction(f.grid, out)

"""Generalized translation and convolution.

Translation by y multiplies the transform by the kernel factor E(i l y); at
kappa = -1/2 this reduces to the classical shift f(x) -> f(x + y).
`_Translates(grid, rows)` is a stack of real functions to translate: each is
transformed once, when the stack is built, and `rows(which, ys, nodes)`
inverts every chosen (function, offset) spectrum as stacked rows (a matrix
product per row chunk, not a matrix-vector product per offset), at every
node or at the given nodes only.  `translate_rows` is its one-function case
and `translate` that with a single offset.  Ball convolutions (a row per
radius) invert the same way, in the row chunks of `transform.inverse_rows`,
so no temporary outgrows a kernel-block chunk.  They take whole stacks of
functions on one grid: one forward matrix product for the stack, the ball
multipliers (memoized across calls per frequency grid and radius, see
`ball_multiplier`), and one chunked inverse over every (function, radius) row.

Convolution multiplies transforms pointwise.  Ball convolutions use the
closed form of the indicator transform,

    F[chi_{B_r}](l) = mu(B_r) * j_{k+1}(l r),

instead of transforming a sampled indicator, which removes one layer of
sampling error from every windowed quantity built on them.

Translated ball indicators need no transform: in rank one the translate of
a radial function is a positive average, which `_indicator_values` evaluates
in closed form for `translate_indicator`, `translate_indicator_rows` and the
weak-window workspace of `norms`.

`TranslatedBalls`, the windows tau_y chi_{B_r}, has the shape of a
`_windows.WindowGeometry`, so the windowed norms and maximal operators read
them through the same code as the interval windows.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import betainc

from ._windows import WindowGeometry
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
# Rows per chunk of translated indicator rows: of `translate_indicator_rows`,
# and of the window rows of the weak workspace of `norms` and their weak-L1
# statistics.  Chunks keep the temporaries of `_indicator_values` and of the
# weak sort small (1024 dense rows at N = 4096 in one piece raised the peak
# RSS by 197 MB for a 32 MB result).
_INDICATOR_CHUNK_ROWS = 16


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


def _offsets(grid: Grid, ys) -> np.ndarray:
    """The offsets ys as a 1-D array, each checked; at least one."""
    if np.ndim(ys) != 1:
        raise ValueError(f"translation offsets must be a 1-D list, got {np.ndim(ys)}-D")
    ya = np.asarray([_check_shift(grid, y) for y in ys], dtype=float)
    if not ya.size:
        raise ValueError("no translation offsets given")
    return ya


def _real_rows(grid: Grid, rows, what: str) -> np.ndarray:
    """rows as a non-empty real (F, N) stack of samples on grid."""
    vals = np.asarray(rows)
    if vals.ndim != 2 or not vals.shape[0]:
        raise ValueError(f"{what} need a non-empty (F, N) stack of rows")
    if np.iscomplexobj(vals):
        raise ValueError(f"{what} expect real samples")
    if vals.shape[1] != grid.node_count:
        raise ValueError(f"rows of {vals.shape[1]} samples do not match {grid.node_count} grid nodes")
    return vals


def _indices(idx, size: int, what: str) -> np.ndarray:
    """idx as an array of whole indices in [0, size)."""
    ia = np.asarray(idx)
    if ia.ndim != 1 or not ia.size:
        raise ValueError(f"{what} must be a non-empty list of indices")
    if ia.dtype.kind not in "iu" or ia.min() < 0 or ia.max() >= size:
        raise ValueError(f"{what} must be whole indices in [0, {size}), got {ia.tolist()}")
    return ia


class _Translates:
    """Translates of a stack of real rows (F, N) on grid by any offsets.

    Each row takes one forward pair when the stack is built, one function at
    a time (a matrix-vector product, the bits of `translate`'s forward).
    `rows` then inverts every chosen (row, offset) spectrum through one
    chunked `inverse_rows`, building each offset's multipliers once per
    chunk for every row, so no temporary outgrows a chunk.
    """

    def __init__(self, grid: Grid, rows):
        vals = _real_rows(grid, rows, "translates")
        self.grid = grid
        self._lg = band_grid(grid, _FUNCTION_BAND)
        pairs = [forward_pair(grid.params, grid, self._lg, row) for row in vals]
        self._u = np.stack([u for u, _ in pairs])
        self._v = np.stack([v for _, v in pairs])

    def rows(self, which, ys, nodes=None) -> np.ndarray:
        """Translates of the rows which by every offset in ys: (len(which),
        Y, N), or (len(which), Y, len(nodes)) at the nodes indexed by nodes
        only.  Every index and offset is checked before any transform.

        One row by one offset is a one-row inverse (a matrix-vector product),
        as in `translate`.  Stacked full rows have the bits they have in any
        stack whose chunks BLAS multiplies through the same kernel (at
        N = 4096, any chunk of two or more rows); rows at nodes are the full
        rows' values to rounding (see `transform.inverse_pair`).
        """
        grid, lg = self.grid, self._lg
        which = _indices(which, self._u.shape[0], "rows")
        ya = _offsets(grid, ys)
        if nodes is not None:
            nodes = _indices(nodes, grid.node_count, "nodes")
        nf = which.size

        def spectra(s):
            # offset-major rows: a chunk's offsets are one run of ys, whose
            # multipliers it builds once for every row
            yi, fi = np.divmod(np.arange(ya.size * nf)[s], nf)
            a, b = multiplier_pair(grid.params, lg, ya[yi[0] : yi[-1] + 1])
            k = yi - yi[0]
            return pair_multiply(self._u[which[fi]], self._v[which[fi]], a[k], b[k])

        out = inverse_rows(grid.params, lg, grid, ya.size * nf, spectra, nodes)
        return out.reshape(ya.size, nf, -1).swapaxes(0, 1)


def translate_rows(f: GridFunction, ys) -> np.ndarray:
    """Translates of real f by every offset in ys, stacked one row per offset:
    the one-row case of `_Translates`, with every offset checked before f is
    transformed."""
    ya = _offsets(f.grid, ys)
    return _Translates(f.grid, f.values[None, :]).rows([0], ya)[0]


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
    """Translated ball indicator tau_y chi_{B_r} at the nodes of grid, in
    [0, 1] and zero outside its support annulus
    {max(0, |y|-r) < |x| < |y|+r} (see `_indicator_values`)."""
    rows = translate_indicator_rows(params, [y], r, grid)
    return GridFunction(grid, rows[0])


def translate_indicator_rows(params: DunklParams, ys, r: float, grid: Grid) -> np.ndarray:
    """Stacked translated ball indicators, one row per offset in ys, from
    `_indicator_values` at every node, in chunks of _INDICATOR_CHUNK_ROWS
    rows (the values are elementwise, so any chunking gives the same bits)."""
    if params.kappa != grid.params.kappa:
        raise ValueError(
            f"indicator kappa {params.kappa:g} differs from the grid's kappa {grid.params.kappa:g}"
        )
    r = _check_radius(r)
    ya = _offsets(grid, ys)
    out = np.empty((ya.size, grid.node_count))
    for i in range(0, ya.size, _INDICATOR_CHUNK_ROWS):
        k = slice(i, i + _INDICATOR_CHUNK_ROWS)
        out[k] = _indicator_values(params, grid.nodes[None, :], ya[k, None], r)
    return out


def _indicator_values(params: DunklParams, x, y, r: float) -> np.ndarray:
    """tau_y chi_{B_r}(x) at the broadcast points x and offsets y, from the
    rank-one product formula (Rosler, "Bessel-type signed hypergroups on R",
    1995), with c_k = Gamma(k+1) / (sqrt(pi) Gamma(k+1/2)):

        c_k * int_{-1}^{1} 1[x^2 + y^2 + 2xyt < r^2] (1 + t)(1 - t^2)^(k-1/2) dt.

    With a = k + 1/2, T = (r^2 - x^2 - y^2) / (2|xy|) clipped to [-1, 1] and
    u = (1 + T)/2 this is I_u(a, a) -+ c_k (1 - T^2)^a / (2k + 1), minus for
    xy > 0 and plus for xy < 0 (where t -> -t turns t > -T into t < T, so
    the two terms add instead of cancelling), I_u the regularized incomplete
    beta function.  y = 0 gives 1[|x| < r], kappa = -1/2 1[|x + y| < r].
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    ax, ay = np.abs(x), np.abs(y)
    # zero outside the support annulus by the float comparisons of the
    # annulus node ranges, which lay out the weak workspace's columns: on
    # the float ends |x| = |y| -+ r the rounded T leaves up to 3e-7 (kappa 0)
    inside = (ax > np.maximum(0.0, ay - r)) & (ax < ay + r)
    if params.classical:
        return (inside & (np.abs(x + y) < r)).astype(float)
    a = params.kappa + 0.5
    # c_k / (2k + 1)
    c = math.exp(math.lgamma(a + 0.5) - math.lgamma(a)) / (math.sqrt(math.pi) * 2.0 * a)
    xy2 = 2.0 * ax * ay
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip((r * r - x * x - y * y) / xy2, -1.0, 1.0)
    vals = betainc(a, a, 0.5 * (1.0 + t)) - np.sign(x * y) * c * ((1.0 - t) * (1.0 + t)) ** a
    vals = np.where(xy2 > 0.0, vals, x * x + y * y < r * r)
    # the exact values lie in [0, 1]; the difference near T = -1 rounds to
    # -1e-46 (kappa 1.5) and the sum near T = 1 to 1 + 5e-9 (kappa 0)
    return np.where(inside, np.clip(vals, 0.0, 1.0), 0.0)


def _ball_convolution_stack(grid: Grid, rows, radii) -> np.ndarray:
    """(f * chi_{B_r}) for every real row f of rows (F, N) sampled on grid and
    every r in radii, stacked as (F, R, N) and clamped at 0.

    The stack, its row length and every radius are checked before any
    transform.  The R ball multipliers are built once, the F rows take one
    forward transform (a matrix product, not F matrix-vector products), and
    the F * R spectra go back through the chunked `inverse_rows`, function by
    function and radius by radius.
    """
    vals = _real_rows(grid, rows, "ball convolutions")
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


class TranslatedBalls:
    """The windows tau_y chi_{B_r} at every node y of grid, with the members
    of `_windows.WindowGeometry` that the profile stacks and maximal
    functions read."""

    def __init__(self, grid: Grid):
        self.grid = grid

    def masses(self, rows, radii) -> np.ndarray:
        """(f * chi_{B_r})(y) for every row f and radius r: (F, R, N)."""
        return _ball_convolution_stack(self.grid, rows, radii)

    def maxima(self, rows, radii) -> np.ndarray:
        """Maxima of every row over the support annulus of each window: (F, R, N)."""
        annuli = WindowGeometry.annulus(self.grid)
        return annuli.unfold(annuli.maxima(rows, radii))

    def measure(self, r: float) -> float:
        """mu(B_r), the same at every center."""
        return ball_measure_origin(self.grid.params, r)

    def unfold(self, arr: np.ndarray) -> np.ndarray:
        """The identity: the windows are centered at every node."""
        return arr


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

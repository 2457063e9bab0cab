"""Forward and inverse integral transform on grid functions.

The transform of f is F(l) = integral of E(-i l x) f(x) against the weight
measure; the inverse uses E(+i l x) with the same measure on the frequency
grid and unit constant (validated by the classical limit and by round trips).

Everything is evaluated by direct quadrature, organized for speed on a single
core: the kernel splits into an even part j_k(lx) and an odd part
(lx/(2k+2)) j_{k+1}(lx), so only two real half-grid matrices are needed per
(kappa, grid) pair.  They are cached behind a lock (all public functions stay
pure and reentrant), and all transforms reduce to BLAS matrix products;
batched variants accept stacked value arrays.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

import numpy as np

from .grid import Grid, GridFunction, make_grid
from .params import DunklParams
from .special import kernel_pair

__all__ = ["SpectralFunction", "forward", "inverse", "plancherel_defect"]

# A spectral function is a grid function whose grid samples the frequency axis.
SpectralFunction = GridFunction


def _cache_size() -> int:
    """Kernel-cache capacity in entries from DUNKL_KERNEL_CACHE (default 16)."""
    raw = os.environ.get("DUNKL_KERNEL_CACHE", "16")
    if not raw.strip().isdecimal():
        raise ValueError(f"DUNKL_KERNEL_CACHE must be an integer >= 0, got {raw!r}")
    return int(raw)


_CACHE_SIZE = _cache_size()
# Kernel blocks are built in row chunks of about this many elements, so the
# Bessel temporaries stay small next to the cached blocks themselves.
_CHUNK_ELEMENTS = 1 << 18
_cache: "OrderedDict[tuple, tuple[np.ndarray, np.ndarray]]" = OrderedDict()
_cache_lock = threading.Lock()


def _blocks(params: DunklParams, out_grid: Grid, in_grid: Grid):
    """Half-grid kernel blocks A[j,i] = j_k(p_j q_i) and
    B[j,i] = (p_j q_i)/(2k+2) * j_{k+1}(p_j q_i) for positive nodes p, q."""
    key = (
        params.kappa,
        out_grid.half_width,
        out_grid.node_count,
        in_grid.half_width,
        in_grid.node_count,
    )
    rkey = (params.kappa, key[3], key[4], key[1], key[2])
    with _cache_lock:
        if key in _cache:
            _cache.move_to_end(key)
            return _cache[key]
        if rkey in _cache:
            _cache.move_to_end(rkey)
            a, b = _cache[rkey]
            return a.T, b.T
        # Midpoint grids with equal spacing share their leading positive
        # nodes, so a cached pair on the same spacings with at least as many
        # nodes holds these blocks as its leading sub-blocks.
        m, n = out_grid.node_count // 2, in_grid.node_count // 2
        for ckey, (a, b) in _cache.items():
            k, ow, on, iw, inn = ckey
            if (
                k == params.kappa
                and on // 2 >= m
                and inn // 2 >= n
                and 2.0 * ow / on == out_grid.spacing
                and 2.0 * iw / inn == in_grid.spacing
            ):
                _cache.move_to_end(ckey)
                return a[:m, :n], b[:m, :n]
    p, q = out_grid.positive_nodes, in_grid.positive_nodes
    a = np.empty((m, n))
    b = np.empty((m, n))
    rows = max(1, _CHUNK_ELEMENTS // n)
    for i in range(0, m, rows):
        a[i : i + rows], b[i : i + rows] = kernel_pair(params, np.outer(p[i : i + rows], q))
    with _cache_lock:
        _cache[key] = (a, b)
        while len(_cache) > _CACHE_SIZE:
            _cache.popitem(last=False)
    return a, b


def _split(vals: np.ndarray):
    """Even/odd parts on the positive half; exact on the symmetric grid."""
    half = vals.shape[-1] // 2
    hi = vals[..., half:]
    lo = vals[..., half - 1 :: -1]
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


def _join(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    out = np.concatenate([(even - odd)[..., ::-1], even + odd], axis=-1)
    return out


def _rmatmul(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v @ m with real m, avoiding complex promotion of the cached matrix."""
    if np.iscomplexobj(v):
        return v.real @ m + 1j * (v.imag @ m)
    return v @ m


def _apply_forward(params: DunklParams, xg: Grid, lg: Grid, vals: np.ndarray) -> np.ndarray:
    """Transform values (..., N) sampled on xg to the frequency grid lg."""
    a, b = _blocks(params, lg, xg)
    fe, fo = _split(vals)
    w = 2.0 * xg.positive_weights
    ev = _rmatmul(w * fe, a.T)
    od = _rmatmul(w * fo, b.T)
    return _join(ev, -1j * od)


def _apply_inverse(params: DunklParams, lg: Grid, xg: Grid, fvals: np.ndarray) -> np.ndarray:
    """Invert spectral values (..., N) on lg back to the spatial grid xg."""
    a, b = _blocks(params, lg, xg)
    fe, fo = _split(fvals)
    w = 2.0 * lg.positive_weights
    ev = _rmatmul(w * fe, a)
    od = 1j * _rmatmul(w * fo, b)
    return _join(ev, od)


def forward_pair(params: DunklParams, xg: Grid, lg: Grid, vals: np.ndarray):
    """Fast path for real input: return (U, V) with F(+l) = U + iV on the
    positive frequency half and F(-l) = U - iV.  vals may be stacked."""
    a, b = _blocks(params, lg, xg)
    fe, fo = _split(vals)
    w = 2.0 * xg.positive_weights
    return (w * fe) @ a.T, -((w * fo) @ b.T)


def inverse_pair(params: DunklParams, lg: Grid, xg: Grid, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Invert a conjugate-symmetric spectral pair (U, V) to real samples."""
    a, b = _blocks(params, lg, xg)
    w = 2.0 * lg.positive_weights
    ev = (w * u) @ a
    od = -((w * v) @ b)
    return _join(ev, od)


def multiplier_pair(params: DunklParams, lg: Grid, ys):
    """Translation multipliers E(i l y) as a pair (even, odd) on the positive
    frequency half: one row per offset of an array ys, one vector for a scalar."""
    return kernel_pair(params, np.multiply.outer(np.asarray(ys, dtype=float), lg.positive_nodes))


def pair_multiply(u, v, a, b):
    """(U + iV) * (a + ib) for conjugate-symmetric data and multiplier."""
    return a * u - b * v, b * u + a * v


def _check_compatible(params: DunklParams, other: Grid) -> None:
    if params.kappa != other.params.kappa:
        raise ValueError("spatial and frequency grids use different kappa")


# Default band headroom: frequency grids span this multiple of the spatial
# half-width (at identical node count, so it costs nothing).  Transforms of
# merely-smooth compactly supported functions have slowly decaying spectra,
# and the band truncation error integrated against the weight falls off only
# with the band edge.
DEFAULT_BAND = 4.0


def mirror_grid(g: Grid) -> Grid:
    """Frequency grid mirroring a spatial grid (same half-width and size)."""
    return make_grid(g.params, g.half_width, g.node_count)


def default_frequency_grid(f: GridFunction) -> Grid:
    """Frequency grid for a spatial function: same node count, 4x half-width."""
    g = f.grid
    return make_grid(g.params, DEFAULT_BAND * g.half_width, g.node_count)


def default_spatial_grid(spectral: SpectralFunction) -> Grid:
    """Spatial grid matching a default frequency grid (quarter half-width)."""
    g = spectral.grid
    return make_grid(g.params, g.half_width / DEFAULT_BAND, g.node_count)


def forward(f: GridFunction, lambda_grid: Grid | None = None) -> SpectralFunction:
    """Transform of a grid function; returns complex samples on lambda_grid."""
    lg = lambda_grid if lambda_grid is not None else default_frequency_grid(f)
    _check_compatible(f.grid.params, lg)
    vals = _apply_forward(f.grid.params, f.grid, lg, f.values)
    return GridFunction(lg, vals)


def inverse(spectral: SpectralFunction, x_grid: Grid | None = None) -> GridFunction:
    """Inverse transform back to the spatial grid (unit inversion constant).

    Without an explicit x_grid the output grid undoes the default band
    headroom, so inverse(forward(f)) lands back on the grid of f.
    """
    xg = x_grid if x_grid is not None else default_spatial_grid(spectral)
    _check_compatible(spectral.grid.params, xg)
    vals = _apply_inverse(spectral.grid.params, spectral.grid, xg, spectral.values)
    return GridFunction(xg, vals)


def plancherel_defect(f: GridFunction, lambda_grid: Grid | None = None) -> float:
    """Relative defect | ||F||_2 - ||f||_2 | / ||f||_2 of the discrete isometry."""
    nf = float(np.sqrt(np.sum(f.grid.weights * np.abs(f.values) ** 2)))
    if nf == 0.0:
        raise ValueError("plancherel defect undefined for the zero function")
    spec = forward(f, lambda_grid)
    ns = float(np.sqrt(np.sum(spec.grid.weights * np.abs(spec.values) ** 2)))
    return abs(ns - nf) / nf

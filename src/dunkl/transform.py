"""Forward and inverse integral transform on grid functions.

The transform of f is F(l) = integral of E(-i l x) f(x) against the weight
measure; the inverse uses E(+i l x) with the same measure on the frequency
grid and unit constant (validated by the classical limit and by round trips).

Everything is evaluated by direct quadrature: the kernel splits into an even
part j_k(lx) and an odd part (lx/(2k+2)) j_{k+1}(lx), so only two real
half-grid matrices are needed per pair of grids.  They are cached by kappa
and the two node spacings in a store bounded by bytes (see `_blocks`):
pairs are built one at a time, a hit never waits behind a build, and the
bound holds at every build's peak.  All public functions stay pure and
reentrant, and all transforms reduce to BLAS matrix products, every one
through `_product`.  An even input has an identically zero odd half, and an
odd input a zero even half; the product of such a half is skipped, and its
zeros are those BLAS gives (+0.0, and -0.0 once the odd product is negated),
so the output has the bits of the full computation.
A square block whose two node sets differ by an exact power of two is
exactly symmetric, so it is built from one triangle.  `_build` evaluates a
block in equal row pieces, the jobs of the package's one thread runner
`_threads.run` (the calling thread and, where a second CPU is usable, one
worker), with the same bits at any thread count.

There is one computational path, the real pair: `forward_pair` maps real
samples (stacked rows allowed) to the halves (U, V) of a conjugate-symmetric
spectrum, and `inverse_pair` maps such halves back to real samples.  Complex
data goes through it by linearity, one pair call per real or imaginary part.
Stacked spectra go back through `inverse_rows` in row chunks, at every node
or, with `nodes`, at those nodes only (the products then take only the
block columns of their |node|), and every grid derived from another
(frequency bands and their inverse) through `band_grid`, which keeps the
grids it builds in a bounded memo.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict

import numpy as np

from . import _threads
from .grid import Grid, GridFunction, _midpoints, make_grid
from .params import DunklParams
from .special import kernel_pair

__all__ = ["SpectralFunction", "forward", "inverse", "plancherel_defect"]

# A spectral function is a grid function whose grid samples the frequency axis.
SpectralFunction = GridFunction


# Bytes of the block pairs kept by `_blocks`, least recently used first
# out.  A pair holds two N/2 x N/2 float64 blocks, 64 MiB at N = 4096, so
# the bound holds the three pairs of one kappa of `verify` and one more; a
# single larger pair is still kept, alone.
_KERNEL_CACHE_BYTES = 256 << 20
# Output values per row chunk of `inverse_rows`.
_CHUNK_ELEMENTS = 1 << 18
# Kernel blocks are built in row pieces of at most this many elements (one
# row at least) on either thread.  Nine 2048 x 2048 blocks took 0.93-0.95 s
# on one CPU of a 2-CPU box and 0.57-0.58 s on two in pieces of 2^15; 2^14
# was slower on two CPUs, and 2^16 to 2^18 on either (1.17-1.40 s on one).
_BUILD_PIECE_ELEMENTS = 1 << 15
_cache: "OrderedDict[tuple, tuple[np.ndarray, np.ndarray]]" = OrderedDict()
_cache_lock = threading.Lock()
# Taken by a miss only, always before _cache_lock: pairs are built one at a
# time, and a hit, which takes _cache_lock only, never waits behind a build.
_build_lock = threading.Lock()


def _pair_bytes(blocks) -> int:
    return blocks[0].nbytes + blocks[1].nbytes


def _leading(blocks, m: int, n: int):
    """The leading m x n sub-blocks of a block pair (the pair itself at its
    own size); None if there is no pair or it is smaller."""
    if blocks is None or blocks[0].shape[0] < m or blocks[0].shape[1] < n:
        return None
    a, b = blocks
    return blocks if a.shape == (m, n) else (a[:m, :n], b[:m, :n])


def _power_of_two_multiple(p: np.ndarray, q: np.ndarray) -> bool:
    """Whether p == 2^e * q exactly, entry by entry, for one integer e."""
    if p.shape != q.shape:
        return False
    e = math.frexp(p[0])[1] - math.frexp(q[0])[1]
    return bool(np.array_equal(np.ldexp(q, e), p))


def _build(params: DunklParams, p: np.ndarray, q: np.ndarray):
    """Evaluate the blocks on the positive nodes p (rows) and q (columns),
    in row pieces of at most _BUILD_PIECE_ELEMENTS entries.

    When p == 2^e q exactly (square blocks on midpoint grids whose spacings
    differ by a power of two), fl(p_j q_i) == fl(p_i q_j), so both blocks are
    exactly symmetric: each piece evaluates only its columns from its own
    diagonal on, and once every piece is filled the rest is copied from the
    rows above, which halves the Bessel work and gives the bits of the full
    evaluation.  A mirrored block takes at least eight pieces, even when it
    fits in one, so that at most 9/16 of it is evaluated.  Other blocks
    (another spacing ratio, non-square) evaluate every entry.

    The pieces, then the mirror copies, are the jobs of `_threads.run`, one
    `kernel_pair` call per piece on either thread.  Every entry depends only
    on its own argument (see `special`), so the blocks are the same bits at
    any thread count and any split.  A failure in either thread stops both
    before their next piece and is raised here, after the worker has ended.
    """
    m, n = p.size, q.size
    a = np.empty((m, n))
    b = np.empty((m, n))
    mirror = _power_of_two_multiple(p, q)
    rows = -(-m // 8) if mirror else m
    pieces = []  # (first row, end row, first column)
    i = 0
    while i < m:
        c = i if mirror else 0
        j = min(m, i + max(1, min(rows, _BUILD_PIECE_ELEMENTS // (n - c))))
        pieces.append((i, j, c))
        i = j

    def fill(piece):
        i, j, c = piece
        a[i:j, c:], b[i:j, c:] = kernel_pair(params, np.outer(p[i:j], q[c:]))

    def copy(piece):
        i, j, _ = piece
        a[i:j, :i] = a[:i, i:j].T
        b[i:j, :i] = b[:i, i:j].T

    _threads.run(pieces, fill)
    if mirror:  # every piece is filled: copy the lower triangle of every piece
        _threads.run(pieces[1:], copy)
    return a, b


def _cached(key, m: int, n: int):
    """The leading m x n sub-blocks of the entry of key, marked most recently
    used; None if there is no entry or it does not cover them."""
    with _cache_lock:
        blocks = _leading(_cache.get(key), m, n)
        if blocks is not None:
            _cache.move_to_end(key)
        return blocks


def _blocks(params: DunklParams, out_grid: Grid, in_grid: Grid):
    """Half-grid kernel blocks A[j,i] = j_k(p_j q_i) and
    B[j,i] = (p_j q_i)/(2k+2) * j_{k+1}(p_j q_i) for positive nodes p, q.

    Cached by (kappa, output spacing, input spacing).  Midpoint grids of one
    spacing share their leading positive nodes, so an entry serves every
    leading sub-block; a request it does not cover builds one pair covering
    both, which replaces it.  A hit takes _cache_lock only and never waits
    behind a build.  A miss takes _build_lock, so pairs are built one at a
    time: it looks the key up again (concurrent misses of one key build it
    once, and a miss after a failed build builds the pair itself), drops
    the entry it replaces, then least recently used pairs until the new
    pair fits under _KERNEL_CACHE_BYTES beside the rest, builds and
    inserts.  The bound so holds at every build's peak, under concurrent
    callers too; a single pair larger than the bound is kept, alone."""
    key = (params.kappa, out_grid.spacing, in_grid.spacing)
    m, n = out_grid.node_count // 2, in_grid.node_count // 2
    blocks = _cached(key, m, n)
    if blocks is not None:
        return blocks
    with _build_lock:
        blocks = _cached(key, m, n)
        if blocks is not None:
            return blocks
        with _cache_lock:
            # the new pair covers the entry too, and replaces it
            entry = _cache.pop(key, None)
            shape = (0, 0) if entry is None else entry[0].shape
            rows, cols = max(m, shape[0]), max(n, shape[1])
            used = 16 * rows * cols + sum(map(_pair_bytes, _cache.values()))  # two float64 blocks
            while _cache and used > _KERNEL_CACHE_BYTES:
                used -= _pair_bytes(_cache.popitem(last=False)[1])
        built = _build(params, _midpoints(rows, key[1]), _midpoints(cols, key[2]))
        with _cache_lock:
            _cache[key] = built
    return _leading(built, m, n)


def _split(vals: np.ndarray):
    """Even/odd parts on the positive half; exact on the symmetric grid."""
    half = vals.shape[-1] // 2
    hi = vals[..., half:]
    lo = vals[..., half - 1 :: -1]
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


def _join(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    out = np.concatenate([(even - odd)[..., ::-1], even + odd], axis=-1)
    return out


def _product(x: np.ndarray, block: np.ndarray, cols=None) -> np.ndarray:
    """x @ block, or x @ block[:, cols]: the one product of a kernel block.

    When x has no nonzero entry (the odd half of an even input, say) the
    product is not run and the result is its zeros, +0.0 as BLAS gives them
    (a caller's negation makes them -0.0, as it does BLAS's).  The skip
    takes the whole stack or nothing, so every product that runs keeps its
    shape and its bits."""
    if not np.any(x):
        width = block.shape[1] if cols is None else cols.size
        return np.zeros(x.shape[:-1] + (width,))
    return x @ (block if cols is None else block[:, cols])


def forward_pair(params: DunklParams, xg: Grid, lg: Grid, vals: np.ndarray):
    """Fast path for real input: return (U, V) with F(+l) = U + iV on the
    positive frequency half and F(-l) = U - iV.  vals may be stacked."""
    a, b = _blocks(params, lg, xg)
    fe, fo = _split(vals)
    w = 2.0 * xg.positive_weights
    return _product(w * fe, a.T), -_product(w * fo, b.T)


def inverse_pair(params: DunklParams, lg: Grid, xg: Grid, u, v, nodes=None) -> np.ndarray:
    """Invert a conjugate-symmetric spectral pair (U, V) to real samples, at
    every node of xg, or at the nodes of the index array nodes only.

    With nodes, the products use only the kernel-block columns of the
    distinct |node|, and the even/odd join takes each node's side.  The
    values are the full result's at those nodes to rounding, and bit for
    bit when every column is taken; with fewer columns a BLAS kernel may
    round a column by its place in the product (OpenBLAS does, in the last
    place, at some shapes and BLAS thread counts).
    """
    a, b = _blocks(params, lg, xg)
    w = 2.0 * lg.positive_weights
    if nodes is None:
        return _join(_product(w * u, a), -_product(w * v, b))
    half = xg.node_count // 2
    right = nodes >= half
    cols, at = np.unique(np.where(right, nodes - half, half - 1 - nodes), return_inverse=True)
    ev = _product(w * u, a, cols)[..., at]
    od = (-_product(w * v, b, cols))[..., at]
    return np.where(right, ev + od, ev - od)


def inverse_rows(params: DunklParams, lg: Grid, xg: Grid, count: int, rows, nodes=None) -> np.ndarray:
    """Invert count stacked spectral pairs to real rows; rows(s) gives the
    pair (U, V) of the rows in slice s, made and inverted in row chunks of
    at most _CHUNK_ELEMENTS // N rows.  With nodes (see `inverse_pair`) the
    rows hold those nodes' values only, (count, len(nodes))."""
    out = np.empty((count, xg.node_count if nodes is None else len(nodes)))
    step = max(1, _CHUNK_ELEMENTS // xg.node_count)
    for i in range(0, count, step):
        s = slice(i, i + step)
        out[s] = inverse_pair(params, lg, xg, *rows(s), nodes)
    return out


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


# Band grids kept by `band_grid`, least recently used first out.  A verify
# run or a library session derives a handful; an entry holds the nodes and
# weights of one grid, 64 KB at N = 4096 (1 MB for the bound).
_BAND_GRID_CACHE = 16


def band_grid(grid: Grid, factor: float) -> Grid:
    """The grid of factor times the half-width of grid, at its node count;
    built once per (params, half-width, node count, factor) and kept."""
    return _band_grid(grid.params, grid.half_width, grid.node_count, float(factor))


@functools.lru_cache(maxsize=_BAND_GRID_CACHE)
def _band_grid(params: DunklParams, half_width: float, node_count: int, factor: float) -> Grid:
    return make_grid(params, factor * half_width, node_count)


def forward(f: GridFunction, lambda_grid: Grid | None = None) -> SpectralFunction:
    """Transform of a grid function; returns complex samples on lambda_grid.

    Complex f goes by linearity: one real pair call per real or imaginary part.
    """
    lg = lambda_grid if lambda_grid is not None else band_grid(f.grid, DEFAULT_BAND)
    _check_compatible(f.grid.params, lg)

    def part(vals):
        u, v = forward_pair(f.grid.params, f.grid, lg, vals)
        return _join(u, 1j * v)

    vals = part(f.values.real)
    if not f.is_real:
        vals = vals + 1j * part(f.values.imag)
    return GridFunction(lg, vals)


def inverse(spectral: SpectralFunction, x_grid: Grid | None = None) -> GridFunction:
    """Inverse transform back to the spatial grid (unit inversion constant).

    Without an explicit x_grid the output grid undoes the default band
    headroom, so inverse(forward(f)) lands back on the grid of f.  With even
    part E and odd part O of the spectrum, the real part of the result is the
    pair inverse of (Re E, Im O) and the imaginary part that of (Im E, -Re O).
    """
    xg = x_grid if x_grid is not None else band_grid(spectral.grid, 1.0 / DEFAULT_BAND)
    _check_compatible(spectral.grid.params, xg)
    params, lg = spectral.grid.params, spectral.grid
    even, odd = _split(spectral.values)
    re = inverse_pair(params, lg, xg, even.real, odd.imag)
    im = inverse_pair(params, lg, xg, even.imag, -odd.real)
    return GridFunction(xg, re + 1j * im)


def plancherel_defect(f: GridFunction) -> float:
    """Relative defect | ||F||_2 - ||f||_2 | / ||f||_2 of the discrete isometry."""
    nf = float(np.sqrt(np.sum(f.grid.weights * np.abs(f.values) ** 2)))
    if nf == 0.0:
        raise ValueError("plancherel defect undefined for the zero function")
    spec = forward(f)
    ns = float(np.sqrt(np.sum(spec.grid.weights * np.abs(spec.values) ** 2)))
    return abs(ns - nf) / nf

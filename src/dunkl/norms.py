"""Function-space norms: Lebesgue, weak-L1, translation-averaged amalgams,
their Fofana (radius-scaled supremum) versions, and interval-windowed variants.

For finite q the local amalgam ingredient is the integral of tau_y |f|^q
over the origin ball of radius r, which equals the convolution
(|f|^q * chi_{B_r})(y); it is computed spectrally for all window centers y
at once.  For q = infinity the window statistic is a sliding
maximum over the annular ball B(y, r) in the |x| coordinate.  Interval
variants window with I(y, r) = (y-r, y+r) and need no translation: window
integrals come from prefix sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._windows import LineWindowMass
from .grid import Grid, GridFunction
from .measure import ball_measure_origin, interval_measure
from .translation import _INDICATOR_BAND, ball_convolutions, translate_indicator_rows

__all__ = [
    "NormSpec",
    "default_radius_grid",
    "lp_norm",
    "weak_l1_norm",
    "amalgam_norm_r",
    "fofana_norm",
    "weak_fofana_norm",
    "interval_amalgam_norm_r",
    "interval_fofana_norm",
    "ball_scaled_interval_fofana_norm",
]

INF = math.inf
# Rows per chunk of the windowed weak-L1 statistic.
_WEAK_CHUNK_ROWS = 16


def _inv(p: float) -> float:
    """1/p with the convention 1/inf = 0."""
    return 0.0 if p == INF else 1.0 / p


def _scale_exponent(spec: NormSpec) -> float:
    """theta = 1/alpha - 1/q - 1/p, the exponent of the window measure."""
    return _inv(spec.alpha) - _inv(spec.q) - _inv(spec.p)


def _check_exponent(p: float, name: str = "exponent") -> float:
    p = float(p)
    if p != INF and not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"{name} must lie in [1, inf], got {p}")
    return p


@dataclass(frozen=True)
class NormSpec:
    """Exponent triple (q, p, alpha) with the radius grid for suprema.

    The scaled space is nontrivial only for q <= alpha <= p, so construction
    enforces that ordering.
    """

    q: float
    p: float
    alpha: float
    r_grid: tuple

    def __post_init__(self) -> None:
        q = _check_exponent(self.q, "q")
        p = _check_exponent(self.p, "p")
        alpha = _check_exponent(self.alpha, "alpha")
        if not (q <= alpha <= p):
            raise ValueError(
                f"exponents must satisfy q <= alpha <= p, got q={q}, alpha={alpha}, p={p}"
            )
        rg = tuple(float(r) for r in self.r_grid)
        if not rg:
            raise ValueError("r_grid must be non-empty")
        if any(r <= 0 for r in rg) or any(b <= a for a, b in zip(rg, rg[1:])):
            raise ValueError("r_grid must be strictly increasing and positive")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "r_grid", rg)


def default_radius_grid(grid: Grid, ratio: float = math.sqrt(2.0)) -> tuple:
    """Geometric radius grid used for radius suprema, up to L/2.

    The floor is the larger of 8 grid cells (spatial resolvability) and a
    spectral resolvability bound: window multipliers of radius r decay only
    past frequencies ~1/r, and the truncation junk of rough inputs grows like
    r**-(kappa+3/2) / band, so the usable radius floor scales like
    2**kappa * 8 / band.
    """
    band = _INDICATOR_BAND * grid.half_width
    r_min = max(8.0 * grid.spacing, 8.0 * 2.0**max(grid.params.kappa, 0.0) / band)
    r_max = grid.half_width / 2.0
    if r_min >= r_max:
        return (r_max,)
    out = []
    k = 0
    while True:
        r = r_min * ratio**k
        if r >= r_max * (1.0 - 1e-12):
            out.append(r_max)
            break
        out.append(r)
        k += 1
    return tuple(out)


def lp_norm(f: GridFunction, p: float) -> float:
    """Lebesgue norm against the weight measure; p = inf gives the node max."""
    p = _check_exponent(p, "p")
    a = np.abs(f.values)
    if p == INF:
        return float(np.max(a))
    return float(np.sum(f.grid.weights * a**p) ** (1.0 / p))


def weak_l1_norm(f: GridFunction) -> float:
    """sup of t * mu({|f| >= t}) over the sampled levels t.

    For grid simple functions the supremum of t * mu({|f| > t}) over t > 0 is
    attained in the limit from the left at a sampled level, where the strict
    superlevel set becomes the closed one; the finite maximum below is exact.
    """
    a = np.abs(f.values)
    if not np.any(a > 0.0):
        return 0.0
    order = np.argsort(-a, kind="stable")
    levels = a[order]
    cum = np.cumsum(f.grid.weights[order])
    return float(np.max(levels * cum))


def _range_max(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(vals[lo[k]:hi[k]]) for every k, and 0.0 for an empty window.

    A sparse table: level j holds the maxima of the 2**j-wide windows, and a
    window of width w is covered by the two level-floor(log2 w) windows at its
    two ends.  A maximum of maxima is exact, so this equals the direct loop.
    """
    width = hi - lo
    table = [vals]
    for j in range(1, int(width.max(initial=0)).bit_length()):
        prev, step = table[-1], 2 ** (j - 1)
        # entries past n - 2**j hold partial maxima; they are never read,
        # because no window of width 2**j starts there
        table.append(np.concatenate([np.maximum(prev[:-step], prev[step:]), prev[-step:]]))
    table = np.array(table)
    full = width > 0
    level = np.frexp(width[full])[1] - 1
    out = np.zeros(lo.shape)
    out[full] = np.maximum(table[level, lo[full]], table[level, hi[full] - 2**level])
    return out


def _annulus_sliding_max(f: GridFunction, r: float) -> np.ndarray:
    """u(y) = max of |f| over the annulus {max(0,|y|-r) < |x| < |y|+r}."""
    half = f.grid.node_count // 2
    s = f.grid.positive_nodes
    a = np.abs(f.values)
    g = np.maximum(a[half:], a[half - 1 :: -1])
    lo = np.searchsorted(s, np.maximum(0.0, s - r), side="right")
    hi = np.searchsorted(s, s + r, side="left")
    upos = _range_max(g, lo, hi)
    return np.concatenate([upos[::-1], upos])


def _check_window_radius(grid: Grid, r: float) -> float:
    r = float(r)
    if not (0.0 < r <= grid.half_width / 2.0):
        raise ValueError(
            f"window radius must lie in (0, L/2] = (0, {grid.half_width / 2.0}], got {r}"
        )
    return r


def _amalgam_profiles(f: GridFunction, q: float, radii) -> np.ndarray:
    """Window profiles u_r(y) for each radius, stacked as rows."""
    if q == INF:
        return np.stack([_annulus_sliding_max(f, r) for r in radii])
    fq = GridFunction(f.grid, np.abs(f.values) ** q)
    conv = ball_convolutions(fq, radii)
    return conv ** (1.0 / q)


def amalgam_norm_r(f: GridFunction, q: float, p: float, r: float) -> float:
    """Amalgam norm with window radius r: the L^p size over window centers of
    the local L^q content seen through translated ball windows."""
    q = _check_exponent(q, "q")
    p = _check_exponent(p, "p")
    r = _check_window_radius(f.grid, r)
    u = _amalgam_profiles(f, q, [r])[0]
    return lp_norm(GridFunction(f.grid, u), p)


def fofana_norm(f: GridFunction, spec: NormSpec) -> float:
    """sup over the radius grid of mu(B_r)^(1/alpha - 1/q - 1/p) times the
    r-windowed amalgam norm."""
    radii = [_check_window_radius(f.grid, r) for r in spec.r_grid]
    return _fofana_sup(f.grid, spec, _amalgam_profiles(f, spec.q, radii))


def _fofana_sup(grid: Grid, spec: NormSpec, profiles) -> float:
    """sup over spec.r_grid of mu(B_r)^(1/alpha - 1/q - 1/p) * ||u_r||_p,
    for the window profiles u_r of ``_amalgam_profiles`` at exponent spec.q."""
    theta = _scale_exponent(spec)
    best = 0.0
    for r, u in zip(spec.r_grid, profiles):
        val = ball_measure_origin(grid.params, r) ** theta * lp_norm(GridFunction(grid, u), spec.p)
        best = max(best, val)
    return best


def _weak_rows(rows: np.ndarray, fvals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise weak-L1 norms of f * row."""
    g = np.abs(fvals)[None, :] * rows
    order = np.argsort(-g, axis=1, kind="stable")
    gs = np.take_along_axis(g, order, axis=1)
    cw = np.cumsum(weights[order], axis=1)
    return np.max(gs * cw, axis=1)


def _support_windows(
    rows: np.ndarray,
    weights: np.ndarray,
    nodes: np.ndarray,
    ys: np.ndarray,
    r: float,
) -> tuple:
    """Column windows of rows supported on the annulus
    {max(0,|y|-r) < |x| < |y|+r}: the two intervals (-hi,-lo) and (lo,hi),
    each widened by one node and cut to the grid.

    Returns the column indices of the negative then the positive window,
    padded to a common width, and the rows and the weights gathered on them,
    both zero on the padding.  Every column appears at most once: where the
    widened windows meet (lo below half a cell, e.g. |y| < r), the positive
    one starts where the negative one ends.
    """
    n = nodes.size
    lo = np.maximum(0.0, np.abs(ys) - r)
    hi = np.abs(ys) + r
    a = np.maximum(np.searchsorted(nodes, -hi, side="right") - 1, 0)
    b = np.searchsorted(nodes, -lo, side="left") + 1
    c = np.maximum(np.searchsorted(nodes, lo, side="right") - 1, b)
    d = np.minimum(np.searchsorted(nodes, hi, side="left") + 1, n)
    width = int(max(np.max(b - a), np.max(d - c), 1))
    offs = np.arange(width)
    idx = np.concatenate(
        [np.clip(a[:, None] + offs, 0, n - 1), np.clip(c[:, None] + offs, 0, n - 1)], axis=1
    )
    pad = ~np.concatenate([offs < (b - a)[:, None], offs < (d - c)[:, None]], axis=1)
    wrows = np.take_along_axis(rows, idx, axis=1)
    wrows[pad] = 0.0
    wweights = weights[idx]
    wweights[pad] = 0.0
    return idx, wrows, wweights


def _weak_window_rows(
    absf: np.ndarray, idx: np.ndarray, wrows: np.ndarray, wweights: np.ndarray
) -> np.ndarray:
    """Weak-L1 norms of |f| times each window row of ``_support_windows``.

    Rows are independent, so they are processed in chunks: the sort and
    gather temporaries then stay small enough for the allocator to reuse,
    instead of mapping (and faulting in) fresh pages on every call.
    """
    m, width = idx.shape
    out = np.empty(m)
    for i in range(0, m, _WEAK_CHUNK_ROWS):
        k = slice(i, i + _WEAK_CHUNK_ROWS)
        g = absf[idx[k]] * wrows[k]
        order = np.argsort(-g, axis=1, kind="stable")
        # one flat index gathers both the levels and their weights
        order += np.arange(0, g.size, width)[:, None]
        cw = np.cumsum(wweights[k].ravel()[order], axis=1)
        out[k] = np.max(g.ravel()[order] * cw, axis=1)
    return out


class WeakWindowWorkspace:
    """Support windows of the translated window rows, shared by repeated
    weak-norm evaluations on one grid and radius grid.

    The center variable runs over a symmetric decimated subset of the nodes
    (default: about 512 centers); the outer p-quadrature weights are scaled
    by the stride.  The window statistic varies on the scale of r, which the
    radius grid keeps well above the node spacing, so decimation is a
    controlled discretization of the outer norm.

    For each radius the rows tau_{-y} chi_{B_r} of the positive centers y cost
    one dense product.  Each row is supported on the annulus
    {max(0,|y|-r) < |x| < |y|+r}, so the workspace keeps only its two support
    windows (see ``_support_windows``): their column indices, the row values
    and the weights on them.  The full rows are dropped.  tau_{+y} chi is the
    reflection of tau_{-y} chi, so the centers -y reuse the same windows
    against the reflected samples of |f|; when |f| is mirror-symmetric those
    are the same array, and its statistics are reused exactly.
    """

    def __init__(self, grid: Grid, r_grid, y_stride: int | None = None):
        self.grid = grid
        n = grid.node_count
        half = n // 2
        if y_stride is None:
            y_stride = max(1, n // 512)
        if not isinstance(y_stride, (int, np.integer)) or y_stride < 1:
            raise ValueError(f"y_stride must be an integer >= 1, got {y_stride!r}")
        pos_idx = np.arange(half + y_stride // 2, n, y_stride, dtype=int)
        if pos_idx.size == 0:
            pos_idx = np.array([half], dtype=int)
        self.ypos = grid.nodes[pos_idx]
        self.wdec = grid.weights[pos_idx] * y_stride
        self.radii = tuple(_check_window_radius(grid, r) for r in r_grid)
        self.windows = {
            r: _support_windows(
                translate_indicator_rows(grid.params, -self.ypos, r, grid),
                grid.weights,
                grid.nodes,
                self.ypos,
                r,
            )
            for r in self.radii
        }

    def _statistics(self, absf: np.ndarray) -> list:
        """Per radius, the weak statistics (w_pos, w_neg) of |f| at the
        centers +y and -y."""
        mirrored = absf[::-1]
        symmetric = np.array_equal(absf, mirrored)
        out = []
        for r in self.radii:
            w_pos = _weak_window_rows(absf, *self.windows[r])
            w_neg = w_pos if symmetric else _weak_window_rows(mirrored, *self.windows[r])
            out.append((w_pos, w_neg))
        return out

    def weak_fofana(self, f: GridFunction, pairs) -> list:
        """Weak Fofana norm of f for each (p, alpha) pair, in order, from one
        set of window statistics."""
        checked = []
        for p, alpha in pairs:
            p = _check_exponent(p, "p")
            alpha = _check_exponent(alpha, "alpha")
            if not (1.0 <= alpha <= p):
                raise ValueError(f"need 1 <= alpha <= p, got alpha={alpha}, p={p}")
            checked.append((p, alpha))
        if f.grid != self.grid:
            raise ValueError("function lives on a different grid than the workspace")
        best = [0.0] * len(checked)
        for r, (w_pos, w_neg) in zip(self.radii, self._statistics(np.abs(f.values))):
            mu = ball_measure_origin(self.grid.params, r)
            for j, (p, alpha) in enumerate(checked):
                pref = mu ** (_inv(alpha) - 1.0 - _inv(p))
                if p == INF:
                    val = pref * max(float(np.max(w_pos)), float(np.max(w_neg)))
                else:
                    val = pref * float(
                        (np.sum(self.wdec * w_pos**p) + np.sum(self.wdec * w_neg**p))
                        ** (1.0 / p)
                    )
                best[j] = max(best[j], val)
        return best


def weak_fofana_norm(
    f: GridFunction,
    p: float,
    alpha: float,
    r_grid,
    y_stride: int | None = None,
) -> float:
    """Weak variant at q = 1: the window statistic is the weak-L1 norm of
    f times the translated window indicator, scaled by
    mu(B_r)^(1/alpha - 1 - 1/p); the radius supremum runs over r_grid."""
    return WeakWindowWorkspace(f.grid, r_grid, y_stride).weak_fofana(f, [(p, alpha)])[0]


def _interval_window_lq(f: GridFunction, q: float, r: float) -> np.ndarray:
    """||f chi_{I(y,r)}||_q for every node center y."""
    x = f.grid.nodes
    if q == INF:
        lo = np.searchsorted(x, x - r, side="right")
        hi = np.searchsorted(x, x + r, side="left")
        return _range_max(np.abs(f.values), lo, hi)
    mass = LineWindowMass.line(f.grid, np.abs(f.values) ** q)
    return mass.window(x - r, x + r) ** (1.0 / q)


def interval_amalgam_norm_r(f: GridFunction, q: float, p: float, r: float) -> float:
    """Interval-windowed amalgam: L^p over centers of ||f chi_{I(y,r)}||_q."""
    q = _check_exponent(q, "q")
    p = _check_exponent(p, "p")
    r = _check_window_radius(f.grid, r)
    u = _interval_window_lq(f, q, r)
    return lp_norm(GridFunction(f.grid, u), p)


def _interval_fofana(f: GridFunction, spec: NormSpec, center_weights) -> list:
    """For each center weight, the radius supremum of the L^p size over
    centers y of center_weight(r, mu(I(y,r))) * ||f chi_{I(y,r)}||_q; the
    windows are computed once for all weights."""
    grid = f.grid
    best = [0.0] * len(center_weights)
    for r in spec.r_grid:
        r = _check_window_radius(grid, r)
        local = _interval_window_lq(f, spec.q, r)
        mu_i = interval_measure(grid.params, grid.nodes, r)
        for j, center_weight in enumerate(center_weights):
            val = lp_norm(GridFunction(grid, center_weight(r, mu_i) * local), spec.p)
            best[j] = max(best[j], val)
    return best


def _interval_weight(spec: NormSpec):
    """Center weight mu(I(y,r))^theta of ``interval_fofana_norm``."""
    theta = _scale_exponent(spec)
    return lambda r, mu_i: mu_i**theta


def _ball_scaled_weight(params, spec: NormSpec):
    """Center weight of ``ball_scaled_interval_fofana_norm``."""
    theta = _scale_exponent(spec)
    e = _inv(spec.alpha) - _inv(spec.p)
    return lambda r, mu_i: mu_i**theta * (ball_measure_origin(params, r) / mu_i) ** e


def interval_fofana_norm(f: GridFunction, spec: NormSpec) -> float:
    """Interval-windowed Fofana norm; the measure factor mu(I(y,r))^theta sits
    inside the center integral because it varies with the center."""
    return _interval_fofana(f, spec, (_interval_weight(spec),))[0]


def ball_scaled_interval_fofana_norm(f: GridFunction, spec: NormSpec) -> float:
    """Interval-windowed Fofana norm rescaled to the origin-ball measure of
    the translation norm: the center weight mu(I(y,r))^theta is multiplied by
    (mu(B_r) / mu(I(y,r)))^(1/alpha - 1/p).

    Off the classical parameter mu(I(y,r)) >= mu(B_r) with a ratio growing in
    |y|, so ``interval_fofana_norm`` exceeds the translation norm by a factor
    that grows with the domain whenever alpha < p; this companion removes that
    factor.  It equals ``interval_fofana_norm`` at the classical parameter and
    when alpha = p, and is at most it otherwise.
    """
    return _interval_fofana(f, spec, (_ball_scaled_weight(f.grid.params, spec),))[0]


def _interval_fofana_pair(f: GridFunction, spec: NormSpec) -> tuple:
    """(``interval_fofana_norm``, ``ball_scaled_interval_fofana_norm``) of f,
    equal to the two calls to the bit, from one set of interval windows."""
    return tuple(
        _interval_fofana(
            f, spec, (_interval_weight(spec), _ball_scaled_weight(f.grid.params, spec))
        )
    )

"""Function-space norms: Lebesgue, weak-L1, translation-averaged amalgams,
their Fofana (radius-scaled supremum) versions, and interval-windowed variants.

For finite q the local amalgam ingredient is the integral of tau_y |f|^q
over the origin ball of radius r, which equals the convolution
(|f|^q * chi_{B_r})(y); it is computed spectrally for all window centers y
at once.  The window profiles take a whole stack of functions on one grid
(`_amalgam_profiles`): the stack of |f|^q goes through one stacked ball
convolution for every radius.  `_ProfileStack` keeps them per q, and the
amalgam and Fofana norms of the stack are read from them, the Fofana norms
through `_fofana_sup`.  For q = infinity the window statistic is the
maximum over the annular ball B(y, r), read from the annulus
`_windows.WindowGeometry`.  Interval variants window with
I(y, r) = (y-r, y+r) and need no translation: `_interval_profiles` reads
window integrals (finite q) and window maxima (q = inf) from an interval
`WindowGeometry`, and `_IntervalProfileStack` reads the interval norms from
them.  The geometry keeps the window ends, measures and node ranges per
radius, so a function costs gathers, not a search per window, and one
geometry may serve every stack on its grid.  Every public windowed norm is
the one-row case of its stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._windows import WindowGeometry
from .grid import Grid, GridFunction
from .measure import ball_measure_origin
from .translation import _INDICATOR_BAND, _ball_convolution_stack, _indicator_row_chunks

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


def _check_window_radius(grid: Grid, r: float) -> float:
    r = float(r)
    if not (0.0 < r <= grid.half_width / 2.0):
        raise ValueError(
            f"window radius must lie in (0, L/2] = (0, {grid.half_width / 2.0}], got {r}"
        )
    return r


def _amalgam_profiles(grid: Grid, rows, q: float, radii) -> np.ndarray:
    """Window profiles u_r(y) of every function of a stack rows (F, N) on grid,
    for each radius: shape (F, R, N).  For finite q the stack of |f|^q takes
    one spectral evaluation (see `translation._ball_convolution_stack`).  For
    q = inf, u_r(y) is the maximum of |f| over the annulus
    {max(0,|y|-r) < |x| < |y|+r}, read from the annulus window geometry."""
    a = np.abs(np.asarray(rows))
    if q == INF:
        windows = WindowGeometry.annulus(grid)
        return windows.unfold(windows.maxima(a, radii))
    conv = _ball_convolution_stack(grid, a**q, radii)
    return conv ** (1.0 / q)


def amalgam_norm_r(f: GridFunction, q: float, p: float, r: float) -> float:
    """Amalgam norm with window radius r: the L^p size over window centers of
    the local L^q content seen through translated ball windows."""
    q = _check_exponent(q, "q")
    p = _check_exponent(p, "p")
    return _ProfileStack(f.grid, f.values[None, :], [r]).amalgam(q, p, r)[0]


def fofana_norm(f: GridFunction, spec: NormSpec) -> float:
    """sup over the radius grid of mu(B_r)^(1/alpha - 1/q - 1/p) times the
    r-windowed amalgam norm."""
    return _ProfileStack(f.grid, f.values[None, :], spec.r_grid).fofana(spec)[0]


class _ProfileStack:
    """Window profiles of a stack of functions rows (F, N) on grid, evaluated
    once per exponent q over one list of window radii, from which the
    amalgam and Fofana norms of every function of the stack at that q are
    read; the radii must be window radii in (0, L/2].  q = inf profiles
    are sliding maxima, not spectral, and are evaluated at the radii asked
    for."""

    def __init__(self, grid: Grid, rows, radii):
        self.grid = grid
        self.rows = rows
        self.radii = sorted({_check_window_radius(grid, r) for r in radii})
        self._by_q = {}

    def _profiles(self, q: float, radii) -> np.ndarray:
        return _amalgam_profiles(self.grid, self.rows, q, radii)

    def at(self, q: float, radii) -> np.ndarray:
        """Profiles (F, len(radii), N) at exponent q."""
        if q == INF:
            return self._profiles(q, radii)
        if q not in self._by_q:
            self._by_q[q] = self._profiles(q, self.radii)
        return self._by_q[q][:, [self.radii.index(float(r)) for r in radii]]

    def amalgam(self, q: float, p: float, r: float) -> list:
        """``amalgam_norm_r`` of every function of the stack."""
        return [lp_norm(GridFunction(self.grid, u[0]), p) for u in self.at(q, [r])]

    def fofana(self, spec: NormSpec) -> list:
        """``fofana_norm`` of every function of the stack."""
        return [_fofana_sup(self.grid, spec, u) for u in self.at(spec.q, spec.r_grid)]


def _fofana_sup(grid: Grid, spec: NormSpec, profiles) -> float:
    """sup over spec.r_grid of mu(B_r)^(1/alpha - 1/q - 1/p) * ||u_r||_p,
    for the window profiles u_r of one function (a row of
    ``_amalgam_profiles`` at exponent spec.q)."""
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


def _support_columns(nodes: np.ndarray, ys: np.ndarray, r: float) -> tuple:
    """Column windows of rows supported on the annuli
    {max(0,|y|-r) < |x| < |y|+r} of the centers ys: the two intervals
    (-hi,-lo) and (lo,hi), each widened by one node and cut to the grid.

    Returns the column indices of the negative then the positive window,
    padded to a common width, and the mask of the padding.  Every column
    appears at most once: where the widened windows meet (lo below half a
    cell, e.g. |y| < r), the positive one starts where the negative one
    ends.
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
    return idx, pad


def _weak_window_rows(
    absf: np.ndarray, idx: np.ndarray, wrows: np.ndarray, wweights: np.ndarray
) -> np.ndarray:
    """Weak-L1 norms of |f| times each window row of a workspace, given by
    its columns idx, its values wrows and its weights wweights (the last two
    zero on the padding of ``_support_columns``).

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

    The rows tau_{-y} chi_{B_r} of the positive centers y are made in one
    pass over chunks of centers (``translation._indicator_row_chunks``): the
    multiplier rows of a chunk are evaluated once for every radius, and each
    radius costs one dense product per chunk.  Each row is supported on the
    annulus {max(0,|y|-r) < |x| < |y|+r}, so the workspace keeps only its two
    support windows (see ``_support_columns``), laid out from (y, r) before
    any row is made: their column indices, the row values and the weights on
    them.  Each chunk is gathered into them and dropped, so no full block of
    rows is ever held.  tau_{+y} chi is the reflection of tau_{-y} chi, so
    the centers -y reuse the same windows against the reflected samples of
    |f|; when |f| is mirror-symmetric those are the same array, and its
    statistics are reused exactly.
    """

    def __init__(self, grid: Grid, r_grid, y_stride: int | None = None):
        self.grid = grid
        n = grid.node_count
        half = n // 2
        if y_stride is None:
            y_stride = max(1, n // 512)
        if not isinstance(y_stride, (int, np.integer)) or y_stride < 1:
            raise ValueError(f"y_stride must be an integer >= 1, got {y_stride!r}")
        if y_stride >= n:
            raise ValueError(
                f"y_stride {y_stride} leaves no center on {n} nodes; "
                f"the largest valid stride is {n - 1}"
            )
        pos_idx = np.arange(half + y_stride // 2, n, y_stride, dtype=int)
        self.ypos = grid.nodes[pos_idx]
        self.wdec = grid.weights[pos_idx] * y_stride
        self.radii = tuple(_check_window_radius(grid, r) for r in r_grid)
        columns = {r: _support_columns(grid.nodes, self.ypos, r) for r in self.radii}
        wrows = {r: np.empty(idx.shape) for r, (idx, _) in columns.items()}
        for s, r, rows in _indicator_row_chunks(grid.params, -self.ypos, list(columns), grid):
            idx, pad = columns[r]
            wrows[r][s] = np.take_along_axis(rows, idx[s], axis=1)
            wrows[r][s][pad[s]] = 0.0
        # the weights come last: made before the chunks, they would sit under
        # the chunk temporaries and raise the peak RSS
        self.windows = {}
        for r, (idx, pad) in columns.items():
            wweights = grid.weights[idx]
            wweights[pad] = 0.0
            self.windows[r] = (idx, wrows[r], wweights)

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


def _interval_profiles(windows: WindowGeometry, rows, q: float, radii) -> np.ndarray:
    """Interval-window profiles ||f chi_{I(y,r)}||_q of every function of a
    stack rows (F, N) on the grid of the interval geometry windows at every
    node center y, for each radius: shape (F, R, N).  For finite q they are
    the window masses of |f|^q, for q = inf the window maxima of |f|."""
    a = np.abs(np.asarray(rows))
    if q == INF:
        return windows.maxima(a, radii)
    return windows.masses(a**q, radii) ** (1.0 / q)


class _IntervalProfileStack(_ProfileStack):
    """A profile stack windowed by the metric intervals I(y, r): its
    amalgam norms are ``interval_amalgam_norm_r`` and its Fofana norms
    ``interval_fofana_norm`` of every function of the stack.  The interval
    geometry windows serves the profiles of every q and the center weights,
    and may serve other stacks on its grid."""

    def __init__(self, windows: WindowGeometry, rows, radii):
        super().__init__(windows.grid, rows, radii)
        self.windows = windows

    def _profiles(self, q: float, radii) -> np.ndarray:
        return _interval_profiles(self.windows, self.rows, q, radii)

    def fofana(self, spec: NormSpec, ball_scaled: bool = False) -> list:
        """sup over spec.r_grid of ||w_r u_r||_p for the interval profiles
        u_r at spec.q, with the center weight w_r = mu(I(y,r))^theta, which
        ball_scaled multiplies by (mu(B_r) / mu(I(y,r)))^(1/alpha - 1/p)."""
        grid = self.grid
        theta = _scale_exponent(spec)
        e = _inv(spec.alpha) - _inv(spec.p)
        weights = []
        for r in spec.r_grid:
            mu_i = self.windows.measure(r)
            w = mu_i**theta
            if ball_scaled:
                w = w * (ball_measure_origin(grid.params, r) / mu_i) ** e
            weights.append(w)
        return [
            max([0.0] + [lp_norm(GridFunction(grid, w * v), spec.p) for w, v in zip(weights, u)])
            for u in self.at(spec.q, spec.r_grid)
        ]


def interval_amalgam_norm_r(f: GridFunction, q: float, p: float, r: float) -> float:
    """Interval-windowed amalgam: L^p over centers of ||f chi_{I(y,r)}||_q."""
    q = _check_exponent(q, "q")
    p = _check_exponent(p, "p")
    stack = _IntervalProfileStack(WindowGeometry.interval(f.grid), f.values[None, :], [r])
    return stack.amalgam(q, p, r)[0]


def interval_fofana_norm(f: GridFunction, spec: NormSpec) -> float:
    """Interval-windowed Fofana norm; the measure factor mu(I(y,r))^theta sits
    inside the center integral because it varies with the center."""
    stack = _IntervalProfileStack(WindowGeometry.interval(f.grid), f.values[None, :], spec.r_grid)
    return stack.fofana(spec)[0]


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
    stack = _IntervalProfileStack(WindowGeometry.interval(f.grid), f.values[None, :], spec.r_grid)
    return stack.fofana(spec, ball_scaled=True)[0]

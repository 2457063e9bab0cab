"""Function-space norms: Lebesgue, weak-L1, translation-averaged amalgams,
their Fofana (radius-scaled supremum) versions, and interval-windowed variants.

Every windowed norm is read from the profiles of one window family: the
translated balls tau_y chi_{B_r} at every node y
(`translation.TranslatedBalls`), or the metric intervals I(y, r) =
(y-r, y+r) (`_windows.WindowGeometry.interval`).  The profile of a function
at radius r is ||f chi_W||_q over the window W of each center: for finite q
the window masses of |f|^q, which for the translated balls are the ball
convolutions (|f|^q * chi_{B_r})(y), computed spectrally for a whole stack
of functions and every radius at once, and for the intervals exact prefix-sum
window integrals; for q = inf the window maxima of |f|, over the support
annuli B(y, r) of the translated balls or over the intervals.  `_profiles`
evaluates them and `_ProfileStack` keeps them per q and radius, and the
amalgam and Fofana norms and the maximal functions of the stack are read
from them, the Fofana norms with the
window measure mu(W_r)^theta: a scalar mu(B_r) for the translated balls,
which multiplies the L^p norm, and one per center for the intervals, which
goes inside it.  Every L^p norm over the nodes, of one function (`lp_norm`)
or of every profile row of a stack, is one row-wise reduction, `_lebesgue`.
The interval geometry keeps the window ends, measures and node ranges per
radius, so a function costs gathers, not a search per window, and one
geometry may serve every stack on its grid.  Every public
windowed norm is the one-row case of its stack.  The weak variant reads
weak-L1 statistics of |f| against translated ball indicators, evaluated in
closed form (`translation._indicator_values`) only on their support columns
(`WeakWindowWorkspace`), which are the node ranges of the annulus geometry
at the window centers.  Its statistics are one job per radius and side,
shared by the calling thread and at most one worker through the package's
one thread runner (`_threads.run`), with the same bits at any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _threads
from ._windows import WindowGeometry
from .grid import Grid, GridFunction
from .maximal import _checked_radii, _sup_of_averages
from .measure import ball_measure_origin
from .translation import _INDICATOR_BAND, _INDICATOR_CHUNK_ROWS, TranslatedBalls, _indicator_values

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
# The weak statistic takes every max(1, N // _WEAK_CENTERS)-th positive node
# of an N-node grid as a center: about _WEAK_CENTERS centers in all.
_WEAK_CENTERS = 512


def _inv(p: float) -> float:
    """1/p with the convention 1/inf = 0."""
    return 0.0 if p == INF else 1.0 / p


def _scale_exponent(q: float, p: float, alpha: float) -> float:
    """theta = 1/alpha - 1/q - 1/p, the exponent of the window measure."""
    return _inv(alpha) - _inv(q) - _inv(p)


def _check_exponent(p: float, name: str = "exponent") -> float:
    p = float(p)
    if p != INF and not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"{name} must lie in [1, inf], got {p}")
    return p


def _check_triple(q: float, p: float, alpha: float) -> tuple:
    """(q, p, alpha) as floats, each in [1, inf]; the scaled space is
    nontrivial only for q <= alpha <= p, so that ordering is enforced."""
    q, p, alpha = _check_exponent(q, "q"), _check_exponent(p, "p"), _check_exponent(alpha, "alpha")
    if not (q <= alpha <= p):
        raise ValueError(f"exponents must satisfy q <= alpha <= p, got q={q}, alpha={alpha}, p={p}")
    return q, p, alpha


@dataclass(frozen=True)
class NormSpec:
    """Exponent triple (q, p, alpha), checked by `_check_triple`, with the
    finite, positive, strictly increasing radius grid for suprema."""

    q: float
    p: float
    alpha: float
    r_grid: tuple

    def __post_init__(self) -> None:
        q, p, alpha = _check_triple(self.q, self.p, self.alpha)
        rg = tuple(float(r) for r in self.r_grid)
        if not rg:
            raise ValueError("r_grid must be non-empty")
        if not all(0.0 < r < INF for r in rg) or any(b <= a for a, b in zip(rg, rg[1:])):
            raise ValueError(f"r_grid must be finite, positive and strictly increasing, got {rg}")
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
    if not 1.0 < ratio < math.inf:
        raise ValueError(f"radius grid ratio must be finite and > 1, got {ratio}")
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


def _lebesgue(weights: np.ndarray, rows, p: float) -> np.ndarray:
    """Lebesgue norm against the node weights of every row of a stack rows
    (..., N), along its last axis: shape (...).  p = inf gives each row's
    max.  Each row is summed as a row of its own, and each root is a scalar
    power per value, so a row has the bits of its one-row case in any
    stack.  A non-finite value raises the `ValueError` of `GridFunction`."""
    rows = np.ascontiguousarray(rows)
    if not np.all(np.isfinite(rows)):
        raise ValueError("values must be finite")
    p = _check_exponent(p, "p")
    a = np.abs(rows)
    if p == INF:
        return np.max(a, axis=-1)
    # in place: a stack's temporaries are large, and each fresh one is
    # faulted in page by page.  A power past the float range makes an inf
    # norm, also where its weight is 0 (inf * 0, the one NaN a sum can hold)
    with np.errstate(over="ignore", invalid="ignore"):
        a **= p
        a *= weights
        sums = np.sum(a, axis=-1)
    sums = np.where(np.isnan(sums), INF, sums)
    return np.reshape([s ** (1.0 / p) for s in sums.ravel()], sums.shape)


def lp_norm(f: GridFunction, p: float) -> float:
    """Lebesgue norm against the weight measure; p = inf gives the node max.
    The one-row case of `_lebesgue`."""
    return float(_lebesgue(f.grid.weights, f.values, p))


def weak_l1_norm(f: GridFunction) -> float:
    """sup of t * mu({|f| >= t}) over the sampled levels t.

    For grid simple functions the supremum of t * mu({|f| > t}) over t > 0 is
    attained in the limit from the left at a sampled level, where the strict
    superlevel set becomes the closed one; the finite maximum is exact.
    """
    return float(_weak_l1_rows(np.abs(f.values)[None], f.grid.weights[None])[0])


def _check_window_radius(grid: Grid, r: float) -> float:
    """r as a float in (0, L/2] whose origin ball has a positive measure."""
    r = float(r)
    if not (0.0 < r <= grid.half_width / 2.0):
        raise ValueError(
            f"window radius must lie in (0, L/2] = (0, {grid.half_width / 2.0}], got {r}"
        )
    if ball_measure_origin(grid.params, r) == 0.0:
        raise ValueError(f"radius {r} is too small: its ball measure is 0")
    return r


def _profiles(windows, rows, q: float, radii) -> np.ndarray:
    """Window profiles u_r(y) = ||f chi_W||_q of every function of a stack
    rows (F, N) on the grid of the window family windows (a
    `translation.TranslatedBalls` or a `_windows.WindowGeometry`), for each
    radius: shape (F, R, N).  For finite q they are the window masses of
    |f|^q, for q = inf the window maxima of |f|."""
    a = np.abs(np.asarray(rows))
    if q == INF:
        return windows.unfold(windows.maxima(a, radii))
    return windows.unfold(windows.masses(a**q, radii)) ** (1.0 / q)


def amalgam_norm_r(f: GridFunction, q: float, p: float, r: float) -> float:
    """Amalgam norm with window radius r: the L^p size over window centers of
    the local L^q content seen through translated ball windows."""
    q = _check_exponent(q, "q")
    p = _check_exponent(p, "p")
    return _ProfileStack(TranslatedBalls(f.grid), f.values[None, :]).amalgam(q, p, r)[0]


def fofana_norm(f: GridFunction, spec: NormSpec) -> float:
    """sup over the radius grid of mu(B_r)^(1/alpha - 1/q - 1/p) times the
    r-windowed amalgam norm."""
    return _ProfileStack(TranslatedBalls(f.grid), f.values[None, :]).fofana(spec)[0]


class _ProfileStack:
    """Window profiles of a stack of functions rows (F, N) through one window
    family windows (see `_profiles`), kept per exponent q and window radius,
    from which the amalgam and Fofana norms and the maximal function of
    every function of the stack are read; the radii must be window radii in
    (0, L/2]."""

    def __init__(self, windows, rows):
        self.windows = windows
        self.grid = windows.grid
        self.rows = rows
        self._by_q = {}

    def at(self, q: float, radii) -> np.ndarray:
        """Profiles (F, len(radii), N) at exponent q, C-contiguous.  The
        radii not yet kept at q are evaluated as one stack and kept."""
        radii = [_check_window_radius(self.grid, r) for r in radii]
        kept = self._by_q.setdefault(q, {})
        missing = [r for r in dict.fromkeys(radii) if r not in kept]
        if missing:
            kept.update(zip(missing, np.moveaxis(_profiles(self.windows, self.rows, q, missing), 1, 0)))
        return np.stack([kept[r] for r in radii], axis=1)

    def maximal(self, rho_grid) -> np.ndarray:
        """The maximal function (F, N) of every function of the stack over
        the radii rho_grid: the sup of its q = 1 profiles over the window
        measures, by the reduction of `maximal._window_maximal`."""
        rhos, measures = _checked_radii(rho_grid, self.windows.measure)
        return _sup_of_averages(self.at(1.0, rhos), measures)

    def amalgam(self, q: float, p: float, r: float) -> list:
        """The amalgam norm at window radius r of every function of the stack."""
        return _lebesgue(self.grid.weights, self.at(q, [r])[:, 0], p).tolist()

    def fofana(self, spec: NormSpec, ball_scaled: bool = False) -> list:
        """sup over spec.r_grid of the L^p norm of w_r u_r for the profiles
        u_r at spec.q, with the weight w_r = mu(W_r)^theta of the window
        measure, which ball_scaled multiplies by
        (mu(B_r) / mu(W_r))^(1/alpha - 1/p).  A scalar weight (translated
        balls) multiplies the norm, a weight per center goes inside it."""
        u = self.at(spec.q, spec.r_grid)  # checks the radii first
        theta = _scale_exponent(spec.q, spec.p, spec.alpha)
        e = _inv(spec.alpha) - _inv(spec.p)
        weights = []
        for r in spec.r_grid:
            mu = self.windows.measure(r)
            w = mu**theta
            if ball_scaled:
                w = w * (ball_measure_origin(self.grid.params, r) / mu) ** e
            weights.append(w)
        w = np.array(weights)  # (R,) for a scalar weight, (R, N) for one per center
        if w.ndim == 1:
            norms = w * _lebesgue(self.grid.weights, u, spec.p)
        else:
            norms = _lebesgue(self.grid.weights, w * u, spec.p)
        return [max([0.0, *row]) for row in norms.tolist()]


def _support_columns(annuli: WindowGeometry, centers: np.ndarray, r: float) -> tuple:
    """Column indices of the translated indicator rows at the positive nodes
    of annuli with indices centers, at radius r, and the mask of their
    padding: each annulus node range mirrored onto the negative nodes, then
    the range itself, padded to a common width.  These are the columns that
    `translation._indicator_values` does not set to zero, each once."""
    half = annuli.grid.node_count // 2
    lo, hi = (a[centers] for a in annuli.node_ranges(r))
    offs = np.arange(max(int(np.max(hi - lo)), 1))
    idx = np.concatenate(
        [half - hi[:, None] + offs, np.minimum(half + lo[:, None] + offs, 2 * half - 1)], axis=1
    )
    return idx, np.tile(offs >= (hi - lo)[:, None], 2)


def _weak_l1_rows(levels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sup_t t * w({levels >= t}) of each row of levels (M, W) >= 0 against
    the weights (M, W) of that row: a stable descending sort of the row,
    then cumulative weights.  ``weak_l1_norm`` is its one-row case."""
    order = np.argsort(-levels, axis=1, kind="stable")
    # one flat index gathers both the levels and their weights
    order += np.arange(0, levels.size, levels.shape[1])[:, None]
    cw = np.cumsum(weights.ravel()[order], axis=1)
    return np.max(levels.ravel()[order] * cw, axis=1)


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
    m = idx.shape[0]
    out = np.empty(m)
    for i in range(0, m, _INDICATOR_CHUNK_ROWS):
        k = slice(i, i + _INDICATOR_CHUNK_ROWS)
        out[k] = _weak_l1_rows(absf[idx[k]] * wrows[k], wweights[k])
    return out


class WeakWindowWorkspace:
    """Support windows of the translated window rows, shared by repeated
    weak-norm evaluations on one grid and radius grid.

    The center variable runs over a symmetric decimated subset of the nodes
    (about _WEAK_CENTERS centers); the outer p-quadrature weights are scaled
    by the stride.  The window statistic varies on the scale of r, which the
    radius grid keeps well above the node spacing, so decimation is a
    controlled discretization of the outer norm.

    The rows tau_{-y} chi_{B_r} of the positive centers y are supported on
    the annuli {max(0,|y|-r) < |x| < |y|+r}, so the workspace keeps only
    their two support windows, the node ranges of the annulus window
    geometry at y (``_support_columns``): their column indices, the row
    values (``translation._indicator_values``, evaluated there alone, in
    chunks of _INDICATOR_CHUNK_ROWS rows) and the weights on them.
    tau_{+y} chi is the reflection of tau_{-y} chi, so the centers -y reuse
    the same windows against the reflected samples of |f|; when |f| is
    mirror-symmetric those are the same array, and its statistics are
    reused exactly.  The statistics run on the calling thread and at most
    one worker (`_threads.run`), with the same bits at any thread count.
    """

    def __init__(self, grid: Grid, r_grid):
        self.grid = grid
        n = grid.node_count
        half = n // 2
        stride = max(1, n // _WEAK_CENTERS)
        pos_idx = np.arange(half + stride // 2, n, stride, dtype=int)
        self.ypos = grid.nodes[pos_idx]
        self.wdec = grid.weights[pos_idx] * stride
        self.radii = tuple(_check_window_radius(grid, r) for r in r_grid)
        if not self.radii:
            raise ValueError("r_grid must be non-empty")
        annuli = WindowGeometry.annulus(grid)
        self.windows = {}
        for r in self.radii:
            idx, pad = _support_columns(annuli, pos_idx - half, r)
            vals = np.empty(idx.shape)
            for i in range(0, idx.shape[0], _INDICATOR_CHUNK_ROWS):
                s = slice(i, i + _INDICATOR_CHUNK_ROWS)
                vals[s] = _indicator_values(grid.params, grid.nodes[idx[s]], -self.ypos[s, None], r)
            wweights = grid.weights[idx]
            vals[pad] = wweights[pad] = 0.0
            self.windows[r] = (idx, vals, wweights)

    def _statistics(self, absf: np.ndarray) -> list:
        """Per radius, the weak statistics (w_pos, w_neg) of |f| at the
        centers +y and -y: one job per radius and side (one side for a
        mirror-symmetric |f|), largest radius (widest windows) first, so
        that both threads finish together."""
        mirrored = absf[::-1]
        sides = (absf,) if np.array_equal(absf, mirrored) else (absf, mirrored)
        stats = {}

        def job(key):
            r, side = key
            stats[key] = _weak_window_rows(sides[side], *self.windows[r])

        radii = sorted(self.windows, reverse=True)
        _threads.run([(r, side) for r in radii for side in range(len(sides))], job)
        return [(stats[r, 0], stats[r, len(sides) - 1]) for r in self.radii]

    def weak_fofana(self, f: GridFunction, pairs) -> list:
        """Weak Fofana norm of f for each (p, alpha) pair, in order, from one
        set of window statistics."""
        checked = [_check_triple(1.0, p, alpha) for p, alpha in pairs]
        if f.grid != self.grid:
            raise ValueError("function lives on a different grid than the workspace")
        best = [0.0] * len(checked)
        for r, (w_pos, w_neg) in zip(self.radii, self._statistics(np.abs(f.values))):
            mu = ball_measure_origin(self.grid.params, r)
            for j, (q, p, alpha) in enumerate(checked):
                pref = mu ** _scale_exponent(q, p, alpha)
                if p == INF:
                    val = pref * max(float(np.max(w_pos)), float(np.max(w_neg)))
                else:
                    val = pref * float(
                        (np.sum(self.wdec * w_pos**p) + np.sum(self.wdec * w_neg**p))
                        ** (1.0 / p)
                    )
                best[j] = max(best[j], val)
        return best


def weak_fofana_norm(f: GridFunction, p: float, alpha: float, r_grid) -> float:
    """Weak variant at q = 1: the window statistic is the weak-L1 norm of
    f times the translated window indicator, scaled by
    mu(B_r)^(1/alpha - 1 - 1/p); the radius supremum runs over r_grid."""
    return WeakWindowWorkspace(f.grid, r_grid).weak_fofana(f, [(p, alpha)])[0]


def interval_amalgam_norm_r(f: GridFunction, q: float, p: float, r: float) -> float:
    """Interval-windowed amalgam: L^p over centers of ||f chi_{I(y,r)}||_q."""
    q = _check_exponent(q, "q")
    p = _check_exponent(p, "p")
    return _ProfileStack(WindowGeometry.interval(f.grid), f.values[None, :]).amalgam(q, p, r)[0]


def interval_fofana_norm(f: GridFunction, spec: NormSpec) -> float:
    """Interval-windowed Fofana norm; the measure factor mu(I(y,r))^theta sits
    inside the center integral because it varies with the center."""
    return _ProfileStack(WindowGeometry.interval(f.grid), f.values[None, :]).fofana(spec)[0]


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
    return _ProfileStack(WindowGeometry.interval(f.grid), f.values[None, :]).fofana(spec, True)[0]

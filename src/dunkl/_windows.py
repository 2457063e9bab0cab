"""Exact window integrals and window maxima of sampled functions.

A grid function extends naturally to the step function that is constant on
each grid cell.  Its mass over an interval with arbitrary (off-node)
endpoints is exact: full cells contribute their exact measure, the two
boundary cells contribute the exact measure of their covered part.  This
keeps windowed averages of indicators at or below their peak and makes
windowed averages of the constant function exactly 1 away from the domain
boundary.

One class, `WindowGeometry`, holds the windows centered at the nodes of a
grid: the intervals I(x, r) at every node (`WindowGeometry.interval`) or
the annuli B(s, r) at the positive nodes, in the folded coordinate s = |x|
where the step function is the sum of the samples at x and -x
(`WindowGeometry.annulus`).  A window end t enters a window mass only
through its end cell j and the weight antiderivative over the covered part
of that cell (`_window_end`), neither of which depends on the samples.  The
geometry reads these, the window measures and the node ranges of each
radius from one bounded memo keyed by grid, kind and radius
(`_radius_data`), so they are computed once per radius across calls.  The
window masses of a stack of functions are then one extended-precision
prefix sum of the stack and a gather of both window ends
(`WindowGeometry.masses`; `WindowGeometry.between` for arbitrary ends), and
its window maxima range-maximum queries over the node ranges
(`WindowGeometry.node_ranges`).  The annulus node ranges are also the
support columns of the weak-window workspace of `norms`.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import Grid
from .measure import ball_measure, interval_measure, weight_antiderivative


def _line_edges(grid: Grid) -> np.ndarray:
    """Cell edges of the line extension: -L, the midpoints between nodes, L."""
    nodes = grid.nodes
    return np.concatenate([[-grid.half_width], 0.5 * (nodes[:-1] + nodes[1:]), [grid.half_width]])


def _folded_edges(grid: Grid) -> np.ndarray:
    """Cell edges of the folded extension: 0, the midpoints between the
    positive nodes, L."""
    return np.arange(grid.node_count // 2 + 1) * grid.spacing


def _fold(grid: Grid, rows: np.ndarray, op) -> np.ndarray:
    """op of the samples at s and -s for every positive node s, for each row."""
    half = grid.node_count // 2
    return op(rows[..., half:], rows[..., half - 1 :: -1])


def _window_end(params, edges: np.ndarray, anti: np.ndarray, t) -> tuple:
    """The cell j holding t, clipped to the edges, and the weight mass
    W(t) - W(edges[j]) of its part below t: a window end, whatever the
    samples (anti holds W at the edges)."""
    t = np.clip(np.asarray(t, dtype=float), edges[0], edges[-1])
    j = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, edges.size - 2)
    return j, weight_antiderivative(params, t) - anti[j]


def _mass(vals: np.ndarray, cum: np.ndarray, lo: tuple, hi: tuple) -> np.ndarray:
    """Masses M(hi) - M(lo) of one row between two window ends (j, partial)
    of `_window_end`, from the row's cell values and prefix masses (a row
    of `WindowGeometry._prefix`)."""
    (jl, pl), (jh, ph) = lo, hi
    return np.asarray((cum[jh] + vals[jh] * ph) - (cum[jl] + vals[jl] * pl), dtype=float)


def _range_max(vals: np.ndarray, ranges) -> list:
    """For each (lo, hi) of ranges, max(vals[lo[k]:hi[k]]) for every k, and
    0.0 for an empty window.

    A sparse table, built once for all ranges: level j holds the maxima of
    the 2**j-wide windows, and a window of width w is covered by the two
    level-floor(log2 w) windows at its two ends.  A maximum of maxima is
    exact, so this equals the direct loop.
    """
    widths = [hi - lo for lo, hi in ranges]
    table = [vals]
    for j in range(1, max((int(w.max(initial=0)) for w in widths), default=0).bit_length()):
        prev, step = table[-1], 2 ** (j - 1)
        # entries past n - 2**j hold partial maxima; they are never read,
        # because no window of width 2**j starts there
        table.append(np.concatenate([np.maximum(prev[:-step], prev[step:]), prev[-step:]]))
    table = np.array(table)
    out = []
    for (lo, hi), width in zip(ranges, widths):
        full = width > 0
        level = np.frexp(width[full])[1] - 1
        row = np.zeros(lo.shape)
        row[full] = np.maximum(table[level, lo[full]], table[level, hi[full] - 2**level])
        out.append(row)
    return out


# Per-radius window data kept by `_radius_data`, least recently used first
# out, for every WindowGeometry.  One library call sweeps a radius grid of
# about a dozen radii per geometry, and a session uses both geometries on one
# or two grids.  An interval entry holds 7 arrays of N values (two window
# ends of two arrays each, the measures, the two node-range ends), 224 KB at
# N = 4096; an annulus entry half that (7 MB for the bound at worst).
_RADIUS_CACHE = 32


def _frame(grid: Grid, folded: bool) -> tuple:
    """The window centers, the cell edges and the weight antiderivative at
    the edges of the interval (folded False) or annulus windows of grid."""
    edges = _folded_edges(grid) if folded else _line_edges(grid)
    centers = grid.positive_nodes if folded else grid.nodes
    return centers, edges, weight_antiderivative(grid.params, edges)


@functools.lru_cache(maxsize=_RADIUS_CACHE)
def _radius_data(grid: Grid, folded: bool, r: float) -> tuple:
    """The windows of radius r at the centers of the interval or annulus
    geometry of grid: the two window ends of `_window_end`, the window
    measures and the node ranges (lo, hi) of `WindowGeometry.node_ranges`,
    every array read-only."""
    centers, edges, anti = _frame(grid, folded)
    params, lo, hi = grid.params, centers - r, centers + r
    mu = (ball_measure if folded else interval_measure)(params, centers, r)
    ends = [_window_end(params, edges, anti, t) for t in (lo, hi)]
    ranges = (np.searchsorted(centers, lo, side="right"), np.searchsorted(centers, hi, side="left"))
    for arr in (*ends[0], *ends[1], mu, *ranges):
        arr.setflags(write=False)
    return (*ends, mu, ranges)


class WindowGeometry:
    """The windows centered at the nodes of a grid: per radius, the ends of
    each window, clipped to the domain, its measure and the range of the
    nodes inside it, computed on first use and kept in one module-level
    memo (`_radius_data`) shared by every geometry of the same grid and
    kind.  Interval windows are centered at every node; annuli depend on
    |x| only, so they are centered at the positive nodes s, in the folded
    coordinate, and `unfold` mirrors their results to every node.  In that
    coordinate B(s, r) is the interval (s - r, s + r) cut at 0, and clipping
    the window ends to the folded edges [0, L] makes the cut."""

    def __init__(self, grid: Grid, folded: bool):
        self.grid = grid
        self._folded = folded
        self._centers, self._edges, self._anti = _frame(grid, folded)

    @classmethod
    def interval(cls, grid: Grid) -> "WindowGeometry":
        """The intervals I(x, r) = (x - r, x + r), measured by
        `measure.interval_measure`."""
        return cls(grid, folded=False)

    @classmethod
    def annulus(cls, grid: Grid) -> "WindowGeometry":
        """The balls B(x, r) = {max(0, |x| - r) < |y| < |x| + r}, measured by
        `measure.ball_measure`."""
        return cls(grid, folded=True)

    def _geometry(self, r: float) -> tuple:
        """The two window ends of `_window_end`, the window measures, then
        the node ranges."""
        return _radius_data(self.grid, self._folded, float(r))

    def node_ranges(self, r: float) -> tuple:
        """Per window center c, the range lo:hi of the centers s with
        c - r < s < c + r; for annuli, by the float operations of the
        support mask of `translation._indicator_values`."""
        return self._geometry(r)[3]

    def unfold(self, arr: np.ndarray) -> np.ndarray:
        """Results at the window centers (last axis) as results at every node."""
        return np.concatenate([arr[..., ::-1], arr], axis=-1) if self._folded else arr

    def measure(self, r: float) -> np.ndarray:
        """The window measures at the window centers."""
        return self._geometry(r)[2]

    def _prefix(self, rows) -> tuple:
        """The cell values of the step extension of every function of a
        stack rows (F, N), folded for annuli, and their prefix masses
        (F, cells + 1): the mass over (edges[0], edges[i]) in column i."""
        vals = np.asarray(rows, dtype=float)
        if self._folded:
            vals = _fold(self.grid, vals, np.add)
        # extended precision: the measure spans many decades at large kappa,
        # and plain float64 prefix sums would leak ~1e-7 relative error into
        # narrow windows
        cum = np.zeros((vals.shape[0], vals.shape[1] + 1), dtype=np.longdouble)
        np.cumsum(vals * np.diff(self._anti).astype(np.longdouble), axis=-1, out=cum[:, 1:])
        return vals, cum

    def masses(self, rows, radii) -> np.ndarray:
        """Window masses of the step extension of every function of a stack
        rows (F, N) at the window centers, from one prefix sum of the stack,
        for every radius: (F, R, centers).  The ends are gathered row by
        row: one row's gathers and extended-precision sums stay in cache,
        and measured faster than the same operations on the whole stack."""
        ends = [self._geometry(r)[:2] for r in radii]
        return np.array([[_mass(v, c, *e) for e in ends] for v, c in zip(*self._prefix(rows))])

    def between(self, rows, lo, hi) -> np.ndarray:
        """Masses of the step extension of every function of a stack rows
        (F, N) over the windows (lo, hi) of arbitrary ends, in the
        coordinate of the geometry (|x| for annuli), clipped to the domain:
        (F, *ends)."""
        ends = [_window_end(self.grid.params, self._edges, self._anti, t) for t in (lo, hi)]
        return np.array([_mass(v, c, *ends) for v, c in zip(*self._prefix(rows))])

    def maxima(self, rows, radii) -> np.ndarray:
        """Maxima of every function of a stack rows (F, N) over the nodes
        inside its windows at the window centers, 0.0 where there are none,
        one sparse table per function for every radius: (F, R, centers)."""
        rows = np.asarray(rows)
        if self._folded:
            rows = _fold(self.grid, rows, np.maximum)
        ranges = [self.node_ranges(r) for r in radii]
        return np.array([_range_max(v, ranges) for v in rows])

"""Exact window integrals and window maxima of sampled functions.

A grid function extends naturally to the step function that is constant on
each grid cell.  One class integrates such a step function over intervals
with arbitrary (off-node) endpoints: full cells contribute their exact
measure, the two boundary cells contribute the exact measure of their covered
part.  This keeps windowed averages of indicators at or below their peak and
makes windowed averages of the constant function exactly 1 away from the
domain boundary.

It has two constructors: `LineWindowMass.line` integrates over the line
coordinate x, and `LineWindowMass.folded` over the folded coordinate s = |x|,
where the step function is the sum of the samples at x and -x.

A window end t enters a window mass only through its end cell j and the
weight antiderivative over the covered part of that cell (`_window_end`),
neither of which depends on the samples.  `WindowGeometry` keeps these, the
window measures and the node ranges of the windows centered at the nodes of
a grid, once per radius: the intervals I(x, r) at every node
(`WindowGeometry.interval`) or the annuli B(s, r) at the positive nodes, in
the folded coordinate (`WindowGeometry.annulus`).  The window masses of
every function on that grid are then gathers, with the bits of
`LineWindowMass.window`, and its window maxima range-maximum queries.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid
from .measure import ball_measure, weight_antiderivative


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


class LineWindowMass:
    """Window masses M(hi) - M(lo) of the cumulative mass M(t) = integral over
    (edges[0], t) of the step function equal to values[i] on (edges[i], edges[i+1]).
    anti, when given, holds the weight antiderivative at the edges."""

    def __init__(self, params, edges: np.ndarray, values: np.ndarray, anti=None):
        self._params = params
        self._edges = edges
        self._anti = weight_antiderivative(params, edges) if anti is None else anti
        self._vals = np.asarray(values, dtype=float)
        # extended precision: the measure spans many decades at large kappa,
        # and plain float64 prefix sums would leak ~1e-7 relative error into
        # narrow windows
        masses = np.diff(self._anti).astype(np.longdouble)
        self._cum = np.concatenate([[0.0], np.cumsum(self._vals * masses)])

    @classmethod
    def line(cls, grid: Grid, values) -> "LineWindowMass":
        """Mass over (-L, t) of the step extension of samples on the grid."""
        return cls(grid.params, _line_edges(grid), values)

    @classmethod
    def folded(cls, grid: Grid, values) -> "LineWindowMass":
        """Mass over {|y| < t} of the step extension, in the coordinate s = |y|."""
        folded = _fold(grid, np.asarray(values, dtype=float), np.add)
        return cls(grid.params, _folded_edges(grid), folded)

    def window(self, lo, hi) -> np.ndarray:
        ends = [_window_end(self._params, self._edges, self._anti, t) for t in (lo, hi)]
        return self.between(*ends)

    def between(self, lo: tuple, hi: tuple) -> np.ndarray:
        """The window mass between two window ends of `_window_end`."""
        return np.asarray(self._raw(*hi) - self._raw(*lo), dtype=float)

    def _raw(self, j, partial):
        return self._cum[j] + self._vals[j] * partial


class WindowGeometry:
    """The windows centered at the nodes of a grid, built per radius on first
    use and kept: the ends of each window, clipped to the domain, its
    measure, and, once a maximum is asked for, the range of the nodes inside
    it.  Interval windows are centered at every node; annuli depend on |x|
    only, so they are centered at the positive nodes s, in the folded
    coordinate, and `unfold` mirrors their results to every node.  In that
    coordinate B(s, r) is the interval (s - r, s + r) cut at 0, and clipping
    the window ends to the folded edges [0, L] makes the cut."""

    def __init__(self, grid: Grid, folded: bool):
        self.grid = grid
        self._folded = folded
        self._centers = grid.positive_nodes if folded else grid.nodes
        self._edges = _folded_edges(grid) if folded else _line_edges(grid)
        self._anti = weight_antiderivative(grid.params, self._edges)
        self._ends = {}
        self._ranges = {}

    @classmethod
    def interval(cls, grid: Grid) -> "WindowGeometry":
        """The intervals I(x, r) = (x - r, x + r), measured by
        W(x + r) - W(x - r): the bits of `measure.interval_measure`."""
        return cls(grid, folded=False)

    @classmethod
    def annulus(cls, grid: Grid) -> "WindowGeometry":
        """The balls B(x, r) = {max(0, |x| - r) < |y| < |x| + r}, measured by
        `measure.ball_measure`."""
        return cls(grid, folded=True)

    def _geometry(self, r: float) -> tuple:
        """The two window ends of `_window_end`, then the window measures."""
        if r not in self._ends:
            params, lo, hi = self.grid.params, self._centers - r, self._centers + r
            if self._folded:
                mu = ball_measure(params, self._centers, r)
            else:
                mu = weight_antiderivative(params, hi) - weight_antiderivative(params, lo)
            ends = [_window_end(params, self._edges, self._anti, t) for t in (lo, hi)]
            self._ends[r] = (*ends, mu)
        return self._ends[r]

    def _node_ranges(self, r: float) -> tuple:
        if r not in self._ranges:
            c = self._centers
            self._ranges[r] = (np.searchsorted(c, c - r, side="right"), np.searchsorted(c, c + r, side="left"))
        return self._ranges[r]

    def unfold(self, arr: np.ndarray) -> np.ndarray:
        """Results at the window centers (last axis) as results at every node."""
        return np.concatenate([arr[..., ::-1], arr], axis=-1) if self._folded else arr

    def measure(self, r: float) -> np.ndarray:
        """The window measures at the window centers."""
        return self._geometry(r)[2]

    def masses(self, rows, radii) -> np.ndarray:
        """Window masses of the step extension of every function of a stack
        rows (F, N) at the window centers, one prefix sum per function for
        every radius: (F, R, centers)."""
        rows = np.asarray(rows, dtype=float)
        if self._folded:
            rows = _fold(self.grid, rows, np.add)
        out = []
        for v in rows:
            mass = LineWindowMass(self.grid.params, self._edges, v, self._anti)
            out.append([mass.between(*self._geometry(r)[:2]) for r in radii])
        return np.array(out)

    def maxima(self, rows, radii) -> np.ndarray:
        """Maxima of every function of a stack rows (F, N) over the nodes
        inside its windows at the window centers, 0.0 where there are none,
        one sparse table per function for every radius: (F, R, centers)."""
        rows = np.asarray(rows)
        if self._folded:
            rows = _fold(self.grid, rows, np.maximum)
        ranges = [self._node_ranges(r) for r in radii]
        return np.array([_range_max(v, ranges) for v in rows])

"""Exact window integrals of sampled functions against the weight measure.

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
neither of which depends on the samples.  `IntervalWindows` keeps these for
the metric intervals I(x, r) = (x - r, x + r) at every node x of a grid, once
per radius, together with their measures mu(I(x, r)) from the same
W(x +- r); the window masses of every function on that grid are then
gathers, with the bits of `LineWindowMass.window`.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid
from .measure import weight_antiderivative


def _line_edges(grid: Grid) -> np.ndarray:
    """Cell edges of the line extension: -L, the midpoints between nodes, L."""
    nodes = grid.nodes
    return np.concatenate([[-grid.half_width], 0.5 * (nodes[:-1] + nodes[1:]), [grid.half_width]])


def _window_end(params, edges: np.ndarray, anti: np.ndarray, t) -> tuple:
    """The cell j holding t, clipped to the edges, and the weight mass
    W(t) - W(edges[j]) of its part below t: a window end, whatever the
    samples (anti holds W at the edges)."""
    t = np.clip(np.asarray(t, dtype=float), edges[0], edges[-1])
    j = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, edges.size - 2)
    return j, weight_antiderivative(params, t) - anti[j]


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
        half = grid.node_count // 2
        v = np.asarray(values, dtype=float)
        return cls(grid.params, np.arange(half + 1) * grid.spacing, v[half:] + v[half - 1 :: -1])

    def window(self, lo, hi) -> np.ndarray:
        ends = [_window_end(self._params, self._edges, self._anti, t) for t in (lo, hi)]
        return self.between(*ends)

    def between(self, lo: tuple, hi: tuple) -> np.ndarray:
        """The window mass between two window ends of `_window_end`."""
        return np.asarray(self._raw(*hi) - self._raw(*lo), dtype=float)

    def _raw(self, j, partial):
        return self._cum[j] + self._vals[j] * partial


class IntervalWindows:
    """The metric intervals I(x, r) = (x - r, x + r) at every node x of a
    grid, one geometry per radius, built on first use and kept: the window
    ends of x - r and x + r, clipped to the domain, and the measures
    mu(I(x, r)) = W(x + r) - W(x - r) of the unclipped intervals, the bits
    of `measure.interval_measure`.  Shared by every function on the grid."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self._edges = _line_edges(grid)
        self._anti = weight_antiderivative(grid.params, self._edges)
        self._by_r = {}

    def _geometry(self, r: float) -> tuple:
        if r not in self._by_r:
            params, x = self.grid.params, self.grid.nodes
            lo, hi = x - r, x + r
            self._by_r[r] = (
                _window_end(params, self._edges, self._anti, lo),
                _window_end(params, self._edges, self._anti, hi),
                weight_antiderivative(params, hi) - weight_antiderivative(params, lo),
            )
        return self._by_r[r]

    def measure(self, r: float) -> np.ndarray:
        """mu(I(x, r)) at every node x."""
        return self._geometry(r)[2]

    def masses(self, values, radii) -> list:
        """Window masses of the step extension of values over I(x, r) at
        every node x, one array per radius."""
        mass = LineWindowMass(self.grid.params, self._edges, values, self._anti)
        return [mass.between(*self._geometry(r)[:2]) for r in radii]

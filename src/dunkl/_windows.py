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
"""

from __future__ import annotations

import numpy as np

from .grid import Grid
from .measure import weight_antiderivative


class LineWindowMass:
    """Window masses M(hi) - M(lo) of the cumulative mass M(t) = integral over
    (edges[0], t) of the step function equal to values[i] on (edges[i], edges[i+1])."""

    def __init__(self, params, edges: np.ndarray, values: np.ndarray):
        self._params = params
        self._edges = edges
        self._anti = weight_antiderivative(params, edges)
        self._vals = np.asarray(values, dtype=float)
        # extended precision: the measure spans many decades at large kappa,
        # and plain float64 prefix sums would leak ~1e-7 relative error into
        # narrow windows
        masses = np.diff(self._anti).astype(np.longdouble)
        self._cum = np.concatenate([[0.0], np.cumsum(self._vals * masses)])

    @classmethod
    def line(cls, grid: Grid, values) -> "LineWindowMass":
        """Mass over (-L, t) of the step extension of samples on the grid."""
        nodes = grid.nodes
        edges = np.concatenate(
            [[-grid.half_width], 0.5 * (nodes[:-1] + nodes[1:]), [grid.half_width]]
        )
        return cls(grid.params, edges, values)

    @classmethod
    def folded(cls, grid: Grid, values) -> "LineWindowMass":
        """Mass over {|y| < t} of the step extension, in the coordinate s = |y|."""
        half = grid.node_count // 2
        v = np.asarray(values, dtype=float)
        return cls(grid.params, np.arange(half + 1) * grid.spacing, v[half:] + v[half - 1 :: -1])

    def window(self, lo, hi) -> np.ndarray:
        return np.asarray(self._raw(hi) - self._raw(lo), dtype=float)

    def _raw(self, t):
        t = np.clip(np.asarray(t, dtype=float), self._edges[0], self._edges[-1])
        j = np.clip(np.searchsorted(self._edges, t, side="right") - 1, 0, self._vals.size - 1)
        partial = weight_antiderivative(self._params, t) - self._anti[j]
        return self._cum[j] + self._vals[j] * partial

"""Hardy-Littlewood type maximal operators.

Three variants, pointwise equivalent on the weighted line:

  * dunkl_maximal: averages of the translated function over origin balls,
    computed spectrally as clamped convolutions with ball indicators (one
    transform of |f| total, one multiplier-and-invert per radius);
  * centered_maximal: direct averages of |f| over the annular balls B(x, rho),
    exact on the grid via prefix sums in the |x| coordinate;
  * interval_maximal: direct averages over metric intervals I(x, rho), exact
    via prefix sums in x.

All three take the supremum over a finite radius grid.  Windows reaching past
the sampled domain [-L, L] are averaged over their clipped part while the
denominator keeps the full closed-form measure, so values within rho_max of
the boundary are depressed; quantitative suites only consult |x| <= L/2.
"""

from __future__ import annotations

import numpy as np

from ._windows import LineWindowMass
from .grid import GridFunction
from .measure import _check_radius, ball_measure, ball_measure_origin, interval_measure
from .translation import ball_convolutions

__all__ = ["dunkl_maximal", "centered_maximal", "interval_maximal"]


def _check_radii(rho_grid) -> list:
    rhos = [float(r) for r in rho_grid]
    if not rhos:
        raise ValueError("rho_grid must be non-empty")
    _check_radius(np.array(rhos))
    return rhos


def dunkl_maximal(f: GridFunction, rho_grid) -> GridFunction:
    """sup over rho of mu(B_rho)^{-1} * (|f| * chi_{B_rho})(x), clamped at 0."""
    rhos = _check_radii(rho_grid)
    conv = ball_convolutions(abs(f), rhos)
    measures = np.array([ball_measure_origin(f.grid.params, r) for r in rhos])
    return GridFunction(f.grid, np.max(conv / measures[:, None], axis=0))


def centered_maximal(f: GridFunction, rho_grid) -> GridFunction:
    """sup over rho of the average of |f| over the annular ball B(x, rho)."""
    rhos = _check_radii(rho_grid)
    grid = f.grid
    half = grid.node_count // 2
    s = grid.positive_nodes
    mass = LineWindowMass.folded(grid, np.abs(f.values))
    best = np.zeros(half)
    for rho in rhos:
        num = mass.window(np.maximum(0.0, s - rho), s + rho)
        avg = num / ball_measure(grid.params, s, rho)
        np.maximum(best, avg, out=best)
    return GridFunction(grid, np.concatenate([best[::-1], best]))


def interval_maximal(f: GridFunction, rho_grid) -> GridFunction:
    """sup over rho of the average of |f| over the interval I(x, rho)."""
    rhos = _check_radii(rho_grid)
    grid = f.grid
    x = grid.nodes
    mass = LineWindowMass.line(grid, np.abs(f.values))
    best = np.zeros(x.size)
    for rho in rhos:
        avg = mass.window(x - rho, x + rho) / interval_measure(grid.params, x, rho)
        np.maximum(best, avg, out=best)
    return GridFunction(grid, best)

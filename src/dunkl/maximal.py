"""Hardy-Littlewood type maximal operators.

Three variants, pointwise equivalent on the weighted line:

  * dunkl_maximal: averages of the translated function over origin balls,
    computed spectrally as clamped convolutions with ball indicators (one
    transform of a whole stack of |f|, stacked inverse rows for every
    function and radius);
  * centered_maximal: direct averages of |f| over the annular balls B(x, rho),
    exact on the grid via prefix sums in the |x| coordinate;
  * interval_maximal: direct averages over metric intervals I(x, rho), exact
    via prefix sums in x: the q = 1 interval profiles of
    `norms._interval_profiles`, one window mass serving every radius, divided
    by the interval measures of the same window geometry.

All three take the supremum over a finite radius grid.  Windows reaching past
the sampled domain [-L, L] are averaged over their clipped part while the
denominator keeps the full closed-form measure, so values within rho_max of
the boundary are depressed; quantitative suites only consult |x| <= L/2.
"""

from __future__ import annotations

import numpy as np

from ._windows import IntervalWindows, LineWindowMass
from .grid import Grid, GridFunction
from .measure import _check_radius, ball_measure, ball_measure_origin
from .norms import _interval_profiles
from .translation import _ball_convolution_stack

__all__ = ["dunkl_maximal", "centered_maximal", "interval_maximal"]


def _check_radii(rho_grid) -> list:
    rhos = [float(r) for r in rho_grid]
    if not rhos:
        raise ValueError("rho_grid must be non-empty")
    _check_radius(np.array(rhos))
    return rhos


def dunkl_maximal(f: GridFunction, rho_grid) -> GridFunction:
    """sup over rho of mu(B_rho)^{-1} * (|f| * chi_{B_rho})(x), clamped at 0."""
    return GridFunction(f.grid, _dunkl_maximal_stack(f.grid, f.values[None, :], rho_grid)[0])


def _dunkl_maximal_stack(grid: Grid, rows, rho_grid) -> np.ndarray:
    """``dunkl_maximal`` of every function of a stack rows (F, N) on grid,
    stacked as (F, N), from one spectral evaluation of the stack of |f|."""
    rhos = _check_radii(rho_grid)
    return _ball_averages_max(grid.params, _ball_convolution_stack(grid, np.abs(rows), rhos), rhos, rhos)


def _ball_averages_max(params, conv: np.ndarray, radii, rhos) -> np.ndarray:
    """sup over rho in rhos of mu(B_rho)^{-1} * conv at rho, for ball
    convolutions conv (F, R, N) of |f| at the radii, a list holding every
    rho."""
    best = None
    for rho in rhos:
        avg = conv[:, radii.index(rho)] / ball_measure_origin(params, rho)
        best = avg if best is None else np.maximum(best, avg, out=best)
    return best


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
    windows = IntervalWindows(grid)
    best = np.zeros(grid.node_count)
    for rho, mass in zip(rhos, _interval_profiles(windows, f.values[None, :], 1.0, rhos)[0]):
        np.maximum(best, mass / windows.measure(rho), out=best)
    return GridFunction(grid, best)

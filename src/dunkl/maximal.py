"""Hardy-Littlewood type maximal operators.

Three variants, pointwise equivalent on the weighted line:

  * dunkl_maximal: averages of the translated function over origin balls,
    computed spectrally as clamped convolutions with ball indicators (one
    transform of a whole stack of |f|, stacked inverse rows for every
    function and radius);
  * centered_maximal: direct averages of |f| over the annular balls B(x, rho),
    exact on the grid via prefix sums in the |x| coordinate;
  * interval_maximal: direct averages over metric intervals I(x, rho), exact
    via prefix sums in x.

The direct two are the one-row cases of `_window_maximal`, which reads the
window masses of a stack and their measures from one annulus or interval
`_windows.WindowGeometry`.

All three take the supremum over a finite radius grid.  Windows reaching past
the sampled domain [-L, L] are averaged over their clipped part while the
denominator keeps the full closed-form measure, so values within rho_max of
the boundary are depressed; quantitative suites only consult |x| <= L/2.
"""

from __future__ import annotations

import numpy as np

from ._windows import WindowGeometry
from .grid import Grid, GridFunction
from .measure import _check_radius, ball_measure_origin
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
    rows = f.values[None, :]
    return GridFunction(f.grid, _window_maximal(WindowGeometry.annulus(f.grid), rows, rho_grid)[0])


def interval_maximal(f: GridFunction, rho_grid) -> GridFunction:
    """sup over rho of the average of |f| over the interval I(x, rho)."""
    rows = f.values[None, :]
    return GridFunction(f.grid, _window_maximal(WindowGeometry.interval(f.grid), rows, rho_grid)[0])


def _window_maximal(windows: WindowGeometry, rows, rho_grid) -> np.ndarray:
    """sup over rho, from zeros, of the window masses of |f| over the window
    measures of the geometry windows, for every function of a stack rows
    (F, N) on its grid: (F, N)."""
    rhos = _check_radii(rho_grid)
    masses = windows.masses(np.abs(rows), rhos)
    best = np.zeros(masses[:, 0].shape)
    for k, rho in enumerate(rhos):
        np.maximum(best, masses[:, k] / windows.measure(rho), out=best)
    return windows.unfold(best)

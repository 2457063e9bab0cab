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

All three are the one-row cases of `_window_maximal`, which reads the window
masses of a stack and their measures from one window family: the translated
balls tau_x chi_{B_rho} (`translation.TranslatedBalls`), or an annulus or
interval `_windows.WindowGeometry`.

It takes the supremum over a finite radius grid through one reduction,
`_sup_of_averages` (window mass over window measure, radius by radius),
after one check, `_checked_radii`, which rejects a radius whose window
measure is 0 anywhere before any transform or window mass;
`norms._ProfileStack.maximal` applies both to the q = 1 profiles a stack
keeps.  Windows reaching past the sampled domain [-L, L] are averaged over
their clipped part while the denominator keeps the full closed-form
measure, so values within rho_max of the boundary are depressed;
quantitative suites only consult |x| <= L/2.
"""

from __future__ import annotations

import numpy as np

from ._windows import WindowGeometry
from .grid import GridFunction
from .measure import _check_radius
from .translation import TranslatedBalls

__all__ = ["dunkl_maximal", "centered_maximal", "interval_maximal"]


def _checked_radii(rho_grid, measure) -> tuple:
    """The radii of rho_grid as floats and their window measures measure(rho).

    One check for every operator, before any transform or window mass: the
    grid is non-empty, every radius positive and finite, and its window
    measure positive at every center, so no average divides by 0 (a radius
    far below the node spacing, or one whose ball measure underflows).
    """
    rhos = [float(r) for r in rho_grid]
    if not rhos:
        raise ValueError("rho_grid must be non-empty")
    _check_radius(np.array(rhos))
    measures = [measure(rho) for rho in rhos]
    for rho, mu in zip(rhos, measures):
        if not np.all(mu > 0.0):
            raise ValueError(f"radius {rho} is too small: its window measure is 0 on this grid")
    return rhos, measures


def _sup_of_averages(masses: np.ndarray, measures) -> np.ndarray:
    """sup over k of the averages masses[:, k] / measures[k], from the first
    average, for window masses (F, R, ...) of |f| at R radii and their
    window measures (scalars, or arrays at the window centers)."""
    best = masses[:, 0] / measures[0]
    for k in range(1, len(measures)):
        np.maximum(best, masses[:, k] / measures[k], out=best)
    return best


def dunkl_maximal(f: GridFunction, rho_grid) -> GridFunction:
    """sup over rho of mu(B_rho)^{-1} * (|f| * chi_{B_rho})(x), clamped at 0."""
    rows = f.values[None, :]
    return GridFunction(f.grid, _window_maximal(TranslatedBalls(f.grid), rows, rho_grid)[0])


def centered_maximal(f: GridFunction, rho_grid) -> GridFunction:
    """sup over rho of the average of |f| over the annular ball B(x, rho)."""
    rows = f.values[None, :]
    return GridFunction(f.grid, _window_maximal(WindowGeometry.annulus(f.grid), rows, rho_grid)[0])


def interval_maximal(f: GridFunction, rho_grid) -> GridFunction:
    """sup over rho of the average of |f| over the interval I(x, rho)."""
    rows = f.values[None, :]
    return GridFunction(f.grid, _window_maximal(WindowGeometry.interval(f.grid), rows, rho_grid)[0])


def _window_maximal(windows, rows, rho_grid) -> np.ndarray:
    """sup over rho of the window masses of |f| over the window measures of
    the window family windows (a `translation.TranslatedBalls` or a
    `_windows.WindowGeometry`), for every function of a stack rows (F, N)
    on its grid: (F, N)."""
    rhos, measures = _checked_radii(rho_grid, windows.measure)
    return windows.unfold(_sup_of_averages(windows.masses(np.abs(rows), rhos), measures))

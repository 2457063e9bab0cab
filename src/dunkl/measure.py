"""Closed-form evaluation of the weighted measure on balls and intervals.

Two window geometries appear throughout: the ball B(x, r), which in the
rank-one setting is the annulus {max(0, |x|-r) < |y| < |x|+r} (an ordinary
interval (-r, r) when x = 0), and the metric interval I(x, r) = (x-r, x+r).
All evaluations go through the exact antiderivative of the weight density,
so quadrature enters only as an independent test oracle.  The ball measure
has one array expression, which scalar input also takes.
"""

from __future__ import annotations

import math

import numpy as np

from .params import DunklParams

__all__ = ["ball_measure", "ball_measure_origin", "interval_measure", "doubling_ratio"]


def weight_antiderivative(params: DunklParams, t):
    """Antiderivative of c_kappa*|t|**(2*kappa+1): sign(t)*c*|t|**(2k+2)/(2k+2).

    Accepts scalars or arrays; odd in t, vanishing at 0.
    """
    e = 2.0 * params.kappa + 2.0
    t = np.asarray(t, dtype=float)
    out = np.sign(t) * params.c_kappa * np.abs(t) ** e / e
    return out if out.ndim else float(out)


def _check_radius(r):
    """r as a float, or as a float array for array input; every entry must be
    positive and finite."""
    if type(r) is float and math.isfinite(r) and r > 0.0:
        return r  # the valid Python float: no numpy call on the commonest input
    r = np.asarray(r, dtype=float) if np.ndim(r) else float(r)
    if not np.all(np.isfinite(r) & (r > 0.0)):
        raise ValueError(f"radius must be positive and finite, got {r}")
    return r


def ball_measure_origin(params: DunklParams, r: float) -> float:
    """Measure of the origin ball B_r = (-r, r): b_kappa * r**(2*kappa+2)."""
    r = _check_radius(r)
    return params.b_kappa * r ** (2.0 * params.kappa + 2.0)


def ball_measure(params: DunklParams, x, r):
    """Measure of the annular ball B(x, r); symmetric in x.

    Case split: for |x| <= r the set is (-(|x|+r), |x|+r) minus the origin,
    for |x| > r it is the two-sided annulus, giving
    c/(kappa+1) * [(|x|+r)**(2k+2) - (|x|-r)**(2k+2)].

    x and r may be arrays (broadcast together); scalars give a float, with
    the bits of the one-entry array.
    """
    r = _check_radius(r)
    e = 2.0 * params.kappa + 2.0
    c = params.c_kappa / (params.kappa + 1.0)
    # at least one entry: numpy's scalar power may differ from its array
    # power in the last bit, so a 0-d x would take a second path
    a = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    inner = np.where(a > r, np.abs(a - r) ** e, 0.0)
    out = c * ((a + r) ** e - inner)
    return out if np.ndim(x) or np.ndim(r) else float(out[0])


def interval_measure(params: DunklParams, x, r):
    """Measure of the metric interval I(x, r) = (x-r, x+r); symmetric in x.

    x and r may be arrays (broadcast together); scalars give a float.
    """
    r = _check_radius(r)
    x = np.asarray(x, dtype=float)
    out = weight_antiderivative(params, x + r) - weight_antiderivative(params, x - r)
    return out if np.ndim(out) else float(out)


def doubling_ratio(params: DunklParams, x: float, r: float) -> float:
    """mu(I(x, 2r)) / mu(I(x, r)), the quantity controlled by doubling."""
    r = _check_radius(r)
    return interval_measure(params, x, 2.0 * r) / interval_measure(params, x, r)

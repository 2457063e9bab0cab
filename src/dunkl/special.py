"""Normalized Bessel function, the kernel on the imaginary axis, and the
differential-difference derivative of sampled functions.

The normalized Bessel function of order ``nu`` is

    j_nu(z) = Gamma(nu+1) * sum_{n>=0} (-1)^n z^(2n) / (n! 4^n Gamma(n+nu+1)),

an even entire function with j_nu(0) = 1.  The kernel evaluated on the
imaginary axis combines two of them:

    E(i s) = j_k(s) + i * s / (2k+2) * j_{k+1}(s),

which reduces to exp(i s) at kappa = -1/2 and has modulus at most 1.

j_nu is summed as the series up to |z| = _SERIES_CUTOFF and taken from a
large-argument route chosen by order beyond it.  Every value depends only on
its own argument, not on the other entries of the call: an input wholly on
one side of the cutoff goes through its route whole, a mixed one is split,
and the series' convergence cadence cannot change a converged entry (see
`_series`).  Kernel blocks built from one triangle rely on this.
`kernel_pair` evaluates both of its orders in one pass, through one split,
with the bits of two separate `bessel_normalized` calls.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .grid import GridFunction
from .params import DunklParams

__all__ = ["bessel_normalized", "dunkl_kernel", "kernel_values", "dunkl_derivative"]

# Above this |z| the alternating series cancels catastrophically in double
# precision (partial sums peak near exp(|z|)/sqrt(|z|)); switch to a
# large-argument route chosen by order.  At 10 the cancellation loss is
# ~5e4 * eps, keeping absolute errors near 1e-12.
_SERIES_CUTOFF = 10.0
# Term-ratio stopping rule for the power series.
_SERIES_TOL = 1e-17
_MAX_TERMS = 200
# Convergence of the series is tested on every this-many terms.
_CHECK_EVERY = 4
# Half-integer orders m + 1/2 with -1 <= m <= this use the closed forms.
_HALF_INTEGER_MAX = 3


def _series(order: float, z2: np.ndarray, tol: float = _SERIES_TOL) -> np.ndarray:
    """Power series for j_order evaluated at z^2 (arrays), all entries at once.

    Summation stops once every term is below tol relative to its partial sum,
    tested every _CHECK_EVERY terms.  The cadence is exact: tol is under half
    an ulp, so once an entry's term is below tol * |total| no later, smaller
    term changes its total, and every entry gets the bits it would get from a
    test on every term (or alone in its own call).
    """
    neg_z2 = -z2
    term = np.ones_like(z2)
    total = np.ones_like(z2)
    for n in range(1, _MAX_TERMS):
        term = term * neg_z2 / (4.0 * n * (n + order))
        total += term
        if n % _CHECK_EVERY:
            continue
        if np.all(np.abs(term) < tol * np.maximum(np.abs(total), 1e-300)):
            return total
    raise RuntimeError("bessel series did not converge; |z| too large for series path")


def _half_integers(m: int, z: np.ndarray) -> tuple:
    """(j_{m-1/2}(z), j_{m+1/2}(z)) for 0 <= m from the sin/cos closed forms
    (DLMF 10.49).

    With u_m = j_{m+1/2}: u_{-1} = cos z, u_0 = sin z / z and the spherical
    Bessel recurrence (DLMF 10.51.1) becomes
    u_{m+1} = (2m+1)(2m+3)/z^2 * (u_m - u_{m-1}).  Upward recurrence is
    stable while z exceeds the order, which the cutoff guarantees here.
    """
    prev, cur = np.cos(z), np.sin(z) / z
    if m:
        inv_z2 = 1.0 / (z * z)
        for n in range(m):
            prev, cur = cur, (2 * n + 1) * (2 * n + 3) * inv_z2 * (cur - prev)
    return prev, cur


def _half_integer_index(order: float):
    """m for a half-integer order m + 1/2 with -1 <= m <= _HALF_INTEGER_MAX,
    which has a closed form; None for any other order."""
    m = order - 0.5
    return int(m) if m.is_integer() and -1 <= m <= _HALF_INTEGER_MAX else None


def _large_argument(order: float, z: np.ndarray) -> np.ndarray:
    """j_order(z) = 2^order * Gamma(order+1) * J_order(z) / z^order for
    z > _SERIES_CUTOFF, by the cheapest exact route for the order: closed
    forms for half-integer orders up to 7/2, scipy's j0/j1 for orders 0 and
    1, and the general jv for every other order."""
    if order == 0.0:
        return _sp.j0(z)
    if order == 1.0:
        return 2.0 * _sp.j1(z) / z
    m = _half_integer_index(order)
    if m == -1:
        return np.cos(z)
    if m is not None:
        return _half_integers(m, z)[1]
    scale = 2.0**order * math.gamma(order + 1.0)
    return scale * _sp.jv(order, z) / z**order


def _large_pair(order: float, z: np.ndarray) -> tuple:
    """(j_order(z), j_{order+1}(z)) for z > _SERIES_CUTOFF: one recurrence
    for both when both orders have closed forms, else one route per order."""
    m = _half_integer_index(order)
    if m is not None and m + 1 <= _HALF_INTEGER_MAX:
        return _half_integers(m + 1, z)
    return _large_argument(order, z), _large_argument(order + 1.0, z)


def _by_route(z, series, large) -> tuple:
    """Values at every entry of z by the series route (series(z^2)) up to
    |z| = _SERIES_CUTOFF and the large-argument route (large(|z|)) beyond:
    one finiteness check, one abs and one split for every output of the
    two routes (tuples of arrays of the same length)."""
    z_arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z_arr)):
        raise ValueError("z must be finite")
    a = np.abs(z_arr)
    small = a <= _SERIES_CUTOFF
    if np.all(small):
        return series(a * a)
    if not np.any(small):
        return large(a)
    zs = a[small]
    outs = []
    for inner, outer in zip(series(zs * zs), large(a[~small])):
        out = np.empty_like(a)
        out[small], out[~small] = inner, outer
        outs.append(out)
    return tuple(outs)


def bessel_normalized(order: float, z):
    """Normalized Bessel function j_order(z); even in z, equal to 1 at z = 0.

    order must exceed -1.  Scalars return floats; arrays return arrays.
    """
    order = float(order)
    if not math.isfinite(order) or order <= -1.0:
        raise ValueError(f"order must be a finite number > -1, got {order}")
    out = _by_route(z, lambda z2: (_series(order, z2),), lambda a: (_large_argument(order, a),))[0]
    return out if out.ndim else float(out)


def kernel_pair(params: DunklParams, s) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd parts (j_k(s), s/(2k+2) j_{k+1}(s)) of E(i s) for real s;
    every kernel evaluation in the package goes through this function."""
    s = np.asarray(s, dtype=float)
    k = params.kappa
    even, odd = _by_route(
        s, lambda z2: (_series(k, z2), _series(k + 1.0, z2)), lambda a: _large_pair(k, a)
    )
    return even, s / (2.0 * k + 2.0) * odd


def kernel_values(params: DunklParams, s) -> np.ndarray:
    """Vectorized E(i s) = j_k(s) + i s/(2k+2) j_{k+1}(s) for real s."""
    s_arr = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s_arr)):
        raise ValueError("s must be finite")
    a, b = kernel_pair(params, s_arr)
    return a + 1j * b


def dunkl_kernel(params: DunklParams, s: float) -> complex:
    """Kernel on the imaginary axis at a single real argument s.

    Satisfies E(0) = 1, |E(i s)| <= 1, and E(-i s) = conj(E(i s)).
    """
    return complex(kernel_values(params, float(s)))


def dunkl_derivative(params: DunklParams, f: GridFunction) -> GridFunction:
    """Differential-difference derivative on the sample grid:

        f'(x) + (2k+1)/x * (f(x) - f(-x)) / 2,

    with f' by central differences (one-sided at the two boundary nodes).
    Midpoint grids have no node at 0.  params must carry the kappa of f's
    grid.
    """
    if params.kappa != f.grid.params.kappa:
        raise ValueError(
            f"derivative kappa {params.kappa:g} differs from the grid's kappa {f.grid.params.kappa:g}"
        )
    x = f.grid.nodes
    if not np.allclose(x, -x[::-1], rtol=0.0, atol=0.0):
        raise ValueError("grid is not symmetric about 0")
    v = f.values
    dx = f.grid.spacing
    fprime = np.empty_like(v)
    fprime[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    fprime[0] = (v[1] - v[0]) / dx
    fprime[-1] = (v[-1] - v[-2]) / dx
    odd = 0.5 * (v - v[::-1])
    out = fprime + (2.0 * params.kappa + 1.0) * odd / x
    return GridFunction(f.grid, out)

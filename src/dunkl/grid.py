"""Symmetric sample grids, quadrature against the weight measure, sampled
function families, and CSV interchange.

Grids are cell-centered (midpoint) with no node at the origin: the coordinate
singularity of the differential-difference operator and of the weight density
never coincides with a sample point, while exact symmetry about 0 is kept.
Quadrature weights are kink-corrected second-order masses whose sum equals
the closed-form measure of (-L, L) up to rounding; see _quadrature_weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measure import weight_antiderivative
from .params import DunklParams

__all__ = [
    "Grid",
    "GridFunction",
    "make_grid",
    "integrate",
    "sample_family",
    "FAMILY_IDS",
    "read_csv_function",
    "write_csv_function",
    "CsvFormatError",
]


@dataclass(frozen=True, eq=False)
class Grid:
    """Immutable midpoint grid on [-L, L] with per-node masses for the measure."""

    params: DunklParams
    half_width: float
    node_count: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.params.kappa == other.params.kappa
            and self.half_width == other.half_width
            and self.node_count == other.node_count
        )

    def __hash__(self) -> int:
        return hash((self.params.kappa, self.half_width, self.node_count))

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.node_count

    @property
    def positive_nodes(self) -> np.ndarray:
        """Ascending nodes on (0, L); the negative half is their mirror."""
        return self.nodes[self.node_count // 2 :]

    @property
    def positive_weights(self) -> np.ndarray:
        return self.weights[self.node_count // 2 :]


def _first_moment_antiderivative(params: DunklParams, t: np.ndarray) -> np.ndarray:
    # antiderivative of t * c|t|^(2k+1): even, c|t|^(2k+3)/(2k+3)
    e = 2.0 * params.kappa + 2.0
    return params.c_kappa * np.abs(t) ** (e + 1.0) / (e + 1.0)


def _quadrature_weights(params: DunklParams, L: float, nodes: np.ndarray) -> np.ndarray:
    """Kink-corrected second-order masses: 2 * (cell mass) - (hat mass).

    Cell masses (midpoint sampling) and hat-function masses (piecewise-linear
    sampling) carry sign-coherent leading errors from the non-smooth weight
    density in the ratio 1:2, so this combination cancels the coherent term
    while keeping the total equal to the measure of (-L, L) exactly.  It
    reproduces the exact cell masses only where the density is locally
    linear (everywhere in the classical case).  At kappa = 1/2, density
    c * x^2, every cell but the two end ones gets the midpoint rule
    c * h * x_j^2 instead, short of its cell mass by c * h^3 / 12: 25% of the
    two central cells at N = 2048.
    """
    n = nodes.size
    g0 = weight_antiderivative(params, nodes)
    g0_ends = weight_antiderivative(params, np.array([-L, L]))
    edges_mid = weight_antiderivative(params, 0.5 * (nodes[:-1] + nodes[1:]))
    cell = np.empty(n)
    cell[0] = edges_mid[0] - g0_ends[0]
    cell[1:-1] = np.diff(edges_mid)
    cell[-1] = g0_ends[1] - edges_mid[-1]
    g1 = _first_moment_antiderivative(params, nodes)
    m = np.diff(g0)
    m1 = np.diff(g1)
    dx = np.diff(nodes)
    hat = np.zeros(n)
    np.add.at(hat, np.arange(n - 1), (m * nodes[1:] - m1) / dx)
    np.add.at(hat, np.arange(1, n), (m1 - m * nodes[:-1]) / dx)
    hat[0] += g0[0] - g0_ends[0]
    hat[-1] += g0_ends[1] - g0[-1]
    w = 2.0 * cell - hat
    w = 0.5 * (w + w[::-1])
    return np.maximum(w, 0.0)


def _check_half_width(half_width) -> float:
    L = float(half_width)
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"half_width must be positive, got {half_width}")
    return L


def _check_node_count(node_count) -> int:
    n = int(node_count)
    if n != node_count or n < 4 or n % 2 != 0:
        raise ValueError(f"node_count must be an even integer >= 4, got {node_count}")
    return n


def make_grid(params: DunklParams, half_width: float, node_count: int) -> Grid:
    """Build the midpoint grid with nodes at +-(j + 1/2) * dx.

    node_count must be even (so nodes pair off symmetrically) and at least 4.
    """
    L = _check_half_width(half_width)
    n = _check_node_count(node_count)
    half = n // 2
    dx = 2.0 * L / n
    pos = (np.arange(half) + 0.5) * dx
    nodes = np.concatenate([-pos[::-1], pos])
    weights = _quadrature_weights(params, L, nodes)
    return Grid(params, L, n, nodes, weights)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Sampled function bound to a grid; values are frozen at construction."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.shape != (self.grid.node_count,):
            raise ValueError(
                f"values shape {v.shape} does not match grid size {self.grid.node_count}"
            )
        if np.iscomplexobj(v):
            v = np.ascontiguousarray(v, dtype=np.complex128)
        else:
            v = np.ascontiguousarray(v, dtype=np.float64)
        if not np.all(np.isfinite(v.view(np.float64) if v.dtype == np.complex128 else v)):
            raise ValueError("values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def is_real(self) -> bool:
        return self.values.dtype == np.float64

    def _check_same_grid(self, other: "GridFunction") -> None:
        if self.grid != other.grid:
            raise ValueError("grid functions live on different grids")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._check_same_grid(other)
            return GridFunction(self.grid, self.values * other.values)
        return GridFunction(self.grid, self.values * other)

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, -self.values)

    def __abs__(self) -> "GridFunction":
        return GridFunction(self.grid, np.abs(self.values))

    def mirrored(self) -> "GridFunction":
        """The reflection x -> -x, exact on the symmetric grid."""
        return GridFunction(self.grid, self.values[::-1])


def integrate(f: GridFunction):
    """Integral of f against the weight measure on (-L, L).

    Computed as sum(weights * values) with numpy's pairwise summation, which is
    deterministic for a fixed grid size.
    """
    total = np.sum(f.grid.weights * f.values)
    return complex(total) if np.iscomplexobj(f.values) else float(total)


def _bump(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


FAMILY_IDS = ("gaussian", "indicator_ball", "bump", "power_tail", "trig_gauss")


def sample_family(name: str, parameters, grid: Grid) -> GridFunction:
    """Sample a named closed-form test function at the grid nodes.

    Families and their parameter lists:
      gaussian(a)            exp(-a x^2), a > 0
      indicator_ball(r)      1 on (-r, r), else 0, r > 0
      bump(center, width)    smooth bump supported on (center-width, center+width)
      power_tail(beta, cutoff)  |x|**(-beta) for |x| > cutoff > 0, else 0
      trig_gauss(seed)       seeded random trig polynomial under a Gaussian
                             envelope; identical seed gives identical samples
    """
    x = grid.nodes
    p = [float(v) for v in parameters]
    if name == "gaussian":
        (a,) = p
        if a <= 0:
            raise ValueError(f"gaussian width parameter must be positive, got {a}")
        vals = np.exp(-a * x * x)
    elif name == "indicator_ball":
        (r,) = p
        if r <= 0:
            raise ValueError(f"indicator radius must be positive, got {r}")
        vals = (np.abs(x) < r).astype(float)
    elif name == "bump":
        center, width = p
        if width <= 0:
            raise ValueError(f"bump width must be positive, got {width}")
        vals = _bump((x - center) / width)
    elif name == "power_tail":
        beta, cutoff = p
        if cutoff <= 0:
            raise ValueError(f"power_tail cutoff must be positive, got {cutoff}")
        vals = np.where(np.abs(x) > cutoff, np.abs(x) ** -beta, 0.0)
    elif name == "trig_gauss":
        (seed,) = p
        rng = np.random.default_rng(int(seed))
        amp_c = rng.standard_normal(4)
        amp_s = rng.standard_normal(4)
        freqs = rng.uniform(0.5, 3.0, 4)
        vals = np.exp(-x * x / 8.0) * sum(
            a * np.cos(w * x) + b * np.sin(w * x)
            for a, b, w in zip(amp_c, amp_s, freqs)
        )
    else:
        raise ValueError(f"unknown family id {name!r}; known: {', '.join(FAMILY_IDS)}")
    return GridFunction(grid, vals)


class CsvFormatError(ValueError):
    """Malformed CSV input; carries the offending 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def read_csv_function(path, grid: Grid) -> GridFunction:
    """Read rows ``x,value`` (real) or ``x,re,im`` (complex) and interpolate
    linearly onto the grid nodes; x outside the tabulated range maps to 0."""
    xs: list[float] = []
    vs: list[complex] = []
    ncols = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = [c.strip() for c in line.split(",")]
            if len(parts) not in (2, 3):
                raise CsvFormatError(lineno, f"expected 2 or 3 columns, got {len(parts)}")
            if ncols is None:
                ncols = len(parts)
            elif len(parts) != ncols:
                raise CsvFormatError(lineno, "inconsistent column count")
            try:
                nums = [float(c) for c in parts]
            except ValueError:
                raise CsvFormatError(lineno, f"non-numeric field in {line!r}") from None
            if not all(math.isfinite(v) for v in nums):
                raise CsvFormatError(lineno, "non-finite value")
            xs.append(nums[0])
            vs.append(nums[1] if ncols == 2 else complex(nums[1], nums[2]))
    if not xs:
        raise CsvFormatError(1, "empty CSV")
    order = np.argsort(xs)
    xa = np.asarray(xs, dtype=float)[order]
    va = np.asarray(vs)[order]
    if ncols == 2:
        vals = np.interp(grid.nodes, xa, va.real, left=0.0, right=0.0)
    else:
        vals = np.interp(grid.nodes, xa, va.real, left=0.0, right=0.0) + 1j * np.interp(
            grid.nodes, xa, va.imag, left=0.0, right=0.0
        )
    return GridFunction(grid, vals)


def write_csv_function(path, f: GridFunction) -> None:
    """Write a grid function as CSV with full (round-trippable) precision."""
    with open(path, "w", encoding="utf-8") as fh:
        if f.is_real:
            for x, v in zip(f.grid.nodes, f.values):
                fh.write(f"{float(x)!r},{float(v)!r}\n")
        else:
            for x, v in zip(f.grid.nodes, f.values):
                fh.write(f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}\n")

"""Named verification suites binding each quantitative statement to an
executable check with a structured, deterministic report.

Each suite runs a list of cases.  A case is one of three kinds:

* ``bound``: an inequality lhs <= rhs * (1 + slack); its ratio lhs/rhs is the
  sharpness actually observed;
* ``match``: an equality |value - expected| <= tol;
* ``measure``: a measured constant with no a-priori bound (the statement only
  asserts existence); it passes when the value is finite, and refinement
  stability is asserted separately where the protocol calls for it.

Reports serialize to a canonical JSON form: fixed key order, floats with 17
significant digits, no wall-clock content, so identical configurations yield
byte-identical payloads.

Eleven suites are bodies ``body(rec, cfg, kappa, params)`` registered with
``_per_kappa``, whose one loop calls them per kappa of ``cfg.kappa_list``.
A body records through ``rec.at(kappa)``: a view sharing the recorder's cases,
name and random streams that puts ``"kappa"`` first in every case's inputs and
carries the id label ``ktag`` (``k0.5``, ``km0.5``).  ``kernel`` (kappa-free
cases between per-kappa ones, a maximum over all kappas) and
``measure_lemmas`` (one doubling stream across all kappas) keep their own
loops, since bodies would reorder their cases or move report bits.  Streams
are seeded by (seed, suite, label), so labels such as ``f"pairs_{kappa}"``
(the float's repr) are part of the report's determinism.
"""

from __future__ import annotations

import math
import sys
import time
import zlib
from dataclasses import dataclass, field

import numpy as np
import scipy

from ._version import VERSION
from ._windows import LineWindowMass, WindowGeometry
from .grid import Grid, GridFunction, integrate, make_grid, sample_family
from .maximal import _ball_averages_max, _dunkl_maximal_stack, _window_maximal
from .measure import (
    ball_measure,
    ball_measure_origin,
    doubling_ratio,
    interval_measure,
)
from .norms import (
    NormSpec,
    WeakWindowWorkspace,
    _fofana_sup,
    _IntervalProfileStack,
    _ProfileStack,
    amalgam_norm_r,
    default_radius_grid,
    lp_norm,
    weak_l1_norm,
)
from .params import DunklParams
from .special import _series, bessel_normalized, dunkl_derivative, kernel_values
from .translation import _ball_convolution_stack, convolve, translate, translate_indicator, translate_rows
from .transform import forward, inverse, plancherel_defect

__all__ = ["SuiteConfig", "Case", "VerificationReport", "check_suite", "list_suites", "run_suite"]

INF = math.inf

DEFAULT_KAPPAS = (-0.5, 0.0, 0.5, 1.5)
DEFAULT_FAMILY = (
    ("gaussian", (0.25,)),
    ("gaussian", (0.5,)),
    ("gaussian", (2.0,)),
    ("indicator_ball", (0.5,)),
    ("indicator_ball", (1.0,)),
    ("indicator_ball", (2.0,)),
    ("bump", (0.0, 2.0)),
    ("power_tail", (6.0, 1.0)),
    ("trig_gauss", (1.0,)),
    ("trig_gauss", (2.0,)),
    ("trig_gauss", (3.0,)),
)
DEFAULT_EXPONENTS = ((2.0, 8.0, 4.0), (1.5, 6.0, 2.0), (2.0, INF, 4.0))
DEFAULT_WEAK_EXPONENTS = ((8.0, 4.0), (INF, 2.0))

DEFAULT_TOLERANCES = {
    "kernel_modulus_slack": 1e-10,
    "kernel_classical": 1e-12,
    "series_truncation": 1e-14,
    "eigenfunction_order": 0.35,
    "measure_identity": 1e-12,
    "doubling_slack": 1e-9,
    "reverse_doubling_slack": 1e-9,
    "measure_quadrature": 1e-8,
    "plancherel_classical": 1e-6,
    "plancherel": 1e-4,
    "roundtrip": 1e-4,
    "linearity": 1e-12,
    "parity": 1e-10,
    "gaussian_fixed_point": 1e-3,
    "translation_identity": 1e-4,
    "translation_symmetry": 1e-4,
    "translation_compose": 1e-4,
    "translation_contraction_slack": 1e-2,
    "classical_isometry": 1e-3,
    "translation_mass": 1e-4,
    "differentiation_final": 1e-2,
    "differentiation_monotone_slack": 0.05,
    "indicator_mass": 1e-3,
    "indicator_mass_classical": 5e-2,
    "convolution_commute": 1e-3,
    "young_slack": 1e-2,
    "classical_convolution": 1e-2,
    "holder_slack": 1e-2,
    "homogeneity": 1e-10,
    "triangle_slack": 1e-8,
    "embedding_slack": 1e-2,
    "interval_fofana_slack": 2e-2,
    "weak_dominance_slack": 2e-2,
    "linfty_identity": 1e-6,
    "stability": 0.10,
    "maximal_peak": 1e-2,
    "classical_maximal": 2e-2,
    "monotonicity_slack": 1e-10,
    "monotonicity_spectral": 2e-2,
    "lem6_classical": 5e-2,
}


def _as_tuple_of_tuples(obj):
    return tuple(tuple(float(v) for v in row) for row in obj)


def _params_for(kappa: float) -> DunklParams:
    return DunklParams(kappa, classical=(kappa == -0.5))


@dataclass(frozen=True)
class SuiteConfig:
    """Run parameters shared by every suite.

    exponents are (q, p, alpha) triples with 1 <= q <= alpha <= p <= inf;
    suites that need q > 1 enforce it, the weak suite always uses q = 1.
    r_grid / rho_grid default to the grid-adapted geometric radius grid.
    """

    kappa_list: tuple = DEFAULT_KAPPAS
    half_width: float = 16.0
    node_count: int = 4096
    r_grid: tuple | None = None
    rho_grid: tuple | None = None
    exponents: tuple = DEFAULT_EXPONENTS
    weak_exponents: tuple = DEFAULT_WEAK_EXPONENTS
    family: tuple = DEFAULT_FAMILY
    tolerances: tuple = ()
    seed: int = 7

    def __post_init__(self) -> None:
        kl = tuple(float(k) for k in self.kappa_list)
        if not kl:
            raise ValueError("kappa_list must be non-empty")
        if len(set(kl)) != len(kl):
            raise ValueError(f"kappa_list must not repeat a kappa, got {kl}")
        for k in kl:
            _params_for(k)
        object.__setattr__(self, "kappa_list", kl)
        if not (self.half_width > 0 and math.isfinite(self.half_width)):
            raise ValueError("half_width must be positive")
        n = int(self.node_count)
        # suites that halve the grid need an even node count at N/2 too
        if n < 64 or n % 4:
            raise ValueError(f"node_count must be a multiple of 4 and >= 64, got {n}")
        object.__setattr__(self, "node_count", n)
        exps = _as_tuple_of_tuples(self.exponents)
        for q, p, a in exps:
            if not (1.0 <= q <= a <= p):
                raise ValueError(f"exponent triple violates q <= alpha <= p: {(q, p, a)}")
        object.__setattr__(self, "exponents", exps)
        wexps = _as_tuple_of_tuples(self.weak_exponents)
        for p, a in wexps:
            if not (1.0 <= a <= p):
                raise ValueError(f"weak exponent pair violates alpha <= p: {(p, a)}")
        object.__setattr__(self, "weak_exponents", wexps)
        fam = tuple((str(name), tuple(float(v) for v in ps)) for name, ps in self.family)
        object.__setattr__(self, "family", fam)
        if self.r_grid is not None:
            rg = tuple(float(r) for r in self.r_grid)
            # window radii lie in (0, L/2]; the comparisons also reject nan
            increasing = all(a < b for a, b in zip(rg, rg[1:]))
            if not (rg and 0.0 < rg[0] and increasing and rg[-1] <= self.half_width / 2):
                raise ValueError(f"r_grid must be positive, strictly increasing and at most L/2, got {rg}")
            object.__setattr__(self, "r_grid", rg)
        if self.rho_grid is not None:
            rho = tuple(float(r) for r in self.rho_grid)
            if not (rho and all(0.0 < r < math.inf for r in rho)):
                raise ValueError(f"rho_grid must be non-empty, positive and finite, got {rho}")
            object.__setattr__(self, "rho_grid", rho)
        tol = tuple(sorted((str(k), float(v)) for k, v in dict(self.tolerances).items()))
        for k, v in tol:
            if k not in DEFAULT_TOLERANCES:
                raise ValueError(f"tolerances has unknown key {k!r}")
            if not 0.0 <= v < math.inf:
                raise ValueError(f"tolerances[{k!r}] must be finite and >= 0, got {v}")
        object.__setattr__(self, "tolerances", tol)
        seed = int(self.seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        object.__setattr__(self, "seed", seed)

    def tolerance(self, key: str) -> float:
        for k, v in self.tolerances:
            if k == key:
                return v
        return DEFAULT_TOLERANCES[key]

    def echo(self) -> dict:
        return {
            "kappa_list": list(self.kappa_list),
            "half_width": self.half_width,
            "node_count": self.node_count,
            "r_grid": None if self.r_grid is None else list(self.r_grid),
            "rho_grid": None if self.rho_grid is None else list(self.rho_grid),
            "exponents": [list(t) for t in self.exponents],
            "weak_exponents": [list(t) for t in self.weak_exponents],
            "family": [[name, list(ps)] for name, ps in self.family],
            "tolerances": [[k, v] for k, v in self.tolerances],
            "seed": self.seed,
        }


@dataclass
class Case:
    case_id: str
    statement: str
    kind: str
    inputs: dict
    lhs: float
    rhs: float | None
    slack: float
    passed: bool

    @property
    def ratio(self) -> float:
        if self.rhs is None or self.rhs == 0.0:
            return self.lhs
        return self.lhs / self.rhs

    def to_payload(self) -> dict:
        return {
            "id": self.case_id,
            "statement": self.statement,
            "kind": self.kind,
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio if self.kind != "measure" else None,
            "bound": None if self.rhs is None else self.rhs * (1.0 + self.slack),
            "slack": self.slack,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    suite: str
    config: dict
    cases: list
    runtime_seconds: float = field(default=0.0, compare=False)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.cases if not c.passed)

    @property
    def max_ratio(self) -> float:
        ratios = [c.ratio for c in self.cases if c.kind == "bound" and math.isfinite(c.ratio)]
        return max(ratios) if ratios else 0.0

    def measured(self) -> dict:
        return {c.case_id: c.lhs for c in self.cases if c.kind == "measure"}

    def to_payload(self) -> dict:
        # runtime intentionally excluded: payloads are deterministic per config
        return {
            "suite": self.suite,
            "config": self.config,
            "cases": [c.to_payload() for c in self.cases],
            "summary": {
                "n_cases": len(self.cases),
                "n_failed": self.n_failed,
                "max_ratio": self.max_ratio,
                "statements": sorted({c.statement for c in self.cases}),
                "measured": dict(sorted(self.measured().items())),
            },
            "provenance": {
                "package": VERSION,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        }

    def to_json(self) -> str:
        return canonical_json(self.to_payload()) + "\n"


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return "%.17g" % x


def canonical_json(obj) -> str:
    """JSON with deterministic layout: insertion-order keys, floats at 17
    significant digits, non-finite floats as strings."""
    out: list[str] = []

    def emit(o):
        if o is None:
            out.append("null")
        elif o is True:
            out.append("true")
        elif o is False:
            out.append("false")
        elif isinstance(o, str):
            out.append('"' + o.replace("\\", "\\\\").replace('"', '\\"') + '"')
        elif isinstance(o, (int, np.integer)):
            out.append(str(int(o)))
        elif isinstance(o, (float, np.floating)):
            out.append(_fmt_float(float(o)))
        elif isinstance(o, dict):
            out.append("{")
            for i, (k, v) in enumerate(o.items()):
                if i:
                    out.append(",")
                emit(str(k))
                out.append(":")
                emit(v)
            out.append("}")
        elif isinstance(o, (list, tuple)):
            out.append("[")
            for i, v in enumerate(o):
                if i:
                    out.append(",")
                emit(v)
            out.append("]")
        else:
            raise TypeError(f"cannot serialize {type(o)!r}")

    emit(obj)
    return "".join(out)


class _Recorder:
    """A suite's cases, in order.  rec.at(kappa) is a view recording into the
    same cases, with "kappa": kappa first in their inputs; ktag is its label."""

    def __init__(self, name: str, cfg: SuiteConfig, cases=None, kappa=None):
        self.name = name
        self.cfg = cfg
        self.cases: list[Case] = [] if cases is None else cases
        self._lead = {} if kappa is None else {"kappa": kappa}
        self.ktag = None if kappa is None else "k" + ("%g" % kappa).replace("-", "m")

    def at(self, kappa: float) -> _Recorder:
        return _Recorder(self.name, self.cfg, self.cases, kappa)

    def rng(self, label: str = "") -> np.random.Generator:
        return np.random.default_rng(
            [self.cfg.seed, zlib.crc32(self.name.encode()), zlib.crc32(label.encode())]
        )

    def _add(self, case_id, statement, kind, inputs, lhs, rhs, slack, ok):
        inputs = {**self._lead, **inputs}
        self.cases.append(Case(case_id, statement, kind, inputs, lhs, rhs, slack, ok))
        return ok

    def bound(self, case_id, statement, lhs, rhs, slack=0.0, **inputs):
        lhs = float(lhs)
        rhs = float(rhs)
        ok = math.isfinite(lhs) and lhs <= rhs * (1.0 + slack)
        return self._add(case_id, statement, "bound", inputs, lhs, rhs, float(slack), ok)

    def match(self, case_id, statement, value, expected, tol, **inputs):
        lhs = abs(float(value) - float(expected))
        ok = math.isfinite(lhs) and lhs <= tol
        inputs = {**inputs, "expected": float(expected)}
        return self._add(case_id, statement, "match", inputs, lhs, float(tol), 0.0, ok)

    def measure(self, case_id, statement, value, **inputs):
        v = float(value)
        self._add(case_id, statement, "measure", inputs, v, None, 0.0, math.isfinite(v))
        return v

    def stability(self, case_id, statement, value, reference, **inputs):
        """Bound the drift |value/reference - 1| between two grid or domain
        sizes (the largest one, for tuples) by the stability tolerance."""
        pairs = zip(value, reference) if isinstance(value, tuple) else [(value, reference)]
        drift = max(abs(v / r - 1.0) for v, r in pairs)
        return self.bound(case_id, statement, drift, self.cfg.tolerance("stability"), 0.0, **inputs)

    def report(self) -> VerificationReport:
        return VerificationReport(self.name, self.cfg.echo(), self.cases)


def _family(cfg: SuiteConfig, grid: Grid, names=None):
    out = []
    for name, ps in cfg.family:
        if names is not None and name not in names:
            continue
        fid = f"{name}({','.join('%g' % v for v in ps)})"
        out.append((fid, sample_family(name, ps, grid)))
    return out


def _stack(fam) -> np.ndarray:
    """The samples of (id, function) pairs as one (F, N) stack."""
    return np.stack([f.values for _, f in fam])


def _refined(cfg: SuiteConfig, params: DunklParams, evaluate):
    """evaluate(grid) on the grid of N/2 nodes and then on that of N nodes;
    returns (coarse, fine)."""
    sizes = (cfg.node_count // 2, cfg.node_count)
    return tuple(evaluate(make_grid(params, cfg.half_width, n)) for n in sizes)


def _radius_grid(cfg: SuiteConfig, grid: Grid):
    return cfg.r_grid if cfg.r_grid is not None else default_radius_grid(grid)


def _rho_grid(cfg: SuiteConfig, grid: Grid):
    return cfg.rho_grid if cfg.rho_grid is not None else default_radius_grid(grid)


_SUITES: dict = {}


def _suite(fn):
    name = fn.__name__.removeprefix("_suite_")
    _SUITES[name] = fn
    return fn


def _per_kappa(body):
    """Register body(rec, cfg, kappa, params) as a suite that runs it once per
    kappa of the config, in order, recording through the view rec.at(kappa)."""

    def run(rec: _Recorder, cfg: SuiteConfig):
        for kappa in cfg.kappa_list:
            body(rec.at(kappa), cfg, kappa, _params_for(kappa))

    run.__name__ = body.__name__
    return _suite(run)


def list_suites():
    """Known suite ids in declaration order."""
    return list(_SUITES)


# Suites with the fixed window radius r = 1, which must lie in (0, L/2].
_UNIT_WINDOW_SUITES = ("holder", "linfty_identity", "embeddings")


def check_suite(name: str, cfg: SuiteConfig) -> None:
    """Raise ValueError if the suite is unknown or cannot run on cfg (both
    suites of the strong maximal theorem need q > 1, and the suites with
    the window radius r = 1 need L >= 2)."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(list_suites())}")
    strong = name in ("theorem_maxi", "interval_fofana_maximal")
    if strong and any(q <= 1.0 for q, _, _ in cfg.exponents):
        raise ValueError(f"suite {name!r}: the strong maximal theorem requires q > 1")
    if name in _UNIT_WINDOW_SUITES and cfg.half_width < 2.0:
        raise ValueError(
            f"suite {name!r}: the window radius r = 1 requires L >= 2, got L = {cfg.half_width:g}"
        )


def run_suite(name: str, config: SuiteConfig | None = None) -> VerificationReport:
    """Execute one named suite.  Failed inequalities are recorded, never
    raised; the report carries every case."""
    cfg = config if config is not None else SuiteConfig()
    check_suite(name, cfg)
    rec = _Recorder(name, cfg)
    t0 = time.perf_counter()
    _SUITES[name](rec, cfg)
    report = rec.report()
    report.runtime_seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


@_suite
def _suite_kernel(rec: _Recorder, cfg: SuiteConfig):
    rng = rec.rng("modulus")
    worst = 0.0
    for _ in range(20):
        k = float(rng.uniform(-0.499, 3.0))
        s = rng.uniform(-50.0, 50.0, 500)
        worst = max(worst, float(np.max(np.abs(kernel_values(DunklParams(k), s)))))
    rec.bound(
        "kernel_modulus",
        "kernel_modulus_bound",
        worst,
        1.0,
        cfg.tolerance("kernel_modulus_slack"),
        samples=10000,
    )

    rng2 = rec.rng("classical")
    s = rng2.uniform(-50.0, 50.0, 2000)
    pc = _params_for(-0.5)
    dev = float(np.max(np.abs(kernel_values(pc, s) - np.exp(1j * s))))
    rec.match(
        "kernel_classical_exponential",
        "kernel_classical_exponential",
        dev,
        0.0,
        cfg.tolerance("kernel_classical"),
        samples=2000,
    )

    for kappa in cfg.kappa_list:
        p = _params_for(kappa)
        krec = rec.at(kappa)
        krec.match(
            f"kernel_at_zero_{krec.ktag}",
            "kernel_value_at_zero",
            abs(complex(kernel_values(p, 0.0)) - 1.0),
            0.0,
            0.0,
        )

    rng3 = rec.rng("conjugate")
    s = rng3.uniform(-50.0, 50.0, 1000)
    dev = 0.0
    for kappa in cfg.kappa_list:
        p = _params_for(kappa)
        dev = max(dev, float(np.max(np.abs(kernel_values(p, -s) - np.conj(kernel_values(p, s))))))
    rec.match("kernel_conjugate_symmetry", "kernel_conjugate_symmetry", dev, 0.0, 0.0)

    rng4 = rec.rng("evenness")
    z = rng4.uniform(0.0, 60.0, 1000)
    dev = 0.0
    for order in (-0.4, 0.0, 0.7, 1.5, 2.5):
        dev = max(
            dev, float(np.max(np.abs(bessel_normalized(order, z) - bessel_normalized(order, -z))))
        )
    rec.match("bessel_evenness", "bessel_evenness", dev, 0.0, 0.0)

    # series truncation: tightening the stopping tolerance must not move values
    rng5 = rec.rng("series")
    z = rng5.uniform(0.0, 10.0, 200)
    worst = 0.0
    for order in (-0.3, 0.5, 1.5, 3.0):
        base = _series(order, z * z)
        tighter = _series(order, z * z, tol=1e-19)
        worst = max(worst, float(np.max(np.abs(base - tighter) / np.abs(tighter))))
    rec.bound(
        "series_truncation",
        "bessel_series_truncation",
        worst,
        cfg.tolerance("series_truncation"),
        0.0,
    )

    # eigenfunction identity under grid refinement
    n0 = min(cfg.node_count, 1024)
    for kappa in cfg.kappa_list:
        p = _params_for(kappa)
        krec = rec.at(kappa)
        for lam in (0.5, 1.0, 2.0):
            errs = []
            for n in (n0, 2 * n0):
                g = make_grid(p, 4.0, n)
                kv = kernel_values(p, lam * g.nodes)
                d = dunkl_derivative(p, GridFunction(g, kv.real))
                sel = slice(4, -4)
                errs.append(float(np.max(np.abs(d.values[sel] + lam * kv.imag[sel]))))
            krec.bound(
                f"eigenfunction_{krec.ktag}_lam{lam:g}",
                "eigenfunction_identity",
                errs[1],
                cfg.tolerance("eigenfunction_order") * errs[0],
                0.0,
                lam=lam,
                coarse_error=errs[0],
            )


def _trapezoid_measure(params: DunklParams, a: float, b: float, n: int) -> float:
    """Trapezoid quadrature of the weight density, splitting at 0 so the kink
    lands on a node."""
    if a >= b:
        return 0.0
    if a < 0.0 < b:
        return _trapezoid_measure(params, a, 0.0, n // 2) + _trapezoid_measure(
            params, 0.0, b, n // 2
        )
    t = np.linspace(a, b, n + 1)
    w = params.c_kappa * np.abs(t) ** (2.0 * params.kappa + 1.0)
    return float(np.trapezoid(w, t))


@_suite
def _suite_measure_lemmas(rec: _Recorder, cfg: SuiteConfig):
    rng = rec.rng("cases")
    n = 10000
    kap = rng.uniform(-0.499, 3.0, n)
    x = rng.uniform(-20.0, 20.0, n)
    r = np.exp(rng.uniform(math.log(0.01), math.log(10.0), n))
    tol = cfg.tolerance("measure_identity")
    worst_b = 0.0
    worst_eq = 0.0
    worst_l5 = 0.0
    for k, xi, ri in zip(kap, x, r):
        p = DunklParams(float(k))
        b = ball_measure(p, float(xi), float(ri))
        iv = interval_measure(p, float(xi), float(ri))
        i0 = interval_measure(p, 0.0, float(ri))
        worst_b = max(worst_b, b / (2.0 * iv))
        worst_l5 = max(worst_l5, i0 / (2.0 * iv))
        if abs(xi) >= ri:
            worst_eq = max(worst_eq, abs(b - 2.0 * iv) / b)
    rec.bound("ball_le_twice_interval", "ball_interval_bound", worst_b, 1.0, tol, samples=n)
    rec.match("ball_eq_twice_interval_far", "ball_interval_equality", worst_eq, 0.0, tol, samples=n)
    rec.bound("origin_interval_bound", "origin_interval_bound", worst_l5, 1.0, tol, samples=n)

    rng2 = rec.rng("doubling")
    for kappa in cfg.kappa_list:
        p = _params_for(kappa)
        krec = rec.at(kappa)
        xs = rng2.uniform(-30.0, 30.0, 2000)
        rs = np.exp(rng2.uniform(math.log(0.01), math.log(10.0), 2000))
        ratios = np.array([doubling_ratio(p, float(a), float(b)) for a, b in zip(xs, rs)])
        cap = 2.0 ** (2.0 * kappa + 2.0)
        krec.bound(
            f"doubling_{krec.ktag}",
            "doubling",
            float(np.max(ratios)),
            cap,
            cfg.tolerance("doubling_slack"),
        )
        krec.measure(
            f"doubling_constant_{krec.ktag}", "doubling", float(np.max(ratios))
        )
        worst = 0.0
        for rho in (1.5, 2.0, 4.0):
            vals = np.array(
                [
                    rho
                    * interval_measure(p, float(a), float(b))
                    / interval_measure(p, float(a), rho * float(b))
                    for a, b in zip(xs, rs)
                ]
            )
            worst = max(worst, float(np.max(vals)))
        if kappa >= 0.0 or p.classical:
            krec.bound(
                f"reverse_doubling_{krec.ktag}",
                "reverse_doubling",
                worst,
                1.0,
                cfg.tolerance("reverse_doubling_slack"),
            )
        else:
            # the unit-constant, exponent-1 reverse doubling fails marginally
            # for -1/2 < kappa < 0; only existence of constants is claimed, so
            # the measured constant is reported instead
            krec.measure(
                f"reverse_doubling_constant_{krec.ktag}",
                "reverse_doubling",
                worst,
            )

    qtol = cfg.tolerance("measure_quadrature")
    for kappa in cfg.kappa_list:
        p = _params_for(kappa)
        if kappa < 0.0 and not p.classical:
            continue  # trapezoid cannot reach 1e-8 against an unbounded-slope kink
        krec = rec.at(kappa)
        worst = 0.0
        for (xc, rc) in ((0.0, 1.0), (0.5, 1.0), (2.0, 1.0), (-3.0, 2.5)):
            iv = interval_measure(p, xc, rc)
            quad = _trapezoid_measure(p, xc - rc, xc + rc, 1_000_000)
            worst = max(worst, abs(iv - quad) / iv)
            bl = ball_measure(p, xc, rc)
            lo = max(0.0, abs(xc) - rc)
            hi = abs(xc) + rc
            quad_b = 2.0 * _trapezoid_measure(p, lo, hi, 1_000_000)
            worst = max(worst, abs(bl - quad_b) / bl)
        krec.bound(
            f"measure_quadrature_{krec.ktag}",
            "measure_closed_form",
            worst,
            qtol,
            0.0,
        )


@_per_kappa
def _suite_transform(rec: _Recorder, cfg: SuiteConfig, kappa: float, p: DunklParams):
    tol = cfg.tolerance("plancherel_classical") if p.classical else cfg.tolerance("plancherel")
    for a in (0.25, 0.5, 2.0):
        coarse, fine = _refined(
            cfg, p, lambda g: plancherel_defect(sample_family("gaussian", (a,), g))
        )
        rec.bound(
            f"plancherel_{rec.ktag}_a{a:g}",
            "plancherel",
            fine,
            tol,
            0.0,
            family=f"gaussian({a:g})",
        )
        rec.bound(
            f"plancherel_refine_{rec.ktag}_a{a:g}",
            "plancherel",
            fine,
            1.05 * coarse + 1e-12,
            0.0,
            family=f"gaussian({a:g})",
            coarse_defect=coarse,
        )
    g = make_grid(p, cfg.half_width, cfg.node_count)
    interior = np.abs(g.nodes) <= cfg.half_width / 2.0
    for short, assert_up_to, f in (
        ("gauss", 1.0, sample_family("gaussian", (0.5,), g)),
        ("bump", 0.5, sample_family("bump", (0.0, 2.0), g)),
    ):
        rt = inverse(forward(f))
        diff = np.abs(rt.values - f.values)
        dev = float(np.max(diff)) if short == "gauss" else float(np.max(diff[interior]))
        if kappa <= assert_up_to:
            rec.match(
                f"roundtrip_{rec.ktag}_{short}",
                "inversion_roundtrip",
                dev,
                0.0,
                cfg.tolerance("roundtrip"),
            )
        else:
            # band truncation of slowly decaying spectra grows with the
            # weight exponent; beyond the validated range the round-trip
            # defect is reported rather than bounded
            rec.measure(
                f"roundtrip_{rec.ktag}_{short}",
                "inversion_roundtrip",
                dev,
            )
    f1 = sample_family("gaussian", (0.5,), g)
    f2 = sample_family("bump", (0.0, 2.0), g)
    combo = forward(GridFunction(g, 2.0 * f1.values + 3.0 * f2.values))
    split = 2.0 * forward(f1).values + 3.0 * forward(f2).values
    scale = float(np.max(np.abs(split)))
    rec.match(
        f"linearity_{rec.ktag}",
        "transform_linearity",
        float(np.max(np.abs(combo.values - split))) / scale,
        0.0,
        cfg.tolerance("linearity"),
    )
    even = f1
    fe = forward(even)
    rec.bound(
        f"parity_even_{rec.ktag}",
        "transform_parity",
        float(np.max(np.abs(fe.values.imag))),
        cfg.tolerance("parity") * float(np.max(np.abs(fe.values))),
        0.0,
    )
    odd = GridFunction(g, g.nodes * even.values)
    fo = forward(odd)
    rec.bound(
        f"parity_odd_{rec.ktag}",
        "transform_parity",
        float(np.max(np.abs(fo.values.real))),
        cfg.tolerance("parity") * float(np.max(np.abs(fo.values))),
        0.0,
    )
    fixed = forward(even, g)  # frequencies on the spatial nodes
    rec.match(
        f"gaussian_fixed_point_{rec.ktag}",
        "gaussian_fixed_point",
        float(np.max(np.abs(fixed.values - np.exp(-(g.nodes**2) / 2.0)))),
        0.0,
        cfg.tolerance("gaussian_fixed_point"),
    )
    fmin = fixed.values[np.argmin(np.abs(g.nodes))]
    rec.match(
        f"transform_at_zero_{rec.ktag}",
        "transform_at_zero",
        abs(complex(fmin) - integrate(even)),
        0.0,
        2.0 * float(np.min(np.abs(g.nodes))) * max(1.0, abs(integrate(even))),
    )
    z = forward(GridFunction(g, np.zeros(g.node_count)))
    rec.match(
        f"transform_zero_{rec.ktag}",
        "transform_linearity",
        float(np.max(np.abs(z.values))),
        0.0,
        0.0,
    )


@_per_kappa
def _suite_translation(rec: _Recorder, cfg: SuiteConfig, kappa: float, p: DunklParams):
    smooth = ("gaussian", "bump", "trig_gauss")
    g = make_grid(p, cfg.half_width, cfg.node_count)
    fam = _family(cfg, g)
    fam_smooth = [(fid, f) for fid, f in fam if fid.startswith(smooth)]
    L = cfg.half_width

    # identity at zero offset
    worst = 0.0
    for fid, f in fam_smooth[:3]:
        worst = max(worst, float(np.max(np.abs(translate(f, 0.0).values - f.values))))
    rec.match(
        f"identity_{rec.ktag}",
        "translation_identity",
        worst,
        0.0,
        cfg.tolerance("translation_identity"),
    )

    # symmetry on random node pairs
    rng = rec.rng(f"pairs_{kappa}")
    node_pool = np.where(np.abs(g.nodes) <= L / 2.0)[0]
    pairs = rng.choice(node_pool, size=(50, 2), replace=True)
    check_members = [m for m in fam_smooth if m[0] in ("gaussian(0.5)", "bump(0,2)")]
    # tau[a, b] is the translate by node idx[a] at node idx[b]
    idx = np.unique(pairs)
    pos = np.searchsorted(idx, pairs)
    worst = 0.0
    for fid, f in check_members:
        sup = float(np.max(np.abs(f.values)))
        tau = translate_rows(f, g.nodes[idx])[:, idx]
        gap = np.abs(tau[pos[:, 0], pos[:, 1]] - tau[pos[:, 1], pos[:, 0]]) / sup
        worst = max(worst, float(np.max(gap)))
    rec.bound(
        f"symmetry_{rec.ktag}",
        "translation_symmetry",
        worst,
        cfg.tolerance("translation_symmetry"),
        0.0,
        pairs=50,
    )

    # composition commutes
    f = check_members[0][1]
    ab = translate(translate(f, 1.0), -2.5)
    ba = translate(translate(f, -2.5), 1.0)
    rec.match(
        f"compose_{rec.ktag}",
        "translation_commutes",
        float(np.max(np.abs(ab.values - ba.values))),
        0.0,
        cfg.tolerance("translation_compose") * float(np.max(np.abs(f.values))),
    )

    # contraction in L^p with constant 4
    offsets = (-4.0, -1.0, 1.0, 4.0, L / 2.0)
    worst = 0.0
    worst_smooth = 0.0
    for fid, f in fam:
        norms = {q: lp_norm(f, q) for q in (1.0, 2.0, 4.0, INF)}
        for row in translate_rows(f, offsets):
            tf = GridFunction(g, row)
            for q, base in norms.items():
                if base == 0.0:
                    continue
                ratio = lp_norm(tf, q) / base
                worst = max(worst, ratio)
                if fid.startswith(smooth):
                    worst_smooth = max(worst_smooth, ratio)
    rec.bound(
        f"contraction_{rec.ktag}",
        "translation_contraction",
        worst,
        4.0,
        cfg.tolerance("translation_contraction_slack"),
    )
    rec.measure(
        f"contraction_max_ratio_{rec.ktag}",
        "translation_contraction",
        worst,
    )
    if p.classical:
        rec.bound(
            "classical_isometry",
            "translation_contraction",
            worst_smooth,
            1.0,
            cfg.tolerance("classical_isometry"),
            note="smooth family members",
        )

    # mass preservation of smooth translates
    worst = 0.0
    for fid, f in check_members:
        base = integrate(f)
        for row in translate_rows(f, (1.0, -3.0, L / 2.0)):
            worst = max(worst, abs(integrate(GridFunction(g, row)) - base) / abs(base))
    rec.bound(
        f"mass_{rec.ktag}",
        "translation_mass",
        worst,
        cfg.tolerance("translation_mass"),
        0.0,
    )

    # pointwise recovery by shrinking window averages
    f = check_members[0][1]
    for x0 in (0.5, 2.0):
        idx = int(np.argmin(np.abs(g.nodes - x0)))
        xv = float(g.nodes[idx])
        tf = translate(f, xv)
        mass = LineWindowMass.folded(g, tf.values)
        etas = [8.0 * g.spacing * 2.0**k for k in range(8) if 8.0 * g.spacing * 2.0**k <= 1.0]
        etas = sorted(etas, reverse=True)
        errs = []
        for eta in etas:
            avg = float(mass.window(0.0, eta)) / ball_measure_origin(p, eta)
            errs.append(abs(avg - float(f.values[idx])))
        sup = float(np.max(np.abs(f.values)))
        monotone_break = 0.0
        for e0, e1 in zip(errs, errs[1:]):
            if e0 > 1e-8:
                monotone_break = max(monotone_break, e1 / e0)
        rec.bound(
            f"differentiation_monotone_{rec.ktag}_x{x0:g}",
            "lebesgue_differentiation",
            monotone_break,
            1.0,
            cfg.tolerance("differentiation_monotone_slack"),
            x=xv,
        )
        rec.bound(
            f"differentiation_final_{rec.ktag}_x{x0:g}",
            "lebesgue_differentiation",
            errs[-1],
            cfg.tolerance("differentiation_final") * sup,
            0.0,
            x=xv,
            windows=len(errs),
        )

    # translated indicators: range, support, mass, decay profile
    for (y, r) in ((2.0, 1.0), (4.0, 2.0), (3.0, 1.5)):
        ti = translate_indicator(p, y, r, g)
        rec.match(
            f"indicator_range_{rec.ktag}_y{y:g}_r{r:g}",
            "indicator_translation_range",
            float(np.max(np.clip(ti.values, None, 0.0)))
            + float(np.max(np.clip(ti.values - 1.0, 0.0, None))),
            0.0,
            0.0,
            y=y,
            r=r,
        )
        absx = np.abs(g.nodes)
        outside = (absx <= max(0.0, y - r)) | (absx >= y + r)
        rec.match(
            f"indicator_support_{rec.ktag}_y{y:g}_r{r:g}",
            "indicator_translation_support",
            float(np.max(np.abs(ti.values[outside]))),
            0.0,
            0.0,
            y=y,
            r=r,
        )
        mass_rel = abs(integrate(ti) - ball_measure_origin(p, r)) / ball_measure_origin(p, r)
        # classical sharp jumps: the clamped, support-restricted reconstruction
        # carries a percent-level mass bias inherent to band limiting
        rec.bound(
            f"indicator_mass_{rec.ktag}_y{y:g}_r{r:g}",
            "indicator_translation_mass",
            mass_rel,
            cfg.tolerance("indicator_mass_classical" if p.classical else "indicator_mass"),
            0.0,
            y=y,
            r=r,
        )
    # raw overshoot of the spectral translation before clamping
    chi = sample_family("indicator_ball", (1.0,), g)
    raw = translate(chi, 2.0)
    rec.measure(
        f"indicator_raw_overshoot_{rec.ktag}",
        "indicator_translation_range",
        max(float(np.max(raw.values - 1.0)), float(np.max(-raw.values))),
        y=2.0,
        r=1.0,
    )
    if kappa > 0.0:
        profile_c = 0.0
        r = 1.0
        ti = translate_indicator(p, 4.0, r, g)
        sel = np.abs(g.nodes) > 2.0 * r
        h = np.abs(ti.values[sel])
        profile_c = float(np.max(h * (np.abs(g.nodes[sel]) / r) ** (2.0 * kappa + 1.0)))
        rec.measure(
            f"indicator_decay_constant_{rec.ktag}",
            "indicator_translation_decay",
            profile_c,
            y=4.0,
            r=r,
        )

    # translation commutes with convolution
    fa = check_members[0][1]
    fb = check_members[-1][1]
    conv = convolve(fa, fb)
    lhs_f = translate(conv, 1.5)
    rhs_f = convolve(translate(fa, 1.5), fb)
    rec.match(
        f"convolution_commute_{rec.ktag}",
        "translation_convolution_commute",
        float(np.max(np.abs(lhs_f.values - rhs_f.values))),
        0.0,
        cfg.tolerance("convolution_commute") * float(np.max(np.abs(conv.values))),
    )


# (p, q, r) with 1/p + 1/q = 1 + 1/r
_YOUNG_TRIPLES = ((1.0, 1.0, 1.0), (1.0, 2.0, 2.0), (2.0, 2.0, INF), (1.5, 3.0, INF))


@_per_kappa
def _suite_young(rec: _Recorder, cfg: SuiteConfig, kappa: float, p: DunklParams):
    g = make_grid(p, cfg.half_width, cfg.node_count)
    pairs = [
        ("gaussian(0.5)", sample_family("gaussian", (0.5,), g), "bump(0,2)", sample_family("bump", (0.0, 2.0), g)),
        ("gaussian(2)", sample_family("gaussian", (2.0,), g), "indicator_ball(1)", sample_family("indicator_ball", (1.0,), g)),
        ("trig_gauss(1)", sample_family("trig_gauss", (1.0,), g), "gaussian(0.25)", sample_family("gaussian", (0.25,), g)),
        ("indicator_ball(1)", sample_family("indicator_ball", (1.0,), g), "indicator_ball(1)", sample_family("indicator_ball", (1.0,), g)),
    ]
    worst = 0.0
    for fid, f, gid, h in pairs:
        conv = convolve(f, h)
        for pp, qq, rr in _YOUNG_TRIPLES:
            denom = lp_norm(f, pp) * lp_norm(h, qq)
            if denom == 0.0:
                continue
            worst = max(worst, lp_norm(conv, rr) / denom)
    rec.bound(
        f"young_{rec.ktag}",
        "young_inequality",
        worst,
        4.0,
        cfg.tolerance("young_slack"),
    )
    rec.measure(f"young_max_ratio_{rec.ktag}", "young_inequality", worst)

    f, h = pairs[0][1], pairs[0][3]
    ab = convolve(f, h)
    ba = convolve(h, f)
    scale = lp_norm(f, 2.0) * lp_norm(h, 2.0)
    rec.bound(
        f"commutativity_{rec.ktag}",
        "convolution_commutativity",
        float(np.max(np.abs(ab.values - ba.values))),
        1e-10 * scale,
        0.0,
    )
    zero = convolve(f, GridFunction(g, np.zeros(g.node_count)))
    rec.match(
        f"zero_{rec.ktag}",
        "convolution_zero",
        float(np.max(np.abs(zero.values))),
        0.0,
        0.0,
    )
    if p.classical:
        chi = sample_family("indicator_ball", (1.0,), g)
        conv = convolve(chi, chi)
        i0 = int(np.argmin(np.abs(g.nodes)))
        x0 = abs(float(g.nodes[i0]))
        rec.match(
            "classical_convolution_peak",
            "convolution_classical_value",
            float(conv.values[i0]),
            (2.0 - x0) / math.sqrt(2.0 * math.pi),
            cfg.tolerance("classical_convolution"),
            node=x0,
        )


@_per_kappa
def _suite_holder(rec: _Recorder, cfg: SuiteConfig, kappa: float, p: DunklParams):
    q_pairs = ((2.0, 2.0), (4.0, 4.0 / 3.0))
    p_pairs = ((INF, INF), (4.0, 4.0))
    g = make_grid(p, cfg.half_width, cfg.node_count)
    pairs = [
        ("gaussian(0.5)", sample_family("gaussian", (0.5,), g), "bump(0,2)", sample_family("bump", (0.0, 2.0), g)),
        ("trig_gauss(2)", sample_family("trig_gauss", (2.0,), g), "gaussian(0.25)", sample_family("gaussian", (0.25,), g)),
        ("indicator_ball(1)", sample_family("indicator_ball", (1.0,), g), "gaussian(2)", sample_family("gaussian", (2.0,), g)),
    ]
    # one stack of the products, the first and the second factors: each
    # exponent q takes one spectral evaluation, shared by both p pairs
    n = len(pairs)
    prof = _ProfileStack(
        g,
        np.stack(
            [f.values * h.values for _, f, _, h in pairs]
            + [f.values for _, f, _, _ in pairs]
            + [h.values for _, _, _, h in pairs]
        ),
        (1.0,),
    )
    worst = 0.0
    for k in range(n):
        for q1, q2 in q_pairs:
            qq = 1.0 / (1.0 / q1 + 1.0 / q2)
            for p1, p2 in p_pairs:
                pp = INF if (p1 == INF and p2 == INF) else 1.0 / (1.0 / p1 + 1.0 / p2)
                lhs = prof.amalgam(qq, pp, 1.0)[k]
                rhs = prof.amalgam(q1, p1, 1.0)[n + k] * prof.amalgam(q2, p2, 1.0)[2 * n + k]
                if rhs == 0.0:
                    continue
                worst = max(worst, lhs / rhs)
    rec.bound(
        f"holder_{rec.ktag}",
        "amalgam_holder",
        worst,
        1.0,
        cfg.tolerance("holder_slack"),
    )

    # norm axioms at (q, p) = (2, 4), window radius 1: the family, its
    # scaled members and the random combinations in one stack
    fam = _family(cfg, g)
    scales = [(fid, f, c) for fid, f in fam[:4] for c in (2.5, -3.0)]
    rng = rec.rng(f"triangle_{kappa}")
    combos = []
    for _ in range(100):
        i, j = rng.integers(0, len(fam), 2)
        a, b = rng.uniform(-2.0, 2.0, 2)
        combos.append((i, j, a, b))
    norms = _ProfileStack(
        g,
        np.stack(
            [f.values for _, f in fam]
            + [(c * f).values for _, f, c in scales]
            + [(a * fam[i][1] + b * fam[j][1]).values for i, j, a, b in combos]
        ),
        (1.0,),
    ).amalgam(2.0, 4.0, 1.0)
    base_norms = dict(zip((fid for fid, _ in fam), norms))
    worst_h = 0.0
    for (fid, _, c), scaled in zip(scales, norms[len(fam) :]):
        worst_h = max(
            worst_h, abs(scaled - abs(c) * base_norms[fid]) / (abs(c) * base_norms[fid])
        )
    rec.bound(
        f"homogeneity_{rec.ktag}",
        "amalgam_norm_axioms",
        worst_h,
        cfg.tolerance("homogeneity"),
        0.0,
    )
    worst_t = -INF
    for (i, j, a, b), lhs in zip(combos, norms[len(fam) + len(scales) :]):
        rhs = abs(a) * base_norms[fam[i][0]] + abs(b) * base_norms[fam[j][0]]
        scale = max(rhs, 1e-30)
        worst_t = max(worst_t, (lhs - rhs) / scale)
    rec.bound(
        f"triangle_{rec.ktag}",
        "amalgam_norm_axioms",
        worst_t,
        cfg.tolerance("triangle_slack"),
        0.0,
        pairs=100,
    )
    zero_norm = amalgam_norm_r(GridFunction(g, np.zeros(g.node_count)), 2.0, 4.0, 1.0)
    rec.match(
        f"definiteness_zero_{rec.ktag}",
        "amalgam_norm_axioms",
        zero_norm,
        0.0,
        0.0,
    )
    rec.bound(
        f"definiteness_positive_{rec.ktag}",
        "amalgam_norm_axioms",
        1e-300,
        min(base_norms.values()),
        0.0,
    )


_EMBEDDING_FAMILY = ("gaussian", "indicator_ball", "bump", "trig_gauss", "power_tail")


def _interval_translation_constants(cfg: SuiteConfig, rg, prof: _ProfileStack):
    """Worst ratios over the family and exponents of the interval-window norm
    and of its ball-scaled companion to the translation-window norm, read
    from the window profiles prof of the family stack and from one interval
    profile stack of the same rows."""
    intervals = _IntervalProfileStack(WindowGeometry.interval(prof.grid), prof.rows, rg)
    unscaled = scaled = 0.0
    for (q, pp, alpha) in cfg.exponents:
        spec = NormSpec(q, pp, alpha, rg)
        for denom, interval, ball_scaled in zip(
            prof.fofana(spec), intervals.fofana(spec), intervals.fofana(spec, ball_scaled=True)
        ):
            if denom == 0.0:
                continue
            unscaled = max(unscaled, interval / denom)
            scaled = max(scaled, ball_scaled / denom)
    return unscaled, scaled


@_per_kappa
def _suite_embeddings(rec: _Recorder, cfg: SuiteConfig, kappa: float, p: DunklParams):
    slack = cfg.tolerance("embedding_slack")
    g = make_grid(p, cfg.half_width, cfg.node_count)
    rg = _radius_grid(cfg, g)
    mu1 = ball_measure_origin(p, 1.0)
    fam = _family(cfg, g, names=_EMBEDDING_FAMILY)
    # one profile stack per q over the radius grid and r = 1
    prof = _ProfileStack(g, _stack(fam), (*rg, 1.0))

    worst = 0.0
    for (q, s, pp) in ((1.0, 2.0, 4.0), (2.0, 2.0, INF), (2.0, 4.0, 8.0), (1.0, 1.0, 2.0)):
        const = 4.0 ** (1.0 / q) * mu1 ** (
            (0.0 if pp == INF else 1.0 / pp) - 1.0 / s + 1.0 / q
        )
        for (fid, f), norm in zip(fam, prof.amalgam(q, pp, 1.0)):
            denom = const * lp_norm(f, s)
            if denom == 0.0:
                continue
            worst = max(worst, norm / denom)
    rec.bound(
        f"lebesgue_amalgam_{rec.ktag}",
        "lebesgue_amalgam_embedding",
        worst,
        1.0,
        slack,
    )

    worst = 0.0
    for (q1, q2, pp) in ((1.0, 2.0, 4.0), (2.0, 4.0, 8.0), (1.0, 2.0, INF), (2.0, INF, INF)):
        const = mu1 ** (1.0 / q1 - (0.0 if q2 == INF else 1.0 / q2))
        for n1, n2 in zip(prof.amalgam(q1, pp, 1.0), prof.amalgam(q2, pp, 1.0)):
            denom = const * n2
            if denom == 0.0:
                continue
            worst = max(worst, n1 / denom)
    rec.bound(
        f"amalgam_q_monotone_{rec.ktag}",
        "amalgam_q_monotonicity",
        worst,
        1.0,
        slack,
    )

    worst = 0.0
    for (q, pp, alpha) in cfg.exponents:
        spec = NormSpec(q, pp, alpha, rg)
        for (fid, f), norm in zip(fam, prof.fofana(spec)):
            denom = 4.0 ** (1.0 / q) * lp_norm(f, alpha)
            if denom == 0.0:
                continue
            worst = max(worst, norm / denom)
    rec.bound(
        f"lebesgue_fofana_{rec.ktag}",
        "lebesgue_fofana_embedding",
        worst,
        1.0,
        slack,
    )

    worst = 0.0
    for (q1, q2, pp, alpha) in ((1.0, 2.0, 8.0, 4.0), (1.5, 2.0, 8.0, 2.0)):
        s1 = NormSpec(q1, pp, alpha, rg)
        s2 = NormSpec(q2, pp, alpha, rg)
        for n1, denom in zip(prof.fofana(s1), prof.fofana(s2)):
            if denom == 0.0:
                continue
            worst = max(worst, n1 / denom)
    rec.bound(
        f"fofana_q_monotone_{rec.ktag}",
        "fofana_q_monotonicity",
        worst,
        1.0,
        slack,
    )

    # Interval windows against translation windows.  Off the classical
    # parameter the interval norm carries the factor
    # (mu(I(y,r)) / mu(B_r))^(1/alpha - 1/p) >= 1, which grows with |y|:
    # its constant is reported on the domain and on the half domain (same
    # node spacing), and only the classical case, where the two window
    # measures coincide, is bounded by 1.  The ball-scaled companion
    # removes the factor and must not drift with the domain.
    unscaled, scaled = _interval_translation_constants(cfg, rg, prof)
    gh = make_grid(p, cfg.half_width / 2.0, cfg.node_count // 2)
    fam_h = _family(cfg, gh, names=_EMBEDDING_FAMILY)
    rg_h = tuple(r for r in _radius_grid(cfg, gh) if r <= gh.half_width / 2.0)
    unscaled_h, scaled_h = _interval_translation_constants(
        cfg, rg_h, _ProfileStack(gh, _stack(fam_h), rg_h)
    )
    if p.classical:
        rec.bound(
            f"interval_le_translation_{rec.ktag}",
            "interval_vs_translation_fofana",
            unscaled,
            1.0,
            cfg.tolerance("interval_fofana_slack"),
        )
    rec.measure(
        f"interval_translation_constant_{rec.ktag}",
        "interval_vs_translation_fofana",
        unscaled,
    )
    rec.measure(
        f"interval_translation_constant_half_domain_{rec.ktag}",
        "interval_vs_translation_fofana",
        unscaled_h,
        half_width=gh.half_width,
        node_count=gh.node_count,
    )
    rec.measure(
        f"interval_translation_scaled_{rec.ktag}",
        "ball_scaled_interval_vs_translation_fofana",
        scaled,
    )
    rec.stability(
        f"interval_translation_scaled_stability_{rec.ktag}",
        "ball_scaled_interval_vs_translation_fofana",
        scaled,
        scaled_h,
        half_domain_constant=scaled_h,
    )


@_per_kappa
def _suite_linfty_identity(rec: _Recorder, cfg: SuiteConfig, kappa: float, p: DunklParams):
    g = make_grid(p, cfg.half_width, cfg.node_count)
    worst = 0.0
    for fid, f in _family(cfg, g):
        sup = lp_norm(f, INF)
        if sup == 0.0:
            continue
        worst = max(worst, abs(amalgam_norm_r(f, INF, INF, 1.0) - sup) / sup)
    rec.bound(
        f"linfty_identity_{rec.ktag}",
        "linfty_identity",
        worst,
        cfg.tolerance("linfty_identity"),
        0.0,
    )


@_per_kappa
def _suite_fofana_lebesgue(rec: _Recorder, cfg: SuiteConfig, kappa: float, p: DunklParams):
    labels = ((2.0, 8.0, 2.0, "alpha_eq_q"), (2.0, 8.0, 8.0, "alpha_eq_p"))

    def windows(g):
        """The window constant of each label, from one profile stack."""
        rg = _radius_grid(cfg, g)
        fam = _family(cfg, g, names=("gaussian", "indicator_ball", "bump", "trig_gauss"))
        prof = _ProfileStack(g, _stack(fam), rg)
        out = []
        for (q, pp, alpha, _) in labels:
            cmax = 0.0
            for (fid, f), norm in zip(fam, prof.fofana(NormSpec(q, pp, alpha, rg))):
                base = lp_norm(f, alpha)
                if base == 0.0:
                    continue
                ratio = norm / base
                cmax = max(cmax, ratio, 1.0 / ratio)
            out.append(cmax)
        return out

    for (q, pp, alpha, label), c_coarse, c_fine in zip(labels, *_refined(cfg, p, windows)):
        rec.measure(
            f"fofana_lebesgue_window_{rec.ktag}_{label}",
            "fofana_lebesgue_identity",
            c_fine,
            q=q,
            p=pp,
            alpha=alpha,
        )
        rec.stability(
            f"fofana_lebesgue_stability_{rec.ktag}_{label}",
            "fofana_lebesgue_identity",
            c_fine,
            c_coarse,
            coarse_window=c_coarse,
        )
    # interval-normed counterpart: reported lower-bound constant
    g = make_grid(p, cfg.half_width, cfg.node_count)
    rg = _radius_grid(cfg, g)
    fam = _family(cfg, g, names=("gaussian", "bump", "trig_gauss"))
    stack = _IntervalProfileStack(WindowGeometry.interval(g), _stack(fam), rg)
    bases = stack.fofana(NormSpec(2.0, 8.0, 2.0, rg))
    cmax = 0.0
    for (fid, f), base in zip(fam, bases):
        if base == 0.0:
            continue
        cmax = max(cmax, lp_norm(f, 2.0) / base)
    rec.measure(
        f"interval_fofana_lower_{rec.ktag}",
        "interval_fofana_lebesgue",
        cmax,
    )


def _classical_maximal_oracle(f: GridFunction, rhos) -> np.ndarray:
    """Direct sliding-window sweep for the classical centered maximal
    function (uniform density), independent of the production code paths."""
    g = f.grid
    x = g.nodes
    dx = g.spacing
    vals = np.abs(f.values)
    edges = np.concatenate([x - dx / 2.0, [x[-1] + dx / 2.0]])
    cum = np.concatenate([[0.0], np.cumsum(vals) * dx])

    def mass(t):
        t = np.clip(t, edges[0], edges[-1])
        j = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, x.size - 1)
        return cum[j] + vals[j] * (t - edges[j])

    best = np.zeros(x.size)
    for rho in rhos:
        avg = (mass(x + rho) - mass(x - rho)) / (2.0 * rho)
        np.maximum(best, avg, out=best)
    return best


@_per_kappa
def _suite_maximal_equivalence(rec: _Recorder, cfg: SuiteConfig, kappa: float, p: DunklParams):
    def windows(g):
        """The two window constants, and the Dunkl maximal functions of
        the family, by id; each maximal operator takes the family as one
        stack."""
        rhog = _rho_grid(cfg, g)
        sel = np.abs(g.nodes) <= cfg.half_width / 2.0
        c1 = 0.0
        c2 = 0.0
        fam = _family(cfg, g)
        rows = _stack(fam)
        mds = dict(zip((fid for fid, _ in fam), _dunkl_maximal_stack(g, rows, rhog)))
        mcs = _window_maximal(WindowGeometry.annulus(g), rows, rhog)
        mis = _window_maximal(WindowGeometry.interval(g), rows, rhog)
        for (fid, _), mc, mi in zip(fam, mcs, mis):
            md = mds[fid]
            mask = sel & (md > 1e-6) & (mc > 1e-6) & (mi > 1e-6)
            if not np.any(mask):
                continue
            r1 = md[mask] / mc[mask]
            r2 = mc[mask] / mi[mask]
            c1 = max(c1, float(np.max(r1)), float(np.max(1.0 / r1)))
            c2 = max(c2, float(np.max(r2)), float(np.max(1.0 / r2)))
        return (c1, c2), mds

    (coarse, _), ((c1_fine, c2_fine), mds) = _refined(cfg, p, windows)
    rec.measure(
        f"equivalence_window_dunkl_centered_{rec.ktag}",
        "maximal_equivalence",
        c1_fine,
    )
    rec.measure(
        f"equivalence_window_centered_interval_{rec.ktag}",
        "maximal_equivalence",
        c2_fine,
    )
    rec.stability(
        f"equivalence_stability_{rec.ktag}",
        "maximal_equivalence",
        (c1_fine, c2_fine),
        coarse,
        coarse=coarse,
    )

    g = make_grid(p, cfg.half_width, cfg.node_count)
    rhog = _rho_grid(cfg, g)
    sel = np.abs(g.nodes) <= cfg.half_width / 2.0

    if p.classical:
        worst = 0.0
        for fid, f in _family(cfg, g, names=("gaussian", "bump", "trig_gauss")):
            md = mds[fid]
            oracle = _classical_maximal_oracle(f, rhog)
            mask = sel & (oracle > 1e-9)
            worst = max(worst, float(np.max(np.abs(md[mask] - oracle[mask]) / oracle[mask])))
        rec.bound(
            "classical_maximal_oracle",
            "classical_maximal_oracle",
            worst,
            cfg.tolerance("classical_maximal"),
            0.0,
        )

    # the indicator of the peak case and the ordered pairs of the
    # monotonicity cases, in one stack
    pairs = (
        (sample_family("gaussian", (2.0,), g), sample_family("gaussian", (0.25,), g)),
        (sample_family("indicator_ball", (0.5,), g), sample_family("indicator_ball", (1.0,), g)),
    )
    chi = sample_family("indicator_ball", (1.0,), g)
    pair_rows = np.stack([f.values for pair in pairs for f in pair])
    m_chi, *m_pairs = _dunkl_maximal_stack(g, np.vstack([chi.values, pair_rows]), rhog)

    # peak value on an indicator
    i0 = int(np.argmin(np.abs(g.nodes)))
    rec.match(
        f"indicator_peak_{rec.ktag}",
        "maximal_indicator_peak",
        float(m_chi[i0]),
        1.0,
        cfg.tolerance("maximal_peak"),
    )

    # L^p boundedness ratios and weak (1,1) constant: measured
    for q in (2.0, 4.0, INF):
        worst = 0.0
        for fid, f in _family(cfg, g):
            base = lp_norm(f, q)
            if base == 0.0:
                continue
            worst = max(worst, lp_norm(GridFunction(g, mds[fid]), q) / base)
        rec.measure(
            f"lp_bound_{rec.ktag}_p{q:g}",
            "maximal_lp_bounded",
            worst,
            p=q,
        )
    worst = 0.0
    for fid, f in _family(cfg, g):
        base = lp_norm(f, 1.0)
        if base == 0.0:
            continue
        worst = max(worst, weak_l1_norm(GridFunction(g, mds[fid])) / base)
    rec.measure(f"weak11_constant_{rec.ktag}", "maximal_weak_type", worst)

    # monotonicity for ordered nonnegative pairs: exact for the two window
    # routes; the transform route carries band-truncation wiggle, so its
    # violation is bounded by a spectral tolerance instead; the pair rows
    # alternate lower and upper members
    worst_exact = -INF
    for windows in (WindowGeometry.annulus(g), WindowGeometry.interval(g)):
        m = _window_maximal(windows, pair_rows, rhog)
        worst_exact = max(worst_exact, float(np.max(m[0::2] - m[1::2])))
    worst_spectral = float(np.max(np.subtract(m_pairs[0::2], m_pairs[1::2])))
    rec.bound(
        f"monotonicity_{rec.ktag}",
        "maximal_monotonicity",
        worst_exact,
        cfg.tolerance("monotonicity_slack"),
        0.0,
    )
    rec.bound(
        f"monotonicity_spectral_{rec.ktag}",
        "maximal_monotonicity",
        worst_spectral,
        cfg.tolerance("monotonicity_spectral"),
        0.0,
    )


@_per_kappa
def _suite_interval_fofana_maximal(rec: _Recorder, cfg: SuiteConfig, kappa: float, p: DunklParams):
    def family_max(g):
        """Per exponent triple, the family maximum of the ratio, from the
        interval profile stacks of |f| and of its interval maximal
        function, one per q.  One interval geometry serves both stacks and
        the maximal functions."""
        rg = _radius_grid(cfg, g)
        windows = WindowGeometry.interval(g)
        rows = _stack(_family(cfg, g))
        base = _IntervalProfileStack(windows, rows, rg)
        maxi = _IntervalProfileStack(windows, _window_maximal(windows, rows, _rho_grid(cfg, g)), rg)
        out = []
        for (q, pp, alpha) in cfg.exponents:
            spec = NormSpec(q, pp, alpha, rg)
            ratios = [m / b for b, m in zip(base.fofana(spec), maxi.fofana(spec)) if b != 0.0]
            out.append(max([0.0, *ratios]))
        return out

    for (q, pp, alpha), coarse, fine in zip(cfg.exponents, *_refined(cfg, p, family_max)):
        tag = f"{rec.ktag}_q{q:g}_p{pp:g}_a{alpha:g}"
        rec.measure(
            f"interval_maximal_ratio_{tag}",
            "interval_fofana_maximal_bound",
            fine,
            q=q,
            p=pp,
            alpha=alpha,
        )
        rec.stability(
            f"interval_maximal_stability_{tag}",
            "interval_fofana_maximal_bound",
            fine,
            coarse,
            coarse=coarse,
        )

    # indicator decay of the interval maximal function: the constant is
    # measured at both grid levels and must be refinement-stable; the
    # indicators have radius grids of their own, and share one geometry
    def decay_constant(gn):
        worst_c = 0.0
        windows = WindowGeometry.interval(gn)
        for (yc, rc) in ((0.0, 0.5), (1.0, 0.5), (2.0, 1.0)):
            chi = (np.abs(gn.nodes - yc) < rc).astype(float)
            rhos = sorted(set(list(_rho_grid(cfg, gn)) + [rc * 2.0**k for k in range(1, 6)]))
            rhos = [r for r in rhos if r <= gn.half_width]
            mi = _window_maximal(windows, chi[None, :], rhos)[0]
            dist = np.abs(gn.nodes - yc)
            sel = (dist > 2.0 * rc) & (np.abs(gn.nodes) <= gn.half_width / 2.0)
            mu_r = interval_measure(p, yc, rc)
            mu_d = np.array([interval_measure(p, yc, float(d)) for d in dist[sel]])
            worst_c = max(worst_c, float(np.max(mi[sel] * mu_d / mu_r)))
        return worst_c

    decay_coarse, decay_fine = _refined(cfg, p, decay_constant)
    rec.measure(
        f"indicator_decay_constant_{rec.ktag}",
        "maximal_indicator_decay",
        decay_fine,
    )
    rec.stability(
        f"indicator_decay_stability_{rec.ktag}",
        "maximal_indicator_decay",
        decay_fine,
        decay_coarse,
        coarse=decay_coarse,
    )

    g = make_grid(p, cfg.half_width, cfg.node_count)

    # exact two-interval cover of the annular ball
    rng = rec.rng(f"cover_{kappa}")
    violations = 0
    for _ in range(100):
        y = float(rng.uniform(-6.0, 6.0))
        r = float(np.exp(rng.uniform(math.log(0.05), math.log(3.0))))
        absx = np.abs(g.nodes)
        in_ball = (absx > max(0.0, abs(y) - r)) & (absx < abs(y) + r)
        covered = (np.abs(g.nodes + y) < 3.0 * r) | (np.abs(g.nodes - y) < 3.0 * r)
        violations += int(np.any(in_ball & ~covered))
    rec.match(
        f"annulus_cover_{rec.ktag}",
        "annulus_interval_cover",
        float(violations),
        0.0,
        0.0,
        samples=100,
    )

    # interval maximal of a translated window indicator vs the sharp one
    rhog = _rho_grid(cfg, g)
    for (xc, rc) in ((1.0, 1.0),):
        ti = translate_indicator(p, -xc, rc, g)
        sharp = (np.abs(g.nodes - xc) < rc).astype(float)
        m_t, m_s = _window_maximal(WindowGeometry.interval(g), np.stack([ti.values, sharp]), rhog)
        peak = float(np.max(m_s))
        disc = float(np.max(np.abs(m_t - m_s))) / peak
        if p.classical:
            rec.bound(
                f"translated_window_maximal_{rec.ktag}",
                "maximal_translated_window",
                disc,
                cfg.tolerance("lem6_classical"),
                0.0,
                x=xc,
                r=rc,
            )
        else:
            # for kappa > -1/2 the translated window spreads its mass over
            # the two-sided annulus, so the two maximal functions differ
            # by design; the discrepancy is reported, not bounded
            rec.measure(
                f"translated_window_maximal_{rec.ktag}",
                "maximal_translated_window",
                disc,
                x=xc,
                r=rc,
            )


def _record_member_ratios(rec, statement, tag, coarse, fine, **exponents):
    """Record ratios per family member, given by id at both grid sizes: that
    each fine ratio is finite, the fine family maximum, and its drift from
    the coarse maximum."""
    for fid, ratio in fine.items():
        finite = 0.0 if math.isfinite(ratio) else INF
        rec.bound(
            f"finite_{tag}_{fid}", statement, finite, 1.0, 0.0, family=fid, ratio=ratio
        )
    fam_fine = max([0.0, *fine.values()])
    rec.measure(f"family_max_{tag}", statement, fam_fine, **exponents)
    fam_coarse = max([0.0, *coarse.values()])
    rec.stability(
        f"stability_{tag}", statement, fam_fine, fam_coarse, coarse=fam_coarse
    )


@_per_kappa
def _suite_theorem_maxi(rec: _Recorder, cfg: SuiteConfig, kappa: float, p: DunklParams):
    def member_ratios(g):
        """Per exponent triple, the ratio of each family member, from the
        profile stacks of |f| and of M f, one per q."""
        rg = _radius_grid(cfg, g)
        fam = _family(cfg, g)
        rows = _stack(fam)
        base = _ProfileStack(g, rows, rg)
        maxi = _ProfileStack(g, _dunkl_maximal_stack(g, rows, _rho_grid(cfg, g)), rg)
        out = []
        for (q, pp, alpha) in cfg.exponents:
            spec = NormSpec(q, pp, alpha, rg)
            out.append(
                {
                    fid: m / b
                    for (fid, _), b, m in zip(fam, base.fofana(spec), maxi.fofana(spec))
                    if b != 0.0
                }
            )
        return out

    for (q, pp, alpha), coarse, fine in zip(cfg.exponents, *_refined(cfg, p, member_ratios)):
        _record_member_ratios(
            rec,
            "fofana_maximal_bound",
            f"{rec.ktag}_q{q:g}_p{pp:g}_a{alpha:g}",
            coarse,
            fine,
            q=q,
            p=pp,
            alpha=alpha,
        )


def _maximal_and_q1_fofana(grid: Grid, fam, rhog, rg, specs):
    """The Dunkl maximal functions (F, N) over rhog and, per family member,
    its q = 1 Fofana norm at each spec (all on the radius grid rg), from one
    stack of ball convolutions of |f| over both radius grids.  Only the
    maximal functions and the norms outlive the call."""
    radii = sorted({float(r) for r in (*rhog, *rg)})
    conv = _ball_convolution_stack(grid, np.abs(_stack(fam)), radii)
    cols = [radii.index(r) for r in rg]
    norms = [[_fofana_sup(grid, spec, c[cols]) for spec in specs] for c in conv]
    return _ball_averages_max(grid.params, conv, radii, rhog), norms


@_per_kappa
def _suite_theorem_weakmaxi(rec: _Recorder, cfg: SuiteConfig, kappa: float, p: DunklParams):
    def member_ratios(g):
        """Per (p, alpha) pair, the ratio of each family member, and the
        worst weak/strong dominance ratio (on the fine grid only).  Window
        rows, maximal functions, q = 1 window profiles and weak window
        statistics are shared across pairs.  One stack of ball
        convolutions of |f| over both radius grids gives the maximal
        functions and the q = 1 Fofana norms, before the workspace is
        built."""
        fine = g.node_count == cfg.node_count
        rg = default_radius_grid(g, ratio=2.0) if cfg.r_grid is None else cfg.r_grid
        rhog = _rho_grid(cfg, g)
        fam = _family(cfg, g)
        specs = [NormSpec(1.0, pp, alpha, rg) for pp, alpha in cfg.weak_exponents]
        mfs, strong = _maximal_and_q1_fofana(g, fam, rhog, rg, specs)
        ws = WeakWindowWorkspace(g, rg)
        ratios = {pair: {} for pair in cfg.weak_exponents}
        dominance = 0.0
        for (fid, f), mf, bases in zip(fam, mfs, strong):
            weak_mf = ws.weak_fofana(GridFunction(g, mf), cfg.weak_exponents)
            dominated = fine and fid.startswith(("gaussian", "bump", "indicator_ball"))
            weak_f = ws.weak_fofana(f, cfg.weak_exponents) if dominated else None
            for j, pair in enumerate(cfg.weak_exponents):
                base = bases[j]
                if base == 0.0:
                    continue
                ratios[pair][fid] = weak_mf[j] / base
                if dominated:
                    dominance = max(dominance, weak_f[j] / base)
        return ratios, dominance

    (coarse, _), (fine, dominance_worst) = _refined(cfg, p, member_ratios)
    for (pp, alpha) in cfg.weak_exponents:
        _record_member_ratios(
            rec,
            "weak_fofana_maximal_bound",
            f"{rec.ktag}_p{pp:g}_a{alpha:g}",
            coarse[(pp, alpha)],
            fine[(pp, alpha)],
            p=pp,
            alpha=alpha,
        )
    # dominance: the weak window statistic sits under the strong one at q=1
    rec.bound(
        f"weak_dominated_{rec.ktag}",
        "weak_fofana_dominance",
        dominance_worst,
        1.0,
        cfg.tolerance("weak_dominance_slack"),
    )

"""The benchmark's workloads: two sets of ``dunkl verify`` suites and one warm
library call mix, with the output checks of the mix.

Everything that reads ``dunkl`` imports it inside a function, so the parent
process (``run.py``) never imports numpy or the package; only its children do,
after their BLAS thread count is fixed.
"""

from __future__ import annotations

import io
import json
import math
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

VERIFY_WORKLOADS = {
    # kappa = 0 needs Bessel orders 0 and 1 (integer); kappa = 1.5 needs 1.5
    # and 2.5 (half-integer): the two order classes of the cheaper routes.
    "verify_spectral": {"suites": ("transform", "translation"), "kappas": (0.0, 1.5)},
    "verify_windows": {
        "suites": ("theorem_weakmaxi", "embeddings", "interval_fofana_maximal"),
        "kappas": (0.5,),
    },
}
LIBRARY_WORKLOAD = "library_warm"
WORKLOADS = (*VERIFY_WORKLOADS, LIBRARY_WORKLOAD)

# At the default kappas and L = 16 the suites' tolerances hold only at
# N = 4096, so the verify workloads run there; --tiny is for the self-test.
VERIFY_N = {"full": 4096, "tiny": 256}
VERIFY_L = 16.0
LIB_KAPPA = 0.5
LIB_N = {"full": 2048, "tiny": 1024}
LIB_L = 16.0

# Call kinds of the library mix, in report order.
LIB_KINDS = (
    "fofana_q",
    "fofana_inf",
    "dunkl_maximal",
    "translate",
    "convolve",
    "centered_maximal",
    "interval_maximal",
    "interval_fofana",
)


# ---------------------------------------------------------------------------
# verify workloads
# ---------------------------------------------------------------------------


def verify_setup() -> None:
    """Set-up of a verify round: import the CLI (and with it every module)."""
    import dunkl.cli  # noqa: F401


def verify_round(workload: str, seed: int, size: str, report_prefix: str) -> dict:
    """Run ``dunkl verify`` once per suite of the workload in this process.

    Returns the timed wall, the per-suite times and the report paths; the
    reports are checked by ``check_verify_reports`` outside the timed region.
    """
    from dunkl.cli import main

    spec = VERIFY_WORKLOADS[workload]
    suite_s = {}
    exit_codes = {}
    reports = {}
    t_start = time.perf_counter()
    for suite in spec["suites"]:
        path = f"{report_prefix}_{suite}.json"
        argv = [
            "verify",
            "--suite", suite,
            "--kappa", ",".join("%g" % k for k in spec["kappas"]),
            "--grid-n", str(VERIFY_N[size]),
            "--domain-l", "%g" % VERIFY_L,
            "--seed", str(seed),
            "--report", path,
        ]
        t0 = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            exit_codes[suite] = main(argv)
        suite_s[suite] = time.perf_counter() - t0
        reports[suite] = path
    wall = time.perf_counter() - t_start
    return {"wall": wall, "suite_s": suite_s, "exit_codes": exit_codes, "reports": reports}


def check_verify_reports(workload: str, seed: int, size: str, round_out: dict) -> dict:
    """Count the suites' own case verdicts and check that each report is the
    one asked for and agrees with the CLI exit code."""
    spec = VERIFY_WORKLOADS[workload]
    attempted = failed = 0
    errors = []
    for suite in spec["suites"]:
        path = round_out["reports"][suite]
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            payload = json.loads(raw)
        except (OSError, ValueError) as exc:
            errors.append(f"{suite}: unreadable report: {exc}")
            continue
        cfg = payload.get("config", {})
        cases = payload.get("cases", [])
        n_failed = sum(1 for c in cases if c.get("pass") is not True)
        if payload.get("suite") != suite:
            errors.append(f"{suite}: report names suite {payload.get('suite')!r}")
        if (
            cfg.get("node_count") != VERIFY_N[size]
            or cfg.get("seed") != seed
            or cfg.get("half_width") != VERIFY_L
            or [float(k) for k in cfg.get("kappa_list", [])] != list(spec["kappas"])
        ):
            errors.append(f"{suite}: report config differs from the requested one")
        if not cases:
            errors.append(f"{suite}: report has no cases")
        if payload.get("summary", {}).get("n_failed") != n_failed:
            errors.append(f"{suite}: summary n_failed disagrees with the case verdicts")
        if round_out["exit_codes"][suite] != (0 if n_failed == 0 else 1):
            errors.append(
                f"{suite}: exit code {round_out['exit_codes'][suite]} with {n_failed} failed cases"
            )
        attempted += len(cases)
        failed += n_failed
    return {"attempted": attempted, "failed": failed, "errors": errors}


# ---------------------------------------------------------------------------
# library workload
# ---------------------------------------------------------------------------


@dataclass
class LibCall:
    kind: str  # one of LIB_KINDS
    key: str  # distinct (call, input)
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


def weight_antiderivative(kappa: float, t):
    """The benchmark's own closed form of the antiderivative of
    c_k |t|^(2k+1), c_k = 1 / (2^(k+1) Gamma(k+1)); odd and increasing."""
    import numpy as np

    e = 2.0 * kappa + 2.0
    c = 1.0 / (2.0 ** (kappa + 1.0) * math.gamma(kappa + 1.0))
    t = np.asarray(t, dtype=float)
    return np.sign(t) * c * np.abs(t) ** e / e


def window_sums(kappa: float, edges, vals, lo, hi):
    """Direct window integrals of the step function equal to vals[j] on
    (edges[j], edges[j+1]) over each window (lo[i], hi[i]), clipped to the
    edges: the two end cells by the exact measure of their covered part, the
    cells between them summed segment by segment (no prefix sums)."""
    import numpy as np

    n = len(vals)
    lo = np.clip(lo, edges[0], edges[-1])
    hi = np.clip(hi, edges[0], edges[-1])
    a_edges = weight_antiderivative(kappa, edges)
    a_lo = weight_antiderivative(kappa, lo)
    a_hi = weight_antiderivative(kappa, hi)
    jl = np.clip(np.searchsorted(edges, lo, side="right") - 1, 0, n - 1)
    jh = np.clip(np.searchsorted(edges, hi, side="right") - 1, 0, n - 1)
    cells = np.append(vals * np.diff(a_edges), 0.0)
    starts, stops = jl + 1, np.maximum(jh, jl + 1)
    bounds = np.empty(2 * len(lo), dtype=np.intp)
    bounds[0::2], bounds[1::2] = starts, stops
    inner = np.add.reduceat(cells, bounds)[0::2]
    inner[stops == starts] = 0.0
    ends = vals[jl] * (a_edges[jl + 1] - a_lo) + vals[jh] * (a_hi - a_edges[jh])
    same = vals[jl] * (a_hi - a_lo)
    return np.where(jl == jh, same, ends + inner)


def _rel_err(got, want) -> float:
    import numpy as np

    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


def _within(name: str, err: float, tol: float) -> str | None:
    return None if err <= tol else f"{name}: error {err:.3g} above {tol:.3g}"


class LibraryMix:
    """The seeded inputs and the fixed call list of ``library_warm``.

    Inputs are drawn from ``numpy.random.default_rng([seed, 1])``: the family
    parameters, the translation offsets and the order of the call list.  Each
    round runs the whole list in that order.
    """

    def __init__(self, seed: int, size: str, inject_failure: bool = False):
        import numpy as np
        import dunkl.grid as dgrid
        import dunkl.norms as norms
        from dunkl.params import DunklParams

        rng = np.random.default_rng([seed, 1])
        n, half_width = LIB_N[size], LIB_L
        self.grid = dgrid.make_grid(DunklParams(LIB_KAPPA), half_width, n)
        self.cgrid = dgrid.make_grid(DunklParams(-0.5, classical=True), half_width, n)
        rg = norms.default_radius_grid(self.grid)
        rgc = norms.default_radius_grid(self.cgrid)

        def sample(grid, name, *params):
            return dgrid.sample_family(name, params, grid)

        funcs = {
            "gaussian": ("gaussian", float(rng.uniform(0.3, 2.0))),
            "bump": ("bump", float(rng.uniform(-2.0, 2.0)), float(rng.uniform(1.0, 3.0))),
            "trig_gauss": ("trig_gauss", float(rng.integers(1, 10**6))),
        }
        partner = ("gaussian", float(rng.uniform(0.5, 2.0)))
        classical = [float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0))]
        self.inputs = {"kappa": LIB_KAPPA, "N": n, "L": half_width, "functions": funcs,
                       "convolve_partner": partner, "classical_gaussians": classical}
        g_partner = sample(self.grid, *partner)
        spec_q = norms.NormSpec(2.0, 2.0, 2.0, rg)
        spec_inf = norms.NormSpec(math.inf, math.inf, math.inf, rg)
        spec_int = norms.NormSpec(2.0, 8.0, 4.0, rg)
        spec_cq = norms.NormSpec(2.0, 8.0, 4.0, rgc)

        calls: list[LibCall] = []
        offsets = {}
        for label, (fam, *ps) in funcs.items():
            f = sample(self.grid, fam, *ps)
            y = float(rng.uniform(0.5, 4.0)) * float(rng.choice([-1.0, 1.0]))
            offsets[label] = y
            calls += self._kappa_calls(label, f, g_partner, y, rg, spec_q, spec_inf, spec_int)
        for i, a in enumerate(classical):
            b = classical[1 - i]
            y = float(rng.uniform(0.5, 4.0)) * float(rng.choice([-1.0, 1.0]))
            offsets[f"classical{i}"] = y
            calls += self._classical_calls(f"classical{i}", a, b, y, rgc, spec_cq)
        self.inputs["offsets"] = offsets
        order = rng.permutation(len(calls))
        self.calls = [calls[i] for i in order]
        if inject_failure:
            first = self.calls[0]
            first.check = lambda _res, key=first.key: f"{key}: failure injected by --inject-failure"

    # -- kappa = 0.5 calls: exact properties and direct window sums ---------

    def _kappa_calls(self, label, f, g, y, rg, spec_q, spec_inf, spec_int):
        import numpy as np
        import dunkl.maximal as maximal
        import dunkl.norms as norms
        import dunkl.translation as translation

        grid = self.grid
        k = LIB_KAPPA
        n = grid.node_count
        half = n // 2
        dx = 2.0 * grid.half_width / n
        line_edges = -grid.half_width + dx * np.arange(n + 1)
        fold_edges = dx * np.arange(half + 1)
        # integrals use the grid's own quadrature: the discrete identities
        # checked below (Fubini, translation invariance) hold for it
        masses = grid.weights
        x = grid.nodes
        s = grid.positive_nodes
        af = np.abs(f.values)
        l1 = float(masses @ af)
        l2 = float(masses @ af**2) ** 0.5
        fmax = float(np.max(af))

        def centered_direct():
            folded = af[half:] + af[half - 1 :: -1]
            best = np.zeros(half)
            for rho in rg:
                lo = np.maximum(0.0, s - rho)
                num = window_sums(k, fold_edges, folded, lo, s + rho)
                den = 2.0 * (weight_antiderivative(k, s + rho) - weight_antiderivative(k, lo))
                best = np.maximum(best, num / den)
            return np.concatenate([best[::-1], best])

        def interval_direct():
            best = np.zeros(n)
            for rho in rg:
                num = window_sums(k, line_edges, af, x - rho, x + rho)
                den = weight_antiderivative(k, x + rho) - weight_antiderivative(k, x - rho)
                best = np.maximum(best, num / den)
            return best

        def interval_fofana_direct():
            theta = 1.0 / spec_int.alpha - 1.0 / spec_int.q - 1.0 / spec_int.p
            best = 0.0
            for r in rg:
                local = window_sums(k, line_edges, af**2, x - r, x + r) ** 0.5
                mu = weight_antiderivative(k, x + r) - weight_antiderivative(k, x - r)
                val = float(masses @ (mu**theta * local) ** spec_int.p) ** (1.0 / spec_int.p)
                best = max(best, val)
            return best

        def chk_fofana_q(res):
            # alpha = q = p: Fubini and the translation invariance of the
            # measure make each radius term equal ||f||_q, so the norm is ||f||_2
            return _within("fofana(2,2,2) vs ||f||_2", abs(res / l2 - 1.0), 1e-5)

        def chk_fofana_inf(res):
            # q = inf forces alpha = p = inf, theta = 0: the sup of the window
            # maxima over all centers is the sample maximum, exactly
            return _within("fofana(inf) vs max|f|", abs(res / fmax - 1.0), 1e-12)

        def chk_dunkl_maximal(res):
            m = res.values
            if float(np.min(m)) < 0.0:
                return "dunkl_maximal: negative value"
            # averages of |f| never exceed sup|f| (spectral ripple: 1%), and
            # the largest-radius average alone integrates to ||f||_1
            err = _within("dunkl_maximal peak vs max|f|", float(np.max(m)) / fmax - 1.0, 1e-2)
            return err or _within("||M f||_1 deficit vs ||f||_1", 1.0 - float(masses @ m) / l1, 1e-3)

        def chk_translate(res):
            total = float(masses @ f.values)
            return _within(
                "translation changes the weighted integral",
                abs(float(masses @ res.values) - total) / l1,
                1e-5,
            )

        def chk_convolve(res):
            want = float(masses @ f.values) * float(masses @ g.values)
            scale = l1 * float(masses @ np.abs(g.values))
            return _within("integral of f*g vs product of integrals",
                           abs(float(masses @ res.values) - want) / scale, 1e-6)

        def chk_direct(name, direct, tol):
            return lambda res: _within(name, _rel_err(getattr(res, "values", res), direct()), tol)

        key = f"{label}@k{k:g}"
        return [
            LibCall("fofana_q", f"fofana_q:{key}", lambda: norms.fofana_norm(f, spec_q), chk_fofana_q),
            LibCall("fofana_inf", f"fofana_inf:{key}", lambda: norms.fofana_norm(f, spec_inf),
                    chk_fofana_inf),
            LibCall("dunkl_maximal", f"dunkl_maximal:{key}", lambda: maximal.dunkl_maximal(f, rg),
                    chk_dunkl_maximal),
            LibCall("translate", f"translate:{key}", lambda: translation.translate(f, y), chk_translate),
            LibCall("convolve", f"convolve:{key}", lambda: translation.convolve(f, g), chk_convolve),
            LibCall("centered_maximal", f"centered_maximal:{key}",
                    lambda: maximal.centered_maximal(f, rg),
                    chk_direct("centered_maximal vs direct sums", centered_direct, 1e-9)),
            LibCall("interval_maximal", f"interval_maximal:{key}",
                    lambda: maximal.interval_maximal(f, rg),
                    chk_direct("interval_maximal vs direct sums", interval_direct, 1e-9)),
            LibCall("interval_fofana", f"interval_fofana:{key}",
                    lambda: norms.interval_fofana_norm(f, spec_int),
                    chk_direct("interval_fofana vs direct sums", interval_fofana_direct, 1e-9)),
        ]

    # -- classical calls: closed forms of the ordinary shift and averages ----

    def _classical_calls(self, label, a, b, y, rgc, spec):
        import numpy as np
        from scipy.special import erf
        import dunkl.grid as dgrid
        import dunkl.maximal as maximal
        import dunkl.norms as norms
        import dunkl.translation as translation

        grid = self.cgrid
        x = grid.nodes
        inner = np.abs(x) <= grid.half_width / 2.0
        f = dgrid.sample_family("gaussian", (a,), grid)
        g = dgrid.sample_family("gaussian", (b,), grid)
        c = 1.0 / math.sqrt(2.0 * math.pi)  # density of the measure at kappa = -1/2
        dx = 2.0 * grid.half_width / grid.node_count

        def gauss_window(width, lo, hi):
            """integral of exp(-width t^2) dt over (lo, hi)."""
            return 0.5 * math.sqrt(math.pi / width) * (erf(math.sqrt(width) * hi) - erf(math.sqrt(width) * lo))

        def chk_translate(res):
            want = np.exp(-a * (x + y) ** 2)
            return _within("shift f(x + y)", float(np.max(np.abs(res.values - want)[inner])), 1e-9)

        def chk_convolve(res):
            want = c * math.sqrt(math.pi / (a + b)) * np.exp(-a * b / (a + b) * x * x)
            return _within("gaussian convolution", _rel_err(res.values[inner], want[inner]), 1e-9)

        def chk_dunkl_maximal(res):
            want = np.max([gauss_window(a, x - r, x + r) / (2.0 * r) for r in rgc], axis=0)
            return _within("sliding averages", _rel_err(res.values[inner], want[inner]), 1e-9)

        def chk_fofana_q(res):
            theta = 1.0 / spec.alpha - 1.0 / spec.q - 1.0 / spec.p
            best = 0.0
            for r in spec.r_grid:
                u = (c * gauss_window(2.0 * a, x - r, x + r)) ** (1.0 / spec.q)
                val = (2.0 * r * c) ** theta * float(c * dx * np.sum(u**spec.p)) ** (1.0 / spec.p)
                best = max(best, val)
            return _within("fofana(2,8,4) vs sliding window sums", abs(res / best - 1.0), 1e-9)

        key = f"{label}@k-0.5"
        return [
            LibCall("fofana_q", f"fofana_q:{key}", lambda: norms.fofana_norm(f, spec), chk_fofana_q),
            LibCall("dunkl_maximal", f"dunkl_maximal:{key}", lambda: maximal.dunkl_maximal(f, rgc),
                    chk_dunkl_maximal),
            LibCall("translate", f"translate:{key}", lambda: translation.translate(f, y), chk_translate),
            LibCall("convolve", f"convolve:{key}", lambda: translation.convolve(f, g), chk_convolve),
        ]


def run_mix(mix: LibraryMix, call_ms: dict | None = None):
    """One round: every call of the mix once, in order.  Returns the outputs
    by key (None where the call raised) and the keys that raised."""
    outputs = {}
    raised = []
    clock = time.perf_counter
    for call in mix.calls:
        t0 = clock()
        try:
            outputs[call.key] = call.run()
        except Exception:  # a raising call is a failed operation, not a crash
            outputs[call.key] = None
            raised.append(call.key)
        if call_ms is not None:
            call_ms[call.kind].append((clock() - t0) * 1e3)
    return outputs, raised


def output_digest(outputs: dict) -> str:
    """Hash of every output, to show that two processes computed the same."""
    import hashlib

    import numpy as np

    h = hashlib.sha256()
    for key in sorted(outputs):
        out = outputs[key]
        h.update(key.encode())
        if out is None:
            h.update(b"raised")
        else:
            h.update(np.ascontiguousarray(getattr(out, "values", out), dtype=float).tobytes())
    return h.hexdigest()


def check_outputs(mix: LibraryMix, outputs: dict) -> dict:
    """Check every distinct (call, input) once: key -> None or the reason."""
    verdicts = {}
    for call in mix.calls:
        out = outputs.get(call.key)
        if out is None:
            verdicts[call.key] = "raised"
            continue
        try:
            verdicts[call.key] = call.check(out)
        except Exception as exc:  # a check that cannot run fails the call
            verdicts[call.key] = f"check raised {type(exc).__name__}: {exc}"
    return verdicts


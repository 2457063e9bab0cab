"""Acceptance criteria at their stated tolerances, one per test.

Each criterion prints a PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  Suites are executed once per
configuration and shared across criteria.  Criterion 7 compares
interval-window with translation-window scaled norms in the form the theory
supports: a constant-1 bound at the classical parameter, where the two window
measures coincide, and for every parameter a ball-scaled companion whose
constant must not drift when the domain is halved (see the interval-window
notes in the README).
"""

import json
import math
import pathlib

import numpy as np
import pytest

import conftest
from dunkl import SuiteConfig, list_suites, run_suites
from dunkl.cli import main as cli_main

INF = math.inf
BASELINE_PATH = pathlib.Path(__file__).parent / "baselines" / "maximal_ratios.json"

_reports = {}
# The suites the criteria read at each (node_count, half_width).  The first
# request at a configuration runs all of its suites at once, kappa-major
# (`run_suites`), so each kernel block pair is built once under the store's
# byte bound instead of once per suite.
_SUITES_AT = {
    (1024, 16.0): ("kernel", "measure_lemmas"),
    (2048, 16.0): ("holder", "linfty_identity", "embeddings"),
    (4096, 16.0): (
        "transform", "translation", "young", "maximal_equivalence", "theorem_maxi", "theorem_weakmaxi"
    ),
}


def _report(name, node_count, half_width):
    if (name, node_count, half_width) not in _reports:
        names = {name, *_SUITES_AT.get((node_count, half_width), ())}
        cfg = SuiteConfig(node_count=node_count, half_width=half_width)
        for rep in run_suites(names, cfg):
            _reports[rep.suite, node_count, half_width] = rep
    return _reports[name, node_count, half_width]


def _announce(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:>2} [{status}] {label}{': ' + detail if detail else ''}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    return ok


def _cases(report, prefix):
    return [c for c in report.cases if c.case_id.startswith(prefix)]


def _assert_cases_pass(report, prefix, number, label):
    cases = _cases(report, prefix)
    assert cases, f"no cases matching {prefix!r} in suite {report.suite}"
    bad = [c for c in cases if not c.passed]
    ok = _announce(number, label, not bad, f"{len(cases)} cases" if not bad else
                   "; ".join(f"{c.case_id} lhs={c.lhs:.3g}" for c in bad[:4]))
    assert ok, f"{label}: failed cases {[c.case_id for c in bad]}"


def test_criterion_01_kernel_bound():
    rep = _report("kernel", node_count=1024, half_width=16.0)
    _assert_cases_pass(rep, "kernel_modulus", 1, "kernel modulus <= 1 + 1e-10 on 10^4 samples")
    _assert_cases_pass(rep, "kernel_classical_exponential", 1, "classical kernel matches exp(is) to 1e-12")


def test_criterion_02_measure_lemmas():
    rep = _report("measure_lemmas", node_count=1024, half_width=16.0)
    _assert_cases_pass(rep, "ball_le_twice_interval", 2, "ball <= 2*interval to 1e-12 on 10^4 samples")
    _assert_cases_pass(rep, "ball_eq_twice_interval_far", 2, "equality when |x| >= r to 1e-12")
    _assert_cases_pass(rep, "origin_interval_bound", 2, "origin interval <= 2*interval to 1e-12")
    _assert_cases_pass(rep, "measure_quadrature", 2, "closed forms vs 10^6-node quadrature to 1e-8")
    lem8 = next(c for c in rep.cases if c.case_id == "ball_le_twice_interval")
    assert lem8.lhs == pytest.approx(1.0, abs=1e-12), "sharpness: equality attained for |x| >= r"


def test_criterion_03_plancherel():
    rep = _report("transform", node_count=4096, half_width=16.0)
    _assert_cases_pass(rep, "plancherel", 3, "plancherel defect < 1e-6 classical / 1e-4 otherwise, decreasing in N")


def test_criterion_04_translation():
    rep = _report("translation", node_count=4096, half_width=16.0)
    _assert_cases_pass(rep, "identity_k", 4, "translation by 0 is the identity to 1e-4")
    _assert_cases_pass(rep, "symmetry_k", 4, "symmetry in the two arguments to 1e-4 sup on 50 pairs")
    _assert_cases_pass(rep, "contraction_k", 4, "L^p contraction with constant 4 * 1.01")
    _assert_cases_pass(rep, "mass_k", 4, "translation preserves mass to 1e-4")


def test_criterion_05_young():
    rep = _report("young", node_count=4096, half_width=16.0)
    _assert_cases_pass(rep, "young_k", 5, "convolution Young inequality with constant 4 * 1.01")


def test_criterion_06_amalgam_algebra():
    rep = _report("holder", node_count=2048, half_width=16.0)
    _assert_cases_pass(rep, "holder_k", 6, "amalgam product inequality with 1% slack")
    _assert_cases_pass(rep, "homogeneity_k", 6, "norm homogeneity to 1e-10")
    _assert_cases_pass(rep, "triangle_k", 6, "triangle inequality with 1e-8 slack on 100 pairs")
    _assert_cases_pass(rep, "definiteness", 6, "definiteness of the amalgam norm")
    rep2 = _report("linfty_identity", node_count=2048, half_width=16.0)
    _assert_cases_pass(rep2, "linfty_identity_k", 6, "sup-exponent amalgam equals the sup norm to 1e-6")


def test_criterion_07_embeddings():
    rep = _report("embeddings", node_count=2048, half_width=16.0)
    _assert_cases_pass(rep, "lebesgue_amalgam_k", 7, "Lebesgue-to-amalgam embedding constant with 1% slack")
    _assert_cases_pass(rep, "amalgam_q_monotone_k", 7, "amalgam monotonicity in the local exponent with 1% slack")
    _assert_cases_pass(rep, "lebesgue_fofana_k", 7, "Lebesgue-to-scaled-amalgam embedding with 1% slack")
    _assert_cases_pass(rep, "fofana_q_monotone_k", 7, "scaled-amalgam monotonicity with 1% slack")


def test_criterion_07_interval_vs_translation_window():
    """Interval-windowed against translation-windowed scaled norms.

    At the classical parameter the interval norm is dominated by the
    translation norm with 2% slack.  Elsewhere the interval norm carries the
    factor (mu(I(y,r)) / mu(B_r))^(1/alpha - 1/p) >= 1, growing with |y|, so
    no fixed constant holds on the whole line: its measured constant is
    reported on the domain and on the half domain.  The ball-scaled companion
    moves that factor into the center integral; its constant must be finite,
    at most the unscaled one, and stable within 10% under domain halving.
    """
    rep = _report("embeddings", node_count=2048, half_width=16.0)
    _assert_cases_pass(rep, "interval_le_translation", 7, "classical interval-window norm <= translation-window norm (2%)")
    assert [c.case_id for c in _cases(rep, "interval_le_translation")] == ["interval_le_translation_km0.5"]
    _assert_cases_pass(rep, "interval_translation_constant_k", 7, "unscaled interval/translation constant finite")
    _assert_cases_pass(rep, "interval_translation_constant_half_domain_k", 7, "unscaled constant finite on the half domain")
    _assert_cases_pass(rep, "interval_translation_scaled_k", 7, "ball-scaled interval/translation constant finite")
    _assert_cases_pass(
        rep, "interval_translation_scaled_stability_k", 7, "ball-scaled constant stable within 10% under domain halving"
    )
    lhs = {c.case_id: c.lhs for c in rep.cases}
    for kappa in ("m0.5", "0", "0.5", "1.5"):
        assert lhs[f"interval_translation_scaled_k{kappa}"] <= lhs[f"interval_translation_constant_k{kappa}"] * (1 + 1e-12)


def test_criterion_08_maximal_equivalence():
    rep = _report("maximal_equivalence", node_count=4096, half_width=16.0)
    _assert_cases_pass(rep, "equivalence_stability", 8, "equivalence windows stable within 10% between N=2048 and N=4096")
    _assert_cases_pass(rep, "classical_maximal_oracle", 8, "classical transform-route maximal matches window sweep to 2%")
    for c in _cases(rep, "equivalence_window"):
        assert math.isfinite(c.lhs) and c.lhs < 1e3


def _collect_ratio_measurements(report):
    return {
        c.case_id: c.lhs
        for c in report.cases
        if c.kind == "measure" and c.case_id.startswith("family_max_")
    }


def test_criterion_09_maximal_fofana_bound():
    rep = _report("theorem_maxi", node_count=4096, half_width=16.0)
    _assert_cases_pass(rep, "finite_", 9, "strong-bound ratio finite for every family member")
    _assert_cases_pass(rep, "stability_", 9, "family-max ratio stable within 10% under refinement")


def test_criterion_10_weak_maximal_bound():
    rep = _report("theorem_weakmaxi", node_count=4096, half_width=16.0)
    _assert_cases_pass(rep, "finite_", 10, "weak-bound ratio finite for every family member")
    _assert_cases_pass(rep, "stability_", 10, "weak family-max ratio stable within 10% under refinement")


def test_criteria_09_10_persist_and_regress():
    strong = _report("theorem_maxi", node_count=4096, half_width=16.0)
    weak = _report("theorem_weakmaxi", node_count=4096, half_width=16.0)
    measured = {**_collect_ratio_measurements(strong), **_collect_ratio_measurements(weak)}
    assert measured
    BASELINE_PATH.parent.mkdir(exist_ok=True)
    if not BASELINE_PATH.exists():
        BASELINE_PATH.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        _announce("9+10", "measured ratios persisted as a new baseline", True, BASELINE_PATH.name)
        return
    baseline = json.loads(BASELINE_PATH.read_text())
    drifts = {
        k: abs(measured[k] / baseline[k] - 1.0)
        for k in measured
        if k in baseline and baseline[k] != 0.0
    }
    worst = max(drifts.values()) if drifts else 0.0
    ok = _announce("9+10", "measured ratios within 10% of the stored baseline", worst <= 0.10, f"max drift {worst:.3f}")
    assert ok, f"regression vs baseline: {sorted(drifts.items(), key=lambda kv: -kv[1])[:3]}"


def test_criterion_11_determinism(tmp_path):
    args = [
        "verify",
        "--suite",
        "all",
        "--seed",
        "7",
        "--grid-n",
        "256",
        "--domain-l",
        "8",
    ]
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli_main(args + ["--report", str(r1)]) in (0, 1)
    assert cli_main(args + ["--report", str(r2)]) in (0, 1)
    ok = _announce(11, "two seeded full runs produce byte-identical reports", r1.read_bytes() == r2.read_bytes())
    assert ok
    payload = json.loads(r1.read_text())
    assert len(payload) == len(list_suites())

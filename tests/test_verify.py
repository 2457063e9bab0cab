import functools
import json
import math
import re

import numpy as np
import pytest

from dunkl import SuiteConfig, list_suites, run_suite
from dunkl._windows import WindowGeometry
from dunkl.verify import _YOUNG_TRIPLES, DEFAULT_KAPPAS, _Recorder, canonical_json, check_suite

SMALL = dict(node_count=256, half_width=8.0)


@functools.cache
def _small(name):
    """The report of one suite at SMALL, run once per test session."""
    return run_suite(name, SuiteConfig(**SMALL))


ALL_SUITES = [
    "kernel",
    "measure_lemmas",
    "transform",
    "translation",
    "young",
    "holder",
    "embeddings",
    "linfty_identity",
    "fofana_lebesgue",
    "maximal_equivalence",
    "interval_fofana_maximal",
    "theorem_maxi",
    "theorem_weakmaxi",
]


def test_suite_registry_complete():
    assert list_suites() == ALL_SUITES


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nosuch")


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(exponents=((4.0, 8.0, 2.0),))  # q > alpha
    with pytest.raises(ValueError):
        SuiteConfig(node_count=10)  # too small
    with pytest.raises(ValueError, match="multiple of 4"):
        SuiteConfig(node_count=66, half_width=8.0, kappa_list=(0.0,))  # N/2 is odd
    with pytest.raises(ValueError):
        SuiteConfig(kappa_list=())
    with pytest.raises(ValueError):
        SuiteConfig(kappa_list=(-0.7,))
    nan, inf = float("nan"), float("inf")
    for kwargs, message in [
        ({"tolerances": {"plancherell": 0.5}}, "tolerances.*'plancherell'"),
        ({"tolerances": {"plancherel": -1e-3}}, r"tolerances\['plancherel'\].*-0.001"),
        ({"tolerances": {"plancherel": nan}}, r"tolerances\['plancherel'\].*nan"),
        ({"tolerances": {"plancherel": inf}}, r"tolerances\['plancherel'\].*inf"),
        ({"kappa_list": (0.0, 0.0)}, r"kappa_list.*\(0.0, 0.0\)"),
        ({"kappa_list": (0.5, -0.5, 0.5)}, r"kappa_list.*\(0.5, -0.5, 0.5\)"),
        ({"r_grid": ()}, r"r_grid.*\(\)"),
        ({"r_grid": (0.0, 1.0)}, r"r_grid.*\(0.0, 1.0\)"),
        ({"r_grid": (2.0, 1.0)}, r"r_grid.*\(2.0, 1.0\)"),
        ({"r_grid": (1.0, 1.0)}, r"r_grid.*\(1.0, 1.0\)"),
        ({"r_grid": (1.0, nan)}, r"r_grid.*\(1.0, nan\)"),
        ({"r_grid": (1.0, 5.0), "half_width": 8.0}, r"r_grid.*\(1.0, 5.0\)"),
        ({"rho_grid": ()}, r"rho_grid.*\(\)"),
        ({"rho_grid": (1.0, -2.0)}, r"rho_grid.*\(1.0, -2.0\)"),
        ({"rho_grid": (nan,)}, r"rho_grid.*\(nan,\)"),
        ({"seed": -1}, r"seed.*-1"),
    ]:
        with pytest.raises(ValueError, match=message):
            SuiteConfig(**kwargs)
    assert SuiteConfig(r_grid=(1.0, 4.0), half_width=8.0).r_grid == (1.0, 4.0)
    cfg = SuiteConfig(**SMALL)
    assert cfg.kappa_list == DEFAULT_KAPPAS
    assert cfg.tolerance("plancherel") == 1e-4
    cfg2 = SuiteConfig(tolerances={"plancherel": 0.5}, **SMALL)
    assert cfg2.tolerance("plancherel") == 0.5


def test_suite_requirements_name_the_suite():
    cfg = SuiteConfig(exponents=((1.0, 2.0, 2.0), (2.0, 8.0, 4.0)), **SMALL)
    with pytest.raises(ValueError, match="suite 'theorem_maxi'.*q > 1"):
        check_suite("theorem_maxi", cfg)
    with pytest.raises(ValueError, match="suite 'theorem_maxi'.*q > 1"):
        run_suite("theorem_maxi", cfg)
    with pytest.raises(ValueError, match="suite 'interval_fofana_maximal'.*q > 1"):
        check_suite("interval_fofana_maximal", cfg)
    with pytest.raises(ValueError, match="unknown suite"):
        check_suite("nosuch", cfg)


def test_interval_fofana_maximal_builds_one_window_geometry_per_grid(monkeypatch):
    # per kappa and grid level: one interval geometry serves the |f| profile
    # stack, the maximal-function stack and the maximal functions, and one
    # the three decay indicators; then one serves the translated-window pair
    builds = []
    init = WindowGeometry.__init__

    def counted(self, grid, folded):
        builds.append((grid.node_count, folded))
        init(self, grid, folded)

    monkeypatch.setattr(WindowGeometry, "__init__", counted)
    cfg = SuiteConfig(**SMALL)
    run_suite("interval_fofana_maximal", cfg)
    n = cfg.node_count
    assert builds == ([(n // 2, False), (n, False)] * 2 + [(n, False)]) * len(cfg.kappa_list)


def test_young_triples_satisfy_the_scaling_relation():
    for pp, qq, rr in _YOUNG_TRIPLES:
        assert 1.0 / pp + 1.0 / qq == pytest.approx(1.0 + 1.0 / rr, abs=1e-12)


def test_recorder_view_shares_cases_streams_and_leads_with_kappa():
    rec = _Recorder("s", SuiteConfig(**SMALL))
    view = rec.at(-0.5)
    assert (rec.ktag, view.ktag, rec.at(1.5).ktag, rec.at(0.0).ktag) == (None, "km0.5", "k1.5", "k0")
    rec.measure("plain", "st", 1.0, x=2.0)
    assert view.measure("measure_km0.5", "st", 3.0, x=2.0) == 3.0
    assert view.match("match_km0.5", "st", 1.0, 1.5, 1.0, x=2.0)
    assert view.bound("bound_km0.5", "st", 1.0, 2.0, y=1.0)
    assert not view.stability("stability_km0.5", "st", 2.0, 1.0, coarse=1.0)
    assert view.cases is rec.cases
    assert [c.case_id for c in rec.cases] == [
        "plain", "measure_km0.5", "match_km0.5", "bound_km0.5", "stability_km0.5"
    ]
    assert [list(c.inputs) for c in rec.cases] == [
        ["x"], ["kappa", "x"], ["kappa", "x", "expected"], ["kappa", "y"], ["kappa", "coarse"]
    ]
    assert all(c.inputs["kappa"] == -0.5 for c in rec.cases[1:])
    assert rec.cases[2].inputs["expected"] == 1.5
    for label in ("", "pairs_0.5"):
        draws = rec.rng(label).random(8)
        assert np.array_equal(draws, view.rng(label).random(8))
        assert np.array_equal(draws, rec.at(1.5).rng(label).random(8))


_KTAG = re.compile(r"_k(m?[0-9][0-9.e+]*?)(?=_|$)")


@pytest.mark.parametrize("name", ALL_SUITES)
def test_kappa_inputs_agree_with_id_labels(name):
    """Every case with a kappa input has it as the first input, and a kappa
    label in its id, where there is one, names that kappa."""
    labelled = 0
    for c in _small(name).cases:
        m = _KTAG.search(c.case_id)
        if "kappa" in c.inputs:
            assert list(c.inputs)[0] == "kappa", c.case_id
        if m is None:
            continue
        assert "kappa" in c.inputs, c.case_id
        assert m.group(1) == ("%g" % c.inputs["kappa"]).replace("-", "m"), c.case_id
        labelled += 1
    assert labelled >= len(DEFAULT_KAPPAS)


def test_kernel_suite_runs_and_reports():
    rep = _small("kernel")
    assert rep.suite == "kernel"
    assert rep.n_failed == 0
    payload = rep.to_payload()
    assert set(payload) == {"suite", "config", "cases", "summary", "provenance"}
    assert payload["summary"]["n_cases"] == len(rep.cases)
    assert "kernel_modulus_bound" in payload["summary"]["statements"]
    # cases carry the schema fields
    case = payload["cases"][0]
    assert set(case) == {
        "id",
        "statement",
        "kind",
        "inputs",
        "lhs",
        "rhs",
        "ratio",
        "bound",
        "slack",
        "pass",
    }


def test_reports_deterministic_for_fixed_seed():
    cfg = SuiteConfig(seed=7, **SMALL)
    a = _small("measure_lemmas").to_json()
    b = run_suite("measure_lemmas", cfg).to_json()
    assert a == b
    c = run_suite("measure_lemmas", SuiteConfig(seed=8, **SMALL)).to_json()
    assert a != c


def test_report_json_parses_and_has_17_digit_floats():
    rep = _small("kernel")
    text = rep.to_json()
    parsed = json.loads(text)
    assert parsed["suite"] == "kernel"
    assert parsed["summary"]["n_failed"] == 0


def test_canonical_json_formatting():
    assert canonical_json({"a": 1, "b": [True, None]}) == '{"a":1,"b":[true,null]}'
    assert canonical_json(1.0 / 3.0) == "0.33333333333333331"
    assert canonical_json(math.inf) == '"Infinity"'
    assert json.loads(canonical_json({"x": 0.1})) == {"x": 0.1}


def test_statement_coverage_across_suites():
    # every in-scope statement family is covered by at least one suite case
    covered = set()
    for name in ("kernel", "measure_lemmas"):
        covered |= {c.statement for c in _small(name).cases}
    for needed in (
        "kernel_modulus_bound",
        "kernel_classical_exponential",
        "eigenfunction_identity",
        "ball_interval_bound",
        "origin_interval_bound",
        "doubling",
        "reverse_doubling",
        "measure_closed_form",
    ):
        assert needed in covered


def test_runtime_not_serialized():
    rep = _small("kernel")
    assert rep.runtime_seconds > 0.0
    assert "runtime" not in rep.to_json()

import json
import math

import pytest

from dunkl import SuiteConfig, list_suites, run_suite
from dunkl.verify import DEFAULT_KAPPAS, canonical_json

SMALL = dict(node_count=256, half_width=8.0)

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
    ]:
        with pytest.raises(ValueError, match=message):
            SuiteConfig(**kwargs)
    assert SuiteConfig(r_grid=(1.0, 4.0), half_width=8.0).r_grid == (1.0, 4.0)
    cfg = SuiteConfig(**SMALL)
    assert cfg.kappa_list == DEFAULT_KAPPAS
    assert cfg.tolerance("plancherel") == 1e-4
    cfg2 = SuiteConfig(tolerances={"plancherel": 0.5}, **SMALL)
    assert cfg2.tolerance("plancherel") == 0.5


def test_kernel_suite_runs_and_reports():
    rep = run_suite("kernel", SuiteConfig(**SMALL))
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
    a = run_suite("measure_lemmas", cfg).to_json()
    b = run_suite("measure_lemmas", cfg).to_json()
    assert a == b
    c = run_suite("measure_lemmas", SuiteConfig(seed=8, **SMALL)).to_json()
    assert a != c


def test_report_json_parses_and_has_17_digit_floats():
    rep = run_suite("kernel", SuiteConfig(**SMALL))
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
    cfg = SuiteConfig(**SMALL)
    for name in ("kernel", "measure_lemmas"):
        covered |= {c.statement for c in run_suite(name, cfg).cases}
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
    rep = run_suite("kernel", SuiteConfig(**SMALL))
    assert rep.runtime_seconds > 0.0
    assert "runtime" not in rep.to_json()

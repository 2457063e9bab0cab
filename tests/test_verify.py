import functools
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl import SuiteConfig, cli, list_suites, run_suite, run_suites, transform, verify
from dunkl._windows import WindowGeometry
from dunkl.cli import main
from dunkl.verify import (
    _YOUNG_TRIPLES,
    DEFAULT_FAMILY,
    DEFAULT_KAPPAS,
    _Recorder,
    _worst_ratio,
    canonical_json,
    check_suite,
)

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
    with pytest.raises(ValueError, match="kappa = 200.0 is too large"):
        SuiteConfig(kappa_list=(0.5, 200.0))
    with pytest.raises(ValueError, match="kappa = 127.0 is too large for half_width 16.0"):
        SuiteConfig(kappa_list=(127.0,))
    # the suites also build the band grid of 4L = 64, whose measure leaves
    # the float range from about kappa 83.84 on
    with pytest.raises(ValueError, match="kappa = 90.0 is too large for half_width 64.0.*half_width 16.0"):
        SuiteConfig(kappa_list=(90.0,))
    SuiteConfig(kappa_list=(83.5,))
    nan, inf = float("nan"), float("inf")
    for kwargs, message in [
        ({"kappa_list": (0.0, 0.0)}, r"kappa_list.*\(0.0, 0.0\)"),
        ({"kappa_list": (0.5, -0.5, 0.5)}, r"kappa_list.*\(0.5, -0.5, 0.5\)"),
        ({"half_width": -2.0}, r"half_width.*-2.0"),
        ({"half_width": nan}, r"half_width.*nan"),
        ({"half_width": inf}, r"half_width.*inf"),
        ({"seed": -1}, r"seed.*-1"),
        ({"seed": 2.7}, r"seed.*2\.7"),
        ({"seed": nan}, r"seed.*nan"),
        ({"node_count": 4096.7}, r"node_count.*4096\.7"),
        ({"node_count": inf}, r"node_count.*inf"),
        ({"exponents": ()}, "exponents must be non-empty"),
    ]:
        with pytest.raises(ValueError, match=message):
            SuiteConfig(**kwargs)
    # the radius grids, family, weak exponents and tolerances are fixed
    for name in ("r_grid", "rho_grid", "weak_exponents", "family", "tolerances"):
        with pytest.raises(TypeError, match=name):
            SuiteConfig(**{name: ()})
    assert SuiteConfig(**SMALL).kappa_list == DEFAULT_KAPPAS


def test_config_echo_matches_the_default_baseline():
    # `dunkl report diff` compares cases only; this pins the config bytes
    baseline = json.loads((Path(__file__).parent / "baselines" / "verify_default.json").read_text())
    assert [report["suite"] for report in baseline] == ALL_SUITES
    echo = canonical_json(SuiteConfig().echo())
    for report in baseline:
        assert canonical_json(report["config"]) == echo


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


def test_translation_needs_a_spacing_of_at_most_one_eighth():
    # the differentiation windows have radii 8h * 2^k <= 1: none fits past h = 1/8
    with pytest.raises(ValueError, match=r"suite 'translation'.*h = 2L/N <= 1/8, got h = 0.25 \(N >= 16 L\)"):
        check_suite("translation", SuiteConfig(node_count=64, half_width=8.0))
    with pytest.raises(ValueError, match="got h = 0.25"):
        run_suite("translation", SuiteConfig(node_count=64, half_width=8.0))
    check_suite("translation", SuiteConfig(node_count=128, half_width=8.0))  # h = 1/8: one window
    check_suite("transform", SuiteConfig(node_count=64, half_width=8.0))


@pytest.mark.parametrize("kappa,n", [(10.0, 256), (2.0, 64)])
def test_holder_homogeneity_skips_a_member_of_norm_zero(kappa, n):
    # indicator_ball(0.5)'s r = 1 amalgam norm is 0.0 on these coarse grids:
    # it has no homogeneity ratio, as it has no Holder ratio
    rep = run_suite("holder", SuiteConfig(kappa_list=(kappa,), node_count=n))
    cases = {c.case_id: c for c in rep.cases}
    tag = "k%g" % kappa
    assert not cases[f"definiteness_positive_{tag}"].passed  # the zero norm is recorded
    assert math.isfinite(cases[f"homogeneity_{tag}"].lhs)


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


def test_worst_ratio_skips_zero_denominators_and_equals_the_loop():
    def loop(pairs):
        worst = 0.0
        for num, den in pairs:
            if den == 0.0:
                continue
            worst = max(worst, num / den)
        return worst

    assert _worst_ratio([]) == 0.0
    assert _worst_ratio([(1.0, 0.0), (-1.0, 2.0)]) == 0.0
    rng = np.random.default_rng(5)
    nums, dens = rng.uniform(0.0, 2.0, (2, 40))
    dens[::7] = 0.0
    # a nan ratio, a -0.0 ratio and two equal maxima of different types
    pairs = [(-0.0, 1.0), (math.nan, 1.0), *zip(nums, dens), (np.float64(9.0), 1.0), (9.0, 1.0)]
    for case in (pairs, pairs[:3], pairs[::-1]):
        got, want = _worst_ratio(iter(case)), loop(case)
        assert got == want and type(got) is type(want)
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
    assert type(_worst_ratio(pairs)) is np.float64


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


def test_weak_suite_reads_maximal_functions_and_q1_norms_from_one_ball_stack(monkeypatch):
    # theorem_weakmaxi takes M f and the q = 1 Fofana norms of the family
    # from its kappa unit: M f from the unit's Dunkl maximal function, the
    # norms from the unit's ball stack, whose q = 1 profiles also give M f.
    # Both have the bits of the maximal path and of a family stack over the
    # radius grid alone.  A one-row fofana_norm transforms with a
    # matrix-vector product, not the stack's matrix product, so it agrees
    # to rounding only
    from dunkl import NormSpec, default_radius_grid, fofana_norm
    from dunkl.maximal import _window_maximal
    from dunkl.translation import TranslatedBalls

    maxima, norms = [], []

    class Recording(verify._ProfileStack):
        def fofana(self, spec, ball_scaled=False):
            out = super().fofana(spec, ball_scaled)
            norms.append((self, spec, out))
            return out

    class Unit(verify._Unit):
        def maximal(self, stack):
            maxima.append((stack, super().maximal(stack)))
            return maxima[-1][1]

    monkeypatch.setattr(verify, "_ProfileStack", Recording)
    cfg = SuiteConfig(kappa_list=(0.5,), **SMALL)
    unit = Unit(cfg, 0.5)
    verify._SUITES["theorem_weakmaxi"](_Recorder("theorem_weakmaxi", cfg).at(0.5), unit)
    pairs = verify.DEFAULT_WEAK_EXPONENTS
    assert [stack for stack, _ in maxima] == [unit.balls(unit.fine), unit.balls(unit.coarse)]
    assert len(norms) == 2 * len(pairs)
    for (stack, mf), calls in zip(maxima, (norms[: len(pairs)], norms[len(pairs) :])):
        g = stack.grid
        rg, rhog = default_radius_grid(g, ratio=2.0), default_radius_grid(g)
        rows = unit.rows(g)
        assert np.array_equal(mf, _window_maximal(TranslatedBalls(g), rows, rhog))
        for (read, spec, out), (pp, alpha) in zip(calls, pairs):
            assert read is stack and spec == NormSpec(1.0, pp, alpha, rg)
            assert out == verify._ProfileStack(TranslatedBalls(g), rows).fofana(spec)
            for f, norm in zip(unit.family(g).values(), out):
                assert norm == pytest.approx(fofana_norm(f, spec), rel=1e-13)


@pytest.mark.parametrize("windows", ["balls", "intervals"])
def test_unit_stacks_keep_the_bits_of_a_fresh_stack_in_any_request_order(windows):
    # a unit's stack evaluates each request's missing radii as one stack and
    # keeps them: the profiles and norms it returns have the bits of a fresh
    # stack over the suites' own radii, whatever the suites asked before,
    # and the rows of a member subset (fofana_lebesgue's) those of a fresh
    # stack of the subset alone
    from dunkl import NormSpec, default_radius_grid
    from dunkl.norms import _ProfileStack
    from dunkl.translation import TranslatedBalls

    cfg = SuiteConfig(kappa_list=(0.5,), **SMALL)
    members = [i for i, (name, _) in enumerate(DEFAULT_FAMILY) if name != "power_tail"]
    kinds = {"balls": TranslatedBalls, "intervals": WindowGeometry.interval}
    for order in (1, -1):
        unit = verify._Unit(cfg, 0.5)
        for g in (unit.fine, unit.coarse, unit.half)[::order]:
            rg, rhog = default_radius_grid(g, ratio=2.0), default_radius_grid(g)
            stack = getattr(unit, windows)(g)
            rows = unit.rows(g)
            requests = [(1.0, rg), (1.0, rhog), (1.0, (1.0,)), (2.0, rhog), (1.5, rhog)]
            requests.append((math.inf, (1.0,)))
            for q, radii in requests[::order]:
                fresh = _ProfileStack(kinds[windows](g), rows)
                assert np.array_equal(stack.at(q, radii), fresh.at(q, radii)), (q, radii)
            spec = NormSpec(2.0, 8.0, 2.0, rhog)
            norms = stack.fofana(spec)
            subset = _ProfileStack(kinds[windows](g), rows[members])
            assert [norms[i] for i in members] == subset.fofana(spec)


@pytest.mark.parametrize("kappa", DEFAULT_KAPPAS)
def test_unit_maximal_functions_have_the_bits_of_the_maximal_path(kappa):
    # the unit reads the family's Dunkl and interval maximal functions from
    # the q = 1 profiles of its stacks, also after a suite has filled them at
    # other radii; they have the bits of `_window_maximal` over the family
    from dunkl import default_radius_grid
    from dunkl.maximal import _window_maximal
    from dunkl.translation import TranslatedBalls

    unit = verify._Unit(SuiteConfig(kappa_list=(kappa,), **SMALL), kappa)
    for g in (unit.coarse, unit.fine):
        rhog, rows = default_radius_grid(g), unit.rows(g)
        for stack in (unit.balls(g), unit.intervals(g)):
            stack.at(1.0, (1.0, *default_radius_grid(g, ratio=2.0)))
        balls, intervals = unit.balls(g), unit.intervals(g)
        assert np.array_equal(unit.maximal(balls), _window_maximal(TranslatedBalls(g), rows, rhog))
        interval_path = _window_maximal(WindowGeometry.interval(g), rows, rhog)
        assert np.array_equal(unit.maximal(intervals), interval_path)
        assert unit.maximal(balls) is unit.maximal(balls)


def _fake_suites(monkeypatch, calls, fail_at=None, units=None):
    """Replace kernel (whole), transform and translation (per kappa) by
    bodies that log their calls (and their units, to a list units) and
    record one case each; translation raises at kappa fail_at."""

    def whole(rec, cfg):
        calls.append(("kernel", None))
        rec.measure("whole", "s", 1.0)

    def body(name):
        def run(rec, unit):
            kappa = unit.kappa
            calls.append((name, kappa))
            if units is not None:
                units.append(unit)
            assert unit.params.kappa == kappa
            if name == "translation" and kappa == fail_at:
                raise RuntimeError(f"unit {name} at kappa {kappa}")
            rec.measure(f"{name}_{rec.ktag}", "s", kappa)

        return run

    monkeypatch.setitem(verify._SUITES, "kernel", whole)
    for name in ("transform", "translation"):
        monkeypatch.setitem(verify._SUITES, name, body(name))


def test_run_suites_is_kappa_major_with_reports_in_list_order(monkeypatch):
    # whole suites run first, then every per-kappa body at each kappa, all
    # with that kappa's one unit; the reports come in list_suites order,
    # their cases in kappa order, and each report's seconds sum its units
    calls, units = [], []
    _fake_suites(monkeypatch, calls, units=units)
    cfg = SuiteConfig(kappa_list=(0.5, -0.5), **SMALL)
    reports = run_suites(["translation", "kernel", "transform"], cfg)
    assert calls == [
        ("kernel", None),
        ("transform", 0.5), ("translation", 0.5),
        ("transform", -0.5), ("translation", -0.5),
    ]
    assert units[0] is units[1] and units[2] is units[3] and units[1] is not units[2]
    assert [r.suite for r in reports] == ["kernel", "transform", "translation"]
    assert [c.case_id for c in reports[2].cases] == ["translation_k0.5", "translation_km0.5"]
    assert all(r.runtime_seconds > 0.0 for r in reports)
    assert run_suite("transform", cfg).to_json() == reports[1].to_json()


def test_run_suites_raises_an_exception_of_one_kappa_unit(monkeypatch):
    calls = []
    _fake_suites(monkeypatch, calls, fail_at=-0.5)
    cfg = SuiteConfig(kappa_list=(0.5, -0.5), **SMALL)
    with pytest.raises(RuntimeError, match="unit translation at kappa -0.5"):
        run_suites(["transform", "translation"], cfg)
    assert calls[-1] == ("translation", -0.5)


def _count_builds(monkeypatch):
    """The (kappa, row spacing, column spacing) of every block pair built
    from here on, in a fresh kernel store."""
    monkeypatch.setattr(transform, "_cache", type(transform._cache)())
    built = []
    build = transform._build

    def counted(params, rows, cols):
        built.append((params.kappa, rows[1] - rows[0], cols[1] - cols[0]))
        return build(params, rows, cols)

    monkeypatch.setattr(transform, "_build", counted)
    return built


def test_verify_all_builds_each_block_once_under_one_kappas_store(monkeypatch, tmp_path):
    # with the store bounded by the block pairs of one kappa, the CLI's
    # --suite all, run kappa-major, builds each (kappa, spacing, spacing)
    # pair once, and its payload is the per-suite reports' bytes
    per_suite = [_small(name).to_payload() for name in ALL_SUITES]
    cfg = SuiteConfig(**SMALL)
    # one kappa's pairs: one of N/4 x N/4 blocks (the N/2-node grids) and
    # two of N/2 x N/2 blocks (the N-node grids)
    one_kappa = 16 * (cfg.node_count // 4) ** 2 + 2 * 16 * (cfg.node_count // 2) ** 2
    monkeypatch.setattr(transform, "_KERNEL_CACHE_BYTES", one_kappa)
    built = _count_builds(monkeypatch)
    path = tmp_path / "all.json"
    argv = ["verify", "--suite", "all", "--grid-n", str(cfg.node_count), "--domain-l", "8"]
    assert main([*argv, "--report", str(path)]) in (0, 1)
    assert len(built) == len(set(built)) == 3 * len(cfg.kappa_list)
    assert {k for k, _, _ in built} == set(cfg.kappa_list)
    # no suite transforms onto frequencies at the spatial nodes
    assert all(rows != cols for _, rows, cols in built)
    assert path.read_text() == canonical_json(per_suite) + "\n"


def test_transform_suite_builds_band_pairs_only(monkeypatch):
    # every transform of the suite maps a grid to its 4x band or back, and a
    # band and its inverse share one pair: two pairs per kappa (the N/2- and
    # the N-node grid's), each with frequencies 4x as far apart as the nodes
    cfg = SuiteConfig(**SMALL)
    built = _count_builds(monkeypatch)
    run_suite("transform", cfg)
    assert len(built) == len(set(built)) == 2 * len(cfg.kappa_list)
    for _, rows, cols in built:
        assert rows / cols == pytest.approx(4.0, rel=1e-12)


# Flags that a case of the table below adds to its command (later flags win).
_FAILED_CASE_FLAGS = {
    "mass_k40": ["--grid-n", "512", "--domain-l", "32"],
    "doubling_k70": ["--grid-n", "512", "--seed", "123456789"],
    "reverse_doubling_k75": ["--seed", "123456789"],
    "linearity_k50": ["--domain-l", "64"],
    "stability_k35.3196_p8_a4": ["--domain-l", "64", "--grid-n", "192"],
}


@pytest.mark.parametrize(
    "suite,kappa,case_id",
    [
        ("theorem_maxi", "30", "stability_k30_q2_p8_a4"),
        ("theorem_weakmaxi", "40", "stability_k40_p8_a4"),
        ("maximal_equivalence", "20", "equivalence_stability_k20"),
        ("fofana_lebesgue", "20", "fofana_lebesgue_stability_k20_alpha_eq_q"),
        ("translation", "40", "mass_k40"),
        ("measure_lemmas", "70", "doubling_k70"),
        ("measure_lemmas", "75", "reverse_doubling_k75"),
        ("transform", "50", "linearity_k50"),
        ("theorem_weakmaxi", "35.31956744965072", "stability_k35.3196_p8_a4"),
    ],
)
def test_zero_reference_records_a_failed_case(suite, kappa, case_id, tmp_path):
    # at a large kappa on a coarse grid a refinement reference (or, in
    # fofana_lebesgue, a window norm; in translation, a mass; in the
    # doubling and reverse-doubling lists, an interval measure; in the
    # transform linearity check, its scale) is 0.0, or (in theorem_weakmaxi
    # at kappa 35.3, the coarse q = 1, p = 8 norm of power_tail(6,1)) a
    # power overflows: the drift (or the window constant, the mass defect,
    # the ratio, the linearity defect) is recorded as inf, a failed case, and
    # the run exits 1 with its report, with no RuntimeWarning
    path = tmp_path / "r.json"
    argv = ["verify", "--grid-n", "64", "--suite", suite, "--kappa", kappa, "--report", str(path)]
    argv += _FAILED_CASE_FLAGS.get(case_id, [])
    assert main(argv) == 1
    case = {c["id"]: c for c in json.loads(path.read_text())["cases"]}[case_id]
    assert case["pass"] is False
    assert "Infinity" in (case["lhs"], case["inputs"].get("coarse_window"))


def test_transform_records_a_member_of_zero_norm_as_failed(tmp_path):
    # at kappa 80 the weighted L2 norm of gaussian(2) underflows to 0.0 on
    # both grids: its two plancherel cases record inf and fail, and the run
    # exits 1 with its report
    path = tmp_path / "r.json"
    argv = ["verify", "--grid-n", "64", "--suite", "transform", "--kappa", "80"]
    assert main([*argv, "--report", str(path)]) == 1
    cases = {c["id"]: c for c in json.loads(path.read_text())["cases"]}
    for case_id in ("plancherel_k80_a2", "plancherel_refine_k80_a2"):
        assert cases[case_id]["lhs"] == "Infinity"
        assert cases[case_id]["pass"] is False
    assert isinstance(cases["plancherel_k80_a0.25"]["lhs"], float)


# Exponent lists of the configuration sweep: the default triples, q = 1 (which
# the strong maximal suites reject), q = inf, and one list of two triples.
_SWEEP_EXPONENTS = (
    "2,8,4", "1.5,6,2", "2,inf,4", "1,2,2", "2,8,4;1.5,6,2", "inf,inf,inf", "4,8,8", "1.2,1.5,1.3"
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    suite=st.sampled_from(ALL_SUITES),
    kappa=st.floats(-0.499, 83.0),
    half_width=st.floats(2.0, 64.0),
    node_count=st.integers(16, 64).map(lambda k: 4 * k),
    exponents=st.sampled_from(_SWEEP_EXPONENTS),
    seed=st.sampled_from((0, 7, 123456789)),
)
def test_every_accepted_config_runs_to_a_report(suite, kappa, half_width, node_count, exponents, seed):
    # a configuration the CLI accepts runs its suite to a report (exit 0, or
    # 1 with failed cases), and one it rejects exits 2 before any suite
    # starts; an uncaught exception, or a RuntimeWarning (an error under the
    # test filter), fails the example
    wrapped = mock.patch.object(cli, "run_suites", wraps=run_suites)
    with tempfile.TemporaryDirectory() as tmp, wrapped as runs:
        path = Path(tmp) / "r.json"
        argv = ["verify", "--suite", suite, "--kappa", repr(kappa), "--domain-l", repr(half_width)]
        argv += ["--grid-n", str(node_count), "--exponents", exponents, "--seed", str(seed)]
        try:
            code = main([*argv, "--report", str(path)])
        except SystemExit as exc:
            assert exc.code == 2 and not runs.called and not path.exists()
            return
        assert code in (0, 1)
        assert json.loads(path.read_text())["suite"] == suite

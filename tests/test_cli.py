import json
import math

import numpy as np
import pytest

from dunkl.cli import main
from dunkl import DunklParams, make_grid, read_csv_function, sample_family, write_csv_function
from dunkl.maximal import centered_maximal
from dunkl.norms import default_radius_grid


def _write_constant_csv(path, value=1.0, half=20.0):
    xs = np.linspace(-half, half, 41)
    path.write_text("".join(f"{float(x)!r},{float(value)!r}\n" for x in xs))


def test_verify_single_suite_and_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--suite",
            "measure_lemmas",
            "--grid-n",
            "256",
            "--domain-l",
            "8",
            "--seed",
            "7",
            "--report",
            str(report),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] measure_lemmas" in out
    payload = json.loads(report.read_text())
    assert payload["suite"] == "measure_lemmas"
    assert payload["summary"]["n_failed"] == 0


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nosuch"])
    assert err.value.code == 2
    assert "valid suites" in capsys.readouterr().err


def test_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    assert "kernel" in out and "theorem_weakmaxi" in out


def test_verify_determinism_byte_identical(tmp_path):
    args = [
        "verify",
        "--suite",
        "kernel",
        "--grid-n",
        "256",
        "--domain-l",
        "8",
        "--seed",
        "7",
    ]
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--report", str(r1)]) == 0
    assert main(args + ["--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_norm_amalgam_constant_one(tmp_path, capsys):
    csv = tmp_path / "one.csv"
    _write_constant_csv(csv)
    code = main(
        [
            "norm",
            "--which",
            "amalgam",
            "--q",
            "2",
            "--p",
            "inf",
            "--r",
            "1",
            "--kappa",
            "0",
            "--grid-n",
            "2048",
            "--input",
            str(csv),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    value = float(captured.out.strip().splitlines()[0])
    assert value == pytest.approx(math.sqrt(0.5), abs=1e-2)
    assert "radius grid" in captured.err


def test_norm_exponent_order_violation_exits_2(tmp_path, capsys):
    csv = tmp_path / "one.csv"
    _write_constant_csv(csv)
    with pytest.raises(SystemExit) as err:
        main(
            [
                "norm",
                "--which",
                "fofana",
                "--q",
                "4",
                "--alpha",
                "2",
                "--p",
                "8",
                "--input",
                str(csv),
            ]
        )
    assert err.value.code == 2


def test_norm_empty_csv_exits_3(tmp_path, capsys):
    csv = tmp_path / "empty.csv"
    csv.write_text("")
    code = main(["norm", "--which", "weak", "--input", str(csv)])
    assert code == 3
    assert "malformed CSV" in capsys.readouterr().err


def test_norm_missing_input_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["norm", "--which", "weak"])
    assert err.value.code == 2


def test_maximal_roundtrip_matches_in_process(tmp_path, capsys):
    p = DunklParams(0.5)
    g = make_grid(p, 16.0, 512)
    f = sample_family("gaussian", [0.5], g)
    src = tmp_path / "f.csv"
    dst = tmp_path / "mf.csv"
    write_csv_function(src, f)
    code = main(
        [
            "maximal",
            "--op",
            "centered",
            "--input",
            str(src),
            "--output",
            str(dst),
            "--kappa",
            "0.5",
            "--grid-n",
            "512",
        ]
    )
    assert code == 0
    back = read_csv_function(dst, g)
    expected = centered_maximal(f, default_radius_grid(g))
    assert np.max(np.abs(back.values - expected.values)) < 1e-12


def test_maximal_missing_input_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["maximal", "--op", "dunkl", "--output", "x.csv"])
    assert err.value.code == 2


def test_maximal_unreadable_input_exits_3(tmp_path, capsys):
    code = main(
        [
            "maximal",
            "--op",
            "interval",
            "--input",
            str(tmp_path / "missing.csv"),
            "--output",
            str(tmp_path / "out.csv"),
        ]
    )
    assert code == 3


def test_sample_writes_family(tmp_path):
    out = tmp_path / "g.csv"
    code = main(
        ["sample", "--family", "gaussian", "--params", "0.5", "--grid-n", "256", "--output", str(out)]
    )
    assert code == 0
    g = make_grid(DunklParams(0.5), 16.0, 256)
    f = read_csv_function(out, g)
    assert f.values[128] == pytest.approx(math.exp(-0.5 * g.nodes[128] ** 2), rel=1e-12)


def test_environment_variable_override(tmp_path, monkeypatch, capsys):
    csv = tmp_path / "one.csv"
    _write_constant_csv(csv)
    monkeypatch.setenv("DUNKL_WHICH", "weak")
    monkeypatch.setenv("DUNKL_INPUT", str(csv))
    monkeypatch.setenv("DUNKL_GRID_N", "512")
    assert main(["norm"]) == 0
    value = float(capsys.readouterr().out.strip().splitlines()[0])
    assert value > 0.0


@pytest.mark.parametrize(
    "env,argv,source",
    [
        ({"DUNKL_GRID_N": "abc"}, ["verify", "--suite", "kernel"], "DUNKL_GRID_N"),
        ({"DUNKL_SEED": "x"}, ["verify", "--suite", "kernel"], "DUNKL_SEED"),
        ({"DUNKL_DOMAIN_L": "wide"}, ["verify", "--suite", "kernel"], "DUNKL_DOMAIN_L"),
        ({}, ["verify", "--suite", "kernel", "--kappa", "0,x"], "--kappa"),
        ({"DUNKL_KAPPA": "0,x"}, ["verify", "--suite", "kernel"], "DUNKL_KAPPA"),
        ({"DUNKL_KAPPA": "x"}, ["sample", "--family", "gaussian", "--params", "1", "--output", "o.csv"], "DUNKL_KAPPA"),
        ({}, ["sample", "--family", "gaussian", "--params", "1,y", "--output", "o.csv"], "--params"),
        ({"DUNKL_Q": "two"}, ["norm", "--which", "amalgam", "--p", "2", "--input", "in.csv"], "DUNKL_Q"),
        ({"DUNKL_WHICH": "bogus"}, ["norm", "--q", "2", "--p", "2", "--alpha", "2", "--input", "in.csv"], "DUNKL_WHICH"),
        ({"DUNKL_OP": "bogus"}, ["maximal", "--input", "in.csv", "--output", "o.csv"], "DUNKL_OP"),
    ],
)
def test_unparsable_values_exit_2(env, argv, source, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_constant_csv(tmp_path / "in.csv")
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    msg = capsys.readouterr().err
    assert source in msg
    assert (env.get(source) or argv[argv.index(source) + 1]) in msg
    assert not (tmp_path / "o.csv").exists()


_GRID_COMMANDS = {
    "norm": ["norm", "--which", "weak", "--input", "in.csv"],
    "maximal": ["maximal", "--op", "centered", "--input", "in.csv", "--output", "o.csv"],
    "sample": ["sample", "--family", "gaussian", "--params", "1", "--output", "o.csv"],
}
_GRID_VALUES = {
    "--kappa": ("-0.7", "kappa must be >= -1/2"),
    "--grid-n": ("255", "node_count must be an even integer >= 4"),
    "--domain-l": ("nan", "half_width must be positive"),
}


@pytest.mark.parametrize("command", list(_GRID_COMMANDS))
def test_out_of_range_grid_values_exit_2(command, tmp_path, monkeypatch, capsys):
    # values that parse but that the parameters or the grid reject are usage
    # errors naming the flag or the variable, given either way
    monkeypatch.chdir(tmp_path)
    _write_constant_csv(tmp_path / "in.csv")
    for flag, (value, reason) in _GRID_VALUES.items():
        variable = "DUNKL_" + flag.strip("-").replace("-", "_").upper()
        for source, argv in ((flag, [flag, value]), (variable, [])):
            with monkeypatch.context() as env:
                if not argv:
                    env.setenv(variable, value)
                with pytest.raises(SystemExit) as err:
                    main([*_GRID_COMMANDS[command], *argv])
            assert err.value.code == 2
            msg = capsys.readouterr().err
            assert f"for {source}: {reason}" in msg and value in msg
            assert "Traceback" not in msg
    assert not (tmp_path / "o.csv").exists()


def _report(suite, cases):
    """Hand-built report payload: cases are (id, lhs, rhs, ratio, pass)."""
    return {
        "suite": suite,
        "cases": [
            {"id": cid, "lhs": lhs, "rhs": rhs, "ratio": ratio, "pass": ok}
            for cid, lhs, rhs, ratio, ok in cases
        ],
    }


def _diff(tmp_path, capsys, old, new):
    a, b = tmp_path / "old.json", tmp_path / "new.json"
    a.write_text(json.dumps(old))
    b.write_text(json.dumps(new))
    code = main(["report", "diff", str(a), str(b)])
    return code, capsys.readouterr().out.strip().splitlines()


def test_report_diff_identical_reports(tmp_path, capsys):
    rep = _report("s", [("a", 1.0, 2.0, 0.5, True), ("m", "NaN", None, None, True)])
    code, lines = _diff(tmp_path, capsys, rep, rep)
    assert code == 0
    assert lines == ["2 common cases: 0 moved, 0 verdict flips; 0 new, 0 missing"]


def test_report_diff_moves_and_new_ids(tmp_path, capsys):
    old = [_report("s", [("a", 1.0, 2.0, 0.5, True), ("b", 0.0, 1.0, 0.0, True)])]
    new = [
        _report("s", [("a", 1.5, 2.0, 0.75, True), ("b", 1e-9, 1.0, 1e-9, True)]),
        _report("t", [("a", 1.0, None, None, True)]),
    ]
    code, lines = _diff(tmp_path, capsys, old, new)
    assert code == 0
    assert lines[0] == "s/a: lhs 1 -> 1.5 (+5.00e-01 rel); ratio drift +0.25"
    assert lines[1] == "s/b: lhs 0 -> 1e-09 (+1.00e-09 abs); ratio drift +1e-09"
    assert lines[2] == "new t/a"
    assert lines[-1] == "2 common cases: 2 moved, 0 verdict flips; 1 new, 0 missing"


def test_report_diff_flip_exits_1(tmp_path, capsys):
    old = _report("s", [("a", 1.0, 2.0, 0.5, True)])
    new = _report("s", [("a", 3.0, 2.0, 1.5, False)])
    code, lines = _diff(tmp_path, capsys, old, new)
    assert code == 1
    assert "FLIP PASS -> FAIL" in lines[0]
    assert lines[-1].endswith("1 verdict flips; 0 new, 0 missing")


def test_report_diff_missing_id_exits_1(tmp_path, capsys):
    old = _report("s", [("a", 1.0, 2.0, 0.5, True), ("b", 1.0, 2.0, 0.5, True)])
    new = _report("s", [("a", 1.0, 2.0, 0.5, True)])
    code, lines = _diff(tmp_path, capsys, old, new)
    assert code == 1
    assert lines == ["missing s/b", "1 common cases: 0 moved, 0 verdict flips; 0 new, 1 missing"]


@pytest.mark.parametrize("content", [None, "{not json", '{"suite": "s"}', "[1, 2]"])
def test_report_diff_unreadable_exits_3(content, tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_report("s", [("a", 1.0, 2.0, 0.5, True)])))
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    assert main(["report", "diff", str(good), str(bad)]) == 3
    assert main(["report", "diff", str(bad), str(good)]) == 3
    assert "cannot read report" in capsys.readouterr().err


def test_report_diff_on_verify_reports(tmp_path, capsys):
    args = ["verify", "--suite", "kernel", "--grid-n", "256", "--domain-l", "8"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--report", str(a)]) == 0
    assert main(args + ["--report", str(b)]) == 0
    capsys.readouterr()
    assert main(["report", "diff", str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip().endswith("0 moved, 0 verdict flips; 0 new, 0 missing")


@pytest.mark.parametrize(
    "env,argv,message",
    [
        ({}, ["--suite", "kernel", "--seed", "-1"], "seed must be >= 0, got -1"),
        ({"DUNKL_SEED": "-1"}, ["--suite", "kernel"], "seed must be >= 0, got -1"),
        ({}, ["--suite", "theorem_maxi", "--exponents", "1,2,2"], "suite 'theorem_maxi'"),
        ({}, ["--suite", "all", "--exponents", "2,8,4;1,2,2"], "suite 'theorem_maxi'"),
        ({}, ["--suite", "interval_fofana_maximal", "--exponents", "1,2,2"], "suite 'interval_fofana_maximal'"),
        ({}, ["--suite", "all", "--exponents", "2,8,4;1,2,2"], "suite 'interval_fofana_maximal'"),
    ],
)
def test_verify_rejected_config_exits_2(env, argv, message, tmp_path, monkeypatch, capsys):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    report = tmp_path / "r.json"
    with pytest.raises(SystemExit) as err:
        main(["verify", *argv, "--grid-n", "256", "--domain-l", "8", "--report", str(report)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not report.exists()


@pytest.mark.parametrize("suite", ["holder", "linfty_identity", "embeddings", "all"])
def test_verify_unit_window_suites_need_half_width_2(suite, tmp_path, capsys):
    # the window radius r = 1 of these suites lies in (0, L/2] only for
    # L >= 2: a smaller domain is a usage error naming the suite, not a
    # traceback from inside it
    report = tmp_path / "r.json"
    argv = ["verify", "--suite", suite, "--domain-l", "1.5", "--grid-n", "256", "--kappa", "0"]
    with pytest.raises(SystemExit) as err:
        main([*argv, "--report", str(report)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    named = ("holder", "linfty_identity", "embeddings") if suite == "all" else (suite,)
    for name in named:
        assert f"suite {name!r}: the window radius r = 1 requires L >= 2, got L = 1.5" in captured.err
    assert captured.out == ""
    assert not report.exists()

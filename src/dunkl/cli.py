"""Command-line front end: run verification suites, evaluate norms and
maximal operators on CSV data, and sample the built-in function families.

Every flag can also be supplied through an environment variable named
DUNKL_<FLAG> (dashes as underscores, upper case); explicit flags win over
environment values, which win over the built-in defaults.

`dunkl report diff OLD NEW` compares two verify reports case by case; it
exits 1 on a verdict flip or a case id missing from NEW.

Exit codes: 0 success (and zero failed suite cases), 1 suite failures,
2 usage errors (including flag and environment values that do not parse or
are out of range), 3 I/O or data-format errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from ._version import VERSION
from .grid import (
    CsvFormatError,
    GridFunction,
    _check_half_width,
    _check_node_count,
    make_grid,
    read_csv_function,
    sample_family,
    write_csv_function,
)
from .maximal import centered_maximal, dunkl_maximal, interval_maximal
from .norms import (
    NormSpec,
    amalgam_norm_r,
    default_radius_grid,
    fofana_norm,
    interval_fofana_norm,
    lp_norm,
    weak_fofana_norm,
    weak_l1_norm,
)
from .report import ReportFormatError, diff_reports, load_cases
from .verify import SuiteConfig, _params_for, canonical_json, check_suite, list_suites, run_suite

USAGE_EXIT = 2
IO_EXIT = 3

_ENV_PREFIX = "DUNKL_"
_NORM_KINDS = ("lp", "weak", "amalgam", "fofana", "weak-fofana", "interval-fofana")
_MAXIMAL_OPS = ("dunkl", "centered", "interval")


class _UsageError(Exception):
    """A flag or environment value that does not parse; main() turns it
    into a usage error (exit 2)."""


def _resolve(args_value, flag: str, default, cast):
    """flag > environment > default, cast; a value that does not cast is a
    usage error naming the flag or variable it came from."""
    source, raw = flag, args_value
    if raw is None:
        source = _ENV_PREFIX + flag.strip("-").replace("-", "_").upper()
        raw = os.environ.get(source)
        if raw is None:
            return default
    try:
        return cast(raw)
    except ValueError as exc:
        raise _UsageError(f"invalid value {raw!r} for {source}: {exc}") from None


def _one_of(choices):
    """Cast that accepts only choices: argparse checks a flag's choices, this
    checks an environment value against them too."""

    def cast(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"choose from {', '.join(choices)}")
        return raw

    return cast


def _parse_exponent(text: str) -> float:
    t = str(text).strip().lower()
    if t in ("inf", "infinity", "oo"):
        return math.inf
    return float(t)


def _parse_float_list(text: str):
    return tuple(float(v) for v in str(text).split(",") if v.strip())


def _parse_exponent_triples(text: str):
    out = []
    for chunk in str(text).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [_parse_exponent(v) for v in chunk.split(",")]
        if len(parts) != 3:
            raise ValueError(f"expected q,p,alpha got {chunk!r}")
        out.append(tuple(parts))
    return tuple(out)


def _add_grid_flags(sp, kappa_default=0.5):
    sp.add_argument("--kappa", type=float, default=None, help=f"deformation parameter (default {kappa_default})")
    sp.add_argument("--grid-n", type=int, default=None, help="node count (default 2048)")
    sp.add_argument("--domain-l", type=float, default=None, help="domain half-width (default 16)")


def _resolve_grid(args, kappa_default=0.5, n_default=2048, l_default=16.0):
    """The parameters and grid of the grid flags; a value out of range is a
    usage error naming the flag or variable it came from."""
    params = _resolve(args.kappa, "--kappa", _params_for(kappa_default), lambda raw: _params_for(float(raw)))
    n = _resolve(args.grid_n, "--grid-n", n_default, lambda raw: _check_node_count(int(raw)))
    half = _resolve(args.domain_l, "--domain-l", l_default, lambda raw: _check_half_width(float(raw)))
    return params, make_grid(params, half, n)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunkl",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"dunkl {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run verification suites and write a JSON report")
    sp.add_argument("--suite", default=None, help="suite id or 'all' (see --list)")
    sp.add_argument("--list", action="store_true", help="list known suites and exit")
    sp.add_argument("--kappa", default=None, help="comma-separated kappa list (default -0.5,0,0.5,1.5)")
    sp.add_argument("--grid-n", type=int, default=None, help="node count (default 4096)")
    sp.add_argument("--domain-l", type=float, default=None, help="half-width (default 16)")
    sp.add_argument("--exponents", default=None, help="semicolon-separated q,p,alpha triples")
    sp.add_argument("--report", default=None, help="path for the JSON report")
    sp.add_argument("--seed", type=int, default=None, help="pseudorandom seed (default 7)")

    sp = sub.add_parser("norm", help="evaluate a norm of a CSV-sampled function")
    sp.add_argument("--which", default=None, choices=_NORM_KINDS, help="norm kind")
    sp.add_argument("--q", default=None, help="local exponent (accepts 'inf')")
    sp.add_argument("--p", default=None, help="global exponent (accepts 'inf')")
    sp.add_argument("--alpha", default=None, help="intermediate exponent (accepts 'inf')")
    sp.add_argument("--r", type=float, default=None, help="window radius for single-radius norms")
    sp.add_argument("--input", default=None, help="CSV with rows x,value or x,re,im")
    _add_grid_flags(sp)

    sp = sub.add_parser("maximal", help="apply a maximal operator to CSV data")
    sp.add_argument("--op", default=None, choices=_MAXIMAL_OPS, help="operator")
    sp.add_argument("--input", default=None, help="input CSV")
    sp.add_argument("--output", default=None, help="output CSV")
    _add_grid_flags(sp)

    sp = sub.add_parser("sample", help="sample a built-in family to CSV")
    sp.add_argument("--family", default=None, help="family id, e.g. gaussian")
    sp.add_argument("--params", default=None, help="comma-separated family parameters")
    sp.add_argument("--output", default=None, help="output CSV")
    _add_grid_flags(sp)

    sp = sub.add_parser("report", help="compare verification reports")
    rsub = sp.add_subparsers(dest="report_command", required=True)
    dp = rsub.add_parser(
        "diff",
        help="case-by-case diff of two reports; exit 1 on a verdict flip or a missing case id",
    )
    dp.add_argument("old", help="report of the reference run (one suite or --suite all)")
    dp.add_argument("new", help="report to compare against it")

    return parser


def _cmd_verify(args, parser) -> int:
    if args.list:
        for name in list_suites():
            print(name)
        return 0
    suite = _resolve(args.suite, "--suite", None, str)
    if suite is None:
        parser.error("verify requires --suite <id|all>")
    names = list_suites() if suite == "all" else [suite]
    for name in names:
        if name not in list_suites():
            parser.error(f"unknown suite {name!r}; valid suites: {', '.join(list_suites())} (or 'all')")
    kwargs = {}
    kappa = _resolve(args.kappa, "--kappa", None, _parse_float_list)
    if kappa is not None:
        kwargs["kappa_list"] = kappa
    n = _resolve(args.grid_n, "--grid-n", None, int)
    if n is not None:
        kwargs["node_count"] = n
    half = _resolve(args.domain_l, "--domain-l", None, float)
    if half is not None:
        kwargs["half_width"] = half
    exps = _resolve(args.exponents, "--exponents", None, _parse_exponent_triples)
    if exps is not None:
        kwargs["exponents"] = exps
    seed = _resolve(args.seed, "--seed", None, int)
    if seed is not None:
        kwargs["seed"] = seed
    try:
        cfg = SuiteConfig(**kwargs)
    except ValueError as exc:
        parser.error(str(exc))
    problems = []
    for name in names:
        try:
            check_suite(name, cfg)
        except ValueError as exc:
            problems.append(str(exc))
    if problems:
        parser.error("; ".join(problems))

    reports = []
    failed = 0
    for name in names:
        rep = run_suite(name, cfg)
        reports.append(rep)
        failed += rep.n_failed
        status = "PASS" if rep.n_failed == 0 else "FAIL"
        print(
            f"[{status}] {name}: {len(rep.cases)} cases, {rep.n_failed} failed, "
            f"max ratio {rep.max_ratio:.6g}, {rep.runtime_seconds:.1f}s"
        )
        for c in rep.cases:
            if not c.passed:
                print(f"    failed case {c.case_id}: lhs={c.lhs:.6g} bound={c.rhs}")
    report_path = _resolve(args.report, "--report", None, str)
    if report_path is not None:
        payload = (
            reports[0].to_json()
            if len(reports) == 1
            else canonical_json([r.to_payload() for r in reports]) + "\n"
        )
        try:
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return IO_EXIT
        print(f"report written to {report_path}")
    return 0 if failed == 0 else 1


def _read_input(path: str, grid):
    """The CSV function at path on grid, or None once why not is printed."""
    try:
        return read_csv_function(path, grid)
    except CsvFormatError as exc:
        print(f"error: malformed CSV: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
    return None


def _cmd_norm(args, parser) -> int:
    which = _resolve(args.which, "--which", None, _one_of(_NORM_KINDS))
    if which is None:
        parser.error("norm requires --which")
    path = _resolve(args.input, "--input", None, str)
    if path is None:
        parser.error("norm requires --input CSV")
    params, grid = _resolve_grid(args)
    f = _read_input(path, grid)
    if f is None:
        return IO_EXIT

    q = _resolve(args.q, "--q", None, _parse_exponent)
    p = _resolve(args.p, "--p", None, _parse_exponent)
    alpha = _resolve(args.alpha, "--alpha", None, _parse_exponent)
    r = _resolve(args.r, "--r", None, float)
    rg = default_radius_grid(grid)

    try:
        if which == "lp":
            if p is None:
                parser.error("lp norm requires --p")
            value = lp_norm(f, p)
        elif which == "weak":
            value = weak_l1_norm(f)
        elif which == "amalgam":
            if q is None or p is None:
                parser.error("amalgam norm requires --q and --p")
            value = amalgam_norm_r(f, q, p, r if r is not None else 1.0)
        elif which == "fofana":
            if q is None or p is None or alpha is None:
                parser.error("fofana norm requires --q, --p and --alpha")
            value = fofana_norm(f, NormSpec(q, p, alpha, rg))
        elif which == "weak-fofana":
            if p is None or alpha is None:
                parser.error("weak-fofana norm requires --p and --alpha")
            value = weak_fofana_norm(f, p, alpha, rg)
        else:  # interval-fofana
            if q is None or p is None or alpha is None:
                parser.error("interval-fofana norm requires --q, --p and --alpha")
            value = interval_fofana_norm(f, NormSpec(q, p, alpha, rg))
    except ValueError as exc:
        parser.error(str(exc))

    print(f"{value:.12g}")
    print(
        f"# grid: kappa={params.kappa:g} L={grid.half_width:g} N={grid.node_count}",
        file=sys.stderr,
    )
    print(f"# radius grid: {', '.join('%g' % v for v in rg)}", file=sys.stderr)
    return 0


def _cmd_maximal(args, parser) -> int:
    op = _resolve(args.op, "--op", None, _one_of(_MAXIMAL_OPS))
    if op is None:
        parser.error("maximal requires --op dunkl|centered|interval")
    in_path = _resolve(args.input, "--input", None, str)
    out_path = _resolve(args.output, "--output", None, str)
    if in_path is None:
        parser.error("maximal requires --input CSV")
    if out_path is None:
        parser.error("maximal requires --output CSV")
    params, grid = _resolve_grid(args)
    f = _read_input(in_path, grid)
    if f is None:
        return IO_EXIT
    rho = default_radius_grid(grid)
    fn = {"dunkl": dunkl_maximal, "centered": centered_maximal, "interval": interval_maximal}[op]
    result = fn(GridFunction(grid, np.abs(f.values)), rho)
    try:
        write_csv_function(out_path, result)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return IO_EXIT
    print(f"# wrote {out_path} on grid kappa={params.kappa:g} L={grid.half_width:g} N={grid.node_count}", file=sys.stderr)
    return 0


def _cmd_sample(args, parser) -> int:
    family = _resolve(args.family, "--family", None, str)
    params_list = _resolve(args.params, "--params", (), _parse_float_list)
    out_path = _resolve(args.output, "--output", None, str)
    if family is None or out_path is None:
        parser.error("sample requires --family and --output")
    _, grid = _resolve_grid(args)
    try:
        f = sample_family(family, params_list, grid)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        write_csv_function(out_path, f)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return IO_EXIT
    return 0


def _cmd_report(args, parser) -> int:
    try:
        old, new = load_cases(args.old), load_cases(args.new)
    except (OSError, ReportFormatError) as exc:
        print(f"error: cannot read report: {exc}", file=sys.stderr)
        return IO_EXIT
    lines, status = diff_reports(old, new)
    print("\n".join(lines))
    return status


_COMMANDS = {
    "verify": _cmd_verify,
    "norm": _cmd_norm,
    "maximal": _cmd_maximal,
    "sample": _cmd_sample,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except _UsageError as exc:
        parser.error(str(exc))
    return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())

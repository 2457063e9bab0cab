"""Case-by-case comparison of two verification reports.

A report file holds one suite (a JSON object) or every suite of
``verify --suite all`` (a JSON array of such objects).  Cases are matched by
(suite, case id).  For each matched case that moved, the diff shows the
change in lhs and rhs, the drift of the ratio lhs/rhs and any verdict flip;
case ids present in only one report are listed as new or missing.
"""

from __future__ import annotations

import json
import math

__all__ = ["ReportFormatError", "load_cases", "diff_reports"]


class ReportFormatError(ValueError):
    """A report file that is not JSON in the layout ``verify`` writes."""


def load_cases(path: str) -> dict:
    """{(suite, case id): case payload} of one report file, in report order."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ReportFormatError(f"{path}: not JSON ({exc})") from None
    cases = {}
    try:
        for rep in data if isinstance(data, list) else [data]:
            for case in rep["cases"]:
                cases[(rep["suite"], case["id"])] = {
                    "lhs": _number(case["lhs"]),
                    "rhs": _number(case["rhs"]),
                    "ratio": _number(case["ratio"]),
                    "pass": bool(case["pass"]),
                }
    except (KeyError, TypeError, ValueError) as exc:
        raise ReportFormatError(f"{path}: not a verification report ({exc!r})") from None
    return cases


def _number(value):
    """Report number: null, a JSON number, or "NaN" / "Infinity" / "-Infinity"."""
    return None if value is None else float(value)


def _same(a, b) -> bool:
    return a == b or (a is not None and b is not None and math.isnan(a) and math.isnan(b))


def _change(a, b) -> str:
    """'a -> b' with the relative change, or the absolute one from zero."""
    text = f"{a:.6g} -> {b:.6g}" if a is not None and b is not None else f"{a} -> {b}"
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return text
    if a == 0.0:
        return f"{text} ({b - a:+.2e} abs)"
    return f"{text} ({(b - a) / abs(a):+.2e} rel)"


def _verdict(case) -> str:
    return "PASS" if case["pass"] else "FAIL"


def diff_reports(old: dict, new: dict) -> tuple[list[str], int]:
    """Diff lines of two load_cases results and the exit status: 1 on a
    verdict flip or a case id missing from new, else 0."""
    lines = []
    moved = flips = 0
    for key, a in old.items():
        b = new.get(key)
        if b is None:
            continue
        parts = [
            f"{field} {_change(a[field], b[field])}"
            for field in ("lhs", "rhs")
            if not _same(a[field], b[field])
        ]
        if not _same(a["ratio"], b["ratio"]):
            ra, rb = a["ratio"], b["ratio"]
            drift = rb - ra if ra is not None and rb is not None else None
            parts.append(f"ratio drift {drift:+.3g}" if drift is not None else f"ratio {ra} -> {rb}")
        if a["pass"] != b["pass"]:
            flips += 1
            parts.append(f"FLIP {_verdict(a)} -> {_verdict(b)}")
        if parts:
            moved += 1
            lines.append(f"{key[0]}/{key[1]}: " + "; ".join(parts))
    missing = [key for key in old if key not in new]
    added = [key for key in new if key not in old]
    lines += [f"missing {s}/{c}" for s, c in missing]
    lines += [f"new {s}/{c}" for s, c in added]
    lines.append(
        f"{len(old) - len(missing)} common cases: {moved} moved, {flips} verdict flips; "
        f"{len(added)} new, {len(missing)} missing"
    )
    return lines, 1 if flips or missing else 0

"""Fast self-test of the benchmark harness (about a minute, small sizes).

    python3 bench/selftest.py

Checks that every metric is printed with its unit, that attempted and failed
counts are reported, that a deliberately failed check is counted as failed
rather than dropped, and that the benchmark refuses to run where there is no
``dunkl`` source tree.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def bench(cwd: Path, *args: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def check_result(label: str, rc: int, res: dict, units: dict) -> None:
    expect(rc == 0, f"{label}: exit code 0")
    expect(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(res.get("correct") is True, f"{label}: outputs correct")
    att, fail = res.get("attempted"), res.get("failed")
    expect(isinstance(att, int) and att >= 1, f"{label}: attempted reported ({att})")
    expect(isinstance(fail, int) and 0 <= fail <= (att or 0), f"{label}: failed reported ({fail})")
    metrics = res.get("metrics", {})
    expect(set(metrics) == set(units), f"{label}: every metric printed, no other")
    for name, unit in units.items():
        m = metrics.get(name, {})
        ok = set(m) == {"value", "unit"} and m["unit"] == unit and isinstance(m["value"], (int, float))
        expect(ok, f"{label}: {name} has a number and unit {unit}")


def main() -> int:
    e2e, layers = dict(run.END_TO_END), dict(run.PER_LAYER)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in declared["end_to_end"]} == e2e,
           "BENCHMARK.json end_to_end matches the printed metrics")
    expect({m["name"]: m["unit"] for m in declared["per_layer"]} == layers,
           "BENCHMARK.json per_layer matches the printed metrics")
    expect([w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS),
           "BENCHMARK.json names the workloads")

    tiny = ("--seed", "1", "--seconds", "3", "--tiny")
    rc, out = bench(ROOT, "--workload", "library_warm", "--trace", "0", *tiny)
    clean = result_of(out)
    check_result("library_warm", rc, clean, e2e)
    expect(clean.get("failed") == 0, "library_warm: no failed call at the small size")

    rc, out = bench(ROOT, "--workload", "library_warm", "--trace", "0", "--inject-failure", *tiny)
    hurt = result_of(out)
    check_result("library_warm --inject-failure", rc, hurt, e2e)
    sys.path.insert(0, str(ROOT / "src"))
    calls = len(wl.LibraryMix(1, "tiny").calls)  # calls in one round of the mix
    rounds = hurt.get("attempted", 0) // calls
    expect(hurt.get("attempted", 0) % calls == 0, "injected: attempted is whole rounds")
    expect(rounds >= 1 and hurt.get("failed") == rounds,
           "injected: the failed check counts once per round, not dropped")

    rc, out = bench(ROOT, "--workload", "library_warm", "--trace", "1", *tiny)
    check_result("library_warm --trace 1", rc, result_of(out), layers)

    for workload in wl.VERIFY_WORKLOADS:
        for trace in ("0", "1"):
            rc, out = bench(ROOT, "--workload", workload, "--trace", trace, *tiny)
            check_result(f"{workload} --trace {trace}", rc, result_of(out), layers if trace == "1" else e2e)

    # a directory holding only BENCHMARK.json and the benchmark: must refuse
    bare = BENCH / "runs" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    rc, out = bench(bare, "--workload", "library_warm", "--trace", "0", *tiny)
    expect(rc != 0 and not out.strip(), "without a source tree: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(FAILURES)} failed" if FAILURES else "all checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

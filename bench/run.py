"""Benchmark of the ``dunkl`` package: one command per workload run.

    python3 bench/run.py --workload verify_spectral --seed 1 --seconds 12 --trace 0

Runs the workload in fresh child interpreters (``bench/worker.py``) with the
BLAS/OpenMP thread count fixed, checks the outputs, and prints as the last
line of standard output one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run beside
an untraced one.  Raw samples, machine details, reports and spans go to
``bench/runs/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402  (stdlib-only at import time)

# One BLAS/OpenMP thread per process: on a small shared machine a thread
# count left to the library does not repeat from run to run.
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Set-up samples per timed run: extra probe processes beside the timed ones.
VERIFY_PROBES = 8
LIBRARY_PROBES = 2
# Library rounds: every kind is called at least 3 times a round, so a timed
# child makes at least 14 rounds (42 calls of each kind, enough for a p50);
# a traced child makes exactly 16 at full size.
TIMED_LIBRARY_MIN_ROUNDS = 14
TRACED_LIBRARY_ROUNDS = {"full": 16, "tiny": 2}
# A run must end within 180 s; children still running at this point are killed.
BUDGET_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
SUITES = tuple(s for spec in wl.VERIFY_WORKLOADS.values() for s in spec["suites"])
PER_LAYER = (
    ("special.bessel_calls", "count"),
    ("special.bessel_melems", "Melem"),
    ("special.bessel_s", "s"),
    ("special.bessel_blocks_s", "s"),
    ("special.bessel_multipliers_s", "s"),
    ("special.bessel_rows_s", "s"),
    ("transform.blocks_built", "count"),
    ("transform.blocks_built_mb", "MB"),
    ("transform.pair_calls", "count"),
    ("transform.pair_self_s", "s"),
    ("transform.matmul_gflop", "GFLOP"),
    ("translation.indicator_rows", "count"),
    ("translation.indicator_rows_self_s", "s"),
    ("translation.ball_convolutions_self_s", "s"),
    ("translation.translate_self_s", "s"),
    ("norms.weak_fofana_self_s", "s"),
    ("norms.fofana_self_s", "s"),
    ("norms.interval_fofana_self_s", "s"),
    ("windows.mass_builds", "count"),
    ("windows.mass_s", "s"),
    ("maximal.dunkl_self_s", "s"),
    ("maximal.centered_self_s", "s"),
    ("maximal.interval_self_s", "s"),
    ("measure.scalar_calls", "count"),
    ("measure.scalar_s", "s"),
    *((f"verify.{suite}_s", "s") for suite in SUITES),
    *((f"lib.{kind}_p50_ms", "ms") for kind in wl.LIB_KINDS),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


class RunFailed(Exception):
    """A child process failed or the run went over its time budget."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DUNKL_")}
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dunkl").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    """Starts the children of one benchmark run, one at a time."""

    def __init__(self, args, run_dir: Path, tag: str):
        self.args = args
        self.run_dir = run_dir
        self.tag = tag
        self.deadline = time.monotonic() + BUDGET_S
        self.env = _child_env()
        self.count = 0
        self.child: subprocess.Popen | None = None

    def spawn(self, mode: str, rounds: int = 1) -> dict:
        self.count += 1
        name = f"{self.tag}_c{self.count}_{mode}"
        result = self.run_dir / f"{name}.json"
        with open(self.run_dir / f"{name}.log", "wb") as log:
            cmd = [
                sys.executable, str(BENCH / "worker.py"),
                "--workload", self.args.workload,
                "--seed", str(self.args.seed),
                "--mode", mode,
                "--seconds", str(self.args.seconds),
                "--rounds", str(rounds),
                "--size", "tiny" if self.args.tiny else "full",
                "--src", str(ROOT / "src"),
                "--prefix", str(self.run_dir / name),
                "--run-id", name,
                "--result", str(result),
                *(["--inject-failure"] if self.args.inject_failure else []),
                "--spawned-at", repr(time.time()),
            ]
            self.child = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log, stderr=log)
            try:
                rc = self.child.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                self.stop()
                raise RunFailed(f"{mode} child over the {BUDGET_S:.0f} s budget") from None
            finally:
                self.child = None
        if rc != 0 or not result.is_file():
            raise RunFailed(f"{mode} child exited with {rc}; see {self.run_dir / name}.log")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    def stop(self) -> None:
        if self.child is not None and self.child.poll() is None:
            self.child.kill()
            self.child.wait()


def _same_report(run_dir: Path, key: str, path: str, errors: list) -> None:
    """Keep one copy of each report per (code, workload, size, seed, suite);
    every later run of the same configuration must match it byte for byte."""
    keep = run_dir / "reports" / f"{key}.json"
    keep.parent.mkdir(exist_ok=True)
    new = Path(path)
    if not keep.is_file():
        new.replace(keep)
        return
    if new.read_bytes() != keep.read_bytes():
        errors.append(f"report {new.name} differs from an earlier run of the same configuration")
    new.unlink()


def _verify_checks(runner, children, errors) -> tuple[int, int]:
    """Sum the case counts and compare each report with earlier runs."""
    attempted = failed = 0
    size = "tiny" if runner.args.tiny else "full"
    code = _source_hash()
    for child in children:
        attempted += child["attempted"]
        failed += child["failed"]
        errors += child["errors"]
        for suite, path in child["reports"].items():
            key = f"{code}_{runner.args.workload}_{size}_s{runner.args.seed}_{suite}"
            _same_report(runner.run_dir, key, path, errors)
    return attempted, failed


def timed_run(runner: Runner, record: dict) -> tuple[dict, int, int, list]:
    args = runner.args
    errors: list[str] = []
    if args.workload == wl.LIBRARY_WORKLOAD:
        probes = [runner.spawn("probe") for _ in range(LIBRARY_PROBES)]
        children = [runner.spawn("timed", rounds=TIMED_LIBRARY_MIN_ROUNDS)]
        walls = children[0]["walls"]
        attempted, failed = children[0]["attempted"], children[0]["failed"]
        errors += children[0]["errors"]
    else:
        probes = [runner.spawn("probe") for _ in range(VERIFY_PROBES)]
        children = []
        # whole rounds, each a fresh interpreter with a cold kernel cache
        while not children or sum(c["walls"][0] for c in children) < args.seconds:
            children.append(runner.spawn("timed"))
        walls = [c["walls"][0] for c in children]
        attempted, failed = _verify_checks(runner, children, errors)
    setups = [c["setup_s"] for c in probes + children]
    record.update(setup_samples=setups, walls=walls, children=children, probes=probes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    return metrics, attempted, failed, errors


def traced_run(runner: Runner, record: dict) -> tuple[dict, int, int, list]:
    args = runner.args
    errors: list[str] = []
    size = "tiny" if args.tiny else "full"
    plain = runner.spawn("timed", rounds=TIMED_LIBRARY_MIN_ROUNDS)
    traced = runner.spawn("traced", rounds=TRACED_LIBRARY_ROUNDS[size])
    record.update(children=[plain, traced])
    metrics = {name: 0 for name, _ in PER_LAYER}
    metrics.update(traced["layers"])
    if args.workload == wl.LIBRARY_WORKLOAD:
        errors += plain["errors"] + traced["errors"]
        if plain["digest"] != traced["digest"]:
            errors.append("traced outputs differ from untraced ones")
        for kind, samples in plain["call_ms"].items():
            if len(samples) < 40:
                errors.append(f"only {len(samples)} {kind} calls: too few for a p50")
            metrics[f"lib.{kind}_p50_ms"] = statistics.median(samples)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
    else:
        for suite, path in plain["reports"].items():
            if Path(path).read_bytes() != Path(traced["reports"][suite]).read_bytes():
                errors.append(f"{suite}: traced report differs from the untraced one")
            metrics[f"verify.{suite}_s"] = plain["suite_s"][suite]
        attempted, failed = _verify_checks(runner, [plain, traced], errors)
    metrics["trace.overhead_s"] = statistics.median(traced["walls"]) - statistics.median(plain["walls"])
    return metrics, attempted, failed, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed region")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for bench/selftest.py")
    ap.add_argument("--inject-failure", action="store_true",
                    help="make one check of the library mix fail, for bench/selftest.py")
    args = ap.parse_args(argv)
    if not (args.seconds > 0):
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "dunkl" / "__init__.py").is_file():
        print(f"error: no dunkl package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = BENCH / "runs"
    run_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}_s{args.seed}_t{args.trace}_{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}"
    runner = Runner(args, run_dir, tag)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    record: dict = {"argv": sys.argv[1:], "blas_threads": BLAS_THREADS}
    try:
        metrics, attempted, failed, errors = (traced_run if args.trace else timed_run)(runner, record)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.stop()

    units = dict(PER_LAYER if args.trace else END_TO_END)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record.update(result=result, errors=errors, machine=record["children"][0]["machine"])
    with open(run_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    machine = record["machine"]
    print(f"# {args.workload} seed {args.seed}: blas threads {BLAS_THREADS}, nproc {machine['nproc']}, "
          f"numpy {machine['numpy']}, scipy {machine['scipy']}, {machine['blas']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

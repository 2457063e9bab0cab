"""One child process of the benchmark: a set-up probe, a timed run or a traced
run of one workload.  ``run.py`` starts it with the BLAS thread count fixed
and reads the JSON it writes to ``--result``.

Modes:
  probe   set up as the workload does, then exit (a set-up time sample);
  timed   set up, then the timed region with nothing wrapped;
  traced  set up and run with ``tracer.Tracer`` installed, then write the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads as wl
from tracer import Tracer


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _machine() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _check_dunkl_location(src_dir: str) -> None:
    import dunkl

    where = os.path.realpath(os.path.dirname(dunkl.__file__))
    if os.path.dirname(where) != os.path.realpath(src_dir):
        raise SystemExit(f"dunkl imported from {where}, not from {src_dir}")


def run_verify(args, out: dict) -> None:
    wl.verify_setup()
    tracer = Tracer(args.run_id) if args.mode == "traced" else None
    if tracer:
        tracer.install()
    out["setup_s"] = time.time() - args.spawned_at
    if args.mode == "probe":
        return
    cpu0 = time.process_time()
    try:
        round_out = wl.verify_round(args.workload, args.seed, args.size, args.prefix)
    finally:
        if tracer:
            tracer.uninstall()
    out["cpu_s"] = time.process_time() - cpu0
    out["peak_rss_mb"] = _peak_rss_mb()
    out["walls"] = [round_out["wall"]]
    out["suite_s"] = round_out["suite_s"]
    out["reports"] = round_out["reports"]
    verdict = wl.check_verify_reports(args.workload, args.seed, args.size, round_out)
    out.update(attempted=verdict["attempted"], failed=verdict["failed"], errors=verdict["errors"])
    if tracer:
        out["layers"] = tracer.layer_metrics()
        tracer.write(f"{args.prefix}_spans.json", {"workload": args.workload, "seed": args.seed})


def run_library(args, out: dict) -> None:
    import dunkl  # noqa: F401  (import before wrapping, as a user would)

    tracer = Tracer(args.run_id) if args.mode == "traced" else None
    if tracer:
        tracer.install()
    try:
        mix = wl.LibraryMix(args.seed, args.size, args.inject_failure)
        # the first pass fills the kernel cache; its outputs are the ones checked
        warm, _ = wl.run_mix(mix)
        out["setup_s"] = time.time() - args.spawned_at
        if args.mode == "probe":
            return
        call_ms = {kind: [] for kind in wl.LIB_KINDS}
        walls = []
        raised_per_round = []
        clock = time.perf_counter
        cpu0 = time.process_time()
        # traced runs make exactly --rounds rounds; timed runs at least that
        # many and go on until --seconds have passed
        while len(walls) < args.rounds or (not tracer and sum(walls) < args.seconds):
            t0 = clock()
            last, raised = wl.run_mix(mix, call_ms)
            walls.append(clock() - t0)
            raised_per_round.append(raised)
    finally:
        if tracer:
            tracer.uninstall()
    out["cpu_s"] = time.process_time() - cpu0
    out["peak_rss_mb"] = _peak_rss_mb()
    out["walls"] = walls
    out["call_ms"] = call_ms
    out["inputs"] = mix.inputs
    verdicts = wl.check_outputs(mix, warm)
    bad = {key for key, why in verdicts.items() if why is not None}
    out["attempted"] = len(walls) * len(mix.calls)
    out["failed"] = sum(len(bad | set(raised)) for raised in raised_per_round)
    out["check_failures"] = {key: verdicts[key] for key in sorted(bad)}
    out["digest"] = wl.output_digest(warm)
    out["errors"] = []
    if wl.output_digest(last) != out["digest"]:
        out["errors"].append("the last timed round's outputs differ from the checked ones")
    if tracer:
        out["layers"] = tracer.layer_metrics()
        tracer.write(f"{args.prefix}_spans.json", {"workload": args.workload, "seed": args.seed})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "timed", "traced"))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--rounds", type=int, default=1,
                    help="library rounds: exact when traced, the minimum when timed")
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--spawned-at", type=float, required=True, help="time.time() at spawn")
    ap.add_argument("--src", required=True, help="directory that must hold the dunkl package")
    ap.add_argument("--prefix", required=True, help="path prefix for reports and spans")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--inject-failure", action="store_true")
    args = ap.parse_args()

    _check_dunkl_location(args.src)
    out: dict = {"mode": args.mode}
    if args.workload == wl.LIBRARY_WORKLOAD:
        run_library(args, out)
    else:
        run_verify(args, out)
    out["machine"] = _machine()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

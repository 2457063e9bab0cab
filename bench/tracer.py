"""In-memory span tracer that wraps the public functions of ``dunkl`` from outside.

``Tracer.install()`` replaces every traced function by a wrapper under every
name it is bound to in a loaded ``dunkl`` module (``dunkl.transform`` binds
``bessel_normalized``, ``dunkl.translation`` binds ``forward_pair``, ...), and
traced methods on their classes.  ``uninstall()`` puts the originals back.
Each call records one span (name, start, end, parent span, work); the run id
is shared by every span of one traced process.  ``layer_metrics()`` turns the
spans into the per-layer figures the benchmark reports.

Functions a later version of the package no longer has are skipped, so the
tracer keeps working across refactors; their metrics then read 0.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

# Work recorded per span, computed from argument shapes (no data is read).


def _size(args, index):
    return int(getattr(args[index], "size", 1))


def _rows(arr) -> int:
    shape = getattr(arr, "shape", ())
    return int(math.prod(shape[:-1])) if len(shape) > 1 else 1


def _pair_flops(args, out_grid_index, in_grid_index, vals_index, complex_doubles):
    """Flops of the two half-grid matmuls of a transform pair call."""
    out_grid, in_grid, vals = args[out_grid_index], args[in_grid_index], args[vals_index]
    m, n = out_grid.node_count // 2, in_grid.node_count // 2
    flops = 2 * (2.0 * _rows(vals) * m * n)
    if complex_doubles and getattr(vals, "dtype", None) is not None and vals.dtype.kind == "c":
        flops *= 2
    return flops


# (module, attribute, span name, work function of the positional arguments)
FUNCTIONS = (
    ("dunkl.special", "bessel_normalized", "special.bessel", lambda a: _size(a, 1)),
    ("dunkl.special", "kernel_values", "special.kernel_values", None),
    # forward_pair(params, xg, lg, vals) / inverse_pair(params, lg, xg, u, v)
    ("dunkl.transform", "forward_pair", "transform.forward_pair",
     lambda a: _pair_flops(a, 2, 1, 3, False)),
    ("dunkl.transform", "inverse_pair", "transform.inverse_pair",
     lambda a: _pair_flops(a, 1, 2, 3, False)),
    ("dunkl.transform", "_apply_forward", "transform.apply_forward",
     lambda a: _pair_flops(a, 2, 1, 3, True)),
    ("dunkl.transform", "_apply_inverse", "transform.apply_inverse",
     lambda a: _pair_flops(a, 1, 2, 3, True)),
    ("dunkl.transform", "forward", "transform.forward", None),
    ("dunkl.transform", "inverse", "transform.inverse", None),
    ("dunkl.transform", "plancherel_defect", "transform.plancherel_defect", None),
    ("dunkl.transform", "multiplier_pair", "transform.multiplier_pair", None),
    ("dunkl.translation", "ball_multiplier", "translation.ball_multiplier", None),
    ("dunkl.translation", "translate", "translation.translate", None),
    ("dunkl.translation", "convolve", "translation.convolve", None),
    ("dunkl.translation", "translate_indicator", "translation.translate_indicator", None),
    ("dunkl.translation", "translate_indicator_rows", "translation.indicator_rows",
     lambda a: len(a[1])),
    ("dunkl.translation", "ball_convolutions", "translation.ball_convolutions", None),
    ("dunkl.norms", "fofana_norm", "norms.fofana", None),
    ("dunkl.norms", "amalgam_norm_r", "norms.amalgam", None),
    ("dunkl.norms", "_amalgam_profiles", "norms.amalgam_profiles", None),
    ("dunkl.norms", "weak_fofana_norm", "norms.weak_fofana", None),
    ("dunkl.norms", "interval_fofana_norm", "norms.interval_fofana", None),
    ("dunkl.norms", "ball_scaled_interval_fofana_norm", "norms.ball_scaled_interval_fofana", None),
    ("dunkl.norms", "interval_amalgam_norm_r", "norms.interval_amalgam", None),
    ("dunkl.maximal", "dunkl_maximal", "maximal.dunkl", None),
    ("dunkl.maximal", "centered_maximal", "maximal.centered", None),
    ("dunkl.maximal", "interval_maximal", "maximal.interval", None),
    ("dunkl.measure", "ball_measure", "measure.ball", None),
    ("dunkl.measure", "ball_measure_origin", "measure.ball_origin", None),
    ("dunkl.measure", "interval_measure", "measure.interval", None),
    ("dunkl.measure", "doubling_ratio", "measure.doubling", None),
    ("dunkl.verify", "run_suite", "verify.run_suite", None),
)

# (module, class, method, span name, work function)
METHODS = (
    ("dunkl._windows", "LineWindowMass", "__init__", "windows.mass_build", None),
    ("dunkl._windows", "LineWindowMass", "__call__", "windows.mass_query", None),
    ("dunkl._windows", "LineWindowMass", "window", "windows.mass_query", None),
    ("dunkl._windows", "FoldedWindowMass", "__init__", "windows.mass_build", None),
    ("dunkl._windows", "FoldedWindowMass", "__call__", "windows.mass_query", None),
    ("dunkl._windows", "FoldedWindowMass", "window", "windows.mass_query", None),
    ("dunkl.norms", "WeakWindowWorkspace", "__init__", "norms.weak_workspace", None),
    ("dunkl.norms", "WeakWindowWorkspace", "weak_fofana", "norms.weak_fofana", None),
)

# Parents of a Bessel call, which say what the Bessel values were for.
BLOCK_PARENTS = frozenset(
    {"transform.forward_pair", "transform.inverse_pair", "transform.apply_forward",
     "transform.apply_inverse"}
)
MULTIPLIER_PARENTS = frozenset({"translation.ball_multiplier", "transform.multiplier_pair"})
ROW_PARENTS = frozenset({"translation.indicator_rows"})
PAIR_SPANS = BLOCK_PARENTS | {"transform.forward", "transform.inverse", "transform.plancherel_defect"}

# Self-time groups reported per layer: metric name -> span names.
SELF_GROUPS = {
    "transform.pair_self_s": PAIR_SPANS,
    "translation.indicator_rows_self_s": {"translation.indicator_rows"},
    "translation.ball_convolutions_self_s": {"translation.ball_convolutions"},
    "translation.translate_self_s": {"translation.translate", "translation.convolve"},
    "norms.weak_fofana_self_s": {"norms.weak_fofana", "norms.weak_workspace"},
    "norms.fofana_self_s": {"norms.fofana", "norms.amalgam", "norms.amalgam_profiles"},
    "norms.interval_fofana_self_s": {
        "norms.interval_fofana", "norms.ball_scaled_interval_fofana", "norms.interval_amalgam"
    },
    "maximal.dunkl_self_s": {"maximal.dunkl"},
    "maximal.centered_self_s": {"maximal.centered"},
    "maximal.interval_self_s": {"maximal.interval"},
}
SCALAR_MEASURES = frozenset({"measure.ball", "measure.ball_origin", "measure.interval", "measure.doubling"})


class Tracer:
    """Records spans of wrapped calls in memory; not thread-safe (the
    benchmark traces one thread)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # one tuple per span: (name index, parent span or -1, start, end, work)
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []
        self._t0 = time.perf_counter()

    def _wrap(self, name: str, fn, work):
        idx = self._name_index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                try:
                    w = work(args) if work else 0
                except (IndexError, AttributeError, TypeError):  # called by keyword
                    w = 0
                spans[sid] = (idx, parent, t0, t1, w)

        return traced

    def install(self) -> None:
        """Wrap every traced function under each name bound to it in a loaded
        ``dunkl`` module, and every traced method on its class."""
        wrappers = {}
        for mod_name, attr, name, work in FUNCTIONS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is not None and id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self._wrap(name, fn, work))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dunkl" or mod_name.startswith("dunkl.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for mod_name, cls_name, meth, name, work in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            fn = None if cls is None else cls.__dict__.get(meth)
            if fn is not None:
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(name, fn, work))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **meta,
                    "run_id": self.run_id,
                    "fields": ["name", "parent", "start_s", "end_s", "work"],
                    "names": self.names,
                    "spans": [
                        [i, p, round(a - self._t0, 7), round(b - self._t0, 7), w]
                        for i, p, a, b, w in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )

    def layer_metrics(self) -> dict:
        """Per-layer counts, computed sizes and self times from the spans."""
        names = self.names
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1, _w in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_by_name: dict[str, float] = {}
        total_by_name: dict[str, float] = {}
        count_by_name: dict[str, int] = {}
        work_by_name: dict[str, float] = {}
        bessel = {"blocks": [0, 0.0, 0], "multipliers": [0, 0.0, 0], "rows": [0, 0.0, 0],
                  "other": [0, 0.0, 0]}
        for sid, (i, parent, t0, t1, work) in enumerate(self.spans):
            name = names[i]
            dur = t1 - t0
            self_by_name[name] = self_by_name.get(name, 0.0) + dur - child[sid]
            total_by_name[name] = total_by_name.get(name, 0.0) + dur
            count_by_name[name] = count_by_name.get(name, 0) + 1
            work_by_name[name] = work_by_name.get(name, 0.0) + work
            if name == "special.bessel":
                pname = names[self.spans[parent][0]] if parent >= 0 else ""
                kind = (
                    "blocks" if pname in BLOCK_PARENTS
                    else "multipliers" if pname in MULTIPLIER_PARENTS
                    else "rows" if pname in ROW_PARENTS
                    else "other"
                )
                acc = bessel[kind]
                acc[0] += 1
                acc[1] += dur
                acc[2] += work

        def group(metric_names, table):
            return sum(table.get(n, 0) for n in metric_names)

        out = {
            "special.bessel_calls": count_by_name.get("special.bessel", 0),
            "special.bessel_melems": work_by_name.get("special.bessel", 0) / 1e6,
            "special.bessel_s": total_by_name.get("special.bessel", 0.0),
            "special.bessel_blocks_s": bessel["blocks"][1],
            "special.bessel_multipliers_s": bessel["multipliers"][1],
            "special.bessel_rows_s": bessel["rows"][1],
            # a block build evaluates two Bessel arrays (orders k and k+1),
            # each cached as one float64 array of the argument shape
            "transform.blocks_built": bessel["blocks"][0] // 2,
            "transform.blocks_built_mb": bessel["blocks"][2] * 8 / 1e6,
            "transform.pair_calls": group(BLOCK_PARENTS, count_by_name),
            "transform.matmul_gflop": group(BLOCK_PARENTS, work_by_name) / 1e9,
            "translation.indicator_rows": int(work_by_name.get("translation.indicator_rows", 0)),
            "windows.mass_builds": count_by_name.get("windows.mass_build", 0),
            "windows.mass_s": total_by_name.get("windows.mass_build", 0.0)
            + total_by_name.get("windows.mass_query", 0.0),
            "measure.scalar_calls": group(SCALAR_MEASURES, count_by_name),
            "measure.scalar_s": group(SCALAR_MEASURES, total_by_name),
            "trace.spans": len(self.spans),
        }
        for metric, span_names in SELF_GROUPS.items():
            out[metric] = group(span_names, self_by_name)
        return out

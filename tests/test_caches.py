"""The per-grid memos: ball multipliers, window geometry and band grids.

Each is a bounded `functools.lru_cache` keyed by values that fix its result,
so a warm call must give the bits of a cold one, every cached array must be
read-only, the entry count must stay at its bound, and threads sharing the
memos must get the results of a serial run.
"""

import math
import sys
import threading

import numpy as np
import pytest

from dunkl import DunklParams, make_grid, sample_family
from dunkl import _windows, transform, translation
from dunkl._windows import WindowGeometry
from dunkl.maximal import centered_maximal, dunkl_maximal, interval_maximal
from dunkl.norms import NormSpec, default_radius_grid, fofana_norm, interval_fofana_norm, weak_fofana_norm
from dunkl.transform import band_grid
from dunkl.translation import ball_multiplier

MEMOS = (translation._ball_multiplier, _windows._radius_data, transform._band_grid)


def _clear():
    for memo in MEMOS:
        memo.cache_clear()


def _grid(kappa=0.5, n=256):
    return make_grid(DunklParams(kappa, classical=kappa == -0.5), 8.0, n)


def _calls(g):
    """Every public operator that reads a memo, on one function of g."""
    f = sample_family("bump", [0.7, 2.5], g)
    rg = default_radius_grid(g)
    return {
        "fofana_q": lambda: fofana_norm(f, NormSpec(2.0, 8.0, 4.0, rg)),
        "fofana_inf": lambda: fofana_norm(f, NormSpec(math.inf, math.inf, math.inf, rg)),
        "interval_fofana": lambda: interval_fofana_norm(f, NormSpec(2.0, 8.0, 4.0, rg)),
        "dunkl_maximal": lambda: dunkl_maximal(f, rg).values,
        "centered_maximal": lambda: centered_maximal(f, rg).values,
        "interval_maximal": lambda: interval_maximal(f, rg).values,
        "weak_fofana": lambda: weak_fofana_norm(f, 4.0, 2.0, rg[:4]),
    }


def _assert_same(a, b):
    assert np.array_equal(np.asarray(a), np.asarray(b)), (a, b)


@pytest.mark.parametrize("kappa", [-0.5, 0.5, 1.5])
def test_warm_calls_equal_cold_calls_bit_for_bit(kappa):
    # cold: every memo empty, so the call computes what it reads; warm: the
    # same call again, reading every per-grid product from the memos
    g = _grid(kappa)
    for name, call in _calls(g).items():
        _clear()
        cold = call()
        assert sum(m.cache_info().currsize for m in MEMOS) > 0, name
        _assert_same(call(), cold)


def test_warm_calls_do_not_recompute_per_grid_products(monkeypatch):
    # a repeated call pays only for its f-dependent work: no ball-multiplier
    # Bessel evaluation, no window end, no band grid built
    g = _grid()
    calls = _calls(g)
    for call in calls.values():
        call()
    seen = []

    def counted(fn, tag):
        def wrapper(*args, **kwargs):
            seen.append(tag)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(translation, "bessel_normalized", counted(translation.bessel_normalized, "bessel"))
    monkeypatch.setattr(_windows, "_window_end", counted(_windows._window_end, "window_end"))
    monkeypatch.setattr(transform, "make_grid", counted(transform.make_grid, "make_grid"))
    for call in calls.values():
        call()
    assert seen == []


def test_equal_grids_share_entries():
    # keys compare by value: grids built apart share one band grid, one
    # multiplier and one set of window data
    _clear()
    g1, g2 = _grid(), _grid()
    assert g1 is not g2
    assert band_grid(g1, 4.0) is band_grid(g2, 4) is band_grid(g2, np.float64(4.0))
    lg1, lg2 = band_grid(g1, 4.0), band_grid(g2, 4.0)
    assert ball_multiplier(g1.params, lg1, 0.5) is ball_multiplier(DunklParams(0.5), lg2, np.float64(0.5))
    assert WindowGeometry.annulus(g1).measure(1.0) is WindowGeometry.annulus(g2).measure(1)
    assert WindowGeometry.interval(g1).measure(1.0) is not WindowGeometry.annulus(g1).measure(1.0)


def test_cached_arrays_are_read_only():
    _clear()
    g = _grid()
    lg = band_grid(g, 4.0)
    arrays = [lg.nodes, lg.weights, ball_multiplier(g.params, lg, 0.75)]
    for windows in (WindowGeometry.interval(g), WindowGeometry.annulus(g)):
        lo, hi, mu, ranges = windows._geometry(0.75)
        arrays += [*lo, *hi, mu, *ranges, windows.measure(0.75), *windows.node_ranges(0.75)]
    for memo in MEMOS:
        assert memo.cache_info().currsize > 0
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_memos_stay_at_their_bounds():
    # more distinct keys than a bound leave the memo full at the bound, with
    # the most recent keys kept
    _clear()
    g = _grid(n=64)
    lg = band_grid(g, 4.0)
    bound = translation._MULTIPLIER_CACHE
    radii = [0.01 * (k + 1) for k in range(bound + 5)]
    for r in radii:
        ball_multiplier(g.params, lg, r)
    info = translation._ball_multiplier.cache_info()
    assert (info.maxsize, info.currsize) == (bound, bound)
    hits = info.hits
    ball_multiplier(g.params, lg, radii[-1])
    assert translation._ball_multiplier.cache_info().hits == hits + 1

    bound = _windows._RADIUS_CACHE
    windows = WindowGeometry.annulus(g)
    for k in range(bound + 5):
        windows.measure(0.5 + 0.01 * k)
    info = _windows._radius_data.cache_info()
    assert (info.maxsize, info.currsize) == (bound, bound)

    bound = transform._BAND_GRID_CACHE
    for k in range(bound + 3):
        band_grid(g, 1.0 + k)
    info = transform._band_grid.cache_info()
    assert (info.maxsize, info.currsize) == (bound, bound)


def test_threads_making_the_same_calls_get_the_serial_results():
    # more threads than cores, switching often, all missing the same keys
    # at once: every thread gets the bits of a serial run
    g = _grid()
    calls = _calls(g)
    _clear()
    serial = {name: call() for name, call in calls.items()}
    _clear()
    workers = 4
    start = threading.Barrier(workers)
    results = [None] * workers
    errors = []

    def work(i):
        try:
            start.wait()
            results[i] = {name: call() for name, call in calls.items()}
        except Exception as exc:  # reported in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for out in results:
        for name, want in serial.items():
            _assert_same(out[name], want)

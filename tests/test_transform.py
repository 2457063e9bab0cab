import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from dunkl import (
    DunklParams,
    GridFunction,
    bessel_normalized,
    forward,
    integrate,
    inverse,
    make_grid,
    plancherel_defect,
    sample_family,
)
from dunkl import _threads, transform
from dunkl.special import kernel_pair
from dunkl.transform import band_grid

KAPPAS = [(-0.5, True), (0.0, False), (0.5, False), (1.0, False)]


def test_classical_gaussian_closed_form():
    p = DunklParams(-0.5, classical=True)
    g = make_grid(p, 16.0, 2048)
    f = sample_family("gaussian", [0.5], g)
    F = forward(f)
    assert np.max(np.abs(F.values - np.exp(-F.grid.nodes**2 / 2))) < 1e-6


@pytest.mark.parametrize("kappa,classical", KAPPAS)
def test_roundtrip_gaussian(kappa, classical):
    # frequency-quadrature noise scales with the node spacing; the strict
    # 1e-4 contract is checked at production size below and in the suites
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 2048)
    f = sample_family("gaussian", [0.5], g)
    rt = inverse(forward(f))
    assert rt.grid == g
    assert np.max(np.abs(rt.values - f.values)) < 2e-3


def test_roundtrip_gaussian_production_tolerance():
    p = DunklParams(0.0)
    g = make_grid(p, 16.0, 4096)
    f = sample_family("gaussian", [0.5], g)
    assert np.max(np.abs(inverse(forward(f)).values - f.values)) < 1e-4


def test_roundtrip_bump_interior():
    p = DunklParams(0.5)
    g = make_grid(p, 16.0, 4096)
    f = sample_family("bump", [0.0, 2.0], g)
    rt = inverse(forward(f))
    interior = np.abs(g.nodes) <= 8.0
    assert np.max(np.abs(rt.values - f.values)[interior]) < 1e-4


def test_inverse_of_zero():
    p = DunklParams(0.5)
    g = make_grid(p, 8.0, 256)
    spec = forward(GridFunction(g, np.zeros(256)))
    assert np.max(np.abs(spec.values)) == 0.0
    back = inverse(spec)
    assert np.max(np.abs(back.values)) == 0.0


def test_linearity():
    p = DunklParams(0.7)
    g = make_grid(p, 8.0, 512)
    f = sample_family("gaussian", [0.5], g)
    h = sample_family("bump", [0.0, 2.0], g)
    lhs = forward(GridFunction(g, 2.0 * f.values + 3.0 * h.values)).values
    rhs = 2.0 * forward(f).values + 3.0 * forward(h).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_parity():
    p = DunklParams(0.7)
    g = make_grid(p, 8.0, 512)
    even = sample_family("gaussian", [0.5], g)
    Fe = forward(even)
    assert np.max(np.abs(Fe.values.imag)) < 1e-10 * np.max(np.abs(Fe.values))
    odd = GridFunction(g, g.nodes * even.values)
    Fo = forward(odd)
    assert np.max(np.abs(Fo.values.real)) < 1e-10 * np.max(np.abs(Fo.values))
    # even in, even out; odd flips sign under reflection
    assert np.allclose(Fe.values, Fe.values[::-1])
    assert np.allclose(Fo.values, -Fo.values[::-1])


def _parity_stacks(n: int, rows):
    """Even, odd and mixed seeded samples: a (rows, n) stack, or one 1-D
    row for rows None.  The even rows are exactly symmetric and the odd
    rows exactly antisymmetric, so one half of each is exactly zero."""
    r = np.random.default_rng(n + (rows or 0)).standard_normal((rows or 1, n))
    stacks = {"even": r + r[:, ::-1], "odd": r - r[:, ::-1], "mixed": r}
    return {name: s if rows else s[0] for name, s in stacks.items()}


@pytest.mark.parametrize("n", [256, 2048])
@pytest.mark.parametrize("kappa,classical", [(-0.5, True), (0.0, False), (0.5, False), (1.5, False)])
def test_pair_products_equal_the_explicit_block_products(n, kappa, classical):
    # a pair call skips the block product of an identically zero half: its
    # output must still be, bit for bit and zero sign for zero sign, the two
    # block products written out here, for even, odd and mixed stacks of
    # every height, at every node and at chosen nodes
    p = DunklParams(kappa, classical=classical)
    xg = make_grid(p, 8.0, n)
    lg = band_grid(xg, transform.DEFAULT_BAND)
    a, b = transform._blocks(p, lg, xg)
    half = n // 2
    wx, wl = 2.0 * xg.positive_weights, 2.0 * lg.positive_weights
    nodes = np.random.default_rng(n).choice(n, 40)
    right = nodes >= half
    cols, at = np.unique(np.where(right, nodes - half, half - 1 - nodes), return_inverse=True)
    for rows in (None, 1, 2, 3, 65):
        for parity, vals in _parity_stacks(n, rows).items():
            hi, lo = vals[..., half:], vals[..., half - 1 :: -1]
            u = (wx * (0.5 * (hi + lo))) @ a.T
            v = -((wx * (0.5 * (hi - lo))) @ b.T)
            got = transform.forward_pair(p, xg, lg, vals)
            assert got[0].tobytes() == u.tobytes(), (rows, parity)
            assert got[1].tobytes() == v.tobytes(), (rows, parity)
            # the forward halves, then their negatives (whose zeros flip sign)
            for su, sv in ((u, v), (-u, -v)):
                ev, od = (wl * su) @ a, -((wl * sv) @ b)
                full = np.concatenate([(ev - od)[..., ::-1], ev + od], axis=-1)
                got = transform.inverse_pair(p, lg, xg, su, sv)
                assert got.tobytes() == full.tobytes(), (rows, parity)
                ev = ((wl * su) @ a[:, cols])[..., at]
                od = (-((wl * sv) @ b[:, cols]))[..., at]
                picked = np.where(right, ev + od, ev - od)
                got = transform.inverse_pair(p, lg, xg, su, sv, nodes)
                assert got.tobytes() == picked.tobytes(), (rows, parity)


@pytest.mark.parametrize("kappa,classical", KAPPAS + [(1.5, False)])
def test_plancherel_small_at_desk_scale(kappa, classical):
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 2048)
    f = sample_family("gaussian", [0.5], g)
    tol = 1e-6 if classical else 1e-4
    assert plancherel_defect(f) < tol


def test_plancherel_decreases_under_refinement():
    p = DunklParams(1.5)
    defects = []
    for n in (1024, 2048):
        g = make_grid(p, 16.0, n)
        defects.append(plancherel_defect(sample_family("gaussian", [0.5], g)))
    assert defects[1] <= 1.05 * defects[0] + 1e-12


def test_plancherel_rejects_zero():
    p = DunklParams(0.5)
    g = make_grid(p, 8.0, 256)
    with pytest.raises(ValueError):
        plancherel_defect(GridFunction(g, np.zeros(256)))


@pytest.mark.parametrize("kappa,classical", KAPPAS + [(1.5, False)])
def test_gaussian_fixed_point(kappa, classical):
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 2048)
    f = sample_family("gaussian", [0.5], g)
    lam = band_grid(g, 1.0)
    F = forward(f, lam)
    assert np.max(np.abs(F.values - np.exp(-lam.nodes**2 / 2))) < 1e-3


def test_transform_near_zero_matches_integral():
    p = DunklParams(0.5)
    g = make_grid(p, 12.0, 1024)
    f = sample_family("bump", [0.0, 2.0], g)
    F = forward(f)
    i0 = int(np.argmin(np.abs(F.grid.nodes)))
    assert complex(F.values[i0]) == pytest.approx(integrate(f), abs=1e-3)


def test_grid_kappa_mismatch_rejected():
    f = sample_family("gaussian", [0.5], make_grid(DunklParams(0.5), 8.0, 256))
    other = make_grid(DunklParams(1.0), 8.0, 256)
    with pytest.raises(ValueError):
        forward(f, other)


def test_plancherel_indicator_looser_threshold():
    # slowly decaying spectra leave a larger truncation defect; reported
    # against the looser desk-scale threshold
    p = DunklParams(0.5)
    g = make_grid(p, 16.0, 2048)
    chi = sample_family("indicator_ball", [1.0], g)
    assert plancherel_defect(chi) < 1e-2


def test_blocks_on_equal_spacing_are_leading_sub_blocks():
    # half the domain at half the nodes keeps the spacing of both grids, so
    # its kernel blocks come from the cached pair without a new entry
    p = DunklParams(0.5)
    xg, lg = make_grid(p, 4.0, 256), make_grid(p, 16.0, 256)
    xh, lh = make_grid(p, 2.0, 128), make_grid(p, 8.0, 128)
    a, b = transform._blocks(p, lg, xg)
    entries = len(transform._cache)
    ah, bh = transform._blocks(p, lh, xh)
    assert len(transform._cache) == entries
    np.testing.assert_array_equal(ah, a[:64, :64])
    np.testing.assert_array_equal(bh, b[:64, :64])
    s = np.outer(lh.positive_nodes, xh.positive_nodes)
    np.testing.assert_allclose(ah, bessel_normalized(0.5, s), rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(bh, s / 3.0 * bessel_normalized(1.5, s), rtol=0.0, atol=1e-14)


def test_uncovered_request_replaces_its_entry(monkeypatch):
    # requests on one pair of spacings share one entry: a request the entry
    # does not cover builds one pair covering both, which replaces it, and
    # every size then comes from it bit for bit as direct evaluation
    p = DunklParams(0.5)
    x_small, x_large = make_grid(p, 2.0, 128), make_grid(p, 4.0, 256)
    l_small, l_large = make_grid(p, 8.0, 128), make_grid(p, 16.0, 256)
    monkeypatch.setattr(transform, "_cache", type(transform._cache)())
    built = []
    build = transform._build

    def counted(params, rows, cols):
        built.append((rows.size, cols.size))
        return build(params, rows, cols)

    monkeypatch.setattr(transform, "_build", counted)
    requests = [(l_small, x_large), (l_large, x_small), (l_large, x_large), (l_small, x_small)]
    got = [transform._blocks(p, lg, xg) for lg, xg in requests]
    assert built == [(64, 128), (128, 128)]
    assert len(transform._cache) == 1
    for (lg, xg), (a, b) in zip(requests, got):
        ea, eb = kernel_pair(p, np.outer(lg.positive_nodes, xg.positive_nodes))
        assert np.array_equal(a, ea)
        assert np.array_equal(b, eb)


def _counting_kernel_pair(monkeypatch, delay=0.0):
    """Route the block builds through a kernel_pair that records how many
    calls and elements it evaluates, on an empty cache.  A block build runs
    it on two threads, so it counts under a lock."""
    seen = {"calls": 0, "elements": 0}
    lock = threading.Lock()

    def counted(params, s):
        with lock:
            seen["calls"] += 1
            seen["elements"] += np.size(s)
        time.sleep(delay)
        return kernel_pair(params, s)

    monkeypatch.setattr(transform, "kernel_pair", counted)
    monkeypatch.setattr(transform, "_cache", type(transform._cache)())
    return seen


BLOCK_KAPPAS = [-0.5, 0.0, 0.5, 1.5, 0.3]


@pytest.mark.parametrize("kappa", BLOCK_KAPPAS)
@pytest.mark.parametrize("ratio", [1, 2, 4])
@pytest.mark.parametrize("piece", [500, 4000])
def test_mirrored_blocks_equal_direct_evaluation(kappa, ratio, piece, monkeypatch):
    # square blocks whose spacings differ by a power of two are exactly
    # symmetric; the mirrored build evaluates about half the entries and
    # reproduces the full evaluation bit for bit, whatever the row pieces
    p = DunklParams(kappa, classical=kappa == -0.5)
    xg, lg = make_grid(p, 8.0, 256), make_grid(p, 8.0 * ratio, 256)
    seen = _counting_kernel_pair(monkeypatch)
    monkeypatch.setattr(transform, "_BUILD_PIECE_ELEMENTS", piece)
    a, b = transform._blocks(p, lg, xg)
    ea, eb = kernel_pair(p, np.outer(lg.positive_nodes, xg.positive_nodes))
    assert np.array_equal(a, ea)
    assert np.array_equal(b, eb)
    assert seen["elements"] <= a.size // 2 + 2 * piece
    assert seen["calls"] >= 3


@pytest.mark.parametrize("kappa", BLOCK_KAPPAS)
@pytest.mark.parametrize("ratio", [1, 4])
def test_small_mirrored_block_evaluates_about_half(kappa, ratio, monkeypatch):
    # a 128 x 128 block fits in one default piece, and is still built from
    # its triangle
    p = DunklParams(kappa, classical=kappa == -0.5)
    xg, lg = make_grid(p, 8.0, 256), make_grid(p, 8.0 * ratio, 256)
    seen = _counting_kernel_pair(monkeypatch)
    a, b = transform._blocks(p, lg, xg)
    assert a.shape == (128, 128) and a.size <= transform._BUILD_PIECE_ELEMENTS
    ea, eb = kernel_pair(p, np.outer(lg.positive_nodes, xg.positive_nodes))
    assert np.array_equal(a, ea)
    assert np.array_equal(b, eb)
    assert seen["elements"] <= 0.6 * a.size


@pytest.mark.parametrize("kappa", BLOCK_KAPPAS)
@pytest.mark.parametrize("out_width,out_nodes", [(8.0, 256), (24.0, 200)])
def test_unmirrored_blocks_equal_direct_evaluation(kappa, out_width, out_nodes, monkeypatch):
    # spacings 16/768 and 16/256 (ratio 3) give products that are not
    # exactly symmetric, and a non-square block has no mirror: both
    # evaluate every entry
    p = DunklParams(kappa, classical=kappa == -0.5)
    xg, lg = make_grid(p, 8.0 / 3.0, 256), make_grid(p, out_width, out_nodes)
    seen = _counting_kernel_pair(monkeypatch)
    monkeypatch.setattr(transform, "_BUILD_PIECE_ELEMENTS", 1000)
    a, b = transform._blocks(p, lg, xg)
    ea, eb = kernel_pair(p, np.outer(lg.positive_nodes, xg.positive_nodes))
    assert np.array_equal(a, ea)
    assert np.array_equal(b, eb)
    assert seen["elements"] == a.size
    if a.shape[0] == a.shape[1]:
        assert not np.array_equal(ea, ea.T)


def test_concurrent_misses_build_each_block_once(monkeypatch):
    p = DunklParams(0.5)
    xg, lg = make_grid(p, 4.0, 64), make_grid(p, 16.0, 64)
    seen = _counting_kernel_pair(monkeypatch, delay=0.2)
    start = threading.Barrier(4)
    results = [None] * 4

    def worker(i):
        start.wait(timeout=30)
        results[i] = transform._blocks(p, lg, xg)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # the four threads evaluated exactly the entries of one build
    threaded = dict(seen)
    seen.update(calls=0, elements=0)
    transform._build(p, lg.positive_nodes, xg.positive_nodes)
    assert threaded == seen
    for a, b in results:
        assert a is results[0][0]
        assert b is results[0][1]


def test_failed_build_leaves_no_guard(monkeypatch):
    p = DunklParams(0.5)
    xg, lg = make_grid(p, 4.0, 64), make_grid(p, 16.0, 64)
    monkeypatch.setattr(transform, "_cache", type(transform._cache)())

    def failing(params, s):
        raise MemoryError("no room for the block")

    monkeypatch.setattr(transform, "kernel_pair", failing)
    with pytest.raises(MemoryError):
        transform._blocks(p, lg, xg)
    monkeypatch.setattr(transform, "kernel_pair", kernel_pair)
    a, _ = transform._blocks(p, lg, xg)
    assert a.shape == (32, 32)


# (out half-width, out nodes, row chunk, build piece, mirrored) on input
# half-width 8/3 at 256 nodes: a mirrored block (spacing ratio 4) and an
# unmirrored one (ratio 3) whose pieces do not divide the rows, a
# non-square block, and an unmirrored block of one piece at the default
# sizes.  The row chunk of `inverse_rows` is patched too, larger than the
# piece, and does not shape the build.
THREADED_BLOCKS = [
    (32.0 / 3.0, 256, 1000, 300, True),
    (8.0, 256, 1000, 300, False),
    (24.0, 200, 1000, 300, False),
    (8.0, 256, transform._CHUNK_ELEMENTS, transform._BUILD_PIECE_ELEMENTS, False),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kappa", BLOCK_KAPPAS)
@pytest.mark.parametrize("out_width,out_nodes,chunk,piece,mirrored", THREADED_BLOCKS)
def test_threaded_blocks_equal_direct_evaluation(
    kappa, threads, out_width, out_nodes, chunk, piece, mirrored, monkeypatch
):
    # the calling thread and the worker share the pieces, each one
    # kernel_pair call of at most one piece; the blocks are the bits of one
    # direct evaluation at either thread count, and no thread outlives the
    # build
    p = DunklParams(kappa, classical=kappa == -0.5)
    xg, lg = make_grid(p, 8.0 / 3.0, 256), make_grid(p, out_width, out_nodes)
    monkeypatch.setattr(transform, "_cache", type(transform._cache)())
    monkeypatch.setattr(_threads, "thread_count", lambda: threads)
    monkeypatch.setattr(transform, "_CHUNK_ELEMENTS", chunk)
    monkeypatch.setattr(transform, "_BUILD_PIECE_ELEMENTS", piece)
    idents, sizes = set(), []

    def pair(params, s):
        idents.add(threading.get_ident())
        sizes.append(np.size(s))
        time.sleep(0.002)  # lets the worker take pieces of a small block
        return kernel_pair(params, s)

    monkeypatch.setattr(transform, "kernel_pair", pair)
    before = threading.active_count()
    a, b = transform._blocks(p, lg, xg)
    assert threading.active_count() == before
    ea, eb = kernel_pair(p, np.outer(lg.positive_nodes, xg.positive_nodes))
    assert np.array_equal(a, ea)
    assert np.array_equal(b, eb)
    assert transform._power_of_two_multiple(lg.positive_nodes, xg.positive_nodes) == mirrored
    assert max(sizes) <= piece
    if piece >= a.size:  # a block of one piece starts no worker
        assert idents == {threading.get_ident()}
    else:
        assert len(idents) == threads


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_failed_piece_stops_both_threads(failing, error, monkeypatch):
    # one thread's first piece raises while the other thread is inside its
    # own first piece: that piece completes, no further piece starts, and
    # the exception reaches the caller of _blocks unchanged
    p = DunklParams(0.5)
    xg, lg = make_grid(p, 8.0 / 3.0, 256), make_grid(p, 8.0, 256)
    monkeypatch.setattr(transform, "_cache", type(transform._cache)())
    monkeypatch.setattr(_threads, "thread_count", lambda: 2)
    # pieces of 2 rows, on either thread
    monkeypatch.setattr(transform, "_BUILD_PIECE_ELEMENTS", 256)
    caller = threading.get_ident()
    inside = {"caller": threading.Event(), "worker": threading.Event()}
    raised = threading.Event()
    calls = []
    failure = error("no room for the block")

    def pair(params, s):
        who = "caller" if threading.get_ident() == caller else "worker"
        calls.append(who)
        inside[who].set()
        inside["worker" if who == "caller" else "caller"].wait(timeout=30)
        if who == failing:
            raised.set()
            raise failure
        raised.wait(timeout=30)
        time.sleep(0.1)  # the failing thread records its failure meanwhile
        return kernel_pair(params, s)

    monkeypatch.setattr(transform, "kernel_pair", pair)
    before = threading.active_count()
    with pytest.raises(error) as info:
        transform._blocks(p, lg, xg)
    assert info.value is failure
    assert sorted(calls) == ["caller", "worker"]
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("ratio,mirrored", [(3, False), (4, True)])
def test_every_build_call_covers_at_most_one_piece(threads, ratio, mirrored, monkeypatch):
    # both threads evaluate a 1024 x 1024 block, mirrored or not, in
    # kernel_pair calls of at most one build piece each
    p = DunklParams(0.5)
    xg, lg = make_grid(p, 8.0, 2048), make_grid(p, 8.0 * ratio, 2048)
    monkeypatch.setattr(transform, "_cache", type(transform._cache)())
    monkeypatch.setattr(_threads, "thread_count", lambda: threads)
    sizes = []
    lock = threading.Lock()

    def pair(params, s):
        with lock:
            sizes.append(np.size(s))
        return kernel_pair(params, s)

    monkeypatch.setattr(transform, "kernel_pair", pair)
    a, _ = transform._blocks(p, lg, xg)
    assert a.size == 1 << 20
    assert transform._power_of_two_multiple(lg.positive_nodes, xg.positive_nodes) == mirrored
    assert max(sizes) <= transform._BUILD_PIECE_ELEMENTS
    assert sum(sizes) < 0.6 * a.size if mirrored else sum(sizes) == a.size


def test_runner_takes_every_job_once_under_contention(monkeypatch):
    # more threads than cores (the cap patched to 4) and a short switch
    # interval: every job of the shared iterator runs exactly once, and
    # no thread outlives the call
    monkeypatch.setattr(_threads, "thread_count", lambda: 4)
    done = []
    idents = set()

    def job(k):
        idents.add(threading.get_ident())
        done.append(k)
        time.sleep(0)

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _threads.run(list(range(2000)), job)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(done) == list(range(2000))
    assert len(idents) > 1
    assert threading.active_count() == before


# The thread count of the runner; blocks of three kappas (0.3 takes the jv
# route) at two spacing ratios, 768 x 768 so that each takes several row
# spans at the default chunk, hashed; and the weak-window statistics of a
# non-symmetric function at N = 1024 (a job per radius and side), hashed.
_CHILD_BLOCKS = """
import hashlib
import numpy as np
from dunkl import DunklParams, _threads, make_grid, norms, sample_family, transform
h = hashlib.sha256()
for kappa in (0.0, 0.3, 1.5):
    p = DunklParams(kappa)
    # ratios 1, 2 and 4 are mirrored from one triangle, ratio 3 is not
    for ratio in (1.0, 2.0, 3.0, 4.0):
        a, b = transform._blocks(p, make_grid(p, 16.0 * ratio, 1536), make_grid(p, 16.0, 1536))
        h.update(a.tobytes())
        h.update(b.tobytes())
g = make_grid(DunklParams(0.5), 16.0, 1024)
absf = np.abs(sample_family("trig_gauss", [1.0], g).values)
assert not np.array_equal(absf, absf[::-1])
ws = norms.WeakWindowWorkspace(g, norms.default_radius_grid(g))
w = hashlib.sha256()
for w_pos, w_neg in ws._statistics(absf):
    w.update(w_pos.tobytes())
    w.update(w_neg.tobytes())
print(_threads.thread_count(), h.hexdigest(), w.hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_blocks_do_not_depend_on_the_cpu_count():
    # a child pinned to one CPU builds and sorts alone; an unpinned one uses
    # a worker where a second CPU is usable; the blocks and the weak-window
    # statistics are the same bytes
    src = os.path.dirname(os.path.dirname(transform.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    cpu = min(os.sched_getaffinity(0))

    def child(preexec_fn):
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_BLOCKS],
            env=env, capture_output=True, text=True, timeout=300, preexec_fn=preexec_fn,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    pinned = child(lambda: os.sched_setaffinity(0, {cpu}))
    free = child(None)
    assert pinned[0] == "1"
    assert free[0] == str(min(_threads._THREADS, len(os.sched_getaffinity(0))))
    assert pinned[1] == free[1]
    assert pinned[2] == free[2]


def _pair_bytes(rows, cols):
    """The bytes of a block pair of rows x cols float64 blocks."""
    return 2 * 8 * rows * cols


def _store_bytes():
    return sum(a.nbytes + b.nbytes for a, b in transform._cache.values())


def test_kernel_store_keeps_the_most_recent_entries(monkeypatch):
    # past its bound the store drops the least recently used pair; every
    # block it keeps is the direct evaluation on the grids' positive nodes
    p = DunklParams(0.5)
    monkeypatch.setattr(transform, "_KERNEL_CACHE_BYTES", 2 * _pair_bytes(32, 32))
    monkeypatch.setattr(transform, "_cache", type(transform._cache)())
    xg = make_grid(p, 4.0, 64)
    for lg in (make_grid(p, 8.0, 64), make_grid(p, 12.0, 64), make_grid(p, 16.0, 64)):
        a, b = transform._blocks(p, lg, xg)
        ea, eb = transform._build(p, lg.positive_nodes, xg.positive_nodes)
        assert np.array_equal(a, ea) and np.array_equal(b, eb)
    assert list(transform._cache) == [(0.5, 0.375, 0.125), (0.5, 0.5, 0.125)]


def test_kernel_store_stays_under_its_bound_at_every_build(monkeypatch):
    # pairs of three sizes under a bound of 2.5 of the largest: before each
    # build the store drops pairs until the new one fits, so the cached
    # bytes plus the pair being built never pass the bound
    p = DunklParams(0.5)
    bound = 5 * _pair_bytes(64, 64) // 2
    monkeypatch.setattr(transform, "_KERNEL_CACHE_BYTES", bound)
    monkeypatch.setattr(transform, "_cache", type(transform._cache)())
    peaks = []
    build = transform._build

    def counted(params, rows, cols):
        peaks.append(_store_bytes() + _pair_bytes(rows.size, cols.size))
        return build(params, rows, cols)

    monkeypatch.setattr(transform, "_build", counted)
    xg = make_grid(p, 4.0, 128)
    requests = [
        (make_grid(p, half_width, n), xg)
        for half_width in (8.0, 12.0, 16.0, 20.0)
        for n in (32, 64, 128)
    ]
    for lg, x in requests + requests[::-1]:
        transform._blocks(p, lg, x)
        assert _store_bytes() <= bound
    # the reversed pass misses the pairs the bound dropped and builds them again
    assert len(peaks) > len(requests)
    assert max(peaks) <= bound


def test_kernel_store_drops_the_replaced_entry_first(monkeypatch):
    # a request its entry does not cover drops that entry before making
    # room for the covering pair, so the other pair, which fits beside the
    # new one but not beside both, stays
    p = DunklParams(0.5)
    monkeypatch.setattr(transform, "_KERNEL_CACHE_BYTES", 2 * _pair_bytes(32, 32))
    monkeypatch.setattr(transform, "_cache", type(transform._cache)())
    xg = make_grid(p, 4.0, 64)
    other, small, large = make_grid(p, 12.0, 64), make_grid(p, 8.0, 32), make_grid(p, 16.0, 64)
    assert small.spacing == large.spacing
    for lg in (other, small, large):
        transform._blocks(p, lg, xg)
    assert list(transform._cache) == [(0.5, other.spacing, xg.spacing), (0.5, large.spacing, xg.spacing)]
    assert transform._cache[0.5, large.spacing, xg.spacing][0].shape == (32, 32)


def test_kernel_store_keeps_a_pair_larger_than_its_bound_alone(monkeypatch):
    # a pair past the bound is still built and kept, as the only entry; the
    # next miss drops it
    p = DunklParams(0.5)
    monkeypatch.setattr(transform, "_KERNEL_CACHE_BYTES", _pair_bytes(32, 32))
    monkeypatch.setattr(transform, "_cache", type(transform._cache)())
    xg = make_grid(p, 4.0, 64)
    small, large = make_grid(p, 8.0, 32), make_grid(p, 12.0, 128)
    transform._blocks(p, small, xg)
    a, _ = transform._blocks(p, large, xg)
    assert a.shape == (64, 32)
    assert list(transform._cache) == [(0.5, large.spacing, xg.spacing)]
    transform._blocks(p, small, xg)
    assert list(transform._cache) == [(0.5, small.spacing, xg.spacing)]


def test_kernel_store_under_concurrent_misses_of_many_keys(monkeypatch):
    # six threads (more than the CPUs) request pairs of four spacings in
    # turn under a bound of two pairs: every request gets the direct
    # evaluation although the store drops pairs other threads still read,
    # and the store ends under its bound
    p = DunklParams(0.5)
    bound = 2 * _pair_bytes(32, 32)
    monkeypatch.setattr(transform, "_KERNEL_CACHE_BYTES", bound)
    monkeypatch.setattr(transform, "_cache", type(transform._cache)())
    xg = make_grid(p, 4.0, 64)
    grids = [make_grid(p, w, 64) for w in (8.0, 12.0, 16.0, 20.0)]
    expected = [kernel_pair(p, np.outer(lg.positive_nodes, xg.positive_nodes)) for lg in grids]
    start = threading.Barrier(6)
    wrong = []

    def worker(i):
        start.wait(timeout=30)
        for j in range(12):
            k = (i + j) % len(grids)
            a, b = transform._blocks(p, grids[k], xg)
            if not (np.array_equal(a, expected[k][0]) and np.array_equal(b, expected[k][1])):
                wrong.append((i, k))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    assert _store_bytes() <= bound


def _miss_three_keys_at_once(p):
    """Three threads miss three keys at once: the unmirrored 32 x 32 pairs
    of spacing ratios 3, 5 and 7, one kernel_pair call each."""
    xg = make_grid(p, 4.0, 64)
    start = threading.Barrier(3)

    def worker(half_width):
        start.wait(timeout=30)
        transform._blocks(p, make_grid(p, half_width, 64), xg)

    threads = [threading.Thread(target=worker, args=(w,)) for w in (12.0, 20.0, 28.0)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)


def test_kernel_store_ends_under_its_bound_after_concurrent_builds(monkeypatch):
    # three threads miss three keys at once under a bound of two pairs: the
    # builds run one at a time, the third drops the oldest pair to make
    # room, and two pairs stay
    p = DunklParams(0.5)
    _counting_kernel_pair(monkeypatch, delay=0.2)
    bound = 2 * _pair_bytes(32, 32)
    monkeypatch.setattr(transform, "_KERNEL_CACHE_BYTES", bound)
    _miss_three_keys_at_once(p)
    assert len(transform._cache) == 2
    assert _store_bytes() <= bound


def test_kernel_store_stays_under_its_bound_at_every_concurrent_build(monkeypatch):
    # the same three misses, each build slowed: the cached bytes plus the
    # bytes being built never pass the bound, since the pairs are built one
    # at a time (the second and third builds reach it)
    p = DunklParams(0.5)
    _counting_kernel_pair(monkeypatch, delay=0.2)
    bound = 2 * _pair_bytes(32, 32)
    monkeypatch.setattr(transform, "_KERNEL_CACHE_BYTES", bound)
    lock = threading.Lock()
    state = {"building": 0, "peak": 0}
    build = transform._build

    def counted(params, rows, cols):
        nbytes = _pair_bytes(rows.size, cols.size)
        with lock:
            state["building"] += nbytes
            with transform._cache_lock:
                cached = _store_bytes()
            state["peak"] = max(state["peak"], cached + state["building"])
        blocks = build(params, rows, cols)
        with lock:
            state["building"] -= nbytes
        return blocks

    monkeypatch.setattr(transform, "_build", counted)
    _miss_three_keys_at_once(p)
    assert state["peak"] == bound
    assert _store_bytes() <= bound


def test_miss_waiting_on_a_failed_build_builds_the_pair_itself(monkeypatch):
    # a second thread misses a key while the first builds it; the first
    # build fails, and the second thread then builds the pair itself and
    # gets the direct evaluation (spacing ratio 3: an unmirrored block of
    # one piece, one kernel_pair call per build)
    p = DunklParams(0.5)
    xg, lg = make_grid(p, 4.0, 64), make_grid(p, 12.0, 64)
    monkeypatch.setattr(transform, "_cache", type(transform._cache)())
    inside, release = threading.Event(), threading.Event()
    calls = []

    def pair(params, s):
        calls.append(threading.current_thread().name)
        if len(calls) == 1:
            inside.set()
            release.wait(timeout=30)
            raise MemoryError("no room for the block")
        return kernel_pair(params, s)

    monkeypatch.setattr(transform, "kernel_pair", pair)
    results = {}

    def worker():
        try:
            results[threading.current_thread().name] = transform._blocks(p, lg, xg)
        except MemoryError as exc:
            results[threading.current_thread().name] = exc

    first = threading.Thread(target=worker, name="first")
    second = threading.Thread(target=worker, name="second")
    first.start()
    try:
        assert inside.wait(timeout=30)
        second.start()
        time.sleep(0.2)  # the second thread reaches the build lock meanwhile
        assert calls == ["first"]
    finally:
        release.set()
    for t in (first, second):
        t.join(timeout=60)
    assert not first.is_alive() and not second.is_alive()
    assert isinstance(results["first"], MemoryError)
    assert calls == ["first", "second"]
    a, b = results["second"]
    ea, eb = kernel_pair(p, np.outer(lg.positive_nodes, xg.positive_nodes))
    assert np.array_equal(a, ea)
    assert np.array_equal(b, eb)
    assert list(transform._cache) == [(0.5, lg.spacing, xg.spacing)]


def test_hit_returns_while_another_key_builds(monkeypatch):
    # a build of one key holds the build lock inside kernel_pair; a hit on
    # another, cached key returns its pair meanwhile
    p = DunklParams(0.5)
    xg, cached, missed = make_grid(p, 4.0, 64), make_grid(p, 12.0, 64), make_grid(p, 16.0, 64)
    monkeypatch.setattr(transform, "_cache", type(transform._cache)())
    held = transform._blocks(p, cached, xg)
    inside, release = threading.Event(), threading.Event()

    def pair(params, s):
        inside.set()
        release.wait(timeout=30)
        return kernel_pair(params, s)

    monkeypatch.setattr(transform, "kernel_pair", pair)
    builder = threading.Thread(target=transform._blocks, args=(p, missed, xg))
    builder.start()
    try:
        assert inside.wait(timeout=30)
        hits = []
        hit = threading.Thread(target=lambda: hits.append(transform._blocks(p, cached, xg)))
        hit.start()
        hit.join(timeout=10)
        assert not hit.is_alive()
        assert transform._build_lock.locked() and not release.is_set()
        assert hits[0][0] is held[0] and hits[0][1] is held[1]
    finally:
        release.set()
        builder.join(timeout=60)
    assert not builder.is_alive()
    assert list(transform._cache) == [(0.5, cached.spacing, xg.spacing), (0.5, missed.spacing, xg.spacing)]


def test_import_reads_no_kernel_cache_variable():
    # the store's bound is the module constant; the variable is not read
    src = os.path.dirname(os.path.dirname(transform.__file__))
    env = {**os.environ, "DUNKL_KERNEL_CACHE": "abc", "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", "import dunkl"], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def _modulated_gaussian(g, omega=1.5):
    """exp(-x^2/2) * exp(i omega x): complex samples with both parts nonzero."""
    x = g.nodes
    return GridFunction(g, np.exp(-x * x / 2) * np.exp(1j * omega * x))


@pytest.mark.parametrize("kappa,classical", [(-0.5, True), (0.5, False)])
def test_forward_of_complex_is_linear_in_its_parts(kappa, classical):
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 1024)
    f = _modulated_gaussian(g)
    parts = forward(GridFunction(g, f.values.real)).values + 1j * forward(
        GridFunction(g, f.values.imag)
    ).values
    assert np.array_equal(forward(f).values, parts)


@pytest.mark.parametrize("kappa,classical", [(-0.5, True), (0.5, False)])
def test_complex_roundtrip(kappa, classical):
    p = DunklParams(kappa, classical=classical)
    g = make_grid(p, 16.0, 1024)
    f = _modulated_gaussian(g)
    spec = forward(f)
    rt = inverse(spec)
    assert rt.grid == g
    assert not rt.is_real
    assert np.max(np.abs(rt.values - f.values)) < 1e-6
    # the inverse is linear in the real and imaginary parts of the spectrum
    parts = inverse(GridFunction(spec.grid, spec.values.real)).values + 1j * inverse(
        GridFunction(spec.grid, spec.values.imag)
    ).values
    assert np.max(np.abs(rt.values - parts)) <= 1e-13 * np.max(np.abs(f.values))

"""Block-by-block scans: the bytes of whole-array scans, in bounded memory."""

import tracemalloc

import numpy as np
import pytest

from opfam import local, spectra
from opfam.bracket import _log10_fit, _row_sums
from opfam.families import (
    EPS_TAIL,
    TREND_FLAT_TOL,
    ZERO_FLOOR,
    CoeffFn,
    OperatorFamily,
    verdict_arrays,
)
from opfam.linalg import as_vector
from opfam.local import family_local_spectrum_grid
from opfam.spectra import CLS_RESOLVENT, CLS_SPECTRUM, CLS_UNDETERMINED, family_spectrum_grid

SEED = 1913
RECT = (-3.0, 3.0, -3.0, 3.0)


def _drift_family(rng, d):
    def rand():
        return rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))

    return OperatorFamily.from_terms(d, [(CoeffFn.const(), rand()), (CoeffFn.pow_h(1.0), rand())])


# The scans as they were before they went block by block: every tail
# sample of every probe point in one array, reduced once.


def _whole_sigma_tails(tail, lams):
    out = np.empty((len(tail.mats), len(lams)))
    d = tail.mats.shape[-1]
    for lo in range(0, len(lams), 1024):
        lam_task = lams[lo : lo + 1024]
        if d == 2:
            for i in tail.distinct:
                out[i, lo : lo + 1024] = spectra._sigma_min2(tail.mats[i], lam_task)
            continue
        shifted = lam_task[:, None, None] * np.eye(d, dtype=complex)
        diff = np.empty_like(shifted)
        for i in tail.distinct:
            np.subtract(shifted, tail.mats[i], out=diff)
            out[i, lo : lo + 1024] = np.linalg.svd(diff, compute_uv=False)[:, -1]
    tail.spread(out)
    return out


def _whole_spectrum_grid(fam, rect, nx, ny, grid):
    _, _, _, rcell, lams = spectra._scan_setup(rect, nx, ny, grid.tail)
    tail = spectra._tail_eval(fam, grid)
    sig = _whole_sigma_tails(tail, lams)
    classes, (_, tail_max, tail_min, trend), _ = spectra._classify(
        sig, tail.norms, tail.scale, lams
    )
    score = tail_min.reshape(ny, nx)
    flat_low = (tail_max <= rcell) & (trend <= TREND_FLAT_TOL)
    classes[flat_low & spectra._dip_mask(score).ravel()] = CLS_SPECTRUM
    return classes.reshape(ny, nx), score


def _whole_local_grid(fam, x, rect, nx, ny, grid):
    _, w, h, rcell, centers = spectra._scan_setup(rect, nx, ny, 9 * grid.tail)
    v = as_vector(x, dim=fam.dim)
    xnorm = float(np.linalg.norm(v))
    tail = spectra._tail_eval(fam, grid)
    norm_cap = local.B_MAX_FACTOR * xnorm / tail.scale
    offsets = local._ring_offsets(0.5 * min(w, h))
    norms, resids = local._probe_samples(tail, v, (centers[:, None] + offsets).ravel())
    eps_res = EPS_TAIL * max(1.0, xnorm)
    floor_res = ZERO_FLOOR * max(1.0, xnorm)
    res_codes, _, _, _ = verdict_arrays(resids, eps_res, floor_res)
    norm_codes, norm_max, _, norm_trend = verdict_arrays(norms, eps_res, floor_res)
    stencil = (len(centers), len(offsets))
    good = (res_codes == 0) & (norm_max <= norm_cap) & (norm_trend <= TREND_FLAT_TOL)
    bad = np.isin(res_codes, (1, 2)) | (norm_codes == 2) | (norm_max > norm_cap)
    tau = np.median((xnorm / np.maximum(norm_max, 1e-300)).reshape(stencil), axis=1)
    classes = np.full(len(centers), CLS_UNDETERMINED, dtype=np.int8)
    classes[good.reshape(stencil).all(axis=1)] = CLS_RESOLVENT
    classes[bad.reshape(stencil).any(axis=1)] = CLS_SPECTRUM
    score = tau.reshape(ny, nx)
    dips = (tau <= local.LOCAL_CAL_FACTOR * rcell) & spectra._dip_mask(score).ravel()
    classes[dips] = CLS_SPECTRUM
    return classes.reshape(ny, nx), score


# (nx, ny) with nx != ny and a cell count just below or just above a
# multiple of a task or a block: sigma tasks of 1024 points at orders 2
# and 6 and of 256 at order 16; local blocks of 910 cells that share no
# point (8190 points).
_SHAPES_1024 = [(33, 31), (41, 25), (91, 90), (241, 34)]
_SPECTRUM_SHAPES = {2: _SHAPES_1024, 6: _SHAPES_1024, 16: [(17, 15), (27, 19), (89, 23), (41, 50)]}
_LOCAL_SHAPES = [(101, 9), (48, 19), (17, 107)]


@pytest.mark.parametrize("d", (2, 6, 16))
def test_spectrum_grid_bytes_match_the_whole_array_scan(d, grid):
    assert spectra._task_points(d) == (256 if d == 16 else 1024)
    rng = np.random.default_rng(SEED + d)
    fam = _drift_family(rng, d)
    for nx, ny in _SPECTRUM_SHAPES[d]:
        g = family_spectrum_grid(fam, RECT, nx, ny, grid)
        classes, score = _whole_spectrum_grid(fam, RECT, nx, ny, grid)
        assert g.classes.tobytes() == classes.tobytes(), (nx, ny)
        assert g.score.tobytes() == score.tobytes(), (nx, ny)
    assert (g.classes == CLS_SPECTRUM).any()


@pytest.mark.parametrize("d", (2, 6, 16))
def test_local_grid_bytes_match_the_whole_array_scan(d, grid):
    assert local._BLOCK_CELLS == 910
    rng = np.random.default_rng(SEED - d)
    fam = _drift_family(rng, d)
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    for nx, ny in _LOCAL_SHAPES:
        g = family_local_spectrum_grid(fam, x, RECT, nx, ny, grid)
        classes, score = _whole_local_grid(fam, x, RECT, nx, ny, grid)
        assert g.classes.tobytes() == classes.tobytes(), (nx, ny)
        assert g.score.tobytes() == score.tobytes(), (nx, ny)
    assert (g.classes == CLS_SPECTRUM).any()


def _recording_probe(monkeypatch):
    """The point count of every `_triangular_probe` pass, in call order."""
    sizes = []
    probe = local._triangular_probe

    def recording(t, b, points, *args):
        sizes.append(len(points))
        probe(t, b, points, *args)

    monkeypatch.setattr(local, "_triangular_probe", recording)
    return sizes


def _distinct_points(rect, nx, ny):
    """The number of bitwise-distinct stencil points of a local scan."""
    _, w, h, _, centers = spectra._scan_setup(rect, nx, ny, 9)
    points = centers[:, None] + local._ring_offsets(0.5 * min(w, h))
    return len(np.unique(points.view(np.int64).reshape(-1, 2), axis=0))


def test_no_local_scan_runs_a_one_point_kernel_pass(grid, monkeypatch):
    # 11 x 331 cells are 9 * 3641 = 4 * 8192 + 1 stencil slots: a scan that
    # cut its points into kernel chunks of 8192 would solve the last alone,
    # and numpy sums a lone column's norm in another order than a batch's.
    # Each distinct point is solved once: cells 6/331 wide and 6/11 high
    # share their 0 and 180 degree points along the rows.
    sizes = _recording_probe(monkeypatch)
    rng = np.random.default_rng(SEED)
    fam = OperatorFamily.constant(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    family_local_spectrum_grid(fam, np.ones(8), RECT, 331, 11, grid)
    distinct = _distinct_points(RECT, 331, 11)
    assert distinct < 9 * 11 * 331
    assert sum(sizes) == distinct
    assert min(sizes) >= 2


def test_a_local_scan_solves_each_distinct_point_once(grid, monkeypatch):
    # Square cells 6/64 wide: a cell's 180 and 270 degree points are its
    # left and lower neighbours' 0 and 90 degree points, bitwise, except
    # beside the axes, where a ring point's rounding error of a few 1e-18
    # moves the sum.  So 7812 of 36864 stencil slots need no solve, across
    # the blocks' edges as well, and no pass solves more than 8190 points.
    sizes = _recording_probe(monkeypatch)
    rng = np.random.default_rng(SEED)
    fam = _drift_family(rng, 2)
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    family_local_spectrum_grid(fam, x, RECT, 64, 64, grid)
    distinct = len(spectra._tail_eval(fam, grid).distinct)
    assert distinct > 1
    assert _distinct_points(RECT, 64, 64) == 29052
    assert sum(sizes) == 29052 * distinct
    assert max(sizes) <= local._BLOCK_POINTS == 8190


# (rect, nx, ny) of local scans whose stencils share all (up to the rounding
# beside the axes), 6.1 % and, on one axis only, some of their points.
_SHARING_SCANS = [
    (RECT, 64, 64),
    ((-2.0, 2.0, -2.0, 2.0), 48, 48),
    ((-3.0, 3.0, -2.0, 2.0), 40, 40),
]


@pytest.mark.parametrize("d", (2, 6, 16))
def test_shared_stencil_points_keep_the_whole_array_bytes(d, grid):
    rng = np.random.default_rng(SEED + 29 * d)
    fam = _drift_family(rng, d)
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    for rect, nx, ny in _SHARING_SCANS:
        assert _distinct_points(rect, nx, ny) < 9 * nx * ny
        g = family_local_spectrum_grid(fam, x, rect, nx, ny, grid)
        classes, score = _whole_local_grid(fam, x, rect, nx, ny, grid)
        assert g.classes.tobytes() == classes.tobytes(), (rect, nx, ny)
        assert g.score.tobytes() == score.tobytes(), (rect, nx, ny)
        assert (g.classes == CLS_SPECTRUM).any()


def test_a_row_longer_than_a_block_shares_its_points_across_blocks(grid, monkeypatch):
    # 1200 square cells to a row: about 9500 distinct points, more than one
    # block holds, so rows are cut; the cut still shares its edge points.
    sizes = _recording_probe(monkeypatch)
    rng = np.random.default_rng(SEED)
    fam = OperatorFamily.constant(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    rect = (-3.0, 3.0, -0.02, 0.02)
    family_local_spectrum_grid(fam, np.ones(3), rect, 1200, 8, grid)
    distinct = _distinct_points(rect, 1200, 8)
    assert distinct > 8 * local._BLOCK_POINTS  # some row needs two passes
    assert sum(sizes) == distinct
    assert max(sizes) <= local._BLOCK_POINTS
    fam = _drift_family(rng, 2)
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    g = family_local_spectrum_grid(fam, x, rect, 1200, 8, grid)
    classes, score = _whole_local_grid(fam, x, rect, 1200, 8, grid)
    assert g.classes.tobytes() == classes.tobytes()
    assert g.score.tobytes() == score.tobytes()


@pytest.mark.parametrize("d", (2, 6))
def test_a_single_row_of_cells_shares_no_point(d, grid, monkeypatch):
    # Cells 0.15 wide and 0.1 high: the ring (radius 0.05) reaches no left
    # or right edge, and the row has no lower neighbour.  Scans take at
    # least 8 rows, so the row is matched against its cells probed one by
    # one, as `family_local_probe` probes them.
    sizes = _recording_probe(monkeypatch)
    rng = np.random.default_rng(SEED + d)
    fam = _drift_family(rng, d)
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    w, h, centers = spectra._cell_grid((-3.0, 3.0, -0.05, 0.05), 40, 1)
    xr = local._read_x(x, d)
    r = 0.5 * min(w, h)
    row = local._local_cells(fam, xr, grid, centers.ravel(), r, 40)
    assert sum(sizes) == 9 * 40 * len(spectra._tail_eval(fam, grid).distinct)
    cells = [local._local_cells(fam, xr, grid, c[None], r, 1) for c in centers.ravel()]
    assert row[0].tobytes() == np.concatenate([c[0] for c in cells]).tobytes()
    assert row[1].tobytes() == np.concatenate([c[1] for c in cells]).tobytes()
    assert row[2] == sum(c[2] for c in cells)


def test_local_probe_bad_points_are_pinned(grid):
    # Constant diagonal families whose eigenvalues sit on stencil points of
    # the probe (exactly, or 1e-10 off: a norm over the cap); the counts
    # are those of the scans that solved every slot on its own.
    lam0, r = 0.5 - 0.25j, 0.25
    points = lam0 + local._ring_offsets(r)
    cases = [
        (points[[0, 1, 3, 6]], np.ones(4), 4),
        (points[[2, 5, 7]] + 1e-10, np.array([1.0, 1j, -1.0]), 3),
        (points[[4]], np.array([1j]), 1),
        (points[[4]] + 0.5, np.array([1j]), 0),
    ]
    for eigenvalues, x, bad in cases:
        fam = OperatorFamily.constant(np.diag(eigenvalues))
        probe = local.family_local_probe(fam, x, lam0, r, grid)
        assert probe.bad_points == bad
        assert probe.classification == (local.LOCAL_SPECTRUM if bad else local.LOCAL_RESOLVENT)


MIB = 2**20


def _traced_peak(scan) -> int:
    """Peak traced bytes of a scan, run once untraced first so that the
    family's tail, norms and Schur factors are already kept."""
    scan()
    tracemalloc.start()
    try:
        scan()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture()
def two_workers(monkeypatch):
    monkeypatch.setattr(spectra, "_usable_cores", lambda: 2)


def test_spectrum_scan_memory_is_bounded_by_its_tasks(grid, two_workers):
    rng = np.random.default_rng(SEED)
    # Order 16: two workers hold one task of 256 shifted matrices (1 MiB)
    # each, where 1024-point tasks held 2 x 4 MiB each.
    # Every task is submitted at once: what a cell adds is its results, not
    # its sigma tail (64 x 64 cells are 16 tasks, 128 x 128 are 64).
    fam = _drift_family(rng, 16)
    small = _traced_peak(lambda: family_spectrum_grid(fam, RECT, 64, 64, grid))
    large = _traced_peak(lambda: family_spectrum_grid(fam, RECT, 128, 128, grid))
    assert large < 6 * MIB
    assert (large - small) / (128**2 - 64**2) < 64
    # Order 2: what a cell adds is its results and the dip mask's
    # neighbors, not its sigma tail and the tail verdict's temporaries.
    fam = _drift_family(rng, 2)
    small = _traced_peak(lambda: family_spectrum_grid(fam, RECT, 64, 64, grid))
    large = _traced_peak(lambda: family_spectrum_grid(fam, RECT, 256, 256, grid))
    assert small < 2 * MIB
    assert (large - small) / (256**2 - 64**2) < 160


def test_local_scan_memory_is_bounded_by_its_blocks(grid):
    rng = np.random.default_rng(SEED)
    fam = _drift_family(rng, 2)
    x = np.array([1.0, 1.0j])
    small = _traced_peak(lambda: family_local_spectrum_grid(fam, x, RECT, 32, 32, grid))
    large = _traced_peak(lambda: family_local_spectrum_grid(fam, x, RECT, 96, 96, grid))
    assert large < 5 * MIB
    assert (large - small) / (96**2 - 32**2) < 256


def test_local_scan_memory_at_order_16_is_bounded_by_its_kernel_rows(grid):
    # Each block of 8190 points holds 1.5 d + 3 point rows of kernel work,
    # 3.4 MiB at order 16, where rows of products made it 3 d + 2 (6.25 MiB).
    rng = np.random.default_rng(SEED)
    fam = _drift_family(rng, 16)
    x = rng.normal(size=16) + 1j * rng.normal(size=16)
    assert _traced_peak(lambda: family_local_spectrum_grid(fam, x, RECT, 64, 64, grid)) < 6 * MIB


def _whole_array_log10_fit(values):
    """The fit as whole (m, n) arrays: log10 of a floored copy, then the
    weighted deviations of every row at once."""
    m = values.shape[0]
    k = np.arange(m, dtype=float)
    kc = k - k.mean()
    logs = np.log10(np.maximum(values, 1e-300))
    means = _row_sums(logs) / m
    return logs, means, _row_sums(kc[:, None] * (logs - means)) / float((kc**2).sum())


def test_tail_verdicts_of_many_columns_hold_no_row_by_column_temporaries():
    # A (6, 8190) tail is 384 KiB; the fit over whole arrays held three
    # more of that size at once (1.31 MiB traced).
    rng = np.random.default_rng(SEED)
    values = np.exp(rng.normal(-8.0, 6.0, size=(6, 8190)))
    values[:, :5] = [0.0, 5e-324, 1e-300, 1e300, np.inf]
    with np.errstate(invalid="ignore"):  # the fit of an inf column is nan
        for tail in (values, np.asfortranarray(values), values[:, 4:5].copy(), values[:, 7:8].copy()):
            for got, want in zip(_log10_fit(tail), _whole_array_log10_fit(tail)):
                assert got.tobytes() == want.tobytes()
        peak = _traced_peak(lambda: verdict_arrays(values, EPS_TAIL, ZERO_FLOOR))
    assert peak < 0.9 * MIB

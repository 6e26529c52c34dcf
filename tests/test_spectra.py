import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from opfam import spectra
from opfam.errors import InputError, PreconditionError
from opfam.families import (
    TO_ZERO,
    BOUNDED_POSITIVE,
    CoeffFn,
    OperatorFamily,
)
from opfam.fileio import save_family
from opfam.linalg import op_norm
from opfam.local import (
    LOCAL_RESOLVENT,
    LOCAL_SPECTRUM,
    family_local_probe,
    family_local_spectrum_grid,
)
from opfam.spectra import (
    CLS_RESOLVENT,
    CLS_SPECTRUM,
    CLS_UNDETERMINED,
    RESOLVENT,
    SPECTRUM,
    UNDETERMINED,
    _classify,
    class_invariance_check,
    compare_grids,
    family_spectrum_grid,
    probe_resolvent,
    resolvent_identity_residual,
    resolvent_uniqueness_residual,
    spectral_radius_bound,
    truncated_resolvent_family,
)

SEED = 2718


def _rand(rng, d):
    return rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))


def flip_family():
    top = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    bot = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    return OperatorFamily.from_terms(
        2, [(CoeffFn.const(), top), (CoeffFn.pow_h(1.0), bot)]
    )


def test_probe_examples(grid):
    const = OperatorFamily.constant(np.diag([1.0, 2.0]))
    assert probe_resolvent(const, 0.0, grid).classification == RESOLVENT

    fam = flip_family()
    p = probe_resolvent(fam, 0.0, grid)
    assert p.classification == SPECTRUM
    assert p.sigma_stats.limit_verdict == TO_ZERO
    p1 = probe_resolvent(fam, 1.0, grid)
    assert p1.classification == RESOLVENT
    assert np.all(np.isfinite(p1.tail_resnorm))


def test_probe_neumann_certificate(grid):
    rng = np.random.default_rng(SEED)
    a = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    fam = OperatorFamily.constant(a)
    lam = op_norm(a) * 1.01
    p = probe_resolvent(fam, lam, grid)
    assert p.classification == RESOLVENT
    assert p.neumann


def test_grid_constant_diag(grid):
    fam = OperatorFamily.constant(np.diag([1.0, 2.0]))
    g = family_spectrum_grid(fam, (-3, 3, -3, 3), 64, 64, grid)
    marked = g.cells_with_class(CLS_SPECTRUM).ravel()
    # Real eigenvalues sit on the horizontal cell boundary: the tie pair
    # above/below the axis is marked for each of 1 and 2.
    assert len(marked) > 0
    for z in marked:
        assert min(abs(z - 1.0), abs(z - 2.0)) <= np.hypot(*g.cell_size())
    for target in (1.0, 2.0):
        assert min(abs(marked - target)) <= np.hypot(*g.cell_size())
    assert g.counts()["U"] == 0


def test_grid_flip_family_spectrum_only_at_origin(grid):
    fam = flip_family()
    g = family_spectrum_grid(fam, (-2, 2, -2, 2), 64, 64, grid)
    marked = g.cells_with_class(CLS_SPECTRUM).ravel()
    diag = np.hypot(*g.cell_size())
    assert len(marked) >= 1
    assert np.all(np.abs(marked) <= diag)


def test_grid_nilpotent_spectrum_only_at_origin(grid):
    fam = OperatorFamily.constant(np.eye(3, k=1))
    g = family_spectrum_grid(fam, (-2, 2, -2, 2), 64, 64, grid)
    marked = g.cells_with_class(CLS_SPECTRUM).ravel()
    assert len(marked) >= 1
    assert np.all(np.abs(marked) <= np.hypot(*g.cell_size()))


def test_grid_validation(grid):
    fam = OperatorFamily.constant(np.eye(2))
    with pytest.raises(InputError):
        family_spectrum_grid(fam, (1, 1, -1, 1), 16, 16, grid)
    with pytest.raises(InputError):
        family_spectrum_grid(fam, (-1, 1, -1, 1), 4, 16, grid)


def test_grid_deterministic(grid):
    fam = flip_family()
    a = family_spectrum_grid(fam, (-2, 2, -2, 2), 32, 32, grid)
    b = family_spectrum_grid(fam, (-2, 2, -2, 2), 32, 32, grid)
    assert np.array_equal(a.classes, b.classes)
    assert np.array_equal(a.score, b.score)


def test_spectral_radius_examples(grid):
    assert spectral_radius_bound(
        OperatorFamily.constant(np.diag([1.0, 2.0])), grid
    ).value == pytest.approx(2.0, abs=1e-6)
    assert spectral_radius_bound(flip_family(), grid).value <= 1e-3
    j = OperatorFamily.constant(np.eye(2, k=1))
    assert spectral_radius_bound(j, grid).value == 0.0


def test_resolvent_identity(grid):
    fam = OperatorFamily.constant(np.diag([1.0, 2.0]))
    stats = resolvent_identity_residual(fam, 0.0, 5.0, grid)
    assert stats.limit_verdict == TO_ZERO
    assert stats.tail_max <= 1e-12
    same = resolvent_identity_residual(fam, 4.0, 4.0, grid)
    assert same.tail_max == 0.0
    with pytest.raises(PreconditionError):
        resolvent_identity_residual(fam, 1.0, 5.0, grid)


def test_resolvent_uniqueness(grid):
    rng = np.random.default_rng(SEED)
    a = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    b = 0.4 * (rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3)))
    fam = OperatorFamily.from_terms(3, [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)])
    lam = fam.sup_bound() * 1.5
    r1 = truncated_resolvent_family(a, b, lam, order=3)

    same = resolvent_uniqueness_residual(fam, lam, r1, r1, grid)
    assert same.precondition_ok
    assert same.stats.limit_verdict == TO_ZERO

    r2 = r1 + OperatorFamily.from_terms(3, [(CoeffFn.pow_h(1.0), 0.2 * a)])
    chk = resolvent_uniqueness_residual(fam, lam, r1, r2, grid)
    assert chk.precondition_ok
    assert chk.stats.limit_verdict == TO_ZERO

    c = np.eye(3, dtype=complex)
    r3 = r1 + OperatorFamily.constant(c)
    chk3 = resolvent_uniqueness_residual(fam, lam, r1, r3, grid)
    assert not chk3.precondition_ok
    assert chk3.stats.limit_verdict == BOUNDED_POSITIVE
    assert chk3.stats.tail_max == pytest.approx(op_norm(c), rel=1e-9)


def test_class_invariance(grid):
    rng = np.random.default_rng(SEED)
    a = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    f = OperatorFamily.constant(a)
    g = f + OperatorFamily.from_terms(2, [(CoeffFn.exp_inv(1.0), a)])
    rep = class_invariance_check(f, g, (-3, 3, -3, 3), 32, 32, grid)
    assert rep.identical
    with pytest.raises(PreconditionError):
        class_invariance_check(
            f, f + OperatorFamily.constant(np.eye(2)), (-3, 3, -3, 3), 32, 32, grid
        )


def test_compare_grids_ignores_undetermined(grid):
    fam = flip_family()
    a = family_spectrum_grid(fam, (-2, 2, -2, 2), 16, 16, grid)
    b = family_spectrum_grid(fam, (-2, 2, -2, 2), 16, 16, grid)
    rep = compare_grids(a, b)
    assert rep.identical
    assert rep.n_cells == 256


def test_neumann_certificate_beats_a_vanishing_tail():
    # ||F|| = 0.5 < |lam| < 1: the sigma tail may then vanish below
    # DELTA_RES * scale = 1e-6 while staying above |lam| - ||F|| > 0.
    sig = np.linspace(9e-7, 6e-7, 6)[:, None]
    lams = np.array([0.5000012 + 0.0j])
    classes, (codes, _, _, _), neumann = _classify(sig, np.array([0.5]), 1.0, lams)
    assert codes[0] == 0 and neumann[0]
    assert classes[0] == CLS_RESOLVENT


def test_spectrum_scan_runs_one_svd_pass_per_distinct_tail_matrix(grid, monkeypatch):
    passes = []
    original = np.linalg.svd

    def counting(a, *args, **kwargs):
        if np.shape(a)[0] == 64:  # the shifted stacks of an 8x8 scan
            passes.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    rng = np.random.default_rng(SEED)
    a, b = _rand(rng, 3), _rand(rng, 3)
    family_spectrum_grid(OperatorFamily.constant(a), (-3, 3, -3, 3), 8, 8, grid)
    assert len(passes) == 1
    passes.clear()
    drift = OperatorFamily.from_terms(3, [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)])
    family_spectrum_grid(drift, (-3, 3, -3, 3), 8, 8, grid)
    assert len(passes) == grid.tail


def test_probe_rejects_an_overflowing_family(grid):
    fam = OperatorFamily.constant(np.full((2, 2), 1e308))
    with pytest.raises(InputError, match="overflow"):
        probe_resolvent(fam, 0.5, grid)


def test_scan_budget_is_checked_before_the_family_is_evaluated(grid, monkeypatch):
    fam = OperatorFamily.constant(np.eye(2))

    def unreachable(*args, **kwargs):
        raise AssertionError("family evaluated")

    monkeypatch.setattr(OperatorFamily, "eval_stack", unreachable)
    with pytest.raises(InputError, match="budget"):
        family_spectrum_grid(fam, (-1, 1, -1, 1), 4096, 4096, grid)
    # A local scan probes 9 points per cell, so 1024^2 is already too much.
    with pytest.raises(InputError, match="budget"):
        family_local_spectrum_grid(fam, [1.0, 0.0], (-1, 1, -1, 1), 1024, 1024, grid)


def _drift_family(rng, d, eig):
    """A + h B where A has the eigenvalue eig, B and the rest random."""
    rest = rng.uniform(-1.5, 1.5, d - 1) + 1j * rng.uniform(-1.5, 1.5, d - 1)
    v = np.eye(d) + 0.3 * _rand(rng, d)
    a = v @ np.diag(np.concatenate(([eig], rest))) @ np.linalg.inv(v)
    b = 0.5 * _rand(rng, d)
    return OperatorFamily.from_terms(d, [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)])


_LOCAL_CODES = {
    LOCAL_SPECTRUM: CLS_SPECTRUM,
    UNDETERMINED: CLS_UNDETERMINED,
    LOCAL_RESOLVENT: CLS_RESOLVENT,
}
_CODES = {SPECTRUM: CLS_SPECTRUM, UNDETERMINED: CLS_UNDETERMINED, RESOLVENT: CLS_RESOLVENT}


@pytest.mark.parametrize("kind", ["spectrum", "local"])
def test_probe_is_the_grid_rule_at_a_cell_centre(grid, kind):
    """Outside the dip marks, a probe at a cell centre repeats the grid's class."""
    rng = np.random.default_rng(SEED)
    rect = (-2.0, 2.0, -2.0, 2.0)
    n = 16
    probe_spectrum = 0
    for d in (2, 3, 4, 2, 3, 4):
        # Put one eigenvalue of A at a cell centre, so that some probe
        # classifies Spectrum and the Spectrum direction is exercised.
        jx, jy = rng.integers(2, n - 2, size=2)
        fam = _drift_family(rng, d, complex(-1.875 + 0.25 * jx, -1.875 + 0.25 * jy))
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        if kind == "spectrum":
            g = family_spectrum_grid(fam, rect, n, n, grid)

            def probe(lam):
                return _CODES[probe_resolvent(fam, lam, grid).classification]

        else:
            g = family_local_spectrum_grid(fam, x, rect, n, n, grid)
            ring_r = 0.5 * min(g.cell_size())

            def probe(lam):
                cls = family_local_probe(fam, x, lam, ring_r, grid).classification
                return _LOCAL_CODES[cls]

        for (iy, ix), lam in np.ndenumerate(g.centers()):
            cls = probe(complex(lam))
            if g.classes[iy, ix] != CLS_SPECTRUM:
                assert cls == g.classes[iy, ix], (d, iy, ix)
            if cls == CLS_SPECTRUM:
                probe_spectrum += 1
                assert g.classes[iy, ix] == CLS_SPECTRUM, (d, iy, ix)
    assert probe_spectrum > 0


@pytest.fixture()
def sigma_workers(monkeypatch):
    """Return a function installing a sigma pool of n threads for this test.

    The switch interval is shortened so that the threads interleave often.
    """
    pools = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def install(n: int) -> None:
        pools.append(ThreadPoolExecutor(n, thread_name_prefix="opfam-sigma"))
        monkeypatch.setattr(spectra, "_pool", pools[-1])

    yield install
    sys.setswitchinterval(interval)
    for pool in pools:
        pool.shutdown()


def test_sigma_bytes_independent_of_worker_count(grid, sigma_workers, monkeypatch):
    threads = set()
    task = spectra._sigma_task

    def recording(*args):
        threads.add(threading.current_thread().name)
        task(*args)

    monkeypatch.setattr(spectra, "_sigma_task", recording)
    rng = np.random.default_rng(SEED)
    n = 3 * spectra._SIGMA_TASK + 17
    lams = rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n)
    for d in (2, 6, 16):
        a, b = _rand(rng, d), _rand(rng, d)
        drift = OperatorFamily.from_terms(d, [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)])
        for fam in (OperatorFamily.constant(a), drift):
            tail = spectra._tail_eval(fam, grid)
            mats = tail.mats
            ident = np.eye(d, dtype=complex)
            # The formula of the kernel, one batch per tail matrix.
            reference = np.stack(
                [
                    np.linalg.svd(lams[:, None, None] * ident - m, compute_uv=False)[:, -1]
                    for m in mats
                ]
            )
            results = []
            for workers in (1, 3):
                sigma_workers(workers)
                threads.clear()
                results.append(spectra._sigma_tail_stack(tail, lams).tobytes())
                assert threads and all(t.startswith("opfam-sigma") for t in threads)
            assert results[0] == results[1] == reference.tobytes(), (d, len(tail.distinct))


_CSV_FINGERPRINT = """
import hashlib, os, sys
if {pin}:
    os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
from opfam import cli, spectra
assert cli.main({argv!r}) == 0
workers = spectra._pool._max_workers
with open({out!r}, "rb") as fh:
    print(hashlib.sha256(fh.read()).hexdigest(), workers)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_spectrum_csv_bytes_independent_of_usable_cores(tmp_path, thread_fingerprint):
    """A CLI scan pinned to one CPU writes the CSV an unpinned scan writes.

    The unpinned scan also runs at 4 BLAS threads.
    """
    rng = np.random.default_rng(SEED)
    a, b = _rand(rng, 6), _rand(rng, 6)
    fam = OperatorFamily.from_terms(6, [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)])
    fam_path = str(tmp_path / "drift6.fam")
    save_family(fam, fam_path)

    def run(pin: bool, blas_threads: int) -> tuple[str, int]:
        out = str(tmp_path / f"{pin}-{blas_threads}.csv")
        # 64 x 64 cells: four sigma tasks.
        argv = ["spectrum", "--family", fam_path, "--rect=-3:3:-3:3", "--res", "64", "--out", out]
        script = _CSV_FINGERPRINT.format(pin=pin, argv=argv, out=out)
        digest, workers = thread_fingerprint(script, blas_threads).split()
        return digest, int(workers)

    pinned = run(True, 1)
    assert pinned[1] == 1
    assert run(False, 1)[0] == pinned[0]
    assert run(False, 4)[0] == pinned[0]


def test_importing_opfam_starts_no_thread(thread_fingerprint):
    script = (
        "import threading, opfam, opfam.cli, opfam.verify\n"
        "print(threading.active_count(), opfam.spectra._pool)"
    )
    assert thread_fingerprint(script, 1) == "1 None"


_FORK_AFTER_SCAN = """
import os, signal
import numpy as np
from opfam.families import HGrid, OperatorFamily
from opfam.spectra import family_spectrum_grid
fam = OperatorFamily.constant(np.diag([1.0, 2.0j]))
first = family_spectrum_grid(fam, (-3, 3, -3, 3), 64, 64, HGrid())
pid = os.fork()
if pid == 0:
    signal.alarm(60)  # a stuck child ends itself
    g = family_spectrum_grid(fam, (-3, 3, -3, 3), 64, 64, HGrid())
    os._exit(0 if (g.classes == first.classes).all() else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_scans_with_its_own_pool(thread_fingerprint):
    """The child of a fork after a scan gets a fresh pool, not the parent's
    pool object whose threads it does not have (that would never finish)."""
    assert thread_fingerprint(_FORK_AFTER_SCAN, 1) == "0"

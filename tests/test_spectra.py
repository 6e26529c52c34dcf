import os
import sys
import threading
import warnings

import numpy as np
import pytest

from opfam import families, spectra
from opfam.errors import InputError, PreconditionError
from opfam.families import (
    TO_ZERO,
    BOUNDED_POSITIVE,
    CoeffFn,
    HGrid,
    OperatorFamily,
)
from opfam.fileio import save_family
from opfam.linalg import op_norm, op_norms
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


def test_probe_inverse_norms_are_the_reciprocal_singular_values(grid):
    rng = np.random.default_rng(SEED)
    seen = 0
    for d in (2, 3, 5):
        fam = OperatorFamily.from_terms(
            d, [(CoeffFn.const(), _rand(rng, d)), (CoeffFn.pow_h(1.0), _rand(rng, d))]
        )
        tail = spectra._tail_eval(fam, grid)
        for lam in 3.0 * (rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)):
            p = probe_resolvent(fam, lam, grid)
            if p.classification == RESOLVENT:
                seen += 1
                inverses = spectra._tail_inverses(tail.mats, lam)
                np.testing.assert_allclose(p.tail_resnorm, op_norms(inverses), rtol=1e-10)
    assert seen >= 10
    # lam I - F(h) singular: the inverse norms are infinite.
    p = probe_resolvent(OperatorFamily.constant(np.diag([1.0, 2.0])), 1.0, grid)
    assert p.classification == SPECTRUM
    assert np.all(p.tail_resnorm == np.inf)


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


def test_a_constant_family_takes_its_scan_verdicts_without_a_log_fit(grid, monkeypatch):
    # A constant family's tail rows are byte copies, so every verdict of its
    # scans is read off one row; a drifting family's tails need the fit.
    fits = []
    original = families.slopes_log10

    def counting(values):
        fits.append(values.shape)
        return original(values)

    monkeypatch.setattr(families, "slopes_log10", counting)
    rng = np.random.default_rng(SEED)
    a, b = _rand(rng, 3), _rand(rng, 3)
    x = np.array([1.0, 0.5j, -0.25])
    drift = OperatorFamily.from_terms(3, [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)])
    for fam, fitted in ((OperatorFamily.constant(a), False), (drift, True)):
        for scan in (
            lambda: family_spectrum_grid(fam, (-3, 3, -3, 3), 8, 8, grid),
            lambda: family_local_spectrum_grid(fam, x, (-3, 3, -3, 3), 8, 8, grid),
        ):
            fits.clear()
            scan()
            assert bool(fits) == fitted


def test_probe_rejects_an_overflowing_family(grid):
    fam = OperatorFamily.constant(np.full((2, 2), 1e308))
    with pytest.raises(InputError, match="overflow"):
        probe_resolvent(fam, 0.5, grid)


@pytest.mark.filterwarnings("error")
def test_scores_near_the_float_maximum_scan_quietly(grid):
    # sigma_min is about 1e308 in every cell, so two neighbours' sum overflows.
    fam = OperatorFamily.constant(np.array([[1e308 + 0.5 - 0.25j]]))
    scan = family_spectrum_grid(fam, (-3, 3, -3, 3), 8, 8, grid)
    assert (scan.classes == CLS_RESOLVENT).all()


@pytest.mark.parametrize(
    "rect",
    [
        (-np.inf, np.inf, -1, 1),
        (-1e308, 1e308, -1, 1),
        (-1, 1, -1e308, 1e308),
        (np.nan, 1, -1, 1),
    ],
)
def test_scans_reject_a_non_finite_rect(grid, rect):
    # A width or height that overflows puts infinite centers into the
    # kernels, which then fail inside LAPACK rather than on the input.
    fam = OperatorFamily.constant(np.diag([1.0, 2.0]))
    with pytest.raises(InputError, match="finite bounds"):
        family_spectrum_grid(fam, rect, 8, 8, grid)
    with pytest.raises(InputError, match="finite bounds"):
        family_local_spectrum_grid(fam, np.ones(2), rect, 8, 8, grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_probes_reject_a_non_finite_point(grid, bad):
    fam = OperatorFamily.constant(np.diag([1.0, 2.0]))
    x = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(InputError, match="not finite"):
        probe_resolvent(fam, bad, grid)
    with pytest.raises(InputError, match="not finite"):
        resolvent_identity_residual(fam, 8.0, bad, grid)
    with pytest.raises(InputError, match="need a finite lam0"):
        family_local_probe(fam, x, bad, 0.05, grid)
    if not isinstance(bad, complex):
        with pytest.raises(InputError, match="need a finite lam0"):
            family_local_probe(fam, x, 3.0, bad, grid)


def test_scan_budget_is_checked_before_the_family_is_evaluated(grid, monkeypatch):
    fam = OperatorFamily.constant(np.eye(2))

    def unreachable(*args, **kwargs):
        raise AssertionError("family evaluated")

    monkeypatch.setattr(families, "_grid_eval", unreachable)
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
    _assert_probe_is_the_grid_rule(grid, kind)


@pytest.mark.parametrize("kind", ["spectrum", "local"])
def test_probe_is_the_grid_rule_at_a_cell_centre_at_tail_9(kind):
    # From a tail of 8 on, a lone sequence and a batch column must still
    # sum in one order.
    _assert_probe_is_the_grid_rule(HGrid(count=40, tail=9), kind)


def _assert_probe_is_the_grid_rule(grid, kind):
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


def _svd_sigma_min(m, lams):
    """sigma_min(lam I - m) at every point of lams by LAPACK's batched SVD."""
    ident = np.eye(m.shape[-1], dtype=complex)
    return np.linalg.svd(lams[:, None, None] * ident - m, compute_uv=False)[:, -1]


def _closed_form_sigma_min2(m, lams):
    """The order-2 closed form of spectra._sigma_min2, step for step."""
    n = len(lams)
    z = np.empty((4, n), dtype=complex)
    np.subtract(lams, m[0, 0], out=z[0])
    z[1] = -m[0, 1]
    z[2] = -m[1, 0]
    np.subtract(lams, m[1, 1], out=z[3])
    parts = z.view(float).reshape(4, n, 2)
    top = np.abs(parts).max(axis=0)
    k = np.minimum(-np.frexp(np.maximum(top[:, 0], top[:, 1]))[1], 1022)
    z *= np.ldexp(1.0, k)
    a, b, c, d = z
    sq = parts[0] * parts[0] + parts[2] * parts[2]
    f = np.sqrt(sq[:, 0] + sq[:, 1])
    f_zero = f == 0.0
    g = np.abs(a.conj() * b + c.conj() * d) / (f + f_zero)
    h = np.abs(a * d - c * b) / (f + f_zero)
    gg = g * g
    ssmax = 0.5 * (np.sqrt((f + h) ** 2 + gg) + np.sqrt((f - h) ** 2 + gg))
    return np.ldexp(f * h / (ssmax + f_zero), -k)


def test_the_order_2_closed_form_is_within_8_eps_of_the_svd():
    rng = np.random.default_rng(SEED)
    eps = np.finfo(float).eps
    cases = []
    for _ in range(200):
        m = _rand(rng, 2)
        eigs = np.linalg.eigvals(m)
        far = 3.0 * (rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8))
        cases.append((m, np.concatenate([eigs, eigs * (1.0 + 1e-12), far])))
    nonnormal = np.array([[0.3, 1e8], [0.0, 0.3]], dtype=complex)
    cases.append((nonnormal, np.array([0.3, 0.3 * (1.0 + 1e-12), 0.0, 1j, 1e8])))
    for scale in (1e-160, 1e150):
        m, lams = cases[0]
        cases.append((scale * m, scale * lams))
    subnormal = np.array([[5e-324, 3e-320], [1e-310, 2e-315j]])
    cases.append((subnormal, np.array([0.0, 1e-310, 4e-320j, 1e-300])))
    for m, lams in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectra._sigma_min2(m, lams)
        sv = np.linalg.svd(lams[:, None, None] * np.eye(2) - m, compute_uv=False)
        assert np.all(np.abs(got - sv[:, -1]) <= 8.0 * eps * sv[:, 0]), (m, lams)
    # A singular diagonal matrix: exactly zero, at every scale.
    for diag, lam in (([1.0, 2.0], 1.0), ([1.0, 2.0], 2.0), ([5e-324, 1e300], 5e-324), ([0, 0], 0)):
        m = np.diag(diag).astype(complex)
        assert spectra._sigma_min2(m, np.array([lam], dtype=complex))[0] == 0.0


@pytest.mark.parametrize("kind", ["const", "drift"])
def test_order_2_grids_classify_as_with_the_svd(grid, kind, monkeypatch):
    rng = np.random.default_rng(SEED + (kind == "drift"))
    scans = []
    for _ in range(10):
        a, b = _rand(rng, 2), _rand(rng, 2)
        terms = [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)]
        scans.append(OperatorFamily.from_terms(2, terms if kind == "drift" else terms[:1]))
    closed = [family_spectrum_grid(fam, (-3, 3, -3, 3), 48, 48, grid) for fam in scans]
    monkeypatch.setattr(spectra, "_sigma_min2", _svd_sigma_min)
    for fam, g in zip(scans, closed):
        ref = family_spectrum_grid(fam, (-3, 3, -3, 3), 48, 48, grid)
        assert np.array_equal(g.classes, ref.classes)
        assert g.counts()["S"] > 0


@pytest.fixture()
def sigma_workers(monkeypatch):
    """Return a function setting the usable-core count the sigma kernel reads.

    The switch interval is shortened so that the threads interleave often.
    """
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield lambda n: monkeypatch.setattr(spectra, "_usable_cores", lambda: n)
    sys.setswitchinterval(interval)


def test_sigma_bytes_independent_of_worker_count(grid, sigma_workers, monkeypatch):
    threads = set()
    task = spectra._sigma_task

    def recording(*args):
        threads.add(threading.current_thread().name)
        return task(*args)

    monkeypatch.setattr(spectra, "_sigma_task", recording)
    rng = np.random.default_rng(SEED)
    # 3 * 1024 + 28 cells: four tasks at orders 2 and 6, thirteen at 16.
    rect, nx, ny = (-3, 3, -3, 3), 62, 50
    lams = spectra._cell_grid(rect, nx, ny)[2].ravel()
    for d in (2, 6, 16):
        a, b = _rand(rng, d), _rand(rng, d)
        drift = OperatorFamily.from_terms(d, [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)])
        for fam in (OperatorFamily.constant(a), drift):
            tail = spectra._tail_eval(fam, grid)
            # The formula of the kernel, one batch per tail matrix: the
            # closed form at order 2, LAPACK's SVD at every other order.
            kernel = _closed_form_sigma_min2 if d == 2 else _svd_sigma_min
            reference = np.stack([kernel(m, lams) for m in tail.mats])
            assert task(tail, lams).tobytes() == reference.tobytes()
            results = []
            for workers in (1, 3):
                sigma_workers(workers)
                threads.clear()
                g = family_spectrum_grid(fam, rect, nx, ny, grid)
                results.append(g.classes.tobytes() + g.score.tobytes())
                assert threads and all(t.startswith("opfam-sigma") for t in threads)
            assert results[0] == results[1], (d, len(tail.distinct))
            # The score is the tail minimum of the reference sigma tails.
            assert g.score.tobytes() == reference.min(axis=0).tobytes()


def test_a_sigma_task_error_reaches_the_caller(grid, sigma_workers, monkeypatch):
    calls = []
    lock = threading.Lock()
    task = spectra._sigma_task

    def failing(*args):
        with lock:
            calls.append(None)
            third = len(calls) == 3
        if third:
            raise RuntimeError("third sigma task")
        return task(*args)

    monkeypatch.setattr(spectra, "_sigma_task", failing)
    sigma_workers(3)
    rng = np.random.default_rng(SEED)
    fam = OperatorFamily.constant(_rand(rng, 6))
    # 62 x 50 cells: four tasks of 1024 points on three workers.
    with pytest.raises(RuntimeError, match="third sigma task"):
        family_spectrum_grid(fam, (-3, 3, -3, 3), 62, 50, grid)
    assert len(calls) >= 3
    assert not [t for t in threading.enumerate() if t.name.startswith("opfam-sigma")]


_CSV_FINGERPRINT = """
import hashlib, os, sys
if {pin}:
    os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
from opfam import cli, spectra
pools = []
class Recording(spectra.ThreadPoolExecutor):
    def __init__(self, max_workers, **kwargs):
        pools.append(max_workers)
        super().__init__(max_workers, **kwargs)
spectra.ThreadPoolExecutor = Recording
assert cli.main({argv!r}) == 0
(workers,) = pools
with open({out!r}, "rb") as fh:
    print(hashlib.sha256(fh.read()).hexdigest(), workers)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize("d", [2, 6, 16])
def test_spectrum_csv_bytes_independent_of_usable_cores(tmp_path, thread_fingerprint, d):
    """A CLI scan pinned to one CPU writes the CSV an unpinned scan writes.

    The unpinned scan also runs at 4 BLAS threads.  Order 2 takes the
    closed-form sigma kernel, orders 6 and 16 the SVD; order 16 has the
    smaller tasks of `_task_points`.
    """
    rng = np.random.default_rng(SEED)
    a, b = _rand(rng, d), _rand(rng, d)
    fam = OperatorFamily.from_terms(d, [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)])
    fam_path = str(tmp_path / f"drift{d}.fam")
    save_family(fam, fam_path)

    def run(pin: bool, blas_threads: int) -> tuple[str, int]:
        out = str(tmp_path / f"{pin}-{blas_threads}.csv")
        # 64 x 64 cells: four sigma tasks, sixteen at order 16.
        argv = ["spectrum", "--family", fam_path, "--rect=-3:3:-3:3", "--res", "64", "--out", out]
        script = _CSV_FINGERPRINT.format(pin=pin, argv=argv, out=out)
        digest, workers = thread_fingerprint(script, blas_threads).split()
        return digest, int(workers)

    pinned = run(True, 1)
    assert pinned[1] == 1
    assert run(False, 1)[0] == pinned[0]
    assert run(False, 4)[0] == pinned[0]


_THREADS_AFTER_SCAN = """
import threading
import numpy as np
import opfam, opfam.cli, opfam.verify
from opfam.families import HGrid, OperatorFamily
print(threading.active_count())
fam = OperatorFamily.constant(np.diag([1.0, 2.0j]))
opfam.spectra.family_spectrum_grid(fam, (-3, 3, -3, 3), 64, 64, HGrid())
print([t.name for t in threading.enumerate() if t.name.startswith("opfam-sigma")])
"""


def test_importing_opfam_starts_no_thread(thread_fingerprint):
    """Importing starts no thread, and no sigma thread outlives a scan."""
    assert thread_fingerprint(_THREADS_AFTER_SCAN, 1).split("\n") == ["1", "[]"]


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

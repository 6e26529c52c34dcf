"""The local solve kernel: Schur back-substitution against the direct solves."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opfam.families import CoeffFn, HGrid, OperatorFamily
from opfam.local import _min_norm_solve_stack, _probe_samples, family_local_spectrum_grid
from opfam.spectra import CLS_RESOLVENT, CLS_SPECTRUM, _tail_eval

SEED = 4669
RECT = (-3.0, 3.0, -3.0, 3.0)


def _rand(rng, d):
    return rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))


def _drift_family(rng, d):
    return OperatorFamily.from_terms(
        d, [(CoeffFn.const(), _rand(rng, d)), (CoeffFn.pow_h(1.0), _rand(rng, d))]
    )


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_schur_kernel_matches_direct_solves(d, seed):
    rng = np.random.default_rng(seed)
    tail = _tail_eval(_drift_family(rng, d), HGrid())
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    box = 1.5 * tail.scale
    points = rng.uniform(-box, box, 48) + 1j * rng.uniform(-box, box, 48)
    ident = np.eye(d)
    # Away from the eigenvalues: every shifted tail matrix well conditioned.
    sigma = np.array(
        [np.linalg.svd(p * ident - tail.mats, compute_uv=False).min() for p in points]
    )
    points = points[sigma >= 0.01 * tail.scale]
    assume(len(points) > 0)
    norms, resids = _probe_samples(tail, x, points)
    for i, m in enumerate(tail.mats):
        stack = points[:, None, None] * ident - m
        y = _min_norm_solve_stack(stack, x)
        np.testing.assert_allclose(norms[i], np.linalg.norm(y, axis=1), rtol=1e-10)
        # Both residuals sit at rounding level, so they agree to within the
        # backward-error scale of the solve rather than relatively.
        ref = np.linalg.norm((stack @ y[..., None])[..., 0] - x, axis=1)
        scale = np.linalg.norm(stack, 2, axis=(1, 2)) * norms[i] + np.linalg.norm(x)
        assert np.all(np.abs(resids[i] - ref) <= 1e-10 * scale)


def test_an_exact_eigenvalue_hit_falls_back_at_that_point_only(grid, monkeypatch):
    # 0.375 + 0.375j is the center of cell (4, 4) of the 8x8 grid over RECT,
    # and the Schur form of a diagonal matrix is the matrix itself, so the
    # back-substitution divides by exactly zero at that one probe point.
    eigs = np.array([0.375 + 0.375j, -1.6 + 0.9j, 1.3 - 1.1j])
    fam = OperatorFamily.constant(np.diag(eigs))
    pinv_stacks = []
    original = np.linalg.pinv

    def spy(a, *args, **kwargs):
        pinv_stacks.append(a.shape[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", spy)

    def cell(z):
        return int((z.imag + 3.0) // 0.75), int((z.real + 3.0) // 0.75)

    # x supported on every eigenvalue, then on all but the hit one: the
    # pinv solution at the hit is bad in the first case and tame in the
    # second, and the cells follow the exact local spectrum either way.
    for x, support in ((np.ones(3), eigs), (np.array([0.0, 1.0, 1.0]), eigs[1:])):
        pinv_stacks.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = family_local_spectrum_grid(fam, x, RECT, 8, 8, grid)
        # All 576 probe points share one kernel pass; only the hit is re-solved.
        assert pinv_stacks == [1]
        expected = np.full((8, 8), CLS_RESOLVENT, dtype=np.int8)
        for z in support:
            expected[cell(z)] = CLS_SPECTRUM
        np.testing.assert_array_equal(g.classes, expected)


def test_a_fallback_point_gets_the_same_bytes_beside_another(grid):
    # F = 0.5 + R diag(1.3, -0.7) R*: the Schur diagonal entry p near 1.3 is
    # hit exactly by the back-substitution, but p I - F is not singular in
    # floating point, so p takes its LU solve; 0.5 I - F is exactly singular
    # and takes pinv.  Neither choice may depend on the other point.
    rng = np.random.default_rng(SEED)
    r, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    f = np.zeros((3, 3), dtype=complex)
    f[0, 0] = 0.5
    f[1:, 1:] = r @ np.diag([1.3, -0.7]) @ r.conj().T
    tail = _tail_eval(OperatorFamily.constant(f), grid)
    diag = np.diag(tail.schur(0)[0])
    p = diag[np.argmin(np.abs(diag - 1.3))]
    x = np.array([1.0, 1.0j, -0.5])
    alone = _probe_samples(tail, x, np.array([p]))
    pair = _probe_samples(tail, x, np.array([0.5, p]))
    for a, b in zip(alone, pair):
        assert a[:, 0].tobytes() == b[:, 1].tobytes()
    y = np.linalg.solve(p * np.eye(3) - f, x)
    np.testing.assert_allclose(alone[0][:, 0], np.linalg.norm(y), rtol=1e-12)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(0.5 * np.eye(3) - f, x)


def test_schur_factors_once_per_distinct_tail_matrix(grid, monkeypatch):
    calls = []
    original = scipy.linalg.schur

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting)
    rng = np.random.default_rng(SEED)
    x = np.array([1.0, 0.5j, -0.25])
    const = OperatorFamily.constant(_rand(rng, 3))
    family_local_spectrum_grid(const, x, RECT, 8, 8, grid)
    assert len(calls) == 1
    calls.clear()
    family_local_spectrum_grid(_drift_family(rng, 3), x, RECT, 8, 8, grid)
    assert len(calls) == grid.tail


_PROBE_FINGERPRINT = """
import hashlib
import numpy as np
from opfam.families import CoeffFn, HGrid, OperatorFamily
from opfam.local import _probe_samples
from opfam.spectra import _tail_eval

rng = np.random.default_rng(%d)
digest = hashlib.sha256()
for d in range(2, 17):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    fams = [
        OperatorFamily.from_terms(d, [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)]),
        OperatorFamily.constant(np.diag(np.arange(d) + 0.5j)),
    ]
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    points = rng.uniform(-4, 4, 256) + 1j * rng.uniform(-4, 4, 256)
    # An exact eigenvalue of the diagonal family: the fallback path.
    points[7] = 1.0 + 0.5j
    for fam in fams:
        for arr in _probe_samples(_tail_eval(fam, HGrid()), x, points):
            digest.update(arr.tobytes())
print(digest.hexdigest())
""" % SEED


def test_probe_samples_bytes_independent_of_blas_threads(thread_fingerprint):
    one = thread_fingerprint(_PROBE_FINGERPRINT, 1)
    four = thread_fingerprint(_PROBE_FINGERPRINT, 4)
    assert len(one) == 64
    assert one == four, "_probe_samples results differ between 1 and 4 BLAS threads"


def _reference_triangular_probe(t, b, points):
    """The kernel as plain expressions, one temporary array per operation."""
    z = np.empty((len(b), len(points)), dtype=complex)
    r = np.empty_like(z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(len(b) - 1, -1, -1):
            rhs = b[k] + (t[k, k + 1 :, None] * z[k + 1 :]).sum(axis=0)
            shift = points - t[k, k]
            z[k] = rhs / shift
            r[k] = shift * z[k] - rhs
        return np.linalg.norm(z, axis=0), np.linalg.norm(r, axis=0)


def _row_order_triangular_probe(t, b, points):
    """The kernel as plain expressions whose every sum adds its terms in row order.

    At two points or more numpy's axis-0 reductions add in this order too,
    so this equals `_reference_triangular_probe` byte for byte there; at
    one point numpy reduces pairwise instead.
    """
    d = len(b)
    z = np.empty((d, len(points)), dtype=complex)
    r = np.empty_like(z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(d - 1, -1, -1):
            rhs = b[k] + sum((t[k, j] * z[j] for j in range(k + 1, d)), 0.0)
            shift = points - t[k, k]
            z[k] = rhs / shift
            r[k] = shift * z[k] - rhs
        return tuple(np.sqrt(sum((row.conj() * row).real for row in v)) for v in (z, r))


def _reference_probe_samples(tail, x, points, triangular_probe):
    """`_probe_samples` over a reference triangular probe, one pass per matrix."""
    mats = tail.mats
    ident = np.eye(mats.shape[-1], dtype=complex)
    norms = np.empty((len(mats), len(points)))
    resids = np.empty((len(mats), len(points)))
    for i in tail.distinct:
        t, q = tail.schur(i)
        b = (q.conj() * x[:, None]).sum(axis=0)
        norm, resid = triangular_probe(t, b, points)
        hit = ~(np.isfinite(norm) & np.isfinite(resid))
        if hit.any():
            stack = points[hit, None, None] * ident - mats[i]
            y = _min_norm_solve_stack(stack, x)
            norm[hit] = np.linalg.norm(y, axis=1)
            resid[hit] = np.linalg.norm((stack @ y[..., None])[..., 0] - x, axis=1)
        norms[i] = norm
        resids[i] = resid
    tail.spread(norms, resids)
    return norms, resids


def _assert_same_bytes(tail, x, points):
    """The kernel's bytes are the plain expressions': numpy's own sums from
    two points on, where the row-order sums equal them, and the row-order
    sums at one point."""
    got = _probe_samples(tail, x, points)
    row_order = _reference_probe_samples(tail, x, points, _row_order_triangular_probe)
    want = row_order
    if len(points) > 1:
        want = _reference_probe_samples(tail, x, points, _reference_triangular_probe)
    for g, w, r in zip(got, want, row_order):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()
        assert r.tobytes() == w.tobytes()


# One point, two, one stencil, sizes on either side of 2**13, and more than
# twice that.
_COUNTS = (1, 2, 9, 8191, 8192, 8193, 20000)


@pytest.mark.parametrize("d", range(1, 17))
def test_kernel_bytes_match_the_reference_across_chunk_bounds(d, grid):
    rng = np.random.default_rng(SEED + d)
    fam = OperatorFamily.constant(_rand(rng, d))
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    points = rng.uniform(-3, 3, max(_COUNTS)) + 1j * rng.uniform(-3, 3, max(_COUNTS))
    tail = _tail_eval(fam, grid)
    for n in _COUNTS:
        _assert_same_bytes(tail, x, points[:n])


@pytest.mark.parametrize("d", (2, 6, 16))
def test_drifting_family_bytes_match_the_reference(d, grid):
    rng = np.random.default_rng(SEED - d)
    tail = _tail_eval(_drift_family(rng, d), grid)
    assert len(tail.distinct) == grid.tail
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    n = 8193
    _assert_same_bytes(tail, x, rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n))


def test_hit_and_overflow_bytes_match_the_reference(grid):
    # The eigenvalue 0.5 is hit exactly.  Near 1e-200 the 1e200 entries
    # push the back-substitution past the float range, which also falls
    # back to the direct solve.
    mat = np.diag([0.5, 1e-200, -1.0 + 2.0j]).astype(complex)
    mat[0, 1] = mat[1, 2] = 1e200
    tail = _tail_eval(OperatorFamily.constant(mat), grid)
    x = np.array([1.0, 1.0, 1.0j])
    rng = np.random.default_rng(SEED)
    points = rng.uniform(-3, 3, 20000) + 1j * rng.uniform(-3, 3, 20000)
    points[8197] = 0.5
    points[8201] = 2e-200
    t, q = tail.schur(0)
    norm, resid = _reference_triangular_probe(t, (q.conj() * x[:, None]).sum(axis=0), points)
    bad = ~(np.isfinite(norm) & np.isfinite(resid))
    assert bad[8197] and bad[8201]
    _assert_same_bytes(tail, x, points)

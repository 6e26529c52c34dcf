"""The local solve kernel: Schur back-substitution against the direct solves."""

import warnings

import numpy as np
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opfam.families import CoeffFn, HGrid, OperatorFamily
from opfam.local import (
    _min_norm_solve_stack,
    _probe_samples,
    family_local_spectrum_grid,
)
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
        # All 576 probe points share one chunk; only the hit is re-solved.
        assert pinv_stacks == [1]
        expected = np.full((8, 8), CLS_RESOLVENT, dtype=np.int8)
        for z in support:
            expected[cell(z)] = CLS_SPECTRUM
        np.testing.assert_array_equal(g.classes, expected)


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

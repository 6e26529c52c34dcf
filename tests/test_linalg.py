import numpy as np
import pytest

from opfam.errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    InputError,
    SingularMatrixError,
)
from opfam.linalg import (
    _decomp_defect,
    eigenvalues,
    op_norm,
    op_norms,
    solve,
    spectral_decomp,
)

SEED = 20240601


def test_op_norm_examples():
    assert op_norm(np.eye(3)) == 1.0
    assert op_norm(np.diag([0.0, -2.0])) == 2.0
    # Shift matrix: N*N = diag(0, 1), so the singular values are {0, 1}.
    assert op_norm([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(1.0, rel=1e-10)


def test_op_norm_rejects_bad_input():
    with pytest.raises(InputError):
        op_norm(np.ones((2, 3)))
    with pytest.raises(InputError):
        op_norm(np.array([[np.nan, 0], [0, 1]]))


def _stacked_svd_norms(stack):
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def test_op_norms_take_one_svd_per_run_of_equal_matrices(svd_mats):
    rng = np.random.default_rng(SEED + 9)
    a, b, c = (rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3)))
    signed = a.copy()
    signed[0, 0] = 0.0
    negzero = signed.copy()
    negzero[0, 0] = -0.0
    cases = [
        (np.stack([a, a, a, b, b, c, c, c]), 3),  # runs
        (np.stack([a, b, a, c, b]), 5),  # repeats that are not adjacent
        (np.stack([signed, negzero, negzero]), 2),  # only the sign of a zero differs
        (a[None], 1),
        (np.zeros((0, 3, 3), dtype=complex), 0),
    ]
    for stack, distinct in cases:
        want = _stacked_svd_norms(stack)
        svd_mats.clear()
        got = op_norms(stack)
        assert got.tobytes() == want.tobytes()
        assert sum(svd_mats) == distinct


def test_op_norms_of_a_stack_without_repeats_are_its_stacked_svd():
    rng = np.random.default_rng(SEED + 10)
    for d in (1, 2, 5):
        stack = rng.normal(size=(40, d, d)) + 1j * rng.normal(size=(40, d, d))
        assert op_norms(stack).tobytes() == _stacked_svd_norms(stack).tobytes()
        real = stack.real.copy()
        assert op_norms(real).tobytes() == _stacked_svd_norms(real).tobytes()


def _defect_loop(d, clusters):
    """One op_norm per defect matrix, folded by max as they come."""
    worst = op_norm(sum(c.projection for c in clusters) - np.eye(d))
    for i, ci in enumerate(clusters):
        worst = max(worst, op_norm(ci.projection @ ci.projection - ci.projection))
        npow = np.eye(d, dtype=complex)
        for _ in range(ci.multiplicity):
            npow = npow @ ci.nilpotent
        worst = max(worst, op_norm(npow))
        for cj in clusters[i + 1 :]:
            worst = max(worst, op_norm(ci.projection @ cj.projection))
    return worst


def test_decomp_defect_is_the_op_norm_loop_bit_for_bit():
    rng = np.random.default_rng(SEED + 11)
    for _ in range(30):
        d = int(rng.integers(1, 7))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        if rng.uniform() < 0.3:
            a = np.diag(rng.integers(-2, 3, d).astype(complex)) + np.eye(d, k=1)
        dec = spectral_decomp(a, cluster_tol=1e-3)
        defect = _decomp_defect(d, list(dec.clusters))
        assert defect == dec.defect
        loop = _defect_loop(d, dec.clusters)
        assert np.float64(defect).tobytes() == np.float64(loop).tobytes()


def test_solve_examples():
    assert np.allclose(solve(np.eye(2), [1, 2]), [1, 2])
    assert np.allclose(solve(np.diag([2.0, 4.0]), [2, 4]), [1, 1])
    # Back-substitution by hand: y2 = 1, y1 = 2 - y2 = 1.
    assert np.allclose(solve([[1, 1], [0, 1]], [2, 1]), [1, 1])


def test_solve_residual_bound(rng):
    for _ in range(100):
        d = int(rng.integers(2, 9))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=d) + 1j * rng.normal(size=d)
        y = solve(a, b)
        resid = np.linalg.norm(a @ y - b)
        assert resid <= 1e-12 * (op_norm(a) * np.linalg.norm(y) + np.linalg.norm(b))


def test_solve_singular_carries_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as err:
        solve(a, [1.0, 1.0])
    assert err.value.pivot >= 0.0
    with pytest.raises(DimensionMismatchError):
        solve(np.eye(2), [1.0, 2.0, 3.0])


_SOLVE_FINGERPRINT = """
import hashlib
import numpy as np
from opfam.linalg import op_norm, solve

rng = np.random.default_rng(%d)
digest = hashlib.sha256()
for d in range(2, 17):
    for _ in range(4):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=d) + 1j * rng.normal(size=d)
        y = solve(1.6 * op_norm(a) * np.eye(d) - a, b)
        digest.update(y.tobytes())
print(digest.hexdigest())
""" % SEED


def test_solve_bytes_independent_of_blas_threads(thread_fingerprint):
    # The same resolvent solves as sup02, d = 2..16, at 1 and at 4 threads.
    one = thread_fingerprint(_SOLVE_FINGERPRINT, 1)
    four = thread_fingerprint(_SOLVE_FINGERPRINT, 4)
    assert len(one) == 64
    assert one == four, "solve() results differ between 1 and 4 BLAS threads"


def test_eigenvalues_examples():
    assert np.allclose(eigenvalues(np.diag([1.0, 2.0, 3.0])), [1, 2, 3])
    assert np.allclose(eigenvalues([[0.0, 1.0], [0.0, 0.0]]), [0, 0])
    # Characteristic polynomial x^2 - 0.25.
    assert np.allclose(eigenvalues([[0.0, 1.0], [0.25, 0.0]]), [-0.5, 0.5])


def test_norm_inequalities_bulk():
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        a = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        b = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        na, nb = op_norm(a), op_norm(b)
        assert op_norm(a @ b) <= na * nb * (1 + 1e-9)
        assert op_norm(a + b) <= (na + nb) * (1 + 1e-9)


def test_neumann_series_converges_to_solve():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        a = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        lam = 1.7 * op_norm(a)
        b = rng.normal(size=d) + 1j * rng.normal(size=d)
        assert np.linalg.svd(lam * np.eye(d) - a, compute_uv=False)[-1] > 0
        y = solve(lam * np.eye(d) - a, b)
        partial = np.zeros(d, dtype=complex)
        term = b.astype(complex)
        for j in range(300):
            partial += term / lam ** (j + 1)
            term = a @ term
        assert np.linalg.norm(partial - y) <= 1e-6


def test_spectral_decomp_diag():
    dec = spectral_decomp(np.diag([1.0, 2.0]))
    assert len(dec.clusters) == 2
    p1, p2 = (c.projection for c in dec.clusters)
    assert np.allclose(p1, np.diag([1.0, 0.0]), atol=1e-10)
    assert np.allclose(p2, np.diag([0.0, 1.0]), atol=1e-10)
    for c in dec.clusters:
        assert op_norm(c.nilpotent) < 1e-10


def test_spectral_decomp_jordan_block():
    j = np.array([[0.0, 1.0], [0.0, 0.0]])
    dec = spectral_decomp(j)
    assert len(dec.clusters) == 1
    c = dec.clusters[0]
    assert abs(c.center) < 1e-7
    assert c.multiplicity == 2
    assert np.allclose(c.projection, np.eye(2), atol=1e-8)
    assert np.allclose(c.nilpotent, j, atol=1e-8)


def test_spectral_decomp_nonnormal_example():
    a = np.array([[1.0, 1.0], [0.0, 2.0]])
    dec = spectral_decomp(a)
    p1, p2 = (c.projection for c in dec.clusters)
    assert np.allclose(p1, [[1.0, -1.0], [0.0, 0.0]], atol=1e-9)
    assert np.allclose(p2, [[0.0, 1.0], [0.0, 1.0]], atol=1e-9)
    assert np.allclose(p1 + p2, np.eye(2), atol=1e-10)
    assert np.allclose(p1 @ p1, p1, atol=1e-10)


def test_spectral_decomp_invariants_random():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        while True:
            w = rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)
            gaps = [abs(w[i] - w[j]) for i in range(d) for j in range(i + 1, d)]
            if not gaps or min(gaps) >= 0.5:
                break
        v = np.eye(d) + 0.2 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        a = v @ np.diag(w) @ np.linalg.inv(v)
        dec = spectral_decomp(a, cluster_tol=1e-4)
        assert dec.defect <= 1e-7
        assert sum(c.multiplicity for c in dec.clusters) == d
        eigs = eigenvalues(a)
        for c in dec.clusters:
            assert min(abs(eigs - c.center)) <= 1e-4


def test_spectral_decomp_degenerate_raises():
    with pytest.raises(DegenerateSpectrumError):
        spectral_decomp(np.diag([0.0, 2e-4]), cluster_tol=1e-4)

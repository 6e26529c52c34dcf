import numpy as np
import pytest

from opfam.errors import InputError
from opfam.families import TO_ZERO, asymptotically_equivalent, commute_in_limit
from opfam.generators import (
    MAX_BLOCK,
    PAIR_KINDS,
    commuting_family_pair,
    commuting_toeplitz,
    draw_eigenvalues,
    generate_pair,
    random_diagonalizable,
    random_matrix,
    rng_for,
    supported_vector,
)
from opfam.linalg import op_norm


def test_generate_pair_deterministic():
    for kind in PAIR_KINDS:
        a = generate_pair(kind, 7, 3)
        b = generate_pair(kind, 7, 3)
        for (c1, m1), (c2, m2) in zip(a.f.terms + a.g.terms, b.f.terms + b.g.terms):
            assert c1 == c2
            assert np.array_equal(m1, m2)
        c = generate_pair(kind, 8, 3)
        assert c.kind == kind


def test_generate_pair_examples():
    p = generate_pair("scalar-vs-jordan", 1, 3)
    assert np.array_equal(p.f(0.5), 2.0 * np.eye(3))
    assert np.array_equal(p.g(0.5), 2.0 * np.eye(3) + np.eye(3, k=1))

    p = generate_pair("non-equivalent", 1, 2)
    assert np.array_equal(p.f(0.1), np.diag([0.0, 1.0]))
    assert np.array_equal(p.g(0.1), np.diag([0.0, 2.0]))

    with pytest.raises(InputError):
        generate_pair("mystery", 1, 2)


def test_null_difference_certificate(grid):
    for kind in ("null-difference", "h-perturbation", "exp-null", "local-shift"):
        p = generate_pair(kind, 11, 4)
        assert asymptotically_equivalent(p.f, p.g, grid).limit_verdict == TO_ZERO


def test_commuting_toeplitz_structure():
    rng = rng_for(3, 1)
    t, (n1, n2), _ = commuting_toeplitz(rng, 5, 2)
    assert op_norm(t @ n1 - n1 @ t) < 1e-12
    assert op_norm(t @ n2 - n2 @ t) < 1e-12
    assert op_norm(n1 @ n2 - n2 @ n1) < 1e-12
    power = np.eye(5, dtype=complex)
    for _ in range(5):
        power = power @ n1
    assert op_norm(power) < 1e-12


def test_commuting_toeplitz_block_sizes():
    # The returned sizes partition T and every N_k: both are exactly zero
    # outside the diagonal blocks.
    for seed in range(20):
        for dim in (1, 2, 5, 9):
            t, nilpotents, blocks = commuting_toeplitz(rng_for(seed, dim), dim, 2)
            assert sum(blocks) == dim
            assert all(1 <= b <= MAX_BLOCK for b in blocks)
            inside = np.zeros((dim, dim), dtype=bool)
            pos = 0
            for b in blocks:
                inside[pos : pos + b, pos : pos + b] = True
                pos += b
            for mat in (t, *nilpotents):
                assert not mat[~inside].any()


def test_commuting_family_pair(grid):
    f, g, _, _ = commuting_family_pair(rng_for(5, 101, 4), 4)
    assert commute_in_limit(f, g, grid).limit_verdict == TO_ZERO
    assert asymptotically_equivalent(f, g, grid).limit_verdict == TO_ZERO


def test_draw_eigenvalues_conditioning():
    rng = rng_for(1, 2)
    rect = (-3.0, 3.0, -3.0, 3.0)
    w = draw_eigenvalues(rng, 5, gap=1.0, rect=rect, n_cells=64)
    for i in range(5):
        for j in range(i + 1, 5):
            assert abs(w[i] - w[j]) >= 1.0
        for value, lo, hi in ((w[i].real, -3, 3), (w[i].imag, -3, 3)):
            pos = (value - lo) / (6.0 / 64)
            assert abs(pos - round(pos)) >= 0.35


def test_random_diagonalizable_and_support():
    rng = rng_for(9, 0)
    a, w, v = random_diagonalizable(rng, 4)
    assert np.allclose(sorted(np.linalg.eigvals(a).round(8)), sorted(w.round(8)), atol=1e-6)
    vinv = np.linalg.inv(v)
    projections = [np.outer(v[:, i], vinv[i, :]) for i in range(4)]
    x = supported_vector(rng, projections)
    assert all(np.linalg.norm(p @ x) >= 0.25 for p in projections)
    assert np.linalg.norm(x) == pytest.approx(1.0)


def test_random_matrix_draws_the_bytes_of_scale_times_re_plus_i_im():
    for scale in (1, 1.0, 0.3, 1e-3, 2.5, 1e300, 1e-300):
        for d in range(2, 9):
            rng, ref = np.random.default_rng(d), np.random.default_rng(d)
            for _ in range(20):
                got = random_matrix(rng, d, scale)
                re = ref.uniform(-1.0, 1.0, (d, d))
                im = ref.uniform(-1.0, 1.0, (d, d))
                assert got.tobytes() == (scale * (re + 1j * im)).tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state

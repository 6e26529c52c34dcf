import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opfam.bracket import (
    EPS_ZERO,
    EQUIVALENT,
    INCONCLUSIVE,
    MAX_BRACKET_ORDER,
    N_MAX,
    NOT_EQUIVALENT,
    OVERFLOW_LIMIT,
    bracket,
    bracket_binomials,
    bracket_norms,
    bracket_seq,
    brackets,
    qn_equivalent,
    root_test,
    _row_sums,
)
from opfam.errors import DimensionMismatchError, InputError
from opfam.generators import commuting_toeplitz
from opfam.linalg import op_norm

SEED = 777


def _jordan(lam, d):
    return lam * np.eye(d, dtype=complex) + np.eye(d, k=1, dtype=complex)


small_complex = arrays(
    np.complex128,
    (3, 3),
    elements=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=30, deadline=None)
@given(t=small_complex, s=small_complex)
def test_bracket_order_one_is_difference(t, s):
    assert np.allclose(bracket(t, s, 1), t - s, atol=1e-12)


def test_bracket_order_zero_is_identity():
    assert np.array_equal(bracket(np.ones((2, 2)), np.zeros((2, 2)), 0), np.eye(2))


def test_bracket_commuting_examples():
    t = 2.0 * np.eye(3)
    s = _jordan(2.0, 3)
    # Scalar T commutes, so the bracket collapses to (T - S)^n = (-N)^n.
    assert op_norm(bracket(t, s, 3)) == 0.0
    t2 = np.diag([0.0, 1.0])
    s2 = np.diag([0.0, 2.0])
    assert np.allclose(bracket(t2, s2, 5), np.diag([0.0, -1.0]))


def test_bracket_validates():
    with pytest.raises(DimensionMismatchError):
        bracket(np.eye(2), np.eye(3), 1)
    with pytest.raises(InputError):
        bracket(np.eye(2), np.eye(2), 65)


def test_recurrence_matches_binomial_sum():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        t = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        s = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        scale = op_norm(t) + op_norm(s)
        for n in range(1, 13):
            err = op_norm(bracket(t, s, n) - bracket_binomials(t, s, n)[n])
            assert err <= 1e-8 * scale**n


def test_bracket_seq_examples():
    t = 2.0 * np.eye(3)
    s = _jordan(2.0, 3)
    seq = bracket_seq(t, s, 8)
    assert seq.roots[0] == pytest.approx(1.0)
    assert seq.roots[1] == pytest.approx(1.0)
    assert np.all(seq.roots[2:] == 0.0)
    assert np.isfinite(seq.norms).all() and np.isfinite(seq.rev_norms).all()

    same = bracket_seq(t, t, 8)
    assert np.all(same.norms == 0.0)

    d1, d2 = np.diag([0.0, 1.0]), np.diag([0.0, 2.0])
    flat = bracket_seq(d1, d2, 8)
    assert np.allclose(flat.roots, 1.0)
    assert np.allclose(flat.rev_roots, 1.0)

    with pytest.raises(InputError):
        bracket_seq(t, s, 3)


def test_qn_equivalent_verdicts():
    t = 2.0 * np.eye(3)
    assert qn_equivalent(t, _jordan(2.0, 3)).verdict == EQUIVALENT
    assert qn_equivalent(np.diag([0.0, 1.0]), np.diag([0.0, 2.0])).verdict == NOT_EQUIVALENT
    rng = np.random.default_rng(SEED + 1)
    a = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
    assert qn_equivalent(a, a).verdict == EQUIVALENT


def test_qn_scalar_shift_control():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(5):
        d = int(rng.integers(2, 6))
        t = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        c = 0.5 + rng.uniform(0, 1)
        # Bracket is (-c)^n I: roots are exactly |c| at every order.
        assert qn_equivalent(t, t + c * np.eye(d)).verdict == NOT_EQUIVALENT


def test_qn_inconclusive_zone():
    t = np.zeros((2, 2))
    s = 0.1 * np.eye(2)
    rep = qn_equivalent(t, s)
    assert rep.verdict == INCONCLUSIVE
    assert 0.05 <= rep.final_root <= 0.2


def test_n_max_is_bounded_by_the_root_test_window():
    t = 2.0 * np.eye(3)
    s = _jordan(2.0, 3)
    message = "n_max must be >= 5 (the root-test window), got 4"
    for call in (lambda: bracket_seq(t, s, 4).verdict(), lambda: root_test(np.ones(4))):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == message
    assert bracket_seq(t, s, 4).n_max == 4
    assert bracket_seq(t, s, 5).verdict().verdict == EQUIVALENT


def _reference_norms(t, s, n_max):
    """One pair at a time, one SVD per order: the loop the stacked kernel replaced."""
    norms = np.zeros(n_max)
    b = np.eye(t.shape[0], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_max):
            b = t @ b - b @ s
            value = op_norm(b) if np.isfinite(b).all() else float("inf")
            if not value <= OVERFLOW_LIMIT:
                norms[n:] = float("inf")
                return norms, False
            norms[n] = value
            if value < EPS_ZERO:
                norms[n:] = 0.0
                break
    return norms, True


def _assert_matches_reference(ts, ss, n_max):
    """Rows match the loop bit for bit, and are finite exactly where it did not overflow."""
    norms = bracket_norms(ts, ss, n_max)
    assert norms.shape == (len(ts), n_max)
    for i in range(len(ts)):
        ref, ref_ok = _reference_norms(ts[i], ss[i], n_max)
        assert norms[i].tobytes() == ref.tobytes(), f"row {i}"
        assert bool(np.isfinite(norms[i]).all()) == ref_ok, f"row {i}"
    return norms


def _random_stack(rng, count, d, scale=1.0):
    re = rng.uniform(-1, 1, (count, d, d))
    return scale * (re + 1j * rng.uniform(-1, 1, (count, d, d)))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_stacked_norms_match_the_sequential_loop(d):
    rng = np.random.default_rng(SEED + d)
    ts = _random_stack(rng, 8, d, scale=0.5)
    ss = _random_stack(rng, 8, d, scale=0.5)
    _assert_matches_reference(ts, ss, 40)
    # Both operand orders in one stack, as bracket_seq runs them.
    seq = bracket_seq(ts[0], ss[0], 40)
    assert seq.norms.tobytes() == _reference_norms(ts[0], ss[0], 40)[0].tobytes()
    assert seq.rev_norms.tobytes() == _reference_norms(ss[0], ts[0], 40)[0].tobytes()


@pytest.mark.parametrize("d", [2, 4, 6])
def test_exact_zero_rows_are_cut_to_zero(d):
    rng = np.random.default_rng(SEED + 10 * d)
    t, (n,), _ = commuting_toeplitz(rng, d, 1)
    r = _random_stack(rng, 2, d)
    # Rows: (T, T+N) and (T+N, T) vanish, the random pair does not, and
    # (T, T) is zero from order 1.
    ts = np.stack([t, t + n, r[0], t])
    ss = np.stack([t + n, t, r[1], t])
    norms = _assert_matches_reference(ts, ss, 20)
    assert np.isfinite(norms).all()
    for row in (0, 1, 3):
        assert norms[row, -1] == 0.0
    assert np.all(norms[3] == 0.0)
    assert np.all(norms[2] > 0.0)
    # A stack whose brackets all vanish stops early and still gives zeros.
    _assert_matches_reference(ts[[0, 1, 3]], ss[[0, 1, 3]], 20)
    assert not brackets(t, t, 5)[1:].any()


def test_an_overflowing_row_leaves_the_finite_rows_alone():
    rng = np.random.default_rng(SEED + 3)
    big = np.diag([1e120, 1.0]).astype(complex)
    # (huge, huge.T) has a non-finite order-2 bracket (inf - inf), not just a large one.
    huge = np.array([[1e200, 1e200], [0.0, -1e200]], dtype=complex)
    ts = np.stack([big, _random_stack(rng, 1, 2)[0], huge])
    ss = np.stack([np.zeros((2, 2)), _random_stack(rng, 1, 2)[0], huge.T])
    norms = _assert_matches_reference(ts, ss, 30)
    assert np.isfinite(norms).all(-1).tolist() == [False, True, False]
    assert norms[0, 1] == 1e240 and np.all(np.isinf(norms[0, 2:]))
    assert norms[2, 0] == op_norm(huge - huge.T) and np.all(np.isinf(norms[2, 1:]))
    with np.errstate(all="raise"):
        bracket_norms(ts, ss, 30)  # the inf / nan of the dead rows stay quiet


def test_an_overflowing_pair_is_inconclusive_quietly():
    t = np.diag([1e120, 1.0])
    s = np.zeros((2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seq = bracket_seq(t, s, N_MAX)
        reps = [seq.verdict(), qn_equivalent(t, s), qn_equivalent(s, t)]
    assert np.isinf(seq.norms[2:]).all() and np.isinf(seq.rev_roots[2:]).all()
    for rep in reps:
        assert rep.verdict == INCONCLUSIVE
        assert rep.final_root == float("inf") and rep.trend == float("inf")
        assert rep.diagnostics.count("numerical overflow in bracket norms") == 2


def test_a_finite_bracket_whose_svd_gives_nan_counts_as_overflow():
    # The order-3 brackets are finite, but their SVD overflows to nan.
    t = np.array([[2 + 2j, 1 + 1j], [2 + 1.5j, 1 + 1j]])
    s = np.array([[2 + 2j, 9e153], [2 + 1.5j, 1 + 1j]])
    assert np.isfinite(brackets(t, s, 3)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seq = bracket_seq(t, s, 12)
    for norms in (seq.norms, seq.rev_norms):
        assert np.isfinite(norms[:2]).all() and np.isposinf(norms[2:]).all()
    assert seq.verdict().verdict == INCONCLUSIVE
    _assert_matches_reference(np.stack([t, s]), np.stack([s, t]), 12)


@pytest.mark.parametrize("n_max", [0, 1])
def test_lowest_orders(n_max):
    rng = np.random.default_rng(SEED + 4)
    ts = _random_stack(rng, 3, 3)
    ss = _random_stack(rng, 3, 3)
    norms = _assert_matches_reference(ts, ss, n_max)
    assert norms.shape == (3, n_max) and np.isfinite(norms).all()
    stack = brackets(ts, ss, n_max)
    assert stack.shape == (3, n_max + 1, 3, 3)
    assert np.array_equal(stack[:, 0], np.broadcast_to(np.eye(3), (3, 3, 3)))


def test_single_pair_brackets_are_rows_of_the_stacks():
    rng = np.random.default_rng(SEED + 5)
    ts = _random_stack(rng, 6, 4)
    ss = _random_stack(rng, 6, 4)
    rec = brackets(ts, ss, 12)
    binom = bracket_binomials(ts, ss, 12)
    for i in range(6):
        for n in range(13):
            assert bracket(ts[i], ss[i], n).tobytes() == rec[i, n].tobytes()
            assert bracket_binomials(ts[i], ss[i], n)[n].tobytes() == binom[i, n].tobytes()


def test_bracket_orders_are_bounded():
    t = 2.0 * np.eye(3)
    s = _jordan(2.0, 3)
    for n_max in (-1, MAX_BRACKET_ORDER + 1):
        with pytest.raises(InputError):
            bracket_norms(t, s, n_max)
    for n_max in (3, MAX_BRACKET_ORDER + 1, 5000):
        with pytest.raises(InputError):
            bracket_seq(t, s, n_max)
    assert bracket_seq(t, s, MAX_BRACKET_ORDER).n_max == MAX_BRACKET_ORDER
    with pytest.raises(InputError, match="finite"):
        brackets(np.stack([t, np.full((3, 3), np.inf)]), np.stack([s, s]), 3)
    with pytest.raises(DimensionMismatchError):
        bracket_norms(np.stack([t, t]), t, 3)


def test_a_single_column_sums_to_the_bits_of_the_row_loop():
    def loop(a):
        total = np.zeros(a.shape[1:])
        for row in a:
            total += row
        return total

    rng = np.random.default_rng(SEED + 6)
    for trial in range(3000):
        m = 1 + trial % 59
        a = rng.normal(size=(m, 1)) * 10.0 ** rng.integers(-5, 6, (m, 1))
        # Zero rows of either sign; every fourth array is all -0.0.
        a[rng.random(m) < 0.2] = 0.0
        a[rng.random(m) < 0.2] = -0.0
        if trial % 4 == 0:
            a[:] = -0.0
        assert _row_sums(a).tobytes() == loop(a).tobytes(), a.ravel()
    wide = rng.normal(size=(7, 3))
    assert _row_sums(wide).tobytes() == loop(wide).tobytes()


_BRACKET_FINGERPRINT = """
import hashlib
import numpy as np
from opfam.bracket import bracket_seq
from opfam.families import HGrid, asym_qn_equivalent
from opfam.generators import generate_pair

rng = np.random.default_rng(%d)
digest = hashlib.sha256()
for d in range(2, 9):
    for _ in range(3):
        t = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        s = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        seq = bracket_seq(0.5 * t, 0.5 * s, 40)
        digest.update(seq.norms.tobytes() + seq.rev_norms.tobytes())
kinds = ("h-perturbation", "null-difference", "exp-null", "local-shift", "commuting-nilpotent")
for k, kind in enumerate(kinds):
    pair = generate_pair(kind, 40 + k, 2 + k)
    rep = asym_qn_equivalent(pair.f, pair.g, HGrid())
    digest.update(repr(rep).encode())
print(digest.hexdigest())
""" % SEED


def test_bracket_bytes_independent_of_blas_threads(thread_fingerprint):
    # bracket_seq norms, d = 2..8, and asym_qn_equivalent reports of the
    # sup06 / sup07 pair kinds, at 1 and at 4 threads.
    one = thread_fingerprint(_BRACKET_FINGERPRINT, 1)
    four = thread_fingerprint(_BRACKET_FINGERPRINT, 4)
    assert len(one) == 64
    assert one == four, "bracket results differ between 1 and 4 BLAS threads"

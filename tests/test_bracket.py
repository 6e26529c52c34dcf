import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opfam.bracket import (
    EQUIVALENT,
    INCONCLUSIVE,
    NOT_EQUIVALENT,
    bracket,
    bracket_binomial,
    bracket_seq,
    qn_equivalent,
    root_test,
)
from opfam.errors import DimensionMismatchError, InputError
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
            err = op_norm(bracket(t, s, n) - bracket_binomial(t, s, n))
            assert err <= 1e-8 * scale**n


def test_bracket_seq_examples():
    t = 2.0 * np.eye(3)
    s = _jordan(2.0, 3)
    seq = bracket_seq(t, s, 8)
    assert seq.roots[0] == pytest.approx(1.0)
    assert seq.roots[1] == pytest.approx(1.0)
    assert np.all(seq.roots[2:] == 0.0)
    assert not seq.overflow

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
    for call in (lambda: qn_equivalent(t, s, 4), lambda: root_test(np.ones(4))):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == message
    assert bracket_seq(t, s, 4).n_max == 4
    assert qn_equivalent(t, s, 5).verdict == EQUIVALENT

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from opfam import families
from opfam.bracket import EQUIVALENT, NOT_EQUIVALENT
from opfam.errors import DimensionMismatchError, InputError
from opfam.families import (
    BOUNDED_POSITIVE,
    DECAY_CERT_FIT,
    DECAY_CERT_SLOPE,
    EPS_TAIL,
    INCONCLUSIVE,
    TO_ZERO,
    TREND_FLAT_TOL,
    TREND_GROWTH_TOL,
    TAIL_H_MAX,
    UNBOUNDED,
    UNBOUNDED_MIN,
    ZERO_FLOOR,
    CoeffFn,
    HGrid,
    OperatorFamily,
    VectorFamily,
    asym_qn_equivalent,
    asymptotically_equivalent,
    commute_in_limit,
    is_null_family,
    limsup_norm,
    module_action,
    norm_samples,
    quotient_norm_bounds,
    tail_stats,
    verdict_arrays,
    _inner_limit_estimates,
)
from opfam.local import (
    family_local_probe,
    family_local_spectrum_grid,
    local_extension_uniqueness_check,
    local_spectral_space_member,
)
from opfam.spectra import (
    family_spectrum_grid,
    probe_resolvent,
    resolvent_identity_residual,
    resolvent_uniqueness_residual,
    spectral_radius_bound,
    truncated_resolvent_family,
)

SEED = 31415


def _rand(rng, d):
    return rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))


def test_coeff_catalog():
    assert CoeffFn.pow_h(0.0) == CoeffFn.const()
    c = CoeffFn.pow_h(2.0) * CoeffFn.exp_inv(1.0)
    assert c.eval_many([0.5])[0] == pytest.approx(0.25 * np.exp(-2.0))
    assert c.is_null is True
    assert CoeffFn.const().is_null is False
    # Catalog functions all bounded by 1 on (0, 1].
    for fn in (CoeffFn.const(), CoeffFn.pow_h(3.0), CoeffFn.exp_inv(0.5)):
        assert fn.sup_bound <= 1.0
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InputError):
            CoeffFn.pow_h(bad)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(InputError):
            CoeffFn.exp_inv(bad)


def test_hgrid_validation_and_parse():
    g = HGrid()
    assert len(g.samples()) == 40
    assert np.all(np.diff(g.samples()) < 0)
    assert HGrid.parse("1:0.5:40:6") == g
    with pytest.raises(InputError):
        HGrid(tail=2)
    with pytest.raises(InputError):
        HGrid(ratio=1.5)
    with pytest.raises(InputError):
        HGrid.parse("1:0.5:40")


def test_hgrid_tail_must_approach_zero():
    # The largest accepted tail sample here is 0.5**24, about 6e-8.
    for g in (HGrid(), HGrid(tail=7), HGrid(count=40, tail=9), HGrid(count=44)):
        assert g.tail_samples()[0] <= TAIL_H_MAX
    for text in ("1:0.5:30:6", "1:0.5:32:6", "1:0.5:40:9", "1:0.6:50:6", "1:0.25:20:6"):
        assert HGrid.parse(text).tail_samples()[0] <= 2.0**-24
    # The bound lies between 2**-10 and 2**-9.
    for text in ("1:0.5:30:30", "1:0.999999:30:6", "1:0.5:15:6"):
        with pytest.raises(InputError, match="the tail must approach h -> 0"):
            HGrid.parse(text)
    assert HGrid.parse("1:0.5:16:6").tail_samples()[0] == 2.0**-10


def test_hgrid_samples_are_computed_once_per_grid_and_read_only():
    g = HGrid(count=16, tail=4)
    assert g.samples() is g.samples()
    assert g.samples().tobytes() == (1.0 * 0.5 ** np.arange(16)).tobytes()
    assert g.tail_samples().tobytes() == g.samples()[-4:].tobytes()
    assert not g.samples().flags.writeable and not g.tail_samples().flags.writeable
    assert g == HGrid(count=16, tail=4) and hash(g) == hash(HGrid(count=16, tail=4))


def test_hgrid_rejects_underflowing_samples():
    # 0.5**1022 is the smallest normal float; one more halving is subnormal.
    assert HGrid(count=1023).samples()[-1] == np.finfo(float).tiny
    for count in (1024, 1100):
        with pytest.raises(InputError):
            HGrid(count=count)


def test_tail_stats_verdicts(grid):
    k = np.arange(40)
    decaying = 0.5**k
    assert tail_stats(decaying[-6:]).limit_verdict == TO_ZERO
    flat = np.full(40, 2.0)
    assert tail_stats(flat[-6:]).limit_verdict == BOUNDED_POSITIVE
    growing = 2.0**k
    assert tail_stats(growing[-6:]).limit_verdict == UNBOUNDED
    # Flat but tiny: cannot distinguish a small positive limit from decay.
    assert tail_stats(np.full(40, 1e-9)[-6:]).limit_verdict == INCONCLUSIVE
    # Exactly zero tails are at the floor: trend reported as -inf.
    zeros = tail_stats(np.zeros(40)[-6:])
    assert zeros.limit_verdict == TO_ZERO
    assert zeros.tail_trend == float("-inf")


def test_tail_stats_invariant(grid):
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        vals = np.abs(rng.normal(size=40)) * 10.0 ** rng.integers(-12, 2)
        st = tail_stats(vals[-6:])
        if st.limit_verdict == TO_ZERO:
            assert st.tail_max < st.eps_tail
            assert st.tail_trend < 0


def _polyfit_trend(tail: np.ndarray) -> float:
    """Reference slope: least-squares fit of log10(tail) per grid step."""
    logs = np.log10(np.maximum(tail, 1e-300))
    return float(np.polyfit(np.arange(len(tail), dtype=float), logs, 1)[0])


def _documented_verdict(tail_max, tail_min, trend, eps_tail=EPS_TAIL):
    """The tail rule as the README states it, first match wins."""
    if tail_max < eps_tail and trend < 0.0:
        return TO_ZERO
    if tail_min >= eps_tail and abs(trend) <= TREND_FLAT_TOL:
        return BOUNDED_POSITIVE
    if trend >= TREND_GROWTH_TOL and tail_max >= UNBOUNDED_MIN:
        return UNBOUNDED
    return INCONCLUSIVE


TREND_TOL = 1e-10
THRESHOLDS = (0.0, TREND_FLAT_TOL, -TREND_FLAT_TOL, TREND_GROWTH_TOL)

# Tails spanning 1e-300..1e300: free log10 values, and near-geometric
# tails whose slope sits at or next to one of the trend thresholds.
_free_tails = st.lists(st.floats(-300.0, 300.0), min_size=3, max_size=12).map(
    lambda logs: 10.0 ** np.array(logs)
)


def _near_geometric(start, slope, jitter, m):
    k = np.arange(m)
    return 10.0 ** (start + slope * k + jitter * np.sin(k))


_threshold_tails = st.builds(
    _near_geometric,
    st.floats(-300.0, 290.0),
    st.sampled_from(THRESHOLDS).flatmap(
        lambda c: st.floats(c - 1e-3, c + 1e-3) | st.just(c)
    ),
    st.floats(0.0, 1e-4) | st.just(0.0),
    st.integers(3, 12),
)


@settings(max_examples=400, deadline=None)
@given(_free_tails | _threshold_tails)
def test_tail_rule_matches_polyfit_reference(tail):
    stats = tail_stats(tail)
    if tail.max() <= ZERO_FLOOR:
        assert stats.tail_trend == float("-inf")
        return
    ref = _polyfit_trend(tail)
    assert abs(stats.tail_trend - ref) <= TREND_TOL
    if min(abs(ref - c) for c in THRESHOLDS) > TREND_TOL:
        expected = _documented_verdict(tail.max(), tail.min(), ref)
        assert stats.limit_verdict == expected


def _inner_limit_reference(vals):
    """One column of `_inner_limit_estimates` by an explicit np.polyfit line."""
    if vals.max() <= ZERO_FLOOR:
        return 0.0, "floor", -np.inf, 0.0
    logs = np.log10(np.maximum(vals, 1e-300))
    k = np.arange(len(vals), dtype=float)
    coef = np.polyfit(k, logs, 1)
    dev = float(np.abs(logs - np.polyval(coef, k)).max())
    if coef[0] < DECAY_CERT_SLOPE and dev <= DECAY_CERT_FIT:
        return 0.0, "decay", coef[0], dev
    return float(vals.max()), "flat", coef[0], dev


def test_inner_limit_estimates_match_a_per_column_polyfit():
    rng = np.random.default_rng(SEED)
    k = np.arange(6)[:, None]
    n = 400
    slopes = rng.choice([-2.0, -0.3, -0.05, 0.0, 0.02], n) + rng.normal(0.0, 0.01, n)
    jitter = rng.choice([0.0, 0.1, 0.3, 1.0], n) * rng.normal(size=(6, n))
    start = rng.uniform(-14.0, 2.0, n)
    per_h = 10.0 ** (start + slopes * k + jitter)
    per_h[:, :10] = 0.0
    estimates, at_floor, decays = _inner_limit_estimates(per_h, ZERO_FLOOR)
    seen = set()
    for j in range(n):
        value, label, slope, dev = _inner_limit_reference(per_h[:, j])
        if abs(slope - DECAY_CERT_SLOPE) < 1e-9 or abs(dev - DECAY_CERT_FIT) < 1e-9:
            continue
        seen.add(label)
        assert estimates[j] == value
        assert (at_floor[j], decays[j]) == (label == "floor", label == "decay")
    assert seen == {"floor", "decay", "flat"}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, ZERO_FLOOR), min_size=3, max_size=12))
def test_tail_below_floor_reports_minus_inf(values):
    stats = tail_stats(values)
    assert stats.tail_trend == float("-inf")
    assert stats.limit_verdict == TO_ZERO


# Tail samples from 1e-300 to 1e6, with exact zeros and values at the floor.
_samples = st.floats(-300.0, 6.0).map(lambda e: 10.0**e) | st.sampled_from(
    [0.0, ZERO_FLOOR]
)
_sample_arrays = st.tuples(st.integers(3, 40), st.integers(1, 6)).flatmap(
    lambda shape: hnp.arrays(float, shape, elements=_samples)
)


@settings(max_examples=300, deadline=None)
@given(_sample_arrays)
def test_a_column_has_the_same_verdict_bits_alone_and_in_any_batch(values):
    batch = verdict_arrays(values, EPS_TAIL, ZERO_FLOOR)

    def assert_same(got, cols):
        for a, b in zip(got, batch):
            assert a.tobytes() == b[cols].tobytes()

    for layout in (np.asfortranarray(values), np.ascontiguousarray(values.T).T):
        assert_same(verdict_arrays(layout, EPS_TAIL, ZERO_FLOOR), slice(None))
    for k in range(values.shape[1]):
        alone = values[:, k].copy()[:, None]
        assert_same(verdict_arrays(alone, EPS_TAIL, ZERO_FLOOR), slice(k, k + 1))


def _verdicts_and_warnings(values):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        verdicts = verdict_arrays(values, EPS_TAIL, ZERO_FLOOR)
    return verdicts, {w.category for w in caught}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(3, 12),
    st.lists(
        _samples | st.sampled_from([0.0, 5e-324, 1e300, float("inf")]), min_size=1, max_size=4
    ),
)
def test_equal_rows_take_the_verdict_bits_of_the_log_fit(m, row):
    # Bytewise-equal rows take the one-row path alone and the log fit in a
    # batch with a column that moves; both give the same bytes and warnings.
    equal = np.tile(row, (m, 1))
    batch = np.hstack([equal, np.arange(1.0, m + 1.0)[:, None]])
    alone, alone_warned = _verdicts_and_warnings(equal)
    fitted, fit_warned = _verdicts_and_warnings(batch)
    for a, b in zip(alone, fitted):
        assert a.tobytes() == b[: len(row)].tobytes()
    assert alone_warned == fit_warned


def test_limsup_norm_examples(grid):
    a = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    assert limsup_norm(OperatorFamily.constant(a), grid) == pytest.approx(
        np.linalg.norm(a, 2)
    )
    ident = np.eye(2, dtype=complex)
    fam = OperatorFamily.from_terms(
        2, [(CoeffFn.const(), ident), (CoeffFn.exp_inv(1.0), ident)]
    )
    assert limsup_norm(fam, grid) == pytest.approx(1.0, abs=1e-9)
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    hn = OperatorFamily.from_terms(2, [(CoeffFn.pow_h(1.0), n)])
    tail_first = grid.samples()[-grid.tail]
    assert limsup_norm(hn, grid) == pytest.approx(tail_first, rel=1e-12)


def test_limsup_monotone_in_tail(grid):
    rng = np.random.default_rng(SEED)
    fam = OperatorFamily.from_terms(
        3,
        [(CoeffFn.const(), _rand(rng, 3)), (CoeffFn.pow_h(1.0), _rand(rng, 3))],
    )
    samples = norm_samples(fam, grid)
    estimates = [samples[-m:].max() for m in range(3, 20)]
    assert all(b >= a for a, b in zip(estimates, estimates[1:]))
    assert max(estimates) <= samples.max()


def _catalog_terms(rng, shape):
    def draw():
        return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)

    return [
        (CoeffFn.const(), draw()),
        (CoeffFn.pow_h(float(rng.integers(1, 4))), draw()),
        (CoeffFn.exp_inv(float(rng.integers(1, 4))), draw()),
    ]


@pytest.mark.parametrize("h_grid", [HGrid(), HGrid(0.9, 0.7, 30, 5)])
def test_limsup_norm_is_the_tail_max_of_the_norm_samples(h_grid):
    rng = np.random.default_rng(SEED + 7)
    for d in range(2, 7):
        for fam in (
            OperatorFamily.from_terms(d, _catalog_terms(rng, (d, d))),
            VectorFamily.from_terms(d, _catalog_terms(rng, (d,))),
        ):
            expected = norm_samples(fam, h_grid)[-h_grid.tail :].max()
            assert limsup_norm(fam, h_grid) == expected


def test_limsup_norm_rejects_an_overflowing_tail(grid):
    for big in (_overflowing_family(), VectorFamily.constant(np.full(2, 1e308))):
        with pytest.raises(InputError, match="overflow"):
            limsup_norm(big, grid)


def test_is_null_family(grid):
    rng = np.random.default_rng(SEED)
    a = _rand(rng, 3)
    assert (
        is_null_family(
            OperatorFamily.from_terms(3, [(CoeffFn.pow_h(1.0), a)]), grid
        ).limit_verdict
        == TO_ZERO
    )
    assert (
        is_null_family(OperatorFamily.constant(a), grid).limit_verdict
        == BOUNDED_POSITIVE
    )
    assert (
        is_null_family(
            OperatorFamily.from_terms(3, [(CoeffFn.exp_inv(3.0), a)]), grid
        ).limit_verdict
        == TO_ZERO
    )
    # Cancelling constant terms merge away, so the certificate is honest.
    cancel = OperatorFamily.from_terms(
        3, [(CoeffFn.const(), a), (CoeffFn.const(), -a), (CoeffFn.pow_h(1.0), a)]
    )
    assert is_null_family(cancel, grid).limit_verdict == TO_ZERO


def test_null_test_same_rule_for_vector_families(grid):
    # A certified non-null term persists, a certified null term decays, for
    # operator and vector families alike.
    for coeff, expected in ((CoeffFn.const(), BOUNDED_POSITIVE), (CoeffFn.pow_h(1), TO_ZERO)):
        op = is_null_family(OperatorFamily.from_terms(2, [(coeff, np.eye(2))]), grid)
        vec = is_null_family(
            VectorFamily.from_terms(2, [(coeff, np.array([1.0, 0.0]))]), grid
        )
        assert vec.limit_verdict == op.limit_verdict == expected
        assert vec.note == op.note


def test_a_tiny_term_is_not_a_zero_term():
    # The 2-norm of [1e-200, 0] underflows to 0; the term is still nonzero,
    # for vector and operator families alike.
    tiny = np.array([1e-200, 0.0])
    for cls, arr in ((VectorFamily, tiny), (OperatorFamily, np.diag(tiny))):
        fam = cls.from_terms(2, [(CoeffFn.const(), arr), (CoeffFn.pow_h(1.0), 1e200 * arr)])
        assert not fam.null_certificate(), cls
        assert len(fam.canonical().terms) == 2, cls


def test_asymptotic_equivalence_examples(grid):
    rng = np.random.default_rng(SEED)
    a, b, c, n = (_rand(rng, 3) for _ in range(4))
    f = OperatorFamily.constant(a)
    g = f + OperatorFamily.from_terms(3, [(CoeffFn.pow_h(1.0), b)])
    assert asymptotically_equivalent(f, g, grid).limit_verdict == TO_ZERO
    g2 = f + OperatorFamily.constant(n)
    assert asymptotically_equivalent(f, g2, grid).limit_verdict == BOUNDED_POSITIVE
    f3 = f + OperatorFamily.from_terms(3, [(CoeffFn.exp_inv(1.0), b)])
    g3 = f + OperatorFamily.from_terms(3, [(CoeffFn.pow_h(2.0), c)])
    assert asymptotically_equivalent(f3, g3, grid).limit_verdict == TO_ZERO
    with pytest.raises(DimensionMismatchError):
        asymptotically_equivalent(f, OperatorFamily.constant(np.eye(2)), grid)


def test_asym_qn_equivalent_examples(grid):
    f = OperatorFamily.constant(2.0 * np.eye(3))
    g = OperatorFamily.constant(2.0 * np.eye(3) + np.eye(3, k=1))
    assert asym_qn_equivalent(f, g, grid).verdict == EQUIVALENT
    d1 = OperatorFamily.constant(np.diag([0.0, 1.0]))
    d2 = OperatorFamily.constant(np.diag([0.0, 2.0]))
    assert asym_qn_equivalent(d1, d2, grid).verdict == NOT_EQUIVALENT
    # Bounded asymptotically equivalent families are qn equivalent.
    rng = np.random.default_rng(SEED)
    a, b = _rand(rng, 4), _rand(rng, 4)
    fa = OperatorFamily.constant(a)
    fb = fa + OperatorFamily.from_terms(4, [(CoeffFn.pow_h(1.0), b)])
    assert asym_qn_equivalent(fa, fb, grid).verdict == EQUIVALENT


def test_an_overflowing_constant_pair_is_inconclusive_quietly(grid):
    f = OperatorFamily.constant(np.diag([1e120, 1.0]))
    g = OperatorFamily.constant(np.zeros((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reps = [asym_qn_equivalent(f, g, grid), asym_qn_equivalent(g, f, grid)]
    for rep in reps:
        assert rep.verdict == INCONCLUSIVE
        assert rep.final_root == float("inf") and rep.trend == float("inf")
        for tag in ("F,G", "G,F"):
            assert f"order ({tag}): numerical overflow in bracket norms" in rep.diagnostics


def test_quotient_norm_bounds(grid):
    rng = np.random.default_rng(SEED)
    a = _rand(rng, 3)
    qb = quotient_norm_bounds(OperatorFamily.constant(a), grid)
    assert qb.lower == pytest.approx(qb.upper, abs=1e-12)
    assert qb.lower == pytest.approx(np.linalg.norm(a, 2), rel=1e-10)

    ident = np.eye(2, dtype=complex)
    fam = OperatorFamily.from_terms(
        2, [(CoeffFn.const(), ident), (CoeffFn.exp_inv(1.0), ident)]
    )
    qb = quotient_norm_bounds(fam, grid)
    assert (qb.lower, qb.upper) == (pytest.approx(1.0, abs=1e-9), pytest.approx(1.0, abs=1e-9))
    assert qb.raw_upper == pytest.approx(1.0 + np.exp(-1.0), abs=1e-9)

    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    qb = quotient_norm_bounds(OperatorFamily.from_terms(2, [(CoeffFn.pow_h(1.0), n)]), grid)
    assert qb.upper == 0.0
    assert qb.lower <= 1e-7


def _overflowing_family():
    # Finite entries whose norms and products overflow to inf.
    return OperatorFamily.constant(np.full((2, 2), 1e308))


def test_commute_in_limit_rejects_an_overflowing_family(grid):
    big = _overflowing_family()
    for other in (OperatorFamily.constant(np.diag([1.0, 2.0])), big):
        with pytest.raises(InputError, match="overflow"):
            commute_in_limit(big, other, grid)


def test_norm_tests_reject_an_overflowing_family(grid):
    big = _overflowing_family()
    with pytest.raises(InputError, match="overflow"):
        is_null_family(big, grid)
    with pytest.raises(InputError, match="overflow"):
        quotient_norm_bounds(big, grid)


def test_null_and_commutation_tests_evaluate_the_tail_alone(monkeypatch):
    grid = HGrid(count=40, tail=9)
    sizes = []

    def counting(fam, grid, tail, _original=families._grid_eval):
        stack, norms = _original(fam, grid, tail)
        sizes.append(len(stack))
        return stack, norms

    monkeypatch.setattr(families, "_grid_eval", counting)
    # Norms overflow at h = 1 only, outside the tail.
    big = np.diag([1e308, 0.0])
    f = OperatorFamily.from_terms(2, [(CoeffFn.const(), big), (CoeffFn.pow_h(1.0), big)])
    g = OperatorFamily.constant(np.eye(2, k=1))
    v = VectorFamily.constant(np.array([1.0, 0.0]))
    assert is_null_family(f, grid).limit_verdict == BOUNDED_POSITIVE
    assert is_null_family(v, grid).limit_verdict == BOUNDED_POSITIVE
    assert asymptotically_equivalent(f, f, grid).limit_verdict == TO_ZERO
    assert commute_in_limit(f, g, grid).limit_verdict == BOUNDED_POSITIVE
    # One evaluation per family: f, v, f - f and g.
    assert sizes == [grid.tail] * 4


def test_commute_in_limit_examples(grid):
    rng = np.random.default_rng(SEED)
    a = _rand(rng, 3)
    p = OperatorFamily.constant(a @ a + 2 * a + np.eye(3))
    assert commute_in_limit(OperatorFamily.constant(a), p, grid).limit_verdict == TO_ZERO
    d1 = OperatorFamily.constant(np.diag([1.0, 2.0, 3.0]))
    d2 = OperatorFamily.constant(np.diag([0.0, 1.0, -1.0]))
    assert commute_in_limit(d1, d2, grid).limit_verdict == TO_ZERO
    j = OperatorFamily.constant(np.eye(2, k=1))
    d = OperatorFamily.constant(np.diag([1.0, 2.0]))
    stats = commute_in_limit(j, d, grid)
    assert stats.limit_verdict == BOUNDED_POSITIVE
    assert stats.tail_max == pytest.approx(1.0)


def test_module_action(grid):
    rng = np.random.default_rng(SEED)
    f = OperatorFamily.constant(2.0 * np.eye(2))
    v = VectorFamily.constant(np.array([1.0, 0.0]))
    out = module_action(f, v, grid)
    assert np.allclose(out(0.25), [2.0, 0.0])

    hi = OperatorFamily.from_terms(2, [(CoeffFn.pow_h(1.0), np.eye(2))])
    out = module_action(hi, v, grid)
    assert is_null_family(out, grid).limit_verdict == TO_ZERO

    # Well-definedness under representative change of the vector argument.
    a, b = _rand(rng, 2), _rand(rng, 2)
    fam = OperatorFamily.from_terms(2, [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)])
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    pert = VectorFamily.from_terms(2, [(CoeffFn.pow_h(1.0), w)])
    diff = module_action(fam, v + pert, grid) - module_action(fam, v, grid)
    assert is_null_family(diff, grid).limit_verdict == TO_ZERO


def test_module_action_submultiplicative(grid):
    rng = np.random.default_rng(SEED + 7)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        f = OperatorFamily.from_terms(
            d,
            [
                (CoeffFn.const(), _rand(rng, d)),
                (CoeffFn.pow_h(float(rng.integers(1, 3))), _rand(rng, d)),
            ],
        )
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        v = VectorFamily.from_terms(
            d, [(CoeffFn.const(), x), (CoeffFn.exp_inv(1.0), x)]
        )
        # The bound is asserted inside the operation; it raising would fail here.
        module_action(f, v, grid)


def test_module_action_overflow_is_an_input_error(grid):
    f = OperatorFamily.constant(1e154 * np.ones((2, 2)))
    v = VectorFamily.constant(np.array([1e153, 1e153]))
    # The overflow is reported once, as the InputError, without a numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="family values overflow"):
            module_action(f, v, grid)


def test_module_action_refuses_an_overflowing_product(grid):
    f = OperatorFamily.constant(1e200 * np.ones((2, 2)))
    v = VectorFamily.constant(np.array([1e200, 1e200]))
    # One finiteness test over all products, reported once and quietly.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in (grid, None):
            with pytest.raises(InputError, match="^vector entries must be finite$"):
                module_action(f, v, g)
    with pytest.raises(InputError, match="operator family and a vector family"):
        module_action(v, f)


def test_sums_and_negatives_keep_their_terms_validated_and_read_only():
    rng = np.random.default_rng(SEED + 3)
    f = OperatorFamily.from_terms(
        2, [(CoeffFn.const(), _rand(rng, 2)), (CoeffFn.pow_h(1.0), _rand(rng, 2))]
    )
    g = OperatorFamily.from_terms(2, [(CoeffFn.exp_inv(1.0), _rand(rng, 2))])
    total = f + g
    assert [c for c, _ in total.terms] == [c for c, _ in f.terms + g.terms]
    assert all(a is b for (_, a), (_, b) in zip(total.terms, f.terms + g.terms))
    neg = -f
    for (c, a), (c_neg, a_neg) in zip(f.terms, neg.terms):
        assert c_neg == c and a_neg.tobytes() == (-a).tobytes()
        assert not a_neg.flags.writeable
    with pytest.raises(InputError, match="cannot add a VectorFamily"):
        f + VectorFamily.constant(np.ones(2))
    # Merged and zero terms are read-only too, so no sum shares a writable array.
    for fam in ((f + f).canonical(), (f - f).canonical(), neg.drop_null_terms()):
        assert not any(a.flags.writeable for _, a in fam.terms)


def test_family_norms_take_one_svd_per_distinct_sample(grid, svd_mats):
    rng = np.random.default_rng(SEED + 4)
    a, b = _rand(rng, 3), _rand(rng, 3)
    # A constant family's 40 samples are one matrix.
    norms = norm_samples(OperatorFamily.constant(a), grid)
    assert svd_mats == [1]
    assert len(norms) == grid.count and len(set(norms.tolist())) == 1
    # exp(-1/h) is 0 over the whole default tail (h <= 2^-34), so the tail
    # of A + exp(-1/h) B is A six times.
    svd_mats.clear()
    fam = OperatorFamily.from_terms(3, [(CoeffFn.const(), a), (CoeffFn.exp_inv(1.0), b)])
    assert limsup_norm(fam, grid) == norms[0]
    assert svd_mats == [1]


def _grid_eval_families():
    rng = np.random.default_rng(SEED + 5)
    a, b = _rand(rng, 3), _rand(rng, 3)
    # The constant term's product there is -0.0 + 0.5i; the sum starts at +0.0.
    a[0, 1] = complex(-0.0, 0.5)
    x, y = a[0], b[1]
    terms = [
        CoeffFn.const(),
        CoeffFn.pow_h(0.0),
        CoeffFn.pow_h(1.5),
        # 0 over the whole tail, and not at h = 1.
        CoeffFn.exp_inv(1.0),
        CoeffFn.pow_h(1.0) * CoeffFn.exp_inv(0.25),
    ]
    ops = [a, b, a @ b, b, 1e3 * a]
    vecs = [x, y, x, y, 1e3 * x]
    return [
        OperatorFamily.from_terms(3, list(zip(terms, ops))),
        VectorFamily.from_terms(3, list(zip(terms, vecs))),
        OperatorFamily.constant(a),
        VectorFamily.constant(x),
    ]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index", range(4), ids=["operator", "vector", "const", "const-vector"])
def test_grid_evaluation_has_the_bytes_of_eval_stack(index):
    fam = _grid_eval_families()[index]
    first, second = HGrid(), HGrid()
    for grid in (first, second, first):
        for tail, hs in ((True, grid.tail_samples()), (False, grid.samples())):
            stack, norms = families._grid_eval(fam, grid, tail)
            expected = fam.eval_stack(hs)
            assert stack.tobytes() == expected.tobytes()
            assert norms.tobytes() == fam._norms(expected).tobytes()
        assert families._tail_eval(fam, grid).mats.tobytes() == stack[-grid.tail :].tobytes()
    if index >= 2:
        # -0.0 + 0.5i alone at that entry: the sum holds +0.0, as 0 + (-0.0) does.
        entry = stack[:, 0, 1] if index == 2 else stack[:, 1]
        assert not np.signbit(entry.real).any() and (entry.imag == 0.5).all()
    # Columns are made once per grid and coefficient, and kept read-only;
    # they do not take part in the grid's equality.
    coeff = fam.terms[0][0]
    assert first.column(coeff, True) is first.column(coeff, True)
    assert not first.column(coeff, False).flags.writeable
    assert first == second and hash(first) == hash(second)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cls", [OperatorFamily, VectorFamily])
def test_grid_evaluation_refuses_an_overflowing_sum_with_the_overflow_error(grid, cls):
    full = np.full((2, 2), 1e308) if cls is OperatorFamily else np.full(2, 1e308)
    fam = cls.from_terms(2, [(CoeffFn.const(), full), (CoeffFn.pow_h(0.0), full)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert np.isinf(fam.eval_stack(grid.samples())).all()
    for tail in (True, False):
        with pytest.raises(InputError, match="^family values overflow on the h-grid$"):
            families._grid_eval(fam, grid, tail)


@pytest.mark.filterwarnings("error")
def test_evaluating_at_h_zero_gives_the_limit_and_h_outside_the_unit_interval_is_refused():
    ones = np.ones((2, 2))
    fam = OperatorFamily.from_terms(
        2,
        [
            (CoeffFn.const(), np.eye(2)),
            (CoeffFn.exp_inv(1.0), ones),
            (CoeffFn.pow_h(2.0) * CoeffFn.exp_inv(3.0), ones),
            (CoeffFn.pow_h(1.0), ones),
        ],
    )
    vec = VectorFamily.from_terms(2, [(CoeffFn.const(), [1.0, 0.0]), (CoeffFn.exp_inv(2.0), [1.0, 1.0])])
    assert fam(0.0).tobytes() == np.eye(2, dtype=complex).tobytes()
    assert vec(0.0).tobytes() == np.array([1.0, 0.0], dtype=complex).tobytes()
    assert fam(1.0).tobytes() == fam.eval_stack([1.0])[0].tobytes()
    col = CoeffFn.exp_inv(1.0).eval_many([0.0, 1.0])
    assert col.tobytes() == np.array([0.0, math.exp(-1.0)], dtype=complex).tobytes()
    for bad in (-0.5, 1.5, -math.inf, math.inf, math.nan):
        for f in (fam, vec):
            with pytest.raises(InputError, match=r"^h must lie in \[0, 1\], got "):
                f(bad)


def test_family_eval_against_direct_sum(grid):
    rng = np.random.default_rng(SEED)
    a, b = _rand(rng, 3), _rand(rng, 3)
    fam = OperatorFamily.from_terms(
        3, [(CoeffFn.const(), a), (CoeffFn.exp_inv(2.0), b)]
    )
    for h in (1.0, 0.3, 0.05):
        assert np.allclose(fam(h), a + np.exp(-2.0 / h) * b)
    stack = fam.eval_stack(np.array([1.0, 0.3]))
    assert np.allclose(stack[1], fam(0.3))


@pytest.fixture()
def eval_calls(monkeypatch):
    """Families evaluated on an h-grid (`families._grid_eval`), one entry per call."""
    calls = []

    def counting(fam, grid, tail, _original=families._grid_eval):
        calls.append(fam)
        return _original(fam, grid, tail)

    monkeypatch.setattr(families, "_grid_eval", counting)
    return calls


_RECT = (-3.0, 3.0, -3.0, 3.0)
_X = np.array([1.0, 0.5, 0.0], dtype=complex)
_MESH = (2.5 + 0.5j, -2.0j, 2.5 + 0.5j)  # repeats a point


def _uniqueness_check(fam, grid):
    # Two candidates whose residuals vanish at h -> 0: the solution for the
    # constant part A_0 of the family, and that solution plus h * x.
    a0 = fam.terms[0][1]

    def sol1(lam):
        return VectorFamily.constant(np.linalg.solve(lam * np.eye(3) - a0, _X))

    def sol2(lam):
        return sol1(lam) + VectorFamily.from_terms(3, [(CoeffFn.pow_h(1.0), _X)])

    report = local_extension_uniqueness_check(fam, _X, sol1, sol2, _MESH, grid)
    assert report.all_to_zero


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda fam, grid: probe_resolvent(fam, 2.5 + 0.5j, grid), 1),
        (lambda fam, grid: family_spectrum_grid(fam, _RECT, 8, 8, grid), 1),
        (lambda fam, grid: family_local_probe(fam, _X, 0.5, 0.1, grid), 1),
        (lambda fam, grid: family_local_spectrum_grid(fam, _X, _RECT, 8, 8, grid), 1),
        (lambda fam, grid: resolvent_identity_residual(fam, 8.0, 9.0j, grid), 1),
        # The scan and the radius bound read one evaluated tail.
        (
            lambda fam, grid: local_spectral_space_member(
                family_local_spectrum_grid(fam, _X, _RECT, 8, 8, grid), "disc 0,0,1"
            ),
            1,
        ),
        # The family and its refined representative.
        (lambda fam, grid: quotient_norm_bounds(fam, grid), 2),
        # The family, and each candidate once per mesh point.
        (_uniqueness_check, 1 + 2 * len(_MESH)),
    ],
    ids=[
        "probe_resolvent",
        "family_spectrum_grid",
        "family_local_probe",
        "family_local_spectrum_grid",
        "resolvent_identity_residual",
        "local_spectral_space_member",
        "quotient_norm_bounds",
        "local_extension_uniqueness_check",
    ],
)
def test_family_evaluated_once_per_call(grid, eval_calls, call, expected):
    rng = np.random.default_rng(SEED)
    fam = OperatorFamily.from_terms(
        3,
        [
            (CoeffFn.const(), np.diag([1.0, -1.0, 0.5j])),
            (CoeffFn.pow_h(1.0), _rand(rng, 3)),
            (CoeffFn.exp_inv(1.0), _rand(rng, 3)),
        ],
    )
    call(fam, grid)
    assert len(eval_calls) == expected


def test_every_tail_reader_shares_one_evaluation_per_family_and_grid(grid, eval_calls):
    f = OperatorFamily.from_terms(
        2, [(CoeffFn.const(), np.diag([1.0, -1.0])), (CoeffFn.pow_h(1.0), np.eye(2, k=1))]
    )
    g = OperatorFamily.constant(np.diag([2.0, 0.5]))
    x = np.array([1.0, 0.5])
    v = VectorFamily.constant(x)
    commute_in_limit(f, g, grid)
    asym_qn_equivalent(f, g, grid)
    for fam in (f, g, v):
        is_null_family(fam, grid)
        limsup_norm(fam, grid)
    probe_resolvent(f, 2.5, grid)
    family_spectrum_grid(f, _RECT, 8, 8, grid)
    family_local_spectrum_grid(f, x, _RECT, 8, 8, grid)
    spectral_radius_bound(f, grid)
    assert eval_calls == [f, g, v]
    # Another h-grid is another evaluation.
    other = HGrid(count=grid.count + 4)
    commute_in_limit(f, g, other)
    assert is_null_family(f, other).limit_verdict == BOUNDED_POSITIVE
    assert eval_calls == [f, g, v, f, g]


def _overflowing_values():
    # Finite terms whose sum overflows to inf at every h.
    full = np.full((2, 2), 1e308)
    return OperatorFamily.from_terms(2, [(CoeffFn.const(), full), (CoeffFn.const(), full)])


def _overflowing_candidate(lam):
    return VectorFamily.constant(np.full(2, 1e308)) + VectorFamily.constant(np.full(2, 1e308))


_OVERFLOW_READERS = {
    "commute_in_limit": lambda big, ok, grid: commute_in_limit(ok, big, grid),
    "asym_qn_equivalent": lambda big, ok, grid: asym_qn_equivalent(ok, big, grid),
    "is_null_family": lambda big, ok, grid: is_null_family(big, grid),
    "family_spectrum_grid": lambda big, ok, grid: family_spectrum_grid(big, _RECT, 8, 8, grid),
    "family_local_spectrum_grid": lambda big, ok, grid: family_local_spectrum_grid(
        big, np.ones(2), _RECT, 8, 8, grid
    ),
    "resolvent_uniqueness_residual": lambda big, ok, grid: resolvent_uniqueness_residual(
        ok, 3.0, truncated_resolvent_family(ok(0.0), np.zeros((2, 2)), 3.0), big, grid
    ),
    "local_extension_uniqueness_check": lambda big, ok, grid: local_extension_uniqueness_check(
        ok, np.ones(2), _overflowing_candidate, _overflowing_candidate, (3.0,), grid
    ),
}


@pytest.mark.parametrize("reader", sorted(_OVERFLOW_READERS))
def test_every_tail_reader_refuses_overflowing_values_alike(grid, reader):
    ok = OperatorFamily.constant(np.diag([1.0, 2.0]))
    with pytest.raises(InputError, match="^family values overflow on the h-grid$"):
        _OVERFLOW_READERS[reader](_overflowing_values(), ok, grid)

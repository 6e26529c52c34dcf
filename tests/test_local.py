import warnings

import numpy as np
import pytest

from opfam.errors import (
    DimensionMismatchError,
    InputError,
    PoleProximityError,
    PreconditionError,
)
from opfam.families import (
    BOUNDED_POSITIVE,
    INCONCLUSIVE,
    TO_ZERO,
    UNBOUNDED,
    CoeffFn,
    HGrid,
    OperatorFamily,
    VectorFamily,
    module_action,
    tail_stats,
    verdict_arrays,
)
from opfam.generators import PAIR_KINDS, generate_pair, rng_for
from opfam.linalg import spectral_decomp
from opfam.local import (
    LOCAL_RESOLVENT,
    LOCAL_SPECTRUM,
    SvepReport,
    UniquenessReport,
    Witness,
    WitnessResult,
    _candidate_tails,
    _read_x,
    family_local_probe,
    family_local_spectrum_grid,
    local_extension_uniqueness_check,
    local_spectral_space_member,
    local_spectrum_exact,
    maximal_extension_eval,
    svep_falsification_probe,
)
from opfam import families
from opfam.emit import grid_to_csv, read_grid_csv
from opfam.verify import _svep_witnesses
from opfam.spectra import (
    CLS_SPECTRUM,
    _tail_eval,
    family_spectrum_grid,
    spectral_radius_bound,
    truncated_resolvent_family,
)

SEED = 1618
RECT = (-3.0, 3.0, -3.0, 3.0)


def _supports(report):
    return sorted(report.support_points(), key=lambda z: (z.real, z.imag))


def test_local_spectrum_exact_examples():
    a = np.diag([1.0, 2.0])
    assert np.allclose(_supports(local_spectrum_exact(a, [1.0, 0.0])), [1.0])
    assert np.allclose(_supports(local_spectrum_exact(a, [1.0, 1.0])), [1.0, 2.0])
    j = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(_supports(local_spectrum_exact(j, [1.0, 0.0])), [0.0], atol=1e-7)
    zero = local_spectrum_exact(a, [0.0, 0.0])
    assert zero.zero_vector and zero.support == ()


def test_local_spectrum_exact_refuses_a_decomposition_of_another_dimension():
    decomp = spectral_decomp(np.diag([1.0, 2.0, 3.0]))
    for x in ([1.0, 1.0], [0.0, 0.0]):
        with pytest.raises(DimensionMismatchError, match="dim 3 != matrix dim 2"):
            local_spectrum_exact(np.diag([1.0, 2.0]), x, decomp=decomp)


def test_maximal_extension_examples():
    a = np.diag([1.0, 2.0])
    assert np.allclose(maximal_extension_eval(a, [1.0, 0.0], 3.0), [0.5, 0.0], atol=1e-10)
    assert np.allclose(maximal_extension_eval(a, [0.0, 1.0], 3.0), [0.0, 1.0], atol=1e-10)
    assert np.allclose(maximal_extension_eval(a, [0.0, 0.0], 0.5), 0.0)


def test_maximal_extension_analytic_beyond_unsupported_cluster():
    # x has no component at 2, so the extension is analytic there even
    # though 2 is in the spectrum.
    a = np.diag([1.0, 2.0])
    ev = maximal_extension_eval(a, [1.0, 0.0], 2.0 + 1e-3)
    direct = 1.0 / (2.0 + 1e-3 - 1.0)
    assert np.allclose(ev, [direct, 0.0], atol=1e-9)
    with pytest.raises(PoleProximityError):
        maximal_extension_eval(a, [1.0, 0.0], 1.0 + 1e-3)


def test_extension_residual_bound(rng):
    for _ in range(20):
        d = int(rng.integers(2, 6))
        while True:
            w = rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)
            gaps = [abs(w[i] - w[j]) for i in range(d) for j in range(i + 1, d)]
            if not gaps or min(gaps) >= 0.6:
                break
        v = np.eye(d) + 0.15 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        a = v @ np.diag(w) @ np.linalg.inv(v)
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        lam = 3.5 + 1.2j
        ev = maximal_extension_eval(a, x, lam)
        resid = np.linalg.norm((lam * np.eye(d) - a) @ ev - x)
        assert resid <= 1e-6 * (1 + abs(lam)) * max(1.0, np.linalg.norm(ev))


def local_shift_family():
    e = np.zeros((2, 2), dtype=complex)
    e[1, 1] = 1.0
    return OperatorFamily.from_terms(
        2, [(CoeffFn.const(), np.diag([1.0, 2.0])), (CoeffFn.pow_h(1.0), e)]
    )


def test_family_local_probe_examples(grid):
    fam = local_shift_family()
    e2 = np.array([0.0, 1.0], dtype=complex)
    # Solutions (0, -1/h) blow up: definite local spectrum.
    p = family_local_probe(fam, e2, 2.0, 0.05, grid)
    assert p.classification == LOCAL_SPECTRUM
    assert p.bad_points >= 1
    # Near 1 the solutions stay bounded with vanishing residuals.
    assert family_local_probe(fam, e2, 1.0, 0.05, grid).classification == LOCAL_RESOLVENT
    # Constant family, x supported away from 2.
    const = OperatorFamily.constant(np.diag([1.0, 2.0]))
    e1 = np.array([1.0, 0.0], dtype=complex)
    assert family_local_probe(const, e1, 2.0, 0.05, grid).classification == LOCAL_RESOLVENT
    with pytest.raises(InputError):
        family_local_probe(fam, e2, 2.0, 0.0, grid)


@pytest.mark.filterwarnings("error")
def test_local_classes_do_not_depend_on_the_scale_of_x(grid):
    # sigma_F(c x) = sigma_F(x): an x far from unit scale is probed as a
    # power-of-two multiple, so neither its norms nor its residuals leave
    # the float range.
    flip = OperatorFamily.from_terms(
        2,
        [
            (CoeffFn.const(), np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)),
            (CoeffFn.pow_h(1.0), np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)),
        ],
    )
    rect = (-1.0, 1.0, -1.0, 1.0)
    unit = family_local_spectrum_grid(flip, np.ones(2), rect, 16, 16, grid)
    assert (unit.classes == CLS_SPECTRUM).sum() == 2
    for c in (9e153, 1e-170, 1e-300):
        scaled = family_local_spectrum_grid(flip, c * np.ones(2), rect, 16, 16, grid)
        assert np.array_equal(scaled.classes, unit.classes), c
        # ||x|| underflows to 0 at c = 1e-170, yet x is not the zero vector.
        answer = local_spectral_space_member(scaled, "disc 0.5,0.5,0.1")
        assert (answer.member, answer.n_support_cells) == (False, 2), c
    # The exact oracle, the extension and the uniqueness check read x the
    # same way, and report weights, values and tail maxima in its units:
    # at a power-of-two c, exactly c times those at unit scale.
    a = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    x = np.array([1.0, 0.5j])
    lam = 3.0 + 1.0j
    exact = local_spectrum_exact(a, x)
    assert len(exact.support) == 2
    for c in (2.0**-600, 1e-170, 9e153):
        points = local_spectrum_exact(a, c * x).support_points()
        assert np.array_equal(points, exact.support_points()), c
    c = 2.0**-600
    weights = [w for _, w in local_spectrum_exact(a, c * x).support]
    assert weights == [c * w for _, w in exact.support]
    ext = maximal_extension_eval(a, x, lam)
    assert np.array_equal(maximal_extension_eval(a, c * x, lam), c * ext)

    def candidate(scale, drift):
        y = np.linalg.solve(lam * np.eye(2) - a, x)
        return lambda _: VectorFamily.from_terms(
            2, [(CoeffFn.const(), scale * y), (CoeffFn.pow_h(1.0), scale * drift * x)]
        )

    fam = OperatorFamily.constant(a)
    unit, scaled = (
        local_extension_uniqueness_check(
            fam, s * x, candidate(s, 0.0), candidate(s, 1.0), [lam], grid
        )
        for s in (1.0, c)
    )
    assert unit.all_to_zero and unit.worst_tail_max > 0.0
    assert scaled.verdicts == unit.verdicts
    assert scaled.worst_tail_max == c * unit.worst_tail_max
    # A candidate 2**600 times larger than x overflows at the scale x is
    # read in, and fails the residual test without a warning.
    wide = candidate(1.0, 0.0)
    with pytest.raises(PreconditionError, match="first candidate"):
        local_extension_uniqueness_check(fam, c * x, wide, candidate(c, 0.0), [lam], grid)


_DIAG = np.diag([1.0, 2.0])


@pytest.mark.filterwarnings("error")
def test_an_x_whose_norm_underflows_is_read_by_its_entries(grid):
    # ||x|| underflows to 0, yet x is not the zero vector: the exact
    # oracle, the extension and the scan all see its support at 1.
    x = np.array([1e-170, 0.0])
    exact = local_spectrum_exact(_DIAG, x)
    assert not exact.zero_vector
    assert np.array_equal(exact.support_points(), [1.0])
    direct = np.linalg.solve(3.0 * np.eye(2) - _DIAG, x)
    assert np.allclose(maximal_extension_eval(_DIAG, x, 3.0), direct, rtol=1e-9, atol=1e-185)
    scan = family_local_spectrum_grid(OperatorFamily.constant(_DIAG), x, RECT, 24, 24, grid)
    marked = scan.cells_with_class(CLS_SPECTRUM)
    assert len(marked) == 4
    assert np.all(np.abs(marked - 1.0) <= np.hypot(*scan.cell_size()))


@pytest.mark.filterwarnings("error")
def test_every_local_rule_refuses_an_x_whose_norm_overflows(grid):
    x = np.array([1e200, 0.0])
    fam = OperatorFamily.constant(_DIAG)
    calls = (
        lambda: local_spectrum_exact(_DIAG, x),
        lambda: maximal_extension_eval(_DIAG, x, 3.0),
        lambda: family_local_probe(fam, x, 3.0, 0.05, grid),
        lambda: family_local_spectrum_grid(fam, x, RECT, 24, 24, grid),
    )
    for call in calls:
        with pytest.raises(InputError, match="the norm of x overflows"):
            call()


@pytest.mark.filterwarnings("error")
def test_uniqueness_check_refuses_an_x_whose_norm_overflows(grid):
    # Before any candidate is read: a residual against such an x overflows.
    fam = OperatorFamily.constant(_DIAG)

    def sol(lam):
        return VectorFamily.constant(np.array([1.0, 0.0]))

    with pytest.raises(InputError, match="the norm of x overflows"):
        local_extension_uniqueness_check(fam, np.array([1e200, 0.0]), sol, sol, [3.0], grid)


@pytest.mark.filterwarnings("error")
def test_uniqueness_check_scales_its_residual_floor_with_x(grid):
    # The exact solution's residual is rounding, about eps ||x||: the
    # residual floor scales with ||x|| here as it does in the local probe.
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    fam = OperatorFamily.constant(a)
    x = 1e6 * np.arange(1.0, 5.0) / np.sqrt(30.0)

    def exact(lam):
        return VectorFamily.constant(np.linalg.solve(lam * np.eye(4) - a, x))

    assert family_local_probe(fam, x, 8.0, 0.05, grid).classification == LOCAL_RESOLVENT
    rep = local_extension_uniqueness_check(fam, x, exact, exact, [8.0, 8.0 + 1.0j, -7.5j], grid)
    assert rep.all_to_zero and rep.worst_tail_max == 0.0


@pytest.mark.parametrize("s", [1.0, 1e6, 1e8, 1e9])
def test_uniqueness_check_scales_its_difference_floor_with_x(grid, s):
    # Two exact solutions computed two ways differ by rounding, about
    # eps ||x||, so their difference is tested at the x-scaled tolerances.
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    fam = OperatorFamily.constant(a)
    x = s * np.arange(1.0, 5.0) / np.sqrt(30.0)

    def solved(lam):
        return VectorFamily.constant(np.linalg.solve(lam * np.eye(4) - a, x))

    def inverted(lam):
        return VectorFamily.constant(np.linalg.inv(lam * np.eye(4) - a) @ x)

    rep = local_extension_uniqueness_check(fam, x, solved, inverted, [8.0, 8.0 + 1.0j, -7.5j], grid)
    assert rep.verdicts == (TO_ZERO,) * 3


def test_family_local_grid_matches_exact_support(grid):
    const = OperatorFamily.constant(np.diag([1.0, 2.0]))
    e1 = np.array([1.0, 0.0], dtype=complex)
    g = family_local_spectrum_grid(const, e1, RECT, 64, 64, grid)
    marked = g.centers()[g.classes == CLS_SPECTRUM].ravel()
    diag = np.hypot(*g.cell_size())
    assert len(marked) >= 1
    assert np.all(np.abs(marked - 1.0) <= diag)

    both = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    g2 = family_local_spectrum_grid(const, both, RECT, 64, 64, grid)
    marked2 = g2.centers()[g2.classes == CLS_SPECTRUM].ravel()
    for target in (1.0, 2.0):
        assert min(abs(marked2 - target)) <= diag
    assert np.all(np.minimum(np.abs(marked2 - 1.0), np.abs(marked2 - 2.0)) <= diag)

    gz = family_local_spectrum_grid(const, np.zeros(2), RECT, 32, 32, grid)
    assert int((gz.classes == CLS_SPECTRUM).sum()) == 0


def test_membership_examples(grid):
    const = OperatorFamily.constant(np.diag([1.0, 2.0]))
    e1 = np.array([1.0, 0.0], dtype=complex)
    scan = family_local_spectrum_grid(const, e1, RECT, 64, 64, grid)
    assert local_spectral_space_member(scan, "disc 1,0,0.1").member
    ans = local_spectral_space_member(scan, "disc 2,0,0.1")
    assert not ans.member
    assert ans.offenders
    zero = family_local_spectrum_grid(const, np.zeros(2), RECT, 64, 64, grid)
    ans = local_spectral_space_member(zero, "empty")
    assert ans.member
    assert ans.note == "zero vector: empty local spectrum"
    narrow = family_local_spectrum_grid(const, e1, (-1, 1, -1, 1), 16, 16, grid)
    with pytest.raises(InputError, match="does not cover the spectral-radius disk"):
        local_spectral_space_member(narrow, "disc 1,0,0.1")


def test_membership_computes_the_radius_bound_once_per_family(grid, monkeypatch):
    calls = []
    compute = families._radius_bound

    def counting(mats):
        calls.append(mats)
        return compute(mats)

    monkeypatch.setattr(families, "_radius_bound", counting)
    const = OperatorFamily.constant(np.diag([1.0, 2.0]))
    e1 = np.array([1.0, 0.0], dtype=complex)
    g = family_local_spectrum_grid(const, e1, RECT, 16, 16, grid)
    for region in ("disc 1,0,0.1", "disc 2,0,0.1", "empty"):
        local_spectral_space_member(g, region)
    assert len(calls) == 1
    bound = spectral_radius_bound(const, grid)
    assert bound is spectral_radius_bound(const, grid)
    assert not bound.roots.flags.writeable
    # Another family, or another h-grid, gets its own bound.
    spectral_radius_bound(OperatorFamily.constant(np.diag([1.0, 2.0])), grid)
    spectral_radius_bound(const, HGrid(count=grid.count + 4))
    assert len(calls) == 3


def test_membership_of_a_grid_that_is_not_a_local_scan(grid, tmp_path):
    fam = OperatorFamily.constant(np.diag([1.0, 2.0]))
    e1 = np.array([1.0, 0.0], dtype=complex)
    csv = tmp_path / "local.csv"
    csv.write_text(grid_to_csv(family_local_spectrum_grid(fam, e1, RECT, 16, 16, grid)))
    for g in (family_spectrum_grid(fam, RECT, 16, 16, grid), read_grid_csv(str(csv))):
        with pytest.raises(InputError, match="not one"):
            local_spectral_space_member(g, "disc 1,0,0.3")


def test_membership_rejects_a_cached_grid_of_another_scan(grid):
    # The small scan does not reach the eigenvalue 2.5, so reading its
    # cells would answer member=True where a covering scan says False.
    fam = OperatorFamily.constant(np.diag([1.0, 2.5]))
    x = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    small = family_local_spectrum_grid(fam, x, (-1.5, 1.5, -1.5, 1.5), 16, 16, grid)
    with pytest.raises(InputError, match="does not cover the spectral-radius disk"):
        local_spectral_space_member(small, "disc 1,0,0.3")
    coarse = family_local_spectrum_grid(fam, x, RECT, 16, 16, grid)
    fresh = family_local_spectrum_grid(fam, x, RECT, 16, 16, grid)
    ans = local_spectral_space_member(coarse, "disc 1,0,0.3")
    assert not ans.member
    assert ans == local_spectral_space_member(fresh, "disc 1,0,0.3")


def test_membership_rejects_a_cached_grid_of_another_vector_family_or_h_grid(grid):
    # The scan of e1 marks only the eigenvalue 1; e2 (local spectrum
    # {2.5}) and diag(2.5, 1) at e1 have their own scans, which mark 2.5.
    # A scan answers only for the family, h-grid and x it recorded.
    fam = OperatorFamily.constant(np.diag([1.0, 2.5]))
    swapped = OperatorFamily.constant(np.diag([2.5, 1.0]))
    e1, e2 = np.eye(2, dtype=complex)
    x = e1.copy()
    for_e1 = family_local_spectrum_grid(fam, x, RECT, 16, 16, grid)
    x[:] = e2
    region = "disc 1,0,0.3"
    assert local_spectral_space_member(for_e1, region)
    scanned = for_e1.scanned[2]
    assert np.array_equal(scanned, e1) and not scanned.flags.writeable
    for f, v in ((fam, e2), (swapped, e1)):
        scan = family_local_spectrum_grid(f, v, RECT, 16, 16, grid)
        ans = local_spectral_space_member(scan, region)
        assert not ans.member
        assert all(abs(z - 2.5) < 0.5 for z in ans.offenders)
    other_h = HGrid(count=44)
    scan = family_local_spectrum_grid(fam, e1, RECT, 16, 16, other_h)
    assert scan.scanned[0] is fam and scan.scanned[1] is other_h
    assert local_spectral_space_member(scan, region)


def test_radius_bound_of_an_overflowing_family_is_an_input_error(grid):
    fam = OperatorFamily.constant(np.full((2, 2), 1e308))
    with pytest.raises(InputError, match="overflow"):
        spectral_radius_bound(fam, grid)


@pytest.mark.parametrize("entry", [1e160, 1e200])
def test_overflowing_powers_give_an_unbounded_radius_bound_quietly(grid, entry):
    fam = OperatorFamily.constant(np.full((2, 2), entry))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = spectral_radius_bound(fam, grid)
        assert bound.value == np.inf
        assert bound.inner_verdicts[-1] == UNBOUNDED
        scan = family_local_spectrum_grid(fam, np.ones(2), RECT, 16, 16, grid)
        with pytest.raises(InputError, match="spectral radius bound diverged"):
            local_spectral_space_member(scan, "disc 0,0,1")


@pytest.mark.filterwarnings("error")
def test_radius_bound_of_a_power_with_nan_entries_is_unbounded():
    # The fifth power of this family's tail mixes finite and nan entries,
    # which the SVD cannot take ("SVD did not converge").
    a = np.array([[2 + 1j, 2 + 1j, -0.5 + 1j], [0, 3 + 3j, -2 + 2j], [-2 + 1j, -2, 4j]]) / 2
    b = np.array([[1 - 2j, 1j, 1j], [1, 2j, 2 + 1j], [1.8e154, -0.5 - 2j, -0.5j]]) / 2
    fam = OperatorFamily.from_terms(3, [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)])
    assert spectral_radius_bound(fam, HGrid(1.0, 0.25, 20, 6)).value == np.inf


def test_svep_probe(grid):
    rng = np.random.default_rng(SEED)
    a = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    fam = OperatorFamily.constant(a)
    v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    lam0 = 3.0 + 0.0j

    def consistent(lam):
        r = truncated_resolvent_family(a, np.zeros((2, 2), dtype=complex), lam, 0)
        base = module_action(r, VectorFamily.constant(v))
        return VectorFamily.from_terms(
            2, [(CoeffFn.pow_h(1.0) * c, vec) for c, vec in base.terms]
        )

    def stubborn(lam):
        return VectorFamily.constant(v)

    mesh = [lam0, lam0 + 0.2, lam0 + 0.2j]
    rep = svep_falsification_probe(
        fam,
        [Witness("null-scaled-resolvent", consistent), Witness("constant", stubborn)],
        mesh,
        grid,
    )
    assert not rep.falsified
    assert rep.results[0].status == "consistent"
    assert rep.results[1].status == "consistent"

    # Detector sanity: a constant witness against lam = 1 for F = I has
    # vanishing residuals on the single-point mesh but a persistent norm.
    ident_fam = OperatorFamily.from_terms(
        2, [(CoeffFn.const(), np.eye(2)), (CoeffFn.exp_inv(1.0), np.eye(2))]
    )
    rep2 = svep_falsification_probe(
        ident_fam, [Witness("onpoint", stubborn)], [1.0 + 0.0j], grid
    )
    assert rep2.falsified
    assert rep2.results[0].status == "falsifies"


def test_uniqueness_check(grid):
    rng = np.random.default_rng(SEED)
    a = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    b = 0.3 * (rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3)))
    fam = OperatorFamily.from_terms(3, [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)])
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    mesh = [fam.sup_bound() * 1.7 + 0.0j, fam.sup_bound() * 1.7 + 0.3j]

    def sol1(lam):
        return module_action(
            truncated_resolvent_family(a, b, lam, 3), VectorFamily.constant(x)
        )

    def sol2(lam):
        return sol1(lam) + VectorFamily.from_terms(3, [(CoeffFn.pow_h(1.0), w)])

    rep = local_extension_uniqueness_check(fam, x, sol1, sol2, mesh, grid)
    assert rep.all_to_zero

    same = local_extension_uniqueness_check(fam, x, sol1, sol1, mesh, grid)
    assert same.worst_tail_max == 0.0

    def sol3(lam):
        return sol1(lam) + VectorFamily.constant(w)

    with pytest.raises(PreconditionError):
        local_extension_uniqueness_check(fam, x, sol1, sol3, mesh, grid)


def test_svep_and_uniqueness_reject_an_overflowing_family(grid):
    # Values of 1e308 overflow as soon as the residual multiplies them: the
    # family is bad input, as it is for probe_resolvent, not a witness
    # verdict or a failing candidate.
    fam = OperatorFamily.constant(np.full((2, 2), 1e308))
    x = np.array([1.0, 0.0], dtype=complex)

    def sol(lam):
        return VectorFamily.constant(x)

    with pytest.raises(InputError, match="overflow"):
        svep_falsification_probe(fam, [Witness("constant", sol)], [1.0 + 0.0j], grid)
    with pytest.raises(InputError, match="overflow"):
        local_extension_uniqueness_check(fam, x, sol, sol, [1.0 + 0.0j], grid)


# Reference implementations: the per-mesh-point loops that
# `svep_falsification_probe` and `local_extension_uniqueness_check` replaced
# by one stacked evaluation, kept to pin their reports.


def _residual_tail(mats, vals, lam):
    ident = np.eye(mats.shape[-1], dtype=complex)
    return ((lam * ident - mats) @ vals[..., None])[..., 0]


def _svep_reference(fam, witnesses, mesh, grid):
    mesh = [complex(z) for z in mesh]
    if not mesh:
        raise InputError("empty lambda mesh")
    hs = grid.tail_samples()
    mats = _tail_eval(fam, grid).mats
    results = []
    for w in witnesses:
        res_verdicts = []
        norm_verdicts = []
        for lam in mesh:
            vf = w.fn(lam)
            if vf.dim != fam.dim:
                raise InputError(f"witness {w.name} has dim {vf.dim} != {fam.dim}")
            vals = vf.eval_stack(hs)
            rvals = np.linalg.norm(_residual_tail(mats, vals, lam), axis=1)
            nvals = np.linalg.norm(vals, axis=1)
            res_verdicts.append(tail_stats(rvals).limit_verdict)
            norm_verdicts.append(tail_stats(nvals).limit_verdict)
        res_ok = all(v == TO_ZERO for v in res_verdicts)
        positive = any(v in (BOUNDED_POSITIVE, UNBOUNDED) for v in norm_verdicts)
        undecided = any(v == INCONCLUSIVE for v in norm_verdicts)
        bounded = all(v != UNBOUNDED for v in norm_verdicts)
        if res_ok and positive:
            status = "falsifies"
            note = "vanishing residuals with persistent norm"
        elif res_ok and undecided:
            status = "inconclusive"
            note = "vanishing residuals, norm tail undecided"
        else:
            status = "consistent"
            note = ""
        results.append(
            WitnessResult(
                name=w.name,
                status=status,
                residual_all_to_zero=res_ok,
                norm_positive_somewhere=positive,
                bounded_pointwise=bounded,
                note=note,
            )
        )
    falsified = any(r.status == "falsifies" for r in results)
    return SvepReport(
        falsified=falsified,
        results=tuple(results),
        note="falsified" if falsified else "not falsified (no proof implied)",
    )


def _uniqueness_reference(fam, x, sol1, sol2, mesh, grid):
    v = np.asarray(x, dtype=complex)
    mesh = [complex(z) for z in mesh]
    if not mesh:
        raise InputError("empty lambda mesh")
    hs = grid.tail_samples()
    mats = _tail_eval(fam, grid).mats
    eps_res = 1e-7 * max(1.0, float(np.linalg.norm(v)))
    floor_res = 1e-10 * max(1.0, float(np.linalg.norm(v)))
    stacks = {}
    for name, sol in (("first", sol1), ("second", sol2)):
        for k, lam in enumerate(mesh):
            vals = stacks[name, k] = sol(lam).eval_stack(hs)
            resid = _residual_tail(mats, vals, lam) - v
            stats = tail_stats(np.linalg.norm(resid, axis=1), eps_res, floor_res)
            if stats.limit_verdict != TO_ZERO:
                raise PreconditionError(
                    f"{name} candidate violates the residual condition at "
                    f"{lam}: verdict {stats.limit_verdict}, "
                    f"tail max {stats.tail_max:.3e}"
                )
    verdicts = []
    worst = 0.0
    for k in range(len(mesh)):
        diff = stacks["first", k] - stacks["second", k]
        stats = tail_stats(np.linalg.norm(diff, axis=1), eps_res, floor_res)
        verdicts.append(stats.limit_verdict)
        worst = max(worst, stats.tail_max)
    return UniquenessReport(
        verdicts=tuple(verdicts),
        all_to_zero=all(v == TO_ZERO for v in verdicts),
        worst_tail_max=worst,
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PreconditionError as exc:
        return f"PreconditionError: {exc}"


def _catalog_families():
    """Both families of every catalog kind at d = 2, 3, 5, each with its
    constant part F(0) and one eigenpair of it."""
    for k, kind in enumerate(PAIR_KINDS):
        for d in (2, 3, 5):
            pair = generate_pair(kind, 700 + k, d)
            for fam in (pair.f, pair.g):
                a = fam.terms[0][1]
                w, vecs = np.linalg.eig(a)
                yield fam, a, complex(w[0]), vecs[:, 0]


def _const(v):
    return lambda lam: VectorFamily.constant(v)


def _scaled(p, v):
    return lambda lam: VectorFamily.from_terms(len(v), [(CoeffFn.pow_h(p), v)])


# From a tail of 8 on, numpy sums a contiguous sequence pairwise.
_GRIDS = (HGrid(), HGrid(count=40, tail=9))


@pytest.mark.parametrize("grid", _GRIDS, ids=["tail6", "tail9"])
def test_svep_probe_matches_the_per_point_reference(grid):
    statuses = set()
    for fam, _, lam1, u in _catalog_families():
        # At an eigenvalue of F(0): a persistent norm falsifies, a norm
        # decaying like h**0.1 leaves the tail undecided.
        eigen = [Witness("eigvec", _const(u)), Witness("eigvec-h0.1", _scaled(0.1, u))]
        suite = _svep_witnesses(rng_for(SEED, fam.dim), fam, 6)
        far = 1.5 * fam.sup_bound()
        for witnesses, mesh in (
            (eigen, [lam1, lam1]),
            (suite + eigen, [far + 0.3j, far - 0.2, far + 0.3j]),
        ):
            got = svep_falsification_probe(fam, witnesses, mesh, grid)
            assert got == _svep_reference(fam, witnesses, mesh, grid)
            statuses.update(r.status for r in got.results)
    assert statuses == {"consistent", "inconclusive", "falsifies"}


@pytest.mark.parametrize("grid", _GRIDS, ids=["tail6", "tail9"])
def test_uniqueness_check_matches_the_per_point_reference(grid):
    outcomes = set()
    for fam, a, lam1, u in _catalog_families():
        rng = rng_for(SEED, fam.dim)
        d = fam.dim
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        w = rng.normal(size=d) + 1j * rng.normal(size=d)
        b = fam.terms[1][1] if len(fam.terms) > 1 else np.zeros((d, d), dtype=complex)
        sup = fam.sup_bound()
        mesh = [1.6 * sup + 0.0j, 1.6 * sup + 0.4j, 1.6 * sup + 0.0j]

        def sol1(lam, _a=a, _b=b, _x=x):
            r = truncated_resolvent_family(_a, _b, lam, 3)
            return module_action(r, VectorFamily.constant(_x))

        def sol2(lam, _w=w, _s=sol1):
            return _s(lam) + VectorFamily.from_terms(d, [(CoeffFn.pow_h(1.0), _w)])

        def bad_at_second(lam, _w=w, _s=sol1, _at=mesh[1]):
            # Violates the residual condition at the second mesh point only.
            return _s(lam) + VectorFamily.constant(_w if lam == _at else 0.0 * _w)

        zero = np.zeros(d, dtype=complex)
        cases = [
            (x, sol1, sol2, mesh),
            (x, sol1, sol1, mesh),
            (x, sol1, bad_at_second, mesh),
            (x, bad_at_second, sol2, mesh),
            # At an eigenvalue of F(0) with x = 0: 0 and the eigenvector (or
            # h**0.1 times it) both solve in the limit but never merge.
            (zero, _const(zero), _const(u), [lam1, lam1]),
            (zero, _const(zero), _scaled(0.1, u), [lam1]),
        ]
        for case in cases:
            got = _outcome(local_extension_uniqueness_check, fam, *case, grid)
            assert got == _outcome(_uniqueness_reference, fam, *case, grid)
            if isinstance(got, str):
                outcomes.add(got[: got.index(" violates")])
            else:
                outcomes.add(tuple(sorted(set(got.verdicts))))
    assert {
        "PreconditionError: first candidate",
        "PreconditionError: second candidate",
        (TO_ZERO,),
        (BOUNDED_POSITIVE,),
        (INCONCLUSIVE,),
    } <= outcomes


def test_candidates_of_another_dimension_are_rejected(grid):
    fam = OperatorFamily.constant(np.diag([1.0, 2.0]))
    x = np.array([1.0, 0.0], dtype=complex)
    good = _const(np.array([0.5, 0.0], dtype=complex))
    wide = _const(np.ones(3, dtype=complex))
    with pytest.raises(DimensionMismatchError, match="second candidate has dim 3 != 2"):
        local_extension_uniqueness_check(fam, x, good, wide, [3.0], grid)
    with pytest.raises(DimensionMismatchError, match="witness w has dim 3 != 2"):
        svep_falsification_probe(fam, [Witness("w", wide)], [3.0], grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_svep_and_uniqueness_reject_a_non_finite_mesh_point(grid, bad):
    fam = OperatorFamily.constant(np.diag([1.0, 2.0]))
    x = np.array([1.0, 0.0], dtype=complex)
    sol = _const(np.array([0.5, 0.0], dtype=complex))
    with pytest.raises(InputError, match="mesh points must be finite"):
        svep_falsification_probe(fam, [Witness("w", sol)], [3.0, bad], grid)
    with pytest.raises(InputError, match="mesh points must be finite"):
        local_extension_uniqueness_check(fam, x, sol, sol, [3.0, bad], grid)


@pytest.mark.parametrize("grid", _GRIDS, ids=["tail6", "tail9"])
def test_candidate_tails_reduce_like_one_sequence_tail_stats(grid):
    # Every mesh point's column of the stack must match a one-sequence
    # tail_stats call bit for bit, also once the tail is 8 or longer.
    rng = np.random.default_rng(SEED)
    fam = generate_pair("h-perturbation", 7, 4).f
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    mesh = [1.0, 2.0 + 1.0j, -1.0j, 0.5, 3.0]
    for _ in range(12):
        terms = []
        for p in rng.uniform(0.0, 3.0, size=3):
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            terms.append((CoeffFn.pow_h(p), 10.0 ** rng.uniform(-3, 3) * vec))

        def candidate(lam, _terms=terms):
            return VectorFamily.from_terms(4, [(c, lam * a) for c, a in _terms])

        _, resids, norms = _candidate_tails(fam, grid, "c", candidate, mesh, _read_x(x, 4))
        for tails in (resids, norms):
            _, tail_max, tail_min, trend = verdict_arrays(tails, 1e-7, 1e-10)
            for k in range(len(mesh)):
                ref = tail_stats(tails[:, k].copy())
                got = (tail_max[k], tail_min[k], trend[k])
                assert got == (ref.tail_max, ref.tail_min, ref.tail_trend)

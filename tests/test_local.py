import numpy as np
import pytest

from opfam.errors import InputError, PoleProximityError, PreconditionError
from opfam.families import CoeffFn, HGrid, OperatorFamily, VectorFamily, module_action
from opfam.local import (
    LOCAL_RESOLVENT,
    LOCAL_SPECTRUM,
    Witness,
    family_local_probe,
    family_local_spectrum_grid,
    local_extension_uniqueness_check,
    local_spectral_space_member,
    local_spectrum_exact,
    maximal_extension_eval,
    report_from_grid,
    svep_falsification_probe,
)
from opfam import spectra
from opfam.spectra import CLS_SPECTRUM, spectral_radius_bound, truncated_resolvent_family

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


def test_maximal_extension_examples():
    a = np.diag([1.0, 2.0])
    assert np.allclose(
        maximal_extension_eval(a, [1.0, 0.0], 3.0).value, [0.5, 0.0], atol=1e-10
    )
    assert np.allclose(
        maximal_extension_eval(a, [0.0, 1.0], 3.0).value, [0.0, 1.0], atol=1e-10
    )
    assert np.allclose(maximal_extension_eval(a, [0.0, 0.0], 0.5).value, 0.0)


def test_maximal_extension_analytic_beyond_unsupported_cluster():
    # x has no component at 2, so the extension is analytic there even
    # though 2 is in the spectrum.
    a = np.diag([1.0, 2.0])
    ev = maximal_extension_eval(a, [1.0, 0.0], 2.0 + 1e-3)
    direct = 1.0 / (2.0 + 1e-3 - 1.0)
    assert np.allclose(ev.value, [direct, 0.0], atol=1e-9)
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
        resid = np.linalg.norm((lam * np.eye(d) - a) @ ev.value - x)
        assert resid <= 1e-6 * (1 + abs(lam)) * max(1.0, np.linalg.norm(ev.value))


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

    rep = report_from_grid(g, "const diag(1,2)", e1)
    assert rep.method == "FamilyProbe"
    assert len(rep.support) == len(marked)


def test_membership_examples(grid):
    const = OperatorFamily.constant(np.diag([1.0, 2.0]))
    e1 = np.array([1.0, 0.0], dtype=complex)
    assert local_spectral_space_member(const, e1, "disc 1,0,0.1", RECT, grid).member
    ans = local_spectral_space_member(const, e1, "disc 2,0,0.1", RECT, grid)
    assert not ans.member
    assert ans.offenders
    assert local_spectral_space_member(const, np.zeros(2), "empty", RECT, grid).member
    with pytest.raises(InputError):
        local_spectral_space_member(const, e1, "disc 1,0,0.1", (-1, 1, -1, 1), grid)


def test_membership_computes_the_radius_bound_once_per_family(grid, monkeypatch):
    calls = []
    compute = spectra._radius_bound

    def counting(fam, hgrid):
        calls.append(fam)
        return compute(fam, hgrid)

    monkeypatch.setattr(spectra, "_radius_bound", counting)
    const = OperatorFamily.constant(np.diag([1.0, 2.0]))
    e1 = np.array([1.0, 0.0], dtype=complex)
    g = family_local_spectrum_grid(const, e1, RECT, 16, 16, grid)
    for region in ("disc 1,0,0.1", "disc 2,0,0.1", "empty"):
        local_spectral_space_member(const, e1, region, RECT, grid, 16, 16, cached_grid=g)
    assert calls == [const]
    bound = spectral_radius_bound(const, grid)
    assert bound is spectral_radius_bound(const, grid)
    assert not bound.roots.flags.writeable
    # Another family, or another h-grid, gets its own bound.
    spectral_radius_bound(OperatorFamily.constant(np.diag([1.0, 2.0])), grid)
    spectral_radius_bound(const, HGrid(count=grid.count + 4))
    assert len(calls) == 3


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

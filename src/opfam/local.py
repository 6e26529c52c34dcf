"""Local resolvent sets, local spectra and local spectral spaces.

For a single matrix the local spectrum at x is computed exactly: in finite
dimension every operator has the single-valued extension property and the
support of x across the spectral projections decides membership, so
lambda_i belongs to the local spectrum iff P_i x != 0.  The maximal
extension of the local resolvent is the explicit partial-fraction sum over
the supported clusters.

For a family the computable surrogate probes a point lambda0 together
with a small circle around it: at every probe point the minimum-norm
least-squares solutions of (lambda I - F(h)) y = x must have residual
tails vanishing at h -> 0 and norm tails bounded (the finite stand-in for
"a bounded analytic solution family exists on a neighborhood").  Grid
scans add the same geometric calibration as the spectrum grids: a cell
whose best probe still needs solutions of size ||x|| / score with score
flat below a few cell radii, at a local minimum of the score field, is
marked as carrying local spectrum at that resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, PoleProximityError, PreconditionError
from .families import (
    BOUNDED_POSITIVE,
    EPS_TAIL,
    INCONCLUSIVE,
    TO_ZERO,
    TREND_FLAT_TOL,
    UNBOUNDED,
    ZERO_FLOOR,
    HGrid,
    OperatorFamily,
    VectorFamily,
    tail_stats,
    verdict_arrays,
)
from .linalg import (
    DEFAULT_CLUSTER_TOL,
    SpectralDecomp,
    as_matrix,
    as_vector,
    spectral_decomp,
)
from .spectra import (
    CLS_RESOLVENT,
    CLS_SPECTRUM,
    CLS_UNDETERMINED,
    RegionGrid,
    _dip_mask,
    _scan_setup,
    _Tail,
    _tail_eval,
    _validate_rect,
    spectral_radius_bound,
)
from .regions import Region, parse_region

LOCAL_RESOLVENT = "LocalResolvent"
LOCAL_SPECTRUM = "LocalSpectrum"
UNDETERMINED = "Undetermined"

TOL_LOC = 1e-8
TOL_EXT = 1e-6
B_MAX_FACTOR = 1e8
LOCAL_CAL_FACTOR = 8.0

_LOCAL_NAMES = {
    CLS_SPECTRUM: LOCAL_SPECTRUM,
    CLS_UNDETERMINED: UNDETERMINED,
    CLS_RESOLVENT: LOCAL_RESOLVENT,
}


@dataclass(frozen=True, eq=False)
class LocalSpectrumReport:
    """Support of the local spectrum of one operator or family at x."""

    subject: str
    x: np.ndarray
    support: tuple[tuple[complex, float], ...]
    method: str
    zero_vector: bool = False

    def support_points(self) -> np.ndarray:
        return np.array([p for p, _ in self.support])


def local_spectrum_exact(
    a,
    x,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    decomp: SpectralDecomp | None = None,
) -> LocalSpectrumReport:
    """Exact local spectrum of a matrix at x via spectral projections.

    The support is the set of cluster centers with ||P_i x|| above
    TOL_LOC * ||x||.  The zero vector has empty local spectrum by
    convention and is flagged.
    """
    m = as_matrix(a)
    v = as_vector(x, dim=m.shape[0])
    xnorm = float(np.linalg.norm(v))
    if xnorm == 0.0:
        return LocalSpectrumReport(
            subject=f"matrix dim {m.shape[0]}",
            x=v,
            support=(),
            method="ExactProjection",
            zero_vector=True,
        )
    if decomp is None:
        decomp = spectral_decomp(m, cluster_tol=cluster_tol)
    support = []
    for cluster in decomp.clusters:
        weight = float(np.linalg.norm(cluster.projection @ v))
        if weight > TOL_LOC * xnorm:
            support.append((cluster.center, weight))
    return LocalSpectrumReport(
        subject=f"matrix dim {m.shape[0]}",
        x=v,
        support=tuple(support),
        method="ExactProjection",
    )


@dataclass(frozen=True, eq=False)
class ExtensionEval:
    """One evaluation of the maximal analytic extension of R(., A) x."""

    lam: complex
    value: np.ndarray


def maximal_extension_eval(a, x, lam: complex) -> ExtensionEval:
    """Evaluate the partial-fraction extension of the local resolvent.

    value = sum over supported clusters of
    (lam - c_i)**-(j+1) N_i**j P_i x, j < m_i.  Away from the supported
    discs this agrees with the direct solve of (lam I - A) y = x; the
    point may sit inside discs of unsupported clusters, which is what
    makes it the maximal extension.
    """
    m = as_matrix(a)
    v = as_vector(x, dim=m.shape[0])
    xnorm = float(np.linalg.norm(v))
    value = np.zeros(m.shape[0], dtype=complex)
    for cluster in spectral_decomp(m).clusters:
        px = cluster.projection @ v
        weight = float(np.linalg.norm(px))
        if xnorm == 0.0 or weight <= TOL_LOC * xnorm:
            continue
        dist = abs(lam - cluster.center)
        if dist <= cluster.radius:
            raise PoleProximityError(
                f"{lam} within radius {cluster.radius:.3e} of supported "
                f"cluster at {cluster.center}"
            )
        term = px
        for j in range(cluster.multiplicity):
            value += term / (lam - cluster.center) ** (j + 1)
            term = cluster.nilpotent @ term
    return ExtensionEval(lam=complex(lam), value=value)


_RING_POINTS = 8
# Probe points one pass of the local solve kernel holds.
_CHUNK = 8192


def _ring_offsets(radius: float) -> np.ndarray:
    """The probe stencil: the center plus _RING_POINTS points on a circle."""
    angles = 2.0 * np.pi * np.arange(_RING_POINTS) / _RING_POINTS
    return np.concatenate(([0.0 + 0.0j], radius * np.exp(1j * angles)))


def _min_norm_solve_stack(mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Least-residual minimum-norm solutions of M y = x for stacked M."""
    n, d, _ = mats.shape
    rhs = np.broadcast_to(x[:, None], (n, d, 1))
    try:
        y = np.linalg.solve(mats, rhs)[..., 0]
        if np.isfinite(y).all():
            return y
    except np.linalg.LinAlgError:
        pass
    pinv = np.linalg.pinv(mats, rcond=1e-13)
    return (pinv @ rhs)[..., 0]


def _triangular_probe(
    t: np.ndarray, b: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Norms and residual norms of the solutions z of (lambda I - T) z = b.

    T is upper triangular; every probe point lambda is solved at once by
    back-substitution, with the points on the contiguous axis.  The
    residual (lambda I - T) z - b is formed row by row from the same sums.
    All arithmetic is elementwise numpy, so no BLAS thread count can
    enter.  An exact eigenvalue hit leaves a non-finite norm at its point.
    """
    z = np.empty((len(b), len(points)), dtype=complex)
    r = np.empty_like(z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(len(b) - 1, -1, -1):
            rhs = b[k] + (t[k, k + 1 :, None] * z[k + 1 :]).sum(axis=0)
            shift = points - t[k, k]
            z[k] = rhs / shift
            r[k] = shift * z[k] - rhs
        return np.linalg.norm(z, axis=0), np.linalg.norm(r, axis=0)


def _probe_samples(
    tail: _Tail, x: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solution norms and residuals at every probe point over the tail matrices.

    Returns (norms, residuals), each of shape (len(tail.mats), len(points)).
    With F(h) = Q T Q* (`_Tail.schur`), y = Q z solves
    (lambda I - F(h)) y = x where (lambda I - T) z = Q* x, and Q is
    unitary, so ||y|| = ||z|| and the residual has the norm of its
    triangular counterpart.  Only the points where that is not finite (an
    exact eigenvalue hit) are re-solved, by `_min_norm_solve_stack`.
    """
    mats = tail.mats
    ident = np.eye(mats.shape[-1], dtype=complex)
    norms = np.empty((len(mats), len(points)))
    resids = np.empty((len(mats), len(points)))
    for i in tail.distinct:
        t, q = tail.schur(i)
        b = (q.conj() * x[:, None]).sum(axis=0)
        for lo in range(0, len(points), _CHUNK):
            pts = points[lo : lo + _CHUNK]
            norm, resid = _triangular_probe(t, b, pts)
            hit = ~(np.isfinite(norm) & np.isfinite(resid))
            if hit.any():
                stack = pts[hit, None, None] * ident - mats[i]
                y = _min_norm_solve_stack(stack, x)
                norm[hit] = np.linalg.norm(y, axis=1)
                resid[hit] = np.linalg.norm((stack @ y[..., None])[..., 0] - x, axis=1)
            norms[i, lo : lo + _CHUNK] = norm
            resids[i, lo : lo + _CHUNK] = resid
    tail.spread(norms, resids)
    return norms, resids


def _local_setup(fam: OperatorFamily, x, grid: HGrid):
    """(x, ||x||, evaluated tail, norm_cap) for a local probe or scan.

    The family is evaluated once; the solution-norm cap is
    B_MAX_FACTOR * ||x|| / scale, with the family scale of `_tail_eval`.
    """
    v = as_vector(x, dim=fam.dim)
    xnorm = float(np.linalg.norm(v))
    tail = _tail_eval(fam, grid)
    return v, xnorm, tail, B_MAX_FACTOR * max(xnorm, 1e-300) / tail.scale


def _local_cells(
    tail: _Tail,
    v: np.ndarray,
    xnorm: float,
    norm_cap: float,
    centers: np.ndarray,
    ring_r: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The point rule of `family_local_probe` for every cell center.

    Each cell is probed at its center and on a circle of radius ring_r
    around it.  Returns (class codes, tau, number of failing probe
    points), where tau is the stencil median of ||x|| over the norm tail
    max; the zero vector is LocalResolvent everywhere with tau = inf.
    """
    if xnorm == 0.0:
        n = len(centers)
        return np.full(n, CLS_RESOLVENT, dtype=np.int8), np.full(n, np.inf), 0
    offsets = _ring_offsets(ring_r)
    norms, resids = _probe_samples(tail, v, (centers[:, None] + offsets).ravel())
    eps_res = EPS_TAIL * max(1.0, xnorm)
    floor_res = ZERO_FLOOR * max(1.0, xnorm)
    res_codes, _, _, _ = verdict_arrays(resids, eps_res, floor_res)
    norm_codes, norm_max, _, norm_trend = verdict_arrays(norms, eps_res, floor_res)
    stencil = (len(centers), len(offsets))
    good = (res_codes == 0) & (norm_max <= norm_cap) & (norm_trend <= TREND_FLAT_TOL)
    bad = np.isin(res_codes, (1, 2)) | (norm_codes == 2) | (norm_max > norm_cap)
    # Median over the stencil: robust against isolated zeros of the local
    # extension, which can make single probe points look deceptively tame.
    tau = np.median((xnorm / np.maximum(norm_max, 1e-300)).reshape(stencil), axis=1)
    classes = np.full(len(centers), CLS_UNDETERMINED, dtype=np.int8)
    classes[good.reshape(stencil).all(axis=1)] = CLS_RESOLVENT
    classes[bad.reshape(stencil).any(axis=1)] = CLS_SPECTRUM
    return classes, tau, int(bad.sum())


@dataclass(frozen=True, eq=False)
class LocalProbe:
    """Neighborhood probe of one lambda0 for the family local resolvent."""

    lam: complex
    nbhd_r: float
    classification: str
    bad_points: int


def family_local_probe(
    fam: OperatorFamily,
    x,
    lam0: complex,
    nbhd_r: float,
    grid: HGrid,
) -> LocalProbe:
    """Probe lambda0 and its surrounding circle for local-resolvent membership.

    LocalResolvent: at every probe point the least-squares solutions have
    vanishing residual tails and bounded, non-increasing norm tails.
    LocalSpectrum: some probe point definitely fails (persistent residual
    or norm blowup).  Undetermined absorbs the mixed cases.
    `family_local_spectrum_grid` applies the same rule at every cell, plus
    its dip test.
    """
    if nbhd_r <= 0:
        raise InputError("nbhd_r must be > 0")
    v, xnorm, tail, norm_cap = _local_setup(fam, x, grid)
    classes, _, bad = _local_cells(
        tail, v, xnorm, norm_cap, np.array([lam0], dtype=complex), nbhd_r
    )
    return LocalProbe(
        lam=complex(lam0),
        nbhd_r=nbhd_r,
        classification=_LOCAL_NAMES[int(classes[0])],
        bad_points=bad,
    )


def family_local_spectrum_grid(
    fam: OperatorFamily,
    x,
    rect,
    nx: int,
    ny: int,
    grid: HGrid,
) -> RegionGrid:
    """Per-cell local probes over a rectangle.

    Each cell gets the point rule of `family_local_probe`, with the ring
    radius half the smaller cell side.  A cell is LocalSpectrum too when
    its distance-like score (the stencil median of ||x|| over the
    solution norm) sits below LOCAL_CAL_FACTOR cell radii at a local
    minimum of the score field.
    """
    rect, w, h, rcell, centers = _scan_setup(rect, nx, ny, grid.tail * (1 + _RING_POINTS))
    v, xnorm, tail, norm_cap = _local_setup(fam, x, grid)
    classes, tau, _ = _local_cells(tail, v, xnorm, norm_cap, centers, 0.5 * min(w, h))
    score = tau.reshape(ny, nx)
    classes[(tau <= LOCAL_CAL_FACTOR * rcell) & _dip_mask(score).ravel()] = CLS_SPECTRUM
    return RegionGrid(
        rect=rect, nx=nx, ny=ny, classes=classes.reshape(ny, nx), score=score
    )


def report_from_grid(grid_result: RegionGrid, subject: str, x) -> LocalSpectrumReport:
    """Summarize a local grid as a support report (method FamilyProbe)."""
    marked = grid_result.classes == CLS_SPECTRUM
    centers = grid_result.centers()[marked]
    scores = grid_result.score[marked]
    support = tuple(
        (complex(c), float(s)) for c, s in zip(centers.ravel(), scores.ravel())
    )
    return LocalSpectrumReport(
        subject=subject,
        x=as_vector(x),
        support=support,
        method="FamilyProbe",
        zero_vector=float(np.linalg.norm(np.asarray(x))) == 0.0,
    )


@dataclass(frozen=True)
class MembershipAnswer:
    """Answer of a local-spectral-space membership test.

    Truthiness is the membership verdict; `inconclusive` is set when
    Undetermined cells outside the region leave the answer unproven.
    """

    member: bool
    inconclusive: bool
    n_support_cells: int
    offenders: tuple[complex, ...]
    note: str = ""

    def __bool__(self) -> bool:
        return self.member


def local_spectral_space_member(
    fam: OperatorFamily,
    x,
    region: Region | str,
    rect,
    grid: HGrid,
    nx: int = 64,
    ny: int = 64,
    cached_grid: RegionGrid | None = None,
) -> MembershipAnswer:
    """Does the family local spectrum of x lie inside the region?

    The scan rectangle must cover the spectral-radius disk of the family;
    membership is tested at cell centers of the local grid.
    """
    if isinstance(region, str):
        region = parse_region(region)
    rect = _validate_rect(rect)
    bound = spectral_radius_bound(fam, grid)
    if not np.isfinite(bound.value):
        raise InputError("spectral radius bound diverged; cannot validate rect")
    re_min, re_max, im_min, im_max = rect
    r = bound.value
    if re_min > -r or re_max < r or im_min > -r or im_max < r:
        raise InputError(
            f"rect {rect} does not cover the spectral-radius disk (radius {r:.3e})"
        )
    v = as_vector(x, dim=fam.dim)
    if float(np.linalg.norm(v)) == 0.0:
        return MembershipAnswer(
            member=True,
            inconclusive=False,
            n_support_cells=0,
            offenders=(),
            note="zero vector: empty local spectrum",
        )
    g = cached_grid
    if g is None:
        g = family_local_spectrum_grid(fam, v, rect, nx, ny, grid)
    centers = g.centers()
    marked = g.classes == CLS_SPECTRUM
    undet = g.classes == CLS_UNDETERMINED
    inside = region.contains(centers)
    offenders = tuple(complex(c) for c in centers[marked & ~inside].ravel())
    inconclusive = bool((undet & ~inside).any())
    return MembershipAnswer(
        member=not offenders,
        inconclusive=inconclusive,
        n_support_cells=int(marked.sum()),
        offenders=offenders,
        note="" if not inconclusive else "undetermined cells outside the region",
    )


@dataclass(frozen=True)
class Witness:
    """A sampled analytic candidate lambda -> {f_h(lambda)} for SVEP probes."""

    name: str
    fn: Callable[[complex], VectorFamily]


@dataclass(frozen=True)
class WitnessResult:
    name: str
    status: str  # "consistent" | "falsifies" | "inconclusive"
    residual_all_to_zero: bool
    norm_positive_somewhere: bool
    bounded_pointwise: bool
    note: str = ""


@dataclass(frozen=True)
class SvepReport:
    """Outcome of a falsification probe; absence of a hit proves nothing."""

    falsified: bool
    results: tuple[WitnessResult, ...]
    note: str


def _residual_tail(mats: np.ndarray, vals: np.ndarray, lam: complex) -> np.ndarray:
    """(lambda I - F(h)) y_h over the tail matrices, for evaluated y_h."""
    ident = np.eye(mats.shape[-1], dtype=complex)
    return ((lam * ident - mats) @ vals[..., None])[..., 0]


def svep_falsification_probe(
    fam: OperatorFamily,
    witnesses: Sequence[Witness],
    mesh: Sequence[complex],
    grid: HGrid,
) -> SvepReport:
    """Search the witnesses for a single-valued-extension-property violation.

    A witness falsifies when its residual tails vanish at every mesh point
    while its norm tail stays definitely positive somewhere.  No witness
    hitting is reported as "not falsified", never as a proof.
    """
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
            res_verdicts.append(tail_stats(rvals, tail=grid.tail).limit_verdict)
            norm_verdicts.append(tail_stats(nvals, tail=grid.tail).limit_verdict)
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


@dataclass(frozen=True)
class UniquenessReport:
    """Per-mesh-point comparison of two local solution families."""

    verdicts: tuple[str, ...]
    all_to_zero: bool
    worst_tail_max: float


def local_extension_uniqueness_check(
    fam: OperatorFamily,
    x,
    sol1: Callable[[complex], VectorFamily],
    sol2: Callable[[complex], VectorFamily],
    mesh: Sequence[complex],
    grid: HGrid,
) -> UniquenessReport:
    """Two admissible local solution families must merge at h -> 0.

    Rejects (PreconditionError) unless both candidates have vanishing
    residual tails ||(lambda I - F(h)) y_h(lambda) - x|| at every mesh
    point; then tests ||x_h(lambda) - y_h(lambda)|| -> 0 pointwise.  Each
    candidate is evaluated once per mesh point.
    """
    v = as_vector(x, dim=fam.dim)
    mesh = [complex(z) for z in mesh]
    if not mesh:
        raise InputError("empty lambda mesh")
    hs = grid.tail_samples()
    mats = _tail_eval(fam, grid).mats
    eps_res = EPS_TAIL * max(1.0, float(np.linalg.norm(v)))
    # Keyed by mesh position, not by lambda: a mesh may repeat a point.
    stacks = {}
    for name, sol in (("first", sol1), ("second", sol2)):
        for k, lam in enumerate(mesh):
            vals = stacks[name, k] = sol(lam).eval_stack(hs)
            resid = _residual_tail(mats, vals, lam) - v
            stats = tail_stats(
                np.linalg.norm(resid, axis=1), tail=grid.tail, eps_tail=eps_res
            )
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
        stats = tail_stats(np.linalg.norm(diff, axis=1), tail=grid.tail)
        verdicts.append(stats.limit_verdict)
        worst = max(worst, stats.tail_max)
    return UniquenessReport(
        verdicts=tuple(verdicts),
        all_to_zero=all(v == TO_ZERO for v in verdicts),
        worst_tail_max=worst,
    )

"""Spectrum and resolvent set of an operator family via tail invertibility.

A point lambda belongs to the family resolvent set when the shifted family
admits a bounded family of approximate inverses with two-sided residuals
vanishing at h -> 0.  The computable surrogate used here: the smallest
singular value of (lambda I - F(h)) stays bounded below along the grid
tail (sufficient: the exact inverses then form a bounded family), while a
tail of singular values vanishing at h -> 0 certifies spectrum membership
(necessary direction).  Points that resolve neither way are Undetermined.

Grid scans classify cell centers.  Because a point test cannot see a
measure-zero spectrum from a generic cell center, both grid scans (this
module's and `local`'s) end in one marking step, `_mark_dips`: the
pseudospectral reading of "the spectrum meets this cell" at the grid's
resolution.  The thresholds are the module constants, and classification
is deterministic given family, h-grid, rectangle and resolution.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvariantError, PreconditionError
from .families import (
    TO_ZERO,
    TREND_FLAT_TOL,
    CoeffFn,
    HGrid,
    OperatorFamily,
    RadiusBound,
    TailStats,
    _Tail,
    _tail_eval,
    asymptotically_equivalent,
    tail_stats,
    verdict_arrays,
)
from .linalg import as_matrix, op_norms

RESOLVENT = "Resolvent"
SPECTRUM = "Spectrum"
UNDETERMINED = "Undetermined"

CLS_SPECTRUM = 0
CLS_UNDETERMINED = 1
CLS_RESOLVENT = 2
CLASS_CHARS = {CLS_SPECTRUM: "S", CLS_UNDETERMINED: "U", CLS_RESOLVENT: "R"}
_CLASS_NAMES = {
    CLS_SPECTRUM: SPECTRUM,
    CLS_UNDETERMINED: UNDETERMINED,
    CLS_RESOLVENT: RESOLVENT,
}

DELTA_RES = 1e-6
NEUMANN_MARGIN = 1e-6
SIGMA_FLOOR_REL = 1e-10
DIP_MIN_SLACK = 0.05
DIP_MEDIAN_BETA = 0.6
# Most tail samples (tail length x probe points) one grid scan may take.
SCAN_SAMPLE_BUDGET = 2**24

# Probe points one sigma task holds: at most _SIGMA_TASK, and no more than
# fit their shifted matrices lam I - F(h) in _SIGMA_TASK_BYTES (see
# `_task_points`).  Both are fixed, so the split, and so every result, is
# the same at any core count, and each worker holds one task at a time.
_SIGMA_TASK = 1024
_SIGMA_TASK_BYTES = 2**20


@dataclass(frozen=True, eq=False)
class ResolventProbe:
    """Point classification of one lambda for a family."""

    lam: complex
    tail_sigma: np.ndarray
    tail_resnorm: np.ndarray
    classification: str
    sigma_stats: TailStats
    neumann: bool


def _usable_cores() -> int:
    """Cores this process may run on, read at every call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sigma_min2(m: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """sigma_min(lam I - m) of one 2x2 matrix m at every point of lams.

    The closed form of LAPACK's 2x2 stage, elementwise.  The entries
    a = lam - m00, b = -m01, c = -m10, d = lam - m11 are scaled by a power
    of two (exact; the largest real or imaginary part lands in [1/2, 1),
    so no square below overflows and subnormal entries keep their bits).
    One complex Givens rotation, [[conj a, conj c], [-c, a]] / f with
    f = |(a, c)|, takes the matrix to a triangle whose singular values are
    those of the real [[f, g], [0, h]], g = |conj(a) b + conj(c) d| / f,
    h = |a d - c b| / f.  Then dlas2's ssmin = f h / ssmax with ssmax =
    (|(f + h, g)| + |(f - h, g)|) / 2, a sum of two nonnegative terms
    (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11, 1990).  The error is
    of order eps * sigma_max, as LAPACK's; every step is a ufunc on each
    point alone, so a point gets the same bits in any batch.
    """
    n = len(lams)
    z = np.empty((4, n), dtype=complex)
    np.subtract(lams, m[0, 0], out=z[0])
    z[1] = -m[0, 1]
    z[2] = -m[1, 0]
    np.subtract(lams, m[1, 1], out=z[3])
    parts = z.view(float).reshape(4, n, 2)
    top = np.abs(parts).max(axis=0)
    # 2**k with k <= 1022 stays finite; a subnormal top then lands at or
    # above 2**-52, still far from underflow in the squares.
    k = np.minimum(-np.frexp(np.maximum(top[:, 0], top[:, 1]))[1], 1022)
    z *= np.ldexp(1.0, k)
    a, b, c, d = z
    sq = parts[0] * parts[0] + parts[2] * parts[2]
    f = np.sqrt(sq[:, 0] + sq[:, 1])
    # f = 0: the first column is zero, and so are h and sigma_min.
    f_zero = f == 0.0
    f_or_1 = f + f_zero
    g = np.abs(a.conj() * b + c.conj() * d) / f_or_1
    h = np.abs(a * d - c * b) / f_or_1
    gg = g * g
    ssmax = 0.5 * (np.sqrt((f + h) ** 2 + gg) + np.sqrt((f - h) ** 2 + gg))
    ssmin = f * h / (ssmax + f_zero)
    return np.ldexp(ssmin, -k)


def _task_points(d: int) -> int:
    """Probe points per sigma task for matrices of order d.

    At most _SIGMA_TASK points, so that small grids still split into one
    task per core, and at most _SIGMA_TASK_BYTES of complex d x d shifted
    matrices: 1024 points up to order 8, 256 at order 16.
    """
    return max(1, min(_SIGMA_TASK, _SIGMA_TASK_BYTES // (16 * d * d)))


def _sigma_task(tail: _Tail, lams: np.ndarray) -> np.ndarray:
    """Smallest singular values of (lam I - F(h)) over the tail matrices.

    Returns shape (len(tail.mats), len(lams)).  Order-2 matrices take the
    closed form of `_sigma_min2`; every other order takes numpy's batched
    SVD of the shifted matrices, built in one buffer by the operations of
    `lam * I - F(h)`: lam times I, then F(h) subtracted in place, signed
    zeros included.  Every point is computed alone by the same arithmetic,
    so its bytes do not depend on the other points of the task.
    """
    out = np.empty((len(tail.mats), len(lams)))
    d = tail.mats.shape[-1]
    if d == 2:
        for i in tail.distinct:
            out[i] = _sigma_min2(tail.mats[i], lams)
    else:
        ident = np.eye(d, dtype=complex)
        shifted = np.empty((len(lams), d, d), dtype=complex)
        for i in tail.distinct:
            np.multiply(lams[:, None, None], ident, out=shifted)
            np.subtract(shifted, tail.mats[i], out=shifted)
            out[i] = np.linalg.svd(shifted, compute_uv=False)[:, -1]
    tail.spread(out)
    return out


def _classify(sig, tail_norms, scale: float, lams: np.ndarray):
    """The point rule of `probe_resolvent` at every point of lams.

    sig holds the sigma tails, one column per point.  Returns (class
    codes, the `verdict_arrays` of sig, Neumann mask).
    """
    verdicts = verdict_arrays(sig, DELTA_RES * scale, SIGMA_FLOOR_REL * scale)
    codes, _, tail_min, _ = verdicts
    neumann = np.abs(lams) * (1.0 - NEUMANN_MARGIN) > tail_norms.max()
    classes = np.full(lams.shape, CLS_UNDETERMINED, dtype=np.int8)
    classes[neumann | (tail_min >= DELTA_RES * scale)] = CLS_RESOLVENT
    classes[(codes == 0) & ~neumann] = CLS_SPECTRUM
    return classes, verdicts, neumann


def _tail_inverses(mats: np.ndarray, lam: complex) -> np.ndarray:
    """Exact inverses of lam I - F(h) over the tail matrices."""
    ident = np.eye(mats.shape[-1], dtype=complex)
    shifted = lam * ident - mats
    return np.linalg.solve(shifted, np.broadcast_to(ident, shifted.shape))


def probe_resolvent(fam: OperatorFamily, lam: complex, grid: HGrid) -> ResolventProbe:
    """Classify one lambda as Resolvent / Spectrum / Undetermined.

    Resolvent either by the Neumann certificate (tail norms strictly below
    |lambda|) or by a sigma tail bounded below by DELTA_RES * scale; both
    keep every lambda I - F(h) invertible, and tail_resnorm holds the
    inverse norms 1 / sigma_min.  Spectrum when the sigma tail vanishes
    and the Neumann certificate does not hold.  Undetermined absorbs the
    rest.  `family_spectrum_grid` applies the same rule at every cell
    center, plus its marking step.
    """
    tail = _tail_eval(fam, grid)
    if not np.isfinite(lam):
        raise InputError(f"probe point {lam} is not finite")
    lams = np.array([lam], dtype=complex)
    sig = _sigma_task(tail, lams)
    classes, _, neumann = _classify(sig, tail.norms, tail.scale, lams)
    column = sig[:, 0]
    # ||(lam I - F(h))^-1|| = 1 / sigma_min, infinite where lam I - F(h)
    # is singular.
    with np.errstate(divide="ignore"):
        resnorm = 1.0 / column
    return ResolventProbe(
        lam=complex(lam),
        tail_sigma=column,
        tail_resnorm=resnorm,
        classification=_CLASS_NAMES[int(classes[0])],
        sigma_stats=tail_stats(column, DELTA_RES * tail.scale, SIGMA_FLOOR_REL * tail.scale),
        neumann=bool(neumann[0]),
    )


def _cell_grid(rect, nx: int, ny: int) -> tuple[float, float, np.ndarray]:
    """Cell width and height, and the (ny, nx) cell centers of a scan."""
    re_min, re_max, im_min, im_max = rect
    w = (re_max - re_min) / nx
    h = (im_max - im_min) / ny
    res = re_min + (np.arange(nx) + 0.5) * w
    ims = im_min + (np.arange(ny) + 0.5) * h
    return w, h, res[None, :] + 1j * ims[:, None]


def _scan_setup(rect, nx: int, ny: int, samples_per_cell: int):
    """Validated scan geometry: (rect, w, h, rcell, raveled cell centers).

    rcell is the cell half-diagonal.  A scan needing more than
    SCAN_SAMPLE_BUDGET tail samples is rejected before anything is
    allocated.
    """
    rect = _validate_rect(rect)
    if nx < 8 or ny < 8:
        raise InputError("need nx, ny >= 8")
    if nx * ny * samples_per_cell > SCAN_SAMPLE_BUDGET:
        raise InputError(
            f"a {nx}x{ny} scan needs {nx * ny * samples_per_cell} tail samples, "
            f"over the budget of {SCAN_SAMPLE_BUDGET}; lower the resolution"
        )
    w, h, centers = _cell_grid(rect, nx, ny)
    return rect, w, h, 0.5 * float(np.hypot(w, h)), centers.ravel()


@dataclass(frozen=True, eq=False)
class RegionGrid:
    """Rectangular scan of the complex plane with per-cell classification.

    classes: (ny, nx) int8 with 0=Spectrum, 1=Undetermined, 2=Resolvent
    (for local-spectrum grids, 0 means LocalSpectrum and 2 LocalResolvent).
    score: the per-cell scalar that drove classification (min tail sigma
    for spectrum grids; the distance-like local score for local grids).
    Cells are indexed [iy, ix] with im ascending in iy and re in ix;
    centers sit at the cell midpoints.  scanned is (family, h-grid,
    read-only x) for a local scan, None for other grids.
    """

    rect: tuple[float, float, float, float]
    nx: int
    ny: int
    classes: np.ndarray
    score: np.ndarray
    scanned: tuple | None = None

    def cell_size(self) -> tuple[float, float]:
        return _cell_grid(self.rect, self.nx, self.ny)[:2]

    def centers(self) -> np.ndarray:
        return _cell_grid(self.rect, self.nx, self.ny)[2]

    def cells_with_class(self, cls: int) -> np.ndarray:
        """Centers of all cells carrying the given class code."""
        return self.centers()[self.classes == cls]

    def counts(self) -> dict[str, int]:
        return {
            CLASS_CHARS[c]: int((self.classes == c).sum())
            for c in (CLS_SPECTRUM, CLS_UNDETERMINED, CLS_RESOLVENT)
        }


def _validate_rect(rect) -> tuple[float, float, float, float]:
    re_min, re_max, im_min, im_max = (float(v) for v in rect)
    # A finite width and height also rules out every non-finite bound.
    if not np.isfinite([re_max - re_min, im_max - im_min]).all():
        raise InputError(f"rectangle {rect} needs finite bounds, width and height")
    if not (re_min < re_max and im_min < im_max):
        raise InputError(f"empty rectangle {rect}")
    return re_min, re_max, im_min, im_max


def _dip_mask(score: np.ndarray) -> np.ndarray:
    """Cells whose score dips sharply below the surrounding field.

    A dip must not exceed its smallest 8-neighbor by more than
    DIP_MIN_SLACK (rules out saddles and gently sloped plateaus, keeps
    exact ties) and must stay below DIP_MEDIAN_BETA times the neighbor
    median (a tie cluster at a point of the spectrum occupies at most 4
    cells, so the median still sees the surrounding plateau).  Boundary
    cells, lacking full neighborhoods, never qualify.
    """
    ny, nx = score.shape
    mask = np.zeros((ny, nx), dtype=bool)
    if ny < 3 or nx < 3:
        return mask
    center = score[1:-1, 1:-1]
    neighbors = np.stack(
        [
            score[1 + dy : ny - 1 + dy, 1 + dx : nx - 1 + dx]
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
            if (dy, dx) != (0, 0)
        ],
        axis=-1,
    )
    neighbors.sort(axis=-1)
    nb_min = neighbors[..., 0]
    # Scores near the float maximum may overflow to inf here; such cells
    # are never flat-low, which every caller requires of a dip too.
    with np.errstate(over="ignore"):
        nb_median = 0.5 * (neighbors[..., 3] + neighbors[..., 4])
        mask[1:-1, 1:-1] = (center <= nb_min * (1.0 + DIP_MIN_SLACK) + 1e-300) & (
            center <= nb_median * DIP_MEDIAN_BETA + 1e-300
        )
    return mask


def _mark_dips(rect, nx: int, ny: int, classes, score, flat_low, scanned=None) -> RegionGrid:
    """The marking step of both grid scans, and the grid they return.

    classes, score and flat_low (each scan's calibration against the cell
    size) hold one entry per cell.  A flat-low cell that is a dip of the
    score field (`_dip_mask`) becomes Spectrum in classes: the spectrum
    meets it at the scan's resolution, unseen by a point test at its center.
    """
    score = score.reshape(ny, nx)
    classes[flat_low & _dip_mask(score).ravel()] = CLS_SPECTRUM
    return RegionGrid(rect, nx, ny, classes.reshape(ny, nx), score, scanned)


def family_spectrum_grid(
    fam: OperatorFamily, rect, nx: int, ny: int, grid: HGrid
) -> RegionGrid:
    """Classify every cell center of an nx-by-ny scan over `rect`.

    Each center gets the point rule of `probe_resolvent`, and the marking
    step (`_mark_dips`) takes the cells whose sigma tail sits flat at or
    below the cell half-diagonal, with the minimum tail sigma as score.
    """
    rect, _, _, rcell, lams = _scan_setup(rect, nx, ny, grid.tail)
    tail = _tail_eval(fam, grid)
    classes = np.empty(len(lams), dtype=np.int8)
    score = np.empty(len(lams))
    flat_low = np.empty(len(lams), dtype=bool)

    def task(cells: slice) -> None:
        points = lams[cells]
        sig = _sigma_task(tail, points)
        cls, (_, tail_max, tail_min, trend), _ = _classify(sig, tail.norms, tail.scale, points)
        classes[cells] = cls
        score[cells] = tail_min
        flat_low[cells] = (tail_max <= rcell) & (trend <= TREND_FLAT_TOL)

    step = _task_points(tail.mats.shape[-1])
    tasks = [slice(lo, lo + step) for lo in range(0, len(lams), step)]
    if len(tasks) == 1:
        task(tasks[0])
    else:
        # One thread per usable core (at most one per task), started and
        # ended inside this call; the SVD and the ufuncs release the GIL.
        # Reading every result re-raises a task's error, map cancels the
        # tasks not yet started, and the with block waits for the running
        # ones.
        workers = min(_usable_cores(), len(tasks))
        with ThreadPoolExecutor(workers, thread_name_prefix="opfam-sigma") as pool:
            list(pool.map(task, tasks))
    marked = _mark_dips(rect, nx, ny, classes, score, flat_low)
    spec_cells = np.abs(lams[classes == CLS_SPECTRUM])
    if spec_cells.size and spec_cells.max() > tail.norms.max() + 2.0 * rcell + 1e-9:
        raise InvariantError(
            "spectrum cell found outside the norm-bound disk; "
            "classification is inconsistent"
        )
    return marked


def spectral_radius_bound(fam: OperatorFamily, grid: HGrid) -> RadiusBound:
    """Root-growth bound: every spectrum point satisfies |lambda| <= value.

    Computed once per family and h-grid; later calls return the same bound.
    """
    return _tail_eval(fam, grid).radius_bound


def resolvent_identity_residual(
    fam: OperatorFamily, lam: complex, mu: complex, grid: HGrid
) -> TailStats:
    """Tail test of the first resolvent identity along h -> 0.

    Both points must classify Resolvent; the residual
    R(lam,h) - R(mu,h) - (mu - lam) R(lam,h) R(mu,h) then vanishes.
    """
    for point in (lam, mu):
        probe = probe_resolvent(fam, point, grid)
        if probe.classification != RESOLVENT:
            raise PreconditionError(
                f"{point} classified {probe.classification}, needs Resolvent"
            )
    tail = _tail_eval(fam, grid)
    r_lam = _tail_inverses(tail.mats, lam)
    r_mu = _tail_inverses(tail.mats, mu)
    resid = r_lam - r_mu - (mu - lam) * (r_lam @ r_mu)
    return tail_stats(op_norms(resid))


@dataclass(frozen=True)
class ResidualCheck:
    """Outcome of a residual tail test with precondition bookkeeping."""

    stats: TailStats
    precondition_ok: bool
    notes: str


def resolvent_uniqueness_residual(
    fam: OperatorFamily,
    lam: complex,
    r1: OperatorFamily,
    r2: OperatorFamily,
    grid: HGrid,
) -> ResidualCheck:
    """Tail test of ||R1(h) - R2(h)|| for two approximate resolvents.

    Preconditions (two-sided approximate-inverse residual tails below
    DELTA_RES * scale) are verified first; on violation the op still runs
    and reports it via the precondition flag.
    """
    fam._check_dim(r1)
    fam._check_dim(r2)
    tail = _tail_eval(fam, grid)
    scale = tail.scale
    ident = np.eye(fam.dim, dtype=complex)
    shifted = lam * ident - tail.mats
    stacks = (_tail_eval(r1, grid).mats, _tail_eval(r2, grid).mats)
    notes = []
    ok = True
    for name, stack in zip(("R1", "R2"), stacks):
        right = op_norms(shifted @ stack - ident)
        left = op_norms(stack @ shifted - ident)
        worst = max(right.max(), left.max())
        if worst > DELTA_RES * scale:
            ok = False
            notes.append(
                f"{name} residual tail {worst:.3e} exceeds {DELTA_RES * scale:.3e}"
            )
    return ResidualCheck(
        stats=tail_stats(op_norms(stacks[0] - stacks[1])),
        precondition_ok=ok,
        notes="; ".join(notes) if notes else "approximate-inverse preconditions hold",
    )


def truncated_resolvent_family(a, b, lam: complex, order: int = 3) -> OperatorFamily:
    """Catalog approximate resolvent for F(h) = A + h B at lam.

    R(h) = sum_{j<=order} h**j C_j with C_0 = (lam I - A)^-1 and
    C_j = C_0 B C_{j-1}; the two-sided residuals are O(h**(order+1)), so
    the family is a certified approximate inverse along the tail whenever
    lam lies outside the spectrum of A.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    d = am.shape[0]
    ident = np.eye(d, dtype=complex)
    c0 = np.linalg.solve(lam * ident - am, ident)
    terms = [(CoeffFn.const(), c0)]
    prev = c0
    for j in range(1, order + 1):
        prev = c0 @ bm @ prev
        terms.append((CoeffFn.pow_h(float(j)), prev))
    return OperatorFamily.from_terms(d, terms)


@dataclass(frozen=True)
class InvarianceReport:
    """Cell-by-cell comparison of two classification grids."""

    n_cells: int
    disagreements: tuple[tuple[int, int], ...]
    n_undetermined_first: int
    n_undetermined_second: int
    identical: bool


def compare_grids(a: RegionGrid, b: RegionGrid) -> InvarianceReport:
    if a.classes.shape != b.classes.shape:
        raise InputError("grids have different resolutions")
    und = (a.classes == CLS_UNDETERMINED) | (b.classes == CLS_UNDETERMINED)
    diff = (a.classes != b.classes) & ~und
    cells = tuple((int(iy), int(ix)) for iy, ix in np.argwhere(diff))
    return InvarianceReport(
        n_cells=a.classes.size,
        disagreements=cells,
        n_undetermined_first=int((a.classes == CLS_UNDETERMINED).sum()),
        n_undetermined_second=int((b.classes == CLS_UNDETERMINED).sum()),
        identical=not cells,
    )


def class_invariance_check(
    f: OperatorFamily,
    g: OperatorFamily,
    rect,
    nx: int,
    ny: int,
    grid: HGrid,
) -> InvarianceReport:
    """Spectrum grids of two certified asymptotically equivalent families.

    Rejects pairs whose difference is not a certified null family; the
    grids are then expected to agree cell by cell outside Undetermined.
    """
    verdict = asymptotically_equivalent(f, g, grid).limit_verdict
    if verdict != TO_ZERO:
        raise PreconditionError(
            f"families are not certified asymptotically equivalent ({verdict})"
        )
    ga = family_spectrum_grid(f, rect, nx, ny, grid)
    gb = family_spectrum_grid(g, rect, nx, ny, grid)
    return compare_grids(ga, gb)

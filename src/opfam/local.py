"""Local resolvent sets, local spectra and local spectral spaces.

For a single matrix the local spectrum at x is computed exactly: in finite
dimension every operator has the single-valued extension property and the
support of x across the spectral projections decides membership, so
lambda_i belongs to the local spectrum iff P_i x != 0.  The maximal
extension of the local resolvent is the explicit partial-fraction sum over
the supported clusters.  Every local rule reads x through `_read_x`.

For a family the computable surrogate probes a point lambda0 together
with a small circle around it: at every probe point the minimum-norm
least-squares solutions of (lambda I - F(h)) y = x must have residual
tails vanishing at h -> 0 and norm tails bounded (the finite stand-in for
"a bounded analytic solution family exists on a neighborhood").  Grid
scans end in the marking step of the spectrum grids, `spectra._mark_dips`,
on the score ||x|| / (solution norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, InputError
from .errors import PoleProximityError, PreconditionError
from .families import (
    EPS_TAIL,
    TREND_FLAT_TOL,
    VERDICT_CODES,
    ZERO_FLOOR,
    HGrid,
    OperatorFamily,
    VectorFamily,
    _Tail,
    _tail_eval,
    verdict_arrays,
)
from .linalg import SpectralDecomp, as_matrix, as_vector, spectral_decomp
from .spectra import (
    CLS_RESOLVENT,
    CLS_SPECTRUM,
    CLS_UNDETERMINED,
    UNDETERMINED,
    RegionGrid,
    _mark_dips,
    _scan_setup,
    spectral_radius_bound,
)
from .regions import Region, parse_region

LOCAL_RESOLVENT = "LocalResolvent"
LOCAL_SPECTRUM = "LocalSpectrum"

TOL_LOC = 1e-8
TOL_EXT = 1e-6
B_MAX_FACTOR = 1e8
# An x whose largest entry modulus lies outside this range is read as its
# exact power-of-two multiple with largest entry modulus in [1, 2).
X_PEAK_RANGE = (2.0**-64, 2.0**64)
LOCAL_CAL_FACTOR = 8.0

_LOCAL_NAMES = {
    CLS_SPECTRUM: LOCAL_SPECTRUM,
    CLS_UNDETERMINED: UNDETERMINED,
    CLS_RESOLVENT: LOCAL_RESOLVENT,
}


class _ReadX(NamedTuple):
    """x as every local rule reads it (`_read_x`)."""

    x: np.ndarray  # as given, read-only
    v: np.ndarray  # 2**k x, exactly
    k: int
    norm: float  # ||v||
    zero: bool
    eps_res: float
    floor_res: float


def _read_x(x, dim: int) -> _ReadX:
    """The one reading of x: a finite dim-vector whose norm does not overflow.

    x is zero when its entries are (its norm can underflow first).  Since
    sigma_F(c x) = sigma_F(x) for c != 0 and the local resolvent is linear
    in x, an x whose largest entry modulus lies outside X_PEAK_RANGE is
    read as v = 2**k x with largest entry modulus in [1, 2), and a rule
    scales the values it reports back by 2**-k; otherwise v = x, k = 0.
    The residual and difference tolerances are EPS_TAIL and ZERO_FLOOR
    times max(1, ||v||).
    """
    given = as_vector(x, dim=dim).copy()
    given.setflags(write=False)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(given))
    if not np.isfinite(norm):
        raise InputError("the norm of x overflows")
    v, k = given, 0
    peak = float(np.abs(given).max())
    if peak and not X_PEAK_RANGE[0] <= peak <= X_PEAK_RANGE[1]:
        k = 1 - math.frexp(peak)[1]
        v = np.ldexp(given.view(float), k).view(complex)
        norm = float(np.linalg.norm(v))
    scale = max(1.0, norm)
    return _ReadX(given, v, k, norm, peak == 0.0, EPS_TAIL * scale, ZERO_FLOOR * scale)


@dataclass(frozen=True, eq=False)
class LocalSpectrumReport:
    """Support of the local spectrum of a matrix at x."""

    x: np.ndarray
    support: tuple[tuple[complex, float], ...]
    zero_vector: bool = False

    def support_points(self) -> np.ndarray:
        return np.array([p for p, _ in self.support])


def _supported_clusters(decomp: SpectralDecomp, xr: _ReadX):
    """(cluster, P_i v, ||P_i x||) of each cluster with ||P_i v|| > TOL_LOC ||v||.

    The one support rule of the exact local spectrum; the zero vector has none.
    """
    cap = TOL_LOC * xr.norm
    for cluster in decomp.clusters:
        px = cluster.projection @ xr.v
        weight = float(np.linalg.norm(px))
        if weight > cap:
            yield cluster, px, math.ldexp(weight, -xr.k)


def local_spectrum_exact(
    a, x, decomp: SpectralDecomp | None = None
) -> LocalSpectrumReport:
    """Exact local spectrum of a matrix at x via spectral projections.

    The support is the set of cluster centers with ||P_i x|| above
    TOL_LOC * ||x||, each with its weight ||P_i x||.  The zero vector has
    empty local spectrum by convention and is flagged.
    """
    m = as_matrix(a)
    xr = _read_x(x, m.shape[0])
    if decomp is not None and decomp.dim != m.shape[0]:
        raise DimensionMismatchError(f"decomp has dim {decomp.dim} != matrix dim {m.shape[0]}")
    if xr.zero:
        return LocalSpectrumReport(x=xr.x, support=(), zero_vector=True)
    if decomp is None:
        decomp = spectral_decomp(m)
    support = tuple((c.center, w) for c, _, w in _supported_clusters(decomp, xr))
    return LocalSpectrumReport(x=xr.x, support=support)


def maximal_extension_eval(a, x, lam: complex) -> np.ndarray:
    """Evaluate the partial-fraction extension of the local resolvent at lam.

    Returns the sum over supported clusters of
    (lam - c_i)**-(j+1) N_i**j P_i x, j < m_i.  Away from the supported
    discs this agrees with the direct solve of (lam I - A) y = x; the
    point may sit inside discs of unsupported clusters, which is what
    makes it the maximal extension.
    """
    m = as_matrix(a)
    xr = _read_x(x, m.shape[0])
    value = np.zeros(m.shape[0], dtype=complex)
    for cluster, px, _ in _supported_clusters(spectral_decomp(m), xr):
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
    return np.ldexp(value.view(float), -xr.k).view(complex)


_RING_POINTS = 8
# The distinct probe points one block of a local scan solves at most, in
# one kernel pass: the 9 points of 910 cells that share none.
_BLOCK_CELLS = 910
_BLOCK_POINTS = _BLOCK_CELLS * (1 + _RING_POINTS)
# Slots 1 and 3, the ring's 0 and 90 degree points.  A cell's 180 degree
# point (slot 5) is its left neighbour's slot 1 and its 270 degree point
# (slot 7) its lower neighbour's slot 3 when the ring reaches that cell
# edge and the two sums round alike.
_EDGE_SLOTS = slice(1, 4, 2)


def _same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where two arrays of (real, imaginary) int64 bit pairs hold the same complex number.

    The bitwise rule of `linalg._run_starts`, so -0.0 != +0.0.
    """
    return (a[..., 0] == b[..., 0]) & (a[..., 1] == b[..., 1])


def _ring_offsets(radius: float) -> np.ndarray:
    """The probe stencil: the center plus _RING_POINTS points on a circle."""
    angles = 2.0 * np.pi * np.arange(_RING_POINTS) / _RING_POINTS
    return np.concatenate(([0.0 + 0.0j], radius * np.exp(1j * angles)))


def _min_norm_solve_stack(mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Solutions of M y = x for stacked M, each M on its own.

    Each takes its LU solve when that is finite, and otherwise the
    least-residual minimum-norm solution pinv(M, rcond=1e-13) x, so no
    other matrix of the stack changes its bytes.
    """
    rhs = x[None, :, None]
    y = np.empty(mats.shape[:2], dtype=complex)
    for k in range(len(mats)):
        m = mats[k : k + 1]
        try:
            y[k] = np.linalg.solve(m, rhs)[0, :, 0]
            if np.isfinite(y[k]).all():
                continue
        except np.linalg.LinAlgError:
            pass
        y[k] = (np.linalg.pinv(m, rcond=1e-13) @ rhs)[0, :, 0]
    return y


def _work_per_point(d: int) -> int:
    """Float64 elements of `_triangular_probe`'s work buffer per probe point at order d."""
    return 3 * d + 6


def _triangular_probe(
    t: np.ndarray,
    b: np.ndarray,
    points: np.ndarray,
    work: np.ndarray,
    norm: np.ndarray,
    resid: np.ndarray,
) -> None:
    """Norms and residual norms of the solutions z of (lambda I - T) z = b.

    T is upper triangular; every probe point lambda is solved at once by
    back-substitution, with the points on the contiguous axis.  The
    residual (lambda I - T) z - b is formed row by row from the same sums.
    All arithmetic is elementwise numpy, so no BLAS thread count can
    enter.  An exact eigenvalue hit leaves a non-finite norm at its point.

    The results go into norm and resid.  work is a float64 buffer of at
    least `_work_per_point(len(b))` len(points) elements, 1.5 len(b) + 3
    complex point rows: z, the right-hand side, the shift, one temporary
    and the squared moduli of the residual rows.  So no row allocates and
    every temporary is one point row.  No complex product is written over
    one of its operands: numpy runs such a product in a slower loop, which
    at one point also rounds differently.  The sum of row k is accumulated
    term by term, t[k, k+1] z[k+1] first, and the norms add their squared
    moduli in row order 0..d-1.  That is how numpy's axis-0 reduce adds
    the rows of two or more points (it starts from an exact zero, which
    can change only the sign of a zero, and no zero's sign reaches a
    norm), so there every byte is that of the plain expressions
    `b[k] + (t[k, k+1:, None] * z[k+1:]).sum(0)`, `rhs / shift`,
    `shift * z[k] - rhs` and `np.linalg.norm(z, axis=0)`.  At one point
    numpy reduces those in pairwise order, and the kernel gives the bytes
    of the same expressions with their sums taken row by row.
    """
    d, n = len(b), len(points)
    rows = work[: 2 * (d + 3) * n].view(complex).reshape(d + 3, n)
    z, rhs, shift, tmp = rows[:d], rows[d], rows[d + 1], rows[d + 2]
    squares = work[2 * (d + 3) * n : _work_per_point(d) * n].reshape(d, n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(d - 1, -1, -1):
            if k == d - 1:
                rhs.fill(b[k])
            else:
                np.multiply(t[k, k + 1], z[k + 1], out=rhs)
                for j in range(k + 2, d):
                    np.multiply(t[k, j], z[j], out=tmp)
                    np.add(rhs, tmp, out=rhs)
                np.add(b[k], rhs, out=rhs)
            np.subtract(points, t[k, k], out=shift)
            np.divide(rhs, shift, out=z[k])
            np.multiply(shift, z[k], out=tmp)
            np.subtract(tmp, rhs, out=tmp)
            np.conjugate(tmp, out=shift)
            np.multiply(shift, tmp, out=rhs)
            np.copyto(squares[k], rhs.real)
        norm.fill(0.0)
        resid.fill(0.0)
        for k in range(d):
            np.conjugate(z[k], out=tmp)
            np.multiply(tmp, z[k], out=rhs)
            np.add(norm, rhs.real, out=norm)
            np.add(resid, squares[k], out=resid)
        np.sqrt(norm, out=norm)
        np.sqrt(resid, out=resid)


def _probe_samples(
    tail: _Tail, x: np.ndarray, points: np.ndarray, work: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Solution norms and residuals at every probe point over the tail matrices.

    Returns (norms, residuals), each with one row per distinct tail
    matrix as `_Tail.rows` hands them on, so a constant tail gives one row.
    With F(h) = Q T Q* (`_Tail.schur`), y = Q z solves
    (lambda I - F(h)) y = x where (lambda I - T) z = Q* x, and Q is
    unitary, so ||y|| = ||z|| and the residual has the norm of its
    triangular counterpart.  Only the points where that is not finite (an
    exact eigenvalue hit) are re-solved, by `_min_norm_solve_stack`.  The
    points go through `_triangular_probe` in one pass per distinct matrix,
    in one float64 work buffer of `_work_per_point(d)` elements per point:
    `work` when given, else one allocated here.
    """
    mats = tail.mats
    d = mats.shape[-1]
    ident = np.eye(d, dtype=complex)
    norms, resids = np.empty((2, len(tail.distinct), len(points)))
    if work is None:
        work = np.empty(_work_per_point(d) * len(points))
    for i, norm, resid in zip(tail.distinct, norms, resids):
        t, q = tail.schur(i)
        b = (q.conj() * x[:, None]).sum(axis=0)
        _triangular_probe(t, b, points, work, norm, resid)
        hit = ~(np.isfinite(norm) & np.isfinite(resid))
        if hit.any():
            stack = points[hit, None, None] * ident - mats[i]
            y = _min_norm_solve_stack(stack, x)
            norm[hit] = np.linalg.norm(y, axis=1)
            resid[hit] = np.linalg.norm((stack @ y[..., None])[..., 0] - x, axis=1)
    return tail.rows(norms), tail.rows(resids)


def _shared_slots(
    centers: np.ndarray, offsets: np.ndarray, lo: int, nx: int, edge_bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells from lo on that one block probes, and the points they share.

    Returns (left, lower, edge_bits): whether each cell's slot 5 is its
    left neighbour's slot 1 and its slot 7 its lower neighbour's slot 3,
    for as many whole rows as keep the block's distinct points within
    _BLOCK_POINTS (part of a row when one row alone holds more), and the
    int64 bits of slots 1 and 3 of the nx cells before the next block.
    edge_bits holds those of the nx cells before lo (never read before the
    first row).
    """
    n = len(centers)
    # No cell shares more than two of its points.
    hi = min(n, lo + _BLOCK_POINTS // (len(offsets) - 2))
    bits = (offsets[[1, 3, 5, 7], None] + centers[lo:hi]).view(np.int64).reshape(4, hi - lo, 2)
    near = np.concatenate((edge_bits, bits[:2]), axis=1)  # cells lo - nx .. hi
    left = _same_bits(bits[2], near[0, nx - 1 : -1])
    left[-lo % nx :: nx] = False  # the first cell of a row
    lower = _same_bits(bits[3], near[1, : hi - lo])
    lower[: max(0, nx - lo)] = False  # the first row
    solves = len(offsets) - left.view(np.int8) - lower.view(np.int8)
    m = int(np.searchsorted(np.cumsum(solves), _BLOCK_POINTS, side="right"))
    if lo + m < n and (lo + m) // nx * nx > lo:
        m = (lo + m) // nx * nx - lo  # whole rows
    return left[:m], lower[:m], near[:, m : m + nx].copy()


def _local_cells(
    fam: OperatorFamily,
    xr: _ReadX,
    grid: HGrid,
    centers: np.ndarray,
    ring_r: float,
    nx: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The point rule of `family_local_probe` for every cell center.

    The centers are cell rows of nx cells each, lowest row first.  Each
    cell is probed at its center and on a circle of radius ring_r around
    it, for the x read as xr.v.  Returns (class codes, tau, number of
    failing stencil slots), where tau is the stencil median of ||v|| over
    the norm tail max; the zero vector is LocalResolvent everywhere with
    tau = inf.  The solution-norm cap is B_MAX_FACTOR ||v|| / scale.

    A cell's slot 5 is its left neighbour's slot 1 and its slot 7 its
    lower neighbour's slot 3 wherever the two points are bitwise equal,
    compared through an int64 view of both parts by the
    `linalg._run_starts` rule (so -0.0 != +0.0): such a point is solved
    once, and its class and score fill both slots.  The cells go through
    in blocks of whole rows (a row that alone holds more is cut) of at
    most _BLOCK_POINTS distinct points, all in one kernel work buffer of
    1.5 d + 3 complex rows of the block's points (3.4 MiB at d = 16), and
    a block's tails are reduced to its cells' results before the next
    block is probed.  Slots 1 and 3 of the last nx cells carry over, so
    points are shared across block edges too.  Every point's verdict
    reads its own tails alone, so neither the blocks nor the sharing
    change a result.
    """
    tail = _tail_eval(fam, grid)
    n = len(centers)
    if xr.zero:
        return np.full(n, CLS_RESOLVENT, dtype=np.int8), np.full(n, np.inf), 0
    norm_cap = B_MAX_FACTOR * xr.norm / tail.scale
    offsets = _ring_offsets(ring_r)
    slots = len(offsets)
    classes = np.empty(n, dtype=np.int8)
    tau = np.empty(n)
    work = np.empty(_work_per_point(fam.dim) * min(n * slots, _BLOCK_POINTS))

    def verdicts(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The class and the score ||v|| / (norm tail max) of each point."""
        norms, resids = _probe_samples(tail, xr.v, points, work)
        res_codes, _, _, _ = verdict_arrays(resids, xr.eps_res, xr.floor_res)
        norm_codes, norm_max, _, norm_trend = verdict_arrays(norms, xr.eps_res, xr.floor_res)
        good = (res_codes == 0) & (norm_max <= norm_cap) & (norm_trend <= TREND_FLAT_TOL)
        bad = (res_codes == 1) | (res_codes == 2) | (norm_codes == 2) | (norm_max > norm_cap)
        point_cls = np.full(len(points), CLS_UNDETERMINED, dtype=np.int8)
        point_cls[good] = CLS_RESOLVENT
        point_cls[bad] = CLS_SPECTRUM
        return point_cls, xr.norm / np.maximum(norm_max, 1e-300)

    # Slots 1 and 3 of the nx cells before the block: their points' int64
    # bits, classes and scores (zeros before the first row, never read).
    edges = [
        np.zeros((2, nx, 2), dtype=np.int64),
        np.zeros((2, nx), dtype=np.int8),
        np.zeros((2, nx)),
    ]

    def probe(lo: int) -> tuple[int, int]:
        """Probe one block from cell lo on: (its cells, its failing slots)."""
        left, lower, edges[0] = _shared_slots(centers, offsets, lo, nx, edges[0])
        m = len(left)
        keep = np.ones((slots, m), dtype=bool)
        keep[5] = ~left
        keep[7] = ~lower
        stencils = []
        for i, solved in enumerate(verdicts((offsets[:, None] + centers[lo : lo + m])[keep]), 1):
            stencil = np.empty((slots, m), dtype=solved.dtype)
            stencil[keep] = solved
            shared = np.concatenate((edges[i], stencil[_EDGE_SLOTS]), axis=1)
            np.copyto(stencil[5], shared[0, nx - 1 : -1], where=left)
            np.copyto(stencil[7], shared[1, :m], where=lower)
            edges[i] = shared[:, m:].copy()
            stencils.append(stencil)
        # The class codes rise from Spectrum to Resolvent, so a cell's class
        # is the lowest of its stencil's: Spectrum if some point is bad,
        # Resolvent if all are good.
        point_cls, score = stencils
        classes[lo : lo + m] = point_cls.min(axis=0)
        # Median over the stencil: robust against isolated zeros of the
        # local extension, which can make single probe points look
        # deceptively tame.
        tau[lo : lo + m] = np.median(score, axis=0)
        return m, int(np.count_nonzero(point_cls == CLS_SPECTRUM))

    bad_points = lo = 0
    while lo < n:
        m, bad = probe(lo)
        bad_points += bad
        lo += m
    return classes, tau, bad_points


@dataclass(frozen=True, eq=False)
class LocalProbe:
    """Neighborhood probe of one lambda0 for the family local resolvent."""

    lam: complex
    nbhd_r: float
    classification: str
    bad_points: int


def family_local_probe(
    fam: OperatorFamily, x, lam0: complex, nbhd_r: float, grid: HGrid
) -> LocalProbe:
    """Probe lambda0 and its surrounding circle for local-resolvent membership.

    LocalResolvent: at every probe point the least-squares solutions have
    vanishing residual tails and bounded, non-increasing norm tails.
    LocalSpectrum: some probe point definitely fails (persistent residual
    or norm blowup).  Undetermined absorbs the mixed cases.
    `family_local_spectrum_grid` applies the same rule at every cell, plus
    its marking step.
    """
    if not (np.isfinite(lam0) and 0.0 < nbhd_r < np.inf):
        raise InputError(
            f"need a finite lam0 and a finite nbhd_r > 0, got {lam0} and {nbhd_r}"
        )
    xr = _read_x(x, fam.dim)
    classes, _, bad = _local_cells(fam, xr, grid, np.array([lam0], dtype=complex), nbhd_r, 1)
    return LocalProbe(
        lam=complex(lam0),
        nbhd_r=nbhd_r,
        classification=_LOCAL_NAMES[int(classes[0])],
        bad_points=bad,
    )


def family_local_spectrum_grid(
    fam: OperatorFamily, x, rect, nx: int, ny: int, grid: HGrid
) -> RegionGrid:
    """Per-cell local probes over a rectangle.

    Each cell gets the point rule of `family_local_probe`, with the ring
    radius half the smaller cell side, and the marking step
    (`spectra._mark_dips`) takes the cells whose score, the stencil median
    of ||x|| over the solution norm, sits at or below LOCAL_CAL_FACTOR
    cell radii.  The grid keeps the family, the h-grid and a read-only
    copy of x: `local_spectral_space_member` reads them.
    """
    rect, w, h, rcell, centers = _scan_setup(rect, nx, ny, grid.tail * (1 + _RING_POINTS))
    xr = _read_x(x, fam.dim)
    classes, tau, _ = _local_cells(fam, xr, grid, centers, 0.5 * min(w, h), nx)
    scanned = (fam, grid, xr.x)
    return _mark_dips(rect, nx, ny, classes, tau, tau <= LOCAL_CAL_FACTOR * rcell, scanned)


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


def local_spectral_space_member(scan: RegionGrid, region: Region | str) -> MembershipAnswer:
    """Does the family local spectrum of the scanned x lie inside the region?

    scan is a `family_local_spectrum_grid` result, whose rectangle must
    cover the spectral-radius disk of the scanned family; membership is
    read off its cells.  Any other grid is an input error.
    """
    if isinstance(region, str):
        region = parse_region(region)
    if scan.scanned is None:
        raise InputError("membership reads a local spectrum scan; this grid is not one")
    fam, grid, x = scan.scanned
    bound = spectral_radius_bound(fam, grid)
    if not np.isfinite(bound.value):
        raise InputError("spectral radius bound diverged; cannot validate rect")
    re_min, re_max, im_min, im_max = scan.rect
    r = bound.value
    if re_min > -r or re_max < r or im_min > -r or im_max < r:
        raise InputError(
            f"rect {scan.rect} does not cover the spectral-radius disk (radius {r:.3e})"
        )
    if _read_x(x, fam.dim).zero:
        return MembershipAnswer(
            member=True,
            inconclusive=False,
            n_support_cells=0,
            offenders=(),
            note="zero vector: empty local spectrum",
        )
    centers = scan.centers()
    marked = scan.classes == CLS_SPECTRUM
    undet = scan.classes == CLS_UNDETERMINED
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


def _candidate_tails(
    fam: OperatorFamily, grid: HGrid, name: str, candidate: Callable, mesh: Sequence, xr: _ReadX
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A candidate solution family y_h(lambda) over the mesh and the h-grid tail.

    The candidate is called once per mesh point, and its values are read
    at the scale of xr.v: times 2**xr.k.  Returns (values, residuals,
    norms): those values y_h(lambda) of shape (tail, len(mesh), dim), and
    the (tail, len(mesh)) tails of ||(lambda I - F(h)) y_h - v|| (v = 0
    for the SVEP probe) and ||y_h||, one column per mesh point for
    `verdict_arrays`.  An empty mesh, a non-finite mesh point, a
    candidate of another dimension (named by name) and one whose values
    overflow (`_tail_eval`) are input errors.
    """
    lams = np.array([complex(z) for z in mesh], dtype=complex)
    if not len(lams):
        raise InputError("empty lambda mesh")
    if not np.isfinite(lams).all():
        raise InputError(f"mesh points must be finite, got {lams.tolist()}")
    mats = _tail_eval(fam, grid).mats
    vals = []
    for lam in lams.tolist():
        vf = candidate(lam)
        if vf.dim != fam.dim:
            raise DimensionMismatchError(f"{name} has dim {vf.dim} != {fam.dim}")
        vals.append(_tail_eval(vf, grid).mats)
    shifted = lams[:, None, None] * np.eye(fam.dim, dtype=complex) - mats[:, None]
    # A candidate far larger than x overflows at the scale of v: its tails are inf or nan.
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.ldexp(np.stack(vals, axis=1).view(float), xr.k).view(complex)
        resid = (shifted @ vals[..., None])[..., 0] - xr.v
        return vals, np.linalg.norm(resid, axis=-1), np.linalg.norm(vals, axis=-1)


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
    results = []
    zero = _read_x(np.zeros(fam.dim), fam.dim)
    for w in witnesses:
        name = f"witness {w.name}"
        _, resids, norms = _candidate_tails(fam, grid, name, w.fn, mesh, zero)
        res_codes = verdict_arrays(resids, zero.eps_res, zero.floor_res)[0]
        norm_codes = verdict_arrays(norms, EPS_TAIL, ZERO_FLOOR)[0]
        res_ok = bool((res_codes == 0).all())
        positive = bool(np.isin(norm_codes, (1, 2)).any())
        undecided = bool((norm_codes == 3).any())
        bounded = bool((norm_codes != 2).all())
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
    point; then tests ||x_h(lambda) - y_h(lambda)|| -> 0 pointwise at the
    same x-scaled tolerances.  Each candidate is evaluated once per mesh
    point, and x is read by `_read_x`.
    """
    xr = _read_x(x, fam.dim)
    values = []
    for name, sol in (("first candidate", sol1), ("second candidate", sol2)):
        vals, resids, _ = _candidate_tails(fam, grid, name, sol, mesh, xr)
        with np.errstate(invalid="ignore"):  # inf - inf in an inf tail's trend
            codes, res_max, _, _ = verdict_arrays(resids, xr.eps_res, xr.floor_res)
        if (codes != 0).any():
            k = int(np.argmax(codes != 0))
            raise PreconditionError(
                f"{name} violates the residual condition at "
                f"{complex(mesh[k])}: verdict {VERDICT_CODES[int(codes[k])]}, "
                f"tail max {math.ldexp(res_max[k], -xr.k):.3e}"
            )
        values.append(vals)
    diff = np.linalg.norm(values[0] - values[1], axis=-1)
    codes, diff_max, _, _ = verdict_arrays(diff, xr.eps_res, xr.floor_res)
    return UniquenessReport(
        verdicts=tuple(VERDICT_CODES[c] for c in codes.tolist()),
        all_to_zero=bool((codes == 0).all()),
        # Python's max, started at 0.0, passes over a NaN tail max.
        worst_tail_max=math.ldexp(max([0.0, *diff_max.tolist()]), -xr.k),
    )

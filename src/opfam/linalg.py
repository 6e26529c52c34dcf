"""Dense complex linear algebra: norms, solves, eigenvalues, and
contour-integral spectral decompositions.

Matrices are plain numpy arrays of complex dtype, validated at entry.  The
ambient space is C^d with the Euclidean norm; all operations are pure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    EigenConvergenceError,
    InputError,
    SingularMatrixError,
)

M_QUAD = 64
EPS_PIVOT = 1e-13
DEFAULT_CLUSTER_TOL = 1e-4
MAX_CLUSTER_RADIUS = 0.5


def as_matrix(a) -> np.ndarray:
    """Validate and return a finite square complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InputError("matrix entries must be finite")
    return m


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a finite complex vector, optionally of fixed dim."""
    v = np.asarray(x, dtype=complex)
    if v.ndim != 1 or v.shape[0] < 1:
        raise InputError(f"expected a vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InputError("vector entries must be finite")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"expected dim {dim}, got {v.shape[0]}")
    return v


def op_norm(a) -> float:
    """Operator norm induced by the Euclidean norm (largest singular value)."""
    m = as_matrix(a)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def op_norms(stack: np.ndarray) -> np.ndarray:
    """Operator norms of a stack of matrices, one per leading index.

    One SVD per run of bitwise-equal matrices (`_run_starts`), whose norm
    the repeats copy: the same bytes as one SVD of the whole stack, since
    LAPACK factors each matrix of a stack on its own.
    """
    starts = _run_starts(stack)
    norms = np.linalg.svd(stack[starts], compute_uv=False)[:, 0]
    return norms[np.cumsum(starts) - 1]


def _run_starts(stack: np.ndarray) -> np.ndarray:
    """True at each matrix of a stack that is not bitwise equal to the one before it.

    The one rule by which work is done once per distinct matrix, in
    `op_norms` and in the scan kernels (`families._Tail`).  Matrices are
    compared through an int64 view of their entries, so -0.0 and +0.0
    differ, in one vectorised comparison of each matrix with its
    predecessor.  Repeats come in runs: on a geometric h-grid a family
    repeats once its decaying coefficients no longer move its sum, and a
    constant family repeats throughout.  A matrix equal only to an earlier
    one that is not its neighbour starts a run of its own.
    """
    n = len(stack)
    bits = np.ascontiguousarray(stack).reshape(n, math.prod(stack.shape[1:]))
    bits = bits.view(np.int64)
    starts = np.ones(n, dtype=bool)
    starts[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    return starts


def solve(a, b) -> np.ndarray:
    """Solve A y = b by pivoted LU elimination.

    Raises SingularMatrixError (carrying the smallest pivot) when the
    minimal pivot falls below EPS_PIVOT times the matrix scale.

    The result is independent of the BLAS thread count.  The LU factors
    (LAPACK getrf) are, but getrs (scipy's lu_solve) is not: OpenBLAS
    switches to a different triangular-solve kernel in getrs once it has
    more than one thread, which moves the last bits of y.  So the row
    interchanges and the forward and back substitution are done here with
    elementwise numpy operations, which call no BLAS routine.
    """
    m = as_matrix(a)
    v = as_vector(b, dim=m.shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    pivots = np.abs(np.diag(lu))
    scale = max(float(np.linalg.norm(m)), np.finfo(float).tiny)
    min_pivot = float(pivots.min())
    if min_pivot <= EPS_PIVOT * scale:
        raise SingularMatrixError("matrix is numerically singular", pivot=min_pivot)
    y = v.copy()
    for i, p in enumerate(piv):
        if p != i:
            y[i], y[p] = y[p], y[i]
    n = y.shape[0]
    for i in range(1, n):
        y[i] -= (lu[i, :i] * y[:i]).sum()
    for i in range(n - 1, -1, -1):
        y[i] = (y[i] - (lu[i, i + 1 :] * y[i + 1 :]).sum()) / lu[i, i]
    return y


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues with algebraic multiplicity, sorted by (real, imag).

    Backed by a backward-stable Hessenberg reduction plus shifted QR
    iteration (LAPACK geev).
    """
    m = as_matrix(a)
    try:
        w = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"eigenvalue iteration failed to converge for dim {m.shape[0]}: {exc}"
        ) from exc
    return np.sort_complex(w)


@dataclass(frozen=True)
class SpectralCluster:
    """One eigenvalue cluster with its Riesz projection and nilpotent part."""

    center: complex
    multiplicity: int
    radius: float
    projection: np.ndarray
    nilpotent: np.ndarray


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalue clusters of a matrix with spectral projections.

    The projections satisfy sum(P_i) = I, P_i^2 = P_i, P_i P_j = 0 and
    N_i^{m_i} = 0 up to `defect`, which records the worst observed
    violation.
    """

    dim: int
    clusters: tuple[SpectralCluster, ...]
    gap: float
    defect: float


def _cluster_eigenvalues(w: np.ndarray, cluster_tol: float) -> list[np.ndarray]:
    """Group eigenvalues into connected components at distance cluster_tol."""
    d = len(w)
    parent = list(range(d))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(d):
        for j in range(i + 1, d):
            if abs(w[i] - w[j]) <= cluster_tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(d):
        groups.setdefault(find(i), []).append(i)
    # Deterministic order: by cluster mean (real, imag).
    members = [np.array(sorted(idx)) for idx in groups.values()]
    members.sort(key=lambda idx: (w[idx].mean().real, w[idx].mean().imag))
    return [w[idx] for idx in members]


def spectral_decomp(a, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectralDecomp:
    """Cluster the eigenvalues of `a` and compute Riesz projections.

    Each projection is the trapezoid quadrature of the resolvent on a
    circle of radius min(gap/2, 0.5) around the cluster center; the
    quadrature error decays geometrically in the number of nodes, so the
    stated projection tolerances are met comfortably at M_QUAD = 64 nodes.

    Raises DegenerateSpectrumError when clusters are not separated by more
    than 4 * cluster_tol (the caller must coarsen the clustering).
    """
    m = as_matrix(a)
    d = m.shape[0]
    if cluster_tol <= 0:
        raise InputError("cluster_tol must be positive")
    w = eigenvalues(m)
    groups = _cluster_eigenvalues(w, cluster_tol)
    centers = [g.mean() for g in groups]

    if len(groups) > 1:
        gap = min(
            float(np.abs(gi[:, None] - gj[None, :]).min())
            for i, gi in enumerate(groups)
            for gj in groups[i + 1 :]
        )
    else:
        gap = float("inf")
    if gap <= 4.0 * cluster_tol:
        raise DegenerateSpectrumError(
            f"inter-cluster gap {gap:.3e} <= 4 * cluster_tol {cluster_tol:.3e}"
        )
    radius = min(gap / 2.0, MAX_CLUSTER_RADIUS)
    for g, c in zip(groups, centers):
        spread = float(np.abs(g - c).max())
        if spread > 0.9 * radius:
            raise DegenerateSpectrumError(
                f"cluster spread {spread:.3e} too close to contour radius {radius:.3e}"
            )

    ident = np.eye(d, dtype=complex)
    theta = 2.0 * np.pi * np.arange(M_QUAD) / M_QUAD
    phase = np.exp(1j * theta)
    clusters = []
    for g, c in zip(groups, centers):
        nodes = (c + radius * phase)[:, None, None] * ident - m
        try:
            resolvents = np.linalg.solve(nodes, np.broadcast_to(ident, (M_QUAD, d, d)))
        except np.linalg.LinAlgError as exc:
            raise DegenerateSpectrumError(
                "resolvent singular on a quadrature contour; coarsen clusters"
            ) from exc
        proj = (radius / M_QUAD) * np.einsum("k,kij->ij", phase, resolvents)
        nilp = (m - c * ident) @ proj
        clusters.append(
            SpectralCluster(
                center=complex(c),
                multiplicity=len(g),
                radius=radius,
                projection=proj,
                nilpotent=nilp,
            )
        )

    defect = _decomp_defect(d, clusters)
    if defect > 1e-3:
        raise DegenerateSpectrumError(
            f"projection invariants violated (defect {defect:.3e}); coarsen clusters"
        )
    return SpectralDecomp(dim=d, clusters=tuple(clusters), gap=gap, defect=defect)


def _decomp_defect(d: int, clusters: list[SpectralCluster]) -> float:
    """Worst violation of the projection/nilpotency invariants.

    The norms of all defect matrices come from one `op_norms`, and the
    maximum is folded in the order of the matrices, as `max` folds it.
    """
    defects = [sum(c.projection for c in clusters) - np.eye(d)]
    for i, ci in enumerate(clusters):
        defects.append(ci.projection @ ci.projection - ci.projection)
        npow = np.eye(d, dtype=complex)
        for _ in range(ci.multiplicity):
            npow = npow @ ci.nilpotent
        defects.append(npow)
        defects.extend(ci.projection @ cj.projection for cj in clusters[i + 1 :])
    stack = np.array(defects, dtype=complex)
    if not np.isfinite(stack).all():
        raise InputError("matrix entries must be finite")
    return max(op_norms(stack).tolist())

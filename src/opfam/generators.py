"""Deterministic scenario generators for the verification suites.

Random matrices draw entries uniformly from the centered complex unit
square.  Instances feeding decomposition- or grid-agreement checks are
conditioned by rejection sampling: eigenvalue gaps, bounded eigenvector
conditioning, cell-boundary margins (so that grid-cell assignment of an
eigenvalue is never a knife-edge call), and vector support bounded away
from zero.  Each generated pair carries a certificate of the relation it
was built to satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .families import CoeffFn, OperatorFamily
from .linalg import op_norm

PAIR_KINDS = (
    "null-difference",
    "h-perturbation",
    "commuting-nilpotent",
    "scalar-vs-jordan",
    "non-equivalent",
    "exp-null",
    "local-shift",
)

# Conditioning policy for grid-agreement instances.  The cell margin keeps
# eigenvalues near cell centers (the dip contrast of the grid estimators
# degrades roughly linearly with the center offset, and boundary-straddling
# eigenvalues make cell assignment a knife-edge call); the gap keeps the
# resolvent field of one eigenvalue from shadowing the peak of another at
# cell scale, which matters most next to higher-order blocks.
EIGEN_GAP = 1.0
EIGEN_DISK = 2.2
CELL_MARGIN = 0.35
VSTRENGTH = 0.17
MIN_SUPPORT = 0.25
BLOCK_COEFF = 0.6
MAX_BLOCK = 3
_MAX_TRIES = 20000


def rng_for(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, salt)]))


def random_matrix(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    re = rng.uniform(-1.0, 1.0, (dim, dim))
    im = rng.uniform(-1.0, 1.0, (dim, dim))
    return scale * (re + 1j * im)


def random_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.uniform(-1.0, 1.0, dim) + 1j * rng.uniform(-1.0, 1.0, dim)
    return v / np.linalg.norm(v)


def jordan_block(lam: complex, dim: int) -> np.ndarray:
    return lam * np.eye(dim, dtype=complex) + np.eye(dim, k=1, dtype=complex)


def _cell_margin_ok(z: complex, rect, n: int) -> bool:
    re_min, re_max, im_min, im_max = rect
    for value, lo, hi in ((z.real, re_min, re_max), (z.imag, im_min, im_max)):
        pos = (value - lo) / ((hi - lo) / n)
        if abs(pos - round(pos)) < CELL_MARGIN:
            return False
    return True


def draw_eigenvalues(
    rng: np.random.Generator,
    dim: int,
    gap: float = EIGEN_GAP,
    disk: float = EIGEN_DISK,
    rect=None,
    n_cells: int | None = None,
) -> np.ndarray:
    """Eigenvalues uniform in a disk, pairwise gap-separated, optionally
    kept CELL_MARGIN cells away from the cell boundaries of an
    (rect, n_cells) scan."""
    out: list[complex] = []
    tries = 0
    while len(out) < dim:
        tries += 1
        if tries > _MAX_TRIES:
            raise InputError("eigenvalue rejection sampling did not converge")
        z = complex(disk * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
        if any(abs(z - w) < gap for w in out):
            continue
        if rect is not None and n_cells is not None:
            if not _cell_margin_ok(z, rect, n_cells):
                continue
        out.append(z)
    return np.array(out)


def conditioned_similarity(rng: np.random.Generator, dim: int) -> np.ndarray:
    """V = I + E with ||E|| = VSTRENGTH, so cond(V) <= (1+s)/(1-s)."""
    e = random_matrix(rng, dim)
    e *= VSTRENGTH / op_norm(e)
    return np.eye(dim, dtype=complex) + e


def random_diagonalizable(
    rng: np.random.Generator,
    dim: int,
    gap: float = EIGEN_GAP,
    disk: float = EIGEN_DISK,
    rect=None,
    n_cells: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A = V diag(w) V^-1 with conditioned V; returns (A, w, V)."""
    w = draw_eigenvalues(rng, dim, gap=gap, disk=disk, rect=rect, n_cells=n_cells)
    v = conditioned_similarity(rng, dim)
    a = v @ np.diag(w) @ np.linalg.inv(v)
    return a, w, v


def supported_vector(
    rng: np.random.Generator, projections: list[np.ndarray], min_support: float = MIN_SUPPORT
) -> np.ndarray:
    """Unit vector whose projection weights all exceed min_support."""
    dim = projections[0].shape[0]
    for _ in range(_MAX_TRIES):
        x = random_vector(rng, dim)
        if all(np.linalg.norm(p @ x) >= min_support for p in projections):
            return x
    raise InputError("vector support rejection sampling did not converge")


def commuting_toeplitz(
    rng: np.random.Generator,
    dim: int,
    n_nilpotents: int = 1,
    rect=None,
    n_cells: int | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """(T, [N_1, ..]) with [T, N_k] = [N_j, N_k] = 0 and every N_k nilpotent.

    Block-diagonal with blocks of 1..MAX_BLOCK rows; each block of T is a
    polynomial in its shift and the N_k are blockwise strict polynomials in
    the same shifts, so everything commutes and the eigenvalues of T are
    the gap-separated block constants.
    """
    blocks: list[int] = []
    left = dim
    while left > 0:
        b = int(rng.integers(1, min(MAX_BLOCK, left) + 1))
        blocks.append(b)
        left -= b
    lams = draw_eigenvalues(
        rng, len(blocks), gap=EIGEN_GAP, disk=EIGEN_DISK, rect=rect, n_cells=n_cells
    )
    t = np.zeros((dim, dim), dtype=complex)
    nilpotents = [np.zeros((dim, dim), dtype=complex) for _ in range(n_nilpotents)]
    pos = 0
    for b, lam in zip(blocks, lams):
        shift = np.eye(b, k=1, dtype=complex)
        tb = lam * np.eye(b, dtype=complex)
        nbs = [np.zeros((b, b), dtype=complex) for _ in range(n_nilpotents)]
        power = np.eye(b, dtype=complex)
        c = BLOCK_COEFF
        for _ in range(1, b):
            power = power @ shift
            tb += complex(rng.uniform(-c, c), rng.uniform(-c, c)) * power
            for nb in nbs:
                nb += complex(rng.uniform(-c, c), rng.uniform(-c, c)) * power
        for k, nb in enumerate(nbs):
            if b > 1 and op_norm(nb) < 0.1:
                nb += shift
            nilpotents[k][pos : pos + b, pos : pos + b] = nb
        t[pos : pos + b, pos : pos + b] = tb
        pos += b
    return t, nilpotents


@dataclass(frozen=True)
class GeneratedPair:
    """Two families plus the certificate of their intended relation."""

    kind: str
    f: OperatorFamily
    g: OperatorFamily
    relation: str
    description: str


def generate_pair(kind: str, seed: int, dim: int) -> GeneratedPair:
    """Deterministic pair generator; the kind fixes the certified relation."""
    if kind not in PAIR_KINDS:
        raise InputError(f"unknown pair kind {kind!r}; valid: {PAIR_KINDS}")
    if not 1 <= dim <= 16:
        raise InputError(f"dim must be in [1, 16], got {dim}")
    rng = rng_for(seed, PAIR_KINDS.index(kind), dim)

    if kind == "null-difference":
        a = random_matrix(rng, dim)
        b = random_matrix(rng, dim)
        c = random_matrix(rng, dim)
        f = OperatorFamily.from_terms(
            dim, [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)]
        )
        g = f + OperatorFamily.from_terms(dim, [(CoeffFn.exp_inv(1.0), c)])
        return GeneratedPair(
            kind, f, g, "asymptotically-equivalent",
            "bounded family vs the same plus an exp(-1/h)-decaying term",
        )

    if kind == "h-perturbation":
        a = random_matrix(rng, dim)
        b = random_matrix(rng, dim)
        f = OperatorFamily.constant(a)
        g = f + OperatorFamily.from_terms(dim, [(CoeffFn.pow_h(1.0), b)])
        return GeneratedPair(
            kind, f, g, "asymptotically-equivalent",
            "constant family vs the same plus an h-linear term",
        )

    if kind == "commuting-nilpotent":
        t, (n,) = commuting_toeplitz(rng, dim, 1)
        return GeneratedPair(
            kind,
            OperatorFamily.constant(t),
            OperatorFamily.constant(t + n),
            "quasinilpotent-equivalent",
            "constant pair differing by a commuting nilpotent",
        )

    if kind == "scalar-vs-jordan":
        f = OperatorFamily.constant(2.0 * np.eye(dim, dtype=complex))
        g = OperatorFamily.constant(jordan_block(2.0, dim))
        return GeneratedPair(
            kind, f, g, "quasinilpotent-equivalent",
            "twice the identity vs the Jordan block at 2",
        )

    if kind == "non-equivalent":
        d1 = np.diag(np.arange(dim, dtype=complex))
        d2 = np.diag(2.0 * np.arange(dim, dtype=complex))
        return GeneratedPair(
            kind,
            OperatorFamily.constant(d1),
            OperatorFamily.constant(d2),
            "not-equivalent",
            "commuting diagonals with unit-size persistent bracket roots",
        )

    if kind == "exp-null":
        a = random_matrix(rng, dim)
        b = random_matrix(rng, dim)
        f = OperatorFamily.constant(a)
        g = f + OperatorFamily.from_terms(dim, [(CoeffFn.exp_inv(2.0), b)])
        return GeneratedPair(
            kind, f, g, "asymptotically-equivalent",
            "constant family vs the same plus an exp(-2/h) term",
        )

    # local-shift: diagonal with one h-moving entry vs its constant part.
    lams = draw_eigenvalues(rng, dim)
    d0 = np.diag(lams)
    j = int(rng.integers(dim))
    e = np.zeros((dim, dim), dtype=complex)
    e[j, j] = 1.0
    f = OperatorFamily.from_terms(dim, [(CoeffFn.const(), d0), (CoeffFn.pow_h(1.0), e)])
    g = OperatorFamily.constant(d0)
    return GeneratedPair(
        kind, f, g, "asymptotically-equivalent",
        f"diagonal family with entry {j} drifting by h vs its constant part",
    )


def commuting_family_pair(
    seed: int, dim: int, rect=None, n_cells: int | None = None
) -> GeneratedPair:
    """Commuting, asymptotically quasinilpotent equivalent family pair.

    F = T + h * N1, G = F + h**2 * N2 with T block-Toeplitz and N1, N2
    nilpotent polynomials in the same shifts: all values commute, and the
    difference is a certified null family.
    """
    rng = rng_for(seed, 101, dim)
    t, (n1, n2) = commuting_toeplitz(rng, dim, 2, rect=rect, n_cells=n_cells)
    f = OperatorFamily.from_terms(dim, [(CoeffFn.const(), t), (CoeffFn.pow_h(1.0), n1)])
    g = f + OperatorFamily.from_terms(dim, [(CoeffFn.pow_h(2.0), n2)])
    return GeneratedPair(
        "commuting-family",
        f,
        g,
        "asymptotically-equivalent",
        "commuting block-Toeplitz families differing by an h^2 nilpotent term",
    )

"""Verification suite: every acceptance check plus per-claim property checks.

Each check runs on deterministically generated instances (the config seed
fully determines them), produces one or more records, each checking the
claim CLAIMS names for its id, and never consults wall-clock time, so the
machine report is byte-identical across runs, thread counts and core
counts (`run_suite` runs the checks on every usable core).  Runtime
budgets are asserted by the test suite around these same functions, not
inside them.

Verdicts: pass / fail.  The report also counts inconclusive records,
which would never fail a run, though no check gives one yet; exit status
is nonzero iff some check fails.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import signal
import sys
import threading
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from multiprocessing.connection import Pipe, wait

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import local as loc
from . import spectra
from .bracket import (
    EQUIVALENT,
    N_MAX,
    NOT_EQUIVALENT,
    bracket_binomials,
    bracket_seq,
    brackets,
    qn_equivalent,
)
from .errors import InputError
from .families import (
    BOUNDED_POSITIVE,
    TO_ZERO,
    CoeffFn,
    HGrid,
    OperatorFamily,
    VectorFamily,
    _tail_eval,
    asym_qn_equivalent,
    asymptotically_equivalent,
    commute_in_limit,
    is_null_family,
    module_action,
    norm_samples,
    quotient_norm_bounds,
    tail_stats,
)
from .generators import (
    commuting_family_pair,
    commuting_toeplitz,
    draw_eigenvalues,
    generate_pair,
    random_diagonalizable,
    random_matrix,
    random_vector,
    rng_for,
    supported_vector,
)
from .linalg import eigenvalues, op_norm, op_norms, solve, spectral_decomp
from .regions import Disc, Rect, Region, Union
from .spectra import (
    CLS_RESOLVENT,
    CLS_SPECTRUM,
    CLS_UNDETERMINED,
    RESOLVENT,
    SPECTRUM,
    compare_grids,
    class_invariance_check,
    family_spectrum_grid,
    probe_resolvent,
    resolvent_identity_residual,
    resolvent_uniqueness_residual,
    spectral_radius_bound,
    truncated_resolvent_family,
)

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE_VERDICT = "inconclusive"

RECT = (-3.0, 3.0, -3.0, 3.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Deterministic suite configuration; the seed fixes every instance."""

    seed: int = 42
    dim_min: int = 2
    dim_max: int = 6
    grid: HGrid = field(default_factory=HGrid)
    suites: tuple[str, ...] = ()
    out_dir: str | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if not 2 <= self.dim_min <= self.dim_max <= 8:
            raise InputError("need 2 <= dim_min <= dim_max <= 8")

    def dims(self, k: int) -> int:
        span = self.dim_max - self.dim_min + 1
        return self.dim_min + (k % span)


@dataclass(frozen=True)
class CheckResult:
    """One record; `run_suite` stamps `suite` from CHECKS and `anchor` from CLAIMS."""

    check_id: str
    suite: str
    anchor: str
    instance: str
    verdict: str
    metrics: tuple[tuple[str, float], ...]
    details: str = ""


def _result(check_id, instance, ok, metrics, details=""):
    return CheckResult(
        check_id=check_id,
        suite="",
        anchor="",
        instance=instance,
        verdict=PASS if ok else FAIL,
        metrics=tuple((k, float(v)) for k, v in metrics),
        details=details,
    )


class _Tally:
    """Per-criterion instance counts of one check, in first-use order.

    `ok[name]` and `total[name]` read 0 for a criterion with no instance.
    """

    def __init__(self):
        self.ok: Counter[str] = Counter()
        self.total: Counter[str] = Counter()

    def add(self, name: str, passed) -> bool:
        """Record one instance of criterion `name`; returns `passed`."""
        passed = bool(passed)
        self.ok[name] += passed
        self.total[name] += 1
        return passed

    def passed(self, *names: str) -> bool:
        """The pass rule: each named criterion (all when none is named, and
        an empty tally fails) saw an instance, and all of its instances passed."""
        names = names or tuple(self.total)
        return bool(names) and all(0 < self.total[n] == self.ok[n] for n in names)


def _cell_of(z: complex, rect, nx: int, ny: int) -> tuple[int, int]:
    re_min, re_max, im_min, im_max = rect
    ix = int((z.real - re_min) / (re_max - re_min) * nx)
    iy = int((z.imag - im_min) / (im_max - im_min) * ny)
    return (min(max(iy, 0), ny - 1), min(max(ix, 0), nx - 1))


def _cells_match_one_off(marked: set, expected: set) -> bool:
    """Symmetric comparison with one-cell (Chebyshev) tolerance."""

    def near(cell, pool):
        return any(abs(cell[0] - p[0]) <= 1 and abs(cell[1] - p[1]) <= 1 for p in pool)

    return all(near(c, marked) for c in expected) and all(
        near(c, expected) for c in marked
    )


def _random_catalog_family(rng, dim: int) -> OperatorFamily:
    terms = [(CoeffFn.const(), random_matrix(rng, dim))]
    if rng.uniform() < 0.7:
        terms.append((CoeffFn.pow_h(float(rng.integers(1, 4))), random_matrix(rng, dim)))
    if rng.uniform() < 0.5:
        terms.append((CoeffFn.exp_inv(float(rng.integers(1, 4))), random_matrix(rng, dim)))
    return OperatorFamily.from_terms(dim, terms)


def _null_op_family(rng, dim: int) -> OperatorFamily:
    kind = rng.integers(3)
    if kind == 0:
        coeff = CoeffFn.pow_h(float(rng.integers(1, 3)))
    elif kind == 1:
        coeff = CoeffFn.exp_inv(float(rng.integers(1, 3)))
    else:
        coeff = CoeffFn.pow_h(2.0)
    return OperatorFamily.from_terms(dim, [(coeff, random_matrix(rng, dim))])


def _null_vec_family(rng, dim: int) -> VectorFamily:
    coeff = CoeffFn.pow_h(1.0) if rng.uniform() < 0.5 else CoeffFn.exp_inv(1.0)
    return VectorFamily.from_terms(dim, [(coeff, random_vector(rng, dim))])


def _support_match(a, b) -> bool:
    """Greedy matching of two support-point multisets within 1e-4."""
    a = sorted(a, key=lambda z: (z.real, z.imag))
    b = list(b)
    if len(a) != len(b):
        return False
    for p in a:
        j = int(np.argmin([abs(p - q) for q in b])) if b else -1
        if j < 0 or abs(p - b[j]) > 1e-4:
            return False
        b.pop(j)
    return True


# ---------------------------------------------------------------------------
# Acceptance checks
# ---------------------------------------------------------------------------


def check_bracket_recurrence(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    worst = 0.0
    # Stacks of 20 pairs: one stack of all 200 raised the peak RSS of a
    # verify run by about 1.7 MiB, batches of 20 leave it where the
    # pair-by-pair loop had it, at the same speed.
    for _ in range(10):
        pairs = [(random_matrix(rng, 4), random_matrix(rng, 4)) for _ in range(20)]
        ts, ss = (np.stack(side) for side in zip(*pairs))
        scales = op_norms(ts) + op_norms(ss)
        diffs = brackets(ts, ss, 12)[:, 1:] - bracket_binomials(ts, ss, 12)[:, 1:]
        errs = op_norms(diffs.reshape(-1, 4, 4)).reshape(20, 12)
        for scale, row in zip(scales.tolist(), errs.tolist()):
            for n, err in enumerate(row, 1):
                worst = max(worst, err / scale**n)
    return [
        _result(
            "ac01-bracket-recurrence",
            "200 random 4x4 complex pairs, orders 1..12",
            worst <= 1e-8,
            [("max_rel_err", worst)],
            details="recurrence vs explicit alternating binomial sum",
        )
    ]


def check_qn_pairs(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    pairs = [generate_pair("scalar-vs-jordan", cfg.seed, 3)]
    for k in range(20):
        pairs.append(generate_pair("commuting-nilpotent", cfg.seed + k, cfg.dims(k)))
    tally = _Tally()
    worst_eig = 0.0
    for pair in pairs:
        t = pair.f(1.0)
        s = pair.g(1.0)
        rep = qn_equivalent(t, s)
        if rep.verdict != EQUIVALENT:
            tally.add("pairs", False)
            continue
        dt = spectral_decomp(t, cluster_tol=1e-3)
        ds = spectral_decomp(s, cluster_tol=1e-3)
        ct = sorted(
            [c.center for c in dt.clusters for _ in range(c.multiplicity)],
            key=lambda z: (z.real, z.imag),
        )
        cs = sorted(
            [c.center for c in ds.clusters for _ in range(c.multiplicity)],
            key=lambda z: (z.real, z.imag),
        )
        eig_err = max(abs(a - b) for a, b in zip(ct, cs))
        worst_eig = max(worst_eig, eig_err)
        if eig_err > 1e-7:
            tally.add("pairs", False)
            continue
        # Stops at the first mismatch, so no later vector is drawn.
        support_ok = all(
            _support_match(
                loc.local_spectrum_exact(t, x, decomp=dt).support_points(),
                loc.local_spectrum_exact(s, x, decomp=ds).support_points(),
            )
            for x in (random_vector(rng, t.shape[0]) for _ in range(20))
        )
        tally.add("pairs", tally.add("support", support_ok))
    return [
        _result(
            "ac02-qn-pairs",
            "scalar-vs-jordan(3) plus 20 commuting-nilpotent pairs, 20 x each",
            tally.passed("pairs"),
            [
                ("pairs_ok", tally.ok["pairs"]),
                ("pairs_total", tally.total["pairs"]),
                ("max_eig_center_err", worst_eig),
                ("support_mismatches", tally.total["support"] - tally.ok["support"]),
            ],
            details="equivalence verdicts, cluster-mean eigenvalue multisets at 1e-7, "
            "exact local-spectrum supports",
        )
    ]


def check_non_equivalence_control(cfg: ScenarioConfig, idx: int):
    pair = generate_pair("non-equivalent", cfg.seed, 2)
    t = pair.f(1.0)
    s = pair.g(1.0)
    seq = bracket_seq(t, s, N_MAX)
    rep = seq.verdict()
    roots = np.concatenate([seq.roots, seq.rev_roots])
    in_band = bool(np.all((roots >= 0.999) & (roots <= 1.001)))
    ok = rep.verdict == NOT_EQUIVALENT and in_band
    return [
        _result(
            "ac03-non-equivalence-control",
            "diag(0,1) vs diag(0,2), orders up to 40",
            ok,
            [
                ("root_min", float(roots.min())),
                ("root_max", float(roots.max())),
                ("final_root", rep.final_root),
            ],
            details=f"verdict {rep.verdict}",
        )
    ]


def check_spectrum_grid_oracle(cfg: ScenarioConfig, idx: int):
    tally = _Tally()
    trials = 50
    for k in range(trials):
        rng = rng_for(cfg.seed, idx, k)
        d = cfg.dims(k)
        a, w, _ = random_diagonalizable(rng, d, rect=RECT, n_cells=64)
        fam = OperatorFamily.constant(a)
        grid = family_spectrum_grid(fam, RECT, 64, 64, cfg.grid)
        marked = {
            (int(iy), int(ix))
            for iy, ix in np.argwhere(grid.classes == CLS_SPECTRUM)
        }
        expected = {_cell_of(complex(z), RECT, 64, 64) for z in w}
        tally.add("instances", _cells_match_one_off(marked, expected))
    return [
        _result(
            "ac04-spectrum-grid-oracle",
            f"{trials} conditioned diagonalizable constants, 64x64 on {RECT}",
            tally.passed(),
            [("instances_ok", tally.ok["instances"]), ("instances_total", trials)],
            details="spectrum cells vs eigenvalue cells, one-cell tolerance",
        )
    ]


def pseudospectrum_family() -> OperatorFamily:
    """The flip family [[0, 1], [h, 0]]: per-h eigenvalues +-sqrt(h)."""
    top = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    bot = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    return OperatorFamily.from_terms(
        2, [(CoeffFn.const(), top), (CoeffFn.pow_h(1.0), bot)]
    )


def check_asymptotic_pseudospectrum(cfg: ScenarioConfig, idx: int):
    fam = pseudospectrum_family()
    rect = (-2.0, 2.0, -2.0, 2.0)
    grid = family_spectrum_grid(fam, rect, 128, 128, cfg.grid)
    w, h = grid.cell_size()
    diag = math.hypot(w, h)
    centers = grid.cells_with_class(CLS_SPECTRUM)
    far = [c for c in centers.ravel() if abs(c) > diag]
    probe = probe_resolvent(fam, 0.0, cfg.grid)
    bound = spectral_radius_bound(fam, cfg.grid)
    ok = (
        len(far) == 0
        and len(centers.ravel()) >= 1
        and probe.classification == SPECTRUM
        and bound.value <= 1e-3
    )
    return [
        _result(
            "ac05-asymptotic-pseudospectrum",
            "flip family [[0,1],[h,0]], 128x128 on [-2,2]^2",
            ok,
            [
                ("spectrum_cells", len(centers.ravel())),
                ("cells_away_from_origin", len(far)),
                ("radius_bound", bound.value),
            ],
            details=f"probe at 0: {probe.classification}; per-h eigenvalues are "
            "+-sqrt(h) but the family spectrum is the origin alone",
        )
    ]


def check_quotient_sandwich(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    tally = _Tally()
    const_gap = 0.0
    trials = 100
    for k in range(trials):
        d = cfg.dims(k)
        if k % 3 == 0:
            fam = OperatorFamily.constant(random_matrix(rng, d))
            b = quotient_norm_bounds(fam, cfg.grid)
            const_gap = max(const_gap, abs(b.lower - b.upper))
            tally.add("instances", abs(b.lower - b.upper) <= 1e-7)
        else:
            fam = _random_catalog_family(rng, d)
            b = quotient_norm_bounds(fam, cfg.grid)
            tally.add("instances", b.lower <= b.upper + 1e-7)
    ident = np.eye(2, dtype=complex)
    example = OperatorFamily.from_terms(
        2, [(CoeffFn.const(), ident), (CoeffFn.exp_inv(1.0), ident)]
    )
    eb = quotient_norm_bounds(example, cfg.grid)
    tally.add(
        "example",
        abs(eb.lower - 1.0) <= 1e-9
        and abs(eb.upper - 1.0) <= 1e-9
        and abs(eb.raw_upper - (1.0 + math.exp(-1.0))) <= 1e-9,
    )
    return [
        _result(
            "ac06-quotient-sandwich",
            f"{trials} catalog families plus the (1+exp(-1/h)) I example",
            tally.passed(),
            [
                ("instances_ok", tally.ok["instances"]),
                ("max_constant_gap", const_gap),
                ("example_lower", eb.lower),
                ("example_upper", eb.upper),
                ("example_raw_upper", eb.raw_upper),
            ],
            details="lower <= upper everywhere; equality on constants; "
            "null-term refinement reaches (1.0, 1.0)",
        )
    ]


def check_resolvent_identity_uniqueness(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    tally = _Tally()
    worst_tail = 0.0
    trials = 50
    for k in range(trials):
        d = cfg.dims(k)
        a = random_matrix(rng, d)
        b = random_matrix(rng, d, scale=0.5)
        fam = OperatorFamily.from_terms(
            d, [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)]
        )
        bound = fam.sup_bound() + 0.5
        ang1, ang2 = rng.uniform(0, 2 * np.pi, 2)
        lam = bound * complex(np.cos(ang1), np.sin(ang1)) * 1.2
        mu = bound * complex(np.cos(ang2), np.sin(ang2)) * 1.5
        stats = resolvent_identity_residual(fam, lam, mu, cfg.grid)
        worst_tail = max(worst_tail, stats.tail_max)
        tally.add("triples", stats.limit_verdict == TO_ZERO and stats.tail_max <= 1e-8)
        r1 = truncated_resolvent_family(a, b, lam, order=3)
        pert = OperatorFamily.from_terms(
            d, [(CoeffFn.pow_h(1.0), random_matrix(rng, d, scale=0.3))]
        )
        r2 = r1 + pert
        chk = resolvent_uniqueness_residual(fam, lam, r1, r2, cfg.grid)
        vanishes = chk.stats.limit_verdict == TO_ZERO and chk.stats.tail_max <= 1e-8
        tally.add("pairs", chk.precondition_ok and vanishes)
        cmat = random_matrix(rng, d)
        cmat *= 1.0 / op_norm(cmat)
        r3 = r1 + OperatorFamily.constant(cmat)
        chk3 = resolvent_uniqueness_residual(fam, lam, r1, r3, cfg.grid)
        tally.add(
            "contrapositives",
            (not chk3.precondition_ok) and chk3.stats.limit_verdict == BOUNDED_POSITIVE,
        )
    return [
        _result(
            "ac07a-resolvent-identity",
            f"{trials} (family, lam, mu) triples with both points Resolvent",
            tally.passed("triples"),
            [("triples_ok", tally.ok["triples"]), ("worst_tail_max", worst_tail)],
            details="identity residual tails vanish below 1e-8",
        ),
        _result(
            "ac07b-resolvent-uniqueness",
            f"{trials} truncated-series resolvents vs null perturbations, "
            "plus constant-offset contrapositives",
            tally.passed("pairs", "contrapositives"),
            [("pairs_ok", tally.ok["pairs"]), ("contrapositives_ok", tally.ok["contrapositives"])],
            details="difference tails vanish; constant offsets violate the "
            "precondition and persist",
        ),
    ]


def check_spectrum_invariance(cfg: ScenarioConfig, idx: int):
    kinds = ("null-difference", "exp-null", "h-perturbation", "local-shift")
    tally = _Tally()
    worst_undet = 0.0
    trials = 30
    for k in range(trials):
        pair = generate_pair(kinds[k % len(kinds)], cfg.seed + k, cfg.dims(k))
        rep = class_invariance_check(pair.f, pair.g, RECT, 64, 64, cfg.grid)
        undet_frac = max(rep.n_undetermined_first, rep.n_undetermined_second) / rep.n_cells
        worst_undet = max(worst_undet, undet_frac)
        tally.add("pairs", rep.identical and undet_frac < 0.01)
    for k in range(5):
        pair = generate_pair("null-difference", cfg.seed + 1000 + k, cfg.dims(k))
        refined = pair.f.drop_null_terms()
        rep = class_invariance_check(pair.f, refined, RECT, 64, 64, cfg.grid)
        tally.add("quotient", rep.identical)
    return [
        _result(
            "ac08-spectrum-invariance",
            f"{trials} certified null-difference pairs, 64x64 grids",
            tally.passed("pairs"),
            [("pairs_ok", tally.ok["pairs"]), ("worst_undetermined_frac", worst_undet)],
            details="cell-identical grids outside Undetermined (< 1%)",
        ),
        _result(
            "ac08b-spectrum-quotient-invariance",
            "5 families vs their null-refined representatives",
            tally.passed("quotient"),
            [("pairs_ok", tally.ok["quotient"])],
            details="dropping certified-null terms leaves the grid unchanged",
        ),
    ]


def check_local_oracle(cfg: ScenarioConfig, idx: int):
    tally = _Tally()
    trials = 100
    for k in range(trials):
        rng = rng_for(cfg.seed, idx, k)
        d = cfg.dims(k)
        a, w, v = random_diagonalizable(rng, d, rect=RECT, n_cells=64)
        vinv = np.linalg.inv(v)
        projections = [np.outer(v[:, i], vinv[i, :]) for i in range(d)]
        x = supported_vector(rng, projections)
        fam = OperatorFamily.constant(a)
        report = loc.local_spectrum_exact(a, x)
        expected = {_cell_of(complex(z), RECT, 64, 64) for z in report.support_points()}
        grid = loc.family_local_spectrum_grid(fam, x, RECT, 64, 64, cfg.grid)
        marked = {
            (int(iy), int(ix))
            for iy, ix in np.argwhere(grid.classes == CLS_SPECTRUM)
        }
        tally.add("instances", marked == expected)
    return [
        _result(
            "ac09-local-oracle",
            f"{trials} conditioned diagonalizable constants, 64x64 grids",
            tally.passed(),
            [("instances_ok", tally.ok["instances"]), ("instances_total", trials)],
            details="probe-grid support cells equal exact projection support cells",
        )
    ]


def _random_region(rng, centers) -> Region:
    kind = rng.integers(3)
    pick = centers[rng.integers(len(centers))]
    if kind == 0:
        return Disc(center=complex(pick), radius=float(rng.uniform(0.3, 1.2)))
    if kind == 1:
        half = float(rng.uniform(0.4, 1.5))
        return Rect(pick.real - half, pick.real + half, pick.imag - half, pick.imag + half)
    other = centers[rng.integers(len(centers))]
    return Union(
        parts=(
            Disc(center=complex(pick), radius=float(rng.uniform(0.3, 1.0))),
            Disc(center=complex(other), radius=float(rng.uniform(0.3, 1.0))),
        )
    )


def _commuting_pair(cfg: ScenarioConfig, idx: int, k: int, res: int):
    """One commuting asym-qn-equivalent pair with margin-conditioned spectra.

    Even k: family pair T + h N1 vs the same plus h^2 N2.  Odd k: constant
    pair (T, T + N).  Returns (f, g, t, blocks) with t the shared block
    matrix and blocks its diagonal block sizes.
    """
    d = min(cfg.dims(k), 5)
    rngk = rng_for(cfg.seed, idx, k)
    if k % 2 == 0:
        return commuting_family_pair(rngk, d, RECT, res)
    t, (n,), blocks = commuting_toeplitz(rngk, d, 1, rect=RECT, n_cells=res)
    return OperatorFamily.constant(t), OperatorFamily.constant(t + n), t, blocks


def check_commuting_local_invariance(cfg: ScenarioConfig, idx: int):
    res = 32
    tally = _Tally()
    trials = 20
    for k in range(trials):
        f, g, t, sizes = _commuting_pair(cfg, idx, k, res)
        d = t.shape[0]
        rng = rng_for(cfg.seed, idx, 5000 + k)
        commute = commute_in_limit(f, g, cfg.grid)
        qn = asym_qn_equivalent(f, g, cfg.grid)
        if commute.limit_verdict != TO_ZERO or qn.verdict != EQUIVALENT:
            tally.add("pairs", False)
            continue
        blocks = []
        pos = 0
        for b in sizes:
            p = np.zeros((d, d), dtype=complex)
            p[pos : pos + b, pos : pos + b] = np.eye(b)
            blocks.append(p)
            pos += b
        all_agree = True
        scans = []
        for _ in range(20):
            x = supported_vector(rng, blocks)
            gf = loc.family_local_spectrum_grid(f, x, RECT, res, res, cfg.grid)
            gg = loc.family_local_spectrum_grid(g, x, RECT, res, res, cfg.grid)
            scans.append((gf, gg))
            if not compare_grids(gf, gg).identical:
                all_agree = False
                break
        if not tally.add("pairs", all_agree):
            continue
        centers = np.unique(np.round(np.diag(t), 9))
        for _ in range(10):
            region = _random_region(rng, centers)
            gf, gg = scans[int(rng.integers(len(scans)))]
            mf = loc.local_spectral_space_member(gf, region)
            mg = loc.local_spectral_space_member(gg, region)
            tally.add("memberships", mf.member == mg.member and mf.inconclusive == mg.inconclusive)
    return [
        _result(
            "ac10-commuting-local-invariance",
            f"{trials} commuting asymptotically-qn-equivalent pairs, 20 x each, "
            f"{res}x{res} grids",
            tally.passed("pairs"),
            [("pairs_ok", tally.ok["pairs"]), ("pairs_total", trials)],
            details="family local spectrum grids agree cell by cell",
        ),
        _result(
            "ac10b-spectral-space-equality",
            "10 random region descriptors per agreeing pair",
            tally.passed("memberships"),
            [
                ("memberships_ok", tally.ok["memberships"]),
                ("memberships_total", tally.total["memberships"]),
            ],
            details="local-spectral-space membership answers coincide",
        ),
    ]


def _diag_plus_unit(rng, d: int, res: int):
    """diag(eigs) + h E with E one unit entry; returns (family, eigs)."""
    eigs = draw_eigenvalues(rng, d, rect=RECT, n_cells=res)
    e = np.zeros((d, d), dtype=complex)
    e[int(rng.integers(d)), int(rng.integers(d))] = 1.0
    fam = OperatorFamily.from_terms(
        d, [(CoeffFn.const(), np.diag(eigs)), (CoeffFn.pow_h(1.0), e)]
    )
    return fam, eigs


def _chain_pair(cfg: ScenarioConfig, idx: int, k: int, res: int):
    """Margin-conditioned asymptotically equivalent pair for the chain checks.

    Cycles through a diagonal family with one h-drifting entry, a
    conditioned-diagonalizable constant plus an h-linear term, and a
    commuting block family; kinds 0 and 1 expose the A + h B structure
    needed by the uniqueness sub-check.
    """
    d = min(cfg.dims(k), 5)
    kind = k % 3
    rng = rng_for(cfg.seed, idx, 9000 + k)
    if kind == 0:
        f, lams = _diag_plus_unit(rng, d, res)
        return f, OperatorFamily.constant(np.diag(lams)), True
    if kind == 1:
        a, _, _ = random_diagonalizable(rng, d, rect=RECT, n_cells=res)
        b = random_matrix(rng, d, scale=0.5)
        f = OperatorFamily.from_terms(
            d, [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)]
        )
        g = OperatorFamily.constant(a)
        return f, g, True
    f, g, _, _ = commuting_family_pair(rng_for(cfg.seed + 300 + k, 101, d), d, RECT, res)
    return f, g, False


def check_local_remark_chain(cfg: ScenarioConfig, idx: int):
    res = 32
    tally = _Tally()
    undet_cells = 0
    total_cells = 0
    for k in range(10):
        fam_f, fam_g, has_hb_form = _chain_pair(cfg, idx, k, res)
        d = fam_f.dim
        rng = rng_for(cfg.seed, idx, k)
        bound = spectral_radius_bound(fam_f, cfg.grid)
        sg = family_spectrum_grid(fam_f, RECT, res, res, cfg.grid)
        spec_or_undet = set(map(tuple, np.argwhere(sg.classes != CLS_RESOLVENT)))
        for _ in range(2):
            x = random_vector(rng, d)
            lg = loc.family_local_spectrum_grid(fam_f, x, RECT, res, res, cfg.grid)
            undet_cells += int((lg.classes == CLS_UNDETERMINED).sum())
            total_cells += lg.classes.size
            local_cells = set(map(tuple, np.argwhere(lg.classes == CLS_SPECTRUM)))
            tally.add("inclusion", local_cells <= spec_or_undet)
            centers = np.array([0.0 + 0.0j, 1.0 + 0.0j, -1.0 + 1.0j])
            for _ in range(3):
                region = _random_region(rng, centers)
                m_full = loc.local_spectral_space_member(lg, region)
                clipped = region.intersect(
                    Disc(center=0.0 + 0.0j, radius=bound.value + 0.5)
                )
                m_clip = loc.local_spectral_space_member(lg, clipped)
                tally.add("truncation", m_full.member == m_clip.member)
            lgg = loc.family_local_spectrum_grid(fam_g, x, RECT, res, res, cfg.grid)
            undet_cells += int((lgg.classes == CLS_UNDETERMINED).sum())
            total_cells += lgg.classes.size
            tally.add("equivalence", compare_grids(lg, lgg).identical)
        if has_hb_form:
            a = fam_f.terms[0][1]
            b = fam_f.terms[1][1]
            x = random_vector(rng, d)
            w = random_vector(rng, d)
            sup = fam_f.sup_bound()
            mesh = [1.6 * sup + 0.0j, 1.6 * sup + 0.4j, -1.6 * sup - 0.2j]

            def sol1(lam, _a=a, _b=b, _x=x):
                r = truncated_resolvent_family(_a, _b, lam, order=3)
                return module_action(r, VectorFamily.constant(_x))

            def sol2(lam, _w=w, _s=sol1):
                return _s(lam) + VectorFamily.from_terms(
                    len(_w), [(CoeffFn.pow_h(1.0), _w)]
                )

            rep = loc.local_extension_uniqueness_check(
                fam_f, x, sol1, sol2, mesh, cfg.grid
            )
            tally.add("uniqueness", rep.all_to_zero)
    undet_frac = undet_cells / max(total_cells, 1)
    tally.add("undetermined", undet_frac < 0.02)
    return [
        _result(
            "ac11-local-remark-chain",
            "10 pairs x 2 vectors: inclusion, truncation, uniqueness, equivalence",
            tally.passed(),
            [
                ("inclusion_ok", tally.ok["inclusion"]),
                ("truncation_ok", tally.ok["truncation"]),
                ("uniqueness_ok", tally.ok["uniqueness"]),
                ("equivalence_ok", tally.ok["equivalence"]),
                ("undetermined_frac", undet_frac),
            ],
            details="local cells inside spectrum cells; membership invariant "
            "under spectrum-disk truncation; admissible solutions merge; "
            "certified equivalent pairs classify identically",
        )
    ]


# ---------------------------------------------------------------------------
# Supplementary per-claim checks
# ---------------------------------------------------------------------------


def check_norm_algebra(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    by_dim: dict[int, list] = {}
    for k in range(1000):
        d = cfg.dims(k)
        by_dim.setdefault(d, []).append((random_matrix(rng, d), random_matrix(rng, d)))
    worst = 0.0
    for pairs in by_dim.values():
        a, b = (np.stack(side) for side in zip(*pairs))
        na, nb, nab, nsum = np.split(op_norms(np.concatenate([a, b, a @ b, a + b])), 4)
        sub = (nab - na * nb) / (na * nb)
        tri = (nsum - (na + nb)) / (na + nb)
        worst = max(worst, float(sub.max()), float(tri.max()))
    return [
        _result(
            "sup01-norm-algebra",
            "1000 random pairs, dims 2..6",
            worst <= 1e-9,
            [("worst_violation", worst)],
        )
    ]


def check_neumann_solve(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    worst = 0.0
    for k in range(50):
        d = cfg.dims(k)
        a = random_matrix(rng, d)
        lam = complex(op_norm(a) * 1.6)
        bvec = random_vector(rng, d)
        y = solve(lam * np.eye(d) - a, bvec)
        partial = np.zeros(d, dtype=complex)
        term = bvec.astype(complex)
        for j in range(200):
            partial += term / lam ** (j + 1)
            term = a @ term
            if np.linalg.norm(term) / abs(lam) ** (j + 2) < 1e-12:
                break
        worst = max(worst, float(np.linalg.norm(partial - y)))
    return [
        _result(
            "sup02-neumann-solve",
            "50 random matrices, |lam| = 1.6 ||A||",
            worst <= 1e-6,
            [("worst_series_gap", worst)],
        )
    ]


def check_spectral_projections(cfg: ScenarioConfig, idx: int):
    worst = 0.0
    center_gap = 0.0
    for k in range(20):
        rng = rng_for(cfg.seed, idx, k)
        d = cfg.dims(k)
        a, w, _ = random_diagonalizable(rng, d, gap=0.5)
        dec = spectral_decomp(a, cluster_tol=1e-4)
        worst = max(worst, dec.defect)
        eigs = eigenvalues(a)
        for c in dec.clusters:
            center_gap = max(center_gap, float(min(abs(eigs - c.center))))
    return [
        _result(
            "sup03-spectral-projections",
            "20 diagonalizable instances, gap >= 0.5, d <= 8",
            worst <= 1e-7 and center_gap <= 1e-4,
            [("worst_defect", worst), ("worst_center_gap", center_gap)],
            details="projection sum/idempotence/annihilation/nilpotency and "
            "eigenvalue-cluster compatibility",
        )
    ]


def check_qn_laws(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    tally = _Tally()
    for k in range(10):
        d = cfg.dims(k)
        t = random_matrix(rng, d)
        tally.add("reflexive", qn_equivalent(t, t).verdict == EQUIVALENT)
        c = 0.5 + rng.uniform(0.0, 1.0)
        shifted = t + c * np.eye(d)
        tally.add("shift", qn_equivalent(t, shifted).verdict == NOT_EQUIVALENT)
    for k in range(10):
        rng2 = rng_for(cfg.seed, idx, 99, k)
        t, (n,), _ = commuting_toeplitz(rng2, cfg.dims(k), 1)
        seq = bracket_seq(t, t + n, N_MAX)
        # A commuting nilpotent difference: the order-12 bracket is exactly zero.
        tally.add("nilpotent", seq.verdict().verdict == EQUIVALENT and float(seq.roots[11]) == 0.0)
    return [
        _result(
            "sup04-qn-laws",
            "reflexivity, scalar-shift controls, commuting-nilpotent zeros",
            tally.passed(),
            [],
        )
    ]


def check_family_relation_laws(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    tally = _Tally()
    for k in range(10):
        d = cfg.dims(k)
        f = _random_catalog_family(rng, d)
        u1 = _null_op_family(rng, d)
        u2 = _null_op_family(rng, d)
        g = f + u1
        w = g + u2
        const_off = f + OperatorFamily.constant(np.eye(d, dtype=complex))
        for a, b, want in (
            (f, f, TO_ZERO),
            (f, g, TO_ZERO),
            (g, f, TO_ZERO),
            (f, w, TO_ZERO),
            (f, const_off, BOUNDED_POSITIVE),
        ):
            tally.add("laws", asymptotically_equivalent(a, b, cfg.grid).limit_verdict == want)
    return [
        _result(
            "sup05-family-relation-laws",
            "reflexive, symmetric, transitive on catalog triples; controls",
            tally.passed(),
            [],
        )
    ]


def check_bounded_asym_implies_qn(cfg: ScenarioConfig, idx: int):
    kinds = ("h-perturbation", "null-difference", "exp-null", "local-shift")
    tally = _Tally()
    trials = 12
    for k in range(trials):
        pair = generate_pair(kinds[k % len(kinds)], cfg.seed + 40 + k, cfg.dims(k))
        rep = asym_qn_equivalent(pair.f, pair.g, cfg.grid)
        tally.add("pairs", rep.verdict == EQUIVALENT)
    return [
        _result(
            "sup06-bounded-asym-implies-qn",
            f"{trials} certified asymptotically equivalent pairs",
            tally.passed(),
            [("pairs_ok", tally.ok["pairs"])],
            details="asymptotic equivalence forces the bracket roots down",
        )
    ]


def check_class_representative_stability(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    tally = _Tally()
    trials = 10
    for k in range(trials):
        d = cfg.dims(k)
        base = generate_pair("commuting-nilpotent", cfg.seed + 60 + k, d)
        f2 = base.f + _null_op_family(rng, d)
        g2 = base.g + _null_op_family(rng, d)
        r0 = asym_qn_equivalent(base.f, base.g, cfg.grid)
        r1 = asym_qn_equivalent(f2, g2, cfg.grid)
        tally.add("pairs", r0.verdict == r1.verdict == EQUIVALENT)
    return [
        _result(
            "sup07-class-representative-stability",
            f"{trials} pairs vs null-perturbed representatives",
            tally.passed(),
            [("pairs_ok", tally.ok["pairs"])],
            details="equivalence verdicts survive changes of representative",
        )
    ]


def check_commute_quotient(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    tally = _Tally()
    trials = 10
    for k in range(trials):
        d = cfg.dims(k)
        t, (n1, n2), _ = commuting_toeplitz(rng_for(cfg.seed, idx, k), d, 2)
        f = OperatorFamily.constant(t)
        g = OperatorFamily.constant(t + n1)
        v0 = commute_in_limit(f, g, cfg.grid).limit_verdict
        f2 = f + _null_op_family(rng, d)
        g2 = g + _null_op_family(rng, d)
        v1 = commute_in_limit(f2, g2, cfg.grid).limit_verdict
        a = random_matrix(rng, d)
        b = random_matrix(rng, d)
        noncomm = commute_in_limit(
            OperatorFamily.constant(a), OperatorFamily.constant(b), cfg.grid
        ).limit_verdict
        tally.add("trials", v0 == TO_ZERO and v1 == TO_ZERO and noncomm == BOUNDED_POSITIVE)
    return [
        _result(
            "sup08-commute-quotient",
            f"{trials} commuting pairs under representative change",
            tally.passed(),
            [("trials_ok", tally.ok["trials"])],
            details="vanishing commutator tails survive null perturbations; "
            "generic constant pairs keep a persistent commutator",
        )
    ]


def check_module_action(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    tally = _Tally()
    trials = 200
    for k in range(trials):
        d = cfg.dims(k)
        f = _random_catalog_family(rng, d)
        v = VectorFamily.from_terms(
            d,
            [(CoeffFn.const(), random_vector(rng, d)), (CoeffFn.pow_h(1.0), random_vector(rng, d))],
        )
        out = module_action(f, v, cfg.grid)
        u = _null_op_family(rng, d)
        w = _null_vec_family(rng, d)
        out2 = module_action(f + u, v + w, cfg.grid)
        diff = out2 - out
        tally.add("instances", is_null_family(diff, cfg.grid).limit_verdict == TO_ZERO)
    return [
        _result(
            "sup09-module-action",
            f"{trials} random catalog instances",
            tally.passed(),
            [("instances_ok", tally.ok["instances"])],
            details="well-defined under representative change; the norm bound "
            "is asserted inside the operation",
        )
    ]


def check_radius_remarks(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    tally = _Tally()
    for k in range(10):
        d = cfg.dims(k)
        fam = _random_catalog_family(rng, d)
        bound = spectral_radius_bound(fam, cfg.grid)
        grid = family_spectrum_grid(fam, RECT, 48, 48, cfg.grid)
        w, h = grid.cell_size()
        diag = math.hypot(w, h)
        cells = grid.cells_with_class(CLS_SPECTRUM).ravel()
        tally.add("radius", not any(abs(c) > bound.value + diag + 1e-6 for c in cells))
    for k in range(50):
        d = cfg.dims(k)
        fam = _random_catalog_family(rng, d)
        sup = float(norm_samples(fam, cfg.grid).max())
        lam = (sup / (1.0 - 1e-6)) * (1.0 + float(rng.uniform(0.01, 1.0)))
        lam *= np.exp(1j * rng.uniform(0, 2 * np.pi))
        probe = probe_resolvent(fam, lam, cfg.grid)
        tally.add("neumann", probe.neumann and probe.classification == RESOLVENT)
    for k in range(20):
        d = cfg.dims(k)
        fam = _random_catalog_family(rng, d)
        sup = fam.sup_bound()
        lam = (sup + 0.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        probe = probe_resolvent(fam, lam, cfg.grid)
        rn = probe.tail_resnorm
        tally.add(
            "tails",
            probe.classification == RESOLVENT
            and np.all(np.isfinite(rn))
            and not rn.min() < 1.0 / (abs(lam) + sup) - 1e-12,
        )
    return [
        _result(
            "sup10-radius-remarks",
            "radius bound on 10 grids; Neumann exterior on 50 points; "
            "resolvent tails on 20 points",
            tally.passed(),
            [
                ("radius_ok", float(tally.passed("radius"))),
                ("neumann_ok", float(tally.passed("neumann"))),
                ("tails_ok", float(tally.passed("tails"))),
            ],
            details="spectrum cells obey the growth bound; norms below |lam| "
            "certify resolvent; inverse tails stay bounded and above "
            "1/(|lam| + sup norm)",
        )
    ]


def check_open_set(cfg: ScenarioConfig, idx: int):
    tally = _Tally()
    trials = 10
    for k in range(trials):
        rng = rng_for(cfg.seed, idx, k)
        d = cfg.dims(k)
        fam = _random_catalog_family(rng, d)
        coarse = family_spectrum_grid(fam, RECT, 24, 24, cfg.grid)
        fine = family_spectrum_grid(fam, RECT, 48, 48, cfg.grid)
        # Interior coarse cells whose 3x3 block is resolvent, and coarse
        # cells whose four fine children are all resolvent.
        interior = sliding_window_view(coarse.classes == CLS_RESOLVENT, (3, 3)).all(axis=(2, 3))
        children = (fine.classes == CLS_RESOLVENT).reshape(24, 2, 24, 2).all(axis=(1, 3))
        tally.add("families", not np.any(interior & ~children[1:23, 1:23]))
    return [
        _result(
            "sup11-open-set",
            f"{trials} random catalog families, 24x24 vs 48x48",
            tally.passed(),
            [("families_ok", tally.ok["families"])],
            details="interior resolvent cells stay resolvent when refined",
        )
    ]


def _svep_witnesses(rng, fam: OperatorFamily, count: int) -> list[loc.Witness]:
    d = fam.dim
    a = fam.terms[0][1]
    b = fam.terms[1][1] if len(fam.terms) > 1 else np.zeros((d, d), dtype=complex)
    out = []
    for j in range(count):
        v = random_vector(rng, d)
        kind = j % 3
        if kind == 0:
            coeff = CoeffFn.pow_h(float(rng.integers(1, 3)))

            def fn(lam, _c=coeff, _v=v, _a=a, _b=b):
                r = truncated_resolvent_family(_a, _b, lam, order=2)
                base = module_action(r, VectorFamily.constant(_v))
                return VectorFamily.from_terms(
                    base.dim, [(_c * cf, vec) for cf, vec in base.terms]
                )

        elif kind == 1:

            def fn(lam, _v=v):
                return VectorFamily.constant(_v)

        else:
            coeff = CoeffFn.exp_inv(float(rng.integers(1, 3)))

            def fn(lam, _c=coeff, _v=v):
                return VectorFamily.from_terms(len(_v), [(_c, _v)])

        out.append(loc.Witness(name=f"w{j}", fn=fn))
    return out


def check_svep(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    tally = _Tally()
    families = 10
    witnesses_per = 10
    for k in range(families):
        d = cfg.dims(k)
        pair = generate_pair("h-perturbation", cfg.seed + 500 + k, d)
        fam = pair.f
        sup = fam.sup_bound()
        base = 1.5 * sup
        mesh = [base + 0.3 * dx + 0.3j * dy for dx in range(3) for dy in range(3)]
        wit = _svep_witnesses(rng, fam, witnesses_per)
        rep = loc.svep_falsification_probe(fam, wit, mesh, cfg.grid)
        tally.add("families", not rep.falsified and all(r.bounded_pointwise for r in rep.results))
    return [
        _result(
            "sup12-svep",
            f"{families} catalog families x {witnesses_per} witnesses",
            tally.passed(),
            [
                ("families_unfalsified", tally.ok["families"]),
                ("witnesses_total", families * witnesses_per),
            ],
            details="no witness produces vanishing residuals with persistent "
            "norm; reported as not-falsified, never as proof",
        )
    ]


def check_svep_transfer(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    tally = _Tally()
    trials = 6
    for k in range(trials):
        d = cfg.dims(k)
        pair = generate_pair("exp-null", cfg.seed + 600 + k, d)
        sup = pair.f.sup_bound()
        mesh = [1.5 * sup + 0.0j, 1.5 * sup + 0.3j]
        wit = _svep_witnesses(rng, pair.f, 6)
        rep_f = loc.svep_falsification_probe(pair.f, wit, mesh, cfg.grid)
        rep_g = loc.svep_falsification_probe(pair.g, wit, mesh, cfg.grid)
        statuses_f = tuple(r.status for r in rep_f.results)
        statuses_g = tuple(r.status for r in rep_g.results)
        tally.add("pairs", statuses_f == statuses_g)
    return [
        _result(
            "sup13-svep-transfer",
            f"{trials} asymptotically equivalent pairs, shared witnesses",
            tally.passed(),
            [("pairs_ok", tally.ok["pairs"])],
            details="falsification outcomes transfer along asymptotic "
            "equivalence and representative change",
        )
    ]


def check_local_exact(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    a = np.diag([1.0 + 0j, 2.0 + 0j])
    r1 = loc.local_spectrum_exact(a, np.array([1.0, 0.0], dtype=complex))
    r2 = loc.local_spectrum_exact(a, np.array([1.0, 1.0], dtype=complex))
    j = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    r3 = loc.local_spectrum_exact(j, np.array([1.0, 0.0], dtype=complex))
    tally = _Tally()
    tally.add(
        "examples",
        _support_match(r1.support_points(), [1.0 + 0j])
        and _support_match(r2.support_points(), [1.0 + 0j, 2.0 + 0j])
        and _support_match(r3.support_points(), [0.0 + 0j]),
    )
    for k in range(50):
        d = cfg.dims(k)
        amat, w, _ = random_diagonalizable(rng, d)
        dec = spectral_decomp(amat, cluster_tol=1e-4)
        x = random_vector(rng, d)
        y = random_vector(rng, d)
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        sx = set(np.round(loc.local_spectrum_exact(amat, x, decomp=dec).support_points(), 6))
        sy = set(np.round(loc.local_spectrum_exact(amat, y, decomp=dec).support_points(), 6))
        sz = set(
            np.round(
                loc.local_spectrum_exact(
                    amat, alpha * x + beta * y, decomp=dec
                ).support_points(),
                6,
            )
        )
        tally.add("linear", sz <= (sx | sy))
    zero = loc.local_spectrum_exact(a, np.zeros(2, dtype=complex))
    tally.add("zero", zero.zero_vector and not zero.support)
    return [
        _result(
            "sup14-local-exact",
            "component examples, 50 linearity trials, zero vector",
            tally.passed(),
            [],
            details="support = projections above threshold; "
            "support(ax+by) inside support(x) | support(y); Sp(0) empty",
        )
    ]


def check_extension(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    a = np.diag([1.0 + 0j, 2.0 + 0j])
    e1 = loc.maximal_extension_eval(a, np.array([1.0, 0.0], dtype=complex), 3.0)
    e2 = loc.maximal_extension_eval(a, np.array([0.0, 1.0], dtype=complex), 3.0)
    tally = _Tally()
    tally.add(
        "examples",
        np.allclose(e1, [0.5, 0.0], atol=1e-10) and np.allclose(e2, [0.0, 1.0], atol=1e-10),
    )
    for k in range(30):
        d = cfg.dims(k)
        amat, w, _ = random_diagonalizable(rng, d)
        x = random_vector(rng, d)
        lam = complex(op_norm(amat) * 1.5, 0.4)
        ev = loc.maximal_extension_eval(amat, x, lam)
        direct = solve(lam * np.eye(d) - amat, x)
        resid = np.linalg.norm((lam * np.eye(d) - amat) @ ev - x)
        bound = loc.TOL_EXT * (op_norm(amat) + abs(lam) + 1) * max(
            np.linalg.norm(ev), np.linalg.norm(x)
        )
        gap = np.linalg.norm(ev - direct)
        tally.add("agree", not (resid > bound or gap > 1e-6 * max(1.0, np.linalg.norm(direct))))
    return [
        _result(
            "sup15-extension",
            "diagonal examples plus 30 random agreement trials",
            tally.passed(),
            [],
            details="partial-fraction values satisfy the residual bound and "
            "match direct solves on the common domain",
        )
    ]


def check_member_monotone(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    tally = _Tally()
    trials = 12
    res = 24
    for k in range(trials):
        d = min(cfg.dims(k), 4)
        fam, eigs = _diag_plus_unit(rng_for(cfg.seed, idx, 800 + k), d, res)
        x = random_vector(rng, d)
        lg = loc.family_local_spectrum_grid(fam, x, RECT, res, res, cfg.grid)
        small = _random_region(rng, eigs)
        big = Union(parts=(small, Disc(center=0j, radius=float(rng.uniform(0.2, 0.8)))))
        m_small = loc.local_spectral_space_member(lg, small)
        m_big = loc.local_spectral_space_member(lg, big)
        tally.add("monotone", (not m_small.member) or m_big.member)
        # Linearity at grid level: the support of a combination stays
        # inside the union of the supports.
        y = random_vector(rng, d)
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        ly = loc.family_local_spectrum_grid(fam, y, RECT, res, res, cfg.grid)
        lz = loc.family_local_spectrum_grid(
            fam, alpha * x + beta * y, RECT, res, res, cfg.grid
        )
        union_or_undet = (
            (lg.classes == CLS_SPECTRUM)
            | (ly.classes == CLS_SPECTRUM)
            | (lz.classes == CLS_UNDETERMINED)
        )
        tally.add("linear", np.all(union_or_undet[lz.classes == CLS_SPECTRUM]))
    return [
        _result(
            "sup16-member-monotone",
            f"{trials} trials of region enlargement and linear combination",
            tally.passed(),
            [("monotone_ok", tally.ok["monotone"]), ("linear_ok", tally.ok["linear"])],
            details="membership survives region enlargement; combination "
            "supports stay inside the union of supports",
        )
    ]


def check_constant_class_embedding(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    tally = _Tally()
    trials = 10
    for k in range(trials):
        d = cfg.dims(k)
        fam = _random_catalog_family(rng, d)
        x = random_vector(rng, d)
        u = _null_vec_family(rng, d)
        lam = (fam.sup_bound() + 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        mats = lam * np.eye(d, dtype=complex) - _tail_eval(fam, cfg.grid).mats
        rhs_const = np.broadcast_to(x[:, None], (cfg.grid.tail, d, 1))
        y1 = np.linalg.solve(mats, rhs_const)[..., 0]
        rhs_fam = (x[None, :] + _tail_eval(u, cfg.grid).mats)[..., None]
        y2 = np.linalg.solve(mats, rhs_fam)[..., 0]
        gap = np.linalg.norm(y1 - y2, axis=1)
        tally.add("trials", tail_stats(gap).limit_verdict == TO_ZERO)
    return [
        _result(
            "sup17-constant-class-embedding",
            f"{trials} resolvent solves with null-perturbed right-hand sides",
            tally.passed(),
            [("trials_ok", tally.ok["trials"])],
            details="solutions for x and for any representative of its "
            "constant class merge at h -> 0",
        )
    ]


def check_local_quotient(cfg: ScenarioConfig, idx: int):
    rng = rng_for(cfg.seed, idx)
    tally = _Tally()
    trials = 10
    for k in range(trials):
        d = min(cfg.dims(k), 4)
        pair = generate_pair("local-shift", cfg.seed + 900 + k, d)
        fam = pair.f
        fam2 = fam + _null_op_family(rng, d)
        x = random_vector(rng, d)
        eigs = eigenvalues(fam(1e-9))
        pairs = [
            (
                loc.family_local_probe(fam, x, complex(lam0), 0.05, cfg.grid).classification,
                loc.family_local_probe(fam2, x, complex(lam0), 0.05, cfg.grid).classification,
            )
            for lam0 in list(eigs[:2]) + [eigs[0] + 1.5]
        ]
        tally.add("trials", not any(a != b for a, b in pairs if loc.UNDETERMINED not in (a, b)))
    return [
        _result(
            "sup18-local-quotient",
            f"{trials} families vs null-perturbed representatives, probe points",
            tally.passed(),
            [("trials_ok", tally.ok["trials"])],
            details="probe classifications survive null perturbations of the family",
        )
    ]


# ---------------------------------------------------------------------------
# Registry, runner, reports
# ---------------------------------------------------------------------------

# The claim of the paper each record checks, by record id, in report order.
CLAIMS = {
    "ac01-bracket-recurrence": "bracket-binomial-identity",
    "ac02-qn-pairs": "qn-equivalence-preserves-spectrum-and-local-spectrum",
    "ac03-non-equivalence-control": "qn-root-test-control",
    "ac04-spectrum-grid-oracle": "family-spectrum-vs-eigenvalues",
    "ac05-asymptotic-pseudospectrum": "family-spectrum-definition",
    "ac06-quotient-sandwich": "quotient-norm-sandwich",
    "ac07a-resolvent-identity": "asymptotic-resolvent-identity",
    "ac07b-resolvent-uniqueness": "approximate-resolvent-uniqueness",
    "ac08-spectrum-invariance": "spectrum-invariant-under-asymptotic-equivalence",
    "ac08b-spectrum-quotient-invariance": "spectrum-quotient-invariance",
    "ac09-local-oracle": "family-local-spectrum-vs-exact",
    "ac10-commuting-local-invariance": "local-spectrum-commuting-invariance",
    "ac10b-spectral-space-equality": "spectral-space-commuting-equality",
    "ac11-local-remark-chain": "local-remark-chain",
    "sup01-norm-algebra": "operator-norm-inequalities",
    "sup02-neumann-solve": "resolvent-neumann-series",
    "sup03-spectral-projections": "riesz-projection-invariants",
    "sup04-qn-laws": "qn-equivalence-relation-laws",
    "sup05-family-relation-laws": "asymptotic-equivalence-relation-laws",
    "sup06-bounded-asym-implies-qn": "asymptotic-implies-quasinilpotent-equivalence",
    "sup07-class-representative-stability": "class-level-equivalence-descends",
    "sup08-commute-quotient": "limit-commutation-class-invariance",
    "sup09-module-action": "banach-module-action",
    "sup10-radius-remarks": "family-spectrum-growth-and-neumann-remarks",
    "sup11-open-set": "family-resolvent-open-set",
    "sup12-svep": "family-svep-falsification",
    "sup13-svep-transfer": "svep-asymptotic-and-quotient-transfer",
    "sup14-local-exact": "exact-local-spectrum-support",
    "sup15-extension": "maximal-extension-partial-fractions",
    "sup16-member-monotone": "spectral-space-monotone-and-linear",
    "sup17-constant-class-embedding": "constant-class-embedding",
    "sup18-local-quotient": "local-resolvent-quotient-invariance",
}

CHECKS = (
    ("ac01-bracket-recurrence", "bracket", check_bracket_recurrence),
    ("ac02-qn-pairs", "bracket", check_qn_pairs),
    ("ac03-non-equivalence-control", "bracket", check_non_equivalence_control),
    ("ac04-spectrum-grid-oracle", "spectra", check_spectrum_grid_oracle),
    ("ac05-asymptotic-pseudospectrum", "spectra", check_asymptotic_pseudospectrum),
    ("ac06-quotient-sandwich", "family", check_quotient_sandwich),
    ("ac07-resolvent-identity-uniqueness", "spectra", check_resolvent_identity_uniqueness),
    ("ac08-spectrum-invariance", "spectra", check_spectrum_invariance),
    ("ac09-local-oracle", "local", check_local_oracle),
    ("ac10-commuting-local-invariance", "local", check_commuting_local_invariance),
    ("ac11-local-remark-chain", "local", check_local_remark_chain),
    ("sup01-norm-algebra", "linalg", check_norm_algebra),
    ("sup02-neumann-solve", "linalg", check_neumann_solve),
    ("sup03-spectral-projections", "linalg", check_spectral_projections),
    ("sup04-qn-laws", "bracket", check_qn_laws),
    ("sup05-family-relation-laws", "family", check_family_relation_laws),
    ("sup06-bounded-asym-implies-qn", "family", check_bounded_asym_implies_qn),
    ("sup07-class-representative-stability", "family", check_class_representative_stability),
    ("sup08-commute-quotient", "family", check_commute_quotient),
    ("sup09-module-action", "family", check_module_action),
    ("sup10-radius-remarks", "spectra", check_radius_remarks),
    ("sup11-open-set", "spectra", check_open_set),
    ("sup12-svep", "local", check_svep),
    ("sup13-svep-transfer", "local", check_svep_transfer),
    ("sup14-local-exact", "local", check_local_exact),
    ("sup15-extension", "local", check_extension),
    ("sup16-member-monotone", "local", check_member_monotone),
    ("sup17-constant-class-embedding", "local", check_constant_class_embedding),
    ("sup18-local-quotient", "local", check_local_quotient),
)

ALL_SUITES = tuple(sorted({suite for _, suite, _ in CHECKS}))


@dataclass(frozen=True)
class ReportBundle:
    config: ScenarioConfig
    results: tuple[CheckResult, ...]

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, INCONCLUSIVE_VERDICT: 0}
        for r in self.results:
            out[r.verdict] += 1
        return out

    @property
    def exit_code(self) -> int:
        return 1 if any(r.verdict == FAIL for r in self.results) else 0

    def render_machine(self) -> str:
        cfg = self.config
        g = cfg.grid
        lines = [
            "schema=opfam-verify-v1",
            f"seed={cfg.seed}",
            f"dims={cfg.dim_min}..{cfg.dim_max}",
            f"grid={g.h0!r}:{g.ratio!r}:{g.count}:{g.tail}",
            f"suites={','.join(cfg.suites) if cfg.suites else 'all'}",
            f"checks={len(self.results)}",
        ]
        for r in self.results:
            metrics = ";".join(f"{k}={v!r}" for k, v in r.metrics)
            fields = [
                f"check={r.check_id}",
                f"suite={r.suite}",
                f"anchor={r.anchor}",
                f"verdict={r.verdict}",
                f"instance={_clean(r.instance)}",
                f"metrics={metrics}",
                f"details={_clean(r.details)}",
            ]
            if r.verdict == FAIL:
                fields.append(f"repro=opfam verify --seed {cfg.seed} --suite {r.suite}")
            lines.append("|".join(fields))
        counts = self.counts()
        lines.append(
            f"summary=pass:{counts[PASS]},fail:{counts[FAIL]},"
            f"inconclusive:{counts[INCONCLUSIVE_VERDICT]}"
        )
        return "\n".join(lines) + "\n"

    def render_summary(self) -> str:
        counts = self.counts()
        lines = [
            "verification summary",
            f"  checks run:   {len(self.results)}",
            f"  pass:         {counts[PASS]}",
            f"  fail:         {counts[FAIL]}",
            f"  inconclusive: {counts[INCONCLUSIVE_VERDICT]}",
            "",
        ]
        for r in self.results:
            lines.append(f"[{r.verdict:>12}] {r.check_id}  ({r.anchor})")
            if r.verdict != PASS:
                lines.append(f"               {r.instance}")
                if r.details:
                    lines.append(f"               {r.details}")
        return "\n".join(lines) + "\n"


def _clean(text: str) -> str:
    return text.replace("|", "/").replace("\n", " ")


def _crash(check_id: str, instance: str, details: str) -> list[CheckResult]:
    """The one fail record of a check that did not give its own records."""
    return [replace(_result(check_id, instance, False, [], details=details), anchor="check-raised")]


def _run_check(cfg: ScenarioConfig, pos: int) -> tuple[list[CheckResult], str]:
    """(records, traceback text) of the check at registry position pos.

    Each record gets its claim anchor from CLAIMS.  A check that raises, or
    emits a record id CLAIMS lacks, gives one fail record naming the
    exception, and its traceback text; otherwise the text is empty.
    """
    check_id, _, fn = CHECKS[pos]
    try:
        return [replace(r, anchor=CLAIMS[r.check_id]) for r in fn(cfg, pos)], ""
    except Exception as exc:
        details = f"{type(exc).__name__}: {exc}"
        return _crash(check_id, "check raised an exception", details), traceback.format_exc()


def _helpers(count: int) -> int:
    """How many workers to fork beside the caller for count checks.

    One per further usable core, capped by the checks; none without
    os.fork, or while another thread runs: a forked child would inherit
    that thread's locks in whatever state they are.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 0
    return max(min(spectra._usable_cores(), count) - 1, 0)


def _take(ends, lock, back: bool) -> int | None:
    """Take the next index of [front, back) from one end; None once they meet."""
    with lock:
        front, rear = ends[0], ends[1]
        if front >= rear:
            return None
        if back:
            ends[1] = rear - 1
            return rear - 1
        ends[0] = front + 1
        return front


def _work(cfg: ScenarioConfig, selected: list[int], ends, lock, conn) -> None:
    """A forked worker: take checks from the back and send their results.

    It sends a check's position when it takes it and (position, records,
    traceback text) when the check ends, and leaves through os._exit, so it
    never returns into the caller's stack.
    """
    status = 1
    try:
        while (i := _take(ends, lock, back=True)) is not None:
            conn.send(selected[i])
            conn.send((selected[i], *_run_check(cfg, selected[i])))
        status = 0
    finally:
        os._exit(status)


def _died(check_id: str, status: int) -> list[CheckResult]:
    code = os.waitstatus_to_exitcode(status)
    how = f"exit status {code}" if code >= 0 else f"signal {-code}"
    return _crash(check_id, "the worker running the check died", f"worker ended with {how}")


def _run_checks(cfg: ScenarioConfig, selected: list[int]) -> dict:
    """Run the checks at the selected registry positions on every usable core.

    The caller takes checks from the front of `selected` and `_helpers`
    forked workers take them from the back, under one shared pair of
    indices, until the two ends meet; the caller takes its first check
    before any worker exists.  Returns position -> (records, traceback
    text).  A worker that dies gives one fail record, naming its exit
    status, for the check it took and did not report.  Every worker is
    reaped before this returns or raises; on an exception in the caller
    (KeyboardInterrupt too) the workers are killed first.
    """
    helpers = _helpers(len(selected))
    if helpers:
        shared = multiprocessing.get_context("fork").Array("i", [0, len(selected)])
        ends, lock = shared.get_obj(), shared.get_lock()
    else:
        ends, lock = [0, len(selected)], contextlib.nullcontext()
    done = {}
    workers = {}  # connection -> [pid, position taken and not yet reported]
    try:
        i = _take(ends, lock, back=False)
        for _ in range(helpers):
            reader, writer = Pipe(duplex=False)
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the rest run on fewer cores
                reader.close()
                writer.close()
                break
            if pid == 0:
                _work(cfg, selected, ends, lock, writer)
            writer.close()
            workers[reader] = [pid, None]
        while i is not None:
            done[selected[i]] = _run_check(cfg, selected[i])
            i = _take(ends, lock, back=False)
        while workers:
            for conn in wait(list(workers)):
                try:
                    message = conn.recv()
                except EOFError:
                    pid, pos = workers.pop(conn)
                    conn.close()
                    status = os.waitpid(pid, 0)[1]
                    if pos is not None:
                        done[pos] = (_died(CHECKS[pos][0], status), "")
                    continue
                if isinstance(message, int):
                    workers[conn][1] = message
                else:
                    done[message[0]] = message[1:]
                    workers[conn][1] = None
    finally:
        for conn, (pid, _) in workers.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            conn.close()
    return done


def run_suite(cfg: ScenarioConfig) -> ReportBundle:
    """Run the configured checks on every usable core and bundle the records.

    Records are gathered in registry order, and the tracebacks of checks
    that raised go to stderr in that order, so the report is the same at
    any core count.  Each record gets its claim anchor from CLAIMS; a
    check that raises, or emits a record id CLAIMS lacks, becomes one fail
    record naming the exception, and the remaining checks still run.
    """
    wanted = set(cfg.suites) if cfg.suites else set(ALL_SUITES)
    unknown = wanted - set(ALL_SUITES)
    if unknown:
        raise InputError(f"unknown suites {sorted(unknown)}; valid: {ALL_SUITES}")
    selected = [pos for pos, (_, suite, _) in enumerate(CHECKS) if suite in wanted]
    done = _run_checks(cfg, selected)
    results: list[CheckResult] = []
    for pos in selected:
        records, trace = done[pos]
        sys.stderr.write(trace)
        results.extend(replace(r, suite=CHECKS[pos][1]) for r in records)
    bundle = ReportBundle(config=cfg, results=tuple(results))
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        with open(os.path.join(cfg.out_dir, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write(bundle.render_machine())
        with open(os.path.join(cfg.out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
            fh.write(bundle.render_summary())
    return bundle

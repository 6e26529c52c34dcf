"""The binomial operator bracket and quasinilpotent-equivalence tests.

The bracket of order n of an ordered operator pair (T, S) is
sum_k (-1)**(n-k) * C(n,k) * T**k @ S**(n-k).  It is computed here by the
recurrence B_0 = I, B_{n+1} = T B_n - B_n S, which reproduces the binomial
sum without explicit binomial coefficients or matrix powers; the explicit
sum is kept as an independent cross-check oracle.

Two operators are quasinilpotent equivalent when the n-th roots of the
bracket norms tend to 0 in both operand orders.  The limit cannot be
decided from finitely many terms; the verdict is a calibrated root test
with an explicit Inconclusive zone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InputError
from .linalg import as_matrix, op_norm

EPS_ZERO = 1e-300
OVERFLOW_LIMIT = 1e300
MAX_BRACKET_ORDER = 64
# Root-test calibration: Equivalent below EPS_Q, NotEquivalent when the
# trailing ROOT_WINDOW roots stay at or above DELTA_Q; orders 1..N_MAX.
EPS_Q = 0.05
DELTA_Q = 0.2
ROOT_WINDOW = 5
N_MAX = 40

EQUIVALENT = "Equivalent"
NOT_EQUIVALENT = "NotEquivalent"
INCONCLUSIVE = "Inconclusive"


def _check_pair(t, s):
    tm = as_matrix(t)
    sm = as_matrix(s)
    if tm.shape != sm.shape:
        raise DimensionMismatchError(f"operand dims differ: {tm.shape} vs {sm.shape}")
    return tm, sm


def bracket(t, s, n: int) -> np.ndarray:
    """Bracket of order n of (T, S) via the recurrence; n = 0 gives I."""
    tm, sm = _check_pair(t, s)
    if not 0 <= n <= MAX_BRACKET_ORDER:
        raise InputError(f"bracket order must be in [0, {MAX_BRACKET_ORDER}], got {n}")
    b = np.eye(tm.shape[0], dtype=complex)
    for _ in range(n):
        b = tm @ b - b @ sm
    return b


def bracket_binomial(t, s, n: int) -> np.ndarray:
    """Independent oracle: the explicit alternating binomial sum."""
    tm, sm = _check_pair(t, s)
    if not 0 <= n <= MAX_BRACKET_ORDER:
        raise InputError(f"bracket order must be in [0, {MAX_BRACKET_ORDER}], got {n}")
    d = tm.shape[0]
    t_pows = [np.eye(d, dtype=complex)]
    s_pows = [np.eye(d, dtype=complex)]
    for _ in range(n):
        t_pows.append(t_pows[-1] @ tm)
        s_pows.append(s_pows[-1] @ sm)
    out = np.zeros((d, d), dtype=complex)
    for k in range(n + 1):
        out += (-1) ** (n - k) * math.comb(n, k) * (t_pows[k] @ s_pows[n - k])
    return out


def bracket_norm_sequence(t, s, n_max: int) -> tuple[np.ndarray, bool]:
    """Norms of the brackets of order 1..n_max of (T, S).

    Returns (norms, ok); ok is False when the recurrence overflowed, in
    which case the remaining entries are +inf.  A norm below EPS_ZERO is
    an exact zero of the recurrence and stays zero for all larger orders.
    """
    tm, sm = _check_pair(t, s)
    norms = np.zeros(n_max)
    b = np.eye(tm.shape[0], dtype=complex)
    for n in range(n_max):
        b = tm @ b - b @ sm
        value = op_norm(b) if np.isfinite(b).all() else float("inf")
        if value > OVERFLOW_LIMIT:
            norms[n:] = float("inf")
            return norms, False
        norms[n] = value
        if value < EPS_ZERO:
            norms[n:] = 0.0
            break
    return norms, True


@dataclass(frozen=True)
class BracketSeq:
    """Bracket norm and root sequences for both operand orders."""

    n_max: int
    norms: np.ndarray
    roots: np.ndarray
    rev_norms: np.ndarray
    rev_roots: np.ndarray
    overflow: bool


def _roots_from_norms(norms: np.ndarray) -> np.ndarray:
    n = np.arange(1, len(norms) + 1, dtype=float)
    with np.errstate(divide="ignore"):
        roots = np.where(norms >= EPS_ZERO, norms ** (1.0 / n), 0.0)
    return roots


def bracket_seq(t, s, n_max: int) -> BracketSeq:
    """Bracket norms/roots for (T, S) and (S, T), orders 1..n_max."""
    if n_max < 4:
        raise InputError(f"n_max must be >= 4, got {n_max}")
    tm, sm = _check_pair(t, s)
    norms, ok_f = bracket_norm_sequence(tm, sm, n_max)
    rev_norms, ok_r = bracket_norm_sequence(sm, tm, n_max)
    return BracketSeq(
        n_max=n_max,
        norms=norms,
        roots=_roots_from_norms(norms),
        rev_norms=rev_norms,
        rev_roots=_roots_from_norms(rev_norms),
        overflow=not (ok_f and ok_r),
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Verdict of a root test: Equivalent, NotEquivalent, or Inconclusive.

    `final_root` is the last root in the sequence, `trend` the fitted
    geometric ratio of the roots over the trailing window.
    """

    verdict: str
    final_root: float
    trend: float
    diagnostics: str


def slopes_log10(values: np.ndarray) -> np.ndarray:
    """Least-squares slope of log10(values) per step, column-wise.

    values has shape (m, n): m consecutive samples of n independent
    sequences.  Both the h -> 0 tail verdicts and the root test use it.
    """
    m = values.shape[0]
    k = np.arange(m, dtype=float)
    kc = k - k.mean()
    denom = float((kc**2).sum())
    logs = np.log10(np.maximum(values, 1e-300))
    return (kc[:, None] * (logs - logs.mean(axis=0))).sum(axis=0) / denom


def root_test(roots: np.ndarray) -> EquivalenceReport:
    """Classify one root sequence rho_n, n = 1..n_max.

    Equivalent: an exact zero appears (and persists), or the final root is
    below EPS_Q.  NotEquivalent: the trailing ROOT_WINDOW roots stay at or
    above DELTA_Q with a non-decreasing fit.  Everything else: Inconclusive.
    """
    roots = np.asarray(roots, dtype=float)
    if len(roots) < ROOT_WINDOW:
        raise InputError(
            f"n_max must be >= {ROOT_WINDOW} (the root-test window), got {len(roots)}"
        )
    if not np.all(np.isfinite(roots)):
        return EquivalenceReport(
            verdict=INCONCLUSIVE,
            final_root=float("inf"),
            trend=float("inf"),
            diagnostics="numerical overflow in bracket norms",
        )
    if np.any(roots == 0.0):
        k = int(np.argmax(roots == 0.0))
        return EquivalenceReport(
            verdict=EQUIVALENT,
            final_root=0.0,
            trend=0.0,
            diagnostics=f"bracket vanishes exactly from order {k + 1}",
        )
    final_root = float(roots[-1])
    window = roots[-ROOT_WINDOW:]
    slope = float(slopes_log10(window[:, None])[0])
    ratio = float(10.0**slope)
    if final_root < EPS_Q:
        verdict = EQUIVALENT
        note = f"final root {final_root:.3e} < eps_q {EPS_Q}"
    elif window.min() >= DELTA_Q and slope >= -1e-4:
        verdict = NOT_EQUIVALENT
        note = (
            f"window >= delta_q {DELTA_Q} with non-decreasing fit "
            f"(ratio {ratio:.4f})"
        )
    else:
        verdict = INCONCLUSIVE
        note = f"final root {final_root:.3e} in the undecided zone"
    return EquivalenceReport(
        verdict=verdict, final_root=final_root, trend=ratio, diagnostics=note
    )


def combine_order_reports(
    a: EquivalenceReport, b: EquivalenceReport
) -> EquivalenceReport:
    """Conjoin the two operand orders into one symmetric verdict."""
    if a.verdict == NOT_EQUIVALENT or b.verdict == NOT_EQUIVALENT:
        verdict = NOT_EQUIVALENT
    elif a.verdict == EQUIVALENT and b.verdict == EQUIVALENT:
        verdict = EQUIVALENT
    else:
        verdict = INCONCLUSIVE
    return EquivalenceReport(
        verdict=verdict,
        final_root=max(a.final_root, b.final_root),
        trend=max(a.trend, b.trend),
        diagnostics=f"{a.diagnostics} | {b.diagnostics}",
    )


def qn_equivalent(t, s, n_max: int = N_MAX) -> EquivalenceReport:
    """Quasinilpotent-equivalence verdict for a single operator pair.

    Symmetric by construction: both operand orders are tested and the
    verdicts conjoined.
    """
    seq = bracket_seq(t, s, n_max)
    if seq.overflow:
        return EquivalenceReport(
            verdict=INCONCLUSIVE,
            final_root=float("inf"),
            trend=float("inf"),
            diagnostics="bracket norms overflow",
        )
    rep_f = root_test(seq.roots)
    rep_r = root_test(seq.rev_roots)
    return combine_order_reports(rep_f, rep_r)

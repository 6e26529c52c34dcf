"""The binomial operator bracket and quasinilpotent-equivalence tests.

The bracket of order n of an ordered operator pair (T, S) is
sum_k (-1)**(n-k) * C(n,k) * T**k @ S**(n-k).  It is computed here by the
recurrence B_0 = I, B_{n+1} = T B_n - B_n S, which reproduces the binomial
sum without explicit binomial coefficients or matrix powers; the explicit
sum is kept as an independent cross-check oracle.  Both run over whole
stacks of operand pairs (`brackets`, `bracket_binomials`), and every
single-pair function is a one-pair stack.

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
from .linalg import as_matrix, op_norms

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


def _check_stacks(t, s):
    """Two equally shaped stacks (..., d, d) of finite complex matrices."""
    tm = np.asarray(t, dtype=complex)
    sm = np.asarray(s, dtype=complex)
    if tm.ndim < 2 or tm.shape[-1] != tm.shape[-2] or tm.shape[-1] < 1:
        raise InputError(f"expected a stack of square matrices, got shape {tm.shape}")
    if tm.shape != sm.shape:
        raise DimensionMismatchError(f"operand dims differ: {tm.shape} vs {sm.shape}")
    if not (np.isfinite(tm).all() and np.isfinite(sm).all()):
        raise InputError("matrix entries must be finite")
    return tm, sm


def _check_order(n: int, what: str = "bracket order", low: int = 0) -> None:
    if not low <= n <= MAX_BRACKET_ORDER:
        raise InputError(f"{what} must be in [{low}, {MAX_BRACKET_ORDER}], got {n}")


def brackets(t, s, n_max: int) -> np.ndarray:
    """Brackets of orders 0..n_max of every operand pair of two stacks.

    t and s are equally shaped stacks (..., d, d); the result has shape
    (..., n_max + 1, d, d) with order n at [..., n, :, :].  The recurrence
    runs once over the whole stack; once every bracket in it is exactly
    zero the higher orders stay zero and are not computed.  A pair whose
    brackets overflow goes on to inf / nan without a warning, and the
    other pairs are not affected.
    """
    tm, sm = _check_stacks(t, s)
    _check_order(n_max)
    d = tm.shape[-1]
    out = np.zeros(tm.shape[:-2] + (n_max + 1, d, d), dtype=complex)
    b = np.eye(d, dtype=complex)
    out[..., 0, :, :] = b
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_max + 1):
            b = tm @ b - b @ sm
            out[..., n, :, :] = b
            if not b.any():
                break
    return out


def bracket(t, s, n: int) -> np.ndarray:
    """Bracket of order n of (T, S) via the recurrence; n = 0 gives I."""
    tm, sm = _check_pair(t, s)
    return brackets(tm, sm, n)[n]


def bracket_binomials(t, s, n_max: int) -> np.ndarray:
    """Independent oracle: the explicit alternating binomial sums.

    Same stacks and result layout as `brackets`.  Every order is summed
    from one set of powers T**k and S**k, term by term in k.
    """
    tm, sm = _check_stacks(t, s)
    _check_order(n_max)
    d = tm.shape[-1]
    eye = np.broadcast_to(np.eye(d, dtype=complex), tm.shape)
    t_pows = [eye]
    s_pows = [eye]
    for _ in range(n_max):
        t_pows.append(t_pows[-1] @ tm)
        s_pows.append(s_pows[-1] @ sm)
    out = np.zeros(tm.shape[:-2] + (n_max + 1, d, d), dtype=complex)
    for n in range(n_max + 1):
        for k in range(n + 1):
            out[..., n, :, :] += (-1) ** (n - k) * math.comb(n, k) * (
                t_pows[k] @ s_pows[n - k]
            )
    return out


def _first(mask: np.ndarray) -> np.ndarray:
    """Index of the first True along the last axis; its length where none is."""
    stop = np.ones(mask.shape[:-1] + (1,), dtype=bool)
    return np.argmax(np.concatenate([mask, stop], axis=-1), axis=-1)


def bracket_norms(t, s, n_max: int) -> np.ndarray:
    """Norms of the brackets of order 1..n_max of every pair of two stacks.

    Returns the norms, of shape (..., n_max).  All of them come from one
    stacked SVD, then each pair is cut at its first rule that fires: a norm
    above OVERFLOW_LIMIT or nan (or a non-finite bracket) makes it +inf
    from that order on; a norm below EPS_ZERO is an exact zero of the
    recurrence and makes it 0 from that order on.  So +inf is the only
    sign of overflow: a row is all finite exactly when its pair did not
    overflow, and `root_test` is the rule that turns a non-finite row into
    a verdict.
    """
    mats = brackets(t, s, n_max)[..., 1:, :, :]
    flat = mats.reshape((-1,) + mats.shape[-2:])
    finite = np.isfinite(flat).all(axis=(1, 2))
    live = finite & flat.any(axis=(1, 2))
    values = np.where(finite, 0.0, np.inf)
    values[live] = op_norms(flat[live])
    values = values.reshape(mats.shape[:-2])
    # A finite bracket whose norm overflows inside the SVD can give nan.
    first_over = _first(~(values <= OVERFLOW_LIMIT))
    first_zero = _first(values < EPS_ZERO)
    stop = np.minimum(first_over, first_zero)[..., None]
    fill = np.where(first_zero <= first_over, 0.0, np.inf)[..., None]
    return np.where(np.arange(n_max) < stop, values, fill)


@dataclass(frozen=True)
class BracketSeq:
    """Bracket norm and root sequences for both operand orders."""

    n_max: int
    norms: np.ndarray
    roots: np.ndarray
    rev_norms: np.ndarray
    rev_roots: np.ndarray

    def verdict(self) -> EquivalenceReport:
        """The root test of both operand orders, conjoined."""
        return combine_order_reports(root_test(self.roots), root_test(self.rev_roots))


def _roots_from_norms(norms: np.ndarray) -> np.ndarray:
    """n-th roots of the norms of orders 1..n_max; below EPS_ZERO is 0, +inf stays."""
    n = np.arange(1, len(norms) + 1, dtype=float)
    with np.errstate(divide="ignore"):
        roots = np.where(norms >= EPS_ZERO, norms ** (1.0 / n), 0.0)
    return roots


def bracket_seq(t, s, n_max: int) -> BracketSeq:
    """Bracket norms/roots for (T, S) and (S, T), orders 1..n_max."""
    _check_order(n_max, "n_max", low=4)
    tm, sm = _check_pair(t, s)
    norms, rev_norms = bracket_norms(np.stack([tm, sm]), np.stack([sm, tm]), n_max)
    return BracketSeq(
        n_max=n_max,
        norms=norms,
        roots=_roots_from_norms(norms),
        rev_norms=rev_norms,
        rev_roots=_roots_from_norms(rev_norms),
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


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over axis 0, adding one row after another to zeros.

    numpy sums a contiguous run pairwise and a strided one row by row, so
    its own order depends on the layout and the column count; this one
    order gives a column the same bits alone and in any batch.  A single
    column takes the same sums from `np.add.accumulate`, which adds in
    row order too; its first sum is the first row itself, not 0 plus it,
    so + 0.0 turns an all -0.0 total into the loop's +0.0.
    """
    if a.ndim == 2 and a.shape[1] == 1:
        return np.add.accumulate(a, axis=0)[-1] + 0.0
    total = np.zeros(a.shape[1:])
    for row in a:
        total += row
    return total


def _log10_fit(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares line through log10(values) per step, column-wise.

    values has shape (m, n): m consecutive samples of n independent
    sequences.  Returns (logs, means, slopes): log10 of the values
    (floored at 1e-300), each column's mean log and its slope.  Both sums
    run in the order of `_row_sums`; the slope sum takes its rows one at a
    time, so no (m, n) array but the logs is made.
    """
    m, n = values.shape
    k = np.arange(m, dtype=float)
    kc = k - k.mean()
    denom = float((kc**2).sum())
    logs = np.maximum(values, 1e-300)
    np.log10(logs, out=logs)
    means = _row_sums(logs) / m
    total = np.zeros(n)
    for kci, row in zip(kc, logs):
        total += kci * (row - means)
    return logs, means, total / denom


def slopes_log10(values: np.ndarray) -> np.ndarray:
    """The slopes of `_log10_fit`: the h -> 0 tail verdicts and the root test use it."""
    return _log10_fit(values)[2]


def root_test(roots: np.ndarray) -> EquivalenceReport:
    """Classify one root sequence rho_n, n = 1..n_max.

    Equivalent: an exact zero appears (and persists), or the final root is
    below EPS_Q.  NotEquivalent: the trailing ROOT_WINDOW roots stay at or
    above DELTA_Q with a non-decreasing fit.  Everything else: Inconclusive.
    This is the one overflow rule of the equivalence tests: an overflowed
    bracket norm is +inf, so is its root, and a non-finite root makes the
    sequence Inconclusive with final_root and trend +inf.
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


def qn_equivalent(t, s) -> EquivalenceReport:
    """Quasinilpotent-equivalence verdict for a single operator pair, orders 1..N_MAX.

    Symmetric by construction: both operand orders are tested and the
    verdicts conjoined (`BracketSeq.verdict`).
    """
    return bracket_seq(t, s, N_MAX).verdict()

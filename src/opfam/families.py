"""h-parametrized operator and vector families on (0, 1].

A family is a finite sum of catalog coefficient functions times constant
matrices (or vectors).  The catalog is closed under products: every product
of `const`, `pow p` (h**p) and `expinv a` (exp(-a/h)) is again of the form
h**p * exp(-a/h).  Catalog coefficients are continuous, nondecreasing in h,
and bounded by 1 on (0, 1], so every family is bounded; coefficients with
p > 0 or a > 0 carry a decay certificate (they vanish as h -> 0).

Limits at h -> 0 are estimated from a geometric sample grid; verdicts are
`ToZero`, `BoundedPositive`, `Unbounded` or `Inconclusive`, never an
asserted limit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg

from .bracket import (
    INCONCLUSIVE,
    N_MAX,
    OVERFLOW_LIMIT,
    EquivalenceReport,
    _fit_steps,
    _log10_fit,
    _roots_from_norms,
    bracket_norms,
    combine_order_reports,
    root_test,
    slopes_log10,
)
from .errors import DimensionMismatchError, InputError, InvariantError
from . import linalg
from .linalg import as_matrix, as_vector, op_norm, op_norms

if TYPE_CHECKING:
    from typing import Self  # Python >= 3.11; used in annotations only

EPS_TAIL = 1e-7
ZERO_FLOOR = 1e-10
TREND_FLAT_TOL = 0.01
TREND_GROWTH_TOL = 0.02
UNBOUNDED_MIN = 1e3
DECAY_CERT_SLOPE = -0.05
DECAY_CERT_FIT = 0.3
# The largest tail sample of an HGrid: three decades below h0 <= 1, so the
# tail stands in for h -> 0 and not for some fixed h.
TAIL_H_MAX = 1e-3
# spectral_radius_bound: powers F(h)**n for n = 1..RADIUS_ORDERS, bound
# read off the trailing RADIUS_WINDOW roots.
RADIUS_ORDERS = 16
RADIUS_WINDOW = 5

TO_ZERO = "ToZero"
BOUNDED_POSITIVE = "BoundedPositive"
UNBOUNDED = "Unbounded"


@dataclass(frozen=True)
class CoeffFn:
    """Scalar coefficient h -> h**exponent * exp(-rate/h)."""

    exponent: float = 0.0
    rate: float = 0.0

    @staticmethod
    def const() -> "CoeffFn":
        return CoeffFn()

    @staticmethod
    def pow_h(p: float) -> "CoeffFn":
        if not 0.0 <= p < math.inf:
            raise InputError("pow exponent must be finite and >= 0")
        return CoeffFn(exponent=float(p))

    @staticmethod
    def exp_inv(a: float) -> "CoeffFn":
        if not 0.0 < a < math.inf:
            raise InputError("expinv rate must be finite and > 0")
        return CoeffFn(rate=float(a))

    def eval_many(self, hs: np.ndarray) -> np.ndarray:
        value = np.asarray(hs, dtype=float) ** self.exponent
        value = value.astype(complex)
        if self.rate:
            # exp(-inf) = 0 is the right value where rate / h overflows, and
            # at h = 0, where it is the coefficient's limit.
            with np.errstate(over="ignore", divide="ignore"):
                value *= np.exp(-self.rate / np.asarray(hs, dtype=float))
        return value

    def __mul__(self, other: "CoeffFn") -> "CoeffFn":
        return CoeffFn(
            exponent=self.exponent + other.exponent,
            rate=self.rate + other.rate,
        )

    @property
    def is_null(self) -> bool:
        """The decay certificate: True iff the coefficient vanishes as h -> 0."""
        return self.exponent > 0 or self.rate > 0

    @property
    def sup_bound(self) -> float:
        """sup over (0,1] of |coefficient|."""
        return math.exp(-self.rate)


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only: a term array of a family, shared and never written."""
    a.setflags(write=False)
    return a


def _merged(terms) -> tuple[tuple[CoeffFn, np.ndarray], ...]:
    """Coefficient-equal terms summed in first-seen order, zero arrays dropped."""
    merged: dict[CoeffFn, np.ndarray] = {}
    for coeff, arr in terms:
        prev = merged.get(coeff)
        merged[coeff] = arr if prev is None else _frozen(prev + arr)
    return tuple((c, a) for c, a in merged.items() if a.any())


@dataclass(frozen=True, eq=False)
class _TermSum:
    """h |-> sum_j c_j(h) * T_j with constant arrays T_j: the term algebra.

    Operator and vector families share everything here.  A subclass names
    its arrays: `_check_array` validates one term array against the family
    dim (None: any dim) and `_norms` gives the norms of a stack of them
    along axis 0.  `_tails` holds the family's evaluated tails by h-grid
    (`_tail_eval`); a family is immutable, so they stay valid while it lives.
    """

    dim: int
    terms: tuple[tuple[CoeffFn, np.ndarray], ...]
    _tails: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def from_terms(cls, dim: int, terms) -> Self:
        checked = [(c, _frozen(cls._check_array(a, dim).copy())) for c, a in terms]
        if not checked:
            raise InputError("family needs at least one term")
        return cls(dim=dim, terms=tuple(checked))

    @classmethod
    def constant(cls, a) -> Self:
        arr = _frozen(cls._check_array(a, None).copy())
        return cls(dim=arr.shape[0], terms=((CoeffFn.const(), arr),))

    def _zeros(self, *lead: int) -> np.ndarray:
        return np.zeros(lead + self.terms[0][1].shape, dtype=complex)

    def __call__(self, h: float) -> np.ndarray:
        """F(h) at one h in [0, 1]; at h = 0 each coefficient takes its limit."""
        if not 0.0 <= h <= 1.0:
            raise InputError(f"h must lie in [0, 1], got {h!r}")
        return self.eval_stack([h])[0]

    def eval_stack(self, hs: np.ndarray) -> np.ndarray:
        """Evaluate at many h values at once; returns shape (len(hs), *term shape)."""
        hs = np.asarray(hs, dtype=float)
        # A sum past the float range is inf, which every caller refuses or
        # turns into its overflow verdict.
        with np.errstate(over="ignore"):
            return self._sum([coeff.eval_many(hs) for coeff, _ in self.terms])

    def _sum(self, columns: list[np.ndarray]) -> np.ndarray:
        """sum_j columns[j] * T_j, term by term in order: the one term-sum loop.

        columns[j] holds c_j(h) at each sample (`eval_stack` computes them,
        `_grid_eval` reads them off the grid).  One buffer takes every
        term's products.  The caller holds errstate(over="ignore").
        """
        out = self._zeros(len(columns[0]))
        products = np.empty_like(out)
        lead = (-1,) + (1,) * (out.ndim - 1)
        for col, (_, arr) in zip(columns, self.terms):
            out += np.multiply(col.reshape(lead), arr, out=products)
        return out

    def __add__(self, other: Self) -> Self:
        """The sum family, holding the operands' own (validated, read-only) arrays."""
        self._check_dim(other)
        if type(other) is not type(self):
            raise InputError(
                f"cannot add a {type(other).__name__} to a {type(self).__name__}"
            )
        return self._with_terms(self.terms + other.terms)

    def __sub__(self, other: Self) -> Self:
        return self + (-other)

    def __neg__(self) -> Self:
        return self._with_terms([(c, _frozen(-a)) for c, a in self.terms])

    def _check_dim(self, other) -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"family dims differ: {self.dim} vs {other.dim}"
            )

    def canonical(self) -> Self:
        """Merge coefficient-equal terms and drop zero arrays."""
        return self._with_terms(_merged(self.terms))

    def _with_terms(self, terms) -> Self:
        """The family of these (unchecked) terms; one zero term if there are none."""
        if not terms:
            terms = [(CoeffFn.const(), _frozen(self._zeros()))]
        return type(self)(dim=self.dim, terms=tuple(terms))

    def null_certificate(self) -> bool:
        """True iff every nonzero merged term is null: the non-null terms merge to nothing."""
        return not _merged(t for t in self.terms if not t[0].is_null)


@dataclass(frozen=True, eq=False)
class OperatorFamily(_TermSum):
    """h |-> sum_j c_j(h) * A_j with constant square matrices A_j."""

    @staticmethod
    def _check_array(a, dim: int | None) -> np.ndarray:
        m = as_matrix(a)
        if dim is not None and m.shape[0] != dim:
            raise DimensionMismatchError(
                f"term matrix dim {m.shape[0]} != family dim {dim}"
            )
        return m

    _norms = staticmethod(op_norms)

    # Bound in each class body: the benchmark tracer wraps
    # vars(cls)["eval_stack"] class by class.
    eval_stack = _TermSum.eval_stack

    def drop_null_terms(self) -> "OperatorFamily":
        """Canonical representative with certified-null terms removed."""
        return self._with_terms(_merged(t for t in self.terms if not t[0].is_null))

    def sup_bound(self) -> float:
        """Upper bound for sup_h ||F(h)||."""
        return sum(c.sup_bound * op_norm(m) for c, m in self.terms)


@dataclass(frozen=True, eq=False)
class VectorFamily(_TermSum):
    """h |-> sum_j c_j(h) * x_j with constant vectors x_j."""

    _check_array = staticmethod(as_vector)

    @staticmethod
    def _norms(stack: np.ndarray) -> np.ndarray:
        return np.linalg.norm(stack, axis=1)

    eval_stack = _TermSum.eval_stack  # see OperatorFamily


@dataclass(frozen=True)
class HGrid:
    """Geometric sample grid h_k = h0 * ratio**k, k = 0..count-1.

    The last `tail` samples stand in for the behavior at h -> 0.
    """

    h0: float = 1.0
    ratio: float = 0.5
    count: int = 40
    tail: int = 6

    def __post_init__(self):
        if not 0.0 < self.h0 <= 1.0:
            raise InputError("h0 must lie in (0, 1]")
        if not 0.0 < self.ratio < 1.0:
            raise InputError("ratio must lie in (0, 1)")
        if self.tail < 3:
            raise InputError("tail must be >= 3")
        if self.count < self.tail:
            raise InputError("count must be >= tail")
        if self.h0 * self.ratio ** (self.count - self.tail) > TAIL_H_MAX:
            raise InputError(
                f"largest tail sample h0 * ratio**(count-tail) exceeds {TAIL_H_MAX:g}: "
                "the tail must approach h -> 0"
            )
        if self.h0 * self.ratio ** (self.count - 1) < np.finfo(float).tiny:
            raise InputError(
                "smallest sample h0 * ratio**(count-1) underflows "
                "(below the smallest normal float)"
            )

    @functools.cached_property
    def _samples(self) -> np.ndarray:
        return _frozen(self.h0 * self.ratio ** np.arange(self.count))

    def samples(self) -> np.ndarray:
        """h_0 .. h_{count-1}: one read-only array per grid, shared by every caller."""
        return self._samples

    def tail_samples(self) -> np.ndarray:
        return self._samples[-self.tail :]

    @functools.cached_property
    def _columns(self) -> dict[tuple[float, float, bool], np.ndarray]:
        return {}

    def column(self, coeff: CoeffFn, tail: bool) -> np.ndarray:
        """coeff at the tail samples (tail=True) or at every sample.

        Computed once per grid and coefficient, and kept read-only while
        the grid lives: every family evaluated on the grid reads it.  The
        key holds the coefficient's two floats, which hash and compare as
        a CoeffFn does, without a Python-level call.
        """
        key = (coeff.exponent, coeff.rate, tail)
        col = self._columns.get(key)
        if col is None:
            hs = self.tail_samples() if tail else self._samples
            col = self._columns[key] = _frozen(coeff.eval_many(hs))
        return col

    @staticmethod
    def parse(text: str) -> "HGrid":
        parts = text.split(":")
        if len(parts) != 4:
            raise InputError(f"grid must be h0:ratio:count:tail, got {text!r}")
        try:
            return HGrid(float(parts[0]), float(parts[1]), int(parts[2]), int(parts[3]))
        except ValueError as exc:
            raise InputError(f"bad grid spec {text!r}: {exc}") from exc


@dataclass(frozen=True)
class TailStats:
    """Finite-sample surrogate for lim / limsup at h -> 0.

    `values` are the tail samples.  `tail_trend` is the least-squares
    slope of log10(value) per grid step over them; it is reported as -inf
    when the whole tail sits at or below the measurement floor
    `zero_floor` (values there are indistinguishable from zero).
    """

    values: np.ndarray
    eps_tail: float
    zero_floor: float
    tail_max: float
    tail_min: float
    tail_trend: float
    limit_verdict: str
    note: str = ""


def verdict_arrays(
    values: np.ndarray, eps_tail: float, zero_floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tail verdict rule behind every tail test, for n sequences at once.

    values has shape (m, n); returns (codes, tail_max, tail_min, trend)
    with codes 0=ToZero, 1=BoundedPositive, 2=Unbounded, 3=Inconclusive,
    the lowest code whose condition holds winning.  The trend is -inf
    where the whole tail sits at or below zero_floor.

    One row (m = 1) is a tail of one repeated matrix (`_Tail.rows`), read
    with no log: its max and min are that row, and its trend row - row is
    +0.0 where the row is finite and NaN where it is +inf or NaN.  Those
    are the fit's bytes for bitwise-equal rows, warning included, so equal
    rows from any other caller get the same verdict from the fit.
    """
    if len(values) == 1:
        row = values[0]
        tail_max, tail_min = row.copy(), row.copy()
        trend = row - row
    else:
        tail_max = values.max(axis=0)
        tail_min = values.min(axis=0)
        trend = slopes_log10(values)
    trend = np.where(tail_max <= zero_floor, -np.inf, trend)
    codes = np.full(values.shape[1], 3, dtype=np.int8)
    codes[(trend >= TREND_GROWTH_TOL) & (tail_max >= UNBOUNDED_MIN)] = 2
    codes[(tail_min >= eps_tail) & (np.abs(trend) <= TREND_FLAT_TOL)] = 1
    codes[(tail_max < eps_tail) & (trend < 0.0)] = 0
    return codes, tail_max, tail_min, trend


VERDICT_CODES = {0: TO_ZERO, 1: BOUNDED_POSITIVE, 2: UNBOUNDED, 3: INCONCLUSIVE}


def tail_stats(
    values, eps_tail: float = EPS_TAIL, zero_floor: float = ZERO_FLOOR
) -> TailStats:
    """Classify the h -> 0 behavior of nonnegative tail samples: every entry of values."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) < 3:
        raise InputError("need a 1-d array of at least 3 tail samples")
    return _stats_of(v, eps_tail, zero_floor, verdict_arrays(v[:, None], eps_tail, zero_floor))


def _stats_of(v: np.ndarray, eps_tail: float, zero_floor: float, verdicts) -> TailStats:
    """The TailStats of tail samples v from their one-column `verdict_arrays`."""
    codes, tail_max, tail_min, trend = verdicts
    return TailStats(
        values=v,
        eps_tail=eps_tail,
        zero_floor=zero_floor,
        tail_max=float(tail_max[0]),
        tail_min=float(tail_min[0]),
        tail_trend=float(trend[0]),
        limit_verdict=VERDICT_CODES[int(codes[0])],
    )


def _finite_norms(stack: np.ndarray, norms) -> np.ndarray:
    """norms(stack), or InputError when the stack or its norms are not finite.

    The one overflow rule of sampled families: values that overflow make
    every tail tolerance and verdict meaningless.  The caller holds
    errstate(over="ignore"), so an overflowing norm is refused quietly.
    """
    if np.isfinite(stack).all():
        out = norms(stack)
        if np.isfinite(out).all():
            return out
    raise InputError("family values overflow on the h-grid")


def _grid_eval(
    fam: OperatorFamily | VectorFamily, grid: HGrid, tail: bool
) -> tuple[np.ndarray, np.ndarray]:
    """F(h_k) and their norms over the grid tail (tail=True) or every sample.

    The family layer's one evaluation on an h-grid: the coefficient
    columns come from the grid (`HGrid.column`), and one errstate covers
    the term sum, the overflow rule (`_finite_norms`) and the norms.
    """
    columns = [grid.column(coeff, tail) for coeff, _ in fam.terms]
    with np.errstate(over="ignore"):
        stack = fam._sum(columns)
        return stack, _finite_norms(stack, fam._norms)


def norm_samples(fam: OperatorFamily | VectorFamily, grid: HGrid) -> np.ndarray:
    """||F(h_k)|| (or ||x(h_k)||) over the whole grid."""
    return _grid_eval(fam, grid, tail=False)[1]


class _Tail:
    """A family evaluated over the h-grid tail: what every tail test reads.

    mats are the tail values F(h) (the vectors x(h) of a vector family)
    and norms their norms.  `_tail_eval` shares one tail among all
    callers, so its arrays are read-only.

    The rest serves the scans of operator families and is computed on
    first use and kept, so a null or relation test pays for the values and
    their norms alone.  scale = max(1, tail limsup of the family norm)
    normalizes the scan tolerances.  The scan kernels work once per run of
    bitwise-equal tail matrices, the one rule of `linalg._run_starts`, read
    here and in `op_norms`: they fill one row per `distinct` index (a run's
    first) and `rows` hands those to the tail verdicts, so a constant
    family costs one matrix and one row.  `schur(i)` gives the complex
    Schur factors (T, Q), F(h) = Q T Q*, of a distinct matrix and
    `radius_bound` the `spectral_radius_bound`.
    """

    def __init__(self, mats: np.ndarray, norms: np.ndarray):
        mats.setflags(write=False)
        norms.setflags(write=False)
        self.mats = mats
        self.norms = norms
        self._schur: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @functools.cached_property
    def scale(self) -> float:
        return max(1.0, float(self.norms.max()))

    @functools.cached_property
    def _starts(self) -> np.ndarray:
        return linalg._run_starts(self.mats)

    @functools.cached_property
    def distinct(self) -> list[int]:
        return np.flatnonzero(self._starts).tolist()

    def schur(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        if i not in self._schur:
            factors = scipy.linalg.schur(self.mats[i], output="complex")
            self._schur[i] = tuple(map(_frozen, factors))
        return self._schur[i]

    @functools.cached_property
    def radius_bound(self) -> RadiusBound:
        return _radius_bound(self.mats)

    def rows(self, per_run: np.ndarray) -> np.ndarray:
        """A kernel's rows, one per run, as the tail verdicts take them.

        One row for a constant tail; otherwise one per tail matrix, gathered
        by its run index.
        """
        if len(per_run) in (1, len(self.mats)):
            return per_run
        return per_run[np.cumsum(self._starts) - 1]


def _tail_eval(fam: OperatorFamily | VectorFamily, grid: HGrid) -> _Tail:
    """The one evaluation of a family over an h-grid tail, kept in the family.

    Every tail test reads it.  A family whose tail values or norms
    overflow to a non-finite number is an input error (`_finite_norms`).
    """
    tail = fam._tails.get(grid)
    if tail is None:
        tail = fam._tails[grid] = _Tail(*_grid_eval(fam, grid, tail=True))
    return tail


@dataclass(frozen=True)
class RadiusBound:
    """Growth-rate bound for the family spectrum radius.

    value approximates limsup_n of (lim_h ||F(h)^n||)^(1/n) by the maximum
    root over the trailing orders; inner_verdicts carry the per-order tail
    verdicts of ||F(h)^n|| at h -> 0.
    """

    value: float
    roots: np.ndarray
    inner_verdicts: tuple[str, ...]

    def __post_init__(self):
        # Bounds are shared by every caller (see _Tail).
        self.roots.setflags(write=False)

    def __float__(self) -> float:
        return self.value


def _radius_bound(mats: np.ndarray) -> RadiusBound:
    """The bound from the tail matrices F(h) (see RADIUS_ORDERS)."""
    power = mats
    roots = np.empty(RADIUS_ORDERS)
    verdicts = []
    for n in range(1, RADIUS_ORDERS + 1):
        if n > 1:
            # Overflowing powers are caught by the finiteness tests below;
            # one with inf or nan entries has no SVD.
            with np.errstate(over="ignore", invalid="ignore"):
                power = power @ mats
        norms = op_norms(power) if np.isfinite(power).all() else np.array([np.inf])
        if not np.all(np.isfinite(norms)) or norms.max() > OVERFLOW_LIMIT:
            return RadiusBound(
                value=float("inf"),
                roots=np.full(RADIUS_ORDERS, np.inf),
                inner_verdicts=tuple(verdicts) + (UNBOUNDED,),
            )
        stats = tail_stats(norms)
        verdicts.append(stats.limit_verdict)
        roots[n - 1] = stats.tail_max ** (1.0 / n) if stats.tail_max > 0 else 0.0
    return RadiusBound(
        value=float(roots[-RADIUS_WINDOW:].max()),
        roots=roots,
        inner_verdicts=tuple(verdicts),
    )


def limsup_norm(fam: OperatorFamily | VectorFamily, grid: HGrid) -> float:
    """Tail maximum of ||F(h_k)||: the sampled stand-in for limsup at 0."""
    return float(_tail_eval(fam, grid).norms.max())


def _certified(stats: TailStats, cert: bool) -> TailStats:
    """Combine a norm-tail verdict with the family's decay certificate.

    ToZero requires both the sampled tail test and the decay certificate.
    A certified-null family whose tail did not vanish, or a certified
    non-null family whose tail did, is Inconclusive; a certified non-null
    family is otherwise BoundedPositive.
    """
    verdict = stats.limit_verdict
    if cert:
        if verdict == TO_ZERO:
            return replace(stats, note="certified null; tail test agrees")
        return replace(
            stats,
            limit_verdict=INCONCLUSIVE,
            note=f"certified null but tail verdict was {verdict}",
        )
    if verdict == TO_ZERO:
        return replace(
            stats,
            limit_verdict=INCONCLUSIVE,
            note="certificate says limit is positive but tail test saw decay",
        )
    return replace(
        stats,
        limit_verdict=BOUNDED_POSITIVE,
        note="certificate: non-null constant part persists",
    )


def is_null_family(fam: OperatorFamily | VectorFamily, grid: HGrid) -> TailStats:
    """Decide membership in the null ideal (norm -> 0 at h -> 0) by `_certified`.

    Operator and vector families go through the same rule.
    """
    return _certified(tail_stats(_tail_eval(fam, grid).norms), fam.null_certificate())


def asymptotically_equivalent(
    f: OperatorFamily, g: OperatorFamily, grid: HGrid
) -> TailStats:
    """Tail test for ||F(h) - G(h)|| -> 0."""
    f._check_dim(g)
    return is_null_family((f - g).canonical(), grid)


def commute_in_limit(f: OperatorFamily, g: OperatorFamily, grid: HGrid) -> TailStats:
    """Tail test for ||F(h)G(h) - G(h)F(h)|| -> 0."""
    f._check_dim(g)
    fs, gs = _tail_eval(f, grid).mats, _tail_eval(g, grid).mats
    with np.errstate(over="ignore", invalid="ignore"):
        commutators = fs @ gs - gs @ fs
        norms = _finite_norms(commutators, op_norms)
    return tail_stats(norms)


@dataclass(frozen=True)
class QuotientBounds:
    """Two-sided bracket for the quotient norm of a family's class.

    lower = tail limsup estimate of ||F(h)||; upper = sampled sup of the
    canonical representative with certified-null terms dropped.  The class
    infimum itself is not computable; these bounds sandwich it.
    """

    lower: float
    upper: float
    raw_upper: float


def quotient_norm_bounds(fam: OperatorFamily, grid: HGrid) -> QuotientBounds:
    norms = norm_samples(fam, grid)
    lower = float(norms[-grid.tail :].max())
    raw_upper = float(norms.max())
    upper = float(norm_samples(fam.drop_null_terms(), grid).max())
    if lower > upper + EPS_TAIL and lower > raw_upper:
        raise InvariantError("quotient bounds inverted beyond tolerance")
    return QuotientBounds(lower=lower, upper=upper, raw_upper=raw_upper)


def module_action(
    f: OperatorFamily, v: VectorFamily, grid: HGrid | None = None
) -> VectorFamily:
    """The product family h |-> F(h) x(h), expanded term by term.

    The coefficient catalog is closed under the products, so the result is
    again a finite-term family; on representatives the action satisfies
    limsup||F x|| <= limsup||F|| * limsup||x|| up to the tail tolerance,
    checked on the grid when one is given (an overflowing product there
    is an input error, as in `limsup_norm`).
    """
    if not (isinstance(f, OperatorFamily) and isinstance(v, VectorFamily)):
        raise InputError("module_action takes an operator family and a vector family")
    f._check_dim(v)
    # An overflowing product is refused below, once and without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        products = np.array([mat @ vec for _, mat in f.terms for _, vec in v.terms])
    if not np.isfinite(products).all():
        raise InputError("vector entries must be finite")
    coeffs = [cf * cv for cf, _ in f.terms for cv, _ in v.terms]
    out = v._with_terms(zip(coeffs, _frozen(products))).canonical()
    if grid is not None:
        left = limsup_norm(out, grid)
        f_lim = limsup_norm(f, grid)
        v_lim = limsup_norm(v, grid)
        if left > f_lim * v_lim + EPS_TAIL:
            raise InvariantError(
                f"module action bound violated: {left:.3e} > {f_lim:.3e} * {v_lim:.3e}"
            )
    return out


def _inner_limit_estimates(
    per_h: np.ndarray, zero_floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Estimate limsup_{h->0} of each column of sampled tail sequences.

    per_h has shape (tail, n).  Returns (estimates, at_floor, decays): a
    column estimates to 0 when its tail sits at the floor, or decays
    geometrically with a clean log-linear fit (the line of `_log10_fit`);
    otherwise to its tail max (conservative).
    """
    vmax = per_h.max(axis=0)
    at_floor = vmax <= zero_floor
    logs, means, slope = _log10_fit(per_h)
    fit = means + slope * _fit_steps(len(per_h))[0][:, None]
    fit_dev = np.abs(logs - fit).max(axis=0)
    decays = ~at_floor & (slope < DECAY_CERT_SLOPE) & (fit_dev <= DECAY_CERT_FIT)
    return np.where(at_floor | decays, 0.0, vmax), at_floor, decays


def asym_qn_equivalent(
    f: OperatorFamily,
    g: OperatorFamily,
    grid: HGrid,
) -> EquivalenceReport:
    """Asymptotic quasinilpotent equivalence test for two families.

    For each bracket order n the inner limsup over h is estimated from the
    tail samples (a tail that decays geometrically, or underflows, counts
    as 0: the limit in h is taken before the limit in n).  The n-th root
    sequence of the estimates then goes through the same root test as the
    single-operator case, in both operand orders.
    """
    f._check_dim(g)
    fs, gs = _tail_eval(f, grid).mats, _tail_eval(g, grid).mats
    norms = bracket_norms(np.stack([fs, gs]), np.stack([gs, fs]), N_MAX)
    reports = []
    for per_h, tag in zip(norms, ("F,G", "G,F")):
        # An overflowed order is an inf column: its estimate and root are
        # inf, and root_test makes it Inconclusive.
        with np.errstate(invalid="ignore"):
            sigmas, at_floor, decays = _inner_limit_estimates(per_h, ZERO_FLOOR)
        rep = root_test(_roots_from_norms(sigmas))
        reports.append(
            replace(
                rep,
                diagnostics=f"order ({tag}): {rep.diagnostics}; inner limits "
                f"{at_floor.sum()} at floor, {decays.sum()} decay-certified",
            )
        )
    return combine_order_reports(reports[0], reports[1])

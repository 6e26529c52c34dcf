"""Spectra and local spectra of h-parametrized operator families on C^d.

Core objects: operator/vector families built from a small catalog of
coefficient functions on (0, 1], geometric h-grids with tail-limit
verdicts, the binomial operator bracket with quasinilpotent-equivalence
tests, family spectra via tail invertibility scans, and exact local
spectra via contour-integral spectral projections.
"""

from .bracket import (
    BracketSeq,
    EquivalenceReport,
    bracket_binomials,
    bracket_norms,
    bracket_seq,
    brackets,
    qn_equivalent,
)
from .errors import (
    DegenerateSpectrumError,
    DimensionMismatchError,
    EigenConvergenceError,
    FileFormatError,
    InputError,
    InvariantError,
    OpfamError,
    PoleProximityError,
    PreconditionError,
    SingularMatrixError,
)
from .families import (
    BOUNDED_POSITIVE,
    INCONCLUSIVE,
    TO_ZERO,
    UNBOUNDED,
    CoeffFn,
    HGrid,
    OperatorFamily,
    QuotientBounds,
    TailStats,
    VectorFamily,
    asym_qn_equivalent,
    asymptotically_equivalent,
    commute_in_limit,
    is_null_family,
    limsup_norm,
    module_action,
    quotient_norm_bounds,
    tail_stats,
)
from .linalg import (
    SpectralCluster,
    SpectralDecomp,
    eigenvalues,
    op_norm,
    solve,
    spectral_decomp,
)
from .local import (
    LOCAL_RESOLVENT,
    LOCAL_SPECTRUM,
    LocalProbe,
    LocalSpectrumReport,
    MembershipAnswer,
    SvepReport,
    Witness,
    family_local_probe,
    family_local_spectrum_grid,
    local_extension_uniqueness_check,
    local_spectral_space_member,
    local_spectrum_exact,
    maximal_extension_eval,
    svep_falsification_probe,
)
from .regions import Disc, Empty, Rect, Region, Union, parse_region
from .spectra import (
    RESOLVENT,
    SPECTRUM,
    UNDETERMINED,
    RadiusBound,
    RegionGrid,
    ResolventProbe,
    class_invariance_check,
    compare_grids,
    family_spectrum_grid,
    probe_resolvent,
    resolvent_identity_residual,
    resolvent_uniqueness_residual,
    spectral_radius_bound,
    truncated_resolvent_family,
)
from .verify import ReportBundle, ScenarioConfig, run_suite

__version__ = "0.1.0"

"""Spectra of weighted rotation operators on spaces of analytic functions.

The operator under study is T = w U where (U x)(z) = x(alpha z) rotates
by a fixed angle and w is analytic multiplication.  ``classify`` maps a
(space, weight, rotation) triple to the spectrum, the approximate point
spectrum, the residual set, and the five essential spectra, each tagged
Exact, Bounds, or Unknown.  The ``oracle`` module carries independent
numerical cross checks, and the ``wro`` console script exposes both.
"""

from .analysis import (
    AnalysisError,
    ConvergenceError,
    InvertibilityProfile,
    WeightFacts,
    ZeroSet,
    factorization_summary,
    find_zeros,
    geometric_mean,
    invertibility_profile,
)
from .classify import (
    REPORT_KEYS,
    CircularSet,
    ClassifyError,
    Component,
    IndexEntry,
    SetReport,
    SpectrumReport,
    Status,
    circle,
    classify,
    closed_annulus,
    closed_disc,
    empty_set,
    open_annulus,
    open_disc,
    origin_set,
    point_spectrum_candidates,
    report_consistency,
    residual_index,
)
from .ergodic import (
    MembershipVerdict,
    OrbitProduct,
    ap_membership,
    group_rotation_radius,
    orbit_products,
    polynomial_radius_cases,
)
from .oracle import (
    OracleError,
    PseudospectrumGrid,
    RankResult,
    ResidualReport,
    TruncationMatrix,
    bloch_norm,
    build_truncation,
    check_smoothing_identity,
    monomial_norms,
    norm_asymptotics,
    pseudospectrum_scan,
    singular_sequence_residual,
    truncation_rank,
)
from .weights import (
    NAMED_ROTATIONS,
    RotationAngle,
    RotationVector,
    SpaceSpec,
    Weight,
    WeightError,
    boundary_sample_weight,
    boundary_values,
    evaluate,
    named_rotation,
    parse_rotation,
    parse_space,
    parse_weight,
    polynomial,
    rational,
    raw_radians,
    root_of_unity,
    rotation_payload,
    space_payload,
    taylor,
    taylor_coefficients,
    torus_polynomial,
    weight_at_origin,
    weight_payload,
)

__version__ = "0.1.0"

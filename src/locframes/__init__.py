"""Localized frames, coorbit norms, and frame-Galerkin discretization."""

from .algebras import (
    DecayFit,
    MatrixAlgebraSpec,
    decay_fit,
    jaffard_norm,
    schur_weighted_norm,
    weight_admissible,
)
from .errors import (
    BijectivityError,
    ConfigError,
    ContractError,
    DimensionMismatchError,
    DivergedError,
    InputFileError,
    InsufficientDataError,
    InvalidInputError,
    LocframesError,
    MetricMismatchError,
    NotAFrameError,
    NotLocalizedError,
)
from .frames import (
    Frame,
    FrameBounds,
    analysis,
    canonical_dual,
    frame_bounds,
    frame_operator,
    gaussian_window,
    gram,
    make_gabor_frame,
    make_onb,
    make_perturbed_onb,
    make_translates_frame,
    riesz_bounds,
    synthesis,
)
from .galerkin import (
    BoundCertificate,
    GalerkinMatrix,
    LinearOperator,
    bounded_equiv_check,
    compose_rule_check,
    galerkin_columns,
    galerkin_matrix,
    galerkin_pseudoinverse,
    idempotency_residual,
    kappa_factorization_probe,
    matrixrep_norm_bound,
    operator_from_matrix,
    operator_norm_bound,
    roundtrip_check,
    schur_certificate,
)
from .indexing import IndexSet
from .linalg import (
    generalized_condition_number,
    numerical_rank,
    pseudo_inverse,
)
from .localization import (
    CoorbitSpec,
    LocalizationReport,
    coorbit_inclusion,
    coorbit_norm,
    coorbit_pairing,
    dual_localization_check,
    equivalence_constants,
    localization_report,
    min_synthesis_norm,
    transitivity_check,
)
from .solver import (
    ProjectionSchedule,
    SolveReport,
    cg_solve,
    finite_section_solve,
    frame_galerkin_solve,
    make_test_operator,
    richardson_solve,
    subframe_projection,
)
from .weights import SeqSpaceSpec, Weight, dual_pairing, seq_norm, seq_space_included

__version__ = "0.1.0"

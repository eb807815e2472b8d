"""Finite-dimensional workbench for fusion frames and their weavings.

The package computes frame operators, optimal bounds, duals and
approximate duals, verifies Riesz and orthonormal fusion structure, and
checks weaving and operator-perturbation statements by exact enumeration,
an exact woven verdict past enumeration, and randomized property testing.
"""

from .errors import (
    AngleNotLessThanOne,
    DimensionMismatch,
    DualityLost,
    EnumerationTooLarge,
    FusionWeaveError,
    IndexOutOfRange,
    LengthMismatch,
    NonPositiveWeight,
    NonSymmetric,
    NonUniformWeights,
    NotAFrame,
    NotOrthonormalBasis,
    NotUnitary,
    ParseError,
    PartOutsideSubspace,
    SingularOperator,
    ZeroOperator,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    numerical_rank,
    operator_norm,
    orthonormal_columns,
    pinv,
    reduced_min_modulus,
    sym_eig_extremes,
)
from .subspaces import (
    Subspace,
    apply_operator,
    contains,
    friedrichs_cos,
    intersect,
    null_space,
    ortho_complement,
    projector,
    range_space,
    span_of,
    subspace_sum,
)
from .frames import (
    DiscreteFrame,
    FrameBounds,
    FusionFrame,
    WeightedSubspace,
    analysis,
    approx_dual_defect,
    canonical_dual,
    discrete_frame_bounds,
    enlarge_canonical_dual,
    frame_bounds,
    frame_bounds_on_span,
    frame_operator,
    is_dual,
    is_orthonormal_fusion_basis,
    is_riesz_basis,
    mixed_frame_operator,
    riesz_sequence_bounds,
    synthesis,
    to_discrete,
    transform_frame,
)
from .weaving import (
    ENUM_CAP,
    Assignment,
    RieszWeavingReport,
    TransformEnvelope,
    WeavingReport,
    WovenDecision,
    assignments,
    construct_biorthogonal_riesz,
    decide_woven,
    riesz_weaving_report,
    transform_frames,
    weave,
    weaving_report,
)
from .perturbation import (
    ModulusSandwich,
    Operator1Record,
    Per1Verdict,
    lemma_commute_residual,
    modulus_sandwich,
    operator1_check,
    partial_frame_operator,
    per1_conditions,
)
from .documents import (
    frame_from_dict,
    frame_to_dict,
    load_frame,
    load_operator,
    load_subspace,
    save_frame,
    save_operator,
)

__version__ = "0.1.0"

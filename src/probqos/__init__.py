"""probqos: probabilistic QoS contract checking and service selection.

A service's quality-of-service behavior is modeled as a joint probability
density over its attribute vector (a QoS profile); a client's requirement is
a Boolean combination of probability-bound constraints over polyhedral
regions. This package estimates the region probabilities by Monte Carlo
integration over bounded polytopes, settles the Boolean structure with a SAT
solver, learns profiles from execution records by kernel density estimation,
and selects satisfying services from a repository.
"""

from .broker import (
    BrokerError,
    SelectionResult,
    ServiceEntry,
    derive_service_seed,
    load_repository,
    select,
)
from .geometry import (
    Box,
    DimensionMismatchError,
    EmptyInteriorError,
    GeometryError,
    HPolytope,
    LPInfeasibleError,
    LPUnboundedError,
    UnboundedPolytopeError,
    analytic_center,
    estimate_volume,
    solve_lp,
)
from .integrate import (
    DEFAULT_SAMPLES,
    ConvergenceScan,
    IntegralEstimate,
    SchemaMismatchError,
    convergence_scan,
    integrate_uniform,
)
from .learning import (
    KDEProfile,
    LearningError,
    QoSRecordSet,
    bandwidth_scott,
    bandwidth_silverman,
    fit_kde_cv,
)
from .profiles import (
    AttributeSchema,
    CorrelatedTPRT,
    GammaMarginal,
    GaussianMarginal,
    IndependentProduct,
    Marginal,
    ProfileError,
    QoSProfile,
    UniformBox,
    UnsupportedProfileError,
    rectangle_probability,
)
from .reqast import QoSConstraint, RequirementError
from .requirements import (
    CheckReport,
    ConstraintResult,
    QoSRequirement,
    RequirementSyntaxError,
    evaluate_constraint,
    parse_region,
    parse_requirement,
    qos_check,
)
from .rng import RngStream
from .sampling import (
    ThinRegionError,
    dikin_walk,
    rejection_sample,
)
from .sat import dpll_sat
from .serialize import SerializationError, load_profile, profile_from_dict, profile_to_dict, save_profile

__version__ = "0.1.0"

__all__ = [
    "AttributeSchema",
    "Box",
    "BrokerError",
    "CheckReport",
    "ConstraintResult",
    "ConvergenceScan",
    "CorrelatedTPRT",
    "DEFAULT_SAMPLES",
    "DimensionMismatchError",
    "EmptyInteriorError",
    "GammaMarginal",
    "GaussianMarginal",
    "GeometryError",
    "HPolytope",
    "IndependentProduct",
    "IntegralEstimate",
    "KDEProfile",
    "LPInfeasibleError",
    "LPUnboundedError",
    "LearningError",
    "Marginal",
    "ProfileError",
    "QoSConstraint",
    "QoSProfile",
    "QoSRecordSet",
    "QoSRequirement",
    "RequirementError",
    "RequirementSyntaxError",
    "RngStream",
    "SchemaMismatchError",
    "SelectionResult",
    "SerializationError",
    "ServiceEntry",
    "ThinRegionError",
    "UnboundedPolytopeError",
    "UniformBox",
    "UnsupportedProfileError",
    "analytic_center",
    "bandwidth_scott",
    "bandwidth_silverman",
    "convergence_scan",
    "derive_service_seed",
    "dikin_walk",
    "dpll_sat",
    "estimate_volume",
    "evaluate_constraint",
    "fit_kde_cv",
    "integrate_uniform",
    "load_profile",
    "load_repository",
    "parse_region",
    "parse_requirement",
    "profile_from_dict",
    "profile_to_dict",
    "qos_check",
    "rectangle_probability",
    "rejection_sample",
    "save_profile",
    "select",
    "solve_lp",
]

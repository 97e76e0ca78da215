"""Numeric tensor calculus on first-order jet bundles.

The engine realizes the canonical linear connection of a metrical
multi-time geometry from expression-defined metric data, then verifies its
torsion, curvature, electromagnetic and gravitational identities at sampled
points.  Everything numeric runs through truncated Taylor (jet) arithmetic
with finite differences kept as an independent cross-check.
"""

from .diff_engine import (
    Jet,
    JetPoint,
    check_grad,
    eval_derivs,
    fd_partial,
    seed_point,
)
from .em_field import (
    DeflectionSet,
    EmSet,
    MaxwellReport,
    bianchi_residuals,
    deflection_identity_residuals,
    deflection_set,
    em_tensors,
    maxwell_residuals,
)
from .errors import (
    ConfigError,
    ContractMismatchError,
    DerivativeDomainError,
    EvalDomainError,
    FieldDomainError,
    FieldValidationError,
    JetlagError,
    NaturalFormUnavailableError,
    OrderExceededError,
    ParseError,
    RaiseLowerMismatchError,
    RegularityViolationError,
    SingularMetricError,
    TorsionPreconditionError,
    VacuumConstantError,
)
from .field_expr import (
    ExprField,
    ast_equal,
    eval_field,
    parse_field,
    render,
    validate_field,
)
from .geometry import (
    CartanCoefficients,
    ChristoffelOfPhi,
    CurvatureSet,
    DirectMetric,
    FromLagrangian,
    GeometryContext,
    QuadraticCanonical,
    RegularityVerdict,
    ResidualStats,
    RicciSet,
    ScalarSet,
    TorsionFreeVerdict,
    TorsionSet,
    UserGiven,
    cartan_connection,
    curvature_antisymmetry_residuals,
    curvature_set,
    kronecker_regularity_check,
    metricity_residuals,
    nlc_torsion_free_check,
    ricci_and_scalars,
    sample_points,
    spatial_nlc,
    temporal_christoffel_and_M,
    torsion_set,
)
from .gravity import (
    ConservationReport,
    EinsteinBlocks,
    NaturalFormReport,
    StressEnergySet,
    conservation_residuals,
    einstein_blocks,
    natural_form_checks,
    natural_stress_energy,
    stress_energy_extract,
)
from .spaces import (
    OpticContext,
    QuadraticContext,
    build_space,
    make_conformal,
    make_flat,
    make_optic,
    make_quadratic,
    optic_inverse_closed,
    quadratic_lagrangian,
    space_names,
)
from .tensor_core import (
    DTensor,
    IndexSlot,
    S_DN,
    S_UP,
    T_DN,
    T_UP,
    V_DN,
    V_UP,
    bind_vertical,
    contract,
    raise_lower,
    split_vertical,
    sym_inverse,
)

__version__ = "0.1.0"

"""Rigidity analysis of bar and tensegrity frameworks."""

from .continuation import (
    ContinuationError,
    DeformationStep,
    EpsilonRigidityResult,
    Homotopy,
    MultiPoly,
    PathBudgetError,
    PolySystem,
    TrackResult,
    deform_framework,
    epsilon_rigidity_check,
    pinned_member_system,
    solve_total_degree,
    track_path,
    track_paths,
)
from .framework import (
    Configuration,
    FrameworkError,
    FrameworkGraph,
    MemberConstraintSystem,
    build_constraints,
    evaluate_members,
    load_fixture,
    load_framework,
)
from .prestress import (
    PrestressCertificate,
    prestress_certificate,
    self_stress_basis,
    stiffness_and_energy,
    stress_matrix,
)
from .rigidity import (
    NullspaceDecomposition,
    RigidityMatrices,
    RigidityReport,
    incidence_matrix,
    jacobian_at,
    laplacian_eigenpairs,
    numerical_nullspace,
    nullspace_decomposition,
    pin_moving_frame,
    rigid_motion_basis,
    rigidity_and_incidence,
    rigidity_report,
)
from .symbolic import (
    GroebnerBasis,
    PairBudgetError,
    RationalPoly,
    SymbolicError,
    buchberger,
    normal_form_reduce,
    ring_variables,
    symbolic_minors,
    verify_containment,
)

__version__ = "0.1.0"

__all__ = [
    "ContinuationError", "DeformationStep", "EpsilonRigidityResult",
    "Homotopy", "MultiPoly", "PathBudgetError", "PolySystem", "TrackResult",
    "deform_framework", "epsilon_rigidity_check", "pinned_member_system",
    "solve_total_degree", "track_path", "track_paths", "Configuration",
    "FrameworkError",
    "FrameworkGraph", "MemberConstraintSystem", "build_constraints",
    "evaluate_members", "load_fixture", "load_framework",
    "PrestressCertificate", "prestress_certificate", "self_stress_basis",
    "stiffness_and_energy", "stress_matrix", "NullspaceDecomposition",
    "RigidityMatrices",
    "RigidityReport", "incidence_matrix", "jacobian_at",
    "laplacian_eigenpairs", "numerical_nullspace", "nullspace_decomposition",
    "pin_moving_frame", "rigid_motion_basis", "rigidity_and_incidence",
    "rigidity_report", "GroebnerBasis", "PairBudgetError", "RationalPoly",
    "SymbolicError", "buchberger", "normal_form_reduce", "ring_variables",
    "symbolic_minors", "verify_containment", "__version__",
]

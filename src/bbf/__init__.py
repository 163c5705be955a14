"""Exact-arithmetic lattice geometry for hyperkahler period domains.

The package decides period-image membership, computes wall-and-chamber
data in hyperbolic lattices, and runs twistor/fiber experiments, all over
exact rational arithmetic.
"""
from .catalog import (
    CatalogError,
    CheckResult,
    DeformationTypeSpec,
    builtin_catalog,
    load_catalog,
    load_entry,
    serialize_catalog,
    validate_entry,
)
from .enumeration import (
    ChamberMembership,
    NormTargetSet,
    OnWallError,
    WallReport,
    chamber_membership,
    enumerate_vectors_of_norm,
    mbm_candidates_in_complement,
    same_kahler_chamber,
    separating_walls,
    wall_classes_through,
)
from .lattice import (
    BBFLattice,
    DegenerateGram,
    Definiteness,
    DimensionMismatch,
    InvariantViolation,
    LatticeError,
    OrientationRelation,
    OrientedPositiveSubspace,
    PeriodLine,
    PeriodLineBasis,
    SignatureError,
    definiteness,
    diagonal_matrix,
    direct_sum,
    e8_matrix,
    fujiki_product,
    hyperbolic_plane,
    k3_matrix,
    orientation_relation,
    period_line_to_plane,
    plane_to_period_line,
)
from .periods import (
    ConnectivityReport,
    FiberPoint,
    FiberSample,
    HKTripleClasses,
    PeriodImageResult,
    TwistorDirection,
    TwistorFiber,
    fiber_connectivity_experiment,
    forgetful_map,
    hk_equivalence,
    in_hk_period_image,
    in_symplectic_period_image,
    sample_fiber,
    twistor_member,
)

__version__ = "0.1.0"

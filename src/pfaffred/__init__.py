"""Exact-arithmetic toolkit for completely integrable Pfaffian systems
with normal crossings in two variables: Moser-based rank reduction,
exponential parts, Katz invariants, true Poincare rank, and the data of a
fundamental matrix of formal solutions."""

from .errors import (
    AlgebraicExtensionRequired,
    DimensionMismatch,
    IntegrabilityViolation,
    InvariantViolation,
    JointResonance,
    NotSplittable,
    ParseError,
    PfaffredError,
    PreconditionViolated,
    ReductionError,
    SingularMatrix,
    TruncationExhausted,
    ZeroConstantTerm,
)
from .series import BiSeries
from .matrices import LaurentMatrix, SeriesMatrix
from .system import (
    GaugeTransform,
    PfaffianSystem,
    apply_gauge,
    check_compatible,
    check_integrability,
    require_integrable,
)
from .moser import (
    ReductionReport,
    ThetaPolynomial,
    column_reduce_leading,
    moser_rank,
    rank_reduce,
    reduce_subsystem_step,
    shearing_matrix,
    theta_poly,
)
from .ods import (
    ExponentialPart,
    associated_ods,
    exponential_parts_ods,
    first_kind_fundamental_ods,
    katz_invariant_ods,
    ramify_ods,
)
from .solutions import (
    SolutionData,
    bivariate_shift,
    bivariate_splitting,
    exponential_parts,
    formal_fundamental,
    katz_pair,
    regular_fundamental,
    true_poincare_rank,
    verify_solution,
)
from .io import parse_system, serialize_system

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"

"""Exact reduction of integrable Pfaffian systems with normal crossings."""

from .errors import (
    ColumnModuleNotFree,
    DimensionError,
    FieldExtensionError,
    InputError,
    NonIntegrableError,
    NotInvertibleError,
    NotUnitError,
    PfaffError,
    ReductionError,
    ResonanceError,
    TruncationInsufficient,
)
from .docio import (
    generate_equivalent,
    parse_solution,
    parse_system,
    serialize_solution,
    serialize_system,
)
from .driver import (
    FormalSolution,
    ReductionTrace,
    fmfs,
    regular_endgame,
    verify_solution,
)
from .invariants import (
    exponential_order,
    exponential_parts,
    true_poincare_rank,
)
from .linalg import ConstMatrix, SeriesMatrix
from .reduction import (
    build_shearing,
    column_reduce,
    eigen_shift,
    integral_cofactors,
    katz_order_univariate,
    ramify_system,
    rank_reduce,
    split,
)
from .scalars import QQ, FieldTower, MinimalPolynomial, Scalar
from .series import INF, Series
from .system import (
    GaugeTransformation,
    IntegrabilityReport,
    PfaffianSystem,
    apply_gauge,
    check_integrability,
    normalize_poincare,
)

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "INF",
    "ColumnModuleNotFree",
    "ConstMatrix",
    "DimensionError",
    "FieldExtensionError",
    "FormalSolution",
    "FieldTower",
    "GaugeTransformation",
    "InputError",
    "IntegrabilityReport",
    "MinimalPolynomial",
    "NonIntegrableError",
    "NotInvertibleError",
    "NotUnitError",
    "PfaffError",
    "PfaffianSystem",
    "ReductionError",
    "ReductionTrace",
    "ResonanceError",
    "Scalar",
    "Series",
    "SeriesMatrix",
    "TruncationInsufficient",
    "apply_gauge",
    "build_shearing",
    "check_integrability",
    "column_reduce",
    "eigen_shift",
    "exponential_order",
    "exponential_parts",
    "fmfs",
    "generate_equivalent",
    "integral_cofactors",
    "katz_order_univariate",
    "true_poincare_rank",
    "normalize_poincare",
    "parse_solution",
    "parse_system",
    "ramify_system",
    "rank_reduce",
    "regular_endgame",
    "serialize_solution",
    "serialize_system",
    "split",
    "verify_solution",
    "__version__",
]

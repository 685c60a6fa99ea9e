"""Linear and Newton solvers over finite-dimensional associative algebras.

The quaternions are the flagship instance, but any associative unital algebra
given by structure constants works.  Systems  sum_s a_s x^j b_s = c  are
solved two independent ways (field-level vectorization and the enlarged
algebra-valued system with noncommutative elimination), and nonlinear
equations f(x) = a by Newton's method with tensor-valued derivatives.
"""

from .algebra import (
    FLOAT,
    RATIONAL,
    Algebra,
    Element,
    algebra_from_json,
    element_from_json,
    element_to_json,
    make_algebra,
    quaternion_algebra,
)
from .errors import (
    AlgebraError,
    AlgebraMismatch,
    DegreeLimitExceeded,
    EquationSyntaxError,
    NonAssociative,
    NonlinearTerm,
    NotInvertible,
    PivotNotInvertible,
    SingularTensor,
    UnitLawViolation,
    UnknownSymbol,
)
from .linalg import (
    INCONSISTENT,
    PARAMETRIC,
    UNIQUE,
    UNVERIFIED_ENLARGED,
    FieldMatrix,
    SolutionSet,
    rank,
    row_reduce,
)
from .newton import (
    BIT_BUDGET,
    CONVERGED,
    DIVERGED,
    MAX_ITERATIONS,
    SINGULAR_DERIVATIVE,
    GeneralizedPolynomial,
    NewtonConfig,
    NewtonTrace,
    newton_solve,
)
from .parser import (
    collect_unknowns,
    evaluate_constant,
    format_element,
    normalize_linear,
    normalize_poly,
    parse_equation,
    parse_expression,
)
from .solvers import (
    AlgebraSolution,
    RichardsonSystem,
    SylvesterSystem,
    build_richardson,
    nc_row_reduce,
    solve_field,
    solve_richardson,
)
from .tensor import TensorOp, tensor_from_pairs

__version__ = "0.1.0"

__all__ = [
    "FLOAT",
    "RATIONAL",
    "Algebra",
    "Element",
    "algebra_from_json",
    "element_from_json",
    "element_to_json",
    "make_algebra",
    "quaternion_algebra",
    "AlgebraError",
    "AlgebraMismatch",
    "DegreeLimitExceeded",
    "EquationSyntaxError",
    "NonAssociative",
    "NonlinearTerm",
    "NotInvertible",
    "PivotNotInvertible",
    "SingularTensor",
    "UnitLawViolation",
    "UnknownSymbol",
    "INCONSISTENT",
    "PARAMETRIC",
    "UNIQUE",
    "UNVERIFIED_ENLARGED",
    "FieldMatrix",
    "SolutionSet",
    "rank",
    "row_reduce",
    "BIT_BUDGET",
    "CONVERGED",
    "DIVERGED",
    "MAX_ITERATIONS",
    "SINGULAR_DERIVATIVE",
    "GeneralizedPolynomial",
    "NewtonConfig",
    "NewtonTrace",
    "newton_solve",
    "collect_unknowns",
    "evaluate_constant",
    "format_element",
    "normalize_linear",
    "normalize_poly",
    "parse_equation",
    "parse_expression",
    "AlgebraSolution",
    "RichardsonSystem",
    "SylvesterSystem",
    "build_richardson",
    "nc_row_reduce",
    "solve_field",
    "solve_richardson",
    "TensorOp",
    "tensor_from_pairs",
]

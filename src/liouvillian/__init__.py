"""Exact decision procedures for liouvillian solutions of first-order ODEs.

The package answers, over exact rational arithmetic, whether equations of the
shapes ``y' = R(y)``, ``(y')^2 = P(y)`` and ``y' = a_n*y^n + ... + a_2*y^2 +
a_1*y`` admit non-constant liouvillian solutions, and emits machine-checkable
witnesses or impossibility certificates.
"""

from .algebra import (InternalInconsistencyError, Poly, RatFunc,
                      ResourceLimitError)
from .decision import (decide_abel, decide_autonomous, decide_square,
                       degree_bound_check, log_derivative_of_algebraic)
from .parser import ParseError, parse_expression, parse_polynomial, render
from .reduction import (hermite_reduce, log_derivative_up_to_constant,
                        rational_antiderivative)
from .verify import verify_autonomous_witness, verify_square_witness

__version__ = "0.1.0"

__all__ = [
    "InternalInconsistencyError",
    "ParseError",
    "Poly",
    "RatFunc",
    "ResourceLimitError",
    "decide_abel",
    "decide_autonomous",
    "decide_square",
    "degree_bound_check",
    "hermite_reduce",
    "log_derivative_of_algebraic",
    "log_derivative_up_to_constant",
    "parse_expression",
    "parse_polynomial",
    "rational_antiderivative",
    "render",
    "verify_autonomous_witness",
    "verify_square_witness",
    "__version__",
]

"""Closed-form inverse Z-transforms of rational functions.

The main pipeline factors the denominator over the reals, expands into
partial fractions, and maps each term to an explicit sequence formula.
Independent series oracles (long division, complex partial fractions of
X(z)/z, the recursive-coefficient scheme, and residue sums) cross-validate
every result.
"""

from .closedform import (
    ClosedFormExpr,
    Impulse,
    QuadPole,
    RealPole,
    SequenceTable,
    eval_sequence,
    invert,
    invert_expression,
    render,
)
from .errors import (
    ConjugateSymmetryError,
    FactorizationError,
    ParseError,
    RootFindingError,
    ZinvError,
)
from .factorize import (
    FactoredDenominator,
    LinearFactor,
    QuadraticFactor,
    cluster_and_pair,
    factor_denominator,
    find_roots,
)
from .identities import (
    binomial_general,
    falling_factorial,
    internal_summation_holds,
    pair_convolution_series,
    surjection_count,
)
from .oracles import (
    ComparisonReport,
    compare_methods,
    juric_series,
    longdiv_series,
    moreira_series,
    residue_value,
)
from .parser import batch_expressions, parse_rational_expr
from .pfe import (
    RationalFunction,
    complex_pfe_over_z,
    real_pfe,
)
from .polynomial import Polynomial

__version__ = "0.1.0"

__all__ = [
    "ClosedFormExpr",
    "ComparisonReport",
    "ConjugateSymmetryError",
    "FactoredDenominator",
    "FactorizationError",
    "Impulse",
    "LinearFactor",
    "ParseError",
    "Polynomial",
    "QuadPole",
    "QuadraticFactor",
    "RationalFunction",
    "RealPole",
    "RootFindingError",
    "SequenceTable",
    "ZinvError",
    "batch_expressions",
    "binomial_general",
    "cluster_and_pair",
    "compare_methods",
    "complex_pfe_over_z",
    "eval_sequence",
    "factor_denominator",
    "falling_factorial",
    "find_roots",
    "internal_summation_holds",
    "invert",
    "invert_expression",
    "juric_series",
    "longdiv_series",
    "moreira_series",
    "pair_convolution_series",
    "parse_rational_expr",
    "real_pfe",
    "render",
    "residue_value",
    "surjection_count",
    "__version__",
]

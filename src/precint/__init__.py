"""Exact integral bases for P-recursive (shift) operators.

The package computes, over exact rational and number-field arithmetic,
local and global integral bases of the quotient module C(x)[S]/<L> of a
linear recurrence operator L, together with independent brute-force
verification of every result.
"""

from .errors import (
    MissingRightBoundError,
    ParseError,
    PrecintError,
    SingularTransitionError,
)
from .fields import (
    INFINITY,
    AlgebraicPoint,
    NFElem,
    NumberField,
    Poly,
    RationalFunction,
    factor,
    galois_norm_uniformizer,
    galois_trace_sum,
    is_irreducible,
    nu_at_factor,
    nu_infinity,
)
from .qvalues import PrecisionLoss, QSeries, nu_q, q_series, shifted_series
from .ore import (
    OreOperator,
    QuotientElement,
    SolutionBasis,
    apply_element_all,
    default_anchor,
    reduce_mod,
)
from .valuation import (
    OrbitAnalysis,
    singular_points,
    val_at,
)
from .integral import (
    BasisMatrix,
    GlobalRun,
    ShiftSpace,
    ToySpace,
    global_integral_basis,
    local_integral_basis,
)
from .verify import (
    CertificateReport,
    RandomOperatorSpec,
    brute_val,
    certificate,
    module_equal_at,
    random_operator,
    random_operators,
)
from .exprs import (
    element_str,
    operator_str,
    parse_element,
    parse_operator,
    parse_orbit,
    parse_point,
    poly_str,
    rf_str,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicPoint",
    "BasisMatrix",
    "CertificateReport",
    "GlobalRun",
    "INFINITY",
    "MissingRightBoundError",
    "NFElem",
    "NumberField",
    "OrbitAnalysis",
    "OreOperator",
    "ParseError",
    "Poly",
    "PrecintError",
    "PrecisionLoss",
    "QSeries",
    "QuotientElement",
    "RationalFunction",
    "RandomOperatorSpec",
    "ShiftSpace",
    "SingularTransitionError",
    "SolutionBasis",
    "ToySpace",
    "apply_element_all",
    "brute_val",
    "certificate",
    "default_anchor",
    "element_str",
    "factor",
    "galois_norm_uniformizer",
    "galois_trace_sum",
    "global_integral_basis",
    "is_irreducible",
    "local_integral_basis",
    "module_equal_at",
    "nu_at_factor",
    "nu_infinity",
    "nu_q",
    "operator_str",
    "parse_element",
    "parse_operator",
    "parse_orbit",
    "parse_point",
    "poly_str",
    "q_series",
    "random_operator",
    "random_operators",
    "reduce_mod",
    "rf_str",
    "shifted_series",
    "singular_points",
    "val_at",
]

"""Exact Kolchin polynomial computations for differential algebra.

The package covers numerical polynomials in the binomial basis, exponent
set combinatorics, worst-case regularity and comparison bounds, the
canonical orderly ranking, and two independent pipelines for the Kolchin
polynomial of a linear constant-coefficient differential system.
"""

from .errors import (
    AmbientMismatch,
    DiffdimError,
    InputNotNumericalPolynomial,
    ParseError,
    ResourceLimit,
)
from .numpoly import (
    EQUAL,
    GREATER,
    LESS,
    NumericalPolynomial,
    compare_eventual,
    from_json_dict,
    interpolate,
    render,
    to_json_dict,
)
from .expsets import (
    ExponentSet,
    dimension_polynomial,
    minimal_elements,
    parse_exponent_set,
    stabilisation_level,
    stability_bound,
    volume,
    volume_ie,
)
from .bounds import (
    BoundReport,
    ackermann,
    bound_report,
    char_order_bound,
    regularity_bound,
)
from .diffrank import (
    DifferentialMonomial,
    LeaderProfile,
    compare_rank,
    kolchin_from_leaders,
    parse_leader_profile,
    parse_monomial,
)
from .lindiff import (
    LinearDiffSystem,
    LinearEquation,
    kolchin_polynomial,
    kolchin_via_prolongation,
    leader_profile,
    module_groebner,
    omega_at_least,
    omega_equals,
    parse_system,
    prolongation_dimension,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatch",
    "BoundReport",
    "DiffdimError",
    "DifferentialMonomial",
    "EQUAL",
    "ExponentSet",
    "GREATER",
    "InputNotNumericalPolynomial",
    "LeaderProfile",
    "LESS",
    "LinearDiffSystem",
    "LinearEquation",
    "NumericalPolynomial",
    "ParseError",
    "ResourceLimit",
    "ackermann",
    "bound_report",
    "char_order_bound",
    "compare_eventual",
    "compare_rank",
    "dimension_polynomial",
    "from_json_dict",
    "interpolate",
    "kolchin_from_leaders",
    "kolchin_polynomial",
    "kolchin_via_prolongation",
    "leader_profile",
    "minimal_elements",
    "module_groebner",
    "omega_at_least",
    "omega_equals",
    "parse_exponent_set",
    "parse_leader_profile",
    "parse_monomial",
    "parse_system",
    "prolongation_dimension",
    "regularity_bound",
    "render",
    "stabilisation_level",
    "stability_bound",
    "to_json_dict",
    "volume",
    "volume_ie",
]

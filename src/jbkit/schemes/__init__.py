"""Polynomial side: exact commutative algebra for affine hypersurfaces.

Rational-coefficient polynomials with reduced bases of ideals, free
resolutions and their endomorphism algebras, tangent complexes with the
attendant numerical invariants, and deformation of an equation with
gauge gluing and order-by-order lifting.
"""

from .poly import Poly, parse_poly
from .groebner import (
    buchberger,
    ideal_member,
    normal_form,
    quotient_dimension,
    standard_monomials,
)
from .complexes import PolyComplex, koszul_resolution
from .normal import HomDgla, HomElement, kappa
from .tangent import (
    TangentComplex,
    ci_t1_dimension,
    hypersurface_tangent_dgla,
    milnor_dim,
    milnor_number,
    truncated_module_quotient_dim,
)
from .deform import (
    GlueGauge,
    KSCochain,
    LiftReport,
    TruncPoly,
    compose_gauges,
    deformed_square_defects,
    gauge_triple_check,
    glue_check,
    ks_cochain,
    lift_deformation,
    milnor_quotient_dgla,
    package_one_chart,
)

__all__ = [
    "Poly",
    "parse_poly",
    "buchberger",
    "ideal_member",
    "normal_form",
    "quotient_dimension",
    "standard_monomials",
    "PolyComplex",
    "koszul_resolution",
    "HomDgla",
    "HomElement",
    "kappa",
    "TangentComplex",
    "ci_t1_dimension",
    "hypersurface_tangent_dgla",
    "milnor_dim",
    "milnor_number",
    "truncated_module_quotient_dim",
    "GlueGauge",
    "KSCochain",
    "LiftReport",
    "TruncPoly",
    "compose_gauges",
    "deformed_square_defects",
    "gauge_triple_check",
    "glue_check",
    "ks_cochain",
    "lift_deformation",
    "milnor_quotient_dgla",
    "package_one_chart",
]

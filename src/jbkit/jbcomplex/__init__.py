"""Semi-simplicial Lie algebra gluing data and the associated complexes."""

from .sela import Sela, TotalComplex, coface_sign
from .assemble import (
    JBComplex,
    jb_assemble,
    verify_d_squared,
    graded_pieces,
    jb_cohomology,
    deformation_ring_dimension,
    euler_characteristic_check,
    induced_chain_map,
)
from .cocycle import (
    SpecialCocycle,
    special_cocycle,
    verify_cocycle,
    coboundary_gluing,
    bernoulli_transport,
)
from .obstruct import ObstructionResult, obstruction
from . import factories

__all__ = [
    "Sela",
    "TotalComplex",
    "coface_sign",
    "JBComplex",
    "jb_assemble",
    "verify_d_squared",
    "graded_pieces",
    "jb_cohomology",
    "deformation_ring_dimension",
    "euler_characteristic_check",
    "induced_chain_map",
    "SpecialCocycle",
    "special_cocycle",
    "verify_cocycle",
    "coboundary_gluing",
    "bernoulli_transport",
    "ObstructionResult",
    "obstruction",
    "factories",
]

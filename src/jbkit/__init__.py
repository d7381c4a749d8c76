"""Exact tools for glued deformation problems.

Bernoulli numbers and the bracket composition series, free Lie algebras
on a Lyndon basis, differential graded Lie algebras spread over the
simplices of a cover with the resulting cochain complexes and extension
obstructions, and the polynomial side: resolutions, tangent complexes
and order-by-order lifting for affine hypersurfaces.  All arithmetic is
exact over the rationals.
"""

from .exactnum import (
    SparseRatMatrix,
    bernoulli,
    bernoulli_normalized,
    format_rational,
    parse_rational,
)
from .freelie import Alphabet, FreeLieElement, lyndon_basis, lyndon_words
from .bch import (
    BchTable,
    build_table,
    eval_bch,
)
from .liecore import ArtinLine, LieElement, StructLie, exp_conjugate
from . import jbcomplex, schemes

__version__ = "0.1.0"

__all__ = [
    "SparseRatMatrix",
    "bernoulli",
    "bernoulli_normalized",
    "format_rational",
    "parse_rational",
    "Alphabet",
    "FreeLieElement",
    "lyndon_basis",
    "lyndon_words",
    "BchTable",
    "build_table",
    "eval_bch",
    "ArtinLine",
    "LieElement",
    "StructLie",
    "exp_conjugate",
    "jbcomplex",
    "schemes",
    "__version__",
]

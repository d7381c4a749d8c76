"""First-order deformation data of an affine hypersurface.

The three-term complex puts ambient vector fields in degree -1, pairs
(vector field, endomorphism coefficient) in degree 0 and the coordinate
ring in degree 1.  Its middle cohomology is the coordinate ring modulo
(f and all partials), which is finite-dimensional exactly when the
singular points are isolated; that dimension is the headline number
here.  Degree 0 and 2 cohomology over a polynomial ring is infinite in
general, so only rank data truncated by total degree is exposed.

The printed sources disagree on the first map's sign; v -> (f*v, -v(f))
composes to zero on the nose and leaves the middle cohomology unchanged,
so that is the map built here.

Every truncated count is the rank of one window matrix, built by
_window_rank: multiples of polynomial vectors by monomials up to a cap.
"""

from __future__ import annotations

from itertools import product as iter_product

from ..exactnum import SparseRatMatrix, rank
from .complexes import PolyComplex
from .groebner import buchberger, quotient_dimension
from .poly import Poly

__all__ = [
    "TangentComplex",
    "hypersurface_tangent_dgla",
    "milnor_dim",
    "milnor_number",
    "truncated_module_quotient_dim",
    "ci_t1_dimension",
]


class TangentComplex:
    """Three-term complex of a hypersurface with its cohomology ideal."""

    __slots__ = ("f", "complex", "ideal_gens")

    def __init__(self, f, complex, ideal_gens):
        self.f = f
        self.complex = complex
        self.ideal_gens = ideal_gens

    def h1_ideal(self):
        """Reduced basis of the ideal presenting the middle cohomology."""
        return buchberger(self.ideal_gens)

    def h1_dimension(self):
        return quotient_dimension(self.h1_ideal())

    def truncated_ranks(self, cap):
        """Rank of each differential restricted to coefficient degree <= cap."""
        if cap < 0:
            raise ValueError("window cap %d is negative" % cap)
        vars = self.complex.vars
        return {
            d: _window_rank(vars, [(col, cap) for col in zip(*self.complex.matrix(d))])
            for d in list(self.complex.degrees())[:-1]
        }

    def truncated_h1(self, cap):
        """Windowed count of the middle cohomology.

        Dimension of the coefficient-degree <= cap slice of the ring
        modulo in-window multiples of the ideal generators.  It is not
        monotone in the cap and can stay level before it falls: for
        x*y*z + x^4 + y^4 + z^4 the counts at caps 0..8 read 1, 4, 10,
        17, 22, 22, 17, 10, 10, and h1_dimension is 10.  h1_dimension is
        the exact count.
        """
        return truncated_module_quotient_dim(
            self.complex.vars, 1, [(g,) for g in self.ideal_gens], cap
        )


def hypersurface_tangent_dgla(f: Poly) -> TangentComplex:
    """The complex fields -> fields + coefficient -> ring for one equation."""
    if f.is_zero() or f.is_constant():
        raise ValueError("the equation must be nonconstant")
    vars = f.vars
    n = len(vars)
    partials = [f.diff(v) for v in vars]
    zero = Poly.zero(vars)
    low = [
        [f if r == c else zero for c in range(n)] for r in range(n)
    ] + [[-p for p in partials]]
    high = [list(partials) + [f]]
    complex = PolyComplex(vars, -1, (n, n + 1, 1), [low, high])
    return TangentComplex(f, complex, [f] + partials)


def milnor_dim(f: Poly) -> int:
    """Dimension of Q[x]/(f, df/dx_1, ..., df/dx_n), a global quotient.

    It is the sum of the local Tjurina numbers over the complex singular
    points of the hypersurface f = 0.  For quasi-homogeneous f, as for
    every row of the bundled table, the origin is the only one and the
    Tjurina number there equals the Milnor number.  Not in general: for
    x^4 + y^5 + x^2*y^3 it is 11, the Tjurina number of the W12
    singularity at the origin, whose Milnor number is 12.
    """
    return _isolated_quotient_dim([f] + [f.diff(v) for v in f.vars])


def milnor_number(f: Poly) -> int:
    """Dimension of Q[x]/(df/dx_1, ..., df/dx_n), a global quotient.

    It is the sum of the local Milnor numbers over all complex critical
    points of f, which may lie off the hypersurface f = 0, so it is the
    Milnor number at the origin only when f has no other critical point
    (as for quasi-homogeneous f).  For x^4 + y^5 + x^2*y^3 it is 14: 12
    at the origin plus two nondegenerate critical points elsewhere.  At
    least ``milnor_dim(f)``, since (df) lies inside (f, df).
    """
    return _isolated_quotient_dim([f.diff(v) for v in f.vars])


def _isolated_quotient_dim(gens) -> int:
    """Dimension of the quotient by the ideal of gens, which must be finite."""
    gb = buchberger(gens)
    try:
        return quotient_dimension(gb)
    except ValueError as e:
        raise ValueError("singular locus is not isolated: %s" % e) from None


# -- truncated linear algebra ----------------------------------------------


def _monomials(vars, cap):
    n = len(vars)
    out = [
        e
        for e in iter_product(*(range(cap + 1) for _ in range(n)))
        if sum(e) <= cap
    ]
    out.sort()
    return out


def _degree(vec):
    return max((p.total_degree() for p in vec if not p.is_zero()), default=0)


def _window_rank(vars, columns):
    """Rank of the multiples m*v with deg m <= cap, over the (v, cap) columns.

    v is a tuple of polynomials, one per slot of a free module.  Columns
    run over the (v, cap) pairs in order, then over m in sorted exponent
    order; rows are the (slot, exponent) pairs up to the largest degree
    reached, sorted.
    """
    monos = _monomials(vars, max((cap + _degree(v) for v, cap in columns), default=0))
    index = {e: i for i, e in enumerate(monos)}
    shifts = [_monomials(vars, cap) for _, cap in columns]
    slots = max((len(v) for v, _ in columns), default=0)
    m = SparseRatMatrix(slots * len(monos), sum(map(len, shifts)))
    c = 0
    for (vec, _), caps in zip(columns, shifts):
        for shift in caps:
            for slot, p in enumerate(vec):
                for pe, pc in p.terms.items():
                    m[slot * len(monos) + index[tuple(a + b for a, b in zip(pe, shift))], c] = pc
            c += 1
    return rank(m)


def truncated_module_quotient_dim(vars, rank_count, vectors, cap):
    """Dimension of (free module of that rank) / (span of vector multiples),
    windowed at coefficient degree <= cap.

    Only multiples that stay inside the window enter the span.  The
    count is neither monotone in the cap nor a bound on the true quotient
    dimension: TangentComplex.truncated_h1 gives an example.
    """
    if cap < 0:
        raise ValueError("window cap %d is negative" % cap)
    columns = [(vec, cap - _degree(vec)) for vec in vectors]
    return rank_count * len(_monomials(vars, cap)) - _window_rank(vars, columns)


def ci_t1_dimension(fs, cap=8):
    """First cohomology of the tangent data of a complete intersection.

    The module is rank len(fs) over the ring, cut down by the Jacobian
    columns and by the equations acting on each slot.  One equation gives
    the exact count hypersurface_tangent_dgla(f).h1_dimension(), and cap
    is unused.  Several equations are counted in windows: equal counts at
    caps cap-1 and cap are taken as the dimension, which is no proof,
    since a window count can stay level before it falls (see
    TangentComplex.truncated_h1).  Raises when the two counts differ.
    """
    fs = list(fs)
    if len(fs) == 1:
        return hypersurface_tangent_dgla(fs[0]).h1_dimension()
    vars = fs[0].vars
    zero = Poly.zero(vars)
    c = len(fs)
    vectors = []
    for v in vars:
        vectors.append(tuple(f.diff(v) for f in fs))
    for k, f in enumerate(fs):
        for slot in range(c):
            vectors.append(tuple(f if s == slot else zero for s in range(c)))
    d1 = truncated_module_quotient_dim(vars, c, vectors, cap - 1)
    d2 = truncated_module_quotient_dim(vars, c, vectors, cap)
    if d1 != d2:
        raise ValueError(
            "dimension did not stabilize by degree %d: %d then %d" % (cap, d1, d2)
        )
    return d2

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
"""

from __future__ import annotations

from itertools import product as iter_product

from ..exactnum import ZERO, SparseRatMatrix, rank
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
        out = {}
        degs = list(self.complex.degrees())
        for d in degs[:-1]:
            out[d] = _truncated_rank(self.complex.matrix(d), self.complex.vars, cap)
        return out

    def truncated_h1(self, cap):
        """Windowed count of the middle cohomology.

        Dimension of the coefficient-degree <= cap slice of the ring
        modulo in-window multiples of the ideal generators; decreases to
        h1_dimension once the cap passes the staircase of the ideal.
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
    zero = Poly.zero(vars, f.order)
    low = [
        [f if r == c else zero for c in range(n)] for r in range(n)
    ] + [[-p for p in partials]]
    high = [list(partials) + [f]]
    complex = PolyComplex(vars, -1, (n, n + 1, 1), [low, high], f.order)
    return TangentComplex(f, complex, [f] + partials)


def milnor_dim(f: Poly) -> int:
    """Dimension of Q[x]/(f, df/dx_1, ..., df/dx_n): the Tjurina number.

    It equals the Milnor number dim Q[x]/(df/dx_1, ..., df/dx_n) when f
    is quasi-homogeneous (then f lies in the ideal of its partials), as
    for every row of the bundled table, but not in general: for
    x^4 + y^5 + x^2*y^3 it is 11, while the Milnor number is 14.
    """
    return _isolated_quotient_dim([f] + [f.diff(v) for v in f.vars])


def milnor_number(f: Poly) -> int:
    """Dimension of Q[x]/(df/dx_1, ..., df/dx_n): the Milnor number.

    At least ``milnor_dim(f)``, with equality when f is quasi-homogeneous.
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


def _truncated_rank(mat, vars, cap):
    """Rank of a Poly matrix as a map on vectors with entries of degree <= cap.

    Products above the cap fall outside the window and are kept as rows,
    so the count is the honest rank of the restricted linear map.
    """
    monos_in = _monomials(vars, cap)
    deg_max = cap + max(
        (p.total_degree() for row in mat for p in row if not p.is_zero()),
        default=0,
    )
    monos_out = _monomials(vars, deg_max)
    out_index = {e: i for i, e in enumerate(monos_out)}
    rows_per = len(monos_out)
    nrows = len(mat) * rows_per
    ncols = (len(mat[0]) if mat else 0) * len(monos_in)
    m = SparseRatMatrix(nrows, ncols)
    for r, row in enumerate(mat):
        for c, p in enumerate(row):
            if p.is_zero():
                continue
            for k, e in enumerate(monos_in):
                col = c * len(monos_in) + k
                for pe, pc in p.terms.items():
                    tot = tuple(a + b for a, b in zip(pe, e))
                    m[r * rows_per + out_index[tot], col] = (
                        m[r * rows_per + out_index[tot], col] + pc
                    )
    return rank(m)


def truncated_module_quotient_dim(vars, rank_count, vectors, cap):
    """Dimension of (free module of that rank) / (span of vector multiples),
    windowed at coefficient degree <= cap.

    Only multiples that stay inside the window enter the span, so the
    value decreases toward the true quotient dimension as the cap grows
    and is exact once it stabilizes past the staircase.
    """
    monos = _monomials(vars, cap)
    index = {e: i for i, e in enumerate(monos)}
    space = len(monos)
    cols = []
    for vec in vectors:
        top = max((p.total_degree() for p in vec if not p.is_zero()), default=0)
        for shift in _monomials(vars, cap - top):
            col = {}
            for slot, p in enumerate(vec):
                for pe, pc in p.terms.items():
                    tot = tuple(a + b for a, b in zip(pe, shift))
                    r = slot * space + index[tot]
                    col[r] = col.get(r, ZERO) + pc
            if col:
                cols.append(col)
    m = SparseRatMatrix(rank_count * space, len(cols))
    for c, col in enumerate(cols):
        for r, v in col.items():
            m[r, c] = v
    return rank_count * space - rank(m)


def ci_t1_dimension(fs, cap=8):
    """First cohomology of the tangent data of a complete intersection,
    by stabilized truncated linear algebra.

    The module is rank len(fs) over the ring, cut down by the Jacobian
    columns and by the equations acting on each slot.  Raises when the
    window cap does not reach stabilization.
    """
    fs = list(fs)
    vars = fs[0].vars
    zero = Poly.zero(vars, fs[0].order)
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

"""Endomorphism dgla of a resolution, relative to its augmentation.

The resolution's top term is the coordinate ring itself; elements here
are collections of module maps from the lower terms into everything,
extended by zero on the top term.  That zero extension makes the graded
commutator close, and the differential is the usual two-sided one, so
brackets of closed elements stay closed.
"""

from __future__ import annotations

from ..exactnum import exact_scalar
from .complexes import PolyComplex, _mat_mul, _zero_matrix
from .poly import Poly

__all__ = ["HomDgla", "HomElement", "kappa"]


class HomDgla:
    """Graded maps from the resolution part into the augmented complex."""

    __slots__ = ("F", "sources", "targets")

    def __init__(self, F: PolyComplex):
        self.F = F
        top = F.start + len(F.ranks) - 1
        self.sources = [d for d in F.degrees() if d < top]
        self.targets = list(F.degrees())

    def components(self, degree):
        """(source, rows, cols) shapes of one graded piece."""
        out = []
        for i in self.sources:
            j = i + degree
            if j in self.targets and self.F.rank(i) and self.F.rank(j):
                out.append((i, self.F.rank(j), self.F.rank(i)))
        return out

    def zero(self, degree):
        return HomElement(self, degree, {})

    def element(self, degree, comps):
        return HomElement(self, degree, comps)


class HomElement:
    """One graded map: a matrix per source degree, zero where absent."""

    __slots__ = ("dgla", "degree", "comps")

    def __init__(self, dgla, degree, comps):
        self.dgla = dgla
        self.degree = int(degree)
        self.comps = {}
        F = dgla.F
        for i, mat in comps.items():
            mat = tuple(tuple(row) for row in mat)
            if i not in dgla.sources or i + self.degree not in dgla.targets:
                raise ValueError("no component from degree %d in degree %d" % (i, self.degree))
            rows, cols = F.rank(i + self.degree), F.rank(i)
            if len(mat) != rows or any(len(row) != cols for row in mat):
                raise ValueError("component %d has the wrong shape" % i)
            if any(not p.is_zero() for row in mat for p in row):
                self.comps[i] = mat

    def matrix(self, i):
        F = self.dgla.F
        mat = self.comps.get(i)
        if mat is not None:
            return mat
        return _zero_matrix(F.vars, F.rank(i + self.degree), F.rank(i))

    def is_zero(self):
        return not self.comps

    def __eq__(self, other):
        return (
            isinstance(other, HomElement)
            and self.dgla is other.dgla
            and self.degree == other.degree
            and self.comps == other.comps
        )

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("mixed degrees")
        out = {}
        for i in set(self.comps) | set(other.comps):
            a, b = self.matrix(i), other.matrix(i)
            out[i] = tuple(
                tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
            )
        return HomElement(self.dgla, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = exact_scalar(c)
        return HomElement(
            self.dgla,
            self.degree,
            {
                i: tuple(tuple(p.scale(c) for p in row) for row in mat)
                for i, mat in self.comps.items()
            },
        )

    def compose(self, other):
        """self after other; anything landing on the top term dies."""
        F = self.dgla.F
        out = {}
        for i in other.comps:
            mid = i + other.degree
            if mid not in self.dgla.sources:
                continue
            mat = _mat_mul(
                self.matrix(mid), other.comps[i], F.rank(mid + self.degree), F.rank(i),
                Poly.zero(F.vars),
            )
            if any(not p.is_zero() for row in mat for p in row):
                out[i] = mat
        return HomElement(self.dgla, self.degree + other.degree, out)

    def bracket(self, other):
        sign = -1 if (self.degree % 2) and (other.degree % 2) else 1
        return self.compose(other) - other.compose(self).scale(sign)

    def apply_differential(self):
        """Two-sided differential d∘h - (-1)^|h| h∘d."""
        F = self.dgla.F
        sign = -1 if self.degree % 2 else 1
        out = {}
        for i in self.dgla.sources:
            j = i + self.degree
            if j + 1 not in self.dgla.targets:
                continue
            zero = Poly.zero(F.vars)
            mat = _mat_mul(F.matrix(j), self.matrix(i), F.rank(j + 1), F.rank(i), zero)
            if i + 1 in self.dgla.sources:
                right = _mat_mul(self.matrix(i + 1), F.matrix(i), F.rank(j + 1), F.rank(i), zero)
                mat = tuple(
                    tuple(x - y.scale(sign) for x, y in zip(ra, rb))
                    for ra, rb in zip(mat, right)
                )
            if any(not p.is_zero() for row in mat for p in row):
                out[i] = mat
        return HomElement(self.dgla, self.degree + 1, out)

    def entries(self):
        for i, mat in sorted(self.comps.items()):
            for r, row in enumerate(mat):
                for c, p in enumerate(row):
                    if not p.is_zero():
                        yield i, r, c, p

    def __repr__(self):
        parts = ["%d:(%d,%d)=%s" % (i, r, c, p) for i, r, c, p in self.entries()]
        return "HomElement(deg %d; %s)" % (self.degree, ", ".join(parts) or "0")


def _apply_field(coeffs, p):
    out = Poly.zero(p.vars)
    for name, q in coeffs.items():
        out = out + q * p.diff(name)
    return out


def kappa(coeffs, N: HomDgla) -> HomElement:
    """Degree-one element of the dgla attached to a polynomial vector field.

    coeffs maps variable names to coefficient polynomials.  Each
    component applies the field to the entries of the resolution's own
    differential; the result is checked to be closed and the check
    failure is raised (it guards user-supplied resolutions that are not
    genuinely complexes of the expected shape).
    """
    F = N.F
    for name in coeffs:
        if name not in F.vars:
            raise ValueError("unknown variable %r" % (name,))
    comps = {}
    for i in N.sources:
        mat = F.matrix(i)
        comps[i] = tuple(
            tuple(_apply_field(coeffs, p) for p in row) for row in mat
        )
    out = HomElement(N, 1, comps)
    if not out.apply_differential().is_zero():
        raise ValueError("vector field does not act as a chain map on this resolution")
    return out

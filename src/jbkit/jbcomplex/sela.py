"""Gluing data for Lie algebras indexed by simplices of an ordered set.

A gluing datum assigns a (possibly differential graded) Lie algebra to
every nonempty subset of at most three indices, together with a linear
"coface" map for every codimension-one inclusion of index sets.  The
stored coface matrices are the signed ones: for the inclusion obtained
by deleting position p from an (n+1)-element simplex the stored map is
(-1)^(n-p) times an honest Lie homomorphism.  Under this convention the
composite maps across any two-step inclusion sum to zero on the nose,
so the per-simplex algebras assemble into a total complex graded by
simplex dimension plus internal degree.

Vertices, edges and triangles are enough for the intended deformation
applications; higher simplices are rejected.

GradedComplex holds what every complex over a gluing datum shares: an
ordered basis per degree, one loop that assembles the sparse matrix of d
out of a degree from the differential of single basis items the first
time that matrix is read (an item mapped outside the enumerated basis
raises AssertionError naming both), the d*d check over consecutive
degrees, and one cohomology routine: refused unless d*d vanishes there,
answered without elimination where the hook bound(n) is 0, otherwise
eliminated once for d and once for the previous d on d's free rows,
and gated by bound(n); degree n assembles only d out of n - 1 and n.
TotalComplex (basis vectors of the per-simplex algebras) supplies only
the basis and the differential; assemble.JBComplex (chain monomials)
also fills bound(n) with its E1 count.
"""

from __future__ import annotations

from itertools import combinations

from ..exactnum import (
    SparseRatMatrix, ZERO, format_rational, json_int, json_rational, kernel_complement, rank,
    row_echelon,
)
from ..liecore import StructLie, check_lie_axioms

__all__ = ["coface_sign", "Sela", "GradedComplex", "TotalComplex"]


def coface_sign(inner, outer):
    """Sign of the codimension-one inclusion inner < outer.

    Deleting position p from the (n+1)-tuple outer gives (-1)^(n-p); the
    deleted entry sitting last gives +1.
    """
    if len(inner) + 1 != len(outer):
        raise ValueError("not a codimension-one inclusion")
    missing = [v for v in outer if v not in inner]
    if len(missing) != 1 or any(v not in outer for v in inner):
        raise ValueError("%r is not a face of %r" % (inner, outer))
    n = len(outer) - 1
    p = outer.index(missing[0])
    return 1 if (n - p) % 2 == 0 else -1


def _simplex_key(s):
    return (len(s), s)


_EMPTY = StructLie((), (), {})


class Sela:
    """Simplices with Lie algebras and signed coface matrices.

    algebras maps a simplex (sorted tuple of indices) to a StructLie;
    absent simplices mean the zero algebra.  cofaces maps a pair
    (inner, outer) to a SparseRatMatrix of shape dim(outer) x dim(inner);
    absent pairs mean the zero map.  artin_order is the nilpotency order
    of the coefficient line attached to the datum.
    """

    def __init__(self, indices, algebras, cofaces, artin_order):
        self.indices = tuple(indices)
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("duplicate indices")
        if sorted(self.indices) != list(self.indices):
            raise ValueError("indices must be listed in increasing order")
        if artin_order < 1:
            raise ValueError("coefficient order must be at least 1")
        self.artin_order = artin_order
        self.algebras = {}
        for simplex, lie in algebras.items():
            simplex = tuple(simplex)
            self._check_simplex(simplex)
            if lie is not None and lie.dim > 0:
                self.algebras[simplex] = lie
        self.cofaces = {}
        for (inner, outer), mat in cofaces.items():
            inner, outer = tuple(inner), tuple(outer)
            coface_sign(inner, outer)  # raises on malformed pairs
            if not mat.is_zero():
                self.cofaces[(inner, outer)] = mat

    def _check_simplex(self, simplex):
        if not simplex or len(simplex) > 3:
            raise ValueError("simplices must have one to three indices, got %r" % (simplex,))
        if sorted(simplex) != list(simplex) or len(set(simplex)) != len(simplex):
            raise ValueError("simplex %r is not strictly increasing" % (simplex,))
        for v in simplex:
            if v not in self.indices:
                raise ValueError("simplex %r uses unknown index %r" % (simplex, v))

    def algebra(self, simplex):
        return self.algebras.get(tuple(simplex), _EMPTY)

    def simplices(self, size=None):
        out = [s for s in self.algebras if size is None or len(s) == size]
        return sorted(out, key=_simplex_key)

    def all_simplices(self, size=None):
        """Every subset of the index set of the given size, present or not."""
        sizes = (size,) if size is not None else (1, 2, 3)
        out = []
        for k in sizes:
            out.extend(tuple(c) for c in combinations(self.indices, k))
        return out

    def coface(self, inner, outer):
        inner, outer = tuple(inner), tuple(outer)
        mat = self.cofaces.get((inner, outer))
        if mat is not None:
            return mat
        return SparseRatMatrix(self.algebra(outer).dim, self.algebra(inner).dim)

    def differential_of(self, simplex, b):
        """Total differential of basis vector b of one simplex.

        The signed cofaces of b, then its internal differential weighted
        by (-1)^(|simplex| - 1), as a list of ((simplex, index), Fraction)
        pairs with distinct, nonzero entries.
        """
        out = []
        for outer in self.all_simplices(len(simplex) + 1):
            mat = self.cofaces.get((simplex, outer))  # only nonzero maps are kept
            if mat is not None:
                out.extend(((outer, r), v) for r, v in mat.column(b).items())
        odd = (len(simplex) - 1) % 2
        for r, v in self.algebra(simplex).differential_basis(b).items():
            out.append(((simplex, r), -v if odd else v))
        return out

    # -- validation -------------------------------------------------

    def validate(self):
        """Return a list of human-readable problems; empty means valid."""
        problems = []
        for simplex in self.simplices():
            lie = self.algebras[simplex]
            for msg in check_lie_axioms(lie):
                problems.append("algebra %s: %s" % (_simplex_name(simplex), msg))
        for (inner, outer), mat in sorted(self.cofaces.items(), key=lambda kv: kv[0]):
            problems.extend(self._check_coface(inner, outer, mat))
        problems.extend(self._check_coface_squares())
        return problems

    def _check_coface(self, inner, outer, mat):
        src, dst = self.algebra(inner), self.algebra(outer)
        name = "coface %s->%s" % (_simplex_name(inner), _simplex_name(outer))
        if mat.nrows != dst.dim or mat.ncols != src.dim:
            return ["%s: shape %dx%d does not match %dx%d" % (name, mat.nrows, mat.ncols, dst.dim, src.dim)]
        problems = []
        for (r, c), v in mat.entries.items():
            if v and dst.degrees[r] != src.degrees[c]:
                problems.append("%s: entry (%d,%d) mixes internal degrees" % (name, r, c))
        sign = coface_sign(inner, outer)
        cols = [mat.column(b) for b in range(src.dim)]
        # sign * map must take brackets to brackets: r[a,b] = sign [ra, rb]
        for a in range(src.dim):
            signed = {c: sign * v for c, v in cols[a].items()}
            for b in range(a, src.dim):
                if mat.apply(src.bracket_basis(a, b)) != dst.bracket_maps(signed, cols[b]):
                    problems.append("%s: fails the signed homomorphism rule on basis pair (%d,%d)" % (name, a, b))
        # coface must commute with the internal differentials
        for b in range(src.dim):
            lhs = mat.apply(src.differential_basis(b))
            rhs = dst.differential.apply(cols[b]) if dst.differential is not None else {}
            if lhs != rhs:
                problems.append("%s: does not commute with the internal differential at basis %d" % (name, b))
        return problems

    def _check_coface_squares(self):
        problems = []
        for inner in self.all_simplices(1):
            for outer in self.all_simplices(3):
                if not all(v in outer for v in inner):
                    continue
                total = SparseRatMatrix(self.algebra(outer).dim, self.algebra(inner).dim)
                for mid in self.all_simplices(2):
                    if all(v in mid for v in inner) and all(v in outer for v in mid):
                        total = total.add(self.coface(mid, outer).mul(self.coface(inner, mid)))
                if not total.is_zero():
                    problems.append(
                        "coface square %s->%s does not sum to zero"
                        % (_simplex_name(inner), _simplex_name(outer))
                    )
        return problems

    def with_order(self, order):
        """Same gluing datum over a different coefficient truncation."""
        return Sela(self.indices, self.algebras, self.cofaces, order)

    # -- restriction ------------------------------------------------

    def restrict(self, indices):
        """Sub-datum on a subset of the indices."""
        keep = tuple(sorted(indices))
        for v in keep:
            if v not in self.indices:
                raise ValueError("unknown index %r" % (v,))
        algebras = {s: lie for s, lie in self.algebras.items() if all(v in keep for v in s)}
        cofaces = {
            (a, b): m
            for (a, b), m in self.cofaces.items()
            if all(v in keep for v in b)
        }
        return Sela(keep, algebras, cofaces, self.artin_order)

    # -- serialization ----------------------------------------------

    def to_json(self):
        algebras = {}
        for simplex, lie in sorted(self.algebras.items(), key=lambda kv: _simplex_key(kv[0])):
            algebras[_simplex_name(simplex)] = lie.to_json()
        cofaces = []
        for (inner, outer), mat in sorted(self.cofaces.items(), key=lambda kv: kv[0]):
            cofaces.append(
                {
                    "from": _simplex_name(inner),
                    "to": _simplex_name(outer),
                    "matrix": _matrix_to_json(mat),
                }
            )
        return {
            "indices": list(self.indices),
            "artin_order": self.artin_order,
            "algebras": algebras,
            "cofaces": cofaces,
        }

    @staticmethod
    def from_json(data):
        """Parse the to_json schema; malformed data raises ValueError."""
        try:
            indices = tuple(data["indices"])
            order = json_int(data.get("artin_order", 2), "artin_order", "gluing datum")
            algebras = {}
            for key, alg in data.get("algebras", {}).items():
                algebras[_parse_simplex(key, indices)] = StructLie.from_json(alg)
            cofaces = {}
            for entry in data.get("cofaces", []):
                inner = _parse_simplex(entry["from"], indices)
                outer = _parse_simplex(entry["to"], indices)
                dst = algebras.get(outer, _EMPTY)
                src = algebras.get(inner, _EMPTY)
                cofaces[(inner, outer)] = _matrix_from_json(entry["matrix"], dst.dim, src.dim)
            return Sela(indices, algebras, cofaces, order)
        except (KeyError, IndexError, TypeError, AttributeError) as e:
            raise ValueError(
                "malformed gluing datum (%s: %s)" % (type(e).__name__, e)
            ) from None


def _simplex_name(simplex):
    parts = [str(v) for v in simplex]
    if all(len(p) == 1 for p in parts):
        return "".join(parts)
    return "|".join(parts)


def _parse_simplex(name, indices):
    lookup = {str(v): v for v in indices}
    if name in lookup:
        return (lookup[name],)
    parts = name.split("|") if "|" in name else list(name)
    try:
        return tuple(lookup[p] for p in parts)
    except KeyError:
        raise ValueError("simplex name %r does not match the index set" % name)


def _matrix_to_json(mat):
    return [[format_rational(mat[(r, c)]) for c in range(mat.ncols)] for r in range(mat.nrows)]


def _matrix_from_json(rows, nrows, ncols):
    if len(rows) != nrows or any(len(row) != ncols for row in rows):
        raise ValueError("matrix shape %dx%d expected" % (nrows, ncols))
    mat = SparseRatMatrix(nrows, ncols)
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            val = json_rational(v, "coface entry", "gluing datum")
            if val:
                mat[(r, c)] = val
    return mat


def _acc(d, k, v):
    w = d.get(k, ZERO) + v
    if w:
        d[k] = w
    elif k in d:
        del d[k]


class GradedComplex:
    """Chain groups with a sparse differential, assembled degree by degree on first read.

    basis maps a degree to its ordered list of basis items and index each
    item to its position.  differential(item) gives the (target item,
    coefficient) pairs of d(item), with distinct targets; label(item)
    names an item in messages.  matrix(n) assembles d out of degree n the
    first time it is read and keeps it, and the rank of d out of degree n
    once one is computed.  bound(n) is the one hook of cohomology(n) and
    dimension(n): a certified upper bound on the dimension, or None.
    """

    def __init__(self, sela, basis, differential, label):
        self.sela = sela
        self.basis = basis
        self.index = {n: {item: i for i, item in enumerate(items)} for n, items in basis.items()}
        self._differential = differential
        self._label = label
        self._matrices = {}
        self._ranks = {}

    def degrees(self):
        return sorted(self.basis)

    def dim(self, n):
        return len(self.basis.get(n, ()))

    def matrix(self, n):
        """The matrix of d out of degree n, assembled on the first read."""
        mat = self._matrices.get(n)
        if mat is None:
            rows = self.index.get(n + 1, {})
            mat = SparseRatMatrix(len(rows), self.dim(n))
            for col, item in enumerate(self.basis.get(n, ())):
                for target, v in self._differential(item):
                    row = rows.get(target)
                    if row is None:
                        raise AssertionError(
                            "differential left the enumerated basis: %s -> %s"
                            % (self._label(item), self._label(target))
                        )
                    mat.entries[row, col] = v
            self._matrices[n] = mat
        return mat

    def rank(self, n):
        """The rank of d out of degree n, computed once."""
        if n not in self._ranks:
            self._ranks[n] = rank(self.matrix(n))
        return self._ranks[n]

    def square_defects(self):
        """Nonzero entries of d*d as (degree, source item, target item, value).

        d is composed over every pair of consecutive degrees; the list is
        empty exactly when d squares to zero.
        """
        bad = []
        for n in self.degrees():
            if n + 1 in self.basis:
                prod = self.matrix(n + 1).mul(self.matrix(n))
                for (r, c), v in sorted(prod.entries.items()):
                    bad.append((n, self.basis[n][c], self.basis[n + 2][r], v))
        return bad

    def bound(self, n):
        """A certified upper bound on the dimension of cohomology in degree n, or None.

        The hook a subclass fills; None here and on TotalComplex.
        """
        return None

    def cohomology(self, n):
        """Dimension and representative chains in degree n.

        Refused unless d*d vanishes from degree n - 1, so that the image of
        the previous d lies in ker d, where a vector is fixed by its free
        (non-pivot) coordinates.  Where bound(n) is 0 the answer is (0, [])
        with no elimination.  Otherwise the dimension, gated by bound(n), is
        the number of free columns minus the rank of the previous d on the
        free rows.  Kernel vector k_f (free coordinates 1 at f, 0 elsewhere)
        represents a class unless f is the largest free coordinate of an
        image vector, a pivot of those rows eliminated largest-first: in
        ascending f, the k_f independent of the image and of those before.
        Only these are back-substituted, after the gate.
        """
        return self._cohomology(n, representatives=True)

    def dimension(self, n):
        """cohomology(n)[0], from the same checks and ranks, with no representatives built."""
        return self._cohomology(n, representatives=False)[0]

    def _cohomology(self, n, representatives):
        d, prev = self.matrix(n), self.matrix(n - 1)
        if not d.mul(prev).is_zero():
            raise ValueError(
                "d*d does not vanish from degree %d; no cohomology in degree %d" % (n - 1, n)
            )
        bound = self.bound(n)
        if bound == 0:
            return 0, []
        echelon = row_echelon(d)
        self._ranks[n] = len(echelon)
        rank_prev, vectors = (
            kernel_complement(echelon, prev) if representatives else (self.rank(n - 1), ())
        )
        dim = d.ncols - len(echelon) - rank_prev
        if bound is not None and dim > bound:
            raise ValueError(
                "cohomology in degree %d: eliminations give dimension %d, above its E1 bound %d"
                % (n, dim, bound)
            )
        items = self.basis.get(n, [])
        return dim, [{items[i]: v for i, v in sorted(vec.items())} for vec in vectors]


class TotalComplex(GradedComplex):
    """Direct sum of the per-simplex algebras, graded by total degree.

    The total degree of a basis vector living on a simplex S in internal
    degree e is (|S| - 1) + e.  The differential combines the stored
    signed cofaces with the internal differentials weighted by
    (-1)^(|S|-1); the coface-square and commutation rules make it square
    to zero.
    """

    def __init__(self, sela):
        basis = {}
        for simplex in sela.simplices():
            lie = sela.algebras[simplex]
            for b in range(lie.dim):
                basis.setdefault((len(simplex) - 1) + lie.degrees[b], []).append((simplex, b))
        for items in basis.values():
            items.sort(key=lambda sb: (_simplex_key(sb[0]), sb[1]))
        super().__init__(
            sela,
            basis,
            lambda sb: sela.differential_of(*sb),
            lambda sb: "%s:%s" % (_simplex_name(sb[0]), sela.algebra(sb[0]).names[sb[1]]),
        )

"""Ready-made gluing data: covers, triangles, pairs, and degenerate examples.

Every factory returns a datum whose validate() comes back empty.
``cover`` puts one fixed algebra on every face of a list of simplices
with signed identity cofaces; the triangle fixtures are the cover of
one triangle and the pair fixtures that of one edge.
Tests and the bundled self-check lean on the invariants documented in
the individual docstrings.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from ..exactnum import SparseRatMatrix
from ..liecore import StructLie
from .sela import Sela, coface_sign

__all__ = [
    "upper_triangular",
    "abelian_lie",
    "dg_toy",
    "mc_toy",
    "cover",
    "nonabelian_triangle",
    "abelian_triangle",
    "dg_triangle",
    "mc_triangle",
    "dg_pair",
    "mc_pair",
    "lie_pair",
    "zero_sela",
    "obstructed_triangle",
    "abelianization_matrix",
]


def upper_triangular(n, with_rep=True):
    """Strictly upper triangular n x n matrices in degree zero.

    Basis e_ij for i < j with [e_ij, e_kl] = d_jk e_il - d_li e_kj; the
    matrix-unit representation is attached unless with_rep is false.
    """
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    names = ["e%d%d" % p for p in pairs]
    index = {p: k for k, p in enumerate(pairs)}
    brackets = {}
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            targets = {}
            if j == k:
                targets[index[(i, l)]] = targets.get(index[(i, l)], 0) + 1
            if l == i:
                targets[index[(k, j)]] = targets.get(index[(k, j)], 0) - 1
            targets = {c: Fraction(v) for c, v in targets.items() if v}
            if targets:
                brackets[(a, b)] = targets
    rep = None
    if with_rep:
        rep = {}
        for (i, j), name in zip(pairs, names):
            mat = [[Fraction(0)] * n for _ in range(n)]
            mat[i - 1][j - 1] = Fraction(1)
            rep[name] = mat
    return StructLie(names, [0] * len(names), brackets, rep=rep)


def abelian_lie(dim, degree=0, prefix="a"):
    """Abelian Lie algebra on dim generators in one degree."""
    names = ["%s%d" % (prefix, k) for k in range(dim)]
    return StructLie(names, [degree] * dim, {})


def dg_toy():
    """Two-dimensional dg Lie algebra: x in degree 0, y in degree 1,
    [x, y] = y and dx = y."""
    d = SparseRatMatrix(2, 2)
    d[1, 0] = Fraction(1)
    return StructLie(
        ["x", "y"],
        [0, 1],
        {(0, 1): {1: Fraction(1)}, (1, 0): {1: Fraction(-1)}},
        differential=d,
    )


def mc_toy():
    """Three-dimensional dg Lie algebra: x, y in degree 1, w in degree 2,
    [y, y] = w and dx = w.

    y t - x t^2 / 2 solves the flatness equation over Q[t]/(t^3).
    """
    d = SparseRatMatrix(3, 3)
    d[2, 0] = Fraction(1)
    return StructLie(["x", "y", "w"], [1, 1, 2], {(1, 1): {2: Fraction(1)}}, differential=d)


def cover(simplices, lie, order):
    """``lie`` on every face of the listed simplices, glued by signed identities.

    The simplices are increasing tuples of at most three indices; the
    datum's indices are the ones they use.
    """
    faces = sorted(
        {f for s in simplices for k in range(1, len(s) + 1) for f in combinations(s, k)},
        key=lambda f: (len(f), f),
    )
    ident = SparseRatMatrix.identity(lie.dim)
    cofaces = {
        (inner, outer): ident.scale(coface_sign(inner, outer))
        for inner in faces
        for outer in faces
        if len(outer) == len(inner) + 1 and set(inner) < set(outer)
    }
    indices = sorted({v for s in simplices for v in s})
    return Sela(indices, {f: lie for f in faces}, cofaces, order)


def nonabelian_triangle(order=4):
    """Strictly upper triangular 3 x 3 matrices on every simplex of a
    triangle, glued by signed identities."""
    return cover([(0, 1, 2)], upper_triangular(3), order)


def abelian_triangle(order=2, dim=1):
    """Abelian algebra of the given dimension on every simplex of a
    triangle; the complexes reduce to intersection-pattern counting."""
    return cover([(0, 1, 2)], abelian_lie(dim), order)


def dg_triangle(order=3):
    """dg_toy on every simplex of a triangle; internal degrees exercise
    the Koszul signs of every corestriction family at once."""
    return cover([(0, 1, 2)], dg_toy(), order)


def mc_triangle(order=3):
    """mc_toy on every simplex of a triangle."""
    return cover([(0, 1, 2)], mc_toy(), order)


def dg_pair(order=3):
    """Two vertices and one edge, each carrying dg_toy."""
    return cover([(0, 1)], dg_toy(), order)


def mc_pair(order=3):
    """Two vertices and one edge, each carrying mc_toy."""
    return cover([(0, 1)], mc_toy(), order)


def lie_pair(order=2):
    """Strictly upper triangular 3 x 3 included into 4 x 4 along one edge.

    Vertex 1 carries the zero algebra, so the total complex is the
    two-term inclusion: nothing in its kernel, a three-dimensional
    cokernel in degree one.
    """
    g = upper_triangular(3)
    h = upper_triangular(4)
    mat = SparseRatMatrix(h.dim, g.dim)
    for c, name in enumerate(g.names):
        mat[h.index[name], c] = Fraction(1)
    algebras = {(0,): g, (0, 1): h}
    cofaces = {((0,), (0, 1)): mat.scale(coface_sign((0,), (0, 1)))}
    return Sela((0, 1), algebras, cofaces, order)


def zero_sela(order=2):
    """One index, no algebras at all."""
    return Sela((0,), {}, {}, order)


def obstructed_triangle(order=3):
    """Lines glued inside the nonabelian triangle algebra.

    The edges carry the lines spanned by e12, e12 + e23 and e23 inside
    strictly upper triangular 3 x 3 matrices on the triangle; vertices
    carry zero.  Gluing the three tautological edge elements is
    consistent to first order, but extending one order higher runs into
    the commutator e13 / 2, which no edge reaches.
    """
    gt = upper_triangular(3)
    line = abelian_lie(1, prefix="u")

    def col(vec):
        m = SparseRatMatrix(gt.dim, 1)
        for name, v in vec.items():
            m[gt.index[name], 0] = Fraction(v)
        return m

    t = (0, 1, 2)
    algebras = {(0, 1): line, (0, 2): line, (1, 2): line, t: gt}
    cofaces = {
        ((0, 1), t): col({"e12": 1}).scale(coface_sign((0, 1), t)),
        ((0, 2), t): col({"e12": 1, "e23": 1}).scale(coface_sign((0, 2), t)),
        ((1, 2), t): col({"e23": 1}).scale(coface_sign((1, 2), t)),
    }
    return Sela((0, 1, 2), algebras, cofaces, order)


def abelianization_matrix():
    """Quotient of strictly upper triangular 3 x 3 by its commutator.

    Sends e12, e23 to the two generators of abelian_lie(2) and kills
    e13; one matrix works as a morphism on every simplex between the
    nonabelian and the two-dimensional abelian triangle.
    """
    g = upper_triangular(3, with_rep=False)
    mat = SparseRatMatrix(2, g.dim)
    mat[0, g.index["e12"]] = Fraction(1)
    mat[1, g.index["e23"]] = Fraction(1)
    return mat

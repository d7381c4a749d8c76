"""Flat families glued over a cover and the chains they exponentiate to.

A family is a pair of dictionaries: phi assigns to a vertex a degree-one
element of its algebra with coefficients in the maximal ideal, psi
assigns to an edge a degree-zero one.  Three conditions make the pair a
consistent gluing datum:

  vertex    d phi + [phi, phi] / 2 = 0,
  edge      d psi equals the Bernoulli transport of the restriction of
            phi from the smaller vertex minus the opposite transport of
            the restriction from the larger one,
  triangle  the three edge elements, pushed into the triangle algebra
            along the stored cofaces, are a zero of the trivariate
            bracket series in the slot order (outer edge, left edge,
            right edge).

gluing_defects forms the three left-hand sides; special_cocycle
requires each to vanish and packages the family together with
exp(sum phi + sum psi) as a chain, built when first read; that chain
is a cycle of the assembled complex, which verify_cocycle confirms by
applying the differential literally.  coboundary_gluing
manufactures edge data from per-vertex gauges, the cocycles that deform
nothing.

bernoulli_transport is liecore.adjoint_series with Bernoulli
coefficients.  chain_mul, the Koszul product of sparse chains, takes
the powers of exp_chain, which exactnum._power_sum sums over one
denominator, and the factor products of induced_chain_map, the chain
map of per-simplex Lie morphisms.  family_chain is the union of the
element chains, whose keys never meet across simplices.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import factorial

from ..bch import eval_bch
from ..exactnum import ONE, SparseRatMatrix, _power_sum, bernoulli_normalized
from ..liecore import ArtinLine, LieElement, adjoint_series
from .assemble import (
    _shared_table, chain_differential, factor_key, factor_parity, format_monomial,
)
from .sela import coface_sign, _simplex_name

__all__ = [
    "SpecialCocycle",
    "gluing_defects",
    "special_cocycle",
    "verify_cocycle",
    "coboundary_gluing",
    "bernoulli_transport",
    "restrict_element",
    "element_chain",
    "family_chain",
    "exp_chain",
    "chain_mul",
    "induced_chain_map",
]


def restrict_element(sela, inner, outer, elt):
    """Push an element along the coface with the orientation sign divided out."""
    inner, outer = tuple(inner), tuple(outer)
    pushed = LieElement(sela.algebra(outer), elt.ring, sela.coface(inner, outer).apply(elt.coeffs))
    return pushed.scale(coface_sign(inner, outer))


def bernoulli_transport(psi, x):
    """sum_t C_t (ad psi)^t x with the normalized Bernoulli numbers C_t."""
    return adjoint_series(psi, x, bernoulli_normalized)


# -- chains built from elements ------------------------------------------

def element_chain(sela, simplex, elt):
    """One-factor chain of an element: each t power becomes a tagged monomial."""
    simplex = tuple(simplex)
    out = {}
    for i, a in elt.coeffs.items():
        for q, c in enumerate(a.coeffs):
            if q == 0 and c:
                raise ValueError(
                    "element on %s has a constant term" % _simplex_name(simplex)
                )
            if c:
                out[(((simplex, i),), q)] = c
    return out


def family_chain(sela, elements):
    """Union of the one-factor chains of {simplex: element}; no two simplices share a key."""
    return {k: c for s, elt in elements.items() for k, c in element_chain(sela, s, elt).items()}


def exp_chain(sela, w):
    """sum_{k >= 1} w^k / k!; terminates because every tag is in 1..N-1.

    The powers are chain_mul products summed by exactnum._power_sum, in
    integers over one common denominator.
    """
    order = sela.artin_order
    for mono in w:
        if not 1 <= mono[1] < order:
            raise ValueError(
                "cannot exponentiate %s: its tag is outside 1..%d"
                % (format_monomial(sela, mono), order - 1)
            )
    return _power_sum(
        w, ((), 0), lambda p, v: chain_mul(sela, p, v), lambda k: Fraction(1, factorial(k)), {}
    )


# -- the gluing conditions ------------------------------------------------

class SpecialCocycle:
    """Validated family data together with its exponential chain.

    phi maps vertices to degree-one elements, psi edges to degree-zero
    ones; absent simplices mean zero.  chain is exp of the sum of all
    one-factor chains and is a degree-zero cycle of the assembled
    complex.  Only that sum is stored: the chain is built on its first
    read and kept, so a family that is only extended never pays for it.
    """

    __slots__ = ("sela", "phi", "psi", "_w", "_chain")

    def __init__(self, sela, phi, psi, w):
        self.sela = sela
        self.phi = phi
        self.psi = psi
        self._w = w
        self._chain = None

    @property
    def chain(self):
        if self._chain is None:
            self._chain = exp_chain(self.sela, self._w)
        return self._chain

    def __repr__(self):
        return "SpecialCocycle(%d vertex, %d edge components, %d chain terms)" % (
            len(self.phi), len(self.psi), len(self.chain)
        )


def _component(sela, data, simplex, ring, degree, label):
    elt = data.get(tuple(simplex))
    lie = sela.algebra(simplex)
    if elt is None:
        return LieElement.zero(lie, ring)
    if elt.lie is not lie:
        raise ValueError(
            "%s component on %s lives in the wrong algebra"
            % (label, _simplex_name(simplex))
        )
    if elt.ring != ring:
        raise ValueError(
            "%s component on %s uses a different coefficient line"
            % (label, _simplex_name(simplex))
        )
    if not elt.in_maximal_ideal():
        raise ValueError(
            "%s component on %s has a constant term" % (label, _simplex_name(simplex))
        )
    for i in elt.coeffs:
        if lie.degrees[i] != degree:
            raise ValueError(
                "%s component on %s is not homogeneous of degree %d"
                % (label, _simplex_name(simplex), degree)
            )
    return elt


def gluing_defects(sela, phi, psi, parts):
    """Yield (simplex, defect) over vertices, edges, then triangles.

    A defect is the left-hand side of its condition above; edges and
    triangles without an algebra yield none.  Each component is checked
    when its simplex is reached and stored in parts, zero where absent.
    """
    order = sela.artin_order
    ring = ArtinLine(order)

    for v in sela.all_simplices(1):
        f = parts[v] = _component(sela, phi, v, ring, 1, "vertex")
        yield v, f.apply_differential() + f.bracket(f).scale(Fraction(1, 2))
        if f.coeffs and sela.algebra(v).dim == 0:
            raise ValueError("vertex %s carries no algebra" % _simplex_name(v))

    for e in sela.all_simplices(2):
        g = parts[e] = _component(sela, psi, e, ring, 0, "edge")
        if sela.algebra(e).dim == 0:
            if g.coeffs:
                raise ValueError("edge %s carries no algebra" % _simplex_name(e))
            continue
        lo, hi = (e[0],), (e[1],)
        left = bernoulli_transport(g, restrict_element(sela, lo, e, parts[lo]))
        right = bernoulli_transport(g.scale(-1), restrict_element(sela, hi, e, parts[hi]))
        yield e, g.apply_differential() - (left - right)

    for tri in sela.all_simplices(3):
        if sela.algebra(tri).dim == 0:
            continue
        a, b, c = tri
        # stored cofaces, orientation signs included
        outer, first, second = (
            LieElement(sela.algebra(tri), ring, sela.coface(e, tri).apply(parts[e].coeffs))
            for e in ((a, c), (a, b), (b, c))
        )
        yield tri, eval_bch(_shared_table(order - 1), outer, first, second, nilpotency_order=order)


_FAILURE = {
    1: "flatness fails on vertex %s: d phi + [phi, phi]/2 = %r",
    2: "transport fails on edge %s: d psi - transport gap = %r",
    3: "composition fails on triangle %s: series value %r",
}


def special_cocycle(sela, phi, psi):
    """Validate a family and return it packaged with its chain.

    Raises ValueError naming the first simplex or triple where a
    condition fails.
    """
    phi = {tuple(k): v for k, v in phi.items()}
    psi = {tuple(k): v for k, v in psi.items()}
    for k in phi:
        if len(k) != 1:
            raise ValueError("%s is not a vertex" % _simplex_name(k))
    for k in psi:
        if len(k) != 2:
            raise ValueError("%s is not an edge" % _simplex_name(k))

    parts = {}
    for simplex, defect in gluing_defects(sela, phi, psi, parts):
        if not defect.is_zero():
            raise ValueError(_FAILURE[len(simplex)] % (_simplex_name(simplex), defect))
    return SpecialCocycle(sela, phi, psi, family_chain(sela, parts))


def verify_cocycle(sela, cocycle):
    """Apply the differential to the chain; empty list means it is a cycle.

    Accepts a SpecialCocycle or a bare chain; nonzero terms come back as
    (formatted monomial, coefficient) pairs.
    """
    chain = getattr(cocycle, "chain", cocycle)
    residual = chain_differential(sela, chain)
    return [
        (format_monomial(sela, mono), c)
        for mono, c in sorted(residual.items(), key=lambda kv: (len(kv[0][0]), kv[0]))
    ]


def coboundary_gluing(sela, gauges):
    """Edge data of the family gauged from the trivial one.

    gauges maps vertices to degree-zero elements in the maximal ideal;
    the edge component is the bracket series of the two restrictions,
    the second negated, so consecutive edges compose exactly.
    """
    order = sela.artin_order
    ring = ArtinLine(order)
    gauges = {tuple(k): v for k, v in gauges.items()}
    for v, a in gauges.items():
        if len(v) != 1:
            raise ValueError("%s is not a vertex" % _simplex_name(v))
        _component(sela, gauges, v, ring, 0, "gauge")

    def restricted(v, e):
        z = gauges.get(v)
        if z is None:
            return LieElement.zero(sela.algebra(e), ring)
        return restrict_element(sela, v, e, z)

    psi = {}
    for e in sela.all_simplices(2):
        if sela.algebra(e).dim == 0:
            continue
        left, right = restricted((e[0],), e), restricted((e[1],), e)
        val = eval_bch(_shared_table(order - 1), left, right.scale(-1), nilpotency_order=order)
        if not val.is_zero():
            psi[e] = val
    return psi


def chain_mul(sela, u, v):
    """Koszul product of sparse chains; tags add, overflow truncates.

    Chain words are sorted and free of repeated odd factors, so each
    product merges the right word into the left one: a right factor
    lands after the left factors whose key is not larger, and an odd one
    flips the sign once for every odd left factor it passes.  An odd
    factor that meets itself kills the product.  Each factor's key and
    parity are read once per call.  Coefficients may be Fractions or ints.
    """
    order = sela.artin_order
    read = {}  # factor -> (key, parity)

    def factors_of(word):
        out = []
        for f in word:
            kp = read.get(f)
            if kp is None:
                kp = read[f] = (factor_key(f), factor_parity(sela, f))
            out.append(kp)
        return out

    below = {}  # room -> the terms of v with tag below room, in v's order
    out = {}
    for (wu, qu), cu in u.items():
        room = order - qu
        terms = below.get(room)
        if terms is None:
            terms = below[room] = [
                (qv, cv, [(f, k, p) for f, (k, p) in zip(wv, factors_of(wv))])
                for (wv, qv), cv in v.items()
                if qv < room
            ]
        if not terms:
            continue
        items = factors_of(wu)
        keys = [k for k, _ in items]
        odd_from = [0] * (len(items) + 1)  # odd factors from each position on
        for i in range(len(items) - 1, -1, -1):
            odd_from[i] = odd_from[i + 1] + items[i][1]
        for qv, cv, rights in terms:
            word, lo, passed = (), 0, 0
            for f, k, p in rights:
                pos = bisect_right(keys, k, lo)
                if p:
                    if pos and keys[pos - 1] == k:
                        break  # odd square
                    passed += odd_from[pos]
                word += wu[lo:pos] + (f,)
                lo = pos
            else:
                key = (word + wu[lo:], qu + qv)
                val = cu * cv
                s = out.get(key, 0) + (-val if passed % 2 else val)
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return out


def induced_chain_map(source, target, morphism):
    """Degree-wise matrices induced by per-simplex morphism matrices.

    morphism maps a simplex to the matrix of a degree-preserving Lie
    morphism into the target algebra on the same simplex (absent means
    zero); a monomial goes to the chain_mul product of its factor images,
    tagged with the monomial's power.
    """
    if source.order != target.order:
        raise ValueError("truncation orders differ")
    out = {}
    for deg in source.degrees():
        rows = target.index.get(deg, {})
        mat = SparseRatMatrix(len(rows), source.dim(deg))
        for col, (factors, q) in enumerate(source.basis[deg]):
            words = {((), 0): ONE}
            for simplex, b in factors:
                mor = morphism.get(simplex)
                img = mor.column(b) if mor is not None else {}
                words = chain_mul(
                    target.sela, words, {(((simplex, r),), 0): w for r, w in img.items()}
                )
                if not words:
                    break
            for (word, _), c in words.items():
                row = rows.get((word, q))
                if row is None:
                    raise ValueError(
                        "image monomial %s not enumerated in the target"
                        % format_monomial(target.sela, (word, q))
                    )
                mat[row, col] = c
        out[deg] = mat
    return out

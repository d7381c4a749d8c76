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

special_cocycle checks the three conditions and packages the result
together with exp(sum phi + sum psi) as a chain; that chain is a cycle
of the assembled complex, which verify_cocycle confirms by applying the
differential literally.  coboundary_gluing manufactures edge data from
per-vertex gauges, the cocycles that deform nothing.
"""

from __future__ import annotations

from fractions import Fraction

from ..bch import eval_bch, eval_bch_trivariate
from ..exactnum import ZERO, bernoulli_normalized
from ..liecore import ArtinLine, LieElement
from .assemble import _shared_table, format_monomial, sort_word
from .sela import coface_sign, _acc, _simplex_name

__all__ = [
    "SpecialCocycle",
    "special_cocycle",
    "verify_cocycle",
    "coboundary_gluing",
    "bernoulli_transport",
    "restrict_element",
    "element_chain",
    "chain_mul",
    "exp_chain",
]


def restrict_element(sela, inner, outer, elt):
    """Push an element along the coface with the orientation sign divided out."""
    inner, outer = tuple(inner), tuple(outer)
    target = sela.algebra(outer)
    mat = sela.coface(inner, outer)
    corr = Fraction(coface_sign(inner, outer))
    out = {}
    for (r, c), v in mat.entries.items():
        a = elt.coeffs.get(c)
        if a is None:
            continue
        piece = a.scale(corr * v)
        s = out.get(r)
        out[r] = piece if s is None else s + piece
    return LieElement(target, elt.ring, out)


def _pushed(sela, inner, outer, elt):
    # stored coface, orientation sign included
    target = sela.algebra(outer)
    mat = sela.coface(inner, outer)
    out = {}
    for (r, c), v in mat.entries.items():
        a = elt.coeffs.get(c)
        if a is None:
            continue
        piece = a.scale(v)
        s = out.get(r)
        out[r] = piece if s is None else s + piece
    return LieElement(target, elt.ring, out)


def bernoulli_transport(psi, x):
    """sum_t C_t (ad psi)^t x with the normalized Bernoulli numbers C_t."""
    acc = x.scale(0)
    term = x
    t = 0
    while not term.is_zero():
        acc = acc + term.scale(bernoulli_normalized(t))
        term = psi.bracket(term)
        t += 1
        if t > psi.ring.order:
            raise ValueError("transport did not terminate; psi is not nilpotent")
    return acc


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


def chain_mul(sela, u, v):
    """Koszul product of sparse chains; tags add, overflow truncates."""
    order = sela.artin_order
    v_terms = list(v.items())
    below = {}  # room -> the terms of v with tag below room, in v's order
    out = {}
    for (wu, qu), cu in u.items():
        room = order - qu
        terms = below.get(room)
        if terms is None:
            terms = below[room] = [(wv, qv, cv) for (wv, qv), cv in v_terms if qv < room]
        for wv, qv, cv in terms:
            word, sign = sort_word(sela, wu + wv)
            if word is not None:
                _acc(out, (word, qu + qv), cu * cv * sign)
    return out


def exp_chain(sela, w):
    """sum_{k >= 1} w^k / k!; terminates because every tag is positive."""
    out = {}
    power = dict(w)
    k = 1
    fact = 1
    while power:
        inv = Fraction(1, fact)
        for key, c in power.items():
            _acc(out, key, c * inv)
        k += 1
        fact *= k
        power = chain_mul(sela, power, w)
    return out


# -- the gluing conditions ------------------------------------------------

class SpecialCocycle:
    """Validated family data together with its exponential chain.

    phi maps vertices to degree-one elements, psi edges to degree-zero
    ones; absent simplices mean zero.  chain is exp of the sum of all
    one-factor chains and is a degree-zero cycle of the assembled
    complex.
    """

    __slots__ = ("sela", "phi", "psi", "chain")

    def __init__(self, sela, phi, psi, chain):
        self.sela = sela
        self.phi = phi
        self.psi = psi
        self.chain = chain

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


def special_cocycle(sela, phi, psi, table=None):
    """Validate a family and return it packaged with its chain.

    Raises ValueError naming the first simplex or triple where a
    condition fails.
    """
    order = sela.artin_order
    ring = ArtinLine(order)
    if table is None:
        table = _shared_table(order - 1)

    phi = {tuple(k): v for k, v in phi.items()}
    psi = {tuple(k): v for k, v in psi.items()}
    for k in phi:
        if len(k) != 1:
            raise ValueError("%s is not a vertex" % _simplex_name(k))
    for k in psi:
        if len(k) != 2:
            raise ValueError("%s is not an edge" % _simplex_name(k))

    vert = {}
    for v in sela.all_simplices(1):
        f = _component(sela, phi, v, ring, 1, "vertex")
        vert[v] = f
        mc = f.apply_differential() + f.bracket(f).scale(Fraction(1, 2))
        if not mc.is_zero():
            raise ValueError(
                "flatness fails on vertex %s: d phi + [phi, phi]/2 = %r"
                % (_simplex_name(v), mc)
            )
        if f.coeffs and sela.algebra(v).dim == 0:
            raise ValueError("vertex %s carries no algebra" % _simplex_name(v))

    edge = {}
    for e in sela.all_simplices(2):
        g = _component(sela, psi, e, ring, 0, "edge")
        edge[e] = g
        if sela.algebra(e).dim == 0:
            if g.coeffs:
                raise ValueError("edge %s carries no algebra" % _simplex_name(e))
            continue
        lo, hi = (e[0],), (e[1],)
        left = bernoulli_transport(g, restrict_element(sela, lo, e, vert[lo]))
        right = bernoulli_transport(g.scale(-1), restrict_element(sela, hi, e, vert[hi]))
        gap = g.apply_differential() - (left - right)
        if not gap.is_zero():
            raise ValueError(
                "transport fails on edge %s: d psi - transport gap = %r"
                % (_simplex_name(e), gap)
            )

    for tri in sela.all_simplices(3):
        if sela.algebra(tri).dim == 0:
            continue
        a, b, c = tri
        outer = _pushed(sela, (a, c), tri, edge[(a, c)])
        first = _pushed(sela, (a, b), tri, edge[(a, b)])
        second = _pushed(sela, (b, c), tri, edge[(b, c)])
        comp = eval_bch_trivariate(table, outer, first, second, order)
        if not comp.is_zero():
            raise ValueError(
                "composition fails on triangle %s: series value %r"
                % (_simplex_name(tri), comp)
            )

    w = {}
    for v, f in vert.items():
        if f.coeffs:
            for key, val in element_chain(sela, v, f).items():
                w[key] = w.get(key, ZERO) + val
    for e, g in edge.items():
        if g.coeffs:
            for key, val in element_chain(sela, e, g).items():
                w[key] = w.get(key, ZERO) + val
    return SpecialCocycle(sela, phi, psi, exp_chain(sela, w))


def verify_cocycle(jb, cocycle):
    """Apply the differential to the chain; empty list means it is a cycle.

    Accepts a SpecialCocycle or a bare chain; nonzero terms come back as
    (formatted monomial, coefficient) pairs.
    """
    chain = getattr(cocycle, "chain", cocycle)
    residual = jb.differential_of_chain(chain)
    return [
        (format_monomial(jb.sela, mono), c)
        for mono, c in sorted(residual.items(), key=lambda kv: (len(kv[0][0]), kv[0]))
    ]


def coboundary_gluing(sela, gauges, table=None):
    """Edge data of the family gauged from the trivial one.

    gauges maps vertices to degree-zero elements in the maximal ideal;
    the edge component is the bracket series of the two restrictions,
    the second negated, so consecutive edges compose exactly.
    """
    order = sela.artin_order
    ring = ArtinLine(order)
    if table is None:
        table = _shared_table(order - 1)
    gauges = {tuple(k): v for k, v in gauges.items()}
    for v, a in gauges.items():
        if len(v) != 1:
            raise ValueError("%s is not a vertex" % _simplex_name(v))
        _component(sela, gauges, v, ring, 0, "gauge")
    psi = {}
    for e in sela.all_simplices(2):
        if sela.algebra(e).dim == 0:
            continue
        lo, hi = (e[0],), (e[1],)
        za = gauges.get(lo)
        zb = gauges.get(hi)
        lie = sela.algebra(e)
        left = (
            restrict_element(sela, lo, e, za)
            if za is not None
            else LieElement.zero(lie, ring)
        )
        right = (
            restrict_element(sela, hi, e, zb)
            if zb is not None
            else LieElement.zero(lie, ring)
        )
        val = eval_bch(table, left, right.scale(-1), order)
        if not val.is_zero():
            psi[e] = val
    return psi

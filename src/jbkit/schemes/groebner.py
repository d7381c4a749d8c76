"""Reduced Groebner bases by Buchberger's algorithm.

Pairs go through the Gebauer-Moeller update (coprime and chain
criteria), selection picks the smallest lcm, and every remainder is
fully reduced.  The end product is interreduced and monic, so two runs
on generating sets of the same ideal agree term for term.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product

from ..exactnum import ZERO
from .poly import Poly, _grevlex_key

__all__ = [
    "normal_form",
    "buchberger",
    "quotient_dimension",
    "standard_monomials",
    "ideal_member",
]


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _coprime(a, b):
    return all(not (x and y) for x, y in zip(a, b))


def normal_form(p, basis):
    """Remainder of p under full multivariate division by the basis."""
    leads = [(g.leading(), g) for g in basis if not g.is_zero()]
    rem = {}
    work = dict(p.terms)
    while work:
        e = max(work, key=_grevlex_key)
        c = work.pop(e)
        hit = None
        for (le, lc), g in leads:
            if _divides(le, e):
                hit = (le, lc, g)
                break
        if hit is None:
            rem[e] = rem.get(e, ZERO) + c
            continue
        le, lc, g = hit
        shift = tuple(x - y for x, y in zip(e, le))
        factor = c / lc
        for ge, gc in g.terms.items():
            ne = tuple(x + y for x, y in zip(ge, shift))
            s = work.get(ne, ZERO) - factor * gc
            if ne == e:
                continue
            if s:
                work[ne] = s
            else:
                work.pop(ne, None)
    return Poly(p.vars, rem)


def _s_poly(f, g):
    (ef, cf), (eg, cg) = f.leading(), g.leading()
    l = _lcm(ef, eg)
    mf = Poly(f.vars, {tuple(x - y for x, y in zip(l, ef)): Fraction(1) / cf})
    mg = Poly(g.vars, {tuple(x - y for x, y in zip(l, eg)): Fraction(1) / cg})
    return mf * f - mg * g


def _update(G, P, h):
    # Gebauer-Moeller pair update on generator arrival
    lt = {i: g.leading()[0] for i, g in G.items()}
    lh = h.leading()[0]
    C = sorted(G, key=lambda i: _grevlex_key(_lcm(lt[i], lh)))
    D = []
    for n, i in enumerate(C):
        li = _lcm(lt[i], lh)
        if _coprime(lt[i], lh):
            D.append(i)
            continue
        rest = C[n + 1:]
        if any(_divides(_lcm(lt[j], lh), li) for j in rest) or any(
            _divides(_lcm(lt[j], lh), li) and _lcm(lt[j], lh) != li for j in D
        ):
            continue
        D.append(i)
    D = [i for i in D if not _coprime(lt[i], lh)]
    kept = []
    for (i, j) in P:
        l = _lcm(lt[i], lt[j])
        if not _divides(lh, l) or _lcm(lt[i], lh) == l or _lcm(lt[j], lh) == l:
            kept.append((i, j))
    new = max(G, default=-1) + 1
    pairs = kept + [(i, new) for i in D]
    return new, pairs


def buchberger(gens):
    """Reduced Groebner basis of the ideal the generators span."""
    gens = [g for g in gens if g is not None]
    if not gens:
        raise ValueError("nonempty generator list required")
    vars = gens[0].vars
    work = []
    for g in gens:
        if g.vars != vars:
            raise ValueError("generators use different variable lists")
        if not g.is_zero():
            work.append(g)
    if not work:
        return []

    G = {}
    P = []
    for g in work:
        g = normal_form(g, list(G.values()))
        if g.is_zero():
            continue
        idx, P = _update(G, P, g)
        G[idx] = g.monic()
    while P:
        P.sort(key=lambda ij: _grevlex_key(_lcm(G[ij[0]].leading()[0], G[ij[1]].leading()[0])))
        i, j = P.pop(0)
        r = normal_form(_s_poly(G[i], G[j]), list(G.values()))
        if r.is_zero():
            continue
        idx, P = _update(G, P, r)
        G[idx] = r.monic()

    # interreduce: drop dominated leads, then reduce every tail
    basis = list(G.values())
    leads = [g.leading()[0] for g in basis]
    keep = [
        g for n, g in enumerate(basis)
        if not any(
            m != n and _divides(leads[m], leads[n])
            and (leads[m] != leads[n] or m < n)
            for m in range(len(basis))
        )
    ]
    out = []
    for n, g in enumerate(keep):
        rest = keep[:n] + keep[n + 1:]
        r = normal_form(g, rest)
        if not r.is_zero():
            out.append(r.monic())
    out.sort(key=lambda g: _grevlex_key(g.leading()[0]))
    return out


def ideal_member(p, gb):
    return normal_form(p, gb).is_zero()


def standard_monomials(gb):
    """Exponents outside the leading ideal, sorted by the term order.

    Only defined when the quotient is a finite-dimensional vector space;
    the monomials returned are its canonical basis.
    """
    if not gb:
        raise ValueError("zero ideal has an infinite-dimensional quotient")
    vars = gb[0].vars
    leads = [g.leading()[0] for g in gb]
    bounds = []
    for i, v in enumerate(vars):
        pures = [
            e[i] for e in leads if all(x == 0 for j, x in enumerate(e) if j != i)
        ]
        if not pures:
            raise ValueError(
                "leading ideal has no pure power of %s: quotient is not "
                "finite-dimensional" % v
            )
        bounds.append(min(pures))
    out = [
        e
        for e in iter_product(*[range(b) for b in bounds])
        if not any(_divides(l, e) for l in leads)
    ]
    return sorted(out, key=_grevlex_key)


def quotient_dimension(gb):
    """Number of standard monomials of a zero-dimensional leading ideal."""
    return len(standard_monomials(gb))

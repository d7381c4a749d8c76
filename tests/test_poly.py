"""Polynomials, parsing, monomial orders, reduced bases."""

import random
from fractions import Fraction

import pytest

from jbkit.schemes.poly import Poly, _grevlex_key, parse_poly
from jbkit.schemes.groebner import (
    buchberger,
    ideal_member,
    normal_form,
    quotient_dimension,
    standard_monomials,
)

V = ("x", "y")
F = Fraction


# -- parsing ---------------------------------------------------------------

def test_parse_round_trip():
    for text in ("x^2+y^3", "1/2*x*y - 3", "-x + x", "(x+y)^2", "2 - -x"):
        p = parse_poly(text, V)
        again = parse_poly(str(p), V)
        assert p == again


def test_parse_expands_products():
    p = parse_poly("(x+y)*(x-y)", V)
    assert p == parse_poly("x^2-y^2", V)


def test_parse_rational_coefficients():
    p = parse_poly("2/3*x^2", V)
    assert p.terms == {(2, 0): F(2, 3)}


def test_parse_errors():
    with pytest.raises(ValueError, match="unknown variable 'z'"):
        parse_poly("x+z", V)
    with pytest.raises(ValueError, match="syntax error at position"):
        parse_poly("x++", V)
    with pytest.raises(ValueError, match="syntax error"):
        parse_poly("x^y", V)


def test_str_uses_order():
    assert str(parse_poly("x^2+y^3", V)) == "y^3 + x^2"


# -- arithmetic --------------------------------------------------------------

def test_diff_and_subs():
    p = parse_poly("x^2*y + y^2", V)
    assert p.diff("x") == parse_poly("2*x*y", V)
    assert p.diff("y") == parse_poly("x^2 + 2*y", V)
    q = p.subs({"x": parse_poly("y", V)})
    assert q == parse_poly("y^3 + y^2", V)


def test_subs_introduces_variables():
    p = parse_poly("x^2", V)
    W = ("x", "y", "z")
    q = p.subs({"x": parse_poly("x+z", W)})
    assert q.vars == W
    assert q == parse_poly("(x+z)^2", W)


def test_grevlex_prefers_the_lower_last_exponent():
    a, b = (1, 2), (2, 1)
    assert _grevlex_key(a) < _grevlex_key(b)
    c, d = (0, 3), (2, 1)
    assert _grevlex_key(c) < _grevlex_key(d)


# -- reduced bases -------------------------------------------------------------

def test_buchberger_spec_examples():
    gb = buchberger([parse_poly("x^2+y^3", V), parse_poly("x*y", V)])
    lead = [g.leading()[0] for g in gb]
    # leading terms pairwise indivisible and every generator monic
    for i, a in enumerate(lead):
        for j, b in enumerate(lead):
            if i != j:
                assert not all(ai <= bi for ai, bi in zip(a, b))
    for g in gb:
        assert g.leading()[1] == 1


def test_buchberger_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    xs = sympy.symbols("x y z")
    W = ("x", "y", "z")
    for trial in range(6):
        gens = []
        for _ in range(3):
            terms = {}
            for _ in range(4):
                e = tuple(rng.randrange(3) for _ in W)
                terms[e] = F(rng.randrange(-4, 5))
            p = Poly(W, {e: c for e, c in terms.items() if c})
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        gb = buchberger(gens)
        sgens = [
            sum(
                sympy.Rational(c) * xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2]
                for e, c in g.terms.items()
            )
            for g in gens
        ]
        sgb = sympy.groebner(sgens, *xs, order="grevlex")
        ours = set()
        for g in gb:
            ours.add(
                sympy.expand(
                    sum(
                        sympy.Rational(c) * xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2]
                        for e, c in g.terms.items()
                    )
                )
            )
        theirs = {sympy.expand(e / sympy.LC(e, order="grevlex", gens=xs)) for e in sgb.exprs}
        assert ours == theirs, "trial %d" % trial


def test_normal_form_idempotent_and_membership():
    rng = random.Random(5)
    gens = [parse_poly("x^2+y^3", V), parse_poly("x*y-y", V)]
    gb = buchberger(gens)
    for _ in range(10):
        terms = {
            (rng.randrange(4), rng.randrange(4)): F(rng.randrange(-3, 4))
            for _ in range(4)
        }
        p = Poly(V, {e: c for e, c in terms.items() if c})
        r = normal_form(p, gb)
        assert normal_form(r, gb) == r
        # membership: p - r reduces to zero, and any combination of the
        # generators is a member
        assert ideal_member(p - r, gb)
        combo = gens[0] * p + gens[1] * Poly(V, {(1, 1): F(2)})
        assert ideal_member(combo, gb)
        assert normal_form(combo, gb).is_zero()


def test_zero_dimensional_quotient():
    gb = buchberger([parse_poly("x^2", V), parse_poly("y^3", V)])
    assert quotient_dimension(gb) == 6
    sm = standard_monomials(gb)
    assert len(sm) == 6
    assert (0, 0) in sm and (1, 2) in sm


def test_quotient_dimension_errors():
    with pytest.raises(ValueError, match="nonempty generator list"):
        buchberger([])
    gb = buchberger([parse_poly("x", V)])
    with pytest.raises(ValueError, match="no pure power of y"):
        quotient_dimension(gb)
    with pytest.raises(ValueError, match="zero ideal"):
        quotient_dimension([])


def test_buchberger_zero_ideal():
    assert buchberger([Poly.zero(V), Poly.zero(V)]) == []

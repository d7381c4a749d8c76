"""Lyndon bases, normal forms, and adjoint monomials."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jbkit.freelie import (
    Alphabet,
    AssocPoly,
    FreeLieElement,
    LyndonBasisElement,
    ad_monomial,
    ad_monomial_sym,
    dynkin_lie,
    expand_associative,
    is_lyndon,
    lie_normal_form,
    lyndon_basis,
    lyndon_words,
    standard_factorization,
)

XY = Alphabet(["x", "y"])
XYZ = Alphabet(["X", "Y", "Z"])


def moebius(n):
    result, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def witt_dimension(k, n):
    """Oracle: number of Lyndon words of length n over k letters."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += moebius(d) * k ** (n // d)
    return total // n


def random_element(rng, alphabet, max_degree):
    terms = {}
    for n in range(1, max_degree + 1):
        for elt in lyndon_basis(alphabet, n):
            if rng.random() < 0.4:
                terms[elt.word] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return FreeLieElement(alphabet, terms)


def test_lyndon_counts_match_witt_oracle():
    expected2 = [witt_dimension(2, n) for n in range(1, 9)]
    assert expected2 == [2, 1, 2, 3, 6, 9, 18, 30]
    for n in range(1, 9):
        assert len(lyndon_basis(XY, n)) == expected2[n - 1]
    for n in range(1, 6):
        assert len(lyndon_basis(XYZ, n)) == witt_dimension(3, n)


def test_lyndon_words_are_lyndon_and_sorted():
    words = list(lyndon_words(2, 6))
    assert words == sorted(words)
    assert all(is_lyndon(w) for w in words)
    assert len(words) == len(set(words))


def test_standard_factorization_parts_are_lyndon():
    for w in lyndon_words(3, 7):
        if len(w) < 2:
            continue
        u, v = standard_factorization(w)
        assert u + v == w
        assert is_lyndon(u) and is_lyndon(v)
        assert u < v


def test_bracketing_example():
    elt = LyndonBasisElement(XY, XY.parse_word("xyy"))
    assert elt.bracketing() == (("x", "y"), "y")
    assert elt.standard_factorization() == (XY.parse_word("xy"), XY.parse_word("y"))


def test_expand_example():
    # [x,[x,y]] = xxy - 2 xyx + yxx
    e = lie_normal_form(XY, ("x", ("x", "y")))
    p = expand_associative(e)
    w = XY.parse_word
    assert p.terms == {w("xxy"): 1, w("xyx"): -2, w("yxx"): 1}


def test_normal_form_roundtrip_on_basis():
    for n in range(1, 7):
        for elt in lyndon_basis(XY, n):
            nf = lie_normal_form(XY, elt.bracketing())
            assert nf.terms == {elt.word: Fraction(1)}


def test_normal_form_rejects_non_lie():
    p = AssocPoly(XY, {XY.parse_word("xy"): 1})  # xy alone is not a commutator
    from jbkit.freelie import _extract_lie

    with pytest.raises(ValueError):
        _extract_lie(p)


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(20260814)
    for _ in range(6):
        a = random_element(rng, XY, 3)
        b = random_element(rng, XY, 3)
        c = random_element(rng, XY, 2)
        assert a.bracket(b) + b.bracket(a) == FreeLieElement.zero(XY)
        jac = (
            a.bracket(b.bracket(c))
            + b.bracket(c.bracket(a))
            + c.bracket(a.bracket(b))
        )
        assert jac.is_zero()
        assert a.bracket(a).is_zero()


def test_expand_is_injective_linear_section():
    rng = random.Random(5)
    for _ in range(6):
        e = random_element(rng, XY, 5)
        assert lie_normal_form(XY, e) == e


def test_ad_monomial_examples():
    e = ad_monomial(XY, {1}, 1, 1)
    assert e == lie_normal_form(XY, ("x", "y"))
    e = ad_monomial(XY, {2}, 1, 1)
    assert e == lie_normal_form(XY, ("y", "x"))
    # ad({1,2}, 2, 1) = ad(x)ad(x)(y) = [x,[x,y]]
    e = ad_monomial(XY, {1, 2}, 2, 1)
    assert e == lie_normal_form(XY, ("x", ("x", "y")))


def test_ad_monomial_sym_degree_one_each():
    sym = ad_monomial_sym({1}, 1, 1)
    assert sym.alphabet.labels == ("X1", "Y1")
    assert sym == lie_normal_form(sym.alphabet, ("X1", "Y1"))


def test_ad_monomial_sym_collapses_to_plain_on_equal_slots():
    # substituting equal elements into every slot recovers ad_monomial
    from jbkit.freelie import evaluate_lie

    sym = ad_monomial_sym({1, 3}, 2, 2)
    x = FreeLieElement.generator(XY, "x")
    y = FreeLieElement.generator(XY, "y")
    assignment = {"X1": x, "X2": x, "Y1": y, "Y2": y}
    value = evaluate_lie(
        sym,
        assignment,
        bracket=lambda a, b: a.bracket(b),
        add=lambda a, b: a + b,
        scale=lambda c, a: a.scale(c),
        zero=FreeLieElement.zero(XY),
    )
    assert value == ad_monomial(XY, {1, 3}, 2, 2)


def test_dynkin_identity_on_lie_elements():
    rng = random.Random(99)
    for _ in range(5):
        e = random_element(rng, XY, 5)
        assert dynkin_lie(expand_associative(e)) == e


def test_dynkin_rejects_non_lie():
    with pytest.raises(ValueError):
        dynkin_lie(AssocPoly(XY, {XY.parse_word("xx"): 1}))
    with pytest.raises(ValueError):
        dynkin_lie(AssocPoly.unit(XY))


def test_serialization_round_trip():
    rng = random.Random(3)
    e = random_element(rng, XY, 4)
    items = e.to_terms()
    assert all(set(item) == {"word", "coeff"} for item in items)
    assert FreeLieElement.from_terms(XY, items) == e


# -- capped products ------------------------------------------------------------

ABC = Alphabet(["a", "b", "c"])
_polys = st.dictionaries(
    st.lists(st.integers(0, 2), max_size=4).map(tuple),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=8,
).map(lambda terms: AssocPoly(ABC, terms))


def _all_pairs_product(a, b):
    """Reference: every pair formed, no cap."""
    out = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
    return AssocPoly(a.alphabet, out)


@settings(max_examples=60, deadline=None, database=None)
@given(_polys, _polys, st.one_of(st.none(), st.integers(-1, 14)))
def test_capped_product_is_truncated_product_on_three_letters(a, b, cap):
    full = _all_pairs_product(a, b)
    assert a.mul(b) == full
    if cap is None:
        assert a.mul(b, cap) == full
    else:
        assert a.mul(b, cap) == full.truncate(cap)
        assert a.mul(b, cap) == a.mul(b).truncate(cap)


def test_capped_product_below_every_term_is_zero():
    a = AssocPoly(ABC, {(): 1, (1,): 2, (0, 2): -1})
    b = AssocPoly(ABC, {(): 3, (2, 2): 1})
    assert a.mul(b, -1).is_zero()
    assert a.mul(b, 0) == AssocPoly(ABC, {(): 3})
    assert a.mul(b, 1) == AssocPoly(ABC, {(): 3, (1,): 6})


# -- the shared word-sum methods ------------------------------------------

_LYNDON3 = list(lyndon_words(3, 4))
_lie_elements = st.dictionaries(
    st.sampled_from(_LYNDON3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    max_size=6,
).map(lambda terms: FreeLieElement(XYZ, terms))


@settings(max_examples=60, deadline=None, database=None)
@given(
    _lie_elements,
    _lie_elements,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(0, 5),
)
def test_word_sum_methods_commute_with_expansion(a, b, c, n):
    ex = expand_associative
    parts = a.multidegree_parts()
    assert ex(a + b) == ex(a) + ex(b)
    assert ex(a - b) == ex(a) - ex(b)
    assert ex(a.scale(c)) == ex(a).scale(c)
    assert ex(a.truncate(n)) == ex(a).truncate(n)
    assert {md: ex(part) for md, part in parts.items()} == ex(a).multidegree_parts()
    assert (a - a).is_zero() and (a + b) - b == a
    same_terms = AssocPoly(XYZ, a.terms)
    assert same_terms != a and a != same_terms
    for part in (a + b, a - b, a.scale(c), a.truncate(n), *parts.values()):
        assert type(part) is FreeLieElement


@settings(max_examples=40, deadline=None, database=None)
@given(_lie_elements)
def test_multidegree_parts_are_the_nonzero_multidegree_parts(a):
    for elt in (a, expand_associative(a)):
        parts = elt.multidegree_parts()
        mds = {XYZ.multidegree(w) for w in elt.terms}
        assert parts == {
            md: type(elt)(XYZ, {w: c for w, c in elt.terms.items() if XYZ.multidegree(w) == md})
            for md in mds
        }
        for part in parts.values():
            assert type(part) is type(elt) and not part.is_zero()


def test_zero_and_generator_return_the_class_they_are_called_on():
    for cls in (AssocPoly, FreeLieElement):
        assert type(cls.zero(XYZ)) is cls
        assert type(cls.generator(XYZ, "Y")) is cls
        assert cls.generator(XYZ, "Y").terms == {(1,): 1}
    assert AssocPoly.zero(XYZ) != FreeLieElement.zero(XYZ)

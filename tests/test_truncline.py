"""The one truncated line R[t]/(t^N) and the one sparse sum.

ArtinElt (R = Q) and TruncPoly (R = Q[x]) share their arithmetic, so
over constant polynomials the two must agree slot for slot.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jbkit.exactnum import SparseRatMatrix, _add_maps
from jbkit.liecore import ArtinLine
from jbkit.schemes import Poly, TruncPoly

V = ("x",)

_SLOTS = st.sampled_from(
    [Fraction(0)] * 3 + [Fraction(n, d) for n in (-2, -1, 1, 3) for d in (1, 2)]
)


@st.composite
def _pairs(draw):
    n = draw(st.integers(1, 4))
    xs, ys = (draw(st.lists(_SLOTS, min_size=n, max_size=n)) for _ in range(2))
    return n, xs, ys


def _constants(tp):
    """The slots of a TruncPoly whose slots are all constant, as Fractions."""
    assert all(p.is_constant() for p in tp.coeffs)
    return tuple(p.terms.get((0,), Fraction(0)) for p in tp.coeffs)


@settings(max_examples=50, deadline=None, database=None)
@given(_pairs(), _SLOTS)
def test_artin_and_trunc_poly_agree_over_constants(pair, c):
    n, xs, ys = pair
    ring = ArtinLine(n)
    a, b = ring.element(xs), ring.element(ys)
    ta, tb = (TruncPoly(V, n, [Poly.constant(V, v) for v in vs]) for vs in (xs, ys))
    for artin, trunc in (
        (a + b, ta + tb), (a - b, ta - tb), (-a, -ta), (a * b, ta * tb),
        (a.scale(c), ta.scale(c)), (c * a, c * ta),
    ):
        assert artin.coeffs == _constants(trunc)
    for x, y, tx, ty in ((a, b, ta, tb), (a, a, ta, ta)):
        assert (x == y) == (tx == ty)
    assert bool(a) == bool(ta) == (not ta.is_zero())
    assert a.valuation() == ta.valuation()
    assert a.in_maximal_ideal() == ta.in_maximal_ideal()


def test_a_zero_line_element_is_falsy():
    assert not TruncPoly.zero(V, 3) and not ArtinLine(3).zero() and not Poly.zero(V)
    assert TruncPoly.from_poly(Poly.constant(V, 1), 3, power=2) and Poly.constant(V, 1)
    assert hash(TruncPoly.zero(V, 2)) == hash(TruncPoly(V, 2, [Poly.zero(V)]))


@pytest.mark.parametrize("n", [1, 3])
def test_t_power_rule_on_both_lines(n):
    ring, p = ArtinLine(n), Poly.variable(V, "x")
    for k in (-1, -3):
        with pytest.raises(ValueError, match="negative power of t"):
            ring.t_power(k, 2)
        with pytest.raises(ValueError, match="negative power of t"):
            TruncPoly.from_poly(p, n, power=k)
    for k in (n, n + 1):
        assert ring.t_power(k, 2) == ring.zero()
        assert TruncPoly.from_poly(p, n, power=k) == TruncPoly.zero(V, n)
    assert ring.t_power(n - 1, 2).valuation() == n - 1
    assert TruncPoly.from_poly(p, n, power=n - 1).coeffs[n - 1] == p


def test_add_maps_drops_zeros_and_keeps_first_insertion_order():
    u = {"a": Fraction(1), "b": Fraction(2), "z": Fraction(0), "c": Fraction(3)}
    v = {"d": Fraction(4), "b": Fraction(-2), "e": Fraction(0), "a": Fraction(1)}
    out = _add_maps(u, v)
    assert list(out.items()) == [("a", 2), ("c", 3), ("d", 4)]
    assert u["b"] == 2 and "a" not in _add_maps({}, {"a": Fraction(0)})
    ring = ArtinLine(2)
    one, t = ring.one(), ring.t_power(1)
    assert list(_add_maps({0: one, 1: t}, {2: t, 0: -one})) == [1, 2]


def test_sparse_sums_share_the_order_of_add_maps():
    m = SparseRatMatrix(2, 2, {(1, 1): 1, (0, 0): 2})
    s = m.add(SparseRatMatrix(2, 2, {(0, 1): 5, (1, 1): -1}))
    assert list(s.entries.items()) == [((0, 0), 2), ((0, 1), 5)]
    x, y = Poly.variable(("x", "y"), "x"), Poly.variable(("x", "y"), "y")
    assert list(((x + y) + (y.scale(-1) + x * x)).terms) == [(1, 0), (2, 0)]

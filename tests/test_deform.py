"""Deformed equations, gauges, gluing identities, order-by-order lifts."""

import random
import re
from fractions import Fraction
from math import comb

import pytest

from jbkit.jbcomplex import Sela, assemble, deformation_ring_dimension, jb_assemble
from jbkit.liecore import StructLie, exp_conjugate
from jbkit.schemes import (
    GlueGauge,
    KSCochain,
    Poly,
    TruncPoly,
    compose_gauges,
    deformed_square_defects,
    gauge_triple_check,
    glue_check,
    koszul_resolution,
    ks_cochain,
    lift_deformation,
    milnor_dim,
    milnor_quotient_dgla,
    package_one_chart,
    parse_poly,
)

V = ("x",)
W = ("x", "y")
F = Fraction


# -- truncated series ---------------------------------------------------------

def test_trunc_poly_arithmetic():
    a = TruncPoly.from_poly(parse_poly("x+1", V), 3, power=1)
    b = TruncPoly.from_poly(parse_poly("x", V), 3)
    assert (a * b).coeffs[1] == parse_poly("x^2+x", V)
    assert (a * a).coeffs[2] == parse_poly("x^2+2*x+1", V)
    assert (a * a).valuation() == 2
    assert b.shift(2).coeffs[2] == parse_poly("x", V)
    assert str(b.shift(2)) == "x*t^2"
    assert str(TruncPoly.zero(V, 3)) == "0"
    assert (a - a).is_zero()


def test_trunc_poly_truncates():
    a = TruncPoly.from_poly(parse_poly("x", V), 2, power=1)
    assert (a * a).is_zero()
    with pytest.raises(ValueError, match="different truncated lines"):
        a + TruncPoly.zero(V, 3)
    with pytest.raises(ValueError, match="cannot divide"):
        a.shift(-1)


# -- gauges ------------------------------------------------------------------

def _rnd_tp(rng, order, val=1):
    coeffs = [Poly.zero(W)] * order
    for k in range(val, order):
        terms = {
            (rng.randrange(3), rng.randrange(2)): F(rng.randrange(-3, 4))
            for _ in range(2)
        }
        coeffs[k] = Poly(W, {e: c for e, c in terms.items() if c})
    return TruncPoly(W, order, coeffs)


def _rnd_gauge(rng, order):
    return GlueGauge(
        W,
        order,
        fields={"x": _rnd_tp(rng, order), "y": _rnd_tp(rng, order)},
        twist=(_rnd_tp(rng, order), _rnd_tp(rng, order)),
    )


def test_gauge_jacobi_and_action():
    rng = random.Random(7)
    order = 4
    g1, g2, g3 = (_rnd_gauge(rng, order) for _ in range(3))
    jac = (
        g1.bracket(g2.bracket(g3))
        + g2.bracket(g3.bracket(g1))
        + g3.bracket(g1.bracket(g2))
    )
    assert jac.is_zero()
    op = _rnd_tp(rng, order, val=0)
    lhs = g1.bracket(g2).apply(op)
    rhs = g1.apply(g2.apply(op)) - g2.apply(g1.apply(op))
    assert (lhs - rhs).is_zero()


def test_compose_gauges_group_law():
    rng = random.Random(8)
    order = 4
    g1, g2 = _rnd_gauge(rng, order), _rnd_gauge(rng, order)
    comp = compose_gauges(g1, g2)
    op = _rnd_tp(rng, order, val=0)
    br = lambda g, o: g.apply(o)
    left = exp_conjugate(comp, op, bracket=br)
    right = exp_conjugate(g1, exp_conjugate(g2, op, bracket=br), bracket=br)
    assert (left - right).is_zero()


def test_gauge_triple_cocycle():
    rng = random.Random(9)
    order = 4
    g1, g2 = _rnd_gauge(rng, order), _rnd_gauge(rng, order)
    comp = compose_gauges(g1, g2)
    assert gauge_triple_check(g1, g2, comp)["holds"]
    off = comp + GlueGauge(W, order, fields={"x": _rnd_tp(rng, order, val=2)})
    report = gauge_triple_check(g1, g2, off)
    assert not report["holds"]
    assert report["residual"]


def test_gauge_needs_factor_of_t():
    flat = GlueGauge(W, 3, fields={"x": TruncPoly.from_poly(parse_poly("x", W), 3)})
    with pytest.raises(ValueError, match="factor of t"):
        compose_gauges(flat, GlueGauge.zero(W, 3))
    # the same message from every entry point, whichever gauge is flat
    message = re.escape(
        "gauge is not trivial to first order: every component needs a factor of t"
    )
    flat = GlueGauge(V, 3, fields={"x": TruncPoly.from_poly(parse_poly("x", V), 3)})
    zero = GlueGauge.zero(V, 3)
    ks = ks_cochain(parse_poly("x^2", V), Poly.zero(V), 3)
    with pytest.raises(ValueError, match=message):
        glue_check(ks, ks, flat)
    for gauges in ((flat, zero, zero), (zero, flat, zero), (zero, zero, flat)):
        with pytest.raises(ValueError, match=message):
            gauge_triple_check(*gauges)
    for gauges in ((flat, zero), (zero, flat)):
        with pytest.raises(ValueError, match=message):
            compose_gauges(*gauges)


# -- chart gluing ---------------------------------------------------------------

def test_glue_check_scaling_field():
    # conjugating x^2 by exp(t x d/dx) rescales the equation by 1 + 2t
    f = parse_poly("x^2", V)
    psi = GlueGauge(
        V, 2, fields={"x": TruncPoly.from_poly(parse_poly("x", V), 2, power=1)}
    )
    rho = ks_cochain(f, parse_poly("2*x^2", V), 2)
    sigma = ks_cochain(f, Poly.zero(V), 2)
    report = glue_check(rho, sigma, psi)
    assert report["holds"]
    assert report["conjugate"] == "x^2 + 2*x^2*t"

    bad = glue_check(sigma, sigma, psi)
    assert not bad["holds"]
    assert bad["residual"] == "2*x^2*t"


def test_glue_check_rejects_mismatched_data():
    f = parse_poly("x^2", V)
    other = parse_poly("x^3", V)
    psi = GlueGauge.zero(V, 2)
    with pytest.raises(ValueError, match="different equations"):
        glue_check(ks_cochain(f, Poly.zero(V), 2), ks_cochain(other, Poly.zero(V), 2), psi)
    with pytest.raises(ValueError, match="truncation orders"):
        glue_check(ks_cochain(f, Poly.zero(V), 2), ks_cochain(f, Poly.zero(V), 2), GlueGauge.zero(V, 3))


def test_ks_cochain_validation():
    f = parse_poly("x^2", V)
    with pytest.raises(ValueError, match="different variables"):
        ks_cochain(f, parse_poly("y", W), 2)
    with pytest.raises(ValueError, match="vanish at t = 0"):
        KSCochain(f, 2, TruncPoly.from_poly(parse_poly("x", V), 2))
    ks = ks_cochain(f, parse_poly("x", V), 3)
    assert ks.direction() == parse_poly("x", V)
    assert str(ks.operator()) == "x^2 + x*t"


def test_square_defects_on_longer_complex():
    K = koszul_resolution([parse_poly("x", W), parse_poly("y", W)])
    order = 3
    one = TruncPoly.from_poly(parse_poly("1", W), order, power=1)
    phi = {
        K.start: tuple(
            tuple(one for _ in range(K.rank(K.start)))
            for _ in range(K.rank(K.start + 1))
        )
    }
    defects = deformed_square_defects(K, phi, order)
    assert defects
    deg, row, col, entry = defects[0]
    assert deg == K.start and "t" in entry


# -- the quotient chart algebra --------------------------------------------------

def test_milnor_quotient_dgla_cusp():
    lie, monos, gb = milnor_quotient_dgla(parse_poly("x^2+y^3", W))
    assert [str(m) for m in monos] == ["1", "y"]
    assert lie.names == ["a:1", "a:y", "b:1", "b:y"]
    assert lie.degrees == [0, 0, 1, 1]
    i_a1 = lie.index["a:1"]
    i_ay = lie.index["a:y"]
    i_by = lie.index["b:y"]
    # y * y = y^2 reduces into the ideal, so that bracket dies
    assert lie.bracket_basis(i_ay, i_by) == {}
    assert lie.bracket_basis(i_a1, i_by) == {i_by: F(-1)}
    assert lie.bracket_basis(i_by, i_a1) == {i_by: F(1)}


def test_package_one_chart_reduces_direction():
    ks = ks_cochain(parse_poly("x^2+y^3", W), parse_poly("x^2+y", W), 2)
    sela, cocycle = package_one_chart(ks)
    lie = sela.algebra((0,))
    elt = cocycle.phi[(0,)]
    names = {lie.names[i] for i in elt.coeffs}
    assert names == {"b:y"}


def _hull_dimension(lie, order):
    return deformation_ring_dimension(jb_assemble(Sela((0,), {(0,): lie}, {}, order)))


@pytest.mark.parametrize("order", [2, 3, 4, 5])
@pytest.mark.parametrize("vars, poly", [
    (W, "x^2+y^3"), (W, "x^3+y^4"), (("x", "y", "z"), "x^2+y^2+z^2"), (W, "x^3+y^3"),
    (W, "x^2*y+y^4"), (W, "x^4+y^5"), (W, "x^4+y^5+x^2*y^3"), (("x", "y", "z"), "x^3+y^3+z^3"),
])
def test_isolated_singularity_has_a_smooth_hull(vars, poly, order):
    # T^2 = 0, so the hull is Q[[s_1..s_tau]] and its truncation mod m^N
    # has dimension C(tau + N - 1, N - 1), tau the Tjurina number
    f = parse_poly(poly, vars)
    tau = milnor_dim(f)
    assert _hull_dimension(milnor_quotient_dgla(f)[0], order) == comb(tau + order - 1, order - 1)


def test_smooth_hull_needs_the_brackets():
    # without its brackets the cusp's algebra is abelian, and the count
    # leaves the smooth hull's 6
    lie = milnor_quotient_dgla(parse_poly("x^2+y^3", W))[0]
    assert _hull_dimension(lie, 3) == 6
    assert _hull_dimension(StructLie(lie.names, lie.degrees, {}), 3) == 8


# -- lifting ---------------------------------------------------------------------

def test_lift_cusp_direction():
    rep = lift_deformation(parse_poly("x^2+y^3", W), parse_poly("y", W), 2, 4)
    assert rep.succeeded
    assert [s.power for s in rep.steps] == [2, 3]
    assert all(s.vanishes for s in rep.steps)
    assert str(rep.equation()) == "y^3 + x^2 + y*t"
    assert "extends" in rep.describe()


def test_lift_reduces_to_canonical_representative():
    rep = lift_deformation(parse_poly("x^2+y^3", W), parse_poly("x^2+y", W), 2, 4)
    assert rep.succeeded
    assert str(rep.equation()) == "y^3 + x^2 + y*t"


def test_lift_smooth_chart_is_trivial():
    rep = lift_deformation(parse_poly("x", W), parse_poly("y", W), 2, 3)
    assert rep.succeeded
    assert str(rep.equation()) == "x"


def test_lift_reads_no_series_table(monkeypatch):
    # a one-chart datum has no triangle, the only place a step reads a table
    f, g = parse_poly("y^4+x^2*y", W), parse_poly("y^2", W)
    monkeypatch.setattr(assemble, "_TABLE_CACHE", {})
    cold = lift_deformation(f, g, 2, 5)
    assert assemble._TABLE_CACHE == {}
    assemble._shared_table(4)
    warm = lift_deformation(f, g, 2, 5)
    assert cold.describe() == warm.describe()
    assert str(cold.equation()) == "y^4 + x^2*y + y^2*t"


def test_lift_argument_validation():
    f = parse_poly("x^2+y^3", W)
    g = parse_poly("y", W)
    with pytest.raises(ValueError, match="order >= 2"):
        lift_deformation(f, g, 1, 3)
    with pytest.raises(ValueError, match="must exceed"):
        lift_deformation(f, g, 3, 3)
    with pytest.raises(ValueError, match="^the equation must be nonzero, got f = 0$"):
        lift_deformation(parse_poly("0", W), g, 2, 3)

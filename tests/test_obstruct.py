"""Extension steps: residuals, canonical classes, lifts."""

import random
from fractions import Fraction

import pytest

from jbkit import exactnum
from jbkit.liecore import ArtinLine, LieElement
from jbkit.jbcomplex import (
    coboundary_gluing,
    factories,
    obstruction,
    special_cocycle,
    verify_cocycle,
)
from jbkit.jbcomplex.assemble import chain_differential
from jbkit.jbcomplex.cocycle import SpecialCocycle, exp_chain, family_chain

F = Fraction


def _tautological(order):
    sela = factories.obstructed_triangle(order)
    ring = ArtinLine(order)
    line = sela.algebra((0, 1))
    taut = LieElement.from_dict(line, ring, {"u0": [0, 1] + [0] * (order - 2)})
    return sela, special_cocycle(
        sela, {}, {(0, 1): taut, (0, 2): taut, (1, 2): taut}
    )


# -- the genuinely obstructed family ---------------------------------------

def test_obstructed_triangle_class():
    sela, sc = _tautological(2)
    res = obstruction(sc, 3)
    assert not res.vanishes
    assert res.lift is None
    tri = (0, 1, 2)
    e13 = sela.algebra(tri).index["e13"]
    assert res.cls == {(tri, e13): F(1, 2)}
    assert "e13 1/2" in res.describe(sela)


def test_class_is_pad_independent():
    # replacing the zero padding moves the raw residual but the reduced
    # class is a canonical coset representative and must not move
    sela, sc = _tautological(2)
    plain = obstruction(sc, 3)
    line = sela.algebra((0, 1))
    ring3 = ArtinLine(3)
    pad_psi = {
        (0, 1): LieElement.from_dict(line, ring3, {"u0": [0, 0, F(5, 3)]}),
        (1, 2): LieElement.from_dict(line, ring3, {"u0": [0, 0, -2]}),
    }
    padded = obstruction(sc, 3, pad=({}, pad_psi))
    assert padded.residual != plain.residual
    assert padded.cls == plain.cls


def test_pad_must_sit_at_top_power():
    sela, sc = _tautological(2)
    line = sela.algebra((0, 1))
    ring3 = ArtinLine(3)
    low = {(0, 1): LieElement.from_dict(line, ring3, {"u0": [0, 1, 0]})}
    with pytest.raises(ValueError, match="supported at t\\^2 only"):
        obstruction(sc, 3, pad=({}, low))


def test_only_one_step_is_linear():
    _, sc = _tautological(2)
    with pytest.raises(
        ValueError, match="only the one-step extension 2 -> 3 is linear"
    ):
        obstruction(sc, 4)


# -- vanishing classes and lifts --------------------------------------------

def test_nonabelian_cech_family_lifts():
    rng = random.Random(3)
    sela = factories.nonabelian_triangle(2)
    ring = ArtinLine(2)
    g = sela.algebra((0,))

    def rnd_edge():
        return LieElement.from_dict(
            g, ring, {n: [0, F(rng.randint(-2, 2))] for n in g.names}
        )

    p01, p12 = rnd_edge(), rnd_edge()
    sc = special_cocycle(sela, {}, {(0, 1): p01, (0, 2): p01 + p12, (1, 2): p12})
    res = obstruction(sc, 3)
    assert res.vanishes
    assert res.lift is not None
    assert verify_cocycle(res.lift.sela, res.lift) == []


def test_mc_pair_forced_correction():
    # y t extends only after the bracket square is compensated; the
    # solver must find exactly -x t^2 / 2 on both vertices
    sela = factories.mc_pair(2)
    ring = ArtinLine(2)
    g = sela.algebra((0,))
    phi = LieElement.from_dict(g, ring, {"y": [0, 1]})
    sc = special_cocycle(sela, {(0,): phi, (1,): phi}, {})
    res = obstruction(sc, 3)
    assert res.vanishes
    ring3 = ArtinLine(3)
    want = LieElement.from_dict(g, ring3, {"y": [0, 1, 0], "x": [0, 0, F(-1, 2)]})
    for v in [(0,), (1,)]:
        assert (res.lift.phi[v] - want).is_zero()
    assert res.power == 2
    assert "vanishes at t^2" in res.describe(sela)


def test_abelian_residual_identically_zero():
    sela = factories.abelian_triangle(2)
    ring = ArtinLine(2)
    g = sela.algebra((0,))
    a = LieElement.from_dict(g, ring, {"a0": [0, 1]})
    sc = special_cocycle(sela, {}, {(0, 1): a, (0, 2): a + a, (1, 2): a})
    res = obstruction(sc, 3)
    assert res.vanishes
    assert not res.residual
    assert res.lift is not None


def test_two_routes_same_class():
    # the same order-2 family padded two different ways is still the
    # same family; both routes must report the identical obstruction
    sela, sc = _tautological(2)
    line = sela.algebra((0, 1))
    ring3 = ArtinLine(3)
    routes = []
    for pads in (
        None,
        ({}, {(0, 2): LieElement.from_dict(line, ring3, {"u0": [0, 0, 7]})}),
        ({}, {(0, 1): LieElement.from_dict(line, ring3, {"u0": [0, 0, F(-1, 4)]}),
              (1, 2): LieElement.from_dict(line, ring3, {"u0": [0, 0, 1]})}),
    ):
        routes.append(obstruction(sc, 3, pad=pads).cls)
    assert routes[0] == routes[1] == routes[2]


def test_lift_chain_extends_the_family():
    # the lifted family must restrict back to the original modulo t^2
    sela = factories.mc_pair(2)
    ring = ArtinLine(2)
    g = sela.algebra((0,))
    phi = LieElement.from_dict(g, ring, {"y": [0, 1]})
    sc = special_cocycle(sela, {(0,): phi, (1,): phi}, {})
    lift = obstruction(sc, 3).lift
    for v in [(0,), (1,)]:
        for idx, a in lift.phi[v].coeffs.items():
            low = sc.phi[v].coeffs.get(idx)
            for q in range(2):
                want = low.coeffs[q] if low is not None else 0
                assert a.coeffs[q] == want


# -- one elimination per extending step ----------------------------------------

def test_one_elimination_per_step_obstructed_or_not(monkeypatch):
    calls = []
    eliminate = exactnum._eliminate

    def counted(rows):
        calls.append(rows)
        return eliminate(rows)

    monkeypatch.setattr(exactnum, "_eliminate", counted)
    sela, sc = _tautological(2)
    res = obstruction(sc, 3)
    assert len(calls) == 1
    tri = (0, 1, 2)
    assert res.cls == {(tri, sela.algebra(tri).index["e13"]): F(1, 2)}

    del calls[:]
    sela = factories.mc_pair(2)
    phi = LieElement.from_dict(sela.algebra((0,)), ArtinLine(2), {"y": [0, 1]})
    sc = special_cocycle(sela, {(0,): phi, (1,): phi}, {})
    res = obstruction(sc, 3)
    assert res.vanishes and res.cls == {} and res.lift is not None
    assert len(calls) == 1


# -- the residual is the one-factor part of d(exp w) ---------------------------

def _chain_route(cocycle, to_order, pad):
    """Residual the long way: the padded family's chain w, exponentiated,
    under the full differential; only one-factor t^k terms may survive."""
    from jbkit.jbcomplex.obstruct import _extended

    big = cocycle.sela.with_order(to_order)
    ring = ArtinLine(to_order)
    family = {
        s: _extended(elt, big.algebra(s), ring)
        for s, elt in {**cocycle.phi, **cocycle.psi}.items()
    }
    for s, elt in {**pad[0], **pad[1]}.items():
        family[s] = family[s] + elt if s in family else elt
    d = chain_differential(big, exp_chain(big, family_chain(big, family)))
    assert all(len(f) == 1 and q == to_order - 1 for f, q in d), "outside the one-factor t^k sector"
    return {f[0]: c for (f, _), c in d.items()}


def _seeded(sela, simplices, degree, ring, powers, rng):
    """{simplex: element} of the given degree, seeded coefficients at the given t powers."""
    out = {}
    for s in simplices:
        lie = sela.algebra(s)
        elt = LieElement(lie, ring, {
            i: ring.element([F(rng.randint(-3, 3), rng.randint(1, 2)) if q in powers else 0
                             for q in range(ring.order)])
            for i in lie.basis_indices(degree)
        })
        if elt.coeffs:
            out[s] = elt
    return out


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize(
    "factory",
    [factories.nonabelian_triangle, factories.mc_triangle, factories.mc_pair, factories.lie_pair],
    ids=lambda f: f.__name__,
)
def test_residual_equals_chain_route_on_gauge_families(factory, order):
    rng = random.Random(order)
    sela = factory(order)
    gauges = _seeded(sela, sela.simplices(1), 0, ArtinLine(order), range(1, order), rng)
    sc = special_cocycle(sela, {}, coboundary_gluing(sela, gauges))
    top = ArtinLine(order + 1)
    pad = (
        _seeded(sela, sela.simplices(1), 1, top, [order], rng),
        _seeded(sela, sela.simplices(2), 0, top, [order], rng),
    )
    assert pad[0] or pad[1]
    assert obstruction(sc, order + 1, pad).residual == _chain_route(sc, order + 1, pad)
    assert obstruction(sc, order + 1).residual == _chain_route(sc, order + 1, ({}, {}))


def test_residual_equals_chain_route_on_obstructed_and_corrected_families():
    _, taut = _tautological(2)
    res = obstruction(taut, 3)
    assert res.residual and res.residual == _chain_route(taut, 3, ({}, {}))

    sela = factories.mc_pair(2)
    phi = LieElement.from_dict(sela.algebra((0,)), ArtinLine(2), {"y": [0, 1]})
    sc = special_cocycle(sela, {(0,): phi, (1,): phi}, {})
    res = obstruction(sc, 3)
    assert res.residual and res.residual == _chain_route(sc, 3, ({}, {}))


def test_pad_of_the_wrong_degree_is_refused():
    sela = factories.mc_pair(2)
    phi = LieElement.from_dict(sela.algebra((0,)), ArtinLine(2), {"y": [0, 1]})
    sc = special_cocycle(sela, {(0,): phi, (1,): phi}, {})
    w = LieElement.from_dict(sela.algebra((0,)), ArtinLine(3), {"w": [0, 0, 1]})
    with pytest.raises(ValueError, match="vertex component on 0 is not homogeneous of degree 1"):
        obstruction(sc, 3, pad=({(0,): w}, {}))


def test_unvalidated_family_with_a_low_defect_is_caught():
    # y t fails flatness at t^2; smuggled past validation, the step must
    # not read a t^3 residual off a family that is already inconsistent
    sela = factories.mc_pair(3)
    phi = LieElement.from_dict(sela.algebra((0,)), ArtinLine(3), {"y": [0, 1, 0]})
    sc = SpecialCocycle(sela, {(0,): phi}, {}, {})
    with pytest.raises(AssertionError, match="defect on 0:w does not vanish below t\\^3"):
        obstruction(sc, 4)


@pytest.mark.parametrize("side, key, message", [
    (0, (0, 1), "01 is not a vertex"),
    (0, (5,), "5 is not a vertex"),
    (1, (0,), "0 is not an edge"),
    (1, (0, 5), "05 is not an edge"),
])
def test_pad_off_the_family_simplices_is_refused(side, key, message):
    # keyed by a simplex of the wrong size or by none of the cover, a pad
    # is refused by name, as special_cocycle refuses such a family
    sela = factories.mc_pair(2)
    sc = special_cocycle(sela, {}, {})
    x = LieElement.from_dict(sela.algebra((0,)), ArtinLine(3), {"x": [0, 0, 1]})
    pad = ({}, {})
    pad[side][key] = x
    with pytest.raises(ValueError, match="^%s$" % message):
        obstruction(sc, 3, pad=pad)

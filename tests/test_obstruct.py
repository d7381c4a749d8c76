"""Extension steps: residuals, canonical classes, lifts."""

import random
from fractions import Fraction

import pytest

from jbkit.exactnum import column_echelon
from jbkit.liecore import ArtinLine, LieElement
from jbkit.jbcomplex import (
    factories,
    jb_assemble,
    obstruction,
    special_cocycle,
    verify_cocycle,
)

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
    jb = jb_assemble(sela.with_order(3))
    assert verify_cocycle(jb, res.lift) == []


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

def test_class_is_reduced_only_when_the_step_is_obstructed(monkeypatch):
    from jbkit.jbcomplex import obstruct

    calls = []

    def counted(matrix):
        calls.append(matrix)
        return column_echelon(matrix)

    monkeypatch.setattr(obstruct, "column_echelon", counted)
    sela, sc = _tautological(2)
    res = obstruction(sc, 3)
    assert len(calls) == 1
    tri = (0, 1, 2)
    assert res.cls == {(tri, sela.algebra(tri).index["e13"]): F(1, 2)}

    del calls[:]
    sela = factories.mc_pair(2)
    phi = LieElement.from_dict(sela.algebra((0,)), ArtinLine(2), {"y": [0, 1]})
    res = obstruction(special_cocycle(sela, {(0,): phi, (1,): phi}, {}), 3)
    assert res.vanishes and res.cls == {} and res.lift is not None
    assert calls == []

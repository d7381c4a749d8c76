"""Families on gluing data: flatness, transport, composition, coboundaries."""

import random
from fractions import Fraction

import pytest

from jbkit.liecore import ArtinLine, LieElement
from jbkit.jbcomplex.assemble import sort_word
from jbkit.jbcomplex.cocycle import chain_mul, element_chain, exp_chain
from jbkit.jbcomplex import (
    bernoulli_transport,
    coboundary_gluing,
    factories,
    jb_assemble,
    special_cocycle,
    verify_cocycle,
)

F = Fraction


def log1p(ring, c):
    # log(1 + c) for c in the maximal ideal
    acc = ring.zero()
    term = ring.one()
    for k in range(1, ring.order):
        term = term * c
        acc = acc + term.scale(F((-1) ** (k + 1), k))
    return acc


# -- explicit solutions --------------------------------------------------

def test_dg_pair_log_ratio_family():
    # phi_i = y c_i solves flatness on each vertex; the edge element
    # x (log(1+c0) - log(1+c1)) transports one into the other
    sela = factories.dg_pair(4)
    ring = ArtinLine(4)
    g = sela.algebra((0,))
    c0 = ring.element([0, 1, 0, 0])
    c1 = ring.element([0, 0, 1, 0])
    u = log1p(ring, c0) - log1p(ring, c1)
    phi = {
        (0,): LieElement.from_dict(g, ring, {"y": c0}),
        (1,): LieElement.from_dict(g, ring, {"y": c1}),
    }
    psi = {(0, 1): LieElement.from_dict(g, ring, {"x": u})}
    sc = special_cocycle(sela, phi, psi)
    assert verify_cocycle(jb_assemble(sela), sc) == []


def test_dg_pair_wrong_edge_fails_transport():
    sela = factories.dg_pair(4)
    ring = ArtinLine(4)
    g = sela.algebra((0,))
    phi = {
        (0,): LieElement.from_dict(g, ring, {"y": [0, 1, 0, 0]}),
        (1,): LieElement.from_dict(g, ring, {"y": [0, 0, 1, 0]}),
    }
    with pytest.raises(ValueError, match="transport fails on edge 01"):
        special_cocycle(sela, phi, {})


def test_mc_pair_corrected_solution():
    # y t alone fails flatness at t^2; subtracting x t^2 / 2 repairs it
    sela = factories.mc_pair(3)
    ring = ArtinLine(3)
    g = sela.algebra((0,))
    good = LieElement.from_dict(g, ring, {"y": [0, 1, 0], "x": [0, 0, F(-1, 2)]})
    sc = special_cocycle(sela, {(0,): good, (1,): good}, {})
    assert verify_cocycle(jb_assemble(sela), sc) == []

    bad = LieElement.from_dict(g, ring, {"y": [0, 1, 0]})
    with pytest.raises(ValueError, match="flatness fails on vertex 0"):
        special_cocycle(sela, {(0,): bad, (1,): bad}, {})


def test_obstructed_triangle_composition_failure():
    # the tautological edge gluing is consistent at order 2 but the
    # triple composition hits the missing commutator one order higher
    line_elt = lambda sela, e, ring: LieElement.from_dict(
        sela.algebra(e), ring, {"u0": [0, 1] + [0] * (ring.order - 2)}
    )

    sela2 = factories.obstructed_triangle(2)
    ring2 = ArtinLine(2)
    psi2 = {e: line_elt(sela2, e, ring2) for e in sela2.simplices(2)}
    sc = special_cocycle(sela2, {}, psi2)
    assert verify_cocycle(jb_assemble(sela2), sc) == []

    sela3 = factories.obstructed_triangle(3)
    ring3 = ArtinLine(3)
    psi3 = {e: line_elt(sela3, e, ring3) for e in sela3.simplices(2)}
    with pytest.raises(ValueError, match="composition fails on triangle 012"):
        special_cocycle(sela3, {}, psi3)


# -- coboundary families ---------------------------------------------------

def _random_gauge(lie, ring, rng):
    data = {}
    for name in lie.names:
        coeffs = [0] + [F(rng.randint(-3, 3)) for _ in range(ring.order - 1)]
        data[name] = ring.element(coeffs)
    return LieElement.from_dict(lie, ring, data)


@pytest.mark.parametrize("seed", range(5))
def test_coboundary_gluing_is_cocycle(seed):
    rng = random.Random(seed)
    sela = factories.nonabelian_triangle(3)
    ring = ArtinLine(3)
    g = sela.algebra((0,))
    gauges = {v: _random_gauge(g, ring, rng) for v in sela.simplices(1)}
    psi = coboundary_gluing(sela, gauges)
    sc = special_cocycle(sela, {}, psi)
    assert verify_cocycle(jb_assemble(sela), sc) == []


def _unpruned_chain_mul(sela, u, v):
    """Reference: every pair of terms formed, the tag tested afterwards."""
    out = {}
    for (wu, qu), cu in u.items():
        for (wv, qv), cv in v.items():
            if qu + qv >= sela.artin_order:
                continue
            word, sign = sort_word(sela, wu + wv)
            if word is None:
                continue
            key = (word, qu + qv)
            s = out.get(key, 0) + cu * cv * sign
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


@pytest.mark.parametrize("seed", range(3))
def test_pruned_chain_mul_matches_unpruned_in_value_and_order(seed):
    rng = random.Random(seed)
    sela = factories.nonabelian_triangle(4)
    ring = ArtinLine(4)
    g = sela.algebra((0,))
    gauges = {v: _random_gauge(g, ring, rng) for v in sela.simplices(1)}
    w = {}
    for e, val in coboundary_gluing(sela, gauges).items():
        w.update(element_chain(sela, e, val))
    assert w
    power, want_exp, fact = dict(w), {}, 1
    for k in range(1, 5):
        for key, c in power.items():
            want_exp[key] = want_exp.get(key, 0) + c / fact
        fact *= k + 1
        want = _unpruned_chain_mul(sela, power, w)
        got = chain_mul(sela, power, w)
        assert list(got.items()) == list(want.items()), k
        power = want
    assert power == {}
    want_exp = [(key, c) for key, c in want_exp.items() if c]
    assert list(exp_chain(sela, w).items()) == want_exp


def test_coboundary_gluing_with_missing_vertex():
    # vertex 1 of the pair carries the zero algebra; its gauge is
    # implicitly zero and the edge still glues
    sela = factories.lie_pair(3)
    ring = ArtinLine(3)
    g0 = sela.algebra((0,))
    a0 = LieElement.from_dict(g0, ring, {"e12": [0, 1, 0], "e13": [0, 0, 2]})
    psi = coboundary_gluing(sela, {(0,): a0})
    sc = special_cocycle(sela, {}, psi)
    assert verify_cocycle(jb_assemble(sela), sc) == []


def test_abelian_families_always_glue():
    # with all brackets zero any edge assignment transports trivially,
    # provided the triple sums telescope
    sela = factories.abelian_triangle(3)
    ring = ArtinLine(3)
    g = sela.algebra((0,))
    a = {
        (0,): LieElement.from_dict(g, ring, {"a0": [0, 1, 2]}),
        (1,): LieElement.from_dict(g, ring, {"a0": [0, -1, 0]}),
        (2,): LieElement.from_dict(g, ring, {"a0": [0, 0, 3]}),
    }
    psi = coboundary_gluing(sela, a)
    sc = special_cocycle(sela, {}, psi)
    assert verify_cocycle(jb_assemble(sela), sc) == []
    # in the abelian case the gluing is literally the difference
    for (lo, hi) in sela.simplices(2):
        diff = psi[(lo, hi)]
        expect = LieElement.from_dict(
            g, ring, {"a0": a[(lo,)].coeffs[0] - a[(hi,)].coeffs[0]}
        )
        assert (diff - expect).is_zero()


# -- input validation -------------------------------------------------------

def test_rejects_malformed_keys():
    sela = factories.mc_pair(3)
    ring = ArtinLine(3)
    g = sela.algebra((0,))
    elt = LieElement.from_dict(g, ring, {"y": [0, 1, 0]})
    with pytest.raises(ValueError, match="is not a vertex"):
        special_cocycle(sela, {(0, 1): elt}, {})
    with pytest.raises(ValueError, match="is not an edge"):
        special_cocycle(sela, {}, {(0,): elt})


def test_rejects_element_on_empty_simplex():
    sela = factories.lie_pair(2)
    ring = ArtinLine(2)
    g = sela.algebra((0,))
    stray = LieElement.from_dict(g, ring, {"e12": [0, 1]})
    with pytest.raises(ValueError, match="on 1 lives in the wrong algebra"):
        special_cocycle(sela, {(1,): stray}, {})


def test_verify_cocycle_accepts_bare_chain():
    sela = factories.abelian_triangle(2)
    jb = jb_assemble(sela)
    mono = jb.basis[-1][0]
    out = verify_cocycle(jb, {mono: F(1)})
    assert out, "a single vertex factor is not closed here"
    for label, coeff in out:
        assert isinstance(label, str) and coeff != 0


# -- the transport series ----------------------------------------------------

def test_transport_reduces_to_identity():
    sela = factories.mc_pair(3)
    ring = ArtinLine(3)
    g = sela.algebra((0,))
    x = LieElement.from_dict(g, ring, {"y": [0, 1, 0]})
    zero = LieElement.from_dict(g, ring, {})
    assert (bernoulli_transport(zero, x) - x).is_zero()


def test_transport_first_terms():
    # the series starts x - [psi, x]/2 + [psi, [psi, x]]/12
    sela = factories.nonabelian_triangle(4)
    ring = ArtinLine(4)
    g = sela.algebra((0,))
    psi = LieElement.from_dict(g, ring, {"e12": [0, 1, 0, 0]})
    x = LieElement.from_dict(g, ring, {"e23": [0, 1, 0, 0]})
    got = bernoulli_transport(psi, x)
    expect = (
        x
        - psi.bracket(x).scale(F(1, 2))
        + psi.bracket(psi.bracket(x)).scale(F(1, 12))
    )
    assert (got - expect).is_zero()

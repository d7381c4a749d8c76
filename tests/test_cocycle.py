"""Families on gluing data: flatness, transport, composition, coboundaries."""

import random
import re
from fractions import Fraction

import pytest

from jbkit.exactnum import SparseRatMatrix
from jbkit.liecore import ArtinLine, LieElement, StructLie
from jbkit.jbcomplex.assemble import factor_key, factor_parity, format_monomial
from jbkit.jbcomplex.cocycle import chain_mul, element_chain, exp_chain
from jbkit.jbcomplex import (
    bernoulli_transport,
    coboundary_gluing,
    factories,
    induced_chain_map,
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
    assert verify_cocycle(sela, sc) == []


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
    assert verify_cocycle(sela, sc) == []

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
    assert verify_cocycle(sela2, sc) == []

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
    assert verify_cocycle(sela, sc) == []


def _insertion_sort_word(sela, word):
    """Reference: insertion sort of a word with its Koszul sign; (None, 0) on an odd square."""
    items = list(word)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and factor_key(items[j - 1]) > factor_key(items[j]):
            if factor_parity(sela, items[j - 1]) and factor_parity(sela, items[j]):
                sign = -sign
            items[j - 1], items[j] = items[j], items[j - 1]
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b and factor_parity(sela, a):
            return None, 0
    return tuple(items), sign


def _sorting_chain_mul(sela, u, v):
    """Reference: every concatenated word re-sorted, in chain_mul's pair order."""
    order = sela.artin_order
    out = {}
    for (wu, qu), cu in u.items():
        for (wv, qv), cv in v.items():
            if qu + qv >= order:
                continue
            word, sign = _insertion_sort_word(sela, wu + wv)
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
        want = _sorting_chain_mul(sela, power, w)
        got = chain_mul(sela, power, w)
        assert list(got.items()) == list(want.items()), k
        power = want
    assert power == {}
    want_exp = [(key, c) for key, c in want_exp.items() if c]
    assert list(exp_chain(sela, w).items()) == want_exp


def _random_chain(sela, rng, pool, size):
    chain = {}
    while len(chain) < size:
        raw = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        word, _ = _insertion_sort_word(sela, raw)
        if word is None:
            continue
        coeff = rng.choice([1, -2, 3, F(1, 2), F(-5, 6), F(7, 4)])
        chain[(word, rng.randint(1, sela.artin_order - 1))] = coeff
    return chain


@pytest.mark.parametrize("name, order", [("dg_triangle", 4), ("mc_triangle", 3)])
@pytest.mark.parametrize("seed", range(4))
def test_merged_chain_mul_matches_sorting_reference(name, order, seed):
    sela = getattr(factories, name)(order)
    rng = random.Random(seed)
    factors = [
        (s, i) for d in (1, 2, 3) for s in sela.all_simplices(d)
        for i in range(sela.algebra(s).dim)
    ]
    # a small pool, three odd factors and three even ones, makes the same
    # factor meet itself across the two words
    odd = [f for f in factors if factor_parity(sela, f)]
    even = [f for f in factors if not factor_parity(sela, f)]
    pool = rng.sample(odd, 3) + rng.sample(even, 3)
    u = _random_chain(sela, rng, pool, 40)
    v = _random_chain(sela, rng, pool, 40)
    got = chain_mul(sela, u, v)
    assert list(got.items()) == list(_sorting_chain_mul(sela, u, v).items())
    # the cases the merge must get right all occur
    seen = {"multi": 0, "odd_square": 0, "odd_passes_odd": 0, "mixed": 0}
    for (wu, qu) in u:
        for (wv, qv) in v:
            if qu + qv >= order:
                continue
            if len(wu) > 1 and len(wv) > 1:
                seen["multi"] += 1
            odd_u = [f for f in wu if factor_parity(sela, f)]
            odd_v = [f for f in wv if factor_parity(sela, f)]
            if set(odd_u) & set(odd_v):
                seen["odd_square"] += 1
            elif any(factor_key(a) > factor_key(b) for a in odd_u for b in odd_v):
                seen["odd_passes_odd"] += 1
            if odd_u and len(odd_u) < len(wu):
                seen["mixed"] += 1
    assert all(seen.values()), seen


def _degree_preserving_map(lie, rng):
    """Random matrix with entries only between basis vectors of one degree."""
    mat = SparseRatMatrix(lie.dim, lie.dim)
    for i in range(lie.dim):
        for j in range(lie.dim):
            if lie.degrees[i] == lie.degrees[j]:
                mat[i, j] = rng.choice([0, 1, -1, 2, F(1, 2), F(-3, 2)])
    return mat


def _sorted_images(source, target, morphism, seen):
    """Reference: induced matrix entries from concatenated image words re-sorted."""
    out = {}
    for deg in source.degrees():
        rows = target.index.get(deg, {})
        entries = {}
        for col, (factors, q) in enumerate(source.basis[deg]):
            words = {(): 1}
            for simplex, b in factors:
                new = {}
                for word, c in words.items():
                    for r, w in morphism[simplex].column(b).items():
                        key = word + ((simplex, r),)
                        new[key] = new.get(key, 0) + c * w
                words = new
            for word, c in words.items():
                sorted_word, sign = _insertion_sort_word(target.sela, word)
                if sorted_word is None:
                    seen["odd_square"] += 1
                    continue
                seen["odd_swap"] += sign < 0
                seen["reordered"] += sorted_word != word
                key = (rows[(sorted_word, q)], col)
                entries[key] = entries.get(key, 0) + c * sign
        out[deg] = {key: v for key, v in entries.items() if v}
    return out


@pytest.mark.parametrize("name, order", [
    ("dg_triangle", 4), ("mc_triangle", 3), ("nonabelian_triangle", 3),
])
@pytest.mark.parametrize("seed", range(2))
def test_induced_chain_map_matches_sorted_images_entry_for_entry(name, order, seed):
    # the datum mapped to itself by random degree-preserving matrices;
    # dg_triangle has one basis vector per degree, so its maps are
    # diagonal, while the other two mix basis vectors of equal degree
    rng = random.Random(seed)
    jb = jb_assemble(getattr(factories, name)(order))
    morphism = {s: _degree_preserving_map(jb.sela.algebra(s), rng) for s in jb.sela.simplices()}
    seen = {"odd_square": 0, "odd_swap": 0, "reordered": 0}
    want = _sorted_images(jb, jb, morphism, seen)
    got = induced_chain_map(jb, jb, morphism)
    assert {deg: mat.entries for deg, mat in got.items()} == want
    if name != "dg_triangle":
        assert all(seen.values()), seen


def test_exp_chain_refuses_tags_outside_the_maximal_ideal():
    sela = factories.nonabelian_triangle(3)
    edge = sela.simplices(2)[0]
    for q in (0, -1, 3):
        mono = (((edge, 0),), q)
        with pytest.raises(ValueError, match=re.escape(format_monomial(sela, mono))):
            exp_chain(sela, {mono: 1})
    # the tags 1..N-1 are accepted
    for q in (1, 2):
        mono = (((edge, 0),), q)
        assert exp_chain(sela, {mono: 1})[mono] == 1


def test_chain_is_built_on_first_read(monkeypatch):
    from jbkit.jbcomplex import cocycle, obstruct

    rng = random.Random(4)
    sela = factories.nonabelian_triangle(3)
    ring = ArtinLine(3)
    g = sela.algebra((0,))
    psi = coboundary_gluing(sela, {v: _random_gauge(g, ring, rng) for v in sela.simplices(1)})
    built = []

    def counted(sela, w):
        built.append(len(w))
        return exp_chain(sela, w)

    monkeypatch.setattr(cocycle, "exp_chain", counted)
    sc = special_cocycle(sela, {}, psi)
    assert built == []
    res = obstruct.obstruction(sc, 4)
    assert res.vanishes and built == []  # the step reads the gluing defects only
    w = cocycle.family_chain(sela, psi)
    assert list(sc.chain.items()) == list(exp_chain(sela, w).items())
    assert sc.chain is sc.chain and len(built) == 1
    assert verify_cocycle(res.lift.sela, res.lift) == []
    assert len(built) == 2


def test_coboundary_gluing_with_missing_vertex():
    # vertex 1 of the pair carries the zero algebra; its gauge is
    # implicitly zero and the edge still glues
    sela = factories.lie_pair(3)
    ring = ArtinLine(3)
    g0 = sela.algebra((0,))
    a0 = LieElement.from_dict(g0, ring, {"e12": [0, 1, 0], "e13": [0, 0, 2]})
    psi = coboundary_gluing(sela, {(0,): a0})
    sc = special_cocycle(sela, {}, psi)
    assert verify_cocycle(sela, sc) == []


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
    assert verify_cocycle(sela, sc) == []
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
    out = verify_cocycle(sela, {mono: F(1)})
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


def test_transport_rejects_non_nilpotent():
    # [a, b] = b: ad(a)^t b = b for every t, so the series never ends
    lie = StructLie(["a", "b"], [0, 0], {(0, 1): {1: F(1)}, (1, 0): {1: F(-1)}})
    ring = ArtinLine(2)
    psi = LieElement.from_dict(lie, ring, {"a": [1, 0]})
    x = LieElement.from_dict(lie, ring, {"b": [1, 0]})
    with pytest.raises(ValueError, match="not nilpotent"):
        bernoulli_transport(psi, x)

"""The nilpotency certificate that lets assembly skip long slot selections."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from jbkit.liecore import ArtinLine, LieElement, StructLie, check_lie_axioms
from jbkit.jbcomplex import assemble, factories, jb_assemble
from jbkit.jbcomplex.cocycle import exp_chain, family_chain

ONE = Fraction(1)


def heisenberg():
    return StructLie(["x", "y", "z"], [0, 0, 0], {(0, 1): {2: ONE}, (1, 0): {2: -ONE}})


@pytest.mark.parametrize("lie,cls", [
    (StructLie([], [], {}), 0),
    (factories.abelian_lie(3), 1),
    (heisenberg(), 2),
    (factories.upper_triangular(3), 2),
    (factories.upper_triangular(4), 3),
    (factories.mc_toy(), 2),  # graded: [y, y] = w for odd y
    (factories.dg_toy(), None),
    (factories.dg_triangle(4).algebra((0, 1, 2)), None),
])
def test_nilpotency_class(lie, cls):
    assert lie.nilpotency_class() == cls
    assert lie.nilpotency_class() == cls  # the kept value


def _antisymmetric(pairs):
    out = {}
    for (a, b), c in pairs.items():
        out[(a, b)] = {c: ONE}
        out[(b, a)] = {c: -ONE}
    return out


def test_certificate_needs_no_jacobi_identity():
    # [x, y] = z, [x, z] = w, [y, w] = v: Jacobi fails on (x, y, z), yet
    # F_2 = <z, w, v>, F_3 = <w, v>, F_4 = <v> and F_5 = 0
    lie = StructLie(["x", "y", "z", "w", "v"], [0] * 5,
                    _antisymmetric({(0, 1): 2, (0, 2): 3, (1, 3): 4}))
    assert any(r.startswith("jacobi") for r in check_lie_axioms(lie))
    assert lie.nilpotency_class() == 4
    # every bracketing of n basis vectors, for n = 1..5
    trees = [None, [{a: ONE} for a in range(lie.dim)]]
    for n in range(2, 6):
        trees.append([
            w for i in range(1, n) for u in trees[i] for v in trees[n - i]
            for w in [lie.bracket_maps(u, v)] if w
        ])
    assert trees[4] and not trees[5]
    # a bracket that does not shrink: F_3 = F_2 certifies nothing
    loop = StructLie(["x", "y", "z"], [0] * 3, _antisymmetric({(0, 1): 2, (0, 2): 1}))
    assert loop.nilpotency_class() is None


def _slot_selections(sela, tri, arity):
    """Every edge-factor selection of one arity, as monomial_differential orders it."""
    a0, a1, a2 = tri
    edges = ((a0, a2), (a0, a1), (a1, a2))
    for sizes in ((j, k, arity - j - k) for j in range(arity + 1) for k in range(arity + 1 - j)):
        if sizes[2] < 0:
            continue
        parts = [
            list(combinations_with_replacement(range(sela.algebra(e).dim), n))
            for e, n in zip(edges, sizes)
        ]
        for px in parts[0]:
            for py in parts[1]:
                for pz in parts[2]:
                    yield sizes, [
                        (e, b) for e, idxs in zip(edges, (px, py, pz)) for b in idxs
                    ]


@pytest.mark.parametrize("factory,order", [
    (factories.nonabelian_triangle, 4),
    (factories.nonabelian_triangle, 5),
    (factories.dg_triangle, 4),
])
def test_skipped_slot_selections_evaluate_to_zero(factory, order):
    sela = factory(order)
    table = assemble._shared_table(order - 1)
    for tri in sela.simplices(3):
        lie = sela.algebra(tri)
        cls = lie.nilpotency_class()
        skipped = 0
        first = order if cls is None else cls + 1
        for arity in range(first, order):
            for sizes, selected in _slot_selections(sela, tri, arity):
                args = [sela.coface(s, tri).column(b) for s, b in selected]
                polar = assemble._polarized(table, *sizes)
                assert assemble._eval_polar(polar, args, lie) == {}, selected
                skipped += 1
        assert (skipped > 0) == (cls is not None)
        if cls is None:
            # nothing may be skipped here: long selections do not vanish
            assert any(
                assemble._eval_polar(
                    assemble._polarized(table, *sizes),
                    [sela.coface(s, tri).column(b) for s, b in selected], lie,
                )
                for sizes, selected in _slot_selections(sela, tri, 3)
            )


@pytest.mark.parametrize("factory,order", [
    (factories.nonabelian_triangle, 4),
    (factories.nonabelian_triangle, 5),
    (factories.mc_triangle, 4),
    (factories.obstructed_triangle, 4),
    (factories.dg_triangle, 4),
])
def test_assembly_with_and_without_certificate(factory, order, monkeypatch):
    jb = jb_assemble(factory(order))
    monkeypatch.setattr(StructLie, "nilpotency_class", lambda self: None)
    full = jb_assemble(factory(order))
    assert jb.basis == full.basis
    for deg in jb.degrees():
        got, want = jb.matrix(deg), full.matrix(deg)
        assert list(got.entries.items()) == list(want.entries.items()), deg


def test_chain_differential_with_and_without_certificate(monkeypatch):
    # exp of an arbitrary sum of vertex and edge elements: not a cycle, so
    # every family, slots of arity 2..4 included, reaches the result
    sela = factories.nonabelian_triangle(5)
    ring = ArtinLine(5)
    elements = {}
    for n, s in enumerate(sela.simplices(1) + sela.simplices(2)):
        lie = sela.algebra(s)
        elements[s] = LieElement.from_dict(lie, ring, {
            name: [0, n + 1, -i, Fraction(1, n + i + 2)] for i, name in enumerate(lie.names)
        })
    chain = exp_chain(sela, family_chain(sela, elements))
    want = assemble.chain_differential(sela, chain)
    assert any(len(factors) > 1 for factors, _ in want)
    monkeypatch.setattr(StructLie, "nilpotency_class", lambda self: None)
    got = assemble.chain_differential(sela, chain)
    assert list(want.items()) == list(got.items())

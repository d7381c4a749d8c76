"""Constant covers against their formal one-vertex models.

JB cohomology depends only on the quasi-isomorphism class of the gluing
datum.  A constant algebra g glued by signed identities over a complex X
gives a total complex quasi-isomorphic to g tensor the cochains of X,
and to g tensor H*(X) when X is formal, as contractible complexes and
spheres are.  So a contractible cover has the cohomology of g on one
vertex, and the boundary of a tetrahedron (a 2-sphere) that of
g tensor Q[e]/(e^2) with |e| = 2 on one vertex.
"""

import pytest

from jbkit.jbcomplex import factories, jb_assemble, verify_d_squared
from jbkit.liecore import StructLie

G = factories.upper_triangular(3)

TRIANGLE = [(0, 1, 2)]
FAN = [(0, 1, 2), (0, 2, 3)]
STRIP = [(0, 1, 2), (1, 2, 3), (2, 3, 4)]
SPHERE = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def _dimensions(sela):
    """The nonzero JB cohomology dimensions, by degree, after the d*d and datum checks."""
    assert sela.validate() == []
    jb = jb_assemble(sela)
    assert verify_d_squared(jb) == []
    dims = {n: jb.dimension(n) for n in jb.degrees()}
    return {n: d for n, d in dims.items() if d}


def _sphere_model(lie):
    """lie tensor H*(S^2) = Q[e]/(e^2), |e| = 2: [a e, b] = [a, b e] = [a, b] e."""
    k = lie.dim
    brackets = {}
    for (a, b), targets in lie.brackets.items():
        brackets[(a, b)] = targets
        brackets[(a + k, b)] = brackets[(a, b + k)] = {c + k: v for c, v in targets.items()}
    return StructLie(
        lie.names + [name + "e" for name in lie.names],
        lie.degrees + [d + 2 for d in lie.degrees],
        brackets,
    )


@pytest.mark.parametrize(
    "simplices, order",
    [(TRIANGLE, 3), (FAN, 3), (STRIP, 3), (TRIANGLE, 4), (FAN, 4)],
    ids=["triangle-3", "fan-3", "strip-3", "triangle-4", "fan-4"],
)
def test_contractible_cover_equals_one_vertex(simplices, order):
    vertex = _dimensions(factories.cover([(0,)], G, order))
    assert vertex == {3: {-2: 2, -1: 5}, 4: {-3: 1, -2: 4, -1: 7}}[order]
    assert _dimensions(factories.cover(simplices, G, order)) == vertex


@pytest.mark.parametrize(
    "order, want",
    [
        (3, {-2: 2, -1: 5, 0: 8, 1: 5, 2: 3}),
        (4, {-3: 1, -2: 4, -1: 13, 0: 13, 1: 14, 2: 4, 3: 1}),
    ],
)
def test_sphere_cover_equals_its_formal_model(order, want):
    model = _dimensions(factories.cover([(0,)], _sphere_model(G), order))
    assert model == want
    assert _dimensions(factories.cover(SPHERE, G, order)) == model


def test_cover_faces_and_indices():
    sela = factories.cover(FAN, G, 3)
    assert sela.indices == (0, 1, 2, 3)
    assert sela.simplices() == [
        (0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (0, 1, 2), (0, 2, 3),
    ]

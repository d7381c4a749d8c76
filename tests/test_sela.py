"""Gluing data: sign table, validation, total complex, serialization."""

import json
import re
from fractions import Fraction
from importlib import resources

import pytest

from jbkit.exactnum import SparseRatMatrix
from jbkit.liecore import StructLie
from jbkit.jbcomplex import Sela, TotalComplex, coface_sign, factories, jb_assemble


# -- sign of a codimension-one inclusion ------------------------------

def test_coface_sign_table():
    assert coface_sign((0,), (0, 1)) == 1
    assert coface_sign((1,), (0, 1)) == -1
    assert coface_sign((0,), (0, 2)) == 1
    assert coface_sign((2,), (0, 2)) == -1
    assert coface_sign((0, 1), (0, 1, 2)) == 1
    assert coface_sign((0, 2), (0, 1, 2)) == -1
    assert coface_sign((1, 2), (0, 1, 2)) == 1


def test_coface_sign_rejects_bad_pairs():
    with pytest.raises(ValueError):
        coface_sign((0,), (1, 2))
    with pytest.raises(ValueError):
        coface_sign((0, 1), (0, 1))
    with pytest.raises(ValueError):
        coface_sign((0,), (0, 1, 2))


# -- factories validate clean ------------------------------------------

@pytest.mark.parametrize(
    "factory",
    [
        factories.nonabelian_triangle,
        factories.abelian_triangle,
        factories.dg_pair,
        factories.mc_pair,
        factories.lie_pair,
        factories.zero_sela,
        factories.obstructed_triangle,
    ],
)
def test_factories_validate(factory):
    assert factory().validate() == []


# -- total complex -----------------------------------------------------

def test_single_vertex_complex():
    g = factories.upper_triangular(3)
    sela = Sela((0,), {(0,): g}, {}, 2)
    K = TotalComplex(sela)
    assert K.degrees() == [0]
    assert K.dim(0) == 3
    assert K.cohomology(0)[0] == 3


def test_lie_pair_complex():
    K = TotalComplex(factories.lie_pair())
    assert (K.dim(0), K.dim(1)) == (3, 6)
    assert K.square_defects() == []
    assert K.cohomology(0)[0] == 0
    assert K.cohomology(1)[0] == 3


def test_triangle_complex_dims_and_cohomology():
    K = TotalComplex(factories.nonabelian_triangle())
    assert [K.dim(n) for n in (0, 1, 2)] == [9, 9, 3]
    assert K.square_defects() == []
    # constants on the vertices survive; edges and the face are matched
    assert [K.cohomology(n)[0] for n in (0, 1, 2)] == [3, 0, 0]


def test_dg_pair_complex_is_exact():
    K = TotalComplex(factories.dg_pair())
    assert K.square_defects() == []
    assert [K.dim(n) for n in (0, 1, 2)] == [2, 3, 1]
    assert [K.cohomology(n)[0] for n in (0, 1, 2)] == [0, 0, 0]


def test_obstructed_triangle_complex():
    K = TotalComplex(factories.obstructed_triangle())
    assert [K.dim(n) for n in (1, 2)] == [3, 3]
    # matching edge elements across the triangle leaves one line, and
    # the commutator direction e13 is never hit
    assert K.cohomology(1)[0] == 1
    assert K.cohomology(2)[0] == 1


def _reference_total_matrices(sela):
    """Dense rebuild of the total differential from the stored matrices."""
    basis = {}
    for simplex in sela.simplices():
        lie = sela.algebra(simplex)
        for b in range(lie.dim):
            basis.setdefault(len(simplex) - 1 + lie.degrees[b], []).append((simplex, b))
    out = {}
    for n, src in basis.items():
        dst = {sb: i for i, sb in enumerate(sorted(basis.get(n + 1, []), key=lambda sb: (len(sb[0]), sb)))}
        src = sorted(src, key=lambda sb: (len(sb[0]), sb))
        dense = [[Fraction(0)] * len(src) for _ in dst]
        for col, (simplex, b) in enumerate(src):
            for (inner, outer), mat in sela.cofaces.items():
                if inner == simplex:
                    for r in range(mat.nrows):
                        if (outer, r) in dst:
                            dense[dst[outer, r]][col] += mat[r, b]
            lie = sela.algebra(simplex)
            if lie.differential is not None:
                sign = (-1) ** (len(simplex) - 1)
                for r in range(lie.dim):
                    if (simplex, r) in dst:
                        dense[dst[simplex, r]][col] += sign * lie.differential[r, b]
        out[n] = dense
    return out


def _bundled_triangle():
    data = json.loads(resources.files("jbkit").joinpath("data/triangle_sela.json").read_text())
    return Sela.from_json(data)


# the bundled triangle has no internal differentials; dg_triangle has them
@pytest.mark.parametrize("make", [_bundled_triangle, factories.dg_triangle])
def test_total_complex_matches_dense_rebuild(make):
    sela = make()
    K = TotalComplex(sela)
    want = _reference_total_matrices(sela)
    assert set(K.degrees()) == set(want)
    for n, dense in want.items():
        mat = K.matrix(n)
        assert (mat.nrows, mat.ncols) == (len(dense), K.dim(n))
        assert mat.to_dense() == dense, n
        assert all(v for v in mat.entries.values())
    assert any(not K.matrix(n).is_zero() for n in K.degrees())
    assert K.square_defects() == []


def test_zero_sela_complex_is_empty():
    K = TotalComplex(factories.zero_sela())
    assert K.degrees() == []


# the one-factor JB complex at order 2 is the total complex shifted down
# by one degree, through its own enumeration and differential
@pytest.mark.parametrize(
    "make",
    [
        factories.nonabelian_triangle,
        factories.abelian_triangle,
        factories.dg_pair,
        factories.mc_pair,
        factories.lie_pair,
        factories.obstructed_triangle,
        factories.dg_triangle,
        factories.mc_triangle,
        _bundled_triangle,
    ],
)
def test_total_complex_matches_one_factor_jb_complex(make):
    sela = make()
    K, jb = TotalComplex(sela), jb_assemble(sela.with_order(2))
    assert [n - 1 for n in K.degrees()] == jb.degrees()
    for n in K.degrees():
        src, dst = K.basis[n], K.basis.get(n + 1, [])
        assert sorted(((sb,), 1) for sb in src) == sorted(jb.basis[n - 1])
        cols, rows = jb.index[n - 1], jb.index.get(n, {})
        moved = {
            (rows[(dst[r],), 1], cols[(src[c],), 1]): v for (r, c), v in K.matrix(n).entries.items()
        }
        assert moved == jb.matrix(n - 1).entries, n


# -- validation catches broken data -------------------------------------

def _flip_coface(sela, inner, outer):
    cofaces = dict(sela.cofaces)
    cofaces[(inner, outer)] = cofaces[(inner, outer)].scale(-1)
    return Sela(sela.indices, sela.algebras, cofaces, sela.artin_order)


def test_flipped_sign_breaks_square():
    bad = _flip_coface(factories.abelian_triangle(), (0, 1), (0, 1, 2))
    probs = bad.validate()
    assert any("square" in p for p in probs)


def test_flipped_sign_refuses_total_cohomology():
    K = TotalComplex(_flip_coface(factories.abelian_triangle(), (0, 1), (0, 1, 2)))
    assert len(K.square_defects()) == 2
    with pytest.raises(ValueError, match="d\\*d does not vanish from degree 0"):
        K.cohomology(1)


def test_flipped_sign_breaks_homomorphism_rule():
    bad = _flip_coface(factories.nonabelian_triangle(), (0,), (0, 1))
    probs = bad.validate()
    assert any("homomorphism" in p for p in probs)


def test_non_homomorphism_coface_detected():
    sela = factories.nonabelian_triangle()
    g = sela.algebra((0,))
    swap = SparseRatMatrix(3, 3)
    swap[g.index["e12"], g.index["e23"]] = Fraction(1)
    swap[g.index["e23"], g.index["e12"]] = Fraction(1)
    swap[g.index["e13"], g.index["e13"]] = Fraction(1)
    cofaces = dict(sela.cofaces)
    cofaces[((0,), (0, 1))] = swap
    bad = Sela(sela.indices, sela.algebras, cofaces, sela.artin_order)
    assert any("homomorphism" in p for p in bad.validate())


def test_coface_must_commute_with_differential():
    sela = factories.dg_pair()
    stretch = SparseRatMatrix(2, 2)
    stretch[0, 0] = Fraction(1)
    stretch[1, 1] = Fraction(2)
    cofaces = dict(sela.cofaces)
    cofaces[((0,), (0, 1))] = stretch
    bad = Sela(sela.indices, sela.algebras, cofaces, sela.artin_order)
    probs = bad.validate()
    assert any("internal differential" in p for p in probs)


def test_degree_mixing_coface_detected():
    sela = factories.dg_pair()
    mix = SparseRatMatrix(2, 2)
    mix[1, 0] = Fraction(1)  # sends degree 0 to degree 1
    cofaces = dict(sela.cofaces)
    cofaces[((0,), (0, 1))] = mix
    bad = Sela(sela.indices, sela.algebras, cofaces, sela.artin_order)
    assert any("degrees" in p for p in bad.validate())


def test_degree_mixing_coface_leaves_the_total_basis():
    sela = factories.dg_pair()
    mix = SparseRatMatrix(2, 2)
    mix[1, 0] = Fraction(1)
    cofaces = dict(sela.cofaces)
    cofaces[((0,), (0, 1))] = mix
    bad = Sela(sela.indices, sela.algebras, cofaces, sela.artin_order)
    K = TotalComplex(bad)  # d is assembled on the first read of each degree
    with pytest.raises(AssertionError, match="left the enumerated basis: 0:x -> 01:y"):
        K.matrix(0)


def test_bad_algebra_reported_with_simplex_name():
    broken = StructLie(["x", "y"], [0, 0], {(0, 1): {0: Fraction(1)}})
    sela = Sela((0,), {(0,): broken}, {}, 2)
    probs = sela.validate()
    assert probs and all(p.startswith("algebra 0:") for p in probs)


# -- restriction ---------------------------------------------------------

def test_restrict_to_edge():
    sub = factories.nonabelian_triangle().restrict((0, 1))
    assert sub.simplices() == [(0,), (1,), (0, 1)]
    assert sub.validate() == []
    K = TotalComplex(sub)
    assert [K.dim(n) for n in (0, 1)] == [6, 3]


def test_restrict_rejects_unknown_index():
    with pytest.raises(ValueError):
        factories.nonabelian_triangle().restrict((0, 7))


# -- serialization -------------------------------------------------------

@pytest.mark.parametrize(
    "factory",
    [
        factories.nonabelian_triangle,
        factories.dg_pair,
        factories.lie_pair,
        factories.obstructed_triangle,
    ],
)
def test_json_roundtrip(factory):
    sela = factory()
    data = sela.to_json()
    back = Sela.from_json(data)
    assert back.to_json() == data
    assert back.validate() == []


def test_json_schema_shape():
    data = factories.lie_pair().to_json()
    assert data["indices"] == [0, 1]
    assert data["artin_order"] == 2
    assert set(data["algebras"]) == {"0", "01"}
    (entry,) = data["cofaces"]
    assert entry["from"] == "0" and entry["to"] == "01"
    assert len(entry["matrix"]) == 6 and len(entry["matrix"][0]) == 3


def test_json_multicharacter_indices():
    g = factories.abelian_lie(1)
    sela = Sela(
        (1, 10),
        {(1,): g, (10,): g, (1, 10): g},
        {
            ((1,), (1, 10)): SparseRatMatrix.identity(1),
            ((10,), (1, 10)): SparseRatMatrix.identity(1).scale(-1),
        },
        2,
    )
    data = sela.to_json()
    assert "1|10" in data["algebras"]
    back = Sela.from_json(data)
    assert back.simplices(2) == [(1, 10)]


def test_from_json_rejects_unknown_simplex_name():
    data = factories.lie_pair().to_json()
    data["algebras"]["7"] = data["algebras"]["0"]
    with pytest.raises(ValueError):
        Sela.from_json(data)


@pytest.mark.parametrize("order", [3.9, True, False, "x", None])
def test_from_json_accepts_only_an_integer_artin_order(order):
    data = factories.lie_pair(2).to_json()
    data["artin_order"] = order
    with pytest.raises(ValueError, match=r"^malformed gluing datum \(artin_order must be an "
                       r"integer, got %s\)$" % re.escape(repr(order))):
        Sela.from_json(data)
    data["artin_order"] = 4
    assert Sela.from_json(data).artin_order == 4
    del data["artin_order"]
    assert Sela.from_json(data).artin_order == 2


def test_with_order():
    sela = factories.abelian_triangle(order=2)
    assert sela.with_order(5).artin_order == 5
    assert sela.with_order(5).simplices() == sela.simplices()

"""Structure-constant algebras, artin coefficients, exp-conjugation.

The nilpotent group law examples are checked against a dense
matrix-exponential oracle over the truncated coefficient ring.
"""
import random
from fractions import Fraction
from math import factorial

import pytest

from jbkit.bch import build_table, eval_bch
from jbkit.exactnum import ONE, ZERO, SparseRatMatrix
from jbkit.freelie import Alphabet, AssocPoly, FreeLieElement, lie_normal_form
from jbkit.schemes import GlueGauge, HomDgla, HomElement, Poly, koszul_resolution, parse_poly
from jbkit.liecore import (
    ArtinLine,
    LieElement,
    StructLie,
    check_lie_axioms,
    evaluate,
    exp_conjugate,
)


# -- fixtures ---------------------------------------------------------------


def dense_unit(n, i, j):
    return [[ONE if (r, c) == (i, j) else ZERO for c in range(n)] for r in range(n)]


def heisenberg(with_rep=True):
    """Strictly upper triangular 3x3: [e12,e23] = e13, the rest zero."""
    rep = None
    if with_rep:
        rep = {"e12": dense_unit(3, 0, 1), "e23": dense_unit(3, 1, 2), "e13": dense_unit(3, 0, 2)}
    return StructLie(
        ["e12", "e23", "e13"],
        [0, 0, 0],
        {(0, 1): {2: ONE}, (1, 0): {2: -ONE}},
        rep=rep,
    )


def toy_dgla():
    """x in degree 0, y in degree 1, [x,y] = y, dx = y."""
    d = SparseRatMatrix(2, 2)
    d[1, 0] = ONE
    return StructLie(
        ["x", "y"],
        [0, 1],
        {(0, 1): {1: ONE}, (1, 0): {1: -ONE}},
        differential=d,
    )


class DenseArtinMat:
    """Square matrix with truncated-polynomial entries; oracle helper."""

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = rows

    @staticmethod
    def zero(ring, n):
        z = ring.zero()
        return DenseArtinMat(ring, [[z] * n for _ in range(n)])

    @staticmethod
    def identity(ring, n):
        m = DenseArtinMat.zero(ring, n)
        one = ring.one()
        m.rows = [
            [one if i == j else ring.zero() for j in range(n)] for i in range(n)
        ]
        return m

    def __add__(self, other):
        return DenseArtinMat(
            self.ring,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def scale(self, c):
        if not isinstance(c, Fraction):
            c = Fraction(c)
        return DenseArtinMat(self.ring, [[a.scale(c) for a in r] for r in self.rows])

    def mul(self, other):
        n = len(self.rows)
        out = DenseArtinMat.zero(self.ring, n)
        for i in range(n):
            for k in range(n):
                a = self.rows[i][k]
                if a.is_zero():
                    continue
                for j in range(n):
                    b = other.rows[k][j]
                    if not b.is_zero():
                        out.rows[i][j] = out.rows[i][j] + a * b
        return out

    def bracket(self, other):
        return self.mul(other) + other.mul(self).scale(Fraction(-1))

    def is_zero(self):
        return all(a.is_zero() for r in self.rows for a in r)

    def __eq__(self, other):
        return self.rows == other.rows


def artin_exp(m: DenseArtinMat) -> DenseArtinMat:
    acc = DenseArtinMat.identity(m.ring, len(m.rows))
    power = acc
    k = 0
    while True:
        k += 1
        power = power.mul(m)
        if power.is_zero():
            return acc
        if k > 40:
            raise AssertionError("matrix is not nilpotent")
        acc = acc + power.scale(Fraction(1, factorial(k)))


def artin_unit(ring, n, i, j, coeff) -> DenseArtinMat:
    m = DenseArtinMat.zero(ring, n)
    m.rows[i][j] = coeff
    return m


# -- artin ring -------------------------------------------------------------


def test_artin_arithmetic_truncates():
    ring = ArtinLine(3)
    t = ring.t_power(1)
    u = ring.one() + t
    v = ring.one() - t
    assert u * v == ring.element(["1", "0", "-1"])
    assert t * t * t == ring.zero()
    assert (t * t).valuation() == 2
    assert ring.zero().valuation() == 3
    assert t.in_maximal_ideal() and not u.in_maximal_ideal()
    assert ring.element([Fraction(1, 2)]).to_list() == ["1/2", "0", "0"]
    with pytest.raises(ValueError, match="truncation order"):
        ring.element(["1", "2", "3", "4"])


def test_artin_scalars_follow_the_json_rule():
    # integers, "p/q" strings and Fractions are exact; floats and bools are refused
    ring, lie = ArtinLine(2), heisenberg()
    for coeffs in ([1, Fraction(1, 2)], ["1", "1/2"], [Fraction(1), "1/2"]):
        assert ring.element(coeffs).to_list() == ["1", "1/2"]
    assert LieElement.from_dict(lie, ring, {"e12": 3}) == LieElement.from_dict(lie, ring, {"e12": "3"})
    bad = 'malformed Artin element \\(coefficient must be an integer or a "p/q" string'
    for coeffs in ([0, 0.1], [0, True]):
        with pytest.raises(ValueError, match=bad):
            ring.element(coeffs)
    with pytest.raises(ValueError, match=bad):
        LieElement.from_dict(lie, ring, {"e12": 0.5})
    with pytest.raises(ValueError, match=bad):
        ring.t_power(1, 0.5)


def test_scale_factors_follow_the_json_rule():
    # TruncElt (here ArtinElt), Poly and LieElement scale by integers,
    # Fractions and "p/q" strings exactly, and refuse floats and bools
    # instead of storing a float's binary fraction
    ring, lie = ArtinLine(2), heisenberg()
    elt = ring.element([1, 2])
    vec = LieElement.from_dict(lie, ring, {"e12": 1})
    poly = parse_poly("x+1", ("x",))
    for scale, half in (
        (elt.scale, ring.element(["1/2", 1])),
        (lambda c: c * elt, ring.element(["1/2", 1])),
        (vec.scale, LieElement.from_dict(lie, ring, {"e12": "1/2"})),
        (poly.scale, parse_poly("1/2*x+1/2", ("x",))),
        (lambda c: c * poly, parse_poly("1/2*x+1/2", ("x",))),
    ):
        assert scale(Fraction(1, 2)) == scale("1/2") == half
        assert scale(2) == scale(Fraction(2)) == scale("2")
        for bad in (0.1, 0.5, True, False):
            with pytest.raises(ValueError, match='malformed scalar \\(factor must be an integer'):
                scale(bad)
    assert type(elt.scale(-1).coeffs[0]) is Fraction and type(poly.scale(3).terms[(0,)]) is Fraction


_X = ("x",)
_ALPHABET = Alphabet(["x", "y"])
_SCALAR = 'malformed scalar \\(factor must be an integer'


def _hom_element():
    dgla = HomDgla(koszul_resolution([parse_poly("x", _X)]))
    return HomElement(dgla, 0, {0: ((parse_poly("x", _X),),)})


@pytest.mark.parametrize("build, bad, message", [
    (lambda c: SparseRatMatrix(1, 1).__setitem__((0, 0), c), 0.1, _SCALAR),
    (lambda c: SparseRatMatrix(1, 1, {(0, 0): c}), True, _SCALAR),
    (lambda c: SparseRatMatrix.identity(1).scale(c), 0.1, _SCALAR),
    (lambda c: SparseRatMatrix.from_dense([[c]]), 0.1, _SCALAR),
    (lambda c: FreeLieElement.generator(_ALPHABET, "x").scale(c), 0.1, _SCALAR),
    (lambda c: AssocPoly(_ALPHABET, {(0, 1): c}), 0.1, _SCALAR),
    (lambda c: FreeLieElement(_ALPHABET, {(0, 1): c}), True, _SCALAR),
    (lambda c: Poly(_X, {(1,): c}), 0.1, _SCALAR),
    (lambda c: Poly.constant(_X, c), 0.1, _SCALAR),
    (lambda c: GlueGauge(_X, 2).scale(c), 0.1, _SCALAR),
    (lambda c: _hom_element().scale(c), 0.1, _SCALAR),
    (lambda c: StructLie(["x", "y", "z"], [0, 0, 0], {(0, 1): {2: c}, (1, 0): {2: -1}}),
     0.1, _SCALAR),
    (lambda e: Poly(_X, {(e,): 1}), 2.5, "bad exponent vector"),
    (lambda e: Poly(_X, {(e,): 1}), True, "bad exponent vector"),
], ids=[
    "matrix-setitem", "matrix-entries", "matrix-scale", "matrix-from-dense", "wordsum-scale",
    "assoc-poly", "free-lie-element", "poly", "poly-constant", "glue-gauge-scale",
    "hom-element-scale", "struct-lie-bracket", "poly-float-exponent", "poly-bool-exponent",
])
def test_constructors_and_scale_refuse_floats_and_bools(build, bad, message):
    # each once stored 0.1 as 3602879701896397/36028797018963968, True as
    # 1, or read the exponent 2.5 as 2 and True as 1
    build(1)
    with pytest.raises(ValueError, match=message):
        build(bad)


def test_artin_operators_refuse_non_artin_operands():
    ring = ArtinLine(3)
    elt = ring.element(["1", "2", "0"])
    assert Fraction(2) * elt == ring.element(["2", "4", "0"])
    for op in (
        lambda: elt * Fraction(2),
        lambda: elt + 1,
        lambda: elt - Fraction(1, 2),
        lambda: 1 + elt,
        lambda: elt * "t",
    ):
        with pytest.raises(TypeError):
            op()
    other = ArtinLine(4).one()
    for op in (lambda: elt + other, lambda: elt - other, lambda: elt * other):
        with pytest.raises(ValueError, match="mixed artin rings"):
            op()


def test_maximal_ideal_products_vanish_at_order():
    ring = ArtinLine(4)
    rng = random.Random(7)
    for _ in range(20):
        elts = [
            ring.element([0] + [Fraction(rng.randint(-3, 3)) for _ in range(3)])
            for _ in range(4)
        ]
        prod = elts[0]
        for e in elts[1:]:
            prod = prod * e
        assert prod.is_zero()


# -- axiom checking ---------------------------------------------------------


def test_abelian_algebra_passes():
    lie = StructLie(["a", "b"], [0, 0], {})
    assert check_lie_axioms(lie) == []


def test_heisenberg_passes_with_representation():
    assert check_lie_axioms(heisenberg()) == []


def test_toy_dgla_passes():
    assert check_lie_axioms(toy_dgla()) == []


def test_corrupted_constant_reports_jacobi_triple():
    lie = heisenberg(with_rep=False)
    lie.brackets[(0, 2)] = {0: ONE}  # [e12,e13] = e12 breaks Jacobi
    lie.brackets[(2, 0)] = {0: -ONE}
    report = check_lie_axioms(lie)
    assert any(v.startswith("jacobi") for v in report)
    assert any("e23" in v for v in report if v.startswith("jacobi"))


def test_asymmetric_table_reports_antisymmetry():
    lie = StructLie(
        ["a", "b", "c"], [0, 0, 0], {(0, 1): {2: ONE}, (1, 0): {2: ONE}}
    )
    report = check_lie_axioms(lie)
    assert any(v.startswith("antisymmetry") for v in report)


def test_differential_violations_reported():
    d = SparseRatMatrix(2, 2)
    d[0, 1] = ONE  # degree 1 -> degree 0
    lie = StructLie(["x", "y"], [0, 1], {}, differential=d)
    report = check_lie_axioms(lie)
    assert any(v.startswith("differential") for v in report)

    d2 = SparseRatMatrix(2, 2)
    d2[1, 0] = ONE
    lie2 = StructLie(["x", "y"], [0, 1], {(0, 0): {}}, differential=d2)
    lie2.brackets[(0, 0)] = {0: ONE}  # [x,x] = x: even self-bracket and Leibniz break
    report2 = check_lie_axioms(lie2)
    assert any(v.startswith("antisymmetry") for v in report2)
    assert any(v.startswith("leibniz") for v in report2)


def test_broken_rep_is_detected():
    lie = heisenberg()
    lie.rep["e13"] = dense_unit(3, 2, 0)
    report = check_lie_axioms(lie)
    assert any(v.startswith("rep: bracket mismatch") for v in report)

    lie2 = heisenberg()
    lie2.rep["e13"] = dense_unit(3, 0, 1)  # duplicate of e12
    report2 = check_lie_axioms(lie2)
    assert any("not faithful" in v for v in report2)


def test_json_roundtrip_completes_mirror_brackets():
    data = {
        "basis": [
            {"name": "e12", "degree": 0},
            {"name": "e23", "degree": 0},
            {"name": "e13", "degree": 0},
        ],
        "brackets": [{"a": "e12", "b": "e23", "c": "e13", "coeff": "1"}],
    }
    lie = StructLie.from_json(data)
    assert check_lie_axioms(lie) == []
    assert lie.bracket_basis(1, 0) == {2: -ONE}
    again = StructLie.from_json(lie.to_json())
    assert again.brackets == lie.brackets
    assert again.names == lie.names


def test_json_roundtrip_with_differential():
    lie = toy_dgla()
    again = StructLie.from_json(lie.to_json())
    assert check_lie_axioms(again) == []
    assert again.differential == lie.differential


# -- element arithmetic and evaluation ---------------------------------------


def test_evaluate_linear_and_bracket_basics():
    lie = heisenberg()
    ring = ArtinLine(3)
    ab = Alphabet(["x", "y"])
    x = FreeLieElement.generator(ab, "x")
    u = LieElement.from_dict(lie, ring, {"e12": ring.t_power(1)})
    v = LieElement.from_dict(lie, ring, {"e13": ring.t_power(1)})
    assert evaluate(x, {"x": u, "y": v}) == u
    # e13 is central, so [X,Y] evaluates to zero
    assert evaluate(x.bracket(FreeLieElement.generator(ab, "y")), {"x": u, "y": v}).is_zero()


def test_evaluate_rejects_mixed_algebras():
    lie = heisenberg()
    ring = ArtinLine(3)
    other = ArtinLine(2)
    ab = Alphabet(["x", "y"])
    x = FreeLieElement.generator(ab, "x")
    u = LieElement.from_dict(lie, ring, {"e12": "1"})
    v = LieElement.from_dict(lie, other, {"e23": "1"})
    with pytest.raises(ValueError, match="mixed"):
        evaluate(x, {"x": u, "y": v})


def test_evaluate_names_the_generator_without_image():
    lie = heisenberg()
    ring = ArtinLine(3)
    ab = Alphabet(["x", "y", "z"])
    x, y = FreeLieElement.generator(ab, "x"), FreeLieElement.generator(ab, "y")
    u = LieElement.from_dict(lie, ring, {"e12": ring.t_power(1)})
    v = LieElement.from_dict(lie, ring, {"e23": ring.t_power(1)})
    with pytest.raises(ValueError, match=r"no image for generators \['y'\]"):
        evaluate(x.bracket(y), {"x": u, "z": v})
    # a generator the element never uses needs no image
    assert evaluate(x.bracket(y), {"x": u, "y": v}) == u.bracket(v)


def test_group_law_on_heisenberg_matches_matrix_exponentials():
    lie = heisenberg()
    ring = ArtinLine(3)
    t = ring.t_power(1)
    u = LieElement.from_dict(lie, ring, {"e12": t})
    v = LieElement.from_dict(lie, ring, {"e23": t})
    table = build_table(2)
    combined = eval_bch(table, u, v, nilpotency_order=3)
    expected = LieElement.from_dict(
        lie, ring, {"e12": t, "e23": t, "e13": ring.t_power(2, Fraction(1, 2))}
    )
    assert combined == expected

    def to_matrix(elt):
        m = DenseArtinMat.zero(ring, 3)
        for idx, c in elt.coeffs.items():
            name = lie.names[idx]
            rep = lie.rep[name]
            for i in range(3):
                for j in range(3):
                    if rep[i][j]:
                        m.rows[i][j] = m.rows[i][j] + c.scale(rep[i][j])
        return m

    lhs = artin_exp(to_matrix(u)).mul(artin_exp(to_matrix(v)))
    assert lhs == artin_exp(to_matrix(combined))


def test_evaluate_agrees_with_normal_form_route():
    lie = heisenberg()
    ring = ArtinLine(4)
    ab = Alphabet(["x", "y"])
    expr = ("x", ("x", "y"))
    nf = lie_normal_form(ab, expr)
    u = LieElement.from_dict(lie, ring, {"e12": ring.t_power(1), "e23": ring.t_power(2)})
    v = LieElement.from_dict(lie, ring, {"e23": ring.t_power(1)})
    direct = u.bracket(u.bracket(v))
    assert evaluate(nf, {"x": u, "y": v}) == direct


def test_maximal_ideal_flag_on_elements():
    lie = heisenberg()
    ring = ArtinLine(2)
    u = LieElement.from_dict(lie, ring, {"e12": ring.t_power(1)})
    w = LieElement.from_dict(lie, ring, {"e12": "1"})
    assert u.in_maximal_ideal()
    assert not w.in_maximal_ideal()


# -- exponential conjugation --------------------------------------------------


def test_conjugation_by_zero_and_by_commuting_elements():
    ring = ArtinLine(2)
    d = artin_unit(ring, 2, 1, 1, ring.one())
    zero = DenseArtinMat.zero(ring, 2)
    assert exp_conjugate(zero, d) == d
    # diagonal matrices commute
    other = artin_unit(ring, 2, 0, 0, ring.t_power(1))
    assert exp_conjugate(other, d) == d


def test_conjugation_two_term_example():
    ring = ArtinLine(2)
    psi = artin_unit(ring, 2, 0, 1, ring.t_power(1))
    d = artin_unit(ring, 2, 1, 1, ring.one())
    expected = d + artin_unit(ring, 2, 0, 1, ring.t_power(1))
    assert exp_conjugate(psi, d) == expected


def test_conjugation_is_a_group_action_through_the_table():
    ring = ArtinLine(3)
    rng = random.Random(23)
    table = build_table(2)

    def rand_strict_upper():
        m = DenseArtinMat.zero(ring, 3)
        for i in range(3):
            for j in range(i + 1, 3):
                m.rows[i][j] = ring.element(
                    [0, Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))]
                )
        return m

    for _ in range(10):
        psi1 = rand_strict_upper()
        psi2 = rand_strict_upper()
        d = DenseArtinMat.zero(ring, 3)
        for i in range(3):
            for j in range(3):
                d.rows[i][j] = ring.element([Fraction(rng.randint(-2, 2)), 0, 0])
        lhs = exp_conjugate(psi1, exp_conjugate(psi2, d))
        combined = eval_bch(table, psi1, psi2, nilpotency_order=3)
        assert lhs == exp_conjugate(combined, d)


def test_conjugation_rejects_non_nilpotent():
    ring = ArtinLine(2)
    # [psi, d] = d keeps reproducing d: never terminates, must be caught
    psi = artin_unit(ring, 2, 0, 0, ring.one())
    d = artin_unit(ring, 2, 0, 1, ring.one())
    with pytest.raises(ValueError, match="not nilpotent"):
        exp_conjugate(psi, d)

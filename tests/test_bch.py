"""Graded BCH table against an independent associative-logarithm oracle.

The recursion solves for the Lie components through their homogeneous
parts (ad beta)^k x, (ad beta)^k y in the associative span; the oracle
takes log(exp x exp y) there instead and never touches the recursion.
Both run on the same integer word products, so those are checked on
their own against a plain Fraction reference.  Low-degree components are
also frozen against the classical hand-computed coefficients, and the
CLI's table output against its bytes.
"""
import contextlib
import hashlib
import io
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from jbkit.bch import (
    BCH_ALPHABET,
    BCH_ALPHABET3,
    bch_oracle,
    bch_oracle_trivariate,
    build_table,
    eval_bch,
    exp_assoc,
    log_assoc,
    _compose_trivariate,
)
from jbkit.cli import run
from jbkit.exactnum import SparseRatMatrix, bernoulli_normalized
from jbkit.freelie import Alphabet, AssocPoly, FreeLieElement, evaluate_lie, lie_normal_form


X = FreeLieElement.generator(BCH_ALPHABET, "x")
Y = FreeLieElement.generator(BCH_ALPHABET, "y")


def test_low_degree_components_match_hand_values():
    table = build_table(4)
    assert table.bigraded(1, 0) == X
    assert table.bigraded(0, 1) == Y
    assert table.bigraded(0, 0).is_zero()
    half = Fraction(1, 2)
    assert table.bigraded(1, 1) == X.bracket(Y).scale(half)
    twelfth = Fraction(1, 12)
    assert table.bigraded(2, 1) == lie_normal_form(
        BCH_ALPHABET, [(twelfth, ("x", ("x", "y")))]
    )
    assert table.bigraded(1, 2) == lie_normal_form(
        BCH_ALPHABET, [(twelfth, ("y", ("y", "x")))]
    )
    assert table.bigraded(2, 2) == lie_normal_form(
        BCH_ALPHABET, [(Fraction(-1, 24), ("y", ("x", ("x", "y"))))]
    )


def test_single_letter_tails_vanish():
    table = build_table(6)
    for n in range(2, 7):
        assert table.bigraded(n, 0).is_zero()
        assert table.bigraded(0, n).is_zero()


def _assert_recursion_agrees_with_log_oracle(degree):
    table = build_table(degree)
    oracle = bch_oracle(degree)
    keys = set(table.bidegree) | set(oracle)
    zero = FreeLieElement.zero(BCH_ALPHABET)
    for i, j in sorted(keys):
        assert table.bigraded(i, j) == oracle.get((i, j), zero), (i, j)


def test_recursion_agrees_with_log_oracle_through_degree_six():
    _assert_recursion_agrees_with_log_oracle(6)


def test_recursion_agrees_with_log_oracle_through_degree_nine():
    _assert_recursion_agrees_with_log_oracle(9)


def test_one_x_many_y_components_follow_bernoulli_pattern():
    # the slice linear in the first letter is C_j ad(y)^j(x)
    table = build_table(6)
    term = X
    for j in range(6):
        expected = term.scale(bernoulli_normalized(j))
        assert table.bigraded(1, j) == expected
        term = Y.bracket(term)
    # in particular the odd Bernoulli zeros kill whole components
    assert table.bigraded(1, 3).is_zero()
    assert table.bigraded(3, 1).is_zero()


def test_swap_and_negate_reversal():
    table = build_table(5)
    neg_x = X.scale(Fraction(-1))
    neg_y = Y.scale(Fraction(-1))
    for (i, j), part in table.bidegree.items():
        swapped = evaluate_lie(
            table.bigraded(j, i),
            {"x": neg_y, "y": neg_x},
            bracket=lambda a, b: a.bracket(b),
            add=lambda a, b: a + b,
            scale=lambda c, a: a.scale(c),
            zero=FreeLieElement.zero(BCH_ALPHABET),
        )
        assert swapped == part.scale(Fraction(-1)), (i, j)


def test_table_refuses_out_of_range_requests():
    table = build_table(3)
    with pytest.raises(ValueError, match="beyond table cap"):
        table.bigraded(2, 2)
    with pytest.raises(ValueError, match="not built"):
        table.trigraded(1, 1, 0)


def test_trigraded_low_components():
    table = build_table(4, tri=True)
    x3 = FreeLieElement.generator(BCH_ALPHABET3, "x")
    y3 = FreeLieElement.generator(BCH_ALPHABET3, "y")
    z3 = FreeLieElement.generator(BCH_ALPHABET3, "z")
    half = Fraction(1, 2)
    assert table.trigraded(1, 0, 0) == x3
    assert table.trigraded(0, 1, 0) == y3
    assert table.trigraded(0, 0, 1) == z3
    assert table.trigraded(1, 1, 0) == x3.bracket(y3).scale(half)
    assert table.trigraded(0, 1, 1) == y3.bracket(z3).scale(half)
    assert table.trigraded(1, 0, 1) == x3.bracket(z3).scale(half)


def test_composition_matches_triple_log_oracle():
    cap = 5
    composed = _compose_trivariate(build_table(cap))
    oracle = bch_oracle_trivariate(cap)
    zero = FreeLieElement.zero(BCH_ALPHABET3)
    for key in sorted(set(composed) | set(oracle)):
        assert composed.get(key, zero) == oracle.get(key, zero), key


def test_exp_log_roundtrip_in_associative_span():
    x = AssocPoly.generator(BCH_ALPHABET, "x")
    y = AssocPoly.generator(BCH_ALPHABET, "y")
    p = x + y.scale(Fraction(2, 3)) + x.mul(y, 5)
    assert log_assoc(exp_assoc(p, 5), 5) == p.truncate(5)
    with pytest.raises(ValueError, match="constant term"):
        exp_assoc(AssocPoly.unit(BCH_ALPHABET), 3)
    with pytest.raises(ValueError, match="constant term"):
        log_assoc(x, 3)


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["bch", "--max-degree", "8"], "98951af2c59a0e8b"),
        (["bch", "--max-degree", "6", "--tri"], "d26398a7e1156b7c"),
        (["bch", "--max-degree", "9"], "9394e17df69e61f9"),
        (["bch", "--max-degree", "7", "--tri"], "5fda7b741404b213"),
    ],
)
def test_cli_table_bytes_are_pinned(argv, prefix):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == prefix


# -- the integer word products against a plain Fraction reference ----------

ABC = Alphabet(["a", "b", "c"])
_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=12)
_words = st.lists(st.integers(0, 2), max_size=3).map(tuple)
_caps = st.integers(-1, 14)
# a power of three one-letter words has 3^k words of length k, so the
# series tests stop at caps whose powers stay a few thousand words
_series_caps = st.integers(-1, 8)


def _ref_mul(a: dict, b: dict, cap) -> dict:
    """Every pair formed in Fractions, then the words above cap dropped."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            out[wa + wb] = out.get(wa + wb, Fraction(0)) + ca * cb
    return {
        w: c for w, c in out.items() if c and (cap is None or len(w) <= cap)
    }


def _ref_series(u: dict, cap: int, coeff, acc: dict) -> dict:
    """acc + sum_k coeff(k) u^k, each power truncated above cap."""
    total = dict(acc)
    power = {(): Fraction(1)}
    k = 0
    while True:
        k += 1
        power = _ref_mul(power, u, cap)
        if not power:
            return {w: c for w, c in total.items() if c}
        for w, c in power.items():
            total[w] = total.get(w, Fraction(0)) + coeff(k) * c


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.dictionaries(_words, _coeffs, max_size=6),
    st.dictionaries(_words, _coeffs, max_size=6),
    st.one_of(st.none(), _caps),
)
def test_product_matches_fraction_reference(a, b, cap):
    got = AssocPoly(ABC, a).mul(AssocPoly(ABC, b), cap)
    assert got.terms == _ref_mul(a, b, cap)
    assert all(type(c) is Fraction for c in got.terms.values())


@settings(max_examples=30, deadline=None, database=None)
@given(
    st.dictionaries(_words.filter(len), _coeffs, min_size=1, max_size=3),
    _series_caps,
)
def test_exp_and_log_match_fraction_reference(u, cap):
    p = AssocPoly(ABC, u)
    u = p.terms
    want_exp = _ref_series(u, cap, lambda k: Fraction(1, factorial(k)), {(): Fraction(1)})
    assert exp_assoc(p, cap).terms == want_exp
    want_log = _ref_series(u, cap, lambda k: Fraction((-1) ** (k + 1), k), {})
    assert log_assoc(p + AssocPoly.unit(ABC), cap).terms == want_log


class MatElt:
    """Minimal bracket-capable wrapper so eval_bch can run on matrices."""

    def __init__(self, m):
        self.m = m

    def __add__(self, other):
        return MatElt(self.m.add(other.m))

    def scale(self, c):
        return MatElt(self.m.scale(Fraction(c)))

    def bracket(self, other):
        ab = self.m.mul(other.m)
        ba = other.m.mul(self.m)
        return MatElt(ab.add(ba.scale(Fraction(-1))))

    def __eq__(self, other):
        return self.m.add(other.m.scale(Fraction(-1))).is_zero()


def unit_matrix(n, i, j):
    m = SparseRatMatrix(n, n)
    m[i, j] = Fraction(1)
    return MatElt(m)


def test_eval_on_commuting_matrices_is_plain_sum():
    table = build_table(4)
    u = unit_matrix(4, 0, 2)
    v = unit_matrix(4, 1, 3)
    assert u.bracket(v) == u.scale(0)
    assert eval_bch(table, u, v, nilpotency_order=4) == u + v


def test_eval_reproduces_nilpotent_group_law():
    table = build_table(4)
    e12 = unit_matrix(3, 0, 1)
    e23 = unit_matrix(3, 1, 2)
    e13 = unit_matrix(3, 0, 2)
    expected = e12 + e23 + e13.scale(Fraction(1, 2))
    assert eval_bch(table, e12, e23, nilpotency_order=3) == expected
    # second argument zero collapses the series to the first argument
    assert eval_bch(table, e12, e12.scale(0), nilpotency_order=3) == e12


def test_eval_matches_matrix_exponentials():
    # strictly upper triangular 4x4: products of length 4 vanish
    table = build_table(4, tri=True)
    u = unit_matrix(4, 0, 1) + unit_matrix(4, 2, 3).scale(Fraction(1, 3))
    v = unit_matrix(4, 1, 2).scale(Fraction(2)) + unit_matrix(4, 0, 3)
    w = unit_matrix(4, 1, 3) + unit_matrix(4, 0, 1).scale(Fraction(-1, 2))

    def mat_exp(e):
        acc = SparseRatMatrix.identity(4)
        power = SparseRatMatrix.identity(4)
        k = 0
        while True:
            k += 1
            power = power.mul(e.m)
            if power.is_zero():
                break
            acc = acc.add(power.scale(Fraction(1, factorial(k))))
        return acc

    combined = eval_bch(table, u, v, nilpotency_order=4)
    assert mat_exp(combined) == mat_exp(u).mul(mat_exp(v))
    triple = eval_bch(table, u, v, w, nilpotency_order=4)
    assert mat_exp(triple) == mat_exp(u).mul(mat_exp(v)).mul(mat_exp(w))


def test_eval_rejects_nilpotency_beyond_table():
    table = build_table(3)
    u = unit_matrix(5, 0, 1)
    v = unit_matrix(5, 1, 2)
    with pytest.raises(ValueError, match="exceeds table cap"):
        eval_bch(table, u, v, nilpotency_order=5)


def test_eval_refuses_other_arities_and_missing_trigraded_parts():
    u = unit_matrix(3, 0, 1)
    v = unit_matrix(3, 1, 2)
    tri_table = build_table(3, tri=True)
    for args in ((u,), (u, v, u, v)):
        with pytest.raises(TypeError, match="two or three"):
            eval_bch(tri_table, *args, nilpotency_order=3)
    with pytest.raises(ValueError, match="trigraded components were not built"):
        eval_bch(build_table(3), u, v, u, nilpotency_order=3)

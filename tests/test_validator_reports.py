"""Full reports of the two validators, pinned message by message.

check_lie_axioms and Sela.validate must name the same problems, in the
same order, on every factory and on each corrupted input built in
test_liecore.py and test_sela.py.  The cone of the Heisenberg algebra
adds odd elements whose differential hits the even ones, so a wrong
sign in the Leibniz sum shows beside dg_toy.
"""

from fractions import Fraction

import pytest

from jbkit.exactnum import ONE, SparseRatMatrix
from jbkit.jbcomplex import Sela, factories
from jbkit.liecore import StructLie, check_lie_axioms


def _unit(n, i, j):
    return [[ONE if (r, c) == (i, j) else Fraction(0) for c in range(n)] for r in range(n)]


def _heisenberg(with_rep=True):
    rep = None
    if with_rep:
        rep = {"e12": _unit(3, 0, 1), "e23": _unit(3, 1, 2), "e13": _unit(3, 0, 2)}
    return StructLie(
        ["e12", "e23", "e13"], [0, 0, 0], {(0, 1): {2: ONE}, (1, 0): {2: -ONE}}, rep=rep
    )


def _cone():
    """Heisenberg tensor Q[s]/(s^2) with |s| = -1 and ds = 1."""
    g = _heisenberg(with_rep=False)
    n = g.dim
    brackets = {}
    for (a, b), targets in g.brackets.items():
        brackets[(a, b)] = dict(targets)
        brackets[(a, b + n)] = {c + n: v for c, v in targets.items()}
        brackets[(a + n, b)] = {c + n: v for c, v in targets.items()}
    d = SparseRatMatrix(2 * n, 2 * n)
    for a in range(n):
        d[a, a + n] = ONE
    names = g.names + ["s" + name for name in g.names]
    return StructLie(names, [0] * n + [-1] * n, brackets, differential=d)


def _jacobi_broken():
    lie = _heisenberg(with_rep=False)
    lie.brackets[(0, 2)] = {0: ONE}
    lie.brackets[(2, 0)] = {0: -ONE}
    return lie


def _differential_wrong_degree():
    d = SparseRatMatrix(2, 2)
    d[0, 1] = ONE
    return StructLie(["x", "y"], [0, 1], {}, differential=d)


def _even_self_bracket():
    d = SparseRatMatrix(2, 2)
    d[1, 0] = ONE
    lie = StructLie(["x", "y"], [0, 1], {(0, 0): {}}, differential=d)
    lie.brackets[(0, 0)] = {0: ONE}
    return lie


def _rep_mismatch():
    lie = _heisenberg()
    lie.rep["e13"] = _unit(3, 2, 0)
    return lie


def _rep_dependent():
    lie = _heisenberg()
    lie.rep["e13"] = _unit(3, 0, 1)
    return lie


LIE_INPUTS = {
    "upper_triangular_3": lambda: factories.upper_triangular(3),
    "upper_triangular_4": lambda: factories.upper_triangular(4),
    "upper_triangular_3_no_rep": lambda: factories.upper_triangular(3, with_rep=False),
    "abelian_lie_2": lambda: factories.abelian_lie(2),
    "dg_toy": factories.dg_toy,
    "mc_toy": factories.mc_toy,
    "heisenberg": _heisenberg,
    "cone": _cone,
    "jacobi_broken": _jacobi_broken,
    "asymmetric": lambda: StructLie(
        ["a", "b", "c"], [0, 0, 0], {(0, 1): {2: ONE}, (1, 0): {2: ONE}}
    ),
    "differential_of_wrong_degree": _differential_wrong_degree,
    "even_self_bracket": _even_self_bracket,
    "rep_mismatch": _rep_mismatch,
    "rep_dependent": _rep_dependent,
    "bracket_xy_is_x": lambda: StructLie(["x", "y"], [0, 0], {(0, 1): {0: Fraction(1)}}),
}

LIE_REPORTS = {
    "upper_triangular_3": [],
    "upper_triangular_4": [],
    "upper_triangular_3_no_rep": [],
    "abelian_lie_2": [],
    "dg_toy": [],
    "mc_toy": [],
    "heisenberg": [],
    "cone": [],
    "jacobi_broken": [
        "jacobi: triple (e12,e23,e13)",
        "jacobi: triple (e12,e13,e23)",
        "jacobi: triple (e23,e12,e13)",
        "jacobi: triple (e23,e13,e12)",
        "jacobi: triple (e13,e12,e23)",
        "jacobi: triple (e13,e23,e12)",
    ],
    "asymmetric": [
        "antisymmetry: [a,b] vs [b,a]",
    ],
    "differential_of_wrong_degree": [
        "differential: y -> x is not degree +1",
    ],
    "even_self_bracket": [
        "antisymmetry: [x,x] must vanish",
        "jacobi: triple (x,x,x)",
        "leibniz: pair (x,x)",
    ],
    "rep_mismatch": [
        "rep: bracket mismatch on (e12,e23)",
        "rep: bracket mismatch on (e12,e13)",
        "rep: bracket mismatch on (e23,e12)",
        "rep: bracket mismatch on (e23,e13)",
        "rep: bracket mismatch on (e13,e12)",
        "rep: bracket mismatch on (e13,e23)",
    ],
    "rep_dependent": [
        "rep: bracket mismatch on (e12,e23)",
        "rep: bracket mismatch on (e23,e12)",
        "rep: bracket mismatch on (e23,e13)",
        "rep: bracket mismatch on (e13,e23)",
        "rep: matrices are linearly dependent (not faithful)",
    ],
    "bracket_xy_is_x": [
        "antisymmetry: [x,y] vs [y,x]",
        "jacobi: triple (x,y,y)",
    ],
}


def _with_coface(sela, inner, outer, mat):
    cofaces = dict(sela.cofaces)
    cofaces[(inner, outer)] = mat
    return Sela(sela.indices, sela.algebras, cofaces, sela.artin_order)


def _flipped(sela, inner, outer):
    return _with_coface(sela, inner, outer, sela.cofaces[(inner, outer)].scale(-1))


def _swap():
    sela = factories.nonabelian_triangle()
    g = sela.algebra((0,))
    swap = SparseRatMatrix(3, 3)
    swap[g.index["e12"], g.index["e23"]] = Fraction(1)
    swap[g.index["e23"], g.index["e12"]] = Fraction(1)
    swap[g.index["e13"], g.index["e13"]] = Fraction(1)
    return _with_coface(sela, (0,), (0, 1), swap)


def _stretch():
    stretch = SparseRatMatrix(2, 2)
    stretch[0, 0] = Fraction(1)
    stretch[1, 1] = Fraction(2)
    return _with_coface(factories.dg_pair(), (0,), (0, 1), stretch)


def _mix():
    mix = SparseRatMatrix(2, 2)
    mix[1, 0] = Fraction(1)
    return _with_coface(factories.dg_pair(), (0,), (0, 1), mix)


SELA_INPUTS = {
    "nonabelian_triangle": factories.nonabelian_triangle,
    "abelian_triangle": factories.abelian_triangle,
    "dg_triangle": factories.dg_triangle,
    "mc_triangle": factories.mc_triangle,
    "dg_pair": factories.dg_pair,
    "mc_pair": factories.mc_pair,
    "lie_pair": factories.lie_pair,
    "zero_sela": factories.zero_sela,
    "obstructed_triangle": factories.obstructed_triangle,
    "nonabelian_triangle_restricted_to_01": lambda: factories.nonabelian_triangle().restrict((0, 1)),
    "abelian_triangle_01_012_flipped": lambda: _flipped(
        factories.abelian_triangle(), (0, 1), (0, 1, 2)
    ),
    "nonabelian_triangle_0_01_flipped": lambda: _flipped(
        factories.nonabelian_triangle(), (0,), (0, 1)
    ),
    "nonabelian_triangle_0_01_swapped": _swap,
    "dg_pair_0_01_stretched": _stretch,
    "dg_pair_0_01_mixing_degrees": _mix,
    "broken_algebra_on_a_vertex": lambda: Sela(
        (0,), {(0,): StructLie(["x", "y"], [0, 0], {(0, 1): {0: Fraction(1)}})}, {}, 2
    ),
}

SELA_REPORTS = {
    "nonabelian_triangle": [],
    "abelian_triangle": [],
    "dg_triangle": [],
    "mc_triangle": [],
    "dg_pair": [],
    "mc_pair": [],
    "lie_pair": [],
    "zero_sela": [],
    "obstructed_triangle": [],
    "nonabelian_triangle_restricted_to_01": [],
    "abelian_triangle_01_012_flipped": [
        "coface square 0->012 does not sum to zero",
        "coface square 1->012 does not sum to zero",
    ],
    "nonabelian_triangle_0_01_flipped": [
        "coface 0->01: fails the signed homomorphism rule on basis pair (0,2)",
        "coface square 0->012 does not sum to zero",
    ],
    "nonabelian_triangle_0_01_swapped": [
        "coface 0->01: fails the signed homomorphism rule on basis pair (0,2)",
        "coface square 0->012 does not sum to zero",
    ],
    "dg_pair_0_01_stretched": [
        "coface 0->01: does not commute with the internal differential at basis 0",
    ],
    "dg_pair_0_01_mixing_degrees": [
        "coface 0->01: entry (1,0) mixes internal degrees",
    ],
    "broken_algebra_on_a_vertex": [
        "algebra 0: antisymmetry: [x,y] vs [y,x]",
        "algebra 0: jacobi: triple (x,y,y)",
    ],
}


@pytest.mark.parametrize("name", sorted(LIE_INPUTS))
def test_check_lie_axioms_full_report(name):
    assert check_lie_axioms(LIE_INPUTS[name]()) == LIE_REPORTS[name]


@pytest.mark.parametrize("name", sorted(SELA_INPUTS))
def test_sela_validate_full_report(name):
    assert SELA_INPUTS[name]().validate() == SELA_REPORTS[name]

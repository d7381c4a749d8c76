"""The one sparse bracket and the one sparse map, over both coefficient rings.

StructLie.bracket_maps and SparseRatMatrix.apply take {index: coeff}
maps whose coefficients are Fractions or ArtinElts.  Over Q[t]/(t^N)
the t^k slice of a bracket is the sum of the rational brackets of the
t^i and t^j slices with i + j = k, and the t^k slice of an image is the
rational image of the t^k slice; neither kernel may store a zero.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from jbkit.exactnum import SparseRatMatrix
from jbkit.jbcomplex import factories
from jbkit.liecore import ArtinLine

ORDER = 3
RING = ArtinLine(ORDER)
ALGEBRAS = {"upper_triangular(3)": factories.upper_triangular(3), "dg_toy": factories.dg_toy()}

_scalars = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))
_elts = st.lists(_scalars, min_size=ORDER, max_size=ORDER).map(RING.element)


def _maps(dim):
    return st.dictionaries(st.integers(0, dim - 1), _elts, max_size=dim)


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    dim = ALGEBRAS[name].dim
    u = draw(_maps(dim))
    # v = u makes even brackets cancel
    v = draw(st.one_of(st.just(u), _maps(dim)))
    positions = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    entries = draw(st.dictionaries(positions, _scalars, max_size=dim * dim))
    if draw(st.booleans()):
        # column j2 = -column j1 and u[j2] = u[j1] make images cancel
        j1, j2 = draw(st.permutations(range(dim)))[:2]
        entries = {(i, j): w for (i, j), w in entries.items() if j != j2}
        entries.update({(i, j2): -w for (i, j), w in list(entries.items()) if j == j1})
        if j1 in u:
            u = dict(u)
            u[j2] = u[j1]
    return ALGEBRAS[name], u, v, SparseRatMatrix(dim, dim, entries)


def _slice(u, k):
    return {i: a.coeffs[k] for i, a in u.items() if a.coeffs[k] != 0}


def _sum(maps):
    out = {}
    for m in maps:
        for i, w in m.items():
            out[i] = out.get(i, 0) + w
    return {i: w for i, w in out.items() if w != 0}


@settings(max_examples=60, deadline=None, database=None)
@given(_cases())
def test_kernels_commute_with_slicing_and_store_no_zero(case):
    lie, u, v, mat = case
    bracket = lie.bracket_maps(u, v)
    image = mat.apply(u)
    assert not any(w.is_zero() for w in bracket.values())
    assert not any(w.is_zero() for w in image.values())
    for k in range(ORDER):
        parts = [lie.bracket_maps(_slice(u, i), _slice(v, k - i)) for i in range(k + 1)]
        rational = mat.apply(_slice(u, k))
        for m in parts + [rational]:
            assert all(isinstance(w, Fraction) and w != 0 for w in m.values())
        assert _slice(bracket, k) == _sum(parts)
        assert _slice(image, k) == rational

"""Resolutions, their endomorphism algebras, and tangent complexes."""

import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from jbkit.schemes import (
    HomDgla,
    HomElement,
    Poly,
    PolyComplex,
    buchberger,
    ci_t1_dimension,
    hypersurface_tangent_dgla,
    kappa,
    koszul_resolution,
    milnor_dim,
    milnor_number,
    parse_poly,
    quotient_dimension,
    truncated_module_quotient_dim,
)

V = ("x", "y")
F = Fraction


# -- complexes of free modules -----------------------------------------------

def test_hypersurface_resolution_shape():
    f = parse_poly("x^2+y^3", V)
    pc = koszul_resolution([f])
    assert list(pc.degrees()) == [0, 1]
    assert [pc.rank(d) for d in pc.degrees()] == [1, 1]
    assert pc.matrix(0)[0][0] == f


def test_koszul_resolution_is_complex():
    fs = [parse_poly(t, ("x", "y", "z")) for t in ("x^2", "y-x", "z^3+x")]
    pc = koszul_resolution(fs)
    assert [pc.rank(d) for d in pc.degrees()] == [1, 3, 3, 1]
    assert pc.composition_defects() == []


def test_complex_property_enforced():
    with pytest.raises(ValueError, match="not a complex"):
        PolyComplex(
            V,
            0,
            (1, 1, 1),
            [[[parse_poly("x", V)]], [[parse_poly("x", V)]]],
        )


def test_json_round_trip():
    pc = koszul_resolution([parse_poly("x", V), parse_poly("y^2", V)])
    data = pc.to_json()
    back = PolyComplex.from_json(data)
    assert back.ranks == pc.ranks
    assert back.start == pc.start
    for d in pc.degrees():
        assert back.matrix(d) == pc.matrix(d)


def test_from_json_defaults():
    data = {"vars": ["x", "y"], "ranks": [1, 1], "maps": [[["x^2+y^3"]]]}
    pc = PolyComplex.from_json(data)
    assert pc.start == 0


# -- graded endomorphism algebra ----------------------------------------------

def _random_element(N, degree, rng):
    comps = {}
    for i, rows, cols in N.components(degree):
        mat = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                terms = {
                    (rng.randrange(2), rng.randrange(2)): F(rng.randrange(-2, 3))
                    for _ in range(2)
                }
                row.append(Poly(V, {e: c for e, c in terms.items() if c}))
            mat.append(tuple(row))
        comps[i] = tuple(mat)
    return HomElement(N, degree, comps)


def test_graded_bracket_laws():
    N = HomDgla(koszul_resolution([parse_poly("x", V), parse_poly("y", V)]))
    rng = random.Random(2)
    for da, db, dc in [(0, 0, 1), (0, 1, 1), (1, 1, 0), (-1, 1, 0)]:
        h = _random_element(N, da, rng)
        k = _random_element(N, db, rng)
        l = _random_element(N, dc, rng)
        sign = -1 if (da * db) % 2 else 1
        assert (h.bracket(k) + k.bracket(h).scale(sign)).is_zero()
        # graded Jacobi
        s1 = h.bracket(k.bracket(l))
        s2 = h.bracket(k).bracket(l)
        s3 = k.bracket(h.bracket(l)).scale(-1 if (da * db) % 2 else 1)
        assert (s1 - s2 - s3).is_zero()


def test_differential_is_graded_derivation():
    N = HomDgla(koszul_resolution([parse_poly("x", V), parse_poly("y^2", V)]))
    rng = random.Random(4)
    for da, db in [(0, 0), (0, 1), (1, 1), (-1, 1)]:
        h = _random_element(N, da, rng)
        k = _random_element(N, db, rng)
        lhs = h.bracket(k).apply_differential()
        rhs = h.apply_differential().bracket(k) + h.bracket(
            k.apply_differential()
        ).scale(-1 if da % 2 else 1)
        assert (lhs - rhs).is_zero()
        assert h.apply_differential().apply_differential().is_zero()


def test_hypersurface_normal_laws():
    # both graded pieces are copies of the ring: d(a) = a f and the
    # mixed bracket is minus the product
    f = parse_poly("x^2+y^3", V)
    N = HomDgla(koszul_resolution([f]))
    p = parse_poly("x+1", V)
    q = parse_poly("y", V)
    a = HomElement(N, 0, {0: ((p,),)})
    b = HomElement(N, 1, {0: ((q,),)})
    da = a.apply_differential()
    assert da.degree == 1 and da.matrix(0)[0][0] == p * f
    assert a.bracket(b).matrix(0)[0][0] == -(p * q)
    assert b.bracket(a).matrix(0)[0][0] == p * q


def test_kappa_chain_map():
    # the scaling field acts on the homogeneous pieces of any Koszul
    # differential, so its component matrices stay closed
    pc = koszul_resolution([parse_poly("x", V), parse_poly("y", V)])
    N = HomDgla(pc)
    euler = kappa({"x": parse_poly("x", V), "y": parse_poly("y", V)}, N)
    assert euler.degree == 1
    assert euler.apply_differential().is_zero()


def test_kappa_closed_for_any_field():
    # entrywise application of a derivation to d is closed by the
    # Leibniz rule whenever the maps genuinely compose to zero
    pc = koszul_resolution([parse_poly("x", V), parse_poly("y", V)])
    N = HomDgla(pc)
    rng = random.Random(13)
    for _ in range(5):
        coeffs = {
            v: Poly(
                V,
                {
                    (rng.randrange(2), rng.randrange(2)): F(rng.randrange(-2, 3))
                },
            )
            for v in V
        }
        assert kappa(coeffs, N).apply_differential().is_zero()
    with pytest.raises(ValueError, match="unknown variable"):
        kappa({"z": parse_poly("x", V)}, N)


# -- tangent complexes ----------------------------------------------------------

def test_tangent_complex_shape_and_composition():
    f = parse_poly("x^2+y^3", V)
    tc = hypersurface_tangent_dgla(f)
    pc = tc.complex
    assert list(pc.degrees()) == [-1, 0, 1]
    assert [pc.rank(d) for d in pc.degrees()] == [2, 3, 1]
    assert pc.composition_defects() == []


def test_tangent_rejects_constant():
    with pytest.raises(ValueError, match="nonconstant"):
        hypersurface_tangent_dgla(Poly.constant(V, F(3)))


def test_h1_ideal_read_off_the_matrices():
    # the ideal presenting the middle cohomology is spanned by the
    # entries of the top map; the reduced bases must agree
    f = parse_poly("x^3+y^4", V)
    tc = hypersurface_tangent_dgla(f)
    top = tc.complex.matrix(0)
    from_matrix = buchberger([p for p in top[0]])
    assert from_matrix == tc.h1_ideal()
    assert tc.h1_dimension() == 6


def test_milnor_classics():
    assert milnor_dim(parse_poly("x^2+y^2", V)) == 1
    assert milnor_dim(parse_poly("x^2+y^3", V)) == 2
    assert milnor_dim(parse_poly("x", ("x",))) == 0
    with pytest.raises(ValueError, match="not isolated"):
        milnor_dim(parse_poly("x^2", V))


def test_milnor_number_is_the_partials_only_quotient():
    # not quasi-homogeneous: f is not in the ideal of its partials
    f = parse_poly("x^4+y^5+x^2*y^3", V)
    assert milnor_number(f) == 14
    assert milnor_dim(f) == 11
    with pytest.raises(ValueError, match="not isolated"):
        milnor_number(parse_poly("x^2", V))


def test_local_milnor_and_tjurina_numbers_at_the_origin():
    # x^4+y^5+x^2*y^3 has a W12 singularity at 0: Milnor number 12 and
    # Tjurina number 11 there; the global quotients (14 and 11) add the
    # critical points elsewhere.  If I + m^k = I + m^(k+1), Nakayama gives
    # m^k inside I in the local ring at 0, so dim Q[x]/(I + m^k) is the
    # local dimension.
    f = parse_poly("x^4+y^5+x^2*y^3", V)
    partials = [f.diff(v) for v in V]

    def local_dims(gens):
        return [
            quotient_dimension(buchberger(gens + [
                parse_poly("x^%d*y^%d" % (i, k - i), V) for i in range(k + 1)
            ]))
            for k in (6, 7)
        ]

    assert local_dims(partials) == [12, 12]
    assert local_dims([f] + partials) == [11, 11]


def test_milnor_number_equals_table_rows():
    # every bundled row is quasi-homogeneous, so the two invariants agree
    rows = json.loads(resources.files("jbkit").joinpath("data/milnor_table.json").read_text())
    assert rows
    for row in rows:
        f = parse_poly(row["poly"], tuple(row["vars"]))
        assert milnor_number(f) == milnor_dim(f) == row["dimension"]


# Polynomials that are not quasi-homogeneous, with their global Milnor
# number dim Q[x]/(df) and their global Tjurina number dim Q[x]/(f, df)
# (milnor_dim); the two differ on every row.
NOT_QUASI_HOMOGENEOUS = [
    ("x^4+y^5+x^2*y^3", "x,y", 14, 11),
    ("x^3+y^7+x*y^5", "x,y", 13, 11),
    ("x^3+y^3+x^2*y^2", "x,y", 7, 4),
    ("x^4+y^4+x^2*y^3", "x,y", 13, 9),
    ("x^2+y^3+z^4+y^2*z^2", "x,y,z", 8, 6),
]


def test_milnor_and_tjurina_rows_that_differ():
    bundled = json.loads(
        resources.files("jbkit").joinpath("data/milnor_table.json").read_text()
    )
    assert not {row["poly"] for row in bundled} & {row[0] for row in NOT_QUASI_HOMOGENEOUS}
    for text, vars, mu, tau in NOT_QUASI_HOMOGENEOUS:
        assert mu != tau
        f = parse_poly(text, tuple(vars.split(",")))
        assert (milnor_number(f), milnor_dim(f)) == (mu, tau), text


def _sympy_quotient_dim(sympy, gens, xs):
    """Standard monomials of Q[xs]/(gens) under a sympy grevlex basis."""
    from itertools import product

    basis = sympy.groebner(gens, *xs, order="grevlex")
    leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
    box = [
        min(m[i] for m in leads if not any(m[:i] + m[i + 1:]))
        for i in range(len(xs))
    ]
    return sum(
        1 for e in product(*(range(b) for b in box))
        if not any(all(a >= b for a, b in zip(e, m)) for m in leads)
    )


def test_milnor_and_tjurina_rows_against_sympy():
    sympy = pytest.importorskip("sympy")
    for text, vars, mu, tau in NOT_QUASI_HOMOGENEOUS:
        xs = sympy.symbols(vars.replace(",", " "))
        f = sympy.sympify(text.replace("^", "**"))
        partials = [sympy.diff(f, x) for x in xs]
        assert _sympy_quotient_dim(sympy, partials, xs) == mu, text
        assert _sympy_quotient_dim(sympy, [f] + partials, xs) == tau, text


def test_milnor_invariant_under_unimodular_change():
    rng = random.Random(9)
    f = parse_poly("x^3+y^5", V)
    base = milnor_dim(f)
    for _ in range(4):
        # random shear compositions keep the change of variables invertible
        a = rng.randrange(-2, 3)
        b = rng.randrange(-2, 3)
        x_img = parse_poly("x+%d*y" % a, V)
        y_img = parse_poly("y+%d*x" % b, V)
        g = f.subs({"x": x_img, "y": y_img})
        det = 1 - a * b
        if det == 0:
            continue
        assert milnor_dim(g) == base


def test_truncated_quotient_converges():
    f = parse_poly("x^2+y^3", V)
    tc = hypersurface_tangent_dgla(f)
    caps = [tc.truncated_h1(c) for c in range(1, 7)]
    assert caps[-1] == tc.h1_dimension()
    assert all(a >= b for a, b in zip(caps, caps[1:]))


def _sympy_window_rank(sympy, mat, xs, cap):
    """Rank of a sympy polynomial matrix on vectors with entries of degree <= cap.

    One column per source slot and monomial multiplier, one row per
    target slot and monomial the products reach.
    """
    from itertools import product

    shifts = [e for e in product(range(cap + 1), repeat=len(xs)) if sum(e) <= cap]
    cols = []
    for c in range(mat.cols):
        for e in shifts:
            m = sympy.Mul(*(x ** a for x, a in zip(xs, e)))
            col = {}
            for r in range(mat.rows):
                for mono, coeff in sympy.Poly(mat[r, c] * m, *xs).terms():
                    if coeff:
                        col[(r, mono)] = coeff
            cols.append(col)
    index = {key: i for i, key in enumerate(sorted({key for col in cols for key in col}))}
    entries = {(index[key], j): v for j, col in enumerate(cols) for key, v in col.items()}
    return sympy.SparseMatrix(len(index), len(cols), entries).rank()


@pytest.mark.parametrize("text, vars", [
    ("x^2+y^3", "x,y"),
    ("x^3-2*x*y^2+y^5", "x,y"),
    ("x^2+y^3+z^3", "x,y,z"),
    ("x*y-z^3+2*x^2*z", "x,y,z"),
])
def test_truncated_ranks_against_sympy(text, vars):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(vars.replace(",", " "))
    f = sympy.sympify(text.replace("^", "**"))
    n = len(xs)
    partials = [sympy.diff(f, x) for x in xs]
    # fields -> fields + coefficient: v -> (f v, -v(f)); then (w, c) -> w(f) + c f
    low = sympy.Matrix([[f if r == c else 0 for c in range(n)] for r in range(n)] + [
        [-p for p in partials]
    ])
    high = sympy.Matrix([partials + [f]])
    tc = hypersurface_tangent_dgla(parse_poly(text, tuple(vars.split(","))))
    for cap in range(1, 5):
        want = {-1: _sympy_window_rank(sympy, low, xs, cap),
                0: _sympy_window_rank(sympy, high, xs, cap)}
        assert tc.truncated_ranks(cap) == want, cap


def test_truncated_module_quotient_smoke():
    # one generator x on a rank-one module: window counts 1, y, y^2, ...
    vec = [(parse_poly("x", V),)]
    assert truncated_module_quotient_dim(V, 1, vec, 3) == 4


def test_negative_window_caps_raise():
    vec = [(parse_poly("x", V),)]
    assert truncated_module_quotient_dim(V, 1, vec, 0) == 1  # the window holds 1 alone
    tc = hypersurface_tangent_dgla(parse_poly("x^2+y^3", V))
    for count in (lambda cap: truncated_module_quotient_dim(V, 1, vec, cap),
                  tc.truncated_ranks, tc.truncated_h1):
        with pytest.raises(ValueError, match="window cap -2 is negative"):
            count(-2)


def test_ci_t1_matches_hypersurface():
    # re-embedding the cusp with z = x + y is again codimension two;
    # the module count must reproduce the plane-curve answer
    W = ("x", "y", "z")
    fs = [parse_poly("x^2+y^3", W), parse_poly("z-x-y", W)]
    assert ci_t1_dimension(fs) == 2


def test_ci_t1_of_one_equation_is_exact_past_a_plateau():
    # the window counts stay level at caps 4 and 5 (22, 22) and fall to
    # the true 10 only from cap 7
    W = ("x", "y", "z")
    f = parse_poly("x*y*z+x^4+y^4+z^4", W)
    tc = hypersurface_tangent_dgla(f)
    assert [tc.truncated_h1(c) for c in (4, 5)] == [22, 22]
    assert tc.h1_dimension() == 10
    assert ci_t1_dimension([f], cap=5) == 10


@pytest.mark.xfail(strict=True, reason=(
    "several equations are still counted in windows, and the count is level "
    "at caps 4 and 5 before it falls; ROADMAP direction 6 (an exact module "
    "quotient) mends it"
))
def test_ci_t1_of_a_reembedded_surface_is_exact_past_a_plateau():
    # the surface above re-embedded by w = x + y: the answer is again 10,
    # but the windowed count returns 22
    W = ("x", "y", "z", "w")
    fs = [parse_poly("x*y*z+x^4+y^4+z^4", W), parse_poly("w-x-y", W)]
    assert ci_t1_dimension(fs, cap=5) == 10

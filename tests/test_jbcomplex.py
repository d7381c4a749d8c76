"""Assembled chain complexes over gluing data: d*d, filtration, cohomology."""

import gc
import hashlib
import json
import random
import re
import weakref
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import combinations, combinations_with_replacement
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from jbkit import cli, exactnum
from jbkit.bch import build_table
from jbkit.freelie import (
    Alphabet, AssocPoly, FreeLieElement, _extract_lie, evaluate_lie, expand_associative,
)
from jbkit.liecore import ArtinLine, LieElement, StructLie
from jbkit.jbcomplex import (
    Sela,
    assemble,
    coboundary_gluing,
    factories,
    graded_pieces,
    deformation_ring_dimension,
    euler_characteristic_check,
    induced_chain_map,
    jb_assemble,
    jb_cohomology,
    special_cocycle,
    TotalComplex,
    verify_d_squared,
)
from jbkit.jbcomplex.assemble import (
    chain_differential, factor_degree, factor_key, factor_parity, format_monomial,
    monomial_differential,
)
from jbkit.exactnum import (
    SparseRatMatrix, bernoulli_normalized, insert, rank_kernel, row_echelon,
)
from jbkit.jbcomplex import sela as sela_module
from jbkit.jbcomplex.sela import coface_sign


# -- d*d = 0 on the verified domain -------------------------------------

@pytest.mark.parametrize(
    "factory,order",
    [
        (factories.abelian_triangle, 2),
        (factories.abelian_triangle, 3),
        (factories.abelian_triangle, 4),
        (factories.nonabelian_triangle, 2),
        (factories.nonabelian_triangle, 3),
        (factories.lie_pair, 2),
        (factories.lie_pair, 3),
        (factories.lie_pair, 4),
        (factories.dg_pair, 3),
        (factories.dg_pair, 4),
        (factories.mc_pair, 3),
        (factories.dg_triangle, 3),
        (factories.obstructed_triangle, 3),
    ],
)
def test_d_squared_zero(factory, order):
    jb = jb_assemble(factory(order))
    assert verify_d_squared(jb) == []


def test_d_squared_guard_on_odd_self_bracket_triangle():
    # mc_toy has an odd generator with a nonzero self-bracket; on a
    # triangle that regime needs corrections the assembly does not
    # model (see the Scope note in the assemble module), and the guard
    # must report it rather than silently pass.
    jb = jb_assemble(factories.mc_triangle(3))
    assert verify_d_squared(jb) != []


def test_cohomology_refused_where_d_squared_fails():
    jb = jb_assemble(factories.mc_triangle(3))
    assert jb_cohomology(jb, 1)[0] == 0
    with pytest.raises(ValueError, match=r"d\*d does not vanish from degree 1"):
        jb_cohomology(jb, 2)


# -- filtration by factor count ------------------------------------------

def _factor_counts(jb):
    return {deg: [len(fs) for fs, _ in monos] for deg, monos in jb.basis.items()}


@pytest.mark.parametrize("factory,order", [
    (factories.nonabelian_triangle, 3),
    (factories.dg_pair, 4),
])
def test_differential_preserves_filtration(factory, order):
    jb = jb_assemble(factory(order))
    counts = _factor_counts(jb)
    for deg in jb.degrees():
        mat = jb.matrix(deg)
        tgt = counts.get(deg + 1, [])
        src = counts.get(deg, [])
        for (r, c), v in mat.entries.items():
            assert v != 0
            assert tgt[r] <= src[c]


@pytest.mark.parametrize("factory,order", [
    (factories.abelian_triangle, 3),
    (factories.nonabelian_triangle, 3),
    (factories.dg_triangle, 3),
])
def test_graded_pieces_match_combinatorial_count(factory, order):
    # independent recount: enumerate multisets of (simplex, basis)
    # factors directly, drop repeated odd factors, and give each
    # admissible k-multiset its order - k choices of tag
    sela = factory(order)
    jb = jb_assemble(sela)
    factors = [
        (s, b) for s in sela.simplices() for b in range(sela.algebra(s).dim)
    ]
    expect = {}
    for k in range(1, order):
        for combo in combinations_with_replacement(sorted(factors), k):
            if any(
                a == b and factor_parity(sela, a)
                for a, b in zip(combo, combo[1:])
            ):
                continue
            deg = sum(factor_degree(sela, f) for f in combo)
            expect[(k, deg)] = expect.get((k, deg), 0) + (order - k)
    for k in range(1, order):
        got = graded_pieces(jb, k)
        want = {deg: n for (kk, deg), n in expect.items() if kk == k and n}
        assert got == want


def test_graded_pieces_rejects_bad_count():
    jb = jb_assemble(factories.abelian_triangle(2))
    with pytest.raises(ValueError, match="positive"):
        graded_pieces(jb, 0)


# -- cohomology ----------------------------------------------------------

def test_abelian_triangle_cohomology_is_nerve_cohomology():
    # order 2 leaves one monomial per simplex: the complex is the nerve
    # complex of a solid triangle, so only the bottom class survives
    jb = jb_assemble(factories.abelian_triangle(2))
    assert {d: jb.dim(d) for d in jb.degrees()} == {-1: 3, 0: 3, 1: 1}
    assert jb_cohomology(jb, -1)[0] == 1
    assert jb_cohomology(jb, 0)[0] == 0
    assert jb_cohomology(jb, 1)[0] == 0
    assert deformation_ring_dimension(jb) == 1


def test_abelian_triangle_order3_wedge_of_classes():
    # with two generators and coefficients (t, t^2) the bottom classes
    # are the four e_i t^k; their pairwise products survive only when
    # the tags still fit under t^3, leaving the single e1 t wedge e2 t
    jb = jb_assemble(factories.abelian_triangle(3, dim=2))
    coh = {d: jb_cohomology(jb, d)[0] for d in jb.degrees()}
    assert coh == {-2: 1, -1: 4, 0: 0, 1: 0, 2: 0}


def test_lie_pair_deformation_ring():
    # the inclusion complex has a three-dimensional cokernel, giving
    # three dual generators on top of the unit
    jb = jb_assemble(factories.lie_pair(2))
    assert jb_cohomology(jb, -1)[0] == 0
    assert jb_cohomology(jb, 0)[0] == 3
    assert deformation_ring_dimension(jb) == 4


def test_cohomology_representatives_are_cycles():
    jb = jb_assemble(factories.lie_pair(2))
    dim, reps = jb_cohomology(jb, 0)
    assert len(reps) == dim
    for rep in reps:
        img = {}
        for mono, coeff in rep.items():
            for out, v in chain_differential(jb.sela, {mono: coeff}).items():
                img[out] = img.get(out, Fraction(0)) + v
        assert not any(img.values())


@pytest.mark.parametrize("factory,order", [
    (factories.abelian_triangle, 2),
    (factories.abelian_triangle, 3),
    (factories.lie_pair, 2),
    (factories.dg_pair, 3),
    (factories.zero_sela, 2),
])
def test_euler_characteristic(factory, order):
    jb = jb_assemble(factory(order))
    out = euler_characteristic_check(jb)
    assert out["equal"], out


def test_zero_sela_is_unit_complex():
    jb = jb_assemble(factories.zero_sela(3))
    assert {d: jb.dim(d) for d in jb.degrees()} == {}
    assert deformation_ring_dimension(jb) == 1


# -- assembly on first read ----------------------------------------------

_ORDERED_FACTORIES = [
    factories.nonabelian_triangle, factories.abelian_triangle, factories.dg_triangle,
    factories.mc_triangle, factories.dg_pair, factories.mc_pair, factories.lie_pair,
    factories.zero_sela, factories.obstructed_triangle,
]


@pytest.mark.parametrize("order", [3, 4, 5])
@pytest.mark.parametrize("factory", _ORDERED_FACTORIES, ids=lambda f: f.__name__)
def test_matrices_do_not_depend_on_the_order_degrees_are_read(factory, order):
    up, down = jb_assemble(factory(order)), jb_assemble(factory(order))
    for deg in down.degrees()[::-1]:
        down.matrix(deg)
    for deg in up.degrees():
        assert list(up.matrix(deg).entries.items()) == list(down.matrix(deg).entries.items()), deg


# sha256 of repr([(n, list(matrix(n).entries.items())) for n in degrees()]):
# a change of any value, or of the order in which entries are written,
# changes the digest
_MATRIX_DIGESTS = {
    "nonabelian_triangle": {
        3: "b825f26c3da3b928581988f912b332d0fc70d88cc5aafc9ab41c9fa5ade1f6d1",
        4: "7aae7d22470ad4f2d074be1abee5af6ea87984221ce072f4c7f0e638cb44e957",
        5: "1439cd210610a26076281232fdcb8b9f043737acc479709ac7ae933372f0893b",
    },
    "abelian_triangle": {
        3: "b1d072fbb94e31f1bb7d5936296dcb9e5a0a9cc4391a707faf0f42bb8b50e2a4",
        4: "038ff88adf4647a27896dc24901acbf05dece9fd2d6215190008746665e328b0",
        5: "01bfd225ecec0b51d847c478b15bc76b6dc666bff300a479a372716dace1e651",
    },
    "dg_triangle": {
        3: "7b7792c21d9142012535c5f8953d845fc59072e9ea3320e1e621d8a6fb44958e",
        4: "c201f39e2d72ef5fe84b33fca5576cabb861dee297f455aff7b383f068adf1aa",
        5: "586f8174755b98f2914a55ec22c878b8a52303ed052bbd6905c4c3ab250ed08c",
    },
    "mc_triangle": {
        3: "92d4b6a6f098cad3cffa9b6bd1fb36a5727ce362f279933df936942839c27858",
        4: "cd5a3993cb8c0c8a2a713b9c5be6ae3f541b4664dc92daa2455eb2c144992e93",
        5: "b471360f62120494699649f2476c6217c5e4e61bb594563bf3d6a112f43c9ff5",
    },
    "dg_pair": {
        3: "6c2fff17a76a131373672576bc3b41c7d9b65ced2fefb630b299beea2c20bc4e",
        4: "1621e8eb4ef3a346fa661b0466c68a0a3a6221b02a64a2f18cea066760eedb8f",
        5: "5d53a0cafad460e71c315d1a49746afab6debb0690fbbf04f65c8486f3994333",
    },
    "mc_pair": {
        3: "de2d29323b096949eb7f90abd2b2c98f65201df27c671b779e6a986cbb2d6641",
        4: "0fb1741c8c43cb970e7e2fe7c6bce59a544c6539e6e0b6de5c8465736ed7c286",
        5: "5bd1fc9d5b6554ec7a8cc399a9085d15666bfd82ee9d9f02b70166896368c35a",
    },
    "lie_pair": {
        3: "bdcf414f34d70c4e13f4e8533d514059e9407b2c565eaa18848d76099eb9c6a4",
        4: "59f478d52b1daa2fafbee7f8bcbbe32aa699e84854aa4ebbb9d7e5a89eb8149d",
        5: "7089ac26e5dbf0631636839ae7e1f2d838eaa4abc9d36b4dbf226dd06bbcd8d7",
    },
    "zero_sela": {
        3: "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        4: "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        5: "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    "obstructed_triangle": {
        3: "c2a41030ac87fcba0d04f260c165e5f41de86ff738fceda65b8495637d129c28",
        4: "39cd7878f75d62d765439df5bb33278461874153c9f7ec5990687f9ba07c3b21",
        5: "585148ec0cc17085619dfa7e72771cadfca3722fdaf6b9ec70da755585c1f689",
    },
}


def _reference_mul(left, right):
    """The product accumulated under one (row, column) key per multiply-add.

    The reference for the row-wise accumulation of SparseRatMatrix.mul.
    """
    a = lcm(*(v.denominator for v in left.entries.values()))
    b = lcm(*(v.denominator for v in right.entries.values()))
    rows_of_right = {}
    for (i, j), v in right.entries.items():
        rows_of_right.setdefault(i, []).append((j, v.numerator * (b // v.denominator)))
    acc = {}
    for (i, k), v in left.entries.items():
        x = v.numerator * (a // v.denominator)
        for j, y in rows_of_right.get(k, ()):
            key = (i, j)
            s = acc.get(key, 0) + x * y
            if s:
                acc[key] = s
            else:
                del acc[key]
    ab = a * b
    m = SparseRatMatrix(left.nrows, right.ncols)
    m.entries = {key: Fraction(s, ab) for key, s in acc.items()}
    return m


@lru_cache(maxsize=None)
def _assembled(factory, order):
    """One complex per factory and order, shared by the tests that only read it."""
    return jb_assemble(factory(order))


@pytest.mark.parametrize("order", [3, 4, 5])
@pytest.mark.parametrize("factory", _ORDERED_FACTORIES, ids=lambda f: f.__name__)
def test_matrices_and_their_products_match_pinned_and_reference_values(factory, order):
    jb = _assembled(factory, order)
    data = [(n, list(jb.matrix(n).entries.items())) for n in jb.degrees()]
    assert hashlib.sha256(repr(data).encode()).hexdigest() == \
        _MATRIX_DIGESTS[factory.__name__][order]
    nonzero = False
    defects = []  # the full product of every pair of consecutive degrees
    for n in jb.degrees():
        if n + 1 in jb.basis:
            left, right = jb.matrix(n + 1), jb.matrix(n)
            got, want = left.mul(right), _reference_mul(left, right)
            assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
            assert got.entries == want.entries, n
            assert all(got.entries.values())
            nonzero = nonzero or bool(got.entries)
            for (r, c), v in sorted(want.entries.items()):
                defects.append((n, jb.basis[n][c], jb.basis[n + 2][r], v))
    # d does not square to zero on mc_triangle, so products that keep
    # entries are compared too, and the certificate must fall back to
    # the full list there
    assert nonzero == (factory is factories.mc_triangle)
    assert jb.square_defects() == defects


# -- d*d certified from the one-factor rows --------------------------------

def _columns(jb):
    """d as {source monomial: {target monomial: value}} over every degree."""
    cols = {}
    for deg in jb.degrees():
        sources, targets = jb.basis[deg], jb.basis.get(deg + 1, [])
        for (r, c), v in jb.matrix(deg).entries.items():
            cols.setdefault(sources[c], {})[targets[r]] = v
    return cols


def _coderivation_extension(info, one, most, word, q):
    """d(w, q) rebuilt from the one-factor columns of every (w_S, q).

    S runs over the nonempty sets of positions of w, up to the longest
    word with a nonzero one-factor column (most).  Moving S to the front
    passes each odd factor of S over the odd factors of w without S on
    its left.  Each new factor g then merges into w without S where
    bisect_left puts its factor_key, passing the odd factors before that
    place; an odd g that w without S already holds gives zero.
    """
    out = {}
    for size in range(1, min(len(word), most) + 1):
        for chosen in combinations(range(len(word)), size):
            column = one.get((tuple(word[i] for i in chosen), q))
            if column is None:
                continue
            left = [i for i in range(len(word)) if i not in chosen]
            rest = tuple(word[i] for i in left)
            keys = [info[f][0] for f in rest]
            moved = sum(info[word[j]][1] for i in chosen if info[word[i]][1] for j in left if j < i)
            for ((g,), tag), v in column.items():
                key, odd = info[g]
                if odd and g in rest:
                    continue
                pos = bisect_left(keys, key)
                passed = sum(info[f][1] for f in rest[:pos]) if odd else 0
                target = (rest[:pos] + (g,) + rest[pos:], tag)
                v = -v if (moved + passed) % 2 else v
                s = out.get(target)
                out[target] = v if s is None else s + v
    return {t: v for t, v in out.items() if v}


@pytest.mark.parametrize("order", [3, 4, 5])
@pytest.mark.parametrize("factory", _ORDERED_FACTORIES, ids=lambda f: f.__name__)
def test_every_column_is_the_coderivation_extension_of_one_factor_rows(factory, order):
    # the certificate in JBComplex.square_defects rests on d being a
    # coderivation: d of (w, q) is the sum over nonempty sets S of
    # positions of the one-factor part of d(w_S, q), times w without S
    jb = _assembled(factory, order)
    sela = jb.sela
    info = {
        f: (factor_key(f), factor_parity(sela, f))
        for f in ((s, b) for s in sela.simplices() for b in range(sela.algebra(s).dim))
    }
    full = _columns(jb)
    one = {}
    for source, column in full.items():
        column = {t: v for t, v in column.items() if len(t[0]) == 1}
        if column:
            one[source] = column
    most = max((len(word) for word, _ in one), default=0)
    for deg in jb.degrees():
        for mono in jb.basis[deg]:
            assert _coderivation_extension(info, one, most, *mono) == full.get(mono, {}), \
                (deg, format_monomial(sela, mono))


def _plan_full(sela, memo, shape):
    """The entries of shape's selection plan that select every factor, filtered from the plan."""
    return [e for e in assemble._plan(sela, memo, shape) if not e[3]]


def _picked(plan, shape):
    """Plan entries with each key reader replaced by the positions it reads."""
    at = tuple(range(len(shape)))
    return [(head, pick if head is None else pick(at), chosen, rest) for head, pick, chosen, rest in plan]


def _plan_reaching(sela, memo, shape):
    """The entries of shape's selection plan with a target whose shape has a _plan_full entry."""
    def reaches(head, pick, chosen, rest):
        s = shape[pick] if head is None else head[1]
        new = [s] if head else [s] + [t for t in sela.all_simplices(len(s) + 1) if set(s) < set(t)]
        left = [shape[t] for t in rest]
        return any(_plan_full(sela, memo, tuple(sorted(left + [t], key=lambda s: (len(s), s))))
                   for t in new)
    return [e for e in assemble._plan(sela, memo, shape) if reaches(*e)]


@pytest.mark.parametrize("order", [3, 4, 5])
@pytest.mark.parametrize("factory", _ORDERED_FACTORIES, ids=lambda f: f.__name__)
def test_word_defects_are_the_one_factor_rows_of_the_product(factory, order):
    # the certificate walks each word w whose shape can reach a full shape
    # once, at (w, len(w)); what it finds must be the one-factor rows of
    # the full product in every column (w, q), and every other word must
    # have none there
    jb = _assembled(factory, order)
    walked = dict(jb._word_defects())
    memo, reaching = {}, {}
    for monos in jb.basis.values():
        for w, q in monos:
            shape = tuple(s for s, _ in w)
            if shape not in reaching:
                reaching[shape] = _picked(_plan_reaching(jb.sela, memo, shape), shape)
                assert _picked(assemble._reaching_plan(jb.sela, {}, shape), shape) == reaching[shape]
    assert set(walked) == {
        (w, q) for monos in jb.basis.values() for w, q in monos
        if q == len(w) and reaching[tuple(s for s, _ in w)]
    }
    nonzero = False
    for n in jb.degrees():
        want = {}
        for (r, c), v in jb.matrix(n + 1).mul(jb.matrix(n)).entries.items():
            (h, tag), (w, q) = jb.basis[n + 2][r], jb.basis[n][c]
            assert tag == q
            if len(h) == 1:
                want.setdefault((w, q), {})[h] = v
        for w, q in jb.basis[n]:
            assert walked.get((w, len(w)), {}) == want.get((w, q), {}), \
                (n, format_monomial(jb.sela, (w, q)))
        nonzero = nonzero or bool(want)
    assert nonzero == (factory is factories.mc_triangle)


@pytest.mark.parametrize("factory", _ORDERED_FACTORIES, ids=lambda f: f.__name__)
def test_full_shapes_are_read_off_the_shape(factory):
    # the predicate the certificate reads target shapes with, against the
    # entries of the selection plan that select every factor, on every
    # multiset of up to N - 1 simplices, present or not; _full_plan, which
    # the predicate gates, must give those entries in the plan's order
    for order in (3, 4, 5):
        sela, memo = factory(order), {}
        for k in range(1, order):
            for shape in combinations_with_replacement(sela.all_simplices(), k):
                full = _plan_full(sela, memo, shape)
                assert assemble._full(sela, {}, shape) == bool(full), (order, shape)
                assert _picked(assemble._full_plan(sela, {}, shape), shape) == _picked(full, shape)


def _check_through_cli(sela, tmp_path, monkeypatch, capsys):
    """Exit code and report of jb check, with the matrices read and multiplied after loading."""
    path = tmp_path / "sela.json"
    path.write_text(json.dumps(sela.to_json()))
    calls = []
    assemble_ = cli.jb_assemble
    monkeypatch.setattr(cli, "jb_assemble", lambda sela: calls.append("load") or assemble_(sela))

    def spy(owner, attr):
        spied = getattr(owner, attr)

        def counted(*args):
            if calls:
                calls.append(attr)
            return spied(*args)
        monkeypatch.setattr(owner, attr, counted)

    spy(sela_module.GradedComplex, "matrix")
    spy(SparseRatMatrix, "mul")
    code = cli.run(["jb", "check", "--data", str(path)])
    return code, json.loads(capsys.readouterr().out), calls[1:]


def test_cli_check_reads_and_multiplies_no_matrix(tmp_path, monkeypatch, capsys):
    # validating the gluing datum multiplies coface maps; after that the
    # certificate reads no JB matrix and multiplies none
    code, report, calls = _check_through_cli(
        factories.nonabelian_triangle(5), tmp_path, monkeypatch, capsys)
    assert (code, report["d_squared_zero"], calls) == (0, True, [])


def _spy_expansions(monkeypatch):
    """The degrees whose (word, q) list a JBComplex builds, in order."""
    expanded = []
    monomials = assemble._monomials
    monkeypatch.setattr(assemble, "_monomials",
                        lambda words, n, *args: expanded.append(n) or monomials(words, n, *args))
    return expanded


def test_cli_check_expands_the_basis_of_no_degree(tmp_path, monkeypatch, capsys):
    # the certificate walks rank tuples and the report counts dimensions
    # from them: no degree's (word, q) list or row index is built
    expanded = _spy_expansions(monkeypatch)
    code, report, _ = _check_through_cli(factories.nonabelian_triangle(5), tmp_path, monkeypatch, capsys)
    assert (code, report["d_squared_zero"], expanded) == (0, True, [])
    jb = jb_assemble(factories.nonabelian_triangle(5))
    assert report["dimensions"] == {str(n): len(jb.basis[n]) for n in jb.degrees()}
    assert sorted(expanded) == jb.degrees()


@pytest.mark.parametrize("degree", [-2, 0, 1])
def test_cohomology_expands_only_the_degrees_its_matrices_read(degree, monkeypatch):
    expanded = _spy_expansions(monkeypatch)
    jb = jb_assemble(factories.dg_triangle(4))
    jb.cohomology(degree)
    assert sorted(expanded) == [n for n in (degree - 1, degree, degree + 1) if n in jb.degrees()]


def test_a_complex_is_freed_without_the_cycle_collector():
    # the lazy basis and index must not hold the complex: a cycle would
    # keep every complex of a session alive until a collection, and the
    # cohomology job list then peaked 1 MB higher
    gc.disable()
    try:
        jb = jb_assemble(factories.nonabelian_triangle(3))
        jb.cohomology(-1)
        jb.square_defects()
        ref = weakref.ref(jb)
        del jb
        assert ref() is None
    finally:
        gc.enable()


def test_cli_check_falls_back_to_the_full_product(tmp_path, monkeypatch, capsys):
    sela = factories.mc_triangle(4)
    code, report, calls = _check_through_cli(sela, tmp_path, monkeypatch, capsys)
    full = sela_module.GradedComplex.square_defects(jb_assemble(sela))
    assert (code, report["d_squared_zero"]) == (1, False)
    assert full and "mul" in calls
    assert report["failures"] == [
        {"degree": n, "source": format_monomial(sela, src), "target": format_monomial(sela, dst),
         "coeff": exactnum.format_rational(v)}
        for n, src, dst, v in full
    ]


@pytest.mark.parametrize("degree", [-2, 0, 1])
def test_cli_cohomology_assembles_only_the_two_matrices_it_reads(degree, tmp_path, monkeypatch,
                                                               capsys):
    sela = factories.dg_triangle(4)
    path = tmp_path / "sela.json"
    path.write_text(json.dumps(sela.to_json()))
    sources = []
    differential = assemble.monomial_differential

    def spy(sela, mono, memo=None):
        sources.append(mono)
        return differential(sela, mono, memo)

    monkeypatch.setattr(assemble, "monomial_differential", spy)
    assert cli.run(["jb", "cohomology", "--data", str(path), "--degree", str(degree)]) == 0
    assert json.loads(capsys.readouterr().out)["degree"] == degree
    basis = jb_assemble(sela).basis
    read = {word for n in (degree - 1, degree) for word, _ in basis.get(n, ())}
    assert read and {word for word, _ in sources} == read


def test_euler_check_reads_one_rank_per_matrix(monkeypatch):
    make = factories.nonabelian_triangle
    ref = jb_assemble(make(4))
    coh = {deg: ref.cohomology(deg)[0] for deg in ref.degrees()}
    assert any(coh.values())
    jb = jb_assemble(make(4))
    eliminated = []
    for owner in (sela_module, exactnum):
        row_echelon = owner.row_echelon
        monkeypatch.setattr(owner, "row_echelon",
                            lambda mat, f=row_echelon: eliminated.append(mat) or f(mat))

    def refuse(*args):
        raise AssertionError("a dimension built a representative")

    monkeypatch.setattr(sela_module, "kernel_complement", refuse)
    chain = sum((-1) ** deg * jb.dim(deg) for deg in jb.degrees())
    cohomology = sum((-1) ** deg * c for deg, c in coh.items())
    assert euler_characteristic_check(jb) == {
        "chain": chain, "cohomology": cohomology, "equal": chain == cohomology,
    }
    assert deformation_ring_dimension(jb) == 1 + coh[0]
    for deg in jb.degrees():
        assert sum(mat is jb.matrix(deg) for mat in eliminated) <= 1, deg
    assert [jb.dimension(deg) for deg in jb.degrees()] == list(coh.values())


# -- functoriality ---------------------------------------------------------

def test_abelianization_induces_chain_map():
    source = jb_assemble(factories.nonabelian_triangle(3))
    target = jb_assemble(factories.abelian_triangle(3, dim=2))
    mat = factories.abelianization_matrix()
    morphism = {s: mat for s in source.sela.simplices()}
    maps = induced_chain_map(source, target, morphism)
    for deg in source.degrees():
        if deg + 1 not in maps:
            continue
        left = target.matrix(deg).mul(maps[deg])
        right = maps[deg + 1].mul(source.matrix(deg))
        assert left.entries == right.entries


# -- representatives against a dense oracle --------------------------------

class _DenseSpan:
    """Naive oracle: a span kept as dense, fully reduced Fraction rows."""

    def __init__(self):
        self.rows = []  # (pivot, row) with row[pivot] == 1

    def raises_rank(self, vec):
        """Add vec; report whether the span grew."""
        v = list(vec)
        for p, row in self.rows:
            if v[p]:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        nonzero = [i for i, x in enumerate(v) if x]
        if not nonzero:
            return False
        p = nonzero[0]
        v = [x / v[p] for x in v]
        self.rows = [
            (q, [x - r[p] * y for x, y in zip(r, v)] if r[p] else r)
            for q, r in self.rows
        ]
        self.rows.append((p, v))
        return True


@pytest.mark.parametrize("factory,order,degree", [
    (factories.nonabelian_triangle, 3, -2),
    (factories.nonabelian_triangle, 3, -1),
    (factories.nonabelian_triangle, 3, 0),
    (factories.lie_pair, 2, 0),
    (factories.lie_pair, 3, -1),
    (factories.lie_pair, 3, 0),
])
def test_representatives_match_dense_oracle(factory, order, degree):
    # kernel vector i is a representative exactly when it raises the
    # rank of the image plus the representatives kept before it
    jb = jb_assemble(factory(order))
    n = jb.dim(degree)
    prev = jb.matrix(degree - 1)
    span = _DenseSpan()
    for c in range(prev.ncols):
        span.raises_rank([prev[r, c] for r in range(n)])
    _, kernel = rank_kernel(jb.matrix(degree))
    kept = [v for v in kernel if span.raises_rank([v.get(i, 0) for i in range(n)])]
    dim, reps = jb_cohomology(jb, degree)
    monos = jb.basis.get(degree, [])
    assert dim == len(kept)
    assert reps == [{monos[i]: c for i, c in sorted(v.items())} for v in kept]


# -- dimensions from ranks, kernel vectors on demand ---------------------------

def _full_kernel_cohomology(jb, degree):
    """The full-kernel route: every kernel vector of d first, then the sweep.

    Also returns how many kernel vectors the sweep read.
    """
    d, prev = jb.matrix(degree), jb.matrix(degree - 1)
    if not d.mul(prev).is_zero():
        raise ValueError("d*d does not vanish")
    _, kernel = rank_kernel(d)
    span = row_echelon(prev.transpose())
    dim = len(kernel) - len(span)
    monos = jb.basis.get(degree, [])
    reps = []
    read = 0
    for vec in kernel:
        if len(reps) == dim:
            break
        read += 1
        if insert(span, vec):
            reps.append({monos[i]: v for i, v in sorted(vec.items())})
    return dim, reps, read


def _bundled_triangle():
    data = json.loads(resources.files("jbkit").joinpath("data/triangle_sela.json").read_text())
    return Sela.from_json(data)


@pytest.mark.parametrize("make", [
    lambda: factories.nonabelian_triangle(3),
    lambda: factories.nonabelian_triangle(4),
    lambda: factories.dg_triangle(3),
    lambda: factories.dg_triangle(4),
    lambda: factories.mc_triangle(3),
    lambda: factories.mc_triangle(4),
    lambda: factories.lie_pair(3),
    _bundled_triangle,
], ids=[
    "nonabelian_triangle3", "nonabelian_triangle4", "dg_triangle3", "dg_triangle4",
    "mc_triangle3", "mc_triangle4", "lie_pair3", "bundled",
])
def test_cohomology_equals_full_kernel_route(monkeypatch, make):
    # the same dimension and representatives, printed alike, in every
    # degree, though only the reference builds every kernel vector and
    # sweeps them against a column echelon of the image; and exactly one
    # kernel vector back-substituted per class
    built = [0]
    back_substitute = exactnum._back_substitute

    def counting(echelon, starts):
        for vec in back_substitute(echelon, starts):
            built[0] += 1
            yield vec

    monkeypatch.setattr(exactnum, "_back_substitute", counting)
    jb = jb_assemble(make())
    for degree in jb.degrees():
        if not jb.matrix(degree).mul(jb.matrix(degree - 1)).is_zero():
            with pytest.raises(ValueError, match="d\\*d does not vanish"):
                jb_cohomology(jb, degree)
            continue
        dim, reps, _ = _full_kernel_cohomology(jb, degree)
        built[0] = 0
        assert repr(jb_cohomology(jb, degree)) == repr((dim, reps))
        assert built[0] == dim


def test_bundled_triangle_has_representatives_to_compare():
    # classes in two degrees, so the comparison above covers the sweep
    jb = jb_assemble(_bundled_triangle())
    assert {d: jb_cohomology(jb, d)[0] for d in jb.degrees()} == {
        -2: 2, -1: 5, 0: 0, 1: 0, 2: 0,
    }


# -- the series path: polarization, shared values, shared tables -----------------

def _squarefree_bracket(a, b):
    """[a, b] without the terms that repeat a letter.

    Brackets are multigraded, so such terms only ever feed terms with a
    repeated letter; leaving them out keeps every multilinear part.
    """
    comm = {}
    eb = expand_associative(b).terms
    for wa, ca in expand_associative(a).terms.items():
        for wb, cb in eb.items():
            if set(wa).isdisjoint(wb):
                comm[wa + wb] = comm.get(wa + wb, 0) + ca * cb
                comm[wb + wa] = comm.get(wb + wa, 0) - ca * cb
    return _extract_lie(AssocPoly(a.alphabet, comm))


def _polarized_by_brackets(table, j, k, l):
    """Reference: substitute letter sums through the bracket route, keep the multilinear part."""
    comp = table.trigraded(j, k, l)
    n = j + k + l
    alphabet = Alphabet(["a%d" % i for i in range(n)])
    gens = [FreeLieElement.generator(alphabet, lab) for lab in alphabet.labels]
    zero = FreeLieElement.zero(alphabet)

    def block(start, count):
        acc = zero
        for g in gens[start : start + count]:
            acc = acc + g
        return acc

    subst = evaluate_lie(
        comp,
        {"x": block(0, j), "y": block(j, k), "z": block(j + k, l)},
        bracket=_squarefree_bracket,
        add=lambda a, b: a + b,
        scale=lambda c, a: a.scale(c),
        zero=zero,
    )
    return subst.multidegree_parts().get((1,) * n, zero)


def test_polarization_matches_bracket_route(monkeypatch):
    monkeypatch.setattr(assemble, "_POLAR_CACHE", {})
    table = build_table(6, tri=True)
    for n in range(1, 7):
        for j in range(n + 1):
            for k in range(n + 1 - j):
                l = n - j - k
                want = _polarized_by_brackets(table, j, k, l)
                assert assemble._polarized(table, j, k, l) == want, (j, k, l)


def _memo_free_matrices(jb):
    out = {}
    for deg in jb.degrees():
        rows = jb.index.get(deg + 1, {})
        entries = {}
        for col, mono in enumerate(jb.basis[deg]):
            for target, v in monomial_differential(jb.sela, mono).items():
                key = (rows[target], col)
                entries[key] = entries.get(key, 0) + v
        out[deg] = {key: v for key, v in entries.items() if v}
    return out


@pytest.mark.parametrize("factory", [factories.nonabelian_triangle, factories.dg_triangle])
def test_assembly_equals_memo_free_monomial_differentials(factory):
    jb = jb_assemble(factory(4))
    for deg, entries in _memo_free_matrices(jb).items():
        mat = jb.matrix(deg)
        assert {key: v for key, v in mat.entries.items() if v} == entries, deg


def _reference_column(mat, c):
    return {r: v for (r, cc), v in mat.entries.items() if cc == c and v}


def _reference_vertex_into_triangle(sela, vert, tri, a):
    v = vert[0]
    for edge in combinations(tri, 2):
        if v not in edge or sela.algebra(edge).dim == 0:
            continue
        corr = Fraction(coface_sign(vert, edge) * coface_sign(edge, tri))
        out = {}
        for m, cm in _reference_column(sela.coface(vert, edge), a).items():
            for c, w in _reference_column(sela.coface(edge, tri), m).items():
                out[c] = out.get(c, 0) + corr * cm * w
        return {c: w for c, w in out.items() if w}
    return {}


def _reference_monomial_differential(sela, mono):
    """Memo-free d of one monomial: Fraction signs, merge by sorting.

    Written independently of the assembly's per-factor data: cofaces and
    internal differentials come from full matrix scans, every emitted
    coefficient is multiplied by its two signs, and every target word is
    sorted by factor_key.
    """
    table = assemble._shared_table(sela.artin_order - 1)
    factors, q = mono
    k = len(factors)
    parities = [factor_parity(sela, f) for f in factors]
    out = {}

    def emit(selected, results):
        sel = set(selected)
        ext = 0
        for p in selected:
            if parities[p]:
                ext += sum(parities[t] for t in range(p) if t not in sel)
        extract_sign = -1 if ext % 2 else 1
        remainder = tuple(f for t, f in enumerate(factors) if t not in sel)
        rem_par = [parities[t] for t in range(k) if t not in sel]
        for g, coeff in results:
            if not coeff:
                continue
            pg = factor_parity(sela, g)
            if pg and g in remainder:
                continue
            passed = sum(
                pi for f2, pi in zip(remainder, rem_par)
                if assemble.factor_key(f2) < assemble.factor_key(g)
            )
            merge_sign = -1 if (pg and passed % 2) else 1
            word = tuple(sorted(remainder + (g,), key=assemble.factor_key))
            target = (word, q)
            val = out.get(target, Fraction(0)) + coeff * extract_sign * merge_sign
            if val:
                out[target] = val
            else:
                out.pop(target, None)

    for i, (simplex, b) in enumerate(factors):
        results = []
        for outer in sela.all_simplices(len(simplex) + 1):
            if all(v in outer for v in simplex):
                for r, v in _reference_column(sela.coface(simplex, outer), b).items():
                    results.append(((outer, r), v))
        lie = sela.algebra(simplex)
        internal_sign = Fraction(-1 if (len(simplex) - 1) % 2 else 1)
        if lie.differential is not None:
            for r, v in _reference_column(lie.differential, b).items():
                results.append(((simplex, r), internal_sign * v))
        emit((i,), results)

    for i, j in combinations(range(k), 2):
        si, ai = factors[i]
        sj, aj = factors[j]
        if len(si) == 1 and si == sj:
            lie = sela.algebra(si)
            s = -1 if (lie.degrees[ai] * (lie.degrees[aj] + 1)) % 2 else 1
            emit((i, j), [((si, c), Fraction(s) * w)
                          for c, w in lie.bracket_basis(ai, aj).items()])

    for i in range(k):
        si, ai = factors[i]
        if len(si) != 1:
            continue
        by_edge = {}
        for t in range(k):
            st = factors[t][0]
            if t != i and len(st) == 2 and si[0] in st:
                by_edge.setdefault(st, []).append(t)
        for e, positions in by_edge.items():
            rx = _reference_column(sela.coface(si, e), ai)
            if not rx:
                continue
            eps = coface_sign(si, e)
            for t_count in range(1, len(positions) + 1):
                ct = bernoulli_normalized(t_count)
                if not ct:
                    continue
                scalar = ct * (1 if eps > 0 or t_count % 2 == 0 else -1)
                for subset in combinations(positions, t_count):
                    idxs = tuple(factors[p][1] for p in subset)
                    acc = assemble._transport(sela.algebra(e), rx, idxs)
                    emit(tuple(sorted((i,) + subset)),
                         [((e, c), scalar * w) for c, w in acc.items()])

    for i, j in combinations(range(k), 2):
        si, ai = factors[i]
        sj, aj = factors[j]
        if len(si) == 1 and len(sj) == 3 and si[0] == sj[2]:
            lie_t = sela.algebra(sj)
            coeff = Fraction(-1 if sela.algebra(si).degrees[ai] % 2 else 1)
            acc = {}
            for m, cm in _reference_vertex_into_triangle(sela, si, sj, ai).items():
                for c, w in lie_t.bracket_basis(m, aj).items():
                    acc[c] = acc.get(c, 0) + cm * w
            emit((i, j), [((sj, c), coeff * w) for c, w in acc.items() if w])

    for tri in sela.simplices(3):
        a0, a1, a2 = tri
        slot_positions = [
            [t for t in range(k) if factors[t][0] == e] for e in ((a0, a2), (a0, a1), (a1, a2))
        ]
        for qx in assemble._subsets(slot_positions[0]):
            for qy in assemble._subsets(slot_positions[1]):
                for qz in assemble._subsets(slot_positions[2]):
                    if len(qx) + len(qy) + len(qz) < 2:
                        continue
                    polar = assemble._polarized(table, len(qx), len(qy), len(qz))
                    if polar.is_zero():
                        continue
                    selected = qx + qy + qz
                    args = [_reference_column(sela.coface(factors[p][0], tri), factors[p][1])
                            for p in selected]
                    if not all(args):
                        continue
                    value = assemble._eval_polar(polar, args, sela.algebra(tri))
                    emit(tuple(sorted(selected)), [((tri, c), w) for c, w in value.items()])
    return out


@lru_cache(maxsize=None)
def _reference_matrices(factory, order):
    """{degree: {(row, col): value}} of d, one _reference_monomial_differential per column."""
    jb = jb_assemble(factory(order))
    out = {}
    for deg in jb.degrees():
        rows = jb.index.get(deg + 1, {})
        want = {}
        for col, mono in enumerate(jb.basis[deg]):
            for target, v in _reference_monomial_differential(jb.sela, mono).items():
                want[rows[target], col] = v
        out[deg] = want
    return out


@pytest.mark.parametrize("factory,order", [
    (factories.nonabelian_triangle, 4),
    (factories.dg_triangle, 4),
    (factories.mc_triangle, 3),
    (factories.lie_pair, 4),
    (factories.dg_pair, 4),
    (factories.mc_pair, 4),
    (factories.obstructed_triangle, 4),
])
def test_assembly_equals_reference_monomial_differentials(factory, order):
    jb = jb_assemble(factory(order))
    want = _reference_matrices(factory, order)
    assert set(want) == set(jb.basis)
    for deg in jb.degrees():
        mat = jb.matrix(deg)
        assert mat.entries == want[deg], deg
        assert all(type(v) is Fraction and v for v in mat.entries.values())


_SHARED_TRIANGLE = [
    factories.nonabelian_triangle, factories.dg_triangle, factories.abelian_triangle,
]


@pytest.mark.parametrize("makes", [_SHARED_TRIANGLE, _SHARED_TRIANGLE[::-1]],
                         ids=["forward", "backward"])
def test_selection_plans_are_per_assembly(makes):
    # the three algebras on the triangle (0, 1, 2) have nilpotency class
    # 2, none and 1, so a plan kept from one assembly to the next would
    # cut the slot selections of the next at the wrong length
    classes = [make(4).algebra((0, 1, 2)).nilpotency_class() for make in _SHARED_TRIANGLE]
    assert classes == [2, None, 1]
    for make in makes:
        _reference_matrices(make, 4)
    for make in makes:
        jb = jb_assemble(make(4))
        got = {deg: jb.matrix(deg).entries for deg in jb.degrees()}
        assert got == _reference_matrices(make, 4)


@pytest.mark.parametrize("factory", [
    factories.nonabelian_triangle, factories.dg_triangle, factories.mc_triangle,
])
def test_differential_of_a_word_does_not_depend_on_its_tag(factory):
    sela = factory(4)
    memo = {}
    retagged = {}
    for monos in jb_assemble(sela).basis.values():
        for word, q in monos:
            d = monomial_differential(sela, (word, q), memo)
            assert all(tag == q for _, tag in d)
            retagged.setdefault(word, []).append([(w, v) for (w, _), v in d.items()])
    assert any(len(ds) > 1 for ds in retagged.values())
    for word, ds in retagged.items():
        assert all(d == ds[0] for d in ds), word


@pytest.mark.parametrize("seed", range(2))
def test_chain_differential_equals_memo_free_sum(seed):
    rng = random.Random(seed)
    sela = factories.nonabelian_triangle(4)
    ring = ArtinLine(4)
    gauges = {}
    for v in sela.simplices(1):
        lie = sela.algebra(v)
        gauges[v] = LieElement.from_dict(lie, ring, {
            lie.names[i]: [0] + [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            for i in lie.basis_indices(0)
        })
    chain = special_cocycle(sela, {}, coboundary_gluing(sela, gauges)).chain
    reweighted = {m: c * (n % 3 + 1) for n, (m, c) in enumerate(sorted(chain.items()))}
    for ch in (chain, reweighted):
        want = {}
        for mono, coeff in ch.items():
            for target, v in monomial_differential(sela, mono).items():
                want[target] = want.get(target, 0) + coeff * v
        want = {target: v for target, v in want.items() if v}
        assert chain_differential(sela, ch) == want
    assert chain_differential(sela, chain) == {}
    assert chain_differential(sela, reweighted) != {}


@lru_cache(maxsize=None)
def _built_table(degree):
    return build_table(degree, tri=True)


@pytest.mark.parametrize("degrees", [range(1, 7), range(6, 0, -1)])
def test_shared_tables_are_truncations_of_the_largest(monkeypatch, degrees):
    builds = []

    def counted(degree, tri=False):
        builds.append(degree)
        return build_table(degree, tri=tri)

    monkeypatch.setattr(assemble, "_TABLE_CACHE", {})
    monkeypatch.setattr(assemble, "build_table", counted)
    served = {d: assemble._shared_table(d) for d in degrees}
    for d, table in served.items():
        assert assemble._shared_table(d) is table
        want = _built_table(d)
        assert table.max_degree == d
        assert table.bidegree == want.bidegree
        assert table.tridegree == want.tridegree
    assert builds == ([6] if degrees[0] == 6 else list(range(1, 7)))


# -- the E1 certificate ---------------------------------------------------

_E1_FACTORIES = [
    factories.nonabelian_triangle, factories.dg_triangle, factories.mc_triangle,
    factories.abelian_triangle, factories.obstructed_triangle,
    factories.lie_pair, factories.dg_pair, factories.mc_pair,
]


def _exact_routes(jb):
    """cohomology with the bound switched off, in every degree where d*d vanishes;
    None where it is refused."""
    jb.bound = lambda n: None
    try:
        return {
            degree: jb.cohomology(degree)
            if jb.matrix(degree).mul(jb.matrix(degree - 1)).is_zero() else None
            for degree in jb.degrees()
        }
    finally:
        del jb.bound


@pytest.mark.parametrize("order", [3, 4, 5])
@pytest.mark.parametrize("factory", _E1_FACTORIES, ids=lambda f: f.__name__)
def test_e1_bound_holds_and_answers_where_zero(monkeypatch, factory, order):
    jb = jb_assemble(factory(order))
    exact = _exact_routes(jb)
    bounds = {degree: jb.bound(degree) for degree in jb.degrees()}
    assert None not in bounds.values()
    for degree, route in exact.items():
        if route is not None:
            assert bounds[degree] >= route[0], degree
    # where E1 vanishes the answer comes with no elimination
    monkeypatch.setattr(exactnum, "_eliminate", lambda rows: pytest.fail("eliminated where E1 is 0"))
    for degree, route in exact.items():
        if route is None:
            with pytest.raises(ValueError, match=r"^d\*d does not vanish from degree %d; "
                               r"no cohomology in degree %d$" % (degree - 1, degree)):
                jb.cohomology(degree)
        elif bounds[degree] == 0:
            assert repr(jb.cohomology(degree)) == repr(route)
    monkeypatch.undo()
    for degree, route in exact.items():
        if route is not None and bounds[degree]:
            assert repr(jb.cohomology(degree)) == repr(route)


def test_e1_certificate_comes_after_the_d_squared_refusal():
    # E1 vanishes in these degrees, so checking it first would answer (0, [])
    jb = jb_assemble(factories.mc_triangle(4))
    for degree in (2, 3, 4):
        assert jb.bound(degree) == 0
        with pytest.raises(ValueError, match=r"^d\*d does not vanish from degree %d; "
                           r"no cohomology in degree %d$" % (degree - 1, degree)):
            jb_cohomology(jb, degree)


def test_e1_bound_values():
    # dg_triangle has H(C_1) = 0, so E1 vanishes in every degree
    total = TotalComplex(factories.dg_triangle(4))
    assert all(total.cohomology(m)[0] == 0 for m in total.degrees())
    jb = jb_assemble(factories.dg_triangle(4))
    assert all(jb.bound(n) == 0 for n in jb.degrees())
    # each C_q with q >= 2 loses the rank-one bracket Lambda^2 H -> H of
    # the nonabelian triangle: the true dimensions are 1, 4, 7
    jb = jb_assemble(factories.nonabelian_triangle(4))
    assert {n: jb.bound(n) for n in jb.degrees()} == {
        -3: 1, -2: 6, -1: 9, 0: 0, 1: 0, 2: 0, 3: 0,
    }


def test_bound_gate_names_degree_and_both_numbers(monkeypatch):
    jb = jb_assemble(factories.nonabelian_triangle(4))
    assert jb_cohomology(jb, -2)[0] == 4
    monkeypatch.setattr(jb, "bound", lambda n: 3)
    with pytest.raises(ValueError, match=r"^cohomology in degree -2: eliminations give "
                       r"dimension 4, above its E1 bound 3$"):
        jb_cohomology(jb, -2)


def _rescaled(sela, rng):
    """The same gluing datum under a seeded diagonal basis change."""
    scale = {
        s: [Fraction(rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 7))) * rng.choice((1, -1))
            for _ in range(lie.dim)]
        for s, lie in sela.algebras.items()
    }
    algebras = {}
    for s, lie in sela.algebras.items():
        k = scale[s]
        brackets = {(a, b): {c: v * k[a] * k[b] / k[c] for c, v in out.items()}
                    for (a, b), out in lie.brackets.items()}
        differential = None
        if lie.differential is not None:
            differential = SparseRatMatrix(lie.dim, lie.dim)
            for (c, a), v in lie.differential.entries.items():
                differential[c, a] = v * k[a] / k[c]
        algebras[s] = StructLie(lie.names, lie.degrees, brackets, differential)
    cofaces = {}
    for (inner, outer), mat in sela.cofaces.items():
        cofaces[inner, outer] = SparseRatMatrix(mat.nrows, mat.ncols, {
            (r, c): v * scale[inner][c] / scale[outer][r] for (r, c), v in mat.entries.items()
        })
    return Sela(sela.indices, algebras, cofaces, sela.artin_order)


@lru_cache(maxsize=None)
def _unscaled_dimensions(factory, order):
    jb = jb_assemble(factory(order))
    return {n: (jb.bound(n), r and r[0]) for n, r in _exact_routes(jb).items()}


@settings(max_examples=25, deadline=None, database=None)
@given(st.sampled_from([(f, 3) for f in _E1_FACTORIES] + [(factories.obstructed_triangle, 4)]),
       st.integers(0, 2**32 - 1))
def test_e1_bound_under_diagonal_basis_changes(made, seed):
    factory, order = made
    sela = _rescaled(factory(order), random.Random(seed))
    assert sela.validate() == []
    jb = jb_assemble(sela)
    exact = _exact_routes(jb)
    assert {n: (jb.bound(n), r and r[0]) for n, r in exact.items()} == \
        _unscaled_dimensions(factory, order)
    for degree, route in exact.items():
        if route is not None and jb.bound(degree) == 0:
            assert repr(jb.cohomology(degree)) == repr(route)


def test_assembly_names_a_target_that_raises_the_factor_count(monkeypatch):
    sela = factories.nonabelian_triangle(4)
    degree = 0
    jb = jb_assemble(sela)  # no degree is assembled before the patch below
    source, (image, _) = next(
        (s, t) for s in jb.basis[degree] for t in jb.basis[degree + 1]
        if len(t[0]) == len(s[0]) + 1
    )

    def raising(sela, mono, memo=None):
        out = monomial_differential(sela, mono, memo)
        if mono[0] == source[0]:
            out[image, mono[1]] = Fraction(1)
        return out

    monkeypatch.setattr(assemble, "monomial_differential", raising)
    named = "differential raises the factor count: %s -> %s" % (
        format_monomial(sela, source), format_monomial(sela, (image, source[1])))
    jb.matrix(degree - 1)  # a degree without the word assembles
    for read in (lambda: jb.matrix(degree), lambda: jb.cohomology(degree),
                 lambda: jb.cohomology(degree + 1)):
        with pytest.raises(AssertionError, match="^%s$" % re.escape(named)):
            read()


def test_cohomology_of_nonabelian_triangle_4_makes_two_eliminations_per_degree(monkeypatch):
    # row_echelon(d) and one elimination of the previous d on d's free
    # rows in each degree; a route through a column echelon of the image
    # makes 7
    calls = []
    eliminate = exactnum._eliminate
    monkeypatch.setattr(exactnum, "_eliminate", lambda rows: calls.append(1) or eliminate(rows))
    jb = jb_assemble(factories.nonabelian_triangle(4))
    assert [jb.bound(n) for n in (-3, -2, -1)] == [1, 6, 9]  # the E1 table's own eliminations
    calls.clear()
    assert [jb.cohomology(n)[0] for n in (-3, -2, -1)] == [1, 4, 7]
    assert len(calls) == 6


def test_euler_check_on_nonabelian_triangle_5_makes_eight_eliminations(monkeypatch):
    # four on TotalComplex for the E1 table, built once, and one per JB
    # matrix out of degrees -4..-1: E1 vanishes in every other degree
    calls = []
    eliminate = exactnum._eliminate
    monkeypatch.setattr(exactnum, "_eliminate", lambda rows: calls.append(1) or eliminate(rows))
    jb = jb_assemble(factories.nonabelian_triangle(5))
    assert euler_characteristic_check(jb)["equal"]
    assert len(calls) == 8
    assert [n for n in jb.degrees() if jb.bound(n)] == [-3, -2, -1]


def _koszul_sorted(sela, word):
    """(sign, sorted word) of a word of factors; None when an odd factor repeats."""
    word, sign = list(word), 1
    for i in range(len(word)):
        for j in range(len(word) - 1 - i):
            a, b = word[j], word[j + 1]
            if factor_key(a) > factor_key(b):
                word[j], word[j + 1] = b, a
                if factor_parity(sela, a) and factor_parity(sela, b):
                    sign = -sign
    if any(a == b and factor_parity(sela, a) for a, b in zip(word, word[1:])):
        return None
    return sign, tuple(word)


@pytest.mark.parametrize("factory", _E1_FACTORIES, ids=lambda f: f.__name__)
def test_count_preserving_part_of_d_is_the_derivation_extension(factory):
    # the associated graded of the factor-count filtration is Sym(C_1):
    # TotalComplex's d on one factor, with a sign for each odd factor on
    # its left, and the word resorted with Koszul signs
    sela = factory(4)
    jb, total = jb_assemble(sela), TotalComplex(sela)
    one = {}
    for m in total.degrees():
        for (r, c), v in total.matrix(m).entries.items():
            one.setdefault(total.basis[m][c], []).append((total.basis[m + 1][r], v))
    for deg in jb.degrees():
        sources, targets = jb.basis[deg], jb.basis.get(deg + 1, [])
        rows = jb.index.get(deg + 1, {})
        want = {}
        for col, (word, q) in enumerate(sources):
            for t, f in enumerate(word):
                sign = (-1) ** sum(factor_parity(sela, g) for g in word[:t])
                for g, v in one.get(f, ()):
                    moved = _koszul_sorted(sela, word[:t] + (g,) + word[t + 1:])
                    if moved is not None:
                        key = rows[moved[1], q], col
                        want[key] = want.get(key, 0) + sign * moved[0] * v
        got = {
            (r, c): v for (r, c), v in jb.matrix(deg).entries.items()
            if len(targets[r][0]) == len(sources[c][0])
        }
        assert got == {k: v for k, v in want.items() if v}, deg

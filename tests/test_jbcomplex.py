"""Assembled chain complexes over gluing data: d*d, filtration, cohomology."""

import json
import random
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import combinations, combinations_with_replacement

import pytest

from jbkit.bch import build_table
from jbkit.freelie import (
    Alphabet, AssocPoly, FreeLieElement, _extract_lie, evaluate_lie, expand_associative,
)
from jbkit.liecore import ArtinLine, LieElement
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
    verify_d_squared,
)
from jbkit.jbcomplex.assemble import (
    chain_differential, factor_degree, factor_parity, monomial_differential,
)
from jbkit.exactnum import bernoulli_normalized, column_echelon, insert, rank_kernel
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
            for out, v in jb.differential_of_chain({mono: coeff}).items():
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


# -- degree windows and caps ----------------------------------------------

def test_window_matches_full_complex_inside():
    full = jb_assemble(factories.nonabelian_triangle(3))
    part = jb_assemble(factories.nonabelian_triangle(3), degree_window=(-1, 1))
    for deg in (-1, 0, 1):
        assert part.basis[deg] == full.basis[deg]
    assert part.matrix(0).entries == full.matrix(0).entries


def test_window_validation():
    with pytest.raises(ValueError, match="empty degree window"):
        jb_assemble(factories.abelian_triangle(2), degree_window=(1, 0))
    jb = jb_assemble(factories.abelian_triangle(2), degree_window=(0, 1))
    with pytest.raises(ValueError, match="window"):
        jb_cohomology(jb, 0)
    with pytest.raises(ValueError, match="full complex"):
        euler_characteristic_check(jb)


def test_sym_cap_refuses_truncation():
    with pytest.raises(ValueError, match="below the nilpotency bound"):
        jb_assemble(factories.abelian_triangle(4), sym_cap=1)
    jb = jb_assemble(factories.abelian_triangle(4), sym_cap=3)
    assert verify_d_squared(jb) == []


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
    monos = jb.monomials(degree)
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
    span = column_echelon(prev)
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
    lambda: factories.dg_triangle(4),
    lambda: factories.lie_pair(3),
    _bundled_triangle,
], ids=["nonabelian_triangle3", "nonabelian_triangle4", "dg_triangle4", "lie_pair3", "bundled"])
def test_cohomology_equals_full_kernel_route(monkeypatch, make):
    # same dimension and representatives in every degree, and no kernel
    # vector built beyond the last one the sweep reads
    built = [0]
    kernel_vectors = assemble.kernel_vectors

    def counting(echelon, ncols):
        for vec in kernel_vectors(echelon, ncols):
            built[0] += 1
            yield vec

    monkeypatch.setattr(assemble, "kernel_vectors", counting)
    jb = jb_assemble(make())
    for degree in jb.degrees():
        built[0] = 0
        dim, reps, read = _full_kernel_cohomology(jb, degree)
        assert jb_cohomology(jb, degree) == (dim, reps)
        assert built[0] == read


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
    return subst.multidegree_part((1,) * n)


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
    for deg in jb.matrices:
        rows = jb.index.get(deg + 1, {})
        entries = {}
        for col, mono in enumerate(jb.basis[deg]):
            for target, v in monomial_differential(jb.sela, mono, jb.table).items():
                key = (rows[target], col)
                entries[key] = entries.get(key, 0) + v
        out[deg] = {key: v for key, v in entries.items() if v}
    return out


@pytest.mark.parametrize("factory", [factories.nonabelian_triangle, factories.dg_triangle])
def test_assembly_equals_memo_free_monomial_differentials(factory):
    jb = jb_assemble(factory(4))
    reference = _memo_free_matrices(jb)
    assert set(reference) == set(jb.matrices)
    for deg, entries in reference.items():
        mat = jb.matrices[deg]
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


def _reference_monomial_differential(sela, mono, table):
    """Memo-free d of one monomial: Fraction signs, merge by sorting.

    Written independently of the assembly's per-factor data: cofaces and
    internal differentials come from full matrix scans, every emitted
    coefficient is multiplied by its two signs, and every target word is
    sorted by factor_key.
    """
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


@pytest.mark.parametrize("factory,order", [
    (factories.nonabelian_triangle, 4),
    (factories.dg_triangle, 4),
    (factories.mc_triangle, 3),
])
def test_assembly_equals_reference_monomial_differentials(factory, order):
    jb = jb_assemble(factory(order))
    assert set(jb.matrices) == set(jb.basis)
    for deg, mat in jb.matrices.items():
        rows = jb.index.get(deg + 1, {})
        want = {}
        for col, mono in enumerate(jb.basis[deg]):
            for target, v in _reference_monomial_differential(jb.sela, mono, jb.table).items():
                want[rows[target], col] = v
        assert mat.entries == want, deg
        assert all(type(v) is Fraction and v for v in mat.entries.values())


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
    table = assemble._shared_table(3)
    for ch in (chain, reweighted):
        want = {}
        for mono, coeff in ch.items():
            for target, v in monomial_differential(sela, mono, table).items():
                want[target] = want.get(target, 0) + coeff * v
        want = {target: v for target, v in want.items() if v}
        assert chain_differential(sela, ch, table) == want
    assert chain_differential(sela, chain, table) == {}
    assert chain_differential(sela, reweighted, table) != {}


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

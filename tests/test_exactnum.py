"""Bernoulli numbers and exact sparse linear algebra."""
import copy
import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from jbkit.exactnum import (
    SparseRatMatrix,
    _eliminate,
    _integer_row,
    _primitive,
    bernoulli,
    bernoulli_normalized,
    format_rational,
    insert,
    kernel_complement,
    parse_rational,
    rank,
    rank_kernel,
    remainder,
    row_echelon,
    solve,
)

# Classical table (B_1 = -1/2 convention).  Cross-checked below by the
# independent binomial recurrence, which also generated the entries.
BERNOULLI_TABLE = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    3: Fraction(0),
    4: Fraction(-1, 30),
    5: Fraction(0),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    20: Fraction(-174611, 330),
}


def bernoulli_oracle(nmax):
    """Independent route: B_n = -1/(n+1) * sum_{k<n} C(n+1,k) B_k, B_0 = 1."""
    b = [Fraction(1)]
    for n in range(1, nmax + 1):
        s = sum(comb(n + 1, k) * b[k] for k in range(n))
        b.append(Fraction(-s, n + 1))
    return b


def test_bernoulli_against_recurrence_oracle():
    oracle = bernoulli_oracle(40)
    for n in range(41):
        assert bernoulli(n) == oracle[n]


def test_bernoulli_frozen_values():
    for n, value in BERNOULLI_TABLE.items():
        assert bernoulli(n) == value


def test_bernoulli_defining_recurrence():
    # sum_{k=0}^{n} C(n+1,k) B_k = 0 for every n >= 1
    for n in range(1, 36):
        assert sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1)) == 0


def test_bernoulli_odd_vanish():
    for k in range(1, 20):
        assert bernoulli(2 * k + 1) == 0


def test_bernoulli_normalized():
    assert bernoulli_normalized(0) == 1
    assert bernoulli_normalized(1) == Fraction(-1, 2)
    assert bernoulli_normalized(2) == Fraction(1, 12)
    assert bernoulli_normalized(4) == Fraction(-1, 720)
    for t in range(12):
        assert bernoulli_normalized(t) == bernoulli(t) / Fraction(
            __import__("math").factorial(t)
        )


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_rational_round_trip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(8, 4)) == "2"
    assert parse_rational(format_rational(Fraction(-22, 7))) == Fraction(-22, 7)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def naive_rank(dense):
    """Plain Gaussian elimination over Fraction: the oracle for rank."""
    rows = [list(map(Fraction, r)) for r in dense]
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def test_rank_kernel_known_matrix():
    m = SparseRatMatrix.from_dense(
        [
            [1, 2, 3],
            [2, 4, 6],
            [1, 0, 1],
        ]
    )
    r, kernel = rank_kernel(m)
    assert r == 2
    assert len(kernel) == 1
    v = kernel[0]
    for i in range(3):
        assert sum(m[i, j] * v.get(j, Fraction(0)) for j in range(3)) == 0


def test_rank_kernel_identity_and_zero():
    ident = SparseRatMatrix.from_dense([[1, 0], [0, 1]])
    assert rank_kernel(ident) == (2, [])
    zero = SparseRatMatrix(3, 4)
    r, kernel = rank_kernel(zero)
    assert r == 0
    assert len(kernel) == 4


def test_rank_kernel_random_matches_naive_oracle():
    rng = random.Random(20260814)
    for _ in range(25):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        dense = [
            [
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if rng.random() < 0.6
                else Fraction(0)
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        m = SparseRatMatrix.from_dense(dense)
        r, kernel = rank_kernel(m)
        assert r == naive_rank(dense)
        assert r + len(kernel) == ncols
        for v in kernel:
            assert any(v.values())
            for i in range(nrows):
                assert (
                    sum(m[i, j] * v.get(j, Fraction(0)) for j in range(ncols)) == 0
                )


def test_sparse_product():
    a = SparseRatMatrix.from_dense([[1, 2], [0, 1]])
    b = SparseRatMatrix.from_dense([[1, 0], [3, 4]])
    assert a.mul(b).to_dense() == SparseRatMatrix.from_dense([[7, 8], [3, 4]]).to_dense()


def _dense_product(a, b):
    """Reference: every sum formed in Fraction arithmetic on dense rows."""
    x, y = a.to_dense(), b.to_dense()
    return [
        [sum((x[i][k] * y[k][j] for k in range(a.ncols)), Fraction(0)) for j in range(b.ncols)]
        for i in range(a.nrows)
    ]


_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 7, 12])),
)


def _blocks(nrows, ncols):
    return st.lists(st.lists(_entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@st.composite
def _cancelling_pairs(draw):
    """A = [X | -X | Z] and B = [Y; Y; W]: AB = ZW, every XY sum cancels."""
    n, m, l, p = (draw(st.integers(0, 4)) for _ in range(4))
    x, z = draw(_blocks(n, m)), draw(_blocks(n, l))
    y, w = draw(_blocks(m, p)), draw(_blocks(l, p))
    a = SparseRatMatrix(n, 2 * m + l)
    for i in range(n):
        for k, v in enumerate(x[i] + [-v for v in x[i]] + z[i]):
            a[i, k] = v
    b = SparseRatMatrix(2 * m + l, p)
    for k, row in enumerate(y + y + w):
        for j, v in enumerate(row):
            b[k, j] = v
    return a, b


@settings(max_examples=80, deadline=None, database=None)
@given(_cancelling_pairs())
def test_integer_product_matches_dense_fraction_product(pair):
    a, b = pair
    prod = a.mul(b)
    assert (prod.nrows, prod.ncols) == (a.nrows, b.ncols)
    assert prod.to_dense() == _dense_product(a, b)
    assert all(v != 0 for v in prod.entries.values())
    assert all(type(v) is Fraction for v in prod.entries.values())


_FRACTIONS = st.builds(
    Fraction, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**4)
)


@settings(max_examples=100, deadline=None, database=None)
@given(st.dictionaries(st.integers(0, 40), _FRACTIONS, min_size=1, max_size=12))
def test_integer_row_matches_fraction_route(row):
    # clearing denominators in integers builds the row that scaling
    # each Fraction by the lcm of the denominators builds
    scale = lcm(*(v.denominator for v in row.values()))
    old = _primitive({j: int(v * scale) for j, v in row.items()})
    new = _integer_row(dict(row))
    assert new == old
    assert list(new) == list(old)
    assert all(type(v) is int for v in new.values())


def test_product_of_empty_and_zero_shaped_matrices():
    # no denominators at all: lcm() of nothing is 1
    assert SparseRatMatrix(0, 3).mul(SparseRatMatrix(3, 0)) == SparseRatMatrix(0, 0)
    assert SparseRatMatrix(3, 0).mul(SparseRatMatrix(0, 2)) == SparseRatMatrix(3, 2)
    assert SparseRatMatrix(2, 3).mul(SparseRatMatrix(3, 4)) == SparseRatMatrix(2, 4)
    a = SparseRatMatrix.from_dense([[Fraction(1, 2), Fraction(-1, 3)]])
    b = SparseRatMatrix.from_dense([[Fraction(2, 3)], [1]])
    assert a.mul(b).entries == {}
    with pytest.raises(ValueError):
        a.mul(a)


def test_solve_consistent_and_inconsistent():
    m = SparseRatMatrix.from_dense([[1, 2], [2, 4]])
    x, rest = solve(m, {0: Fraction(3), 1: Fraction(6)})
    assert x is not None and rest == {}
    assert m[0, 0] * x.get(0, Fraction(0)) + m[0, 1] * x.get(1, Fraction(0)) == 3
    assert solve(m, {0: Fraction(3), 1: Fraction(7)}) == (None, {1: Fraction(1)})


def test_solve_random_systems():
    rng = random.Random(7)
    consistent = set()
    for _ in range(20):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        dense = [
            [Fraction(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)
        ]
        m = SparseRatMatrix.from_dense(dense)
        target = {j: Fraction(rng.randint(-2, 2)) for j in range(ncols)}
        rhs = {}
        for i in range(nrows):
            s = sum(dense[i][j] * target.get(j, Fraction(0)) for j in range(ncols))
            if s:
                rhs[i] = s
        x, rest = solve(m, rhs)
        assert x is not None and rest == {}
        for i in range(nrows):
            lhs = sum(dense[i][j] * x.get(j, Fraction(0)) for j in range(ncols))
            assert lhs == rhs.get(i, Fraction(0))
        # the free coordinates of x are 0
        assert set(x) <= set(row_echelon(m))
        # any right-hand side: rest is b modulo the column space
        rhs = {i: Fraction(rng.randint(-2, 2)) for i in range(nrows)}
        x, rest = solve(m, rhs)
        assert rest == remainder(row_echelon(m.transpose()), rhs)
        assert (x is None) == bool(rest)
        consistent.add(x is not None)
    assert consistent == {True, False}


def _random_dense(rng, nrows, ncols, density):
    return [
        [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if rng.random() < density
            else Fraction(0)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def test_remainder_is_canonical_and_differs_by_the_span():
    rng = random.Random(20261017)
    for _ in range(40):
        n, k = rng.randint(1, 8), rng.randint(0, 7)
        cols = _random_dense(rng, k, n, 0.5)  # k spanning vectors of length n
        if rng.random() < 0.3 and k >= 2:
            cols.append([a + 2 * b for a, b in zip(cols[0], cols[1])])
        echelon = row_echelon(SparseRatMatrix.from_dense(cols)) if cols else {}
        vec = {i: x for i, x in enumerate(_random_dense(rng, 1, n, 0.7)[0]) if x}
        rest = remainder(echelon, vec)
        assert not set(rest) & set(echelon)
        assert all(rest.values())
        diff = [vec.get(i, Fraction(0)) - rest.get(i, Fraction(0)) for i in range(n)]
        assert naive_rank(cols + [diff]) == naive_rank(cols)
        # the same span written another way leaves the same remainder
        other = [[3 * x for x in c] for c in reversed(cols)]
        if len(other) >= 2:
            other[0] = [a - b for a, b in zip(other[0], other[1])]
        again = row_echelon(SparseRatMatrix.from_dense(other)) if other else {}
        assert remainder(again, vec) == rest
        for c in cols:
            assert remainder(echelon, {i: x for i, x in enumerate(c) if x}) == {}


def test_insert_grows_the_span_only_by_independent_vectors():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 7)
        echelon, kept = {}, []
        for vec in _random_dense(rng, rng.randint(1, 9), n, 0.4):
            independent = naive_rank(kept + [vec]) > naive_rank(kept)
            assert insert(echelon, {i: x for i, x in enumerate(vec) if x}) is independent
            if independent:
                kept.append(vec)
            assert len(echelon) == len(kept)
            assert all(min(row) == p for p, row in echelon.items())
        # the grown echelon reduces like a fresh one of the same span
        fresh = row_echelon(SparseRatMatrix.from_dense(kept)) if kept else {}
        for probe in _random_dense(rng, 3, n, 0.8):
            probe = {i: x for i, x in enumerate(probe) if x}
            assert remainder(echelon, probe) == remainder(fresh, probe)


# -- bucketed elimination against the scan-based one ---------------------------

def _reference_combine(p, r, a, q):
    """p*r - a*q divided by its content, on a copy: r and q are only read."""
    new = {j: p * v for j, v in r.items()}
    for j, v in q.items():
        w = new.get(j, 0) - a * v
        if w:
            new[j] = w
        else:
            new.pop(j, None)
    g = 0
    for v in new.values():
        g = gcd(g, v)
    if g > 1:
        new = {j: v // g for j, v in new.items()}
    return new


def _reference_eliminate(rows):
    """Every pivot step scans and rebuilds the whole pending list."""
    echelon = {}
    pending = [(min(r), r) for r in rows if r]
    while pending:
        lead = min(m for m, _ in pending)
        work, candidates = [], []
        for item in pending:
            if item[0] == lead:
                candidates.append(item[1])
            else:
                work.append(item)
        if lead in echelon:
            pivot_row = echelon[lead]
        else:
            candidates.sort(key=lambda r: (len(r), abs(r[lead])))
            pivot_row = candidates.pop(0)
            echelon[lead] = pivot_row
        p = pivot_row[lead]
        for r in candidates:
            new = _reference_combine(p, r, r[lead], pivot_row)
            if new:
                work.append((min(new), new))
        pending = work
    return echelon


# few columns and small entries, so that leads and pivot magnitudes tie often
_int_rows = st.lists(
    st.dictionaries(st.integers(0, 5), st.sampled_from([-3, -2, -1, 1, 2, 3, 6]), max_size=5),
    max_size=10,
)


def _written_out(echelon):
    return [(c, list(row.items())) for c, row in echelon.items()]


@settings(max_examples=200, deadline=None, database=None)
@given(_int_rows)
def test_bucketed_elimination_equals_scan_reference(rows):
    want = _reference_eliminate(copy.deepcopy(rows))
    assert _written_out(_eliminate(copy.deepcopy(rows))) == _written_out(want)


def _random_matrix(rng, nrows, ncols, density):
    """nrows x ncols, built entry by entry: from_dense reads no width off zero rows."""
    m = SparseRatMatrix(nrows, ncols)
    for i, row in enumerate(_random_dense(rng, nrows, ncols, density)):
        for j, x in enumerate(row):
            m[i, j] = x
    return m


def test_rank_needs_no_kernel_and_agrees_with_rank_kernel():
    rng = random.Random(611)
    shapes = set()
    for _ in range(40):
        nrows, ncols = rng.randint(0, 8), rng.randint(0, 8)
        m = _random_matrix(rng, nrows, ncols, rng.random())
        assert (m.nrows, m.ncols) == (nrows, ncols)
        r, kernel = rank_kernel(m)
        assert rank(m) == r
        assert len(kernel) == ncols - r
        shapes.add((nrows, ncols))
    assert any(nrows == 0 < ncols for nrows, ncols in shapes)


def test_rank_kernel_solve_and_row_echelon_leave_the_matrix_alone():
    rng = random.Random(17)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), 0.6)
        before = list(m.entries.items())
        rank(m)
        rank_kernel(m)
        row_echelon(m.transpose())
        list(kernel_complement({}, m)[1])
        solve(m, {i: Fraction(i + 1) for i in range(m.nrows)})
        assert list(m.entries.items()) == before


def _greedy_complement(d, prev):
    """rank(prev) and the kernel vectors of d, ascending, that raise the span of prev and those kept."""
    span = row_echelon(prev.transpose())
    rank_prev = len(span)
    return rank_prev, [v for v in rank_kernel(d)[1] if insert(span, v)]


def _kernel_pair(rng, kind):
    """A random d and a prev with d*prev = 0: prev zero, random, or spanning ker d."""
    n = rng.randint(1, 7)
    d = SparseRatMatrix(rng.randint(0, 5), n)
    if kind != "d=0":
        for (i, j), x in _random_matrix(rng, 5, n, rng.random()).entries.items():
            if i < d.nrows:
                d[i, j] = x
    kernel = rank_kernel(d)[1]
    weights = [[rng.randint(-2, 2) for _ in kernel] for _ in range(rng.randint(0, 6))]
    if kind == "prev=0":
        weights = [[0] * len(kernel) for _ in weights]
    if kind == "full":
        weights += [[int(i == c) for i in range(len(kernel))] for c in range(len(kernel))]
    prev = SparseRatMatrix(n, len(weights))
    for c, w in enumerate(weights):
        for a, v in zip(w, kernel):
            for i, x in v.items():
                prev[i, c] += a * x
    assert d.mul(prev).is_zero()
    return d, prev


@pytest.mark.parametrize("kind", ["random", "prev=0", "d=0", "full"])
def test_kernel_complement_keeps_what_the_greedy_sweep_keeps(kind):
    rng = random.Random("kernel complement " + kind)
    for _ in range(60):
        d, prev = _kernel_pair(rng, kind)
        rank_prev, vectors = kernel_complement(row_echelon(d), prev)
        want_rank, want = _greedy_complement(d, prev)
        assert rank_prev == want_rank == rank(prev)
        assert list(vectors) == want
        assert len(want) == d.ncols - rank(d) - rank_prev
        if kind == "full":
            assert want == []


def test_remainder_and_insert_leave_echelon_rows_alone():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 7)
        cols = _random_dense(rng, rng.randint(1, 6), n, 0.6)
        echelon = row_echelon(SparseRatMatrix.from_dense(cols))
        for vec in _random_dense(rng, 4, n, 0.7):
            vec = {i: x for i, x in enumerate(vec) if x}
            before = copy.deepcopy(echelon)
            remainder(echelon, vec)
            assert echelon == before
            insert(echelon, vec)
            assert {c: echelon[c] for c in before} == before

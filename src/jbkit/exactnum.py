"""Exact rational arithmetic: Bernoulli numbers and sparse linear algebra.

Everything in this package computes over Q.  The rational scalar type is
the standard-library ``fractions.Fraction`` (always normalized, hashable,
totally ordered), re-exported here as ``Rational`` so callers do not
depend on the backing type.  Exact integer sums live here once:
``_integer_form`` writes a sparse map as integers over one denominator,
``_linear`` combines such maps, and ``_power_sum`` sums coeff(k) u^k
until a power is empty, for the word series of ``bch`` and ``exp_chain``.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import comb, factorial, gcd, lcm

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        if int(den) == 0:
            raise ValueError("zero denominator in %r" % text)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def json_int(value, field: str, datum: str, nonnegative: bool = False) -> int:
    """A JSON integer, not a bool; else "malformed <datum> (...)" naming the field."""
    if not isinstance(value, int) or isinstance(value, bool) or (nonnegative and value < 0):
        kind = "a nonnegative integer" if nonnegative else "an integer"
        raise ValueError("malformed %s (%s must be %s, got %r)" % (datum, field, kind, value))
    return value


def json_rational(value, field: str, datum: str) -> Fraction:
    """A Fraction, an int (not bool, not float) or a "p/q" / "p" string; else "malformed ..."."""
    if type(value) is Fraction:
        return value
    reason = ""
    if isinstance(value, str) or type(value) is int:
        try:
            return parse_rational(str(value))
        except ValueError as e:
            reason = ": %s" % e
    raise ValueError('malformed %s (%s must be an integer or a "p/q" string, got %r%s)'
                     % (datum, field, value, reason))


def exact_scalar(c) -> Fraction:
    """c as a Fraction by json_rational's rule, so no float or bool; ints and Fractions go first."""
    if type(c) is Fraction:
        return c
    if type(c) is int:
        return Fraction(c)
    return json_rational(c, "factor", "scalar")


def _add_maps(u: dict, v: dict) -> dict:
    """Sum of two sparse maps {key: coefficient}, zeros dropped; the only sparse sum.

    Keys keep the order of their first insertion, u's before v's.  A
    coefficient needs only + and truthiness meaning nonzero.
    """
    out = dict(u)
    for c, w in v.items():
        s = out.get(c)
        out[c] = w if s is None else s + w
    return {c: w for c, w in out.items() if w}


def _integer_form(terms: dict) -> tuple:
    """(d, {key: int}) with d the lcm of the denominators: terms = ints / d."""
    d = lcm(*(c.denominator for c in terms.values()))
    return d, {k: c.numerator * (d // c.denominator) for k, c in terms.items()}


def _linear(parts) -> tuple:
    """sum c * (v / d) over (Fraction c, (d, v)) in ``parts``, as (den, {key: int})."""
    den = lcm(*(c.denominator * d for c, (d, _) in parts))
    out: dict = {}
    for c, (d, v) in parts:
        f = c.numerator * (den // (c.denominator * d))
        for k, x in v.items():
            out[k] = out.get(k, 0) + f * x
    return den, {k: x for k, x in out.items() if x}


def _power_sum(terms: dict, unit, times, coeff, start: dict) -> dict:
    """start + sum_{k >= 1} coeff(k) u^k for the sparse map u = terms, until a power is empty.

    ``times`` multiplies integer maps, with unit ``{unit: 1}``; the first
    power is ``times({unit: 1}, v)``, so it drops what ``times`` drops.
    With u = v / d the k-th power is an integer map over d^k, the sum is
    kept over one denominator and each key is divided once, keys in
    order of first insertion.
    """
    d, v = _integer_form(terms)
    den, total = _integer_form(start)
    power, k = times({unit: 1}, v), 1
    while power:
        den, total = _linear([(ONE, (den, total)), (coeff(k), (d**k, power))])
        power, k = times(power, v), k + 1
    return {key: Fraction(c, den) for key, c in total.items()}


def format_rational(x: Fraction) -> str:
    """Render an exact rational as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Bernoulli numbers
#
# Convention: B_n are the coefficients of x/(e^x - 1) = sum B_n x^n / n!,
# so B_1 = -1/2.  They are computed by inverting the power series
# D(x) = (e^x - 1)/x term by term: with D(x) = sum x^k/(k+1)!, the inverse
# C(x) = sum c_n x^n satisfies c_0 = 1 and c_n = -sum_{k=1}^{n} c_{n-k}/(k+1)!
# and B_n = n! * c_n.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _c_coeff(n: int) -> Fraction:
    if n == 0:
        return ONE
    return -sum((_c_coeff(n - k) / factorial(k + 1) for k in range(1, n + 1)), ZERO)


def bernoulli(n: int) -> Fraction:
    """n-th Bernoulli number (B_1 = -1/2 convention), exact."""
    if n < 0:
        raise ValueError("Bernoulli numbers are indexed by n >= 0")
    return _c_coeff(n) * factorial(n)


def bernoulli_normalized(t: int) -> Fraction:
    """Normalized coefficient B_t / t!, the t-th Taylor coefficient of x/(e^x-1)."""
    if t < 0:
        raise ValueError("normalized Bernoulli coefficients are indexed by t >= 0")
    return _c_coeff(t)


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return comb(n, k)


# ---------------------------------------------------------------------------
# Sparse exact matrices and fraction-free elimination
# ---------------------------------------------------------------------------


class SparseRatMatrix:
    """Sparse matrix over Q: explicit shape, dict of nonzero entries.

    Entries are stored as ``{(i, j): Fraction}`` with zeros never kept.
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix shape must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (i, j), v in dict(entries).items():
                self[i, j] = v

    def __getitem__(self, key) -> Fraction:
        return self.entries.get(key, ZERO)

    def __setitem__(self, key, value) -> None:
        i, j = key
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry {key} outside {self.nrows}x{self.ncols} matrix")
        v = value if type(value) is Fraction else exact_scalar(value)
        if v == 0:
            self.entries.pop(key, None)
        else:
            self.entries[key] = v

    def __eq__(self, other):
        return (
            isinstance(other, SparseRatMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseRatMatrix({self.nrows}x{self.ncols}, {len(self.entries)} nonzero)"

    @staticmethod
    def identity(n: int) -> "SparseRatMatrix":
        m = SparseRatMatrix(n, n)
        m.entries = {(i, i): ONE for i in range(n)}
        return m

    def is_zero(self) -> bool:
        return not self.entries

    def transpose(self) -> "SparseRatMatrix":
        m = SparseRatMatrix(self.ncols, self.nrows)
        m.entries = {(j, i): v for (i, j), v in self.entries.items()}
        return m

    def add(self, other: "SparseRatMatrix") -> "SparseRatMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        m = SparseRatMatrix(self.nrows, self.ncols)
        m.entries = _add_maps(self.entries, other.entries)
        return m

    def scale(self, c) -> "SparseRatMatrix":
        c = exact_scalar(c)
        m = SparseRatMatrix(self.nrows, self.ncols)
        if c != 0:
            m.entries = {key: c * v for key, v in self.entries.items()}
        return m

    def mul(self, other: "SparseRatMatrix") -> "SparseRatMatrix":
        """Sparse matrix product self @ other, accumulated in integers, row by row.

        With a the lcm of the denominators of self and b that of other,
        aA and bB have integer entries, so every sum of the product
        (aA)(bB) = ab(AB) is a sum of Python ints: exact, and free of the
        gcd that each Fraction addition pays.  Each output row i is
        accumulated on its own (Gustavson's row-wise product), in a dict
        keyed by column: the entries of row i of self, in their order,
        each add a multiple of one row of other.  Only row i of self
        reaches row i of the product, so a row is complete when its
        entries are spent.  A column is dropped from the row as soon as
        its running sum is zero, so sums that cancel are never stored and
        no zero reaches the result.  Each entry is divided by ab once at
        the end.  The result lists its rows in the order they first occur
        in self.
        """
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        b = lcm(*{v.denominator for v in other.entries.values()})
        rows_of_other: dict[int, list[tuple[int, int]]] = {}
        for (k, j), v in other.entries.items():
            n, d = v.as_integer_ratio()
            rows_of_other.setdefault(k, []).append((j, n * (b // d)))
        a = lcm(*{v.denominator for v in self.entries.values()})
        rows_of_self: dict[int, list[tuple[int, list[tuple[int, int]]]]] = {}
        for (i, k), v in self.entries.items():
            row = rows_of_other.get(k)
            if row is not None:
                n, d = v.as_integer_ratio()
                rows_of_self.setdefault(i, []).append((n * (a // d), row))
        ab = a * b
        entries = {}
        for i, terms in rows_of_self.items():
            acc: dict[int, int] = {}
            get = acc.get
            for x, row in terms:
                for j, y in row:
                    s = get(j, 0) + x * y
                    if s:
                        acc[j] = s
                    else:
                        del acc[j]
            for j, s in acc.items():
                entries[i, j] = Fraction(s, ab)
        m = SparseRatMatrix(self.nrows, other.ncols)
        m.entries = entries
        return m

    def apply(self, vec: dict) -> dict:
        """Apply to a sparse column vector {index: coeff}; zeros dropped.

        The only sparse linear map: a coefficient may be a Fraction or
        any ring element that a Fraction scales from the left and whose
        truthiness means nonzero (liecore.ArtinElt, schemes.TruncPoly).
        """
        out: dict = {}
        for (i, j), a in self.entries.items():
            c = vec.get(j)
            if c:
                term = a * c
                s = out.get(i)
                out[i] = term if s is None else s + term
        return {i: w for i, w in out.items() if w}

    def column(self, j: int) -> dict[int, Fraction]:
        """Column j as a sparse vector {row index: Fraction}."""
        return {i: v for (i, c), v in self.entries.items() if c == j}

    def rows(self) -> dict[int, dict[int, Fraction]]:
        out: dict[int, dict[int, Fraction]] = {}
        for (i, j), v in self.entries.items():
            out.setdefault(i, {})[j] = v
        return out

    def to_dense(self) -> list[list[Fraction]]:
        dense = [[ZERO] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            dense[i][j] = v
        return dense

    @staticmethod
    def from_dense(rows) -> "SparseRatMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        m = SparseRatMatrix(nrows, ncols)
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    m[i, j] = v
        return m


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g
    return row


def _integer_row(row: dict[int, Fraction]) -> dict[int, int]:
    """Clear the denominators of one row and divide out its content."""
    return _primitive(_integer_form(row)[1])


def _combine(p: int, r: dict[int, int], a: int, q: dict[int, int]) -> dict[int, int]:
    """The fraction-free row update p*r - a*q, divided by its content.

    Consumes r: the update is made in r, which is returned.  q is only
    read.
    """
    if p != 1:
        for j in r:
            r[j] *= p
    for j, v in q.items():
        w = r.get(j, 0) - a * v
        if w:
            r[j] = w
        else:
            del r[j]
    return _primitive(r)


def _eliminate(rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Fraction-free forward elimination.

    Returns echelon rows keyed by pivot column, the smallest column of
    each row.  Consumes the input rows: each is either kept as an
    echelon row or updated in place by ``_combine``, so every
    intermediate value is an exact integer of controlled size.

    Pending rows wait in first-in, first-out buckets keyed by their
    lead column, and a heap holds the leads.  Leads come out in
    ascending order, each once, because a combined row leads further
    right than the pivot that cleared it.  A bucket's rows are the
    pivot candidates, in the order they were given or made; the pivot
    is the first of the shortest rows, which keeps fill-in down, and of
    those the first of smallest magnitude (a stable sort); the others
    are combined with it in sorted order.
    """
    echelon: dict[int, dict[int, int]] = {}
    buckets: dict[int, list[dict[int, int]]] = {}
    for r in rows:
        if r:
            buckets.setdefault(min(r), []).append(r)
    leads = list(buckets)
    heapify(leads)
    while leads:
        lead = heappop(leads)
        candidates = buckets.pop(lead)
        if len(candidates) > 1:
            candidates.sort(key=lambda r: (len(r), abs(r[lead])))
        pivot_row = echelon[lead] = candidates[0]
        p = pivot_row[lead]
        for r in candidates[1:]:
            new = _combine(p, r, r[lead], pivot_row)
            if new:
                m = min(new)
                bucket = buckets.get(m)
                if bucket is None:
                    buckets[m] = [new]
                    heappush(leads, m)
                else:
                    bucket.append(new)
    return echelon


def row_echelon(matrix: SparseRatMatrix) -> dict[int, dict[int, int]]:
    """Echelon rows spanning the row space of matrix, keyed by pivot; eliminated in Z."""
    return _eliminate([_integer_row(row) for _, row in sorted(matrix.rows().items())])


def remainder(
    echelon: dict[int, dict[int, int]], vec: dict[int, Fraction]
) -> dict[int, Fraction]:
    """Remainder of a sparse vector modulo the span of echelon rows.

    ``echelon`` is in the form ``_eliminate`` returns.  Pivots are
    eliminated in ascending order by ``_combine``, with the common
    denominator carried along as coordinate -1.  The remainder is zero
    on every pivot column, so it depends only on the span and not on
    the echelon form chosen for it.  Echelon rows are only read.
    """
    v = _integer_row({j: x for j, x in vec.items() if x} | {-1: ONE})
    todo = [j for j in v if j in echelon]
    heapify(todo)
    while todo:
        c = heappop(todo)
        if c in v:
            row = echelon[c]
            v = _combine(row[c], v, v[c], row)
            for j in row:
                if j != c and j in echelon:
                    heappush(todo, j)
    den = v.pop(-1)
    return {j: Fraction(x, den) for j, x in v.items()}


def insert(echelon: dict[int, dict[int, int]], vec: dict[int, Fraction]) -> bool:
    """Add vec to the span of echelon; report whether it was independent."""
    rest = remainder(echelon, vec)
    if rest:
        echelon[min(rest)] = _integer_row(rest)
    return bool(rest)


def _back_substitute(echelon: dict[int, dict[int, int]], starts):
    """Complete each start vector so that every echelon row annihilates it.

    A start vector holds the non-pivot coordinates; the pivot ones are
    solved from the largest pivot down.  The completed vectors are
    yielded one at a time, so a caller that stops early pays only for
    the vectors it has read.
    """
    order = sorted(echelon, reverse=True)
    for x in starts:
        for c in order:
            row = echelon[c]
            s = ZERO
            for j, a in row.items():
                if j == c:
                    continue
                xv = x.get(j)
                if xv:
                    s += a * xv
            if s:
                x[c] = -s / row[c]
        yield x


def kernel_complement(echelon: dict[int, dict[int, int]], image: SparseRatMatrix):
    """rank(image), and lazily the kernel vectors of echelon's rows that complement it.

    image must lie in that kernel, whose vectors are fixed by their free
    coordinates.  k_f (free coordinates 1 at f, 0 elsewhere) is yielded in
    ascending f unless f is the largest free coordinate of an image
    vector: a pivot of image's free rows eliminated largest-first.
    """
    free = [f for f in range(image.nrows) if f not in echelon]
    slot = {f: len(free) - k for k, f in enumerate(free)}
    cols = image.transpose().rows().values()
    pivots = _eliminate([_integer_row({slot[i]: v for i, v in c.items() if i in slot}) for c in cols])
    return len(pivots), _back_substitute(echelon, ({f: ONE} for f in free if slot[f] not in pivots))


def rank_kernel(matrix: SparseRatMatrix) -> tuple[int, list[dict[int, Fraction]]]:
    """Exact rank and a basis of the right kernel {v : A v = 0}.

    Kernel vectors are sparse dicts {column index: Fraction}; one vector is
    produced per free column, with that free coordinate set to 1.
    """
    echelon = row_echelon(matrix)
    starts = ({f: ONE} for f in range(matrix.ncols) if f not in echelon)
    return len(echelon), list(_back_substitute(echelon, starts))


def rank(matrix: SparseRatMatrix) -> int:
    """Exact rank; no kernel vector is built."""
    return len(row_echelon(matrix))


def solve(matrix: SparseRatMatrix, rhs: dict[int, Fraction]):
    """(x, rest): b modulo the column space of A, and x with A x = b when rest is empty.

    One elimination.  Column j of the m x n matrix A, unless zero, is a
    row that carries its index at the tail coordinate m + n - 1 - j.  The
    remainder of b is b - A c on the first m coordinates, which are rest,
    and -c on the tail, which is zero at each j whose column depends on
    those before it: x = c has its free coordinates 0.  x is None when
    rest is not empty.
    """
    tail = matrix.nrows + matrix.ncols - 1
    cols = sorted(matrix.transpose().rows().items())
    left = remainder(_eliminate([_integer_row(c | {tail - j: ONE}) for j, c in cols]), rhs)
    rest = {i: c for i, c in left.items() if i < matrix.nrows}
    return (None if rest else {tail - k: -c for k, c in sorted(left.items())}), rest

"""Bounded complexes of free modules with polynomial differentials.

A complex stores its lowest degree, the rank in each degree, and one
matrix per adjacent pair; construction verifies that adjacent matrices
compose to zero, entry by entry.  The JSON form keeps polynomials as
parseable strings so complexes can cross process boundaries.
"""

from __future__ import annotations

from itertools import combinations

from ..exactnum import json_int
from .poly import Poly, parse_poly

__all__ = ["PolyComplex", "koszul_resolution"]


def _zero_matrix(vars, rows, cols):
    z = Poly.zero(vars)
    return tuple(tuple(z for _ in range(cols)) for _ in range(rows))


def _mat_mul(a, b, rows, cols, zero):
    """a @ b as a rows x cols tuple of rows; zero is the zero of the entries' ring.

    The shape is explicit so that a rank-zero middle term still gives a
    well-shaped zero.
    """
    out = []
    for r in range(rows):
        row = []
        for c in range(cols):
            acc = zero
            for m in range(len(b)):
                acc = acc + a[r][m] * b[m][c]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _square_defects(maps, zero):
    """(k, row, col, entry) for every nonzero entry of maps[k + 1] @ maps[k]."""
    out = []
    for k in range(len(maps) - 1):
        low, high = maps[k], maps[k + 1]
        prod = _mat_mul(high, low, len(high), len(low[0]) if low else 0, zero)
        for r, row in enumerate(prod):
            for c, p in enumerate(row):
                if not p.is_zero():
                    out.append((k, r, c, p))
    return out


class PolyComplex:
    """Free modules F^start .. F^(start+len-1) and the maps between them.

    maps[k] sends F^(start+k) to F^(start+k+1) and has shape
    ranks[k+1] x ranks[k].
    """

    __slots__ = ("vars", "start", "ranks", "maps")

    def __init__(self, vars, start, ranks, maps):
        self.vars = tuple(vars)
        self.start = int(start)
        self.ranks = tuple(int(r) for r in ranks)
        if any(r < 0 for r in self.ranks):
            raise ValueError("negative rank")
        if len(maps) != max(len(self.ranks) - 1, 0):
            raise ValueError(
                "expected %d maps for %d terms, got %d"
                % (max(len(self.ranks) - 1, 0), len(self.ranks), len(maps))
            )
        fixed = []
        for k, mat in enumerate(maps):
            mat = tuple(tuple(row) for row in mat)
            if len(mat) != self.ranks[k + 1] or any(
                len(row) != self.ranks[k] for row in mat
            ):
                raise ValueError(
                    "map %d has shape %dx%d, expected %dx%d"
                    % (
                        k,
                        len(mat),
                        len(mat[0]) if mat else 0,
                        self.ranks[k + 1],
                        self.ranks[k],
                    )
                )
            for row in mat:
                for p in row:
                    if p.vars != self.vars:
                        raise ValueError("matrix entry over the wrong variables")
            fixed.append(mat)
        self.maps = tuple(fixed)
        bad = self.composition_defects()
        if bad:
            k, r, c, p = bad[0]
            raise ValueError(
                "not a complex: map %d then %d sends column %d to row %d entry %s"
                % (k, k + 1, c, r, p)
            )

    def degrees(self):
        return range(self.start, self.start + len(self.ranks))

    def rank(self, degree):
        k = degree - self.start
        if 0 <= k < len(self.ranks):
            return self.ranks[k]
        return 0

    def matrix(self, degree):
        """The map leaving the given degree, zero-shaped when absent."""
        k = degree - self.start
        if 0 <= k < len(self.maps):
            return self.maps[k]
        return _zero_matrix(self.vars, self.rank(degree + 1), self.rank(degree))

    def composition_defects(self):
        return _square_defects(self.maps, Poly.zero(self.vars))

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {
            "vars": list(self.vars),
            "start": self.start,
            "ranks": list(self.ranks),
            "maps": [
                [[str(p) for p in row] for row in mat] for mat in self.maps
            ],
        }

    @staticmethod
    def from_json(data):
        """Parse {"vars", "maps", "ranks", ...}; malformed data raises ValueError."""
        try:
            vars = tuple(data["vars"])
            maps = [
                [[parse_poly(s, vars) for s in row] for row in mat]
                for mat in data["maps"]
            ]
            start = json_int(data.get("start", 0), "start", "complex")
            ranks = [json_int(r, "ranks[%d]" % k, "complex") for k, r in enumerate(data["ranks"])]
            return PolyComplex(vars, start, ranks, maps)
        except (KeyError, IndexError, TypeError, AttributeError) as e:
            raise ValueError(
                "malformed complex (%s: %s)" % (type(e).__name__, e)
            ) from None


def koszul_resolution(fs):
    """Koszul complex on a regular sequence, augmented by the full ring.

    Exactness is the caller's assertion for two or more elements; the
    complex property itself is verified on construction.  Degrees run
    from 1-c to 1 with the coordinate ring on top.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one element")
    vars = fs[0].vars
    c = len(fs)
    for f in fs:
        if f.vars != vars:
            raise ValueError("elements use different variable lists")
    subsets = {
        k: list(combinations(range(c), k)) for k in range(c + 1)
    }
    index = {k: {s: i for i, s in enumerate(subsets[k])} for k in subsets}
    ranks = [len(subsets[c - j]) for j in range(c + 1)]
    zero = Poly.zero(vars)
    maps = []
    for j in range(c):
        k = c - j  # source exterior power
        mat = [[zero for _ in subsets[k]] for _ in subsets[k - 1]]
        for col, s in enumerate(subsets[k]):
            for pos, i in enumerate(s):
                rest = s[:pos] + s[pos + 1:]
                row = index[k - 1][rest]
                sign = -1 if pos % 2 else 1
                mat[row][col] = mat[row][col] + fs[i].scale(sign)
        maps.append(mat)
    return PolyComplex(vars, 1 - c, ranks, maps)

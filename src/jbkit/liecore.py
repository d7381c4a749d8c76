"""Concrete graded Lie algebras over truncated polynomial coefficients.

A StructLie is a finite ordered basis with integer degrees, structure
constants, an optional degree-+1 differential and an optional faithful
matrix representation.  Elements take coefficients in ArtinLine(N), the
ring Q[t]/(t^N); coefficients in the maximal ideal (t) make every bracket
word of length >= N vanish, which is the nilpotency bound the series
evaluator relies on.

Sparse coefficient maps {basis index: coefficient} are bracketed by
StructLie.bracket_maps, mapped by SparseRatMatrix.apply and added by
exactnum._add_maps, whatever the coefficient ring.  A coefficient only
has to support the ring's * and +, multiplication by a Fraction scalar
on its left, and truthiness meaning nonzero: Fraction, schemes.Poly and
every TruncElt do, and no kernel stores a zero.

TruncElt is the one truncated line R[t]/(t^N) over such a coefficient
ring R, its arithmetic written once: ArtinElt is the line over Q and
schemes.TruncPoly the line over Q[x1..xn].
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from .exactnum import (
    ONE, ZERO, SparseRatMatrix, _add_maps, exact_scalar, format_rational, insert, json_int,
    json_rational, rank,
)
from .freelie import FreeLieElement, evaluate_elements


def t_power_slots(zero, order: int, k: int, c) -> tuple:
    """The slots of c*t^k on a line of the given order: zero when k >= order."""
    if k < 0:
        raise ValueError("negative power of t: %d" % k)
    return tuple(c if i == k else zero for i in range(order))


class TruncElt:
    """Element of R[t]/(t^N): slot k of ``coeffs`` holds the t^k part.

    A subclass fixes R.  It names the line an element lives on
    (``_line()``, compared with ==), the zero of R (``_zero()``), and
    rebuilds an element of the same line from a tuple of slots
    (``_with``).  Operators take two elements of one class; a Fraction
    scales from the left.
    """

    __slots__ = ("coeffs",)
    _MIXED = "operands live on different truncated lines"

    def _check(self, other):
        if self._line() != other._line():
            raise ValueError(self._MIXED)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self._with(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._with(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        """The truncated product: t^i * t^j dies once i + j reaches N."""
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        n = len(self.coeffs)
        out = [self._zero()] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= n:
                    break
                if b:
                    out[i + j] = out[i + j] + a * b
        return self._with(tuple(out))

    def scale(self, c):
        c = exact_scalar(c)
        return self._with(tuple(c * a for a in self.coeffs))

    __rmul__ = scale  # a rational scalar on the left: c * self

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._line() == other._line()
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self._line(), self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def in_maximal_ideal(self) -> bool:
        return not self.coeffs[0]

    def valuation(self) -> int:
        """Smallest power of t with a nonzero coefficient; N if zero."""
        return next((k for k, c in enumerate(self.coeffs) if c), len(self.coeffs))


class ArtinLine:
    """The ring Q[t]/(t^order)."""

    __slots__ = ("order",)

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("truncation order must be positive")
        self.order = order

    def __eq__(self, other):
        return isinstance(other, ArtinLine) and self.order == other.order

    def __hash__(self):
        return hash(("ArtinLine", self.order))

    def __repr__(self):
        return f"ArtinLine({self.order})"

    def element(self, coeffs) -> "ArtinElt":
        vals = [json_rational(c, "coefficient", "Artin element") for c in coeffs]
        if len(vals) > self.order:
            if any(vals[self.order :]):
                raise ValueError("coefficient vector longer than truncation order")
            vals = vals[: self.order]
        vals += [ZERO] * (self.order - len(vals))
        return ArtinElt(self, tuple(vals))

    def zero(self) -> "ArtinElt":
        return ArtinElt(self, (ZERO,) * self.order)

    def one(self) -> "ArtinElt":
        return self.t_power(0)

    def t_power(self, k: int, coeff=ONE) -> "ArtinElt":
        coeff = json_rational(coeff, "coefficient", "Artin element")
        return ArtinElt(self, t_power_slots(ZERO, self.order, k, coeff))


class ArtinElt(TruncElt):
    """Element of Q[t]/(t^N) as a coefficient vector."""

    __slots__ = ("ring",)
    _MIXED = "mixed artin rings"

    def __init__(self, ring: ArtinLine, coeffs: tuple):
        self.ring = ring
        self.coeffs = coeffs

    def _line(self):
        return self.ring

    def _zero(self):
        return ZERO

    def _with(self, coeffs):
        return ArtinElt(self.ring, coeffs)

    def to_list(self) -> list:
        return [format_rational(c) for c in self.coeffs]

    def __repr__(self):
        return f"ArtinElt({self.to_list()})"


_UNKNOWN = object()


class StructLie:
    """Finite-dimensional graded Lie algebra given by structure constants.

    ``brackets`` maps an ordered basis pair (a, b) to {c: coefficient};
    missing pairs are zero.  The table is stored exactly as provided so
    that validation can spot asymmetric input.
    """

    __slots__ = ("names", "degrees", "index", "brackets", "differential", "rep", "_class")

    def __init__(self, names, degrees, brackets, differential=None, rep=None):
        self.names = list(names)
        self.degrees = list(degrees)
        if len(self.names) != len(self.degrees):
            raise ValueError("need one degree per basis name")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate basis names")
        self.index = {n: i for i, n in enumerate(self.names)}
        self.brackets = {}
        for (a, b), targets in brackets.items():
            cleaned = {c: exact_scalar(v) for c, v in targets.items() if v}
            if cleaned:
                self.brackets[(a, b)] = cleaned
        self.differential = differential
        self.rep = rep
        self._class = _UNKNOWN
        if differential is not None and (
            differential.nrows != self.dim or differential.ncols != self.dim
        ):
            raise ValueError("differential matrix has wrong shape")

    @property
    def dim(self) -> int:
        return len(self.names)

    def basis_indices(self, degree=None):
        if degree is None:
            return list(range(self.dim))
        return [i for i in range(self.dim) if self.degrees[i] == degree]

    def bracket_basis(self, a: int, b: int) -> dict:
        return self.brackets.get((a, b), {})

    def differential_basis(self, a: int) -> dict:
        """Differential of basis element a as {target index: Fraction}."""
        if self.differential is None:
            return {}
        return self.differential.column(a)

    def bracket_maps(self, u: dict, v: dict) -> dict:
        """Bracket of sparse coefficient maps, zeros dropped.

        The only sparse bracket: coefficients follow the protocol of the
        module docstring.
        """
        out: dict = {}
        for a, ca in u.items():
            for b, cb in v.items():
                targets = self.brackets.get((a, b))
                if not targets:
                    continue
                prod = ca * cb
                for c, coeff in targets.items():
                    term = coeff * prod
                    s = out.get(c)
                    out[c] = term if s is None else s + term
        return {c: w for c, w in out.items() if w}

    def nilpotency_class(self):
        """The largest n with F_n != 0, or None when that is not certified.

        F_1 is the algebra and F_n the span of [F_i, F_j] over i + j = n,
        both operand orders.  Every bracketing of n vectors lies in F_n
        by induction on the bracketing, whatever identities the structure
        constants satisfy, so any bracket expression of more than the
        class vectors vanishes.  The F_n shrink; once two consecutive
        nonzero ones have equal dimension the answer is None, which
        certifies nothing.  Computed on the first call and kept, so the
        structure constants must not change after it.
        """
        if self._class is _UNKNOWN:
            self._class = _nilpotency_class(self)
        return self._class

    # -- serialization ----------------------------------------------------

    @staticmethod
    def from_json(data: dict) -> "StructLie":
        """Build from the documented schema, completing missing mirror pairs.

        A bracket listed only as (a, b) implies (b, a) by graded
        antisymmetry; explicitly provided pairs are never overwritten.
        """
        names = [b["name"] for b in data["basis"]]
        degrees = [json_int(b["degree"], "degree", "Lie algebra") for b in data["basis"]]
        index = {n: i for i, n in enumerate(names)}
        brackets: dict = {}
        for entry in data.get("brackets", []):
            a, b, c = index[entry["a"]], index[entry["b"]], index[entry["c"]]
            coeff = json_rational(entry["coeff"], "bracket coeff", "Lie algebra")
            brackets.setdefault((a, b), {})
            brackets[(a, b)][c] = brackets[(a, b)].get(c, ZERO) + coeff
        for (a, b) in list(brackets):
            if a != b and (b, a) not in brackets:
                sign = -((-1) ** (degrees[a] * degrees[b]))
                brackets[(b, a)] = {c: sign * v for c, v in brackets[(a, b)].items()}
        differential = None
        if data.get("differential"):
            differential = SparseRatMatrix(len(names), len(names))
            for entry in data["differential"]:
                src, dst = index[entry["from"]], index[entry["to"]]
                differential[dst, src] = differential[dst, src] + json_rational(
                    entry["coeff"], "differential coeff", "Lie algebra"
                )
        rep = None
        if data.get("rep"):
            rep = {
                name: [[json_rational(v, "rep entry", "Lie algebra") for v in row] for row in mat]
                for name, mat in data["rep"].items()
            }
        return StructLie(names, degrees, brackets, differential, rep)

    def to_json(self) -> dict:
        out: dict = {
            "basis": [
                {"name": n, "degree": d} for n, d in zip(self.names, self.degrees)
            ]
        }
        entries = []
        for (a, b), targets in sorted(self.brackets.items()):
            for c, coeff in sorted(targets.items()):
                entries.append(
                    {
                        "a": self.names[a],
                        "b": self.names[b],
                        "c": self.names[c],
                        "coeff": format_rational(coeff),
                    }
                )
        if entries:
            out["brackets"] = entries
        if self.differential is not None:
            out["differential"] = [
                {
                    "from": self.names[a],
                    "to": self.names[c],
                    "coeff": format_rational(v),
                }
                for (c, a), v in sorted(self.differential.entries.items())
            ]
        if self.rep is not None:
            out["rep"] = {
                name: [[format_rational(v) for v in row] for row in mat]
                for name, mat in self.rep.items()
            }
        return out


def _nilpotency_class(lie: StructLie):
    if not lie.dim:
        return 0
    spans = [None, [{a: ONE} for a in range(lie.dim)]]  # spans[n]: a basis of F_n
    n = 1
    while True:
        echelon = {}
        for i in range(1, n + 1):
            for u in spans[i]:
                for v in spans[n + 1 - i]:
                    insert(echelon, lie.bracket_maps(u, v))
        if not echelon:
            return n
        if len(echelon) == len(spans[n]):
            return None
        spans.append(list(echelon.values()))
        n += 1


def check_lie_axioms(lie: StructLie) -> list:
    """Report every violated axiom instance; empty list means all hold.

    Checked on basis elements: graded antisymmetry, graded Jacobi in its
    derivation form [a,[b,c]] = [[a,b],c] + (-1)^{|a||b|}[b,[a,c]],
    square-zero and degree +1 for the differential, the graded Leibniz
    rule, and (when a representation is attached) that it is a faithful
    homomorphism onto super-commutators.
    """
    report = []
    n = lie.dim
    deg = lie.degrees
    names = lie.names

    for a in range(n):
        for b in range(a, n):
            ab = lie.bracket_basis(a, b)
            ba = lie.bracket_basis(b, a)
            sign = -((-1) ** (deg[a] * deg[b]))
            mirrored = {c: sign * v for c, v in ab.items()}
            if a == b and deg[a] % 2 == 0 and ab:
                report.append(f"antisymmetry: [{names[a]},{names[a]}] must vanish")
            elif mirrored != ba:
                report.append(
                    f"antisymmetry: [{names[a]},{names[b]}] vs [{names[b]},{names[a]}]"
                )
            for c in ab:
                if deg[c] != deg[a] + deg[b]:
                    report.append(
                        f"grading: [{names[a]},{names[b]}] hits {names[c]} of wrong degree"
                    )

    for a in range(n):
        for b in range(n):
            sign = Fraction((-1) ** (deg[a] * deg[b]))
            for c in range(n):
                lhs = lie.bracket_maps({a: ONE}, lie.bracket_basis(b, c))
                rhs = _add_maps(
                    lie.bracket_maps(lie.bracket_basis(a, b), {c: ONE}),
                    lie.bracket_maps({b: sign}, lie.bracket_basis(a, c)),
                )
                if lhs != rhs:
                    report.append(
                        f"jacobi: triple ({names[a]},{names[b]},{names[c]})"
                    )

    if lie.differential is not None:
        d = lie.differential
        for (c, a), v in d.entries.items():
            if v and deg[c] != deg[a] + 1:
                report.append(f"differential: {names[a]} -> {names[c]} is not degree +1")
        if not d.mul(d).is_zero():
            report.append("differential: square is nonzero")
        for a in range(n):
            da = lie.differential_basis(a)
            sign = Fraction((-1) ** deg[a])
            for b in range(n):
                lhs = d.apply(lie.bracket_basis(a, b))
                rhs = _add_maps(
                    lie.bracket_maps(da, {b: ONE}),
                    lie.bracket_maps({a: sign}, lie.differential_basis(b)),
                )
                if lhs != rhs:
                    report.append(f"leibniz: pair ({names[a]},{names[b]})")

    if lie.rep is not None:
        report.extend(_check_rep(lie))
    return report


def _check_rep(lie: StructLie) -> list:
    report = []
    mats = []
    size = None
    for name in lie.names:
        m = lie.rep.get(name)
        if m is None:
            report.append(f"rep: missing matrix for {name}")
            return report
        if size is None:
            size = len(m)
        if len(m) != size or any(len(row) != size for row in m):
            report.append(f"rep: matrix for {name} is not square of common size")
            return report
        mats.append(SparseRatMatrix.from_dense(m))
    deg = lie.degrees
    for a in range(lie.dim):
        for b in range(lie.dim):
            sign = (-1) ** (deg[a] * deg[b])
            expected = mats[a].mul(mats[b]).add(mats[b].mul(mats[a]).scale(-sign))
            target = SparseRatMatrix(size, size)
            for c, v in lie.bracket_basis(a, b).items():
                target = target.add(mats[c].scale(v))
            if expected != target:
                report.append(f"rep: bracket mismatch on ({lie.names[a]},{lie.names[b]})")
    flat = SparseRatMatrix(lie.dim, size * size)
    for k, m in enumerate(mats):
        for (i, j), v in m.entries.items():
            flat[k, i * size + j] = v
    if rank(flat) != lie.dim:
        report.append("rep: matrices are linearly dependent (not faithful)")
    return report


class LieElement:
    """Element of a StructLie with ArtinLine coefficients, stored sparsely."""

    __slots__ = ("lie", "ring", "coeffs")

    def __init__(self, lie: StructLie, ring: ArtinLine, coeffs: dict | None = None):
        self.lie = lie
        self.ring = ring
        self.coeffs = {i: c for i, c in (coeffs or {}).items() if not c.is_zero()}

    @staticmethod
    def zero(lie: StructLie, ring: ArtinLine) -> "LieElement":
        return LieElement(lie, ring)

    @staticmethod
    def from_dict(lie: StructLie, ring: ArtinLine, data: dict) -> "LieElement":
        coeffs = {}
        for name, val in data.items():
            if name not in lie.index:
                raise ValueError(f"unknown basis name {name!r}")
            if isinstance(val, ArtinElt):
                elt = val
            elif isinstance(val, (list, tuple)):
                elt = ring.element(val)
            else:
                elt = ring.t_power(0, val)
            coeffs[lie.index[name]] = elt
        return LieElement(lie, ring, coeffs)

    def _check(self, other: "LieElement"):
        if self.lie is not other.lie or self.ring != other.ring:
            raise ValueError("mixed algebras")

    def __add__(self, other: "LieElement") -> "LieElement":
        self._check(other)
        return LieElement(self.lie, self.ring, _add_maps(self.coeffs, other.coeffs))

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "LieElement":
        c = c if isinstance(c, ArtinElt) else exact_scalar(c)
        return LieElement(self.lie, self.ring, {i: c * v for i, v in self.coeffs.items()})

    def bracket(self, other: "LieElement") -> "LieElement":
        self._check(other)
        return LieElement(
            self.lie, self.ring, self.lie.bracket_maps(self.coeffs, other.coeffs)
        )

    def apply_differential(self) -> "LieElement":
        d = self.lie.differential
        return LieElement(self.lie, self.ring, d.apply(self.coeffs) if d is not None else {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def in_maximal_ideal(self) -> bool:
        return all(c.in_maximal_ideal() for c in self.coeffs.values())

    def __eq__(self, other):
        return (
            isinstance(other, LieElement)
            and self.lie is other.lie
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def to_dict(self) -> dict:
        return {
            self.lie.names[i]: c.to_list() for i, c in sorted(self.coeffs.items())
        }

    def __repr__(self):
        return f"LieElement({self.to_dict()})"


def evaluate(element: FreeLieElement, assignment: dict) -> LieElement:
    """Specialize a free Lie element along generator images in one algebra."""
    values = list(assignment.values())
    if not values:
        raise ValueError("empty assignment")
    first = values[0]
    for v in values[1:]:
        first._check(v)
    missing = [
        lab for lab in element.alphabet.labels
        if lab not in assignment and any(
            element.alphabet.index(lab) in w for w in element.terms
        )
    ]
    if missing:
        raise ValueError(f"no image for generators {missing}")
    return evaluate_elements(element, assignment, LieElement.zero(first.lie, first.ring))


# ad(psi) applied more often than this without dying counts as not nilpotent
_CONJUGATION_STEPS = 64


def adjoint_series(psi, x, coeff, bracket=None):
    """sum_k coeff(k) ad(psi)^k(x), stopping when the iterated bracket dies.

    ``bracket`` defaults to the elements' own method so matrix operators
    and structure-constant elements both work.
    """
    if bracket is None:
        bracket = lambda a, b: a.bracket(b)
    acc, term = x.scale(coeff(0)), x
    for k in range(1, _CONJUGATION_STEPS + 2):
        term = bracket(psi, term)
        if term.is_zero():
            return acc
        acc = acc + term.scale(coeff(k))
    raise ValueError("psi is not nilpotent within the step bound")


def exp_conjugate(psi, D, bracket=None):
    """Conjugate an operator by exp of a nilpotent element: coefficients 1/k!."""
    return adjoint_series(psi, D, lambda k: Fraction(1, factorial(k)), bracket)

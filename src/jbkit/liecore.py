"""Concrete graded Lie algebras over truncated polynomial coefficients.

A StructLie is a finite ordered basis with integer degrees, structure
constants, an optional degree-+1 differential and an optional faithful
matrix representation.  Elements take coefficients in ArtinLine(N), the
ring Q[t]/(t^N); coefficients in the maximal ideal (t) make every bracket
word of length >= N vanish, which is the nilpotency bound the series
evaluators rely on.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from .exactnum import ONE, ZERO, SparseRatMatrix, format_rational, parse_rational, rank
from .freelie import FreeLieElement, evaluate_lie


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
        vals = [Fraction(c) if not isinstance(c, str) else parse_rational(c) for c in coeffs]
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
        c = Fraction(coeff)
        if k >= self.order:
            return self.zero()
        vals = [ZERO] * self.order
        vals[k] = c
        return ArtinElt(self, tuple(vals))


class ArtinElt:
    """Element of Q[t]/(t^N) as a coefficient vector."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: ArtinLine, coeffs: tuple):
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError("mixed artin rings")

    def __add__(self, other: "ArtinElt") -> "ArtinElt":
        self._check(other)
        return ArtinElt(self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ArtinElt") -> "ArtinElt":
        self._check(other)
        return ArtinElt(self.ring, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "ArtinElt":
        return ArtinElt(self.ring, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "ArtinElt") -> "ArtinElt":
        self._check(other)
        n = self.ring.order
        out = [ZERO] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= n:
                    break
                if b:
                    out[i + j] += a * b
        return ArtinElt(self.ring, tuple(out))

    def scale(self, c) -> "ArtinElt":
        c = Fraction(c)
        return ArtinElt(self.ring, tuple(c * a for a in self.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, ArtinElt)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def in_maximal_ideal(self) -> bool:
        return self.coeffs[0] == 0

    def valuation(self) -> int:
        """Smallest power of t with a nonzero coefficient; order if zero."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return self.ring.order

    def to_list(self) -> list:
        return [format_rational(c) for c in self.coeffs]

    def __repr__(self):
        return f"ArtinElt({self.to_list()})"


class StructLie:
    """Finite-dimensional graded Lie algebra given by structure constants.

    ``brackets`` maps an ordered basis pair (a, b) to {c: coefficient};
    missing pairs are zero.  The table is stored exactly as provided so
    that validation can spot asymmetric input.
    """

    __slots__ = ("names", "degrees", "index", "brackets", "differential", "rep")

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
            cleaned = {c: Fraction(v) for c, v in targets.items() if v}
            if cleaned:
                self.brackets[(a, b)] = cleaned
        self.differential = differential
        self.rep = rep
        if differential is not None and (
            differential.nrows != self.dim or differential.ncols != self.dim
        ):
            raise ValueError("differential matrix has wrong shape")

    @property
    def dim(self) -> int:
        return len(self.names)

    def degree_of(self, idx: int) -> int:
        return self.degrees[idx]

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
        """Bracket of sparse coefficient maps over any commutative ring."""
        out: dict = {}
        for a, ca in u.items():
            for b, cb in v.items():
                targets = self.brackets.get((a, b))
                if not targets:
                    continue
                prod = ca * cb
                for c, coeff in targets.items():
                    term = prod.scale(coeff) if hasattr(prod, "scale") else prod * coeff
                    s = out.get(c)
                    out[c] = term if s is None else s + term
        return {c: v for c, v in out.items() if not _ring_zero(v)}

    def differential_maps(self, u: dict) -> dict:
        if self.differential is None:
            return {}
        out: dict = {}
        for (c, a), coeff in self.differential.entries.items():
            ca = u.get(a)
            if ca is None:
                continue
            term = ca.scale(coeff) if hasattr(ca, "scale") else ca * coeff
            s = out.get(c)
            out[c] = term if s is None else s + term
        return {c: v for c, v in out.items() if not _ring_zero(v)}

    # -- serialization ----------------------------------------------------

    @staticmethod
    def from_json(data: dict) -> "StructLie":
        """Build from the documented schema, completing missing mirror pairs.

        A bracket listed only as (a, b) implies (b, a) by graded
        antisymmetry; explicitly provided pairs are never overwritten.
        """
        names = [b["name"] for b in data["basis"]]
        degrees = [int(b["degree"]) for b in data["basis"]]
        index = {n: i for i, n in enumerate(names)}
        brackets: dict = {}
        for entry in data.get("brackets", []):
            a, b, c = index[entry["a"]], index[entry["b"]], index[entry["c"]]
            coeff = parse_rational(str(entry["coeff"]))
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
                differential[dst, src] = differential[dst, src] + parse_rational(
                    str(entry["coeff"])
                )
        rep = None
        if data.get("rep"):
            rep = {
                name: [[parse_rational(str(v)) for v in row] for row in mat]
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


def _ring_zero(v) -> bool:
    return v.is_zero() if hasattr(v, "is_zero") else not v


def _frac_maps_bracket(lie: StructLie, u: dict, v: dict) -> dict:
    """bracket_maps specialized to plain Fraction coefficients."""
    out: dict = {}
    for a, ca in u.items():
        for b, cb in v.items():
            targets = lie.brackets.get((a, b))
            if not targets:
                continue
            prod = ca * cb
            for c, coeff in targets.items():
                s = out.get(c, ZERO) + prod * coeff
                if s:
                    out[c] = s
                elif c in out:
                    del out[c]
    return out


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
            for c in range(n):
                lhs = _frac_maps_bracket(lie, {a: ONE}, lie.bracket_basis(b, c))
                rhs = _frac_maps_bracket(lie, lie.bracket_basis(a, b), {c: ONE})
                sign = Fraction((-1) ** (deg[a] * deg[b]))
                for t, v in _frac_maps_bracket(lie, {b: ONE}, lie.bracket_basis(a, c)).items():
                    s = rhs.get(t, ZERO) + sign * v
                    if s:
                        rhs[t] = s
                    elif t in rhs:
                        del rhs[t]
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
            for b in range(n):
                ab = lie.bracket_basis(a, b)
                lhs: dict = {}
                for t, v in ab.items():
                    for (c, src), w in d.entries.items():
                        if src == t:
                            s = lhs.get(c, ZERO) + v * w
                            if s:
                                lhs[c] = s
                            elif c in lhs:
                                del lhs[c]
                da = {c: w for (c, src), w in d.entries.items() if src == a}
                db = {c: w for (c, src), w in d.entries.items() if src == b}
                rhs = _frac_maps_bracket(lie, da, {b: ONE})
                sign = Fraction((-1) ** deg[a])
                for t, v in _frac_maps_bracket(lie, {a: ONE}, db).items():
                    s = rhs.get(t, ZERO) + sign * v
                    if s:
                        rhs[t] = s
                    elif t in rhs:
                        del rhs[t]
                if lhs != rhs:
                    report.append(f"leibniz: pair ({names[a]},{names[b]})")

    if lie.rep is not None:
        report.extend(_check_rep(lie))
    return report


def _dense_mul(p, q):
    n = len(p)
    return [
        [sum((p[i][k] * q[k][j] for k in range(n)), ZERO) for j in range(n)]
        for i in range(n)
    ]


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
        mats.append(m)
    deg = lie.degrees
    for a in range(lie.dim):
        for b in range(lie.dim):
            comm = _dense_mul(mats[a], mats[b])
            sign = Fraction((-1) ** (deg[a] * deg[b]))
            rev = _dense_mul(mats[b], mats[a])
            expected = [
                [comm[i][j] - sign * rev[i][j] for j in range(size)]
                for i in range(size)
            ]
            target = [[ZERO] * size for _ in range(size)]
            for c, v in lie.bracket_basis(a, b).items():
                for i in range(size):
                    for j in range(size):
                        target[i][j] += v * mats[c][i][j]
            if expected != target:
                report.append(f"rep: bracket mismatch on ({lie.names[a]},{lie.names[b]})")
    flat = SparseRatMatrix(lie.dim, size * size)
    for k, m in enumerate(mats):
        for i in range(size):
            for j in range(size):
                if m[i][j]:
                    flat[k, i * size + j] = m[i][j]
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
                elt = ring.t_power(0, parse_rational(str(val)))
            coeffs[lie.index[name]] = elt
        return LieElement(lie, ring, coeffs)

    def _check(self, other: "LieElement"):
        if self.lie is not other.lie or self.ring != other.ring:
            raise ValueError("mixed algebras")

    def __add__(self, other: "LieElement") -> "LieElement":
        self._check(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            s = out.get(i)
            out[i] = c if s is None else s + c
        return LieElement(self.lie, self.ring, out)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "LieElement":
        if isinstance(c, ArtinElt):
            return LieElement(
                self.lie, self.ring, {i: v * c for i, v in self.coeffs.items()}
            )
        return LieElement(
            self.lie, self.ring, {i: v.scale(c) for i, v in self.coeffs.items()}
        )

    def bracket(self, other: "LieElement") -> "LieElement":
        self._check(other)
        return LieElement(
            self.lie, self.ring, self.lie.bracket_maps(self.coeffs, other.coeffs)
        )

    def apply_differential(self) -> "LieElement":
        return LieElement(
            self.lie, self.ring, self.lie.differential_maps(self.coeffs)
        )

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
    return evaluate_lie(
        element,
        assignment,
        bracket=lambda a, b: a.bracket(b),
        add=lambda a, b: a + b,
        scale=lambda c, a: a.scale(c),
        zero=LieElement.zero(first.lie, first.ring),
    )


def exp_conjugate(psi, D, bracket=None, max_steps: int = 64):
    """Conjugate an operator by exp of a nilpotent element.

    Computes sum_k ad(psi)^k(D)/k!, stopping when the iterated bracket
    dies; ``bracket`` defaults to the elements' own method so matrix
    operators and structure-constant elements both work.
    """
    if bracket is None:
        bracket = lambda a, b: a.bracket(b)
    acc = D
    term = D
    k = 0
    while True:
        k += 1
        term = bracket(psi, term)
        if _ring_zero(term):
            break
        if k > max_steps:
            raise ValueError("conjugator is not nilpotent within the step bound")
        acc = acc + term.scale(Fraction(1, factorial(k)))
    return acc

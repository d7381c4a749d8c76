"""Deforming an affine hypersurface and gluing the charts by gauges.

A direction g perturbs the equation f to f + t*g over a truncated
coefficient line Q[t]/(t^N).  On overlaps two such perturbations are
identified by a gauge: a vector field plus a diagonal twist of the
two-term resolution, all divisible by t, acting on the deformed
equation by exponentiated conjugation.  Gauges compose through the
bracket series, triple overlaps are tested with its trivariate form,
and pushing a family to a higher truncation order runs the extension
step of the gluing complex on a one-chart datum built from the
quotient by the singularity ideal.

TruncPoly is the truncated line of liecore.TruncElt over Q[x1..xn], the
line whose arithmetic ArtinElt shares over Q.  Its slots are Poly, which
keeps the coefficient protocol of liecore: ring + and *, a Fraction on
the left, and truthiness meaning nonzero, so a zero TruncPoly is falsy.
"""

from __future__ import annotations

from fractions import Fraction

from ..bch import eval_bch
from ..exactnum import _add_maps, exact_scalar
from ..liecore import ArtinLine, LieElement, StructLie, TruncElt, exp_conjugate, t_power_slots
from ..jbcomplex.assemble import _shared_table
from ..jbcomplex.cocycle import special_cocycle
from ..jbcomplex.obstruct import obstruction
from ..jbcomplex.sela import Sela
from .complexes import _square_defects
from .groebner import buchberger, normal_form, standard_monomials
from .poly import Poly, parse_poly

__all__ = [
    "TruncPoly",
    "GlueGauge",
    "KSCochain",
    "ks_cochain",
    "deformed_square_defects",
    "glue_check",
    "gauge_triple_check",
    "compose_gauges",
    "milnor_quotient_dgla",
    "package_one_chart",
    "LiftReport",
    "lift_deformation",
]


# -- truncated polynomial line over Q[x1..xn] --------------------------------


class TruncPoly(TruncElt):
    """Polynomial with coefficients in Q[t]/(t^N); slot k holds the t^k part."""

    __slots__ = ("vars", "order")

    def __init__(self, vars, order, coeffs=None):
        if order < 1:
            raise ValueError("truncation order must be at least 1")
        self.vars = tuple(vars)
        self.order = order
        slots = tuple(coeffs or ())[:order]
        for k, p in enumerate(slots):
            if p.vars != self.vars:
                raise ValueError("coefficient %d uses different variables" % k)
        self.coeffs = slots + (Poly.zero(self.vars),) * (order - len(slots))

    @staticmethod
    def from_poly(p, order, power=0):
        """p * t^power as a truncated series."""
        return TruncPoly(p.vars, order, t_power_slots(Poly.zero(p.vars), order, power, p))

    @staticmethod
    def zero(vars, order):
        return TruncPoly(vars, order)

    def _line(self):
        return self.vars, self.order

    def _zero(self):
        return Poly.zero(self.vars)

    def _with(self, coeffs):
        return TruncPoly(self.vars, self.order, coeffs)

    def shift(self, k):
        """Multiply by t^k."""
        if k < 0:
            raise ValueError("cannot divide by t")
        return TruncPoly(self.vars, self.order, [Poly.zero(self.vars)] * k + list(self.coeffs))

    def diff(self, name):
        return TruncPoly(self.vars, self.order, [p.diff(name) for p in self.coeffs])

    def __str__(self):
        parts = []
        for k, p in enumerate(self.coeffs):
            if p.is_zero():
                continue
            body = str(p)
            if k == 0:
                parts.append(body)
                continue
            tk = "t" if k == 1 else "t^%d" % k
            if len(p.terms) > 1:
                body = "(%s)" % body
            parts.append("%s*%s" % (body, tk))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "TruncPoly(%s)" % self


# -- gauges: vector field plus a diagonal twist of the resolution ------------


class GlueGauge:
    """Infinitesimal chart identification acting on a deformed equation.

    fields maps variable names to truncated coefficients of the vector
    field; twist is a pair (a, b) of truncated scalars rescaling the two
    resolution terms.  The action on the equation (an operator from the
    first term to the second) is

        psi(op) = sum_v fields[v] * d(op)/dv + (b - a) * op,

    and the bracket is the commutator of these actions: the field part
    brackets as vector fields, the twist part is carried along by the
    fields.  Exponentials of gauges make sense once every component is
    divisible by t.
    """

    __slots__ = ("vars", "order", "fields", "twist")

    def __init__(self, vars, order, fields=None, twist=None):
        self.vars = tuple(vars)
        self.order = order
        zero = TruncPoly.zero(self.vars, order)
        cleaned = {}
        for name, c in (fields or {}).items():
            if name not in self.vars:
                raise ValueError("gauge field for unknown variable %r" % name)
            c = self._as_trunc(c)
            if not c.is_zero():
                cleaned[name] = c
        self.fields = cleaned
        a, b = twist if twist is not None else (zero, zero)
        self.twist = (self._as_trunc(a), self._as_trunc(b))

    def _as_trunc(self, c):
        if isinstance(c, TruncPoly):
            if c.vars != self.vars or c.order != self.order:
                raise ValueError("gauge component lives on a different line")
            return c
        if isinstance(c, Poly):
            return TruncPoly.from_poly(c, self.order)
        raise TypeError("gauge components must be Poly or TruncPoly")

    @staticmethod
    def zero(vars, order):
        return GlueGauge(vars, order)

    def field(self, name):
        return self.fields.get(name, TruncPoly.zero(self.vars, self.order))

    def in_maximal_ideal(self):
        return all(p.in_maximal_ideal() for p in (*self.fields.values(), *self.twist))

    def is_zero(self):
        return not self.fields and all(p.is_zero() for p in self.twist)

    def __add__(self, other):
        self._check(other)
        fields = _add_maps(self.fields, other.fields)
        twist = (self.twist[0] + other.twist[0], self.twist[1] + other.twist[1])
        return GlueGauge(self.vars, self.order, fields, twist)

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def scale(self, c):
        c = exact_scalar(c)
        fields = {name: p.scale(c) for name, p in self.fields.items()}
        twist = (self.twist[0].scale(c), self.twist[1].scale(c))
        return GlueGauge(self.vars, self.order, fields, twist)

    def _check(self, other):
        if self.vars != other.vars or self.order != other.order:
            raise ValueError("gauges live on different truncated lines")

    def derive(self, p):
        """Apply the vector field part to a truncated polynomial."""
        out = TruncPoly.zero(self.vars, self.order)
        for name, c in self.fields.items():
            out = out + c * p.diff(name)
        return out

    def apply(self, op):
        """Action on an equation operator: field derivation plus twist."""
        a, b = self.twist
        return self.derive(op) + (b - a) * op

    def bracket(self, other):
        self._check(other)
        fields = {}
        for name in self.vars:
            c = self.derive(other.field(name)) - other.derive(self.field(name))
            if not c.is_zero():
                fields[name] = c
        twist = (
            self.derive(other.twist[0]) - other.derive(self.twist[0]),
            self.derive(other.twist[1]) - other.derive(self.twist[1]),
        )
        return GlueGauge(self.vars, self.order, fields, twist)

    def __eq__(self, other):
        return (
            isinstance(other, GlueGauge)
            and self.vars == other.vars
            and self.order == other.order
            and self.fields == other.fields
            and self.twist == other.twist
        )

    def describe(self):
        parts = ["%s d/d%s" % (c, name) for name, c in sorted(self.fields.items())]
        a, b = self.twist
        if not a.is_zero() or not b.is_zero():
            parts.append("twist (%s, %s)" % (a, b))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "GlueGauge(%s)" % self.describe()


# -- first-order data on one chart -------------------------------------------


class KSCochain:
    """A deformed equation on one chart over a truncated line.

    Holds the undeformed equation f and the perturbation phi with
    phi(0) = 0; the deformed operator is f + phi.
    """

    __slots__ = ("f", "order", "phi")

    def __init__(self, f, order, phi):
        if phi.vars != f.vars or phi.order != order:
            raise ValueError("perturbation does not match the equation")
        if phi.valuation() < 1:
            raise ValueError("perturbation must vanish at t = 0")
        self.f = f
        self.order = order
        self.phi = phi

    def operator(self):
        """The deformed equation f + phi as a truncated polynomial."""
        return TruncPoly.from_poly(self.f, self.order) + self.phi

    def direction(self, k=1):
        """The t^k coefficient of the perturbation."""
        return self.phi.coeffs[k] if k < self.order else Poly.zero(self.f.vars)

    def __repr__(self):
        return "KSCochain(%s + %s)" % (self.f, self.phi)


def ks_cochain(f, g, order):
    """First-order family f + t*g over Q[t]/(t^order)."""
    if f.vars != g.vars:
        raise ValueError("equation and direction use different variables")
    return KSCochain(f, order, TruncPoly.from_poly(g, order, power=1))


def deformed_square_defects(pc, phi, order):
    """Nonzero entries of (d + phi)^2 on a resolution, as defect tuples.

    phi maps a complex degree to a matrix of TruncPoly perturbing the map
    out of that degree.  Returns (degree, row, col, entry) per violation.
    """
    zero = TruncPoly.zero(pc.vars, order)
    maps = []
    for d in list(pc.degrees())[:-1]:
        lifted = [[TruncPoly.from_poly(p, order) for p in row] for row in pc.matrix(d)]
        pert = phi.get(d)
        if pert is not None:
            lifted = [[x + pert[i][j] for j, x in enumerate(row)] for i, row in enumerate(lifted)]
        maps.append(lifted)
    return [(pc.start + k, r, c, str(p)) for k, r, c, p in _square_defects(maps, zero)]


# -- gluing identities --------------------------------------------------------


def _check_gauges(*gauges):
    """Refuse a gauge with a constant term."""
    for p in gauges:
        if not p.in_maximal_ideal():
            raise ValueError(
                "gauge is not trivial to first order: every component needs a factor of t"
            )


def glue_check(ks_rho, ks_sigma, psi):
    """Does exp(psi) carry one deformed equation to the other?

    Conjugates the sigma-chart operator by the gauge and compares with
    the rho-chart operator.  Returns a report dict; raises only when the
    data are incompatible (different equations, orders, or a gauge not
    divisible by t).
    """
    if ks_rho.f != ks_sigma.f:
        raise ValueError("charts deform different equations")
    if ks_rho.order != ks_sigma.order or psi.order != ks_rho.order:
        raise ValueError("charts and gauge use different truncation orders")
    if psi.vars != ks_rho.f.vars:
        raise ValueError("gauge uses different variables")
    _check_gauges(psi)
    conj = exp_conjugate(psi, ks_sigma.operator(), bracket=lambda g, op: g.apply(op))
    residual = conj - ks_rho.operator()
    return {
        "holds": residual.is_zero(),
        "conjugate": str(conj),
        "residual": None if residual.is_zero() else str(residual),
    }


def gauge_triple_check(psi_01, psi_12, psi_02):
    """Cocycle test on a triple overlap: compose two gauges against the third.

    Evaluates the trivariate bracket series on (-psi_02, psi_01, psi_12);
    the result is the logarithm of exp(-psi_02) exp(psi_01) exp(psi_12)
    and vanishes exactly when the triple composes.
    """
    psi_01._check(psi_12)
    psi_01._check(psi_02)
    _check_gauges(psi_01, psi_12, psi_02)
    table = _shared_table(psi_01.order - 1)
    residual = eval_bch(table, psi_02.scale(-1), psi_01, psi_12, nilpotency_order=psi_01.order)
    return {
        "holds": residual.is_zero(),
        "residual": None if residual.is_zero() else residual.describe(),
    }


def compose_gauges(psi_1, psi_2):
    """Logarithm of exp(psi_1) exp(psi_2) via the bracket series."""
    psi_1._check(psi_2)
    _check_gauges(psi_1, psi_2)
    table = _shared_table(psi_1.order - 1)
    return eval_bch(table, psi_1, psi_2, nilpotency_order=psi_1.order)


# -- lifting a family up the coefficient line --------------------------------


def milnor_quotient_dgla(f):
    """Two-line bracket algebra of the normal module modulo the singularity ideal.

    The normal directions of a hypersurface form a two-term algebra with
    both pieces a copy of the coordinate ring; reducing modulo the ideal
    of f and its partials kills the differential and leaves, per standard
    monomial m, a degree-zero generator a:m and a degree-one generator
    b:m with [a:m, b:m'] = -(m*m' reduced).  Returns the algebra, the
    reduced basis, and the ideal basis used for reduction.
    """
    vars = f.vars
    gens = [f] + [f.diff(v) for v in vars]
    gb = buchberger([g for g in gens if not g.is_zero()])
    exps = standard_monomials(gb)
    monos = [Poly(vars, {e: Fraction(1)}) for e in exps]
    labels = [str(m) for m in monos]
    names = ["a:%s" % s for s in labels] + ["b:%s" % s for s in labels]
    degrees = [0] * len(monos) + [1] * len(monos)
    n = len(monos)
    index = {e: i for i, e in enumerate(exps)}
    brackets = {}
    for i, mi in enumerate(monos):
        for j, mj in enumerate(monos):
            red = normal_form(mi * mj, gb)
            targets = {n + index[e]: -c for e, c in red.terms.items()}
            if targets:
                brackets[(i, n + j)] = targets
                brackets[(n + j, i)] = {k: -c for k, c in targets.items()}
    lie = StructLie(names, degrees, brackets)
    return lie, monos, gb


def package_one_chart(ks):
    """Wrap a one-chart family as a gluing datum with its vertex cochain.

    The chart algebra is the reduced normal-module algebra of the
    equation; the perturbation is rewritten in its standard basis.  The
    t^0 slot of the perturbation must be zero (it is, by construction).
    """
    lie, monos, gb = milnor_quotient_dgla(ks.f)
    sela = Sela((0,), {(0,): lie}, {}, ks.order)
    if not monos:
        # smooth chart: every perturbation reduces away
        return sela, special_cocycle(sela, {}, {})
    phi = _reduce_to_element(lie, monos, gb, ks.phi, ks.order)
    cocycle = special_cocycle(sela, {(0,): phi}, {})
    return sela, cocycle


def _reduce_to_element(lie, monos, gb, phi, order):
    ring = ArtinLine(order)
    n = len(monos)
    index = {next(iter(m.terms)): i for i, m in enumerate(monos)}
    coeffs = {}
    for k in range(1, order):
        p = phi.coeffs[k]
        if p.is_zero():
            continue
        red = normal_form(p, gb)
        for e, c in red.terms.items():
            idx = n + index[e]
            coeffs[idx] = coeffs.get(idx, ring.zero()) + ring.t_power(k, c)
    return LieElement(lie, ring, coeffs)


class LiftReport:
    """Trace of pushing a family from one truncation order to another."""

    __slots__ = ("f", "direction", "from_order", "to_order", "steps", "cocycle", "sela")

    def __init__(self, f, direction, from_order, to_order, steps, cocycle, sela):
        self.f = f
        self.direction = direction
        self.from_order = from_order
        self.to_order = to_order
        self.steps = steps
        self.cocycle = cocycle
        self.sela = sela

    @property
    def succeeded(self):
        return all(s.vanishes for s in self.steps)

    def equation(self):
        """The lifted equation f + phi when every step extended."""
        if not self.succeeded:
            return None
        phi = _element_to_trunc(self.f.vars, self.to_order, self.sela, self.cocycle)
        return TruncPoly.from_poly(self.f, self.to_order) + phi

    def describe(self):
        lines = ["lift %s by %s: orders %d -> %d" % (
            self.f, self.direction, self.from_order, self.to_order)]
        for s in self.steps:
            lines.append("  " + s.describe(self.sela))
        if self.succeeded:
            lines.append("  equation: %s" % self.equation())
        return "\n".join(lines)


def _element_to_trunc(vars, order, sela, cocycle):
    lie = sela.algebra((0,))
    phi = TruncPoly.zero(vars, order)
    elt = cocycle.phi.get((0,))
    if elt is None:
        return phi
    for idx, a in elt.coeffs.items():
        name = lie.names[idx]
        if not name.startswith("b:"):
            raise ValueError("vertex element leaves the degree-one piece")
        mono = parse_poly(name[2:], vars)
        for k, c in enumerate(a.coeffs):
            if c:
                phi = phi + TruncPoly.from_poly(mono.scale(c), order, power=k)
    return phi


def lift_deformation(f, g, from_order, to_order):
    """Push the family f + t*g from Q[t]/(t^from) to Q[t]/(t^to) step by step.

    The perturbation is first rewritten in the canonical basis of
    first-order deformations (the quotient by f and its partials), so the
    reported equation is the canonical representative of the family up to
    coordinate changes and rescalings of the chart.  Each step runs the
    extension step of the gluing complex and keeps the corrected family
    when the defect class vanishes; stops at the first genuine
    obstruction.
    """
    if from_order < 2:
        raise ValueError("a family needs at least one power of t: order >= 2")
    if to_order <= from_order:
        raise ValueError("target order must exceed the starting order")
    if f.is_zero():
        raise ValueError("the equation must be nonzero, got f = 0")
    ks = ks_cochain(f, g, from_order)
    sela, cocycle = package_one_chart(ks)
    steps = []
    for k in range(from_order, to_order):
        res = obstruction(cocycle, k + 1)
        steps.append(res)
        if not res.vanishes:
            return LiftReport(f, g, from_order, k + 1, steps, None, sela)
        cocycle = res.lift
        sela = cocycle.sela
    return LiftReport(f, g, from_order, to_order, steps, cocycle, sela)

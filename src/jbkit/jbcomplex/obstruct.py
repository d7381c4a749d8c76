"""Extending a glued family one step up the coefficient line.

A family over Q[t]/(t^k) either extends to Q[t]/(t^(k+1)) or it does
not, and the failure is measured by one vector: pad the family with
zeros at t^k and read off the t^k coefficients of its gluing defects,
the edge ones negated; below t^k they vanish by validation.  This is a
degree-two vector of the one-factor complex, equal to the one-factor
part of d(exp w) for the chain w of the padded family, as the tests
check against the chain differential.  Its class modulo exact vectors
is independent of the padding.  One elimination, ``exactnum.solve``,
gives the class as a remainder and, exactly when it vanishes, a
correction at t^k that repairs the family; the repaired family is
returned fully re-validated.

Only one step at a time makes sense: over a longer extension the new
coefficients interact with themselves and the defect is no longer
linear in the correction.
"""

from __future__ import annotations

from ..exactnum import solve
from ..liecore import ArtinLine, LieElement
from .cocycle import gluing_defects, special_cocycle
from .sela import TotalComplex, _simplex_name

__all__ = ["ObstructionResult", "obstruction"]


class ObstructionResult:
    """Outcome of one extension step.

    residual is the raw defect vector {(simplex, basis index): coeff},
    cls its canonical reduction modulo exact vectors; vanishes says
    whether cls is zero, and lift is the re-validated extended family
    when it is (None otherwise).  power is the t exponent the defect
    lives at.
    """

    __slots__ = ("power", "residual", "cls", "vanishes", "lift")

    def __init__(self, power, residual, cls, lift):
        self.power = power
        self.residual = residual
        self.cls = cls
        self.vanishes = not cls
        self.lift = lift

    def describe(self, sela):
        if self.vanishes:
            return "extends: obstruction class vanishes at t^%d" % self.power
        parts = [
            "%s:%s %s" % (_simplex_name(s), sela.algebra(s).names[b], c)
            for (s, b), c in sorted(self.cls.items(), key=lambda kv: (len(kv[0][0]), kv[0]))
        ]
        return "obstructed at t^%d by [%s]" % (self.power, ", ".join(parts))

    def __repr__(self):
        return "ObstructionResult(power=%d, vanishes=%r, class terms=%d)" % (
            self.power, self.vanishes, len(self.cls)
        )


def _extended(elt, lie, ring):
    if elt is None:
        return LieElement.zero(lie, ring)
    return LieElement(
        lie, ring, {i: ring.element(list(a.coeffs)) for i, a in elt.coeffs.items()}
    )


def _check_pad(pad, power, label, parts):
    for s, elt in pad.items():
        if tuple(s) not in parts:
            noun = "an edge" if label == "edge" else "a vertex"
            raise ValueError("%s is not %s" % (_simplex_name(s), noun))
        for a in elt.coeffs.values():
            if any(c and q != power for q, c in enumerate(a.coeffs)):
                raise ValueError(
                    "%s padding on %s must be supported at t^%d only"
                    % (label, _simplex_name(s), power)
                )


def obstruction(cocycle, to_order, pad=None):
    """Obstruction to extending a validated family to the next order.

    to_order must be one more than the family's order; anything else is
    refused because the kernel ideal I is not in the socle then.  pad
    optionally replaces the zero padding: a pair of dictionaries of
    vertex and edge elements over the larger line supported at the top
    power, letting callers watch the class stay put while the residual
    moves.
    """
    small = cocycle.sela
    k = small.artin_order
    if to_order != k + 1:
        raise ValueError(
            "I not in the socle: only the one-step extension %d -> %d is linear"
            % (k, k + 1)
        )
    big = small.with_order(to_order)
    ring = ArtinLine(to_order)

    phi = {
        v: _extended(cocycle.phi.get(v), big.algebra(v), ring)
        for v in big.all_simplices(1)
    }
    psi = {
        e: _extended(cocycle.psi.get(e), big.algebra(e), ring)
        for e in big.all_simplices(2)
    }
    if pad is not None:
        pad_phi, pad_psi = pad
        _check_pad(pad_phi, k, "vertex", phi)
        _check_pad(pad_psi, k, "edge", psi)
        for v, elt in pad_phi.items():
            phi[tuple(v)] = phi[tuple(v)] + elt
        for e, elt in pad_psi.items():
            psi[tuple(e)] = psi[tuple(e)] + elt

    residual = {}
    for simplex, defect in gluing_defects(big, phi, psi, {}):
        sign = -1 if len(simplex) == 2 else 1
        for b, a in defect.coeffs.items():
            if any(a.coeffs[:k]):
                term = "%s:%s" % (_simplex_name(simplex), big.algebra(simplex).names[b])
                raise AssertionError("defect on %s does not vanish below t^%d" % (term, k))
            residual[(simplex, b)] = sign * a.coeffs[k]

    tot = TotalComplex(big)
    index2 = tot.index.get(2, {})
    vec = {}
    for sb, c in residual.items():
        row = index2.get(sb)
        if row is None:
            raise AssertionError(
                "defect term %s:%s is not a degree-two vector"
                % (_simplex_name(sb[0]), sb[1])
            )
        vec[row] = c
    up = tot.matrix(2).apply(vec)
    if up:
        raise AssertionError("defect vector is not closed")

    eta, rest = solve(tot.matrix(1), vec)
    if rest:
        basis2 = tot.basis.get(2, [])
        return ObstructionResult(k, residual, {basis2[r]: c for r, c in rest.items()}, None)

    basis1 = tot.basis.get(1, [])
    for col, c in eta.items():
        simplex, b = basis1[col]
        if len(simplex) == 3:
            raise AssertionError(
                "correction needs a triangle component; the family shape "
                "cannot absorb it"
            )
        bump = LieElement(
            big.algebra(simplex), ring, {b: ring.t_power(k, -c)}
        )
        if len(simplex) == 1:
            phi[simplex] = phi[simplex] + bump
        else:
            psi[simplex] = psi[simplex] + bump
    lift = special_cocycle(
        big,
        {v: f for v, f in phi.items() if f.coeffs},
        {e: g for e, g in psi.items() if g.coeffs},
    )
    return ObstructionResult(k, residual, {}, lift)

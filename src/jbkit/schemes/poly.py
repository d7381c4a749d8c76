"""Sparse multivariate polynomials over Q with a tiny expression parser.

Terms map exponent tuples to nonzero rational coefficients; the
variable list is fixed per polynomial and arithmetic refuses to mix
different lists.  Monomials compare in one term order, graded reverse
lexicographic, which both printing and the Groebner layer read.  A
polynomial is falsy exactly when it is zero and a Fraction scales it
from the left, so it serves as the coefficient of a truncated line
(liecore.TruncElt).
"""

from __future__ import annotations

import re
from fractions import Fraction

from ..exactnum import ZERO, _add_maps, format_rational, parse_rational

__all__ = ["Poly", "parse_poly"]


def _grevlex_key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


class Poly:
    """Polynomial with exponent-vector terms."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        self.terms = {}
        n = len(self.vars)
        for exp, c in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != n or any(e < 0 for e in exp):
                raise ValueError("bad exponent vector %r" % (exp,))
            c = Fraction(c)
            if c:
                self.terms[exp] = c

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(vars):
        return Poly(vars, {})

    @staticmethod
    def constant(vars, c):
        return Poly(vars, {(0,) * len(tuple(vars)): Fraction(c)})

    @staticmethod
    def variable(vars, name):
        vars = tuple(vars)
        if name not in vars:
            raise ValueError("unknown variable %r" % (name,))
        exp = tuple(1 if v == name else 0 for v in vars)
        return Poly(vars, {exp: Fraction(1)})

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("mixed variable lists %r and %r" % (self.vars, other.vars))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return self._wrap(_add_maps(self.terms, other.terms))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, ZERO) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return self._wrap(out)

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            raise ValueError("negative power")
        acc = Poly.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def scale(self, c):
        c = Fraction(c)
        return self._wrap({e: c * v for e, v in self.terms.items()} if c else {})

    def __rmul__(self, c):
        """A rational scalar on the left: c * self."""
        return self.scale(c)

    def _wrap(self, terms):
        p = Poly.__new__(Poly)
        p.vars = self.vars
        p.terms = {e: c for e, c in terms.items() if c}
        return p

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    # -- calculus and substitution ---------------------------------------

    def diff(self, name):
        """Partial derivative with respect to one variable."""
        i = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            if not e[i]:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[ne] = out.get(ne, ZERO) + c * e[i]
        return self._wrap(out)

    def subs(self, images):
        """Substitute polynomials for variables; absent names map to themselves.

        The images fix the target variable list and must share one.
        """
        target = None
        for img in images.values():
            if target is None:
                target = img
            else:
                target._check(img)
        if target is None:
            return self
        vals = []
        for v in self.vars:
            img = images.get(v)
            if img is None:
                img = Poly.variable(target.vars, v)
            vals.append(img)
        acc = Poly.zero(target.vars)
        one = Poly.constant(target.vars, 1)
        for e, c in self.terms.items():
            term = one.scale(c)
            for val, k in zip(vals, e):
                if k:
                    term = term * val ** k
            acc = acc + term
        return acc

    # -- leading data -------------------------------------------------------

    def leading(self):
        """(exponent, coefficient) of the leading monomial; None when zero."""
        if not self.terms:
            return None
        e = max(self.terms, key=_grevlex_key)
        return e, self.terms[e]

    def monic(self):
        lead = self.leading()
        if lead is None:
            return self
        return self.scale(Fraction(1) / lead[1])

    # -- formatting -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grevlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                "%s^%d" % (v, k) if k > 1 else v
                for v, k in zip(self.vars, e)
                if k
            )
            if not mono:
                parts.append(format_rational(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append("%s*%s" % (format_rational(c), mono))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return "Poly(%s)" % self


# -- parsing ---------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()]))")


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ValueError("syntax error at position %d: %r" % (at, stripped[0]))
        num, ident, op = m.groups()
        if num is not None:
            out.append(("num", num, m.start(1)))
        elif ident is not None:
            out.append(("var", ident, m.start(2)))
        else:
            out.append(("op", op, m.start(3)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text, vars):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = tuple(vars)

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, msg):
        kind, val, at = self.peek()
        got = "end of input" if kind == "end" else repr(val)
        raise ValueError("syntax error at position %d: %s, got %s" % (at, msg, got))

    def expr(self):
        sign = 1
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            if self.take()[1] == "-":
                sign = -sign
        acc = self.term().scale(sign)
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            sign = 1
            while self.peek()[:2] in (("op", "+"), ("op", "-")):
                if self.take()[1] == "-":
                    sign = -sign
            acc = acc + self.term().scale(sign)
        return acc

    def term(self):
        acc = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self):
        base = self.atom()
        while self.peek()[:2] == ("op", "^"):
            self.take()
            kind, val, at = self.peek()
            if kind != "num" or "/" in val:
                self.fail("expected integer exponent")
            self.take()
            base = base ** int(val)
        return base

    def atom(self):
        kind, val, at = self.peek()
        if kind == "num":
            self.take()
            return Poly.constant(self.vars, parse_rational(val))
        if kind == "var":
            self.take()
            if val not in self.vars:
                raise ValueError(
                    "unknown variable %r at position %d (declared: %s)"
                    % (val, at, ", ".join(self.vars))
                )
            return Poly.variable(self.vars, val)
        if (kind, val) == ("op", "("):
            self.take()
            inner = self.expr()
            if self.peek()[:2] != ("op", ")"):
                self.fail("expected ')'")
            self.take()
            return inner
        if (kind, val) == ("op", "-"):
            self.take()
            return -self.atom()
        self.fail("expected a number, variable or '('")


def parse_poly(text, vars):
    """Parse an expression over the declared variables.

    ^ binds tightest, then *, then + and -; rational literals like 2/3
    are single tokens.
    """
    p = _Parser(text, vars)
    out = p.expr()
    if p.peek()[0] != "end":
        p.fail("trailing input")
    return out

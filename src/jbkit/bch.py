"""Graded Baker-Campbell-Hausdorff components, exactly.

The series beta(X,Y) = log(exp X exp Y) is computed degree by degree from
the pair of derivation identities

    d/dX beta = C(ad beta)(X),      d/dY beta = C(-ad beta)(Y),

where C(x) = x/(e^x - 1) is the Bernoulli generating function.  Summing the
two identities, the degree-n component on the left is the Euler operator
acting on beta_n, i.e. n*beta_n, while on the right only beta_{<n} can
appear inside the adjoints; this solves the recursion with beta_1 = X + Y.

The recursion runs on homogeneous components in the associative span.
With B_j the expansion of beta_j and g = X or Y, the degree-m part of
(ad beta)^k g is

    T_0^(1)(g) = g,    T_k^(m)(g) = sum_j (B_j T_{k-1}^(m-j)(g) - T_{k-1}^(m-j)(g) B_j),

which reads only B_j with j <= m - k, so each T_k^(m) is computed once
and serves every later degree.  Then

    n B_n = sum_k C_k (T_k^(n)(X) + (-1)^k T_k^(n)(Y)),

and one peel into the Lyndon basis per degree gives beta_n; that peel
also certifies that B_n is the expansion of a Lie element.  Components
are integer word sums over one denominator, and every output word is
divided once.

One route, ``_log_of_exps``, computes log(exp f_1 ... exp f_m) in the
associative span and pulls the result back through the left-normed
bracketing projection.  It is the independent oracle for the bivariate
and trivariate series, and it composes the trivariate table from the
bivariate one.  One evaluator, ``eval_bch``, sums the bigraded parts on
two elements of a nilpotent Lie algebra or the trigraded parts on three.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from .exactnum import ONE, bernoulli_normalized
from .freelie import (
    Alphabet,
    AssocPoly,
    FreeLieElement,
    _commutator,
    _integer_form,
    _peel,
    _ranked,
    _word_products,
    dynkin_lie,
    evaluate_lie,
    expand_associative,
)

BCH_ALPHABET = Alphabet(["x", "y"])
BCH_ALPHABET3 = Alphabet(["x", "y", "z"])


class BchTable:
    """Immutable table of bigraded (and optionally trigraded) components."""

    __slots__ = ("max_degree", "bidegree", "tridegree")

    def __init__(self, max_degree: int, bidegree: dict, tridegree: dict | None = None):
        self.max_degree = max_degree
        self.bidegree = dict(bidegree)
        self.tridegree = dict(tridegree) if tridegree else {}

    def bigraded(self, i: int, j: int) -> FreeLieElement:
        if i < 0 or j < 0 or i + j > self.max_degree:
            raise ValueError(f"bidegree ({i},{j}) beyond table cap {self.max_degree}")
        return self.bidegree.get((i, j), FreeLieElement.zero(BCH_ALPHABET))

    def trigraded(self, i: int, j: int, k: int) -> FreeLieElement:
        if min(i, j, k) < 0 or i + j + k > self.max_degree:
            raise ValueError(
                f"tridegree ({i},{j},{k}) beyond table cap {self.max_degree}"
            )
        if not self.tridegree:
            raise ValueError("trigraded components were not built for this table")
        return self.tridegree.get((i, j, k), FreeLieElement.zero(BCH_ALPHABET3))

    def truncate(self, max_degree: int) -> "BchTable":
        """The table of the components up to total degree ``max_degree``.

        Each component is exact on its own, so this equals the table
        built to that cap.
        """
        if not 1 <= max_degree <= self.max_degree:
            raise ValueError(f"cannot truncate a table of cap {self.max_degree} to {max_degree}")
        return BchTable(
            max_degree,
            {md: part for md, part in self.bidegree.items() if sum(md) <= max_degree},
            {md: part for md, part in self.tridegree.items() if sum(md) <= max_degree},
        )


def build_table(max_degree: int, tri: bool = False) -> BchTable:
    """Solve the recursion up to total degree ``max_degree``.

    ``expanded[j]`` is B_j and ``powers[g][k]`` maps m to T_k^(m)(g),
    both as integer word sums (d, {word: int}), meaning {word: int / d}.
    """
    if max_degree < 1:
        raise ValueError("degree cap must be at least 1")
    expanded = [None, (1, {(0,): 1, (1,): 1})]
    powers = ([{1: (1, {(0,): 1})}], [{1: (1, {(1,): 1})}])
    beta_parts = [FreeLieElement._of(BCH_ALPHABET, {(0,): ONE, (1,): ONE})]
    for n in range(2, max_degree + 1):
        den, total = 1, {}  # n * beta_n
        for g, by_k in enumerate(powers):
            by_k.append({})
            for k in range(1, n):
                below = by_k[k - 1]
                comp = _bracket_sum(
                    [(expanded[j], below[n - j]) for j in range(1, n) if n - j in below]
                )
                if not comp[1]:
                    continue
                if n < max_degree:  # no later degree reads the last ones
                    by_k[k][n] = comp
                ck = bernoulli_normalized(k)
                if ck:
                    ck = ck if g == 0 or k % 2 == 0 else -ck
                    den, total = _linear([(ONE, (den, total)), (ck, comp)])
        beta_parts.append(_peel(BCH_ALPHABET, den * n, total))
        expanded.append(_lowest(den * n, total))
    bidegree: dict = {}
    for part in beta_parts:
        bidegree.update(part.multidegree_parts())
    table = BchTable(max_degree, bidegree)
    if tri:
        table = BchTable(max_degree, bidegree, _compose_trivariate(table))
    return table


def _linear(parts) -> tuple:
    """sum c * (v / d) over (Fraction c, (d, v)) in ``parts``, as an integer word sum."""
    den = lcm(*(c.denominator * d for c, (d, _) in parts))
    out: dict = {}
    for c, (d, v) in parts:
        f = c.numerator * (den // (c.denominator * d))
        for w, x in v.items():
            out[w] = out.get(w, 0) + f * x
    return den, {w: x for w, x in out.items() if x}


def _bracket_sum(pairs) -> tuple:
    """sum ab - ba over pairs (a, b) of integer word sums, in lowest terms."""
    return _lowest(*_linear([(ONE, (da * db, _commutator(a, b))) for (da, a), (db, b) in pairs]))


def _lowest(den: int, v: dict) -> tuple:
    """The integer word sum v / den with the common factor cancelled."""
    g = gcd(den, *v.values())
    return den // g, {w: c // g for w, c in v.items()}


def _compose_trivariate(table: BchTable) -> dict:
    """Feed the bivariate law through itself: beta(beta(x,y),z).

    The law is associative, so this is log(exp x exp y exp z), which
    bch_oracle_trivariate computes without the bivariate table.
    Applying the law to two Lie elements is, in the associative span,
    just multiplication of their exponentials, so the outer application
    is evaluated there and pulled back through the bracketing
    projection, which certifies the result is again a Lie element.
    """
    terms = {w: c for part in table.bidegree.values() for w, c in part.terms.items()}
    inner = FreeLieElement._of(BCH_ALPHABET3, terms)  # beta(x,y) among x, y, z
    z = AssocPoly.generator(BCH_ALPHABET3, "z")
    return _log_of_exps([expand_associative(inner), z], table.max_degree)


# ---------------------------------------------------------------------------
# associative-logarithm oracle
# ---------------------------------------------------------------------------


def _power_series(u: AssocPoly, cap: int, coeff, acc: AssocPoly) -> AssocPoly:
    """acc + sum_{k >= 1} coeff(k) u^k, truncated above ``cap``.

    With u = v / d for an integer word sum v, the k-th power is the
    integer word sum v^k over d^k; the sum is kept over one common
    denominator and each output word is divided once.
    """
    d, v = _integer_form(u.terms)
    right = _ranked(v, cap)
    den, total = _integer_form(acc.terms)
    power = {(): 1}
    k = 0
    while True:
        power = _word_products(power, right, cap)
        if not power:
            break
        k += 1
        den, total = _linear([(ONE, (den, total)), (coeff(k), (d**k, power))])
    return AssocPoly._of(u.alphabet, {w: Fraction(c, den) for w, c in total.items()})


def exp_assoc(p: AssocPoly, cap: int) -> AssocPoly:
    """exp of a constant-term-free associative polynomial, truncated."""
    if () in p.terms:
        raise ValueError("exp needs a zero constant term")
    return _power_series(
        p, cap, lambda k: Fraction(1, factorial(k)), AssocPoly.unit(p.alphabet)
    )


def log_assoc(p: AssocPoly, cap: int) -> AssocPoly:
    """log of 1 + u where p = 1 + u, truncated above ``cap``."""
    u = p - AssocPoly.unit(p.alphabet)
    if () in u.terms:
        raise ValueError("log needs constant term exactly 1")
    return _power_series(
        u, cap, lambda k: Fraction((-1) ** (k + 1), k), AssocPoly.zero(p.alphabet)
    )


def _log_of_exps(factors, cap: int) -> dict:
    """log(exp f_1 ... exp f_m) up to degree ``cap``, split by multidegree.

    The product is formed in the associative span and pulled back
    through the left-normed bracketing projection, which certifies that
    every graded piece is a genuine Lie element.
    """
    if cap < 1:
        raise ValueError("degree cap must be at least 1")
    product = exp_assoc(factors[0], cap)
    for f in factors[1:]:
        product = product.mul(exp_assoc(f, cap), cap)
    lie = dynkin_lie(log_assoc(product, cap))
    return lie.multidegree_parts()


def bch_oracle(max_degree: int) -> dict:
    """Independent route: log(exp x exp y) in the associative span.

    Returns {(i, j): FreeLieElement}.
    """
    gens = [AssocPoly.generator(BCH_ALPHABET, lab) for lab in BCH_ALPHABET.labels]
    return _log_of_exps(gens, max_degree)


def bch_oracle_trivariate(max_degree: int) -> dict:
    """log(exp x exp y exp z) the same way, split by tridegree."""
    gens = [AssocPoly.generator(BCH_ALPHABET3, lab) for lab in BCH_ALPHABET3.labels]
    return _log_of_exps(gens, max_degree)


# ---------------------------------------------------------------------------
# evaluation on nilpotent elements
# ---------------------------------------------------------------------------


def eval_bch(table: BchTable, *args, nilpotency_order: int):
    """sum beta_{i,j}(u, v), or sum beta_{i,j,k}(u, v, w), in the algebra of the args.

    Two arguments sum the bigraded parts, three the trigraded ones,
    which the table must carry.  ``nilpotency_order`` is the
    caller-certified bound: every bracket word of length >=
    nilpotency_order vanishes on these elements (for coefficients in the
    maximal ideal of a truncated polynomial line this is the truncation
    order).  The table must reach that far.
    """
    if len(args) not in (2, 3):
        raise TypeError(f"eval_bch takes two or three elements, not {len(args)}")
    cap = nilpotency_order - 1
    if cap > table.max_degree:
        raise ValueError(
            f"nilpotency bound {nilpotency_order} exceeds table cap {table.max_degree}"
        )
    if len(args) == 2:
        parts, labels = table.bidegree, BCH_ALPHABET.labels
    elif table.tridegree:
        parts, labels = table.tridegree, BCH_ALPHABET3.labels
    else:
        raise ValueError("trigraded components were not built for this table")
    assignment = dict(zip(labels, args))
    zero = args[0].scale(0)
    acc = zero
    for md, part in sorted(parts.items()):
        if sum(md) > cap:
            continue
        acc = acc + evaluate_lie(
            part,
            assignment,
            bracket=lambda a, b: a.bracket(b),
            add=lambda a, b: a + b,
            scale=lambda c, a: a.scale(c),
            zero=zero,
        )
    return acc

"""Monomial chain groups over a gluing datum and their exact differential.

A chain monomial is a sorted product of factors tagged with one power q
of the coefficient parameter; a factor is a single basis vector of one
per-simplex algebra.  With k factors the tag must satisfy k <= q < N
(N the truncation order), which realizes coefficients in the maximal
ideal of Q[t]/(t^N).  Factors super-commute with parity

    (simplex dimension + internal degree - 1) mod 2,

so odd factors never repeat inside a monomial, and the chain degree of
a monomial is the sum of the shifted factor degrees.

The differential extends five corestriction families by the derivation
rule over the remaining factors (Koszul signs from the parities above):

  one factor        signed cofaces plus (-1)^p times the internal
                    differential of the simplex,
  two factors on    graded bracket on the common vertex with the sign
  one vertex        (-1)^(e_x (e_y + 1)) on the ordered pair,
  vertex + t edge   normalized Bernoulli coefficient C_t, the coface
  factors           sign of (vertex < edge) to the t-th power, and the
                    symmetrized t-fold adjoint action,
  edge factors in   the trivariate bracket series: the three edges of a
  a triangle        triangle feed the slots of beta_{j,k,l} through the
                    stored coface maps, multilinearized without divided
                    powers,
  top vertex +      bracket of the restricted vertex element with the
  triangle factor   triangle factor, signed by the internal degree of
                    the vertex element; the slot word of the trivariate
                    series wraps at the largest vertex, whose two
                    insertion points do not cancel.

Every selection of factors is a labeled subset of positions; paired
with true exponential normalization of product chains this makes
d(exp w) close without stray factorials.  All other factor patterns
contribute zero.

One JBComplex assembly, or one chain_differential call, keeps a dict
(the memo) that lives as long as that call and holds, each computed
once:

  per factor        its factor_key, its parity and its one-factor
                    differential (Sela.differential_of), all read off the
                    factor's simplex and basis index alone;
  per selection     the value of each family on the selected factors:
                    the vertex bracket, the symmetrized adjoint action of
                    edge factors on a vertex factor (with its Bernoulli
                    scalar and coface sign), the bracket of the restricted
                    top vertex with a triangle factor, and the trivariate
                    series on the factors fed to the slots of a triangle.

A family value is a function of the selected factors (simplex and
basis index, in slot order): the coface matrices, brackets and series
it reads are fixed by them and by the gluing datum.  The rest of the
monomial and its power of t only enter through the Koszul sign and the
merge that emit applies per monomial.  Values are stored with the key
and parity of every factor they produce, ready for emit, which signs a
coefficient by negation and merges the new factor into the sorted
remainder in one walk.

Scope: d*d = 0 holds exactly for arbitrary gradings on covers without
2-simplices, and on covers with 2-simplices whenever every odd edge
element has vanishing self-bracket (in particular for all algebras in
internal degree zero).  An odd edge element y with [y, y] != 0 meeting
a triangle needs homotopy corrections to the slot series that this
module does not model; verify_d_squared is the guard for that regime.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

from ..bch import build_table
from ..exactnum import (
    ONE, ZERO, SparseRatMatrix, bernoulli_normalized, column_echelon, insert, kernel_vectors,
    row_echelon,
)
# Unused here, but kept bound: perfbench/tracer.py patches this module's rank_kernel.
from ..exactnum import rank_kernel  # noqa: F401
from ..freelie import Alphabet, AssocPoly, _extract_lie, evaluate_lie, expand_associative
from .sela import coface_sign, _acc, _simplex_name

__all__ = [
    "JBComplex",
    "jb_assemble",
    "monomial_differential",
    "chain_differential",
    "verify_d_squared",
    "graded_pieces",
    "jb_cohomology",
    "deformation_ring_dimension",
    "euler_characteristic_check",
    "induced_chain_map",
    "format_monomial",
    "sort_word",
    "factor_key",
    "factor_parity",
    "factor_degree",
]


# -- factors and monomials ----------------------------------------------

def factor_key(f):
    simplex, idx = f
    return (len(simplex), simplex, idx)


def factor_parity(sela, f):
    simplex, idx = f
    e = sela.algebra(simplex).degrees[idx]
    # (p + e - 1) mod 2 with p = len(simplex) - 1
    return (len(simplex) + e) % 2


def factor_degree(sela, f):
    simplex, idx = f
    return len(simplex) + sela.algebra(simplex).degrees[idx] - 2


def sort_word(sela, word):
    """Canonical order of a factor word with its Koszul sign.

    Returns (sorted tuple, sign); (None, 0) when an odd factor repeats,
    which kills the monomial.
    """
    items = list(word)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and factor_key(items[j - 1]) > factor_key(items[j]):
            if factor_parity(sela, items[j - 1]) and factor_parity(sela, items[j]):
                sign = -sign
            items[j - 1], items[j] = items[j], items[j - 1]
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b and factor_parity(sela, a):
            return None, 0
    return tuple(items), sign


def format_monomial(sela, mono):
    factors, q = mono
    parts = ["%s:%s" % (_simplex_name(s), sela.algebra(s).names[b]) for s, b in factors]
    return "[%s] t^%d" % (" ".join(parts), q)


# -- scalar-coefficient elements for series evaluation -------------------

class _RatElt:
    """Sparse vector in one algebra with plain rational coefficients."""

    __slots__ = ("lie", "coeffs")

    def __init__(self, lie, coeffs=None):
        self.lie = lie
        self.coeffs = {i: c for i, c in (coeffs or {}).items() if c}

    def bracket(self, other):
        out = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                targets = self.lie.bracket_basis(a, b)
                if not targets:
                    continue
                p = ca * cb
                for c, w in targets.items():
                    s = out.get(c, ZERO) + p * w
                    if s:
                        out[c] = s
                    elif c in out:
                        del out[c]
        return _RatElt(self.lie, out)

    def __add__(self, other):
        out = dict(self.coeffs)
        for c, v in other.coeffs.items():
            s = out.get(c, ZERO) + v
            if s:
                out[c] = s
            else:
                out.pop(c, None)
        return _RatElt(self.lie, out)

    def scale(self, c):
        return _RatElt(self.lie, {i: c * v for i, v in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs


# -- bracket-series components, multilinearized --------------------------

_TABLE_CACHE = {}
_POLAR_CACHE = {}


def _shared_table(degree):
    """The trivariate table to ``degree``, cached per degree.

    A degree below the largest cached table is served by truncating that
    table, so callers that know their largest degree request it first.
    """
    degree = max(degree, 1)
    table = _TABLE_CACHE.get(degree)
    if table is None:
        top = max(_TABLE_CACHE, default=0)
        if top > degree:
            table = _TABLE_CACHE[top].truncate(degree)
        else:
            table = build_table(degree, tri=True)
        _TABLE_CACHE[degree] = table
    return table


def _polarized(table, j, k, l):
    """Multidegree (j,k,l) series component as a multilinear element.

    A direct multilinear expansion: each word of the component's
    associative expansion sends its x, y and z positions bijectively onto
    fresh letters of three blocks of sizes j, k and l.  That is the part
    of substituting a sum of fresh letters for each slot that is linear
    in every letter (no divided powers), so evaluating on equal arguments
    returns j! k! l! times the original component.  Every fresh word
    comes from one word and one bijection, and the sum is pulled back to
    the Lyndon basis.
    """
    key = (j, k, l)
    cached = _POLAR_CACHE.get(key)
    if cached is not None:
        return cached
    n = j + k + l
    blocks = (range(j), range(j, j + k), range(j + k, n))
    fillings = list(product(*(permutations(b) for b in blocks)))
    terms = {}
    for word, c in expand_associative(table.trigraded(j, k, l)).terms.items():
        slots = [[p for p, letter in enumerate(word) if letter == b] for b in range(3)]
        for filling in fillings:
            fresh = [0] * n
            for positions, letters in zip(slots, filling):
                for p, a in zip(positions, letters):
                    fresh[p] = a
            terms[tuple(fresh)] = c
    poly = AssocPoly(Alphabet(["a%d" % i for i in range(n)]))
    poly.terms = terms
    cached = _extract_lie(poly)
    _POLAR_CACHE[key] = cached
    return cached


def _eval_polar(polar, args, lie):
    """Evaluate a multilinear element on sparse vectors in one algebra."""
    assignment = {"a%d" % i: _RatElt(lie, vec) for i, vec in enumerate(args)}
    res = evaluate_lie(
        polar,
        assignment,
        bracket=lambda u, v: u.bracket(v),
        add=lambda u, v: u + v,
        scale=lambda c, u: u.scale(c),
        zero=_RatElt(lie),
    )
    return res.coeffs


def _ad(lie, y, vec):
    out = {}
    for m, cm in vec.items():
        for c, w in lie.bracket_basis(y, m).items():
            _acc(out, c, cm * w)
    return out


def _vertex_into_triangle(sela, vert, tri, a):
    """Orientation-free restriction of vertex basis element a into tri.

    Two-step coface composite with both orientation signs divided back
    out; the coface squares make the two through-edges agree, so use
    whichever is present.
    """
    v = vert[0]
    for edge in combinations(tri, 2):
        if v not in edge or sela.algebra(edge).dim == 0:
            continue
        corr = Fraction(coface_sign(vert, edge) * coface_sign(edge, tri))
        step = sela.coface(vert, edge).column(a)
        outer = sela.coface(edge, tri)
        out = {}
        for m, cm in step.items():
            for c, w in outer.column(m).items():
                _acc(out, c, corr * cm * w)
        return out
    return {}


def _targets(sela, pairs):
    """Family values as emit input: (factor, key, parity, coeff), zeros dropped."""
    return [(g, factor_key(g), factor_parity(sela, g), c) for g, c in pairs if c]


def _factor_data(sela, memo, f):
    """Key, parity and one-factor differential of factor f, kept in memo."""
    data = memo.get(f)
    if data is None:
        data = memo[f] = (
            factor_key(f), factor_parity(sela, f), _targets(sela, sela.differential_of(*f))
        )
    return data


def _family_value(sela, table, key):
    """Value of one family on a selection, read off its memo key alone.

    The key names the family and the selected factors: ("bracket", x, y)
    for two factors on one vertex, ("transport", x, edge, indices) for a
    vertex factor and edge factors, ("top", x, y) for a top vertex and a
    triangle factor, and ("slot", triangle, factors in slot order).
    """
    kind = key[0]
    if kind == "bracket":
        (s, a), (_, b) = key[1:]
        lie = sela.algebra(s)
        odd = (lie.degrees[a] * (lie.degrees[b] + 1)) % 2
        return [((s, c), -w if odd else w) for c, w in lie.bracket_basis(a, b).items()]
    if kind == "transport":
        (vert, a), e, idxs = key[1:]
        rx = sela.coface(vert, e).column(a)
        acc = _transport(sela.algebra(e), rx, idxs) if rx else {}
        ct = bernoulli_normalized(len(idxs))
        scalar = ct if coface_sign(vert, e) > 0 or len(idxs) % 2 == 0 else -ct
        return [((e, c), scalar * w) for c, w in acc.items()]
    if kind == "top":
        (vert, a), (tri, b) = key[1:]
        lie_t = sela.algebra(tri)
        acc = {}
        for m, cm in _vertex_into_triangle(sela, vert, tri, a).items():
            for c, w in lie_t.bracket_basis(m, b).items():
                _acc(acc, c, cm * w)
        odd = sela.algebra(vert).degrees[a] % 2
        return [((tri, c), -w if odd else w) for c, w in acc.items()]
    tri, selected = key[1], key[2:]
    a0, a1, a2 = tri
    polar = _polarized(table, *(
        sum(1 for s, _ in selected if s == e) for e in ((a0, a2), (a0, a1), (a1, a2))
    ))
    args = [sela.coface(s, tri).column(b) for s, b in selected]
    if polar.is_zero() or not all(args):
        return []
    return [((tri, c), w) for c, w in _eval_polar(polar, args, sela.algebra(tri)).items()]


# -- the differential of one monomial -------------------------------------

def monomial_differential(sela, mono, table=None, memo=None):
    """d of one basis monomial as a sparse chain {monomial: Fraction}.

    memo holds the per-factor data and the family values by factor
    selection; pass one dict to every call of an assembly to compute
    each of them once.
    """
    if table is None:
        table = _shared_table(sela.artin_order - 1)
    if memo is None:
        memo = {}
    factors, q = mono
    k = len(factors)
    data = [_factor_data(sela, memo, f) for f in factors]
    keys = [d[0] for d in data]
    parities = [d[1] for d in data]
    out = {}

    def emit(selected, targets):
        # selected positions move to the front of the word: each one
        # passes the unselected odd factors on its left
        ext = odd_left = 0
        rest = []
        for t in range(k):
            if t in selected:
                if parities[t]:
                    ext += odd_left
            else:
                odd_left += parities[t]
                rest.append(t)
        rest_f = tuple(factors[t] for t in rest)
        n = len(rest)
        for g, gk, gp, coeff in targets:
            # the new factor merges into the sorted remainder, passing the
            # odd factors with smaller keys
            pos = passed = 0
            while pos < n and keys[rest[pos]] < gk:
                passed += parities[rest[pos]]
                pos += 1
            if gp and pos < n and keys[rest[pos]] == gk:
                continue  # odd square
            target = (rest_f[:pos] + (g,) + rest_f[pos:], q)
            val = -coeff if (ext + gp * passed) % 2 else coeff
            s = out.get(target)
            if s is not None:
                val += s
            if val:
                out[target] = val
            else:
                del out[target]

    def family(selected, key):
        targets = memo.get(key)
        if targets is None:
            targets = memo[key] = _targets(sela, _family_value(sela, table, key))
        if targets:
            emit(tuple(sorted(selected)), targets)

    # one factor: cofaces and the internal differential
    for i in range(k):
        emit((i,), data[i][2])

    # two factors on one vertex: graded bracket
    for i, j in combinations(range(k), 2):
        if len(factors[i][0]) == 1 and factors[i][0] == factors[j][0]:
            family((i, j), ("bracket", factors[i], factors[j]))

    # vertex factor transported along edge factors
    for i in range(k):
        si = factors[i][0]
        if len(si) != 1:
            continue
        by_edge = {}
        for t in range(k):
            st = factors[t][0]
            if t != i and len(st) == 2 and si[0] in st:
                by_edge.setdefault(st, []).append(t)
        for e, positions in by_edge.items():
            for t_count in range(1, len(positions) + 1):
                if not bernoulli_normalized(t_count):
                    continue
                for subset in combinations(positions, t_count):
                    idxs = tuple(factors[p][1] for p in subset)
                    family((i,) + subset, ("transport", factors[i], e, idxs))

    # top vertex of a triangle acting on a triangle factor: bracket with
    # the restricted vertex element, signed by its internal degree.  The
    # slot word of the trivariate series wraps at the largest vertex,
    # whose two insertion points do not cancel.
    for i, j in combinations(range(k), 2):
        si, sj = factors[i][0], factors[j][0]
        if len(si) == 1 and len(sj) == 3 and si[0] == sj[2]:
            family((i, j), ("top", factors[i], factors[j]))

    # edge factors feeding the slots of a triangle
    for tri in sela.simplices(3):
        a0, a1, a2 = tri
        slot_positions = [
            [t for t in range(k) if factors[t][0] == e] for e in ((a0, a2), (a0, a1), (a1, a2))
        ]
        for qx in _subsets(slot_positions[0]):
            for qy in _subsets(slot_positions[1]):
                for qz in _subsets(slot_positions[2]):
                    selected = qx + qy + qz
                    if len(selected) >= 2:
                        family(selected, ("slot", tri) + tuple(factors[p] for p in selected))

    return out


def _transport(lie, rx, idxs):
    """Sum over orderings of idxs of the iterated adjoint action on rx."""
    acc = {}
    for perm in permutations(idxs):
        vec = dict(rx)
        for y in reversed(perm):
            vec = _ad(lie, y, vec)
            if not vec:
                break
        for c, w in vec.items():
            _acc(acc, c, w)
    return acc


def _subsets(positions):
    out = [()]
    for t in range(1, len(positions) + 1):
        out.extend(combinations(positions, t))
    return out


def chain_differential(sela, chain, table=None):
    """d of a sparse chain {monomial: Fraction}."""
    if table is None:
        table = _shared_table(sela.artin_order - 1)
    out = {}
    memo = {}
    for mono, coeff in chain.items():
        if not coeff:
            continue
        for target, v in monomial_differential(sela, mono, table, memo).items():
            _acc(out, target, coeff * v)
    return out


# -- the assembled complex -------------------------------------------------

class JBComplex:
    """Enumerated monomial bases with sparse differential matrices.

    degree_window restricts enumeration to chain degrees lo..hi
    (inclusive); None enumerates everything the truncation order
    admits.  sym_cap bounds the factor count and must not truncate:
    anything below N-1 changes the complex and is refused.
    """

    def __init__(self, sela, degree_window=None, sym_cap=None):
        order = sela.artin_order
        if sym_cap is not None and sym_cap < order - 1:
            raise ValueError(
                "symmetric-power cap %d is below the nilpotency bound %d"
                % (sym_cap, order - 1)
            )
        self.sela = sela
        self.order = order
        if degree_window is not None:
            lo, hi = degree_window
            if lo > hi:
                raise ValueError("empty degree window")
            self.window = (lo, hi)
        else:
            self.window = None
        self.table = _shared_table(order - 1)
        self._enumerate()
        self._assemble()

    # enumeration is deterministic: factors ordered by (simplex size,
    # simplex, basis index), monomials by (factor count, factors, q)
    def _enumerate(self):
        sela = self.sela
        factors = []
        for simplex in sela.simplices():
            for b in range(sela.algebras[simplex].dim):
                factors.append((simplex, b))
        factors.sort(key=factor_key)
        self.basis = {}
        for count in range(1, self.order):
            for combo in combinations_with_replacement(factors, count):
                if any(
                    a == b and factor_parity(sela, a)
                    for a, b in zip(combo, combo[1:])
                ):
                    continue
                deg = sum(factor_degree(sela, f) for f in combo)
                if self.window is not None and not (
                    self.window[0] <= deg <= self.window[1]
                ):
                    continue
                for q in range(count, self.order):
                    self.basis.setdefault(deg, []).append((combo, q))
        for deg in self.basis:
            self.basis[deg].sort(key=lambda m: (len(m[0]), m[0], m[1]))
        self.index = {
            deg: {mono: i for i, mono in enumerate(monos)}
            for deg, monos in self.basis.items()
        }

    def _assemble(self):
        self.matrices = {}
        memo = {}
        for deg in sorted(self.basis):
            if self.window is not None and deg + 1 > self.window[1]:
                continue
            rows = self.index.get(deg + 1, {})
            mat = SparseRatMatrix(len(rows), len(self.basis[deg]))
            for col, mono in enumerate(self.basis[deg]):
                for target, v in monomial_differential(self.sela, mono, self.table, memo).items():
                    row = rows.get(target)
                    if row is None:
                        raise AssertionError(
                            "differential left the enumerated basis: %s -> %s"
                            % (format_monomial(self.sela, mono),
                               format_monomial(self.sela, target))
                        )
                    mat.entries[row, col] = v
            self.matrices[deg] = mat

    def degrees(self):
        return sorted(self.basis)

    def dim(self, degree):
        return len(self.basis.get(degree, ()))

    def matrix(self, degree):
        if degree in self.matrices:
            return self.matrices[degree]
        return SparseRatMatrix(self.dim(degree + 1), self.dim(degree))

    def differential_of_chain(self, chain):
        return chain_differential(self.sela, chain, self.table)

    def monomials(self, degree):
        return list(self.basis.get(degree, ()))


def jb_assemble(sela, degree_window=None, sym_cap=None):
    """Enumerate the chain groups of a gluing datum and assemble d."""
    return JBComplex(sela, degree_window, sym_cap)


# -- verification and invariants -------------------------------------------

def verify_d_squared(jb):
    """All compositions d(d(monomial)); empty list means they vanish.

    Failures come back as (degree, source monomial, target monomial,
    coefficient) with the monomials formatted for reading.
    """
    bad = []
    for deg in jb.degrees():
        nxt = deg + 1
        if nxt not in jb.matrices:
            continue
        if jb.window is not None and deg not in jb.matrices:
            continue
        prod = jb.matrix(nxt).mul(jb.matrix(deg))
        for (r, c), v in sorted(prod.entries.items()):
            bad.append(
                (
                    deg,
                    format_monomial(jb.sela, jb.basis[deg][c]),
                    format_monomial(jb.sela, jb.basis[deg + 2][r]),
                    v,
                )
            )
    return bad


def graded_pieces(jb, count):
    """Dimensions per degree of the count-factor slice of the filtration."""
    if count < 1:
        raise ValueError("factor count must be positive")
    out = {}
    for deg, monos in sorted(jb.basis.items()):
        c = sum(1 for fs, _ in monos if len(fs) == count)
        if c:
            out[deg] = c
    return out


def jb_cohomology(jb, degree):
    """Dimension and representative chains in one degree.

    Needs the degrees degree-1 .. degree+1 inside the window.  The
    dimension comes from two ranks, as the number of chains minus
    rank(d) minus rank(previous d), which is refused unless their
    composite vanishes.  Kernel vectors
    of d are then built one at a time, and only until there are that
    many representatives: each one that stays independent modulo the
    image of the previous d and the representatives before it is kept.
    """
    if jb.window is not None:
        lo, hi = jb.window
        if lo > degree - 1 or hi < degree + 1:
            raise ValueError(
                "degree window %s too small for cohomology in degree %d"
                % (jb.window, degree)
            )
    d, prev = jb.matrix(degree), jb.matrix(degree - 1)
    if not d.mul(prev).is_zero():
        raise ValueError(
            "d*d does not vanish from degree %d; no cohomology in degree %d"
            % (degree - 1, degree)
        )
    echelon = row_echelon(d)
    span = column_echelon(prev)
    dim = d.ncols - len(echelon) - len(span)
    monos = jb.basis.get(degree, [])
    reps = []
    if dim:
        for vec in kernel_vectors(echelon, d.ncols):
            if insert(span, vec):
                reps.append({monos[i]: v for i, v in sorted(vec.items())})
                if len(reps) == dim:
                    break
    return dim, reps


def deformation_ring_dimension(jb):
    """1 + dim of degree-zero cohomology: the unit plus dual generators."""
    return 1 + jb_cohomology(jb, 0)[0]


def euler_characteristic_check(jb):
    """Alternating sums of chain and cohomology dimensions must agree."""
    if jb.window is not None:
        raise ValueError("needs the full complex (no degree window)")
    chain = 0
    coh = 0
    for deg in jb.degrees():
        s = -1 if deg % 2 else 1
        chain += s * jb.dim(deg)
        coh += s * jb_cohomology(jb, deg)[0]
    return {"chain": chain, "cohomology": coh, "equal": chain == coh}


def induced_chain_map(source, target, morphism):
    """Degree-wise matrices induced by per-simplex morphism matrices.

    morphism maps a simplex to the matrix of a degree-preserving Lie
    morphism into the target algebra on the same simplex (absent means
    zero); monomials go to products of factor images, resorted with
    Koszul signs.
    """
    if source.order != target.order:
        raise ValueError("truncation orders differ")
    out = {}
    for deg in source.degrees():
        rows = target.index.get(deg, {})
        mat = SparseRatMatrix(len(rows), source.dim(deg))
        for col, (factors, q) in enumerate(source.basis[deg]):
            words = {(): ONE}
            for simplex, b in factors:
                mor = morphism.get(simplex)
                img = mor.column(b) if mor is not None else {}
                new = {}
                for word, c in words.items():
                    for r, w in img.items():
                        _acc(new, word + ((simplex, r),), c * w)
                words = new
                if not words:
                    break
            for word, c in words.items():
                sorted_word, sign = sort_word(target.sela, word)
                if sorted_word is None:
                    continue
                row = rows.get((sorted_word, q))
                if row is None:
                    raise ValueError(
                        "image monomial %s not enumerated in the target"
                        % format_monomial(target.sela, (sorted_word, q))
                    )
                mat[row, col] = mat[row, col] + c * sign
        out[deg] = mat
    return out

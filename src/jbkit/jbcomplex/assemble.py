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

cocycle.chain_mul is the Koszul product of sparse chains.  Only _merge
keeps its own merge of one new factor into the leftover word: it is the
hot path of assembly and of the d*d certificate.

JBComplex is a sela.GradedComplex on these monomials.  It enumerates
each word once, as a tuple of factor ranks (each word extended by every
rank not below its last, an odd one not repeated), and counts dim(n)
from the words; a degree's sorted (word, q) list and row index are
built on their first read, and so is its matrix.  It fills the one hook
of the cohomology routine, bound(n), with the E1 page of the
factor-count filtration.  d keeps the tag q and never raises the count
k: the assembly writes the tag of every target itself, and raises
AssertionError, naming source and target, where a word's d has a
target with more factors than the word.  The part of d that keeps k is
the derivation extension of C_1, TotalComplex shifted down one degree.
Over Q, H(Sym^k C_1) = Sym^k H(C_1), so dim H^n is at most the E1
count: the sum over k < N of N - k times the number of super-symmetric
monomials of k classes of H(C_1) in degree n (McCleary, A User's Guide
to Spectral Sequences, ch. 2), built once per complex from the
dimensions of TotalComplex, and None in every degree where TotalComplex
does not square to zero.  A count of 0 answers (0, []) with no
elimination; elsewhere the eliminated dimension must not exceed it.

JBComplex certifies d*d = 0 from the one-factor rows, word by word and
with no matrix.  The chain groups are the symmetric coalgebra on C_1,
truncated by the tags, and d is a coderivation of it: d of a word is the
sum, over every nonempty set S of positions of its factors, of the
one-factor part of d on the factors at S, merged into the word without
them with the Koszul sign of moving them to the front (the L-infinity
structure of D. Fiorenza, M. Manetti & E. Martinengo, Cosimplicial DGLAs
in deformation theory, Comm. Algebra 40, 2012).  d*d, the square of an
odd coderivation, is a coderivation too, and vanishes exactly when its
one-factor rows do (Loday-Vallette, Algebraic Operads, 10.3).  Its entry
at one-factor row h and column (w, q) is the sum over u of d(w)_u times
p1d(u)_h, where p1d(u) sums the plan entries of u that select every
factor: zero unless the shape of u (its simplices) is full, i.e. one
factor, two on one vertex, a vertex and t copies of one edge through it
with C_t != 0, the top vertex and its triangle, or 2 to class-many edges
of one present triangle.  _full reads that off the shape.  A target of
a plan entry is its leftover plus one factor on the family's simplex
(for one factor on s: on s or a coface of s), so the certificate
generates only the entries whose leftover so grows into a full shape,
and walks a word only where its shape has one, at q = len(w): d(w, q)
is d(w) tagged q.  The selection of such an entry is full too, so
_may_reach skips, before any plan, a shape with a triangle other than
(t), (v, t) and (v, v, t) for the top vertex v of t, one of edges only
that is not full, one with three vertex factors other than (v, v, v) and
one with two where the edge factors are not all one edge through both.
The statement is global, not per degree: on mc_triangle(5) the
one-factor rows fail in degree 1 only, the full product in degrees 1 to
5.  So a zero result certifies every degree at once, and any other
falls back to the full product in every degree, whose list jb check
prints.  The trade: the certificate relies on d being a coderivation,
which a wrong Koszul sign in the merge can break unseen (dropping the
sign of moving the selected factors to the front does on mc_pair(3-5)
and dg_pair(3)), so a test rebuilds every column of every assembled
matrix as the coderivation extension of the one-factor rows.  The
guards "raises the factor count" and "left the enumerated basis" run on
every assembled matrix.  TotalComplex and the d*d refusal of
cohomology(n) keep the full product.

One JBComplex, or one chain_differential call, keeps a dict (the memo)
that lives as long as that complex or call and holds, each computed
once:

  once              the rank of every factor: its place in factor_key
                    order, so ranks compare as keys do;
  per factor        its rank, its parity and its one-factor differential
                    (Sela.differential_of);
  per simplex       the selection plan: the selections of every family
  shape             that can be nonzero on factors on those simplices,
                    in the order _merge walks them, each with its sorted
                    and leftover positions; for the certificate, whether
                    the shape is full and the entries that select every
                    factor or can reach a full shape;
  per word          for the certificate, the one-factor part of its d;
  per selection     the value of each family on the selected factors,
                    keyed by (kind, simplex, ranks of those factors).

A plan is a function of the shape and of the gluing datum: its
triangles and their nilpotency classes.  So is a family value of the
selected factors (simplex and basis index, in slot order), whose
truncation order N picks the shared series table of degree N - 1.  A
value is computed on sparse maps {basis index: Fraction}, with
StructLie.bracket_maps for every bracket and SparseRatMatrix.apply for
every coface, and stored with the rank and parity of every factor it
produces and each coefficient next to its negative, ready for _merge:
the Koszul sign picks one of the two, and the new factor goes where
bisect_left puts its rank among the ranks of the word, less the selected
factors before that place, passing the word's odd factors before that
place less the odd selected ones.

The power q of t only tags the targets, and each degree's basis keeps
the tags of one word next to each other, so JBComplex calls
monomial_differential once per word and re-tags that result.

Slot selections too long to be nonzero are never formed.  Every term of
the trivariate series on n selected factors is a bracketing of n
vectors of the triangle algebra, and every bracketing of n vectors lies
in F_n, where F_1 is the algebra and F_n is spanned by [F_i, F_j] over
i + j = n, by induction on the bracketing alone.
StructLie.nilpotency_class certifies the largest n with F_n != 0, so a
selection of more factors is exactly zero and left out of the plan; an
algebra without a certificate (None) keeps every selection.

Scope: d*d = 0 holds exactly for arbitrary gradings on covers without
2-simplices, and on covers with 2-simplices whenever every odd edge
element has vanishing self-bracket (in particular for all algebras in
internal degree zero).  An odd edge element y with [y, y] != 0 meeting
a triangle needs homotopy corrections to the slot series that this
module does not model; verify_d_squared is the guard for that regime.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from functools import cached_property
from itertools import combinations, permutations, product
from operator import itemgetter

from ..bch import build_table
from ..exactnum import ONE, _add_maps, bernoulli_normalized
# Unused here, but kept bound: perfbench/tracer.py patches this module's rank_kernel.
from ..exactnum import rank_kernel  # noqa: F401
from ..freelie import Alphabet, AssocPoly, _extract_lie, evaluate_lie, expand_associative
from .sela import GradedComplex, TotalComplex, coface_sign, _acc, _Lazy, _simplex_key, _simplex_name

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
    "format_monomial",
    "factor_key",
    "factor_parity",
    "factor_degree",
]


# -- factors and monomials ----------------------------------------------

_PAST_EVERY_RANK = sys.maxsize


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


def format_monomial(sela, mono):
    factors, q = mono
    parts = ["%s:%s" % (_simplex_name(s), sela.algebra(s).names[b]) for s, b in factors]
    return "[%s] t^%d" % (" ".join(parts), q)


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
    cached = _extract_lie(AssocPoly._of(Alphabet(["a%d" % i for i in range(n)]), terms))
    _POLAR_CACHE[key] = cached
    return cached


def _eval_polar(polar, args, lie):
    """Evaluate a multilinear element on sparse vectors in one algebra."""
    return evaluate_lie(
        polar,
        {"a%d" % i: vec for i, vec in enumerate(args)},
        bracket=lie.bracket_maps,
        add=_add_maps,
        scale=lambda c, u: {i: c * v for i, v in u.items()},
        zero={},
    )


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
        corr = coface_sign(vert, edge) * coface_sign(edge, tri)
        vec = sela.coface(edge, tri).apply(sela.coface(vert, edge).column(a))
        return {c: corr * w for c, w in vec.items()}
    return {}


def _ranks(sela, memo):
    """Every factor of the gluing datum numbered in factor_key order, once per memo."""
    rank = memo.get("rank")
    if rank is None:
        factors = [(s, b) for s in sela.simplices() for b in range(sela.algebra(s).dim)]
        factors.sort(key=factor_key)
        rank = memo["rank"] = {f: r for r, f in enumerate(factors)}
    return rank


def _targets(sela, memo, pairs):
    """Family values ready to merge: (factor, rank, parity, coeff, -coeff), zeros dropped."""
    rank = _ranks(sela, memo)
    return [(g, rank[g], factor_parity(sela, g), c, -c) for g, c in pairs if c]


def _factor_data(sela, memo, f):
    """Rank, parity and one-factor differential of factor f, kept in memo."""
    targets = _targets(sela, memo, sela.differential_of(*f))
    data = memo[f] = (_ranks(sela, memo)[f], factor_parity(sela, f), targets)
    return data


def _family_value(sela, selection):
    """Value of one family on a selection, read off the selection alone.

    The selection is (kind, simplex, selected factors in key order):
    ("bracket", vertex, x, y) for two factors on one vertex, ("transport",
    edge, x, y1, ..) for a vertex factor x and edge factors, ("top",
    triangle, x, y) for a top vertex and a triangle factor, and ("slot",
    triangle, factors in slot order).  Its memo key has the ranks of
    those factors in their place.
    """
    kind, simplex, selected = selection[0], selection[1], selection[2:]
    if kind == "bracket":
        (_, a), (_, b) = selected
        lie = sela.algebra(simplex)
        odd = (lie.degrees[a] * (lie.degrees[b] + 1)) % 2
        return [((simplex, c), -w if odd else w) for c, w in lie.bracket_basis(a, b).items()]
    if kind == "transport":
        (vert, a), ys = selected[0], selected[1:]
        rx = sela.coface(vert, simplex).column(a)
        acc = _transport(sela.algebra(simplex), rx, [b for _, b in ys]) if rx else {}
        ct = bernoulli_normalized(len(ys))
        scalar = ct if coface_sign(vert, simplex) > 0 or len(ys) % 2 == 0 else -ct
        return [((simplex, c), scalar * w) for c, w in acc.items()]
    if kind == "top":
        (vert, a), (_, b) = selected
        rx = _vertex_into_triangle(sela, vert, simplex, a)
        acc = sela.algebra(simplex).bracket_maps(rx, {b: ONE})
        odd = sela.algebra(vert).degrees[a] % 2
        return [((simplex, c), -w if odd else w) for c, w in acc.items()]
    a0, a1, a2 = simplex
    polar = _polarized(_shared_table(sela.artin_order - 1), *(
        sum(1 for s, _ in selected if s == e) for e in ((a0, a2), (a0, a1), (a1, a2))
    ))
    args = [sela.coface(s, simplex).column(b) for s, b in selected]
    if polar.is_zero() or not all(args):
        return []
    return [((simplex, c), w) for c, w in _eval_polar(polar, args, sela.algebra(simplex)).items()]


# -- the differential of one monomial -------------------------------------

def _selection_plan(sela, shape, keep=None):
    """The selections of every family on factors sitting on the simplices of shape.

    One entry per selection, in the order monomial_differential emits
    them: (head, pick, sorted positions, leftover positions).  For one
    factor head is None and pick its position; otherwise head is (kind,
    simplex), kind naming the family, and pick reads the key positions
    off a word, so head + pick(ranks of the word) keys the family value
    in the memo and head + pick(factors of the word) selects its factors.
    Transport selections with a zero Bernoulli coefficient and slot
    selections longer than the triangle algebra's nilpotency class are
    left out: their value is zero.  So is a selection where keep(kind,
    simplex, leftover positions) is false.
    """
    k = len(shape)
    plan = []

    def add(kind, simplex, order):
        chosen = tuple(sorted(order))
        rest = tuple(t for t in range(k) if t not in chosen)
        if keep is not None and not keep(kind, simplex, rest):
            return
        if kind is None:
            plan.append((None, order[0], chosen, rest))
        else:
            plan.append(((kind, simplex), itemgetter(*order), chosen, rest))

    # one factor: cofaces and the internal differential
    for i in range(k):
        add(None, shape[i], (i,))

    # two factors on one vertex: graded bracket
    for i, j in combinations(range(k), 2):
        if len(shape[i]) == 1 and shape[i] == shape[j]:
            add("bracket", shape[i], (i, j))

    # vertex factor transported along edge factors
    for i in range(k):
        si = shape[i]
        if len(si) != 1:
            continue
        by_edge = {}
        for t in range(k):
            st = shape[t]
            if t != i and len(st) == 2 and si[0] in st:
                by_edge.setdefault(st, []).append(t)
        for e, positions in by_edge.items():
            for t_count in range(1, len(positions) + 1):
                if not bernoulli_normalized(t_count):
                    continue
                for subset in combinations(positions, t_count):
                    add("transport", e, (i,) + subset)

    # top vertex of a triangle acting on a triangle factor: bracket with
    # the restricted vertex element, signed by its internal degree.  The
    # slot word of the trivariate series wraps at the largest vertex,
    # whose two insertion points do not cancel.
    for i, j in combinations(range(k), 2):
        si, sj = shape[i], shape[j]
        if len(si) == 1 and len(sj) == 3 and si[0] == sj[2]:
            add("top", sj, (i, j))

    # edge factors feeding the slots of a triangle; a selection of more
    # factors than the nilpotency class of the triangle algebra is zero
    for tri in sela.simplices(3):
        a0, a1, a2 = tri
        slot_positions = [
            [t for t in range(k) if shape[t] == e] for e in ((a0, a2), (a0, a1), (a1, a2))
        ]
        most = sela.algebra(tri).nilpotency_class()
        if most is None:
            most = k
        # each slot's subsets ascend in size, so a slot stops at the room
        # the earlier slots leave it
        sx, sy, sz = (_subsets(p, most) for p in slot_positions)
        for qx in sx:
            for qy in sy:
                if len(qx) + len(qy) > most:
                    break
                for qz in sz:
                    selected = qx + qy + qz
                    if len(selected) > most:
                        break
                    if len(selected) >= 2:
                        add("slot", tri, selected)
    return plan


def _kept(memo, key, make):
    """memo[key], made by make() on the first read."""
    value = memo.get(key)
    if value is None:
        value = memo[key] = make()
    return value


def _plan(sela, memo, shape):
    return _kept(memo, ("plan", shape), lambda: _selection_plan(sela, shape))


def _full_plan(sela, memo, shape):
    """The entries of shape's plan that select every factor; empty unless shape is full."""
    return _kept(memo, ("full", shape), lambda: _selection_plan(sela, shape, lambda kind, s, rest: not rest)
                 if _full(sela, memo, shape) else [])


def _full(sela, memo, shape):
    """Whether shape is full, read off the shape: bool(_full_plan) (module docstring)."""
    return _kept(memo, ("full?", shape), lambda: _is_full(sela, shape))


def _is_full(sela, shape):  # shape sorted by _simplex_key, so a vertex comes first
    k, v, last = len(shape), shape[0], shape[-1]
    if k == 1 or k == 2 and len(v) == 1 and (last == v or len(last) == 3 and last[2] == v[0]):
        return True
    if len(v) == 1:  # a vertex and k - 1 copies of one edge through it
        return len(last) == 2 and v[0] in last and shape.count(last) == k - 1 \
            and bool(bernoulli_normalized(k - 1))
    for tri in sela.simplices(3):  # 2 to class-many edges of one present triangle
        most = sela.algebra(tri).nilpotency_class()
        if (most is None or k <= most) and all(set(s) < set(tri) for s in shape):
            return True
    return False


def _reaching_plan(sela, memo, shape):
    """The entries of shape's plan with a target whose shape can be full (module docstring)."""
    def reaches(kind, s, rest):  # kept per leftover shape and new simplices
        left = tuple([shape[t] for t in rest])
        return _kept(memo, ("reach?", left, s, not kind), lambda: any(
            _full(sela, memo, tuple(sorted(left + (t,), key=_simplex_key)))
            for t in [s] + ([] if kind else [t for t in sela.all_simplices(len(s) + 1) if set(s) < set(t)])))
    return _kept(memo, ("reach", shape), lambda: _selection_plan(sela, shape, reaches)
                 if _may_reach(sela, memo, shape) else [])


def _may_reach(sela, memo, shape):
    """False where no entry of shape's plan can reach a full shape (module docstring)."""
    nv, t = sum(1 for s in shape if len(s) == 1), shape[-1]
    if len(t) == 3:  # (t), (v, t) or (v, v, t) with v the top vertex of t
        return shape in ((t,), ((t[2],), t), ((t[2],), (t[2],), t))
    if nv == 0:  # edge factors only: the shape itself is full
        return _full(sela, memo, shape)
    if nv == 2:  # every edge factor is one edge through both vertices
        return all(e == t and set(shape[0] + shape[1]) <= set(e) for e in shape[2:])
    return nv == 1 or shape == shape[:1] * 3  # three vertex factors: (v, v, v)


def monomial_differential(sela, mono, memo=None):
    """d of one basis monomial as a sparse chain {monomial: Fraction}.

    memo holds the factor ranks, the per-factor data, the selection plans
    by simplex shape and the family values by selection; pass one dict to
    every call of an assembly to compute each of them once.  The tag q
    only tags the targets, so the monomials of one word have the same d
    up to their tags.
    """
    if memo is None:
        memo = {}
    shape = _shape(mono[0])
    return _merge(sela, mono, memo.get(("plan", shape)) or _plan(sela, memo, shape), memo)


def _shape(word):
    return tuple([s for s, _ in word])


def _merge(sela, mono, plan, memo):
    """The sum over the entries of plan of their targets, merged into the word of mono."""
    if not plan:
        return {}
    factors, q = mono
    data = [memo.get(f) or _factor_data(sela, memo, f) for f in factors]
    ranks = [d[0] for d in data]
    parities = [d[1] for d in data]
    odd_before = [0]
    for p in parities:
        odd_before.append(odd_before[-1] + p)
    ranks.append(_PAST_EVERY_RANK)  # so ranks[at] is defined for at = len(factors)
    out = {}
    for head, pick, chosen, rest in plan:
        if head is None:
            targets = data[pick][2]
            if not targets:
                continue
            rest_f = factors[:pick] + factors[pick + 1:]
        else:
            key = head + pick(ranks)
            targets = memo.get(key)
            if targets is None:
                value = _family_value(sela, head + pick(factors))
                targets = memo[key] = _targets(sela, memo, value)
            if not targets:
                continue
            rest_f = tuple([factors[t] for t in rest])
        # the selected factors move to the front of the word: each odd one
        # passes the unselected odd factors on its left
        ext = odd_chosen = 0
        for t in chosen:
            if parities[t]:
                ext += odd_before[t] - odd_chosen
                odd_chosen += 1
        for g, gr, gp, coeff, neg in targets:
            # the new factor merges into the remainder before the first
            # factor of rank not below its own: at is that position in the
            # word, pos in the remainder, and passed counts the odd factors
            # of the remainder it passes
            at = bisect_left(ranks, gr)
            pos, passed = at, odd_before[at]
            for t in chosen:
                if t < at:
                    pos -= 1
                    passed -= parities[t]
            if gp and ranks[at] == gr and at not in chosen:
                continue  # odd square; odd factors never repeat, so only at can hold g
            target = (rest_f[:pos] + (g,) + rest_f[pos:], q)
            val = neg if (ext + gp * passed) % 2 else coeff
            s = out.get(target)
            if s is None:
                out[target] = val  # stored coefficients are nonzero
            else:
                val += s
                if val:
                    out[target] = val
                else:
                    del out[target]
    return out


def _transport(lie, rx, idxs):
    """Sum over orderings of idxs of the iterated adjoint action on rx."""
    acc = {}
    for perm in permutations(idxs):
        vec = rx
        for y in reversed(perm):
            vec = lie.bracket_maps({y: ONE}, vec)
            if not vec:
                break
        for c, w in vec.items():
            _acc(acc, c, w)
    return acc


def _subsets(positions, most=None):
    """Subsets of positions by size, then in combinations order; at most ``most`` long."""
    top = len(positions) if most is None else min(most, len(positions))
    out = [()]
    for t in range(1, top + 1):
        out.extend(combinations(positions, t))
    return out


def chain_differential(sela, chain):
    """d of a sparse chain {monomial: Fraction}."""
    out = {}
    memo = {}
    for mono, coeff in chain.items():
        if not coeff:
            continue
        for target, v in monomial_differential(sela, mono, memo).items():
            _acc(out, target, coeff * v)
    return out


# -- the assembled complex -------------------------------------------------

def _monomials(words, n, factors, order):
    """The basis of degree n from its words of ranks, by (factor count, factors, q)."""
    # tuples of factors order words otherwise than their ranks: (0, 1) < (1,)
    words = sorted((tuple([factors[r] for r in w]) for w in words[n]), key=lambda w: (len(w), w))
    return [(w, q) for w in words for q in range(len(w), order)]


class JBComplex(GradedComplex):
    """Chain monomials with sparse differential matrices.

    Every word the truncation order admits is enumerated once, as a tuple
    of factor ranks; a degree's (word, q) list, its index and its matrix
    are built on their first read.
    """

    def __init__(self, sela):
        self.order = sela.artin_order
        memo = self._memo = {}
        factors = self._factors = list(_ranks(sela, memo))  # in rank order
        parity = [factor_parity(sela, f) for f in factors]
        degree = [factor_degree(sela, f) for f in factors]
        # each word extended by every rank not below its last, an odd one
        # not repeated: combinations_with_replacement order, odd squares
        # out; pairs, as dead triples would stay on the 3-tuple free list
        after = [r + parity[r] for r in range(len(factors))]  # lowest rank after r
        level, words = [((), 0)], {}
        for _ in range(1, self.order):
            level = [(w + (r,), d + degree[r])
                     for w, d in level for r in range(after[w[-1]] if w else 0, len(factors))]
            for w, d in level:
                words.setdefault(d, []).append(w)
        self._words = words
        last = [None, ()]  # the last word and its d, tags dropped

        # d reads the tag q only to tag its targets, and the basis keeps
        # the tags of one word together: one call per word, whose targets
        # are checked once against its factor count
        def differential(mono):
            word, q = mono
            if word != last[0]:
                image = [(w, v) for (w, _), v in monomial_differential(sela, mono, memo).items()]
                k = len(word)
                for w, _ in image:
                    if len(w) > k:
                        raise AssertionError(
                            "differential raises the factor count: %s -> %s"
                            % (format_monomial(sela, mono), format_monomial(sela, (w, q)))
                        )
                last[0], last[1] = word, image
            return [((w, q), v) for w, v in last[1]]

        # no reference back to the complex, so that it dies with its last user
        super().__init__(
            sela, _Lazy(sorted(words), lambda n: _monomials(words, n, factors, sela.artin_order)),
            differential, lambda mono: format_monomial(sela, mono),
        )

    def dim(self, n):
        return sum([self.order - len(w) for w in self._words.get(n, ())])

    def square_defects(self):
        """GradedComplex.square_defects, certified empty word by word.

        Where the one-factor part of d(d(w)) is zero for every word w, d*d
        is zero (module docstring): the list is empty and no matrix is
        assembled.  Otherwise the full product of every degree gives it.
        """
        if any(acc for _, acc in self._word_defects()):
            return super().square_defects()
        return []

    def _word_defects(self):
        """((w, len(w)), {one-factor word: value of d(d(w)) there}) for every word w
        whose shape can reach a full shape.

        d(w) walks the plan entries that can reach a full shape, d of each
        target those that select every factor."""
        sela, memo, factors = self.sela, self._memo, self._factors
        simplex, plans = [s for s, _ in factors], {}
        for words in self._words.values():
            for w in words:
                shape = tuple([simplex[r] for r in w])
                plan = plans.get(shape)
                if plan is None:
                    plan = plans[shape] = _reaching_plan(sela, memo, shape)
                if not plan:
                    continue
                word, q, acc = tuple([factors[r] for r in w]), len(w), {}
                for (u, _), c in _merge(sela, (word, q), plan, memo).items():
                    for (h, _), v in _kept(memo, ("one", u), lambda: _merge(
                            sela, (u, q), _full_plan(sela, memo, _shape(u)), memo)).items():
                        _acc(acc, h, c * v)
                yield (word, q), acc

    def bound(self, n):
        """The E1 count of degree n (module docstring); None in every degree
        where TotalComplex does not square to zero."""
        counts = self._e1_counts
        return None if counts is None else counts.get(n, 0)

    @cached_property
    def _e1_counts(self):
        """E1 counts by degree, from the cohomology of TotalComplex; built on the first read."""
        total = TotalComplex(self.sela)
        if total.square_defects():
            return None
        counts = {(0, 0): 1}  # (class count, degree) -> super-symmetric monomials
        for m in total.degrees():
            odd = m % 2 == 0  # a class of TotalComplex degree m has degree m - 1 in C_1
            for _ in range(total.dimension(m)):
                grown = dict(counts)
                for (k, deg), c in counts.items():
                    for j in range(1, min(2 if odd else self.order, self.order - k)):
                        key = (k + j, deg + j * (m - 1))
                        grown[key] = grown.get(key, 0) + c
                counts = grown
        table = {}
        for (k, deg), c in counts.items():
            if k:
                table[deg] = table.get(deg, 0) + (self.order - k) * c
        return table


def jb_assemble(sela):
    """Enumerate the chain groups of a gluing datum; d is assembled per degree on first read."""
    return JBComplex(sela)


# -- verification and invariants -------------------------------------------

def verify_d_squared(jb):
    """All compositions d(d(monomial)); empty list means they vanish.

    Read off JBComplex.square_defects: the one-factor rows of d*d,
    walked word by word with no matrix, certify the empty list; where
    they do not vanish, every nonzero entry of the full product comes
    back as (degree, source monomial, target monomial, coefficient)
    with the monomials formatted for reading.
    """
    return [
        (deg, format_monomial(jb.sela, src), format_monomial(jb.sela, dst), v)
        for deg, src, dst, v in jb.square_defects()
    ]


def graded_pieces(jb, count):
    """Dimensions per degree of the count-factor slice of the filtration."""
    if count < 1:
        raise ValueError("factor count must be positive")
    out = {}
    for deg, words in sorted(jb._words.items()):
        c = (jb.order - count) * sum(1 for w in words if len(w) == count)
        if c:
            out[deg] = c
    return out


def jb_cohomology(jb, degree):
    """Dimension and representative chains in one degree (GradedComplex.cohomology)."""
    return jb.cohomology(degree)


def deformation_ring_dimension(jb):
    """1 + dim of degree-zero cohomology: the unit plus dual generators."""
    return 1 + jb.dimension(0)


def euler_characteristic_check(jb):
    """Alternating sums of chain and cohomology dimensions must agree."""
    chain = 0
    coh = 0
    for deg in jb.degrees():
        s = -1 if deg % 2 else 1
        chain += s * jb.dim(deg)
        coh += s * jb.dimension(deg)
    return {"chain": chain, "cohomology": coh, "equal": chain == coh}

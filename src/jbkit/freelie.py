"""Free Lie algebras in the Lyndon-word basis, with exact coefficients.

Words over an ordered alphabet are tuples of letter indices, and every
letter has degree one, so a word's degree is its length.  A Lyndon word
is strictly smaller than every proper suffix; the set of Lyndon words of a
given degree, each replaced by its standard-factorization bracketing,
is a basis of the corresponding graded piece of the free Lie algebra.
Normal forms are computed by expanding into the associative span and
peeling off Lyndon leading words, which is exact because the expansion of
a Lyndon bracketing is its own word plus lexicographically larger words.

``_WordSum`` is the one home of word-sum arithmetic (zero, generators,
sums, scaling, truncation, multidegree parts).  ``AssocPoly``
adds only the unit and the capped product; ``FreeLieElement`` adds only
the Lyndon check, the bracket and serialization.  Products, expansions
and the peeling into the Lyndon basis run on integer numerators over one
common denominator (``exactnum._integer_form``) and divide once per
output word.  ``evaluate_elements`` evaluates an element on values that
carry their own ``.bracket``, ``+`` and ``.scale``.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import factorial
from itertools import permutations

from .exactnum import (
    ZERO, ONE, _add_maps, _integer_form, exact_scalar, format_rational, parse_rational,
)

Word = tuple  # tuple[int, ...]


class Alphabet:
    """Ordered generators, each of degree one."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate generator labels")
        if not labels:
            raise ValueError("alphabet needs at least one generator")
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.labels == other.labels

    def __repr__(self):
        return f"Alphabet({','.join(self.labels)})"

    def index(self, label: str) -> int:
        return self._index[label]

    def multidegree(self, word: Word) -> tuple:
        counts = [0] * len(self.labels)
        for i in word:
            counts[i] += 1
        return tuple(counts)

    def word_str(self, word: Word) -> str:
        if all(len(lab) == 1 for lab in self.labels):
            return "".join(self.labels[i] for i in word)
        return "*".join(self.labels[i] for i in word)

    def parse_word(self, text: str) -> Word:
        if "*" in text:
            return tuple(self.index(part) for part in text.split("*"))
        return tuple(self.index(ch) for ch in text)


def is_lyndon(word: Word) -> bool:
    """True when the word is strictly smaller than all of its proper suffixes."""
    if not word:
        return False
    return all(word < word[i:] for i in range(1, len(word)))


def lyndon_words(n_letters: int, max_len: int):
    """All Lyndon words over {0..n_letters-1} of length <= max_len (Duval)."""
    if n_letters < 1 or max_len < 1:
        return
    w = [-1]
    while w:
        w[-1] += 1
        yield tuple(w)
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == n_letters - 1:
            w.pop()


def standard_factorization(word: Word) -> tuple[Word, Word]:
    """Split w = u.v with v the lexicographically least proper suffix.

    For Lyndon w both parts are Lyndon and u < v; the recursive bracketing
    [b(u), b(v)] is the basis element attached to w.
    """
    if len(word) < 2:
        raise ValueError("cannot factor a single letter")
    best = 1
    for i in range(2, len(word)):
        if word[i:] < word[best:]:
            best = i
    return word[:best], word[best:]


@lru_cache(maxsize=None)
def _bracketing(word: Word):
    if len(word) == 1:
        return word[0]
    u, v = standard_factorization(word)
    return (_bracketing(u), _bracketing(v))


def _commutator(a: dict, b: dict) -> dict:
    """ab - ba for integer word sums, zeros dropped."""
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            c = ca * cb
            k = wa + wb
            out[k] = out.get(k, 0) + c
            k = wb + wa
            out[k] = out.get(k, 0) - c
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _expand_word(word: Word) -> dict:
    """Associative expansion of the Lyndon bracketing; integer coefficients."""
    if len(word) == 1:
        return {word: 1}
    u, v = standard_factorization(word)
    return _commutator(_expand_word(u), _expand_word(v))


class _WordSum:
    """Exact linear combination of words: {word: Fraction}, zeros dropped.

    Each method returns the type it is called on.  Equality is
    type-strict, so a Lie element never equals the associative
    polynomial with the same terms.
    """

    __slots__ = ("alphabet", "terms")

    @classmethod
    def _of(cls, alphabet: Alphabet, terms: dict):
        """Wrap a dict of tuple words with nonzero Fraction values as is."""
        s = cls.__new__(cls)
        s.alphabet = alphabet
        s.terms = terms
        return s

    @classmethod
    def zero(cls, alphabet):
        return cls._of(alphabet, {})

    @classmethod
    def generator(cls, alphabet, label):
        return cls._of(alphabet, {(alphabet.index(label),): ONE})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __add__(self, other):
        return self._of(self.alphabet, _add_maps(self.terms, other.terms))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = exact_scalar(c)
        if not c:
            return self._of(self.alphabet, {})
        return self._of(self.alphabet, {w: c * v for w, v in self.terms.items()})

    def truncate(self, degree_cap: int):
        kept = {w: c for w, c in self.terms.items() if len(w) <= degree_cap}
        return self._of(self.alphabet, kept)

    def multidegree_parts(self) -> dict:
        """{multidegree: part}, every term read once."""
        md = self.alphabet.multidegree
        parts: dict = {}
        for w, c in self.terms.items():
            parts.setdefault(md(w), {})[w] = c
        return {m: self._of(self.alphabet, kept) for m, kept in parts.items()}


class AssocPoly(_WordSum):
    """Polynomial in noncommuting generators: {word: Fraction}."""

    __slots__ = ()

    def __init__(self, alphabet: Alphabet, terms=None):
        clean = {}
        for w, c in dict(terms or {}).items():
            c = exact_scalar(c)
            if c:
                clean[tuple(w)] = c
        self.alphabet = alphabet
        self.terms = clean

    @staticmethod
    def unit(alphabet):
        return AssocPoly._of(alphabet, {(): ONE})

    def mul(self, other: "AssocPoly", degree_cap=None) -> "AssocPoly":
        """Product, with every word above ``degree_cap`` dropped.

        Accumulated in integers over the product of the two operands'
        common denominators and divided once per output word, as
        SparseRatMatrix.mul does.
        """
        a, left = _integer_form(self.terms)
        b, right = _integer_form(other.terms)
        out = _word_products(left, _ranked(right, degree_cap), degree_cap)
        ab = a * b
        return AssocPoly._of(self.alphabet, {w: Fraction(s, ab) for w, s in out.items()})


def _ranked(terms: dict, degree_cap) -> tuple:
    """The right operand of _word_products: (degrees, [(word, coeff)]).

    Under a cap the terms are sorted by degree and their degrees listed;
    without one they stay in their order and the degrees are None.
    """
    if degree_cap is None:
        return None, list(terms.items())
    order = sorted((len(w), w, c) for w, c in terms.items())
    return [d for d, _, _ in order], [(w, c) for _, w, c in order]


def _word_products(left: dict, right: tuple, degree_cap) -> dict:
    """Sum of the word products of two integer word sums, capped.

    Under a cap only the pairs within it are formed: each left term
    stops at the room the cap leaves it in the ranked right operand.  A
    word is dropped as soon as its running sum is zero, so no zero
    reaches the result.
    """
    degrees, pairs = right
    out: dict = {}
    for wa, ca in left.items():
        if degree_cap is None:
            rows = pairs
        else:
            rows = pairs[: bisect_right(degrees, degree_cap - len(wa))]
        for wb, cb in rows:
            w = wa + wb
            s = out.get(w, 0) + ca * cb
            if s:
                out[w] = s
            else:
                del out[w]
    return out


class LyndonBasisElement:
    """A Lyndon word together with its standard bracketing."""

    __slots__ = ("alphabet", "word")

    def __init__(self, alphabet: Alphabet, word):
        word = tuple(word)
        if not is_lyndon(word):
            raise ValueError(f"{word} is not a Lyndon word")
        if any(not 0 <= i < len(alphabet) for i in word):
            raise ValueError("letter index outside alphabet")
        self.alphabet = alphabet
        self.word = word

    def __eq__(self, other):
        return (
            isinstance(other, LyndonBasisElement)
            and self.alphabet == other.alphabet
            and self.word == other.word
        )

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return f"LyndonBasisElement({self.alphabet.word_str(self.word)})"

    @property
    def degree(self):
        return len(self.word)

    def standard_factorization(self):
        return standard_factorization(self.word)

    def bracketing(self):
        """Nested pairs of generator labels, e.g. ('x', ('x', 'y'))."""
        labels = self.alphabet.labels

        def walk(node):
            if isinstance(node, int):
                return labels[node]
            return (walk(node[0]), walk(node[1]))

        return walk(_bracketing(self.word))


def lyndon_basis(alphabet: Alphabet, degree: int) -> list:
    """Basis elements of the given degree, in lexicographic order."""
    out = []
    for word in lyndon_words(len(alphabet), degree):
        if len(word) == degree:
            out.append(LyndonBasisElement(alphabet, word))
    return out


class FreeLieElement(_WordSum):
    """Exact linear combination of Lyndon basis elements: {word: Fraction}."""

    __slots__ = ()

    def __init__(self, alphabet: Alphabet, terms=None):
        clean = {}
        for w, c in dict(terms or {}).items():
            w = tuple(w)
            c = exact_scalar(c)
            if not is_lyndon(w):
                raise ValueError(f"{w} is not a Lyndon word")
            if c:
                clean[w] = c
        self.alphabet = alphabet
        self.terms = clean

    def __repr__(self):
        if not self.terms:
            return "FreeLieElement(0)"
        bits = [
            f"{format_rational(c)}*[{self.alphabet.word_str(w)}]"
            for w, c in sorted(self.terms.items())
        ]
        return "FreeLieElement(" + " + ".join(bits) + ")"

    def bracket(self, other: "FreeLieElement") -> "FreeLieElement":
        """[self, other], re-expressed in the Lyndon basis."""
        a = expand_associative(self)
        b = expand_associative(other)
        return _extract_lie(a.mul(b) - b.mul(a))

    def to_terms(self) -> list:
        """Serialization: [{"word": ..., "coeff": ...}] sorted by (degree, word)."""
        return [
            {"word": self.alphabet.word_str(w), "coeff": format_rational(c)}
            for w, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ]

    @staticmethod
    def from_terms(alphabet: Alphabet, items) -> "FreeLieElement":
        terms = {}
        for item in items:
            w = alphabet.parse_word(item["word"])
            terms[w] = terms.get(w, ZERO) + parse_rational(item["coeff"])
        return FreeLieElement(alphabet, terms)


def expand_associative(element: FreeLieElement) -> AssocPoly:
    """Image of a Lie element in the associative (word) span."""
    d, coeffs = _integer_form(element.terms)
    out: dict = {}
    for word, coeff in coeffs.items():
        for w, c in _expand_word(word).items():
            s = out.get(w, 0) + coeff * c
            if s:
                out[w] = s
            else:
                del out[w]
    return AssocPoly._of(element.alphabet, {w: Fraction(s, d) for w, s in out.items()})


def _extract_lie(poly: AssocPoly) -> FreeLieElement:
    """Invert expand_associative by peeling lexicographically least words."""
    return _peel(poly.alphabet, *_integer_form(poly.terms))


def _peel(alphabet: Alphabet, d: int, remaining: dict) -> FreeLieElement:
    """The Lie element whose expansion is the integer word sum remaining / d.

    The expansion of the bracketing of a Lyndon word w is w plus words that
    are strictly larger in the same multidegree, so the least remaining word
    must be Lyndon with the coefficient it will have in the basis; anything
    else means the input was not a Lie element.  The peeling runs on the
    integer numerators and divides each basis coefficient by d once.
    """
    remaining = dict(remaining)
    out: dict = {}
    while remaining:
        w = min(remaining)
        c = remaining[w]
        if not is_lyndon(w):
            raise ValueError(f"not a Lie element: leading word {alphabet.word_str(w)}")
        out[w] = Fraction(c, d)
        for w2, c2 in _expand_word(w).items():
            s = remaining.get(w2, 0) - c * c2
            if s:
                remaining[w2] = s
            else:
                del remaining[w2]
    return FreeLieElement._of(alphabet, out)


def _expr_to_assoc(alphabet: Alphabet, expr) -> AssocPoly:
    if isinstance(expr, FreeLieElement):
        return expand_associative(expr)
    if isinstance(expr, str):
        return AssocPoly.generator(alphabet, expr)
    if isinstance(expr, (list,)):
        acc = AssocPoly.zero(alphabet)
        for coeff, sub in expr:
            acc = acc + _expr_to_assoc(alphabet, sub).scale(coeff)
        return acc
    if isinstance(expr, tuple) and len(expr) == 2:
        a = _expr_to_assoc(alphabet, expr[0])
        b = _expr_to_assoc(alphabet, expr[1])
        return a.mul(b) - b.mul(a)
    raise TypeError(f"cannot interpret bracket expression {expr!r}")


def lie_normal_form(alphabet: Alphabet, expr) -> FreeLieElement:
    """Normal form of a formal bracket expression in the Lyndon basis.

    Expression grammar: a generator label, a pair (a, b) for the bracket
    [a, b], a list [(coeff, sub), ...] for linear combinations, or an
    existing FreeLieElement.  Raises ValueError when the expansion is not a
    Lie element (e.g. a hand-built combination violating Jacobi).
    """
    return _extract_lie(_expr_to_assoc(alphabet, expr))


def dynkin_lie(poly: AssocPoly) -> FreeLieElement:
    """Left-normed bracketing map applied degreewise, divided by the degree.

    On a Lie element e of homogeneous degree d the word-by-word bracketing
    w = a1...ad -> [[..[a1,a2],..],ad] returns d*e, so this map is the
    identity on Lie elements and provides an independent route from an
    associative polynomial back to the Lyndon basis.  Raises ValueError when
    the input has a constant term or is not a Lie element.
    """
    if () in poly.terms:
        raise ValueError("constant term present; not a Lie element")
    alphabet = poly.alphabet
    d, coeffs = _integer_form(poly.terms)
    by_length: dict[int, dict] = {}
    for w, c in coeffs.items():
        by_length.setdefault(len(w), {})[w] = c
    total = FreeLieElement.zero(alphabet)
    for length, terms in sorted(by_length.items()):
        acc: dict = {}
        for w, c in terms.items():
            for w2, c2 in _leftnormed_expand(w).items():
                s = acc.get(w2, 0) + c * c2
                if s:
                    acc[w2] = s
                else:
                    del acc[w2]
        total = total + _peel(alphabet, d * length, acc)
    if expand_associative(total) != poly:
        raise ValueError("projection changed the element; input was not Lie")
    return total


@lru_cache(maxsize=None)
def _leftnormed_expand(word: Word) -> dict:
    """Associative expansion of [[..[a1,a2],..],ad] for a plain word."""
    if len(word) == 1:
        return {word: 1}
    return _commutator(_leftnormed_expand(word[:-1]), {word[-1:]: 1})


# ---------------------------------------------------------------------------
# iterated adjoint monomials
# ---------------------------------------------------------------------------


def _checked_subset(subset, i: int, j: int) -> set:
    subset = set(subset)
    if len(subset) != i or not subset <= set(range(1, i + j + 1)):
        raise ValueError("subset must pick i positions among 1..i+j")
    return subset


def _nested_ad(alphabet: Alphabet, letters) -> FreeLieElement:
    """Normal form of ad(L_1)...ad(L_{n-1})(L_n) for letter indices L_k."""
    expr = alphabet.labels[letters[-1]]
    for idx in reversed(letters[:-1]):
        expr = (alphabet.labels[idx], expr)
    return lie_normal_form(alphabet, expr)


def ad_monomial(alphabet: Alphabet, subset, i: int, j: int) -> FreeLieElement:
    """ad(T_1)...ad(T_{i+j-1})(T_{i+j}) with T_k the first letter iff k in subset.

    ``subset`` lists the positions (1-based, within 1..i+j) carrying the
    first generator; it must have size i.  The remaining positions carry the
    second generator.
    """
    if len(alphabet) < 2:
        raise ValueError("need a two-letter alphabet")
    subset = _checked_subset(subset, i, j)
    return _nested_ad(alphabet, [0 if k in subset else 1 for k in range(1, i + j + 1)])


def ad_monomial_sym(subset, i: int, j: int) -> FreeLieElement:
    """Symmetrized adjoint monomial over distinct slot variables.

    Works over the alphabet X1..Xi, Y1..Yj and averages ad_subset over all
    ways to feed the X's into the subset positions and the Y's into the
    rest: (1/i!j!) sum over both permutation groups.
    """
    labels = [f"X{k}" for k in range(1, i + 1)] + [f"Y{k}" for k in range(1, j + 1)]
    alphabet = Alphabet(labels)
    subset = _checked_subset(subset, i, j)
    acc = FreeLieElement.zero(alphabet)
    for pi in permutations(range(i)):
        for rho in permutations(range(j)):
            xs = iter(pi)
            ys = iter(rho)
            letters = [
                next(xs) if k in subset else i + next(ys) for k in range(1, i + j + 1)
            ]
            acc = acc + _nested_ad(alphabet, letters)
    return acc.scale(Fraction(1, factorial(i) * factorial(j)))


def evaluate_lie(element: FreeLieElement, assignment: dict, bracket, add, scale, zero):
    """Evaluate in any Lie algebra given images of the generators.

    ``assignment`` maps generator labels to target values; ``bracket``,
    ``add``, ``scale`` and ``zero`` supply the target operations.  Each
    Lyndon term is evaluated through its standard bracketing.
    """
    labels = element.alphabet.labels
    acc = zero
    for word, coeff in sorted(element.terms.items()):
        acc = add(acc, scale(coeff, _evaluate_node(_bracketing(word), labels, assignment, bracket)))
    return acc


def evaluate_elements(element: FreeLieElement, assignment: dict, zero):
    """``evaluate_lie`` on values that carry their own ``.bracket``, ``+`` and ``.scale``."""
    return evaluate_lie(element, assignment, lambda a, b: a.bracket(b), lambda a, b: a + b,
                        lambda c, a: a.scale(c), zero)


def _evaluate_node(node, labels, assignment, bracket):
    """The value of a nested pair of letter indices under ``assignment``.

    A module function rather than a recursive closure, which would be a
    reference cycle keeping the caller's values alive until the cyclic
    garbage collector runs.
    """
    if isinstance(node, int):
        return assignment[labels[node]]
    return bracket(
        _evaluate_node(node[0], labels, assignment, bracket),
        _evaluate_node(node[1], labels, assignment, bracket),
    )

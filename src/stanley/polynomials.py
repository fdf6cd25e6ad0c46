"""
Exact sparse polynomials in two alphabets, and the symmetric-function side
of reduced word combinatorics: Stanley symmetric functions (truncated to
finitely many variables), Schubert and double Schubert polynomials, Schur
polynomials, and the expansion machinery connecting them.  Stanley and
Schubert polynomials come from one recursion down the weak order that
peels a factorization into decreasing words, without listing reduced
words, and so do Schur polynomials, as the Stanley symmetric functions of
Grassmannian permutations; double Schubert polynomials come from the
transition at the last descent, one root factor x_r - y_j at a time.

All coefficients are exact integers.  A term maps a pair of exponent
vectors (one for x, one for y, trailing zeros dropped) to its coefficient.

Products of root factors x_i - y_j, 1 <= i, j <= n, are built with every
monomial packed into one int (_PackedRoots; Monagan and Pearce, 2007,
Polynomial division using dynamic arrays, heaps, and packed exponent
vectors).  From the least significant end the int holds a field for each
of x_1..x_n, then y_1..y_n, then the total degree, all of the same width:
the least number of bits b with 2^b > bound, for a stated bound on the
total degree.  No field can exceed the total degree, so none carries into
the next, and the kernel raises ValueError rather than multiply a term of
degree bound by one more factor.  Every term of S_w(x;y), and of the
weight of each bumpless pipedream of w, has degree length(w) and, for w
in S_n, no variable past x_(n-1) and y_(n-1).  double_schubert and
weight unpack these products.  verify's weight sum check
(weights_sum_to_double_schubert) multiplies nothing out: it compares
the transition's box lists with the pipedreams' empty boxes, and
expands both sides packed only when they differ.

>>> print(schubert_bjs((3, 2, 1)))
x1^2*x2
>>> print(double_schubert((2, 1, 3)))
x1 - y1
"""

from __future__ import annotations

import operator
from collections import Counter
from functools import lru_cache
from itertools import combinations, starmap
from math import prod
from typing import Iterable, Mapping

from .permutations import (
    Perm,
    apply_transposition,
    code_partition,
    descents,
    is_permutation,
    last_descent_step,
    length,
    multiply_simple,
    perm_from_code,
)
from .pipedreams import BumplessPipedream, count_eg_pipedreams
from .tableaux import enumerate_reduced_word_tableaux, shape
from .trees import mls_tree

Exponents = tuple[int, ...]
TermKey = tuple[Exponents, Exponents]


def _trim(exps: Exponents) -> Exponents:
    while exps and exps[-1] == 0:
        exps = exps[:-1]
    return exps


def _merge(a: Exponents, b: Exponents) -> Exponents:
    """The sum of two exponent vectors; trimmed when both are, as their
    entries are non-negative."""
    if len(a) < len(b):
        a, b = b, a
    return (*map(operator.add, a, b), *a[len(b):])


def _add_terms(summands: Iterable[dict]) -> dict:
    """The coefficients of summands added key by key into one dict, which
    starts as a copy of the first nonempty summand (a dict copy is faster
    than adding its terms one by one); zero coefficients are kept."""
    out: dict = {}
    for terms in summands:
        if not out:
            out = dict(terms)
            continue
        for key, c in terms.items():
            out[key] = out.get(key, 0) + c
    return out


class SparsePoly:
    """
    Immutable-by-convention sparse polynomial in x_1, x_2, ... and
    y_1, y_2, ...  Zero coefficients are never stored and every key is
    trimmed.  The constructor trims the keys it is given, adds the
    coefficients of keys that trim to the same key, and rejects negative
    exponents, so the sum of two trimmed keys is trimmed.  Arithmetic and
    the builders below, which trim their own keys, make their results
    with _of, never trimming again.

    >>> x1, x2 = SparsePoly.x(1), SparsePoly.x(2)
    >>> print((x1 + x2) * (x1 - x2))
    x1^2 - x2^2
    >>> (x1 - x2) * SparsePoly.zero() == SparsePoly.zero()
    True
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[TermKey, int] = ()):
        out: dict[TermKey, int] = {}
        for (xe, ye), c in dict(terms).items():
            if min(xe, default=0) < 0 or min(ye, default=0) < 0:
                raise ValueError(f"negative exponent in x^{xe} y^{ye}")
            key = (_trim(xe), _trim(ye))
            out[key] = out.get(key, 0) + c
        self.terms: dict[TermKey, int] = {key: c for key, c in out.items() if c}

    @classmethod
    def _of(cls, terms: dict[TermKey, int]) -> SparsePoly:
        """The polynomial of terms whose keys are already trimmed, keeping
        only the nonzero coefficients."""
        out = cls.__new__(cls)
        out.terms = {key: c for key, c in terms.items() if c}
        return out

    @staticmethod
    def sum(polys: Iterable[SparsePoly]) -> SparsePoly:
        return SparsePoly._of(_add_terms(p.terms for p in polys))

    @staticmethod
    def zero() -> SparsePoly:
        return SparsePoly()

    @staticmethod
    def constant(c: int) -> SparsePoly:
        return SparsePoly({((), ()): c})

    @staticmethod
    def x(i: int, power: int = 1) -> SparsePoly:
        if i < 1:
            raise ValueError(f"variable index must be positive: x{i}")
        return SparsePoly.monomial((0,) * (i - 1) + (power,))

    @staticmethod
    def y(i: int, power: int = 1) -> SparsePoly:
        if i < 1:
            raise ValueError(f"variable index must be positive: y{i}")
        return SparsePoly.monomial((), (0,) * (i - 1) + (power,))

    @staticmethod
    def monomial(xexp: Exponents, yexp: Exponents = (), coeff: int = 1) -> SparsePoly:
        return SparsePoly({(tuple(xexp), tuple(yexp)): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: SparsePoly) -> SparsePoly:
        return SparsePoly.sum((self, other))

    def __neg__(self) -> SparsePoly:
        return SparsePoly._of({key: -c for key, c in self.terms.items()})

    def __sub__(self, other: SparsePoly) -> SparsePoly:
        return self + (-other)

    def __mul__(self, other: SparsePoly | int) -> SparsePoly:
        if isinstance(other, int):
            return SparsePoly._of({k: c * other for k, c in self.terms.items()})
        out: dict[TermKey, int] = {}
        for (xa, ya), ca in self.terms.items():
            for (xb, yb), cb in other.terms.items():
                key = (_merge(xa, xb), _merge(ya, yb))
                out[key] = out.get(key, 0) + ca * cb
        return SparsePoly._of(out)

    __rmul__ = __mul__

    def coefficient(self, xexp: Exponents, yexp: Exponents = ()) -> int:
        return self.terms.get((_trim(tuple(xexp)), _trim(tuple(yexp))), 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(xe) + sum(ye) for xe, ye in self.terms)

    def has_y(self) -> bool:
        return any(ye for _, ye in self.terms)

    def substitute_y_zero(self) -> SparsePoly:
        return SparsePoly._of(
            {(xe, ()): c for (xe, ye), c in self.terms.items() if not ye}
        )

    def swap_x(self, i: int) -> SparsePoly:
        """Exchange x_i and x_{i+1} in every term."""
        out: dict[TermKey, int] = {}
        for (xe, ye), c in self.terms.items():
            exps = list(xe) + [0] * max(0, i + 1 - len(xe))
            exps[i - 1], exps[i] = exps[i], exps[i - 1]
            key = (_trim(tuple(exps)), ye)
            out[key] = out.get(key, 0) + c
        return SparsePoly._of(out)

    def is_symmetric_x(self, m: int) -> bool:
        """Whether swapping x_i and x_{i+1}, for any i < m, keeps every
        coefficient, looked up term by term on x exponents padded to m."""
        padded = {(xe + (0,) * (m - len(xe)), ye): c for (xe, ye), c in self.terms.items()}
        for (e, ye), c in padded.items():
            for i in range(1, m):
                if e[i - 1] != e[i]:
                    swapped = (*e[: i - 1], e[i], e[i - 1], *e[i + 1 :])
                    if padded.get((swapped, ye)) != c:
                        return False
        return True

    def sorted_terms(self) -> list[tuple[TermKey, int]]:
        """Total degree descending, then exponent vectors descending."""
        width = max(
            (max(len(xe), len(ye)) for xe, ye in self.terms), default=0
        )

        def pad(e: Exponents) -> Exponents:
            return e + (0,) * (width - len(e))

        return sorted(
            self.terms.items(),
            key=lambda item: (
                -(sum(item[0][0]) + sum(item[0][1])),
                tuple(-e for e in pad(item[0][0])),
                tuple(-e for e in pad(item[0][1])),
            ),
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (xe, ye), c in self.sorted_terms():
            factors = [
                f"x{i}" if e == 1 else f"x{i}^{e}"
                for i, e in enumerate(xe, start=1)
                if e
            ] + [
                f"y{i}" if e == 1 else f"y{i}^{e}"
                for i, e in enumerate(ye, start=1)
                if e
            ]
            body = "*".join(factors) if factors else "1"
            mag = abs(c)
            if mag != 1 or not factors:
                body = f"{mag}*{body}" if factors else str(mag)
            pieces.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(pieces)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"SparsePoly({self})"


class _PackedRoots:
    """
    Root factor products on packed monomials (see the module docstring):
    terms are dicts from packed ints to coefficients.  Multiplying by
    x_i - y_j adds one int to each term for x_i and one for y_j.
    times_root may leave a zero coefficient; sum and unpack drop them.

    >>> roots = _PackedRoots(2, 2)
    >>> print(roots.unpack(roots.product([(1, 2), (2, 1)])))
    x1*x2 - x1*y1 - x2*y2 + y1*y2
    """

    __slots__ = ("n", "bound", "bits", "degree_shift")

    def __init__(self, n: int, bound: int):
        self.n, self.bound = n, bound
        self.bits = max(bound.bit_length(), 1)
        self.degree_shift = 2 * n * self.bits

    def times_root(self, terms: dict[int, int], i: int, j: int) -> dict[int, int]:
        """terms * (x_i - y_j).  Raises ValueError when i or j is outside
        1..n or a term already has total degree bound."""
        n = self.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"root x{i} - y{j} outside x1..x{n}, y1..y{n}")
        if terms and max(terms) >> self.degree_shift >= self.bound:
            raise ValueError(f"a root factor past the degree bound {self.bound}")
        degree = 1 << self.degree_shift
        xi = degree + (1 << (i - 1) * self.bits)
        yj = degree + (1 << (n + j - 1) * self.bits)
        # Raising x_i sends distinct monomials to distinct ones; only the
        # y_j side can land on a key already there.
        out = {key + xi: c for key, c in terms.items()}
        for key, c in terms.items():
            key += yj
            out[key] = out.get(key, 0) - c
        return out

    def product(self, factors: Iterable[tuple[int, int]]) -> dict[int, int]:
        """The product of x_i - y_j over the pairs (i, j) in factors."""
        terms = {0: 1}
        for i, j in factors:
            terms = self.times_root(terms, i, j)
        return terms

    @staticmethod
    def sum(summands: Iterable[dict[int, int]]) -> dict[int, int]:
        return {key: c for key, c in _add_terms(summands).items() if c}

    def unpack(self, terms: dict[int, int]) -> SparsePoly:
        """terms as a SparsePoly; each distinct x part and y part of the
        packed monomials is unpacked once."""
        half, mask = self.n * self.bits, (1 << self.bits) - 1
        low = (1 << half) - 1
        parts = {key & low for key in terms} | {key >> half & low for key in terms}
        exps = {
            part: _trim(tuple(part >> shift & mask for shift in range(0, half, self.bits)))
            for part in parts
        }
        return SparsePoly._of(
            {(exps[key & low], exps[key >> half & low]): c for key, c in terms.items()}
        )

    def y_free(self, terms: dict[int, int]) -> SparsePoly:
        """The terms without y, unpacked: terms at y = 0."""
        y_fields = (1 << self.degree_shift) - (1 << self.n * self.bits)
        return self.unpack({key: c for key, c in terms.items() if not key & y_fields})


def _factor_sum(
    u: Perm,
    k: int,
    floor_k: bool,
    memo: dict[tuple[Perm, int], dict[Exponents, int]],
    ell: int,
) -> dict[Exponents, int]:
    """
    The x-exponents and coefficients of the sum over factorizations
    u = d_1 d_2 ... d_k, lengths adding up, of prod x_j^{l(d_j)}, where each
    d_j is a strictly decreasing word with letters at least j when floor_k
    is set and at least 1 otherwise.  Factor k is peeled off the right end
    of u: a run of right descents with rising letters.  ell is length(u),
    carried down rather than recomputed.  A decreasing word in the letters
    j..n-1 (n = len(u)) has at most n - j letters, so u has no
    factorization, and no state below it is visited, when ell exceeds the
    sum of n - j over j <= k (floor_k) or k(n - 1).  Memoised in memo on
    (u, k).  Not a closure: a recursive closure is a reference cycle that
    keeps memo alive until the cycle collector runs.
    """
    n, j = len(u), min(k, len(u))
    if ell > (j * (2 * n - j - 1) // 2 if floor_k else k * (n - 1)):
        return {}
    key = (u, k)
    if key in memo:
        return memo[key]
    out: dict[Exponents, int] = {}
    if k == 0:
        out[()] = 1
    else:
        pad = (0,) * (k - 1)
        stack = [(u, k if floor_k else 1, 0)]
        while stack:
            v, lowest, e = stack.pop()
            for xe, c in _factor_sum(v, k - 1, floor_k, memo, ell - e).items():
                if e:
                    xe = (*xe, *pad[len(xe):], e)
                out[xe] = out.get(xe, 0) + c
            for d in range(lowest, len(v)):
                if v[d - 1] > v[d]:
                    stack.append((multiply_simple(v, d), d + 1, e + 1))
    memo[key] = out
    return out


def _compatible_poly(w: Perm, m: int, floor_k: bool) -> SparsePoly:
    """_factor_sum of w in m factors, as a polynomial.  w = () enters as
    (1,): _factor_sum's bound k(n - 1) would be negative at n = 0."""
    terms = _factor_sum(w or (1,), m, floor_k, {}, length(w))
    return SparsePoly._of({(xe, ()): c for xe, c in terms.items()})


def stanley_truncated(w: Perm, m: int | None = None) -> SparsePoly:
    """
    The Stanley symmetric function of w restricted to x_1..x_m: the sum of
    x_{b_1}...x_{b_l} over reduced words a of w and weakly increasing b
    rising strictly wherever a does.  m defaults to max(length(w), 1): F_w
    is homogeneous of degree length(w), so none of its Schur shapes has more
    rows than that and the truncation keeps every one.  That window is not
    the smallest one; eg_coeffs peels in max(len(code_partition(w)), 1).

    The letters with b_i = k form a strictly decreasing run, so the sum is
    over factorizations w = d_1...d_m into decreasing words, lengths adding
    up, weighted by prod x_k^{l(d_k)} (the nilCoxeter product of Fomin and
    Stanley).  _factor_sum peels the factors down the weak order, so no
    reduced word is listed.

    >>> print(stanley_truncated((2, 1), 3))
    x1 + x2 + x3
    """
    if m is None:
        m = max(length(w), 1)
    if m < 1:
        raise ValueError(f"need at least one variable, got m={m}")
    return _compatible_poly(w, m, floor_k=False)


def schubert_bjs(w: Perm) -> SparsePoly:
    """
    The Schubert polynomial as the Billey-Jockusch-Stanley sum: compatible
    sequences additionally bounded by b_i <= a_i.  In the factorization of
    stanley_truncated that bound reads: factor d_k has letters at least k,
    and as the letters are below len(w), there are len(w) - 1 factors.

    >>> print(schubert_bjs((1, 3, 2)))
    x1 + x2
    """
    return _compatible_poly(w, max(len(w) - 1, 0), floor_k=True)


def divided_difference(f: SparsePoly, i: int) -> SparsePoly:
    """
    The divided difference (f - s_i f) / (x_i - x_{i+1}), computed exactly
    term by term; the defining identity is asserted on the result.

    >>> print(divided_difference(SparsePoly.x(1, 2), 1))
    x1 + x2
    >>> divided_difference(SparsePoly.x(1) * SparsePoly.x(2), 1)
    SparsePoly(0)
    """
    if i < 1:
        raise ValueError(f"variable index must be positive: {i}")
    acc: dict[TermKey, int] = {}
    for (xe, ye), c in f.terms.items():
        exps = list(xe) + [0] * max(0, i + 1 - len(xe))
        a, b = exps[i - 1], exps[i]
        if a == b:
            continue
        # (x^a y^b - x^b y^a)/(x - y) = sign * sum of x^t y^(a+b-1-t)
        lo, hi = min(a, b), max(a, b)
        sign = 1 if a > b else -1
        for t in range(lo, hi):
            exps[i - 1], exps[i] = t, a + b - 1 - t
            key = (_trim(tuple(exps)), ye)
            acc[key] = acc.get(key, 0) + sign * c
    out = SparsePoly._of(acc)
    assert out * (SparsePoly.x(i) - SparsePoly.x(i + 1)) == f - f.swap_x(i), (
        "inexact divided difference; corrupted input polynomial"
    )
    return out


def double_schubert(w: Perm) -> SparsePoly:
    """
    The double Schubert polynomial by the Lascoux-Schützenberger transition
    at the last descent r of w.  With s, v = w t_{rs} and the pivots I of v
    at r from last_descent_step,

        S_w = (x_r - y_{w_s}) S_v + sum over i in I of S_{v t_{ir}},

    and the identity gives 1.  Every element the recursion meets lies in
    the same symmetric group as w and is expanded once.

    >>> print(double_schubert((1, 3, 2)))
    x1 + x2 - y1 - y2
    """
    roots = _PackedRoots(max(len(w) - 1, 0), length(w))
    return roots.unpack(_double_schubert(w, roots, {}))


def _double_schubert(
    w: Perm, roots: _PackedRoots, memo: dict[Perm, dict[int, int]]
) -> dict[int, int]:
    """double_schubert of w packed by roots, which needs n >= len(w) - 1
    and bound >= length(w), memoised in memo.  Not a closure, for the
    reason given at _factor_sum."""
    if w in memo:
        return memo[w]
    if not descents(w):
        return {0: 1}
    r, s, v, pivots = last_descent_step(w)
    out = roots.sum([
        roots.times_root(_double_schubert(v, roots, memo), r, w[s - 1]),
        *(_double_schubert(apply_transposition(v, i, r), roots, memo) for i in pivots),
    ])
    memo[w] = out
    return out


def weight(p: BumplessPipedream) -> SparsePoly:
    """The weight of p: the product of x_i - y_j over its empty boxes (i, j).

    >>> from stanley.pipedreams import rothe
    >>> print(weight(rothe((2, 1, 3))))
    x1 - y1
    """
    boxes = p.empty_boxes()
    roots = _PackedRoots(max(p.n - 1, 0), len(boxes))
    return roots.unpack(roots.product(boxes))


def _box_lists(
    w: Perm, stride: int, bits: int, memo: dict[Perm, dict[int, int]]
) -> dict[int, int]:
    """
    The transition of double_schubert unrolled without multiplying out:
    the multiset of the box lists of its terms, each list standing for
    the product of x_i - y_j over its boxes (i, j).  A list is packed
    into one int with a count field of bits bits for each box, at
    ((i - 1) * stride + j - 1) * bits; bits must hold length(w), the
    length of every list.  The term (x_r - y_{w_s}) S_v adds the box
    (r, w_s) to each of v's lists, each S_{v t_ir} adds its multiset
    unchanged, and the identity gives the empty list.  Memoised in memo.
    """
    if w in memo:
        return memo[w]
    if not descents(w):
        return {0: 1}
    r, s, v, pivots = last_descent_step(w)
    box = 1 << ((r - 1) * stride + w[s - 1] - 1) * bits
    out = {key + box: c for key, c in _box_lists(v, stride, bits, memo).items()}
    for i in pivots:
        for key, c in _box_lists(apply_transposition(v, i, r), stride, bits, memo).items():
            out[key] = out.get(key, 0) + c
    memo[w] = out
    return out


def _weights_sum_packed(w: Perm, dreams: list[BumplessPipedream]) -> bool:
    """weights_sum_to_double_schubert by expanding both sides into packed
    monomials; the transition goes first, so that its memo is freed
    before the weights are summed."""
    roots = _PackedRoots(max(len(w) - 1, 0), length(w))
    transition = _double_schubert(w, roots, {})
    total = roots.sum(roots.product(p.empty_boxes()) for p in dreams)
    return total == transition and roots.y_free(total) == schubert_bjs(w)


def weights_sum_to_double_schubert(w: Perm, dreams: Iterable[BumplessPipedream]) -> bool:
    """
    Whether the weights of dreams sum to double_schubert(w) and, at y = 0,
    to schubert_bjs(w), compared factor by factor rather than expanded:

    - the multiset of the dreams' empty box lists must equal the box lists
      of the transition's terms (_box_lists), which gives equal sums of
      products of x_i - y_j (Lam, Lee and Shimozono's bumpless pipedream
      formula, proved through the transition by Weigandt);
    - at y = 0 each weight is the one monomial with x_i raised to the
      number of empty boxes in row i, and these must sum to schubert_bjs(w).

    When either differs, the packed expansion of both sides decides
    (_weights_sum_packed), so the verdict, and the ValueError of a box
    outside x1..x(n-1), y1..y(n-1) or of more than length(w) empty boxes,
    are those of the expansion.

    >>> from stanley.pipedreams import enumerate_all
    >>> weights_sum_to_double_schubert((1, 3, 2), enumerate_all((1, 3, 2)))
    True
    """
    dreams = list(dreams)
    ell, stride = length(w), max(len(w) - 1, 0)
    bits = max(ell.bit_length(), 1)
    lists: dict[int, int] = {}
    monomials: dict[TermKey, int] = {}
    for p in dreams:
        boxes = p.empty_boxes()
        if len(boxes) > ell or any(i > stride or j > stride for i, j in boxes):
            return _weights_sum_packed(w, dreams)
        key = sum(1 << ((i - 1) * stride + j - 1) * bits for i, j in boxes)
        lists[key] = lists.get(key, 0) + 1
        xe = _trim(tuple(row.count(".") for row in p.rows))
        monomials[xe, ()] = monomials.get((xe, ()), 0) + 1
    if lists == _box_lists(w, stride, bits, {}) and SparsePoly._of(monomials) == schubert_bjs(w):
        return True
    return _weights_sum_packed(w, dreams)


@lru_cache(maxsize=None)
def schur_poly(lam: tuple[int, ...], m: int) -> SparsePoly:
    """
    The Schur polynomial s_lam(x_1..x_m): the Stanley symmetric function
    of the Grassmannian permutation of lam, whose Lehmer code is lam
    reversed, in m variables (Stanley 1984; Edelman-Greene 1987).  Zero
    when lam has more than m rows; a negative m raises ValueError.

    >>> print(schur_poly((2, 1), 2))
    x1^2*x2 + x1*x2^2
    """
    if m < 0:
        raise ValueError(f"negative number of variables: m={m}")
    if any(a < b for a, b in zip(lam, lam[1:])) or any(p < 1 for p in lam):
        raise ValueError(f"not a partition: {lam}")
    if len(lam) > m:
        return SparsePoly.zero()
    w = perm_from_code(lam[::-1] + (0,) * max(lam, default=0))
    return _compatible_poly(w, m, floor_k=False)


def _schur_candidates(degrees: set[int], m: int, top: int) -> list[tuple[int, ...]]:
    """
    The weakly decreasing m-tuples with entries at most top and a sum in
    degrees, in lexicographically descending order, listed degree by
    degree without the tuples of other sums.  With r left to place in k
    places, the next entry x, at most the one before, completes exactly
    when r / k <= x <= r; the last entry is r itself.

    >>> _schur_candidates({3}, 2, 3)
    [(3, 0), (2, 1)]
    """
    found = []
    for d in degrees:
        # Each entry is a prefix, its last entry and what is left to place.
        stack = [((), top, d)]
        while stack:
            lam, bound, rest = stack.pop()
            places = m - len(lam)
            if places <= 1:
                if places == 0 and rest == 0:
                    found.append(lam)
                elif places == 1 and rest <= bound:
                    found.append((*lam, rest))
                continue
            for x in range(-(-rest // places), min(rest, bound) + 1):
                stack.append(((*lam, x), x, rest - x))
    return sorted(found, reverse=True)


def schur_expand(f: SparsePoly, m: int) -> dict[tuple[int, ...], int]:
    """
    Expand a symmetric polynomial in x_1..x_m as integers on Schur
    polynomials, read off the alternant (Macdonald, Symmetric Functions
    and Hall Polynomials, I.3): with delta = (m-1, ..., 1, 0),

        c_lam = [x^(lam+delta)] a_delta f = sum over sigma in S_m of
                sgn(sigma) f_(lam + delta - sigma(delta)).

    The candidates lam are the weakly decreasing m-tuples with entries at
    most the largest exponent of f and a sum that is a degree of f, in
    lexicographically descending order (_schur_candidates).  That set is
    complete: no Schur polynomial has a monomial above x^lam for its own
    lam, so the lexicographically largest lam with c_lam != 0 keeps its
    monomial x^lam in f, and every first part is at most the largest
    exponent.
    Scanning only the partitions in the support of f would not be
    complete: s_2 - s_11 in two variables is x1^2 + x2^2.

    The sum over S_m is built one position of sigma at a time, keeping a
    branch only while its exponents start an exponent of f, so a
    candidate costs at most the number of such prefixes, not m!: for the
    cycle (2, 3, ..., n, 1), f = x_1 ... x_(n-1) leaves the identity
    alone.  The principal specialization is asserted before returning:
    f(1, ..., 1) = sum of c_lam s_lam(1^m), where s_lam(1^m) =
    V(lam+delta) / V(delta) and V(l) = prod over i < j of l_i - l_j
    (Weyl's dimension formula), multiplied through by V(delta) so that
    nothing is divided.

    Raises ValueError when m is negative, f mixes in y variables, uses a
    variable past x_m, is not symmetric in x_1..x_m, or has a negative
    Schur coefficient, naming the first candidate that has one (not
    Schur-positive, or m too small for the degree).

    >>> schur_expand(schur_poly((2, 1), 3) + 2 * schur_poly((3,), 3), 3)
    {(3,): 2, (2, 1): 1}
    """
    if m < 0:
        raise ValueError(f"negative number of variables: m={m}")
    if f.has_y():
        raise ValueError("cannot Schur-expand a polynomial with y variables")
    if any(len(xe) > m for xe, _ in f.terms):
        raise ValueError(f"a term uses a variable past x{m}")
    if not f.is_symmetric_x(m):
        raise ValueError(f"not symmetric in x1..x{m}")
    exps = {xe + (0,) * (m - len(xe)): c for (xe, _), c in f.terms.items()}
    degrees = {sum(xe) for xe in exps}
    # f is symmetric, so its largest exponent is also its largest in x_1.
    top = max((max(xe, default=0) for xe in exps), default=0)
    delta = tuple(range(m - 1, -1, -1))
    prefixes = {xe[:i] for xe in exps for i in range(m + 1)}
    coeffs: dict[tuple[int, ...], int] = {}
    specialized = 0
    for lam in _schur_candidates(degrees, m, top):
        top_exps = tuple(map(operator.add, lam, delta))
        # Each entry is the exponents e taken so far, the parts of delta
        # left and the sign; the parts left descend, so taking the j-th
        # makes j inversions.
        c, stack = 0, [((), delta, 1)]
        while stack:
            e, rest, sign = stack.pop()
            if not rest:
                c += sign * exps[e]
            for j, d in enumerate(rest):
                e2 = (*e, top_exps[len(e)] - d)
                if e2 in prefixes:
                    stack.append((e2, rest[:j] + rest[j + 1 :], -sign if j & 1 else sign))
        if c < 0:
            raise ValueError(
                f"negative leftover {c} at {_trim(lam)}: input is not "
                "Schur-positive or the variable window is too small"
            )
        if c:
            coeffs[_trim(lam)] = c
            specialized += c * prod(starmap(operator.sub, combinations(top_exps, 2)))
    assert specialized == sum(exps.values()) * prod(
        starmap(operator.sub, combinations(delta, 2))
    ), "Schur expansion fails the principal specialization"
    return coeffs


def eg_coeffs(w: Perm, method: str = "pipedreams") -> dict[tuple[int, ...], int]:
    """
    The Schur expansion coefficients of the Stanley symmetric function of
    w, keyed by partition and sorted by shape, by one of four independent
    routes:

    - "tableaux":   shapes of the reduced word tableaux of w
    - "pipedreams": shapes of the EG-pipedreams of w
    - "mls_leaves": Lehmer codes of the modified transition tree leaves
    - "monomial":   Schur expansion of the truncated Stanley polynomial

    The default "pipedreams" route counts the EG-pipedreams of w by shape
    with the bumpless row rules (count_eg_pipedreams), listing no
    pipedream and no tableau.

    The "tableaux" route builds the reduced word tableaux down the weak
    order by EG insertion alone (enumerate_reduced_word_tableaux), so its
    cost grows with the elements below the inverse of w and their
    tableaux, not with the number of reduced words.

    The "monomial" route truncates F_w to m = max(len(lam), 1) variables,
    lam = code_partition(w), and reads the Schur coefficients off the
    alternant (schur_expand): every Schur shape of F_w dominates
    lam (Stanley 1984; Edelman-Greene 1987), so it has at most len(lam)
    rows, and s_lam itself occurs.  A narrower window would drop shapes;
    the other three routes would then disagree with it.

    Raises ValueError when w is not a permutation of 1..n.

    >>> eg_coeffs((2, 1, 3)) == {(1,): 1}
    True
    """
    if not is_permutation(w):
        raise ValueError(f"not a permutation of 1..{len(w)}: {tuple(w)}")
    if method == "tableaux":
        coeffs = Counter(map(shape, enumerate_reduced_word_tableaux(w)))
    elif method == "pipedreams":
        return count_eg_pipedreams(w)
    elif method == "mls_leaves":
        coeffs = Counter(code_partition(v.perm) for v in mls_tree(w).leaves())
    elif method == "monomial":
        m = max(len(code_partition(w)), 1)
        coeffs = schur_expand(stanley_truncated(w, m), m)
    else:
        raise ValueError(
            f"unknown method {method!r}: expected tableaux, pipedreams, "
            "mls_leaves, or monomial"
        )
    return dict(sorted(coeffs.items()))

"""Sparse exact multivariate polynomials.

A polynomial in n variables is a dict mapping dense exponent tuples of
length n to nonzero scalar coefficients, wrapped in :class:`MPoly`.  All
coefficients are exact (int / Fraction / GaussianRational); there is no
floating point.  The one text of a polynomial, ``poly_text``, sorts terms
in descending graded lexicographic order and writes explicit ``*`` and
``^``; a squarefree polynomial is ordered and written from ``subset_table``,
one table of the subsets of 0..n-1 per n, built on first use.  Coefficient
lists in descending grlex order on given monomials (the pencil's on every
subset, an adjugate entry's on the ``free_monomials`` it can hold) are
written in order by ``ranked_texts``, with no sort; one core,
``_terms_text``, formats both.

Variables are indexed 0..n-1 internally and printed 1-based as x1..xn.
Exponents are non-negative ints; the constructor rejects anything else.

One product kernel computes a signed sum of products, sum(sign * p * q)
over pairs (sign, p, q) of packed operands (:class:`Packed`): each
operand's exponent tuples become integers, with a field per variable wide
enough that adding two packed keys never carries, its coefficients become
ints over one denominator, and the operand records its largest exponent,
its largest int and whether it holds a ``GaussianRational``, so a sum
rescans none of them.  One Python int product multiplies a whole block of
coefficients, one balanced base-2**b digit per exponent pattern of the
lowest few variables, with b taken from a bound on every digit of the sum,
so the sum vanishes exactly when every accumulated int does (modulo
Y^2 + 1 over Q(i)); ``packed_product_terms`` gives the argument.  Keys
whose sum cancels are dropped before any digit is read back, so ``terms``
keeps its exponent-tuple form everywhere else and an identity checked as
a sum that must vanish reads nothing back.  ``MPoly.__mul__`` (one pair)
and ``product_sum`` pack their operands and call it.  A caller that enters
one polynomial into many sums, as ``verify_identities`` does, packs it
once with :func:`pack`, which also keeps its digit encoding between sums,
and takes its restrictions to x_k = 0 and its derivatives from the packed
form by key arithmetic, as the Rayleigh difference and the affine
resultant do.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from math import lcm
from operator import itemgetter
from typing import Collection, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import ExactDivisionError
from .scalars import (
    GaussianRational,
    Scalar,
    _int_parts,
    _scaled,
    div_exact,
    is_rational,
    scalar_format,
)

Exponent = Tuple[int, ...]


class MPoly:
    """Immutable sparse polynomial over Q or Q(i)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[Mapping[Exponent, Scalar]] = None):
        if n < 0:
            raise ValueError(f"variable count {n} is negative")
        clean: Dict[Exponent, Scalar] = {}
        if terms:
            entries = list(chain.from_iterable(terms))
            if not set(map(type, entries)) <= {int} or min(entries, default=0) < 0:
                raise ValueError("exponents must be tuples of non-negative ints")
            for exp, coeff in terms.items():
                if len(exp) != n:
                    raise ValueError(f"exponent {exp} has wrong length for n={n}")
                if coeff:
                    clean[tuple(exp)] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("MPoly is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "MPoly":
        return cls(n)

    @classmethod
    def const(cls, n: int, value: Scalar) -> "MPoly":
        return cls(n, {(0,) * n: value} if value else {})

    @classmethod
    def var(cls, n: int, k: int) -> "MPoly":
        """The variable x_{k+1} (k is the 0-based index)."""
        if not 0 <= k < n:
            raise ValueError(f"variable index {k} outside 0..{n - 1}")
        exp = tuple(1 if i == k else 0 for i in range(n))
        return cls(n, {exp: 1})

    # -- basic queries -----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self, k: int) -> int:
        """Degree in variable k (0 for the zero polynomial)."""
        return max((exp[k] for exp in self.terms), default=0)

    def is_multiaffine(self) -> bool:
        return all(all(e <= 1 for e in exp) for exp in self.terms)

    def coefficient(self, exp: Exponent) -> Scalar:
        return self.terms.get(tuple(exp), 0)

    # -- arithmetic ----------------------------------------------------------
    def _check_compatible(self, other: "MPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"mixed variable counts: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, MPoly):
            self._check_compatible(other)
            return MPoly._raw(self.n, _merged(self.terms, other.terms.items()))
        if _is_scalar(other):
            return self + MPoly.const(self.n, other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, MPoly):
            self._check_compatible(other)
            negated = ((exp, -c) for exp, c in other.terms.items())
            return MPoly._raw(self.n, _merged(self.terms, negated))
        if _is_scalar(other):
            return self + MPoly.const(self.n, -other)
        return NotImplemented

    def __rsub__(self, other):
        if _is_scalar(other):
            return MPoly.const(self.n, other) - self
        return NotImplemented

    def __neg__(self):
        return MPoly._raw(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MPoly):
            self._check_compatible(other)
            return product_sum(self.n, [(1, self, other)])
        if _is_scalar(other):
            if not other:
                return MPoly.zero(self.n)
            return MPoly._raw(
                self.n, {e: c * other for e, c in self.terms.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.n == other.n and self.terms == other.terms
        if _is_scalar(other):
            return self.terms == MPoly.const(self.n, other).terms
        return NotImplemented

    def __hash__(self):
        terms, const = self.terms, (0,) * self.n
        if not terms.keys() - {const}:  # equal to a scalar, so hashed as that scalar
            return hash(terms.get(const, 0))
        return hash((self.n, frozenset(terms.items())))

    @classmethod
    def _raw(cls, n: int, terms: Dict[Exponent, Scalar]) -> "MPoly":
        """Internal: terms already clean (no zeros, right lengths)."""
        p = cls.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "terms", terms)
        return p

    # -- calculus / evaluation ------------------------------------------------
    def derivative(self, k: int) -> "MPoly":
        # exp -> exp - e_k is injective on the terms kept, and c * exp[k] != 0
        # in characteristic 0, so no two terms meet: nothing is merged.
        terms = {e[:k] + (e[k] - 1,) + e[k + 1 :]: c * e[k] for e, c in self.terms.items() if e[k]}
        return MPoly._raw(self.n, terms)

    def substitute(self, k: int, value: Scalar) -> "MPoly":
        """Set x_{k+1} := value; result still lives in n variables."""
        if not value:  # keeps exactly the terms free of x_{k+1}, exponents unchanged
            return MPoly._raw(self.n, {exp: c for exp, c in self.terms.items() if not exp[k]})
        moved = (
            (exp[:k] + (0,) + exp[k + 1 :], c * value ** exp[k] if exp[k] else c)
            for exp, c in self.terms.items()
        )
        return MPoly._raw(self.n, _merged({}, moved))

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        if len(point) != self.n:
            raise ValueError("point has wrong length")
        total: Scalar = 0
        for exp, c in self.terms.items():
            term = c
            for k, e in enumerate(exp):
                if e:
                    term = term * point[k] ** e
            total = total + term
        return total

    # -- display -----------------------------------------------------------
    def __str__(self) -> str:
        return poly_text(self)

    def __repr__(self) -> str:
        return f"MPoly({self.n}, {poly_text(self)!r})"


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, GaussianRational))


def _merged(
    terms: Mapping[Exponent, Scalar], items: Iterable[Tuple[Exponent, Scalar]]
) -> Dict[Exponent, Scalar]:
    """A copy of the clean term dict ``terms`` with the nonzero
    ``(exponent, coefficient)`` items added, every key whose sum cancels
    dropped: the one merge of terms on equal exponents."""
    out = dict(terms)
    get = out.get
    for exp, c in items:
        acc = get(exp)
        s = c if acc is None else acc + c
        if s:
            out[exp] = s
        else:
            del out[exp]
    return out


# -- the product kernel --------------------------------------------------------


class Packed:
    """A polynomial's terms packed for the product kernel.

    Each exponent tuple is one integer key with a ``width``-bit field per
    variable, variable k from bit k * width up, so adding two keys adds
    every field, without carries while the field sums stay below
    2**width.  The coefficients are kept as ints: each one, or each real
    and imaginary part, times ``scale``, the lcm of their denominators.
    ``items`` holds ``(key, c)`` pairs, or ``(key, re, im)`` triples when
    ``gauss`` is set: when a coefficient was a ``GaussianRational`` at
    packing.  ``top`` bounds every exponent and ``bound`` every int.  All
    are recorded once, when the polynomial is packed, so no sum rescans
    the terms for them.  ``restrict`` and ``derivative`` take x_k = 0 and
    d/dx_k straight from the packed items, by key arithmetic.

    The kernel multiplies blocks of coefficients as single ints
    (``slot_ints``); the last such encoding is cached, so an operand
    entered into many sums is encoded once while their radix, slot count
    and digit width stay the same, and again when a sum needs a wider
    digit than the one cached.
    """

    __slots__ = ("width", "top", "gauss", "items", "scale", "bound", "_slots")

    def __init__(self, width: int, top: int, gauss: bool, items: list, scale: int, bound: int):
        self.width = width
        self.top = top
        self.gauss = gauss
        self.items = items
        self.scale = scale
        self.bound = bound
        self._slots: Optional[Tuple[int, int, int, list]] = None  # (r, s, b, ints)

    def restrict(self, k: int) -> "Packed":
        """x_{k+1} := 0: the items whose field k is 0."""
        s, mask = k * self.width, (1 << self.width) - 1
        items = [t for t in self.items if not t[0] >> s & mask]
        return Packed(self.width, self.top, self.gauss, items, self.scale, self.bound)

    def derivative(self, k: int) -> "Packed":
        """d/dx_{k+1}: on the items whose field k holds e > 0, one unit off
        that field and the coefficient times e."""
        s, mask = k * self.width, (1 << self.width) - 1
        unit = 1 << s
        if self.gauss:
            items = [
                (key - unit, r * e, i * e) for key, r, i in self.items if (e := key >> s & mask)
            ]
        else:
            items = [(key - unit, c * e) for key, c in self.items if (e := key >> s & mask)]
        return Packed(self.width, self.top, self.gauss, items, self.scale, self.bound * self.top)

    def slot_ints(self, r: int, s: int, b: int) -> List[Tuple[int, int]]:
        """The operand as ``(high key, int)`` pairs: its terms that agree
        outside the lowest s variables summed into one int, each
        coefficient in the b-bit digit sum(e_v r^v) of its pattern
        (e_0..e_{s-1}), a Gaussian's imaginary part r^s digits above its
        real part.  Cached for the last (r, s, b)."""
        cached = self._slots
        if cached is not None and cached[:3] == (r, s, b):
            return cached[3]
        low = self.width * s
        mask = (1 << low) - 1
        shifts = _shifts(self.width, r, s, b)
        ints: Dict[int, int] = {}
        get = ints.get
        if self.gauss:
            im_shift = b * r**s
            for key, re, im in self.items:
                shift = shifts[key & mask]
                hi = key >> low
                ints[hi] = get(hi, 0) + (re << shift) + (im << shift + im_shift)
        else:
            for key, c in self.items:
                hi = key >> low
                ints[hi] = get(hi, 0) + (c << shifts[key & mask])
        out = [(hi, x) for hi, x in ints.items() if x]
        self._slots = (r, s, b, out)
        return out


@lru_cache(maxsize=64)
def _patterns(width: int, r: int, s: int) -> List[int]:
    """Slot m -> its exponent pattern over the lowest s variables, as a
    packed key: the radix-r digits of m, one per field."""
    patterns = [0]
    for v in range(s):
        patterns = [e + (d << width * v) for d in range(r) for e in patterns]
    return patterns


@lru_cache(maxsize=64)
def _shifts(width: int, r: int, s: int, b: int) -> Dict[int, int]:
    """Exponent pattern (as in ``_patterns``) -> the bit offset of its slot."""
    return {lo: b * m for m, lo in enumerate(_patterns(width, r, s))}


def _keys(n: int, exps: Iterable[Exponent], width: int) -> List[int]:
    """Each exponent tuple in n variables as a packed key of field width ``width``."""
    if width == 8:
        return [int.from_bytes(bytes(exp), "little") for exp in exps]
    shifts = range(0, width * n, width)
    return [sum(e << s for e, s in zip(exp, shifts)) for exp in exps]


def _pack(keys: Sequence[int], values: Collection[Scalar], width: int, top: int) -> Packed:
    """The coefficients ``values`` on the packed ``keys`` of field width
    ``width``, cleared by ``_int_parts`` as one row; ``top`` bounds the exponents."""
    (re,), im, (scale,) = _int_parts([values])
    parts = (re,) if im is None else (re, im[0])
    return Packed(width, top, im is not None, list(zip(keys, *parts)), scale, max(map(abs, chain(*parts)), default=0))


def pack(polys: Sequence[MPoly]) -> List[Packed]:
    """Pack each polynomial once, all with one field width: wide enough for
    the product of any two of them, and of their restrictions to x_k = 0
    and derivatives, which only lower exponents.  Fields are one byte wide
    while the doubled largest exponent stays below 256, so packing and
    unpacking run as bytes conversions; wider ones use bit shifts."""
    tops = [max(chain.from_iterable(p.terms), default=0) for p in polys]
    top = 2 * max(tops, default=0)
    width = 8 if top < 256 else top.bit_length()
    return [_pack(_keys(p.n, p.terms, width), p.terms.values(), width, t) for p, t in zip(polys, tops)]


def pack_ranked(columns: Iterable[Sequence[Scalar]], picks: Sequence[bytes], n: int, width: int) -> List[Packed]:
    """Each squarefree polynomial in n variables given as its coefficients
    on the monomials that its pick (``FreeMonomials.pick``) selects from
    ``subset_table(n).grlex``, as ``ranked_texts`` reads them, packed as
    ``pack`` packs it at field width ``width``, with no polynomial built:
    the keys of the table's monomials are made once, and those of each
    distinct pick once.  The constant sorts last, so an entry's top is 0
    exactly when its first key is."""
    keys = _keys(n, subset_table(n).grlex, width)
    live = {pick: list(compress(keys, pick)) for pick in set(picks)}
    present = [(list(compress(live[pick], col)), list(compress(col, col))) for col, pick in zip(columns, picks)]
    return [_pack(ks, cs, width, 1 if ks and ks[0] else 0) for ks, cs in present]


def packed_product_terms(
    n: int, pairs: Iterable[Tuple[int, Packed, Packed]]
) -> Dict[Exponent, Scalar]:
    """The clean term dict of sum(sign * p * q) over signed pairs ``(sign,
    p, q)`` of packed operands in n variables, sign being 1 or -1: the one
    product kernel.

    Every operand must be packed with one width, wide enough for each
    pair: p.top + q.top below 2**width.  One int product multiplies a
    block of coefficients (Kronecker substitution on the lowest s
    variables).  With the radix r = max(p.top + q.top) + 1, each operand's
    terms that agree outside the lowest s variables are one int, the
    coefficient of the pattern (e_0..e_{s-1}) in the b-bit digit
    sum(e_v r^v) (``Packed.slot_ints``).  No exponent sum of a pair
    reaches r, so the digits of a product of two such ints are the
    coefficients of the product's patterns, and every pair's products go
    into one accumulator on the remaining keys.  A Gaussian coefficient's
    imaginary part sits r^s digits above its real part, in the place of
    Y = 2**(b r^s), so an accumulated int is N0 + N1 Y + N2 Y^2 with real
    part N0 - N2 and imaginary part N1.  Denominators are cleared per
    operand: with L the lcm of the pairs' scale products, each pair is
    weighted by L / (scale_p scale_q) and the digits read are divided by L.

    Exactness: the bound C = sum over pairs of weight * min(#p, #q) *
    bound_p * bound_q, doubled over Q(i), exceeds every digit in absolute
    value (a result term takes at most min(#p, #q) products from a pair,
    and an imaginary part two per term), and b is taken with C < 2**(b-2).
    So every digit is a balanced base-2**b digit, read back uniquely; over
    Q an accumulated int is 0 exactly when its digits are, and over Q(i)
    N0 - N2 + N1 Y, which N equals modulo Y^2 + 1, is below Y^2 / 2 in
    absolute value, so a sum's real and imaginary parts both vanish
    exactly when N % (Y^2 + 1) == 0.  Keys whose sum cancels are dropped
    before any digit is read, so a sum that vanishes reads no digit and
    builds no coefficient.  The largest s with r^s at most 27 slots over Q,
    or 9 over Q(i) (times its three blocks), is taken; past that s = 0,
    one coefficient per int.
    """
    pairs = [(sign, p, q) for sign, p, q in pairs if p.items and q.items]
    if not pairs:
        return {}
    width = pairs[0][1].width
    gauss, top, L = False, 0, 1
    for _, p, q in pairs:
        if p.width != width or q.width != width or (p.top + q.top) >> width:
            raise ValueError("operands packed with mixed or too narrow field widths")
        gauss = gauss or p.gauss or q.gauss
        top = max(top, p.top + q.top)
        if p.scale != 1 or q.scale != 1:
            L = lcm(L, p.scale * q.scale)
    r = top + 1
    s, slots = 0, 1
    while s < n and slots * r <= (9 if gauss else 27):
        s, slots = s + 1, slots * r
    if L != 1:
        pairs = [(sign * (L // (p.scale * q.scale)), p, q) for sign, p, q in pairs]
    C = sum(abs(w) * min(len(p.items), len(q.items)) * (p.bound or 1) * (q.bound or 1) for w, p, q in pairs)
    b = (2 * C if gauss else C).bit_length() + 2
    for _, p, q in pairs:
        for cached in (p._slots, q._slots):
            if cached is not None and cached[2] > b and cached[:2] == (r, s):
                b = cached[2]
    out: Dict[int, int] = {}
    get = out.get
    for w, p, q in pairs:
        a, c = p.slot_ints(r, s, b), q.slot_ints(r, s, b)
        if w != 1:
            a = [(h, x * w) for h, x in a]
        for h1, x1 in a:
            for h2, x2 in c:
                k = h1 + h2
                out[k] = get(k, 0) + x1 * x2
    if gauss:
        fold = (1 << 2 * b * slots) + 1
        live = [(k, x) for k, x in out.items() if x % fold]
    else:
        live = [(k, x) for k, x in out.items() if x]
    if not live:
        return {}
    low = width * s
    patterns = _patterns(width, r, s)
    sums = []
    for k, x in live:
        digits = _balanced_digits(x, b, 3 * slots if gauss else slots)
        k <<= low
        for m, lo in enumerate(patterns):
            re, im = (digits[m] - digits[m + 2 * slots], digits[m + slots]) if gauss else (digits[m], 0)
            if re or im:
                sums.append((k + lo, _scaled(re, im, L)))
    if width == 8:
        return {tuple(k.to_bytes(n, "little")): c for k, c in sums}
    shifts = range(0, width * n, width)
    mask = (1 << width) - 1
    return {tuple(k >> f & mask for f in shifts): c for k, c in sums}


def _balanced_digits(x: int, b: int, count: int) -> List[int]:
    """The ``count`` digits of x in base 2**b, each below 2**(b-1) in
    absolute value: x plus half a base in every digit has digits in
    0..2**b - 1, read by shifts."""
    half, mask = 1 << b - 1, (1 << b) - 1
    x += sum(half << b * m for m in range(count))
    return [(x >> b * m & mask) - half for m in range(count)]


def product_sum(n: int, pairs: Iterable[Tuple[int, MPoly, MPoly]]) -> MPoly:
    """sum(sign * p * q) over signed pairs ``(sign, p, q)`` of polynomials in
    n variables, sign being 1 or -1: its operands packed, then the one
    product kernel.  An identity ``sum(...) == 0`` is checked exactly by
    ``not product_sum(...)``.
    """
    pairs = list(pairs)
    for _, p, q in pairs:
        if p.n != n or q.n != n:
            raise ValueError(f"mixed variable counts: {p.n}, {q.n} vs {n}")
    packed = iter(pack([x for _, p, q in pairs for x in (p, q)]))
    packed_pairs = [(sign, next(packed), next(packed)) for sign, _, _ in pairs]
    return MPoly._raw(n, packed_product_terms(n, packed_pairs))


# -- module operations ------------------------------------------------------


def rayleigh_difference(f: MPoly, i: int, j: int) -> MPoly:
    """df/dxi * df/dxj - f * d2f/dxi dxj; requires degree <= 1 in xi and xj.

    Writing f = a + b*xi + c*xj + d*xi*xj with a, b, c, d free of xi and xj,
    the terms in xi and xj cancel and the difference is b*c - a*d.
    """
    if i == j:
        raise ValueError("rayleigh_difference needs two distinct variables")
    if f.degree(i) > 1 or f.degree(j) > 1:
        raise ValueError("rayleigh_difference requires degree <= 1 in both variables")
    (packed,) = pack([f])
    pairs = _rayleigh_pairs(packed.restrict(i), packed.derivative(i), j)
    return MPoly._raw(f.n, packed_product_terms(f.n, pairs))


def _rayleigh_pairs(f0: Packed, fi: Packed, j: int) -> List[Tuple[int, Packed, Packed]]:
    """Delta_ij(f) = b*c - a*d as signed pairs, from the packed f0 = f|_{x_i=0}
    and fi = df/dx_i: a, c are f0 at x_j = 0 and its x_j-derivative, b, d fi's."""
    a, c = f0.restrict(j), f0.derivative(j)
    b, d = fi.restrict(j), fi.derivative(j)
    return [(1, b, c), (-1, a, d)]


def affine_resultant(g: MPoly, h: MPoly, k: int) -> MPoly:
    """res_{x_k}(g, h) = g|_{x_k=0} * dh/dx_k - h|_{x_k=0} * dg/dx_k.

    Both inputs must have degree <= 1 in x_{k+1}.
    """
    g._check_compatible(h)
    if g.degree(k) > 1 or h.degree(k) > 1:
        raise ValueError("affine_resultant requires degree <= 1 in the variable")
    pg, ph = pack([g, h])
    pairs = _resultant_pairs(pg, ph.restrict(k), ph.derivative(k), k)
    return MPoly._raw(g.n, packed_product_terms(g.n, pairs))


def _resultant_pairs(g: Packed, h0: Packed, hk: Packed, k: int) -> List[Tuple[int, Packed, Packed]]:
    """res_{x_k}(g, h) as signed pairs, from the packed g, h0 = h|_{x_k=0}
    and hk = dh/dx_k."""
    return [(1, g.restrict(k), hk), (-1, h0, g.derivative(k))]


def exact_divide(p: MPoly, q: MPoly) -> MPoly:
    """The polynomial p/q; raises ExactDivisionError unless q divides p exactly.

    Standard single-divisor division: repeatedly eliminate the lex-leading
    term.  Lex order on exponent tuples is a well-order, so this terminates.
    """
    p._check_compatible(q)
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    lead_q = max(q.terms)
    cq = q.terms[lead_q]
    quotient: Dict[Exponent, Scalar] = {}
    rem = p
    while not rem.is_zero():
        lead_r = max(rem.terms)
        diff = tuple(a - b for a, b in zip(lead_r, lead_q))
        if any(e < 0 for e in diff):
            raise ExactDivisionError("division left a nonzero remainder")
        c = div_exact(rem.terms[lead_r], cq)
        quotient[diff] = c
        rem = rem - MPoly(p.n, {diff: c}) * q
    return MPoly(p.n, quotient)


# -- canonical text form -------------------------------------------------------


SubsetTable = namedtuple("SubsetTable", "exps canon grlex rank texts mask_rank")


@lru_cache(maxsize=None)
def subset_table(n: int) -> SubsetTable:
    """The subsets of 0..n-1 by mask (bit k set for k in the subset), built
    once per n (every caller keeps n <= 16) and shared, so read only:
    ``exps[mask]`` is the exponent tuple; ``canon`` lists the masks by
    size, each in ``combinations`` order, which is descending lex order on
    the exponents; ``grlex`` lists the exponents in descending grlex order,
    ``rank`` gives each one's place there and ``texts`` its monomial;
    ``mask_rank[mask]`` is that place by mask."""
    exps: List[Exponent] = [()]
    monos, lex = [""], [0]  # lex: the masks, their exponents in descending lex order
    for k in range(n):
        exps = [e + (0,) for e in exps] + [e + (1,) for e in exps]
        monos += [f"{t}*x{k + 1}" if t else f"x{k + 1}" for t in monos]
        lex = [m | 1 << n - 1 - k for m in lex] + lex
    grlex = sorted(lex, key=int.bit_count, reverse=True)  # stable: lex order within a degree
    by_rank = [exps[m] for m in grlex]
    canon = sorted(lex, key=int.bit_count)
    mask_rank = [0] * len(grlex)
    for r, m in enumerate(grlex):
        mask_rank[m] = r
    rank = {exps[m]: mask_rank[m] for m in grlex}  # shares mask_rank's int objects
    return SubsetTable(exps, canon, by_rank, rank, [monos[m] for m in grlex], mask_rank)


FreeMonomials = namedtuple("FreeMonomials", "pick exps texts")


def free_monomials(n: int, i: int, j: int) -> FreeMonomials:
    """The squarefree monomials in n variables free of x_i and x_j (of x_i
    alone when i == j), in descending grlex order: the monomials an entry
    (i, j) of an adjugate table can hold.  ``pick`` holds one byte per
    place in ``subset_table(n).grlex``, 1 where that monomial is free, and
    selects them from any list in that order with ``compress``; ``exps``
    and ``texts`` are the table's exponents and texts so selected, as
    tuples.  Built once per n and pair, as (i, j) and (j, i) share their
    monomials."""
    return _free_monomials(n, min(i, j), max(i, j))


@lru_cache(maxsize=None)
def _free_monomials(n: int, i: int, j: int) -> FreeMonomials:
    subsets = subset_table(n)
    holds, ones = _holding(n)
    pick = ((holds[i] | holds[j]) ^ ones).to_bytes(1 << n, "big")
    return FreeMonomials(pick, tuple(compress(subsets.grlex, pick)), tuple(compress(subsets.texts, pick)))


@lru_cache(maxsize=None)
def _holding(n: int) -> Tuple[List[int], int]:
    """Per variable k, the int whose big-endian bytes, one per place in
    ``subset_table(n).grlex``, are 1 where that monomial holds x_k; and the
    int whose bytes are all 1.  The bytes are made by C-level maps, and a
    pair's ``pick`` by int operations on two of them."""
    grlex = subset_table(n).grlex
    holds = [int.from_bytes(bytes(map(itemgetter(k), grlex)), "big") for k in range(n)]
    return holds, int.from_bytes(b"\x01" * len(grlex), "big")


def poly_text(p: MPoly) -> str:
    """Canonical form: terms in descending graded-lex order, explicit * and ^.

    A squarefree polynomial in at most ``SIZE_LIMITS["det_poly"]``
    variables is sorted by its exponents' ranks in the ``subset_table`` of
    its n, which also holds their text in x1..xn.  Any other is sorted by
    descending lex order, then stably by descending degree, and each
    monomial is written from its exponent.  The terms are then written by
    ``_terms_text``.
    """
    from .symdet import SIZE_LIMITS  # symdet builds on this module
    terms, ranked = p.terms, None
    if terms and p.n <= SIZE_LIMITS["det_poly"]:
        subsets = subset_table(p.n)
        with suppress(KeyError):  # an exponent above 1 has no rank
            ranked = sorted(zip(map(subsets.rank.__getitem__, terms), terms.values()))
    if ranked is not None:
        return _terms_text([c for _, c in ranked], [subsets.texts[r] for r, _ in ranked])
    order = sorted(terms, reverse=True)
    order.sort(key=sum, reverse=True)
    monos = ["*".join(f"x{k + 1}" if e == 1 else f"x{k + 1}^{e}" for k, e in enumerate(exp) if e) for exp in order]
    return _terms_text([terms[exp] for exp in order], monos)


def ranked_texts(columns: Iterable[Sequence[Scalar]], monomials: Iterable[Sequence[str]]) -> List[str]:
    """The canonical text, as ``poly_text`` gives it, of each squarefree
    polynomial given as its coefficients on a list of monomial texts in
    descending grlex order, one list per column: ``subset_table(n).texts``
    for a polynomial on every subset, or ``free_monomials(n, i, j).texts``
    for an adjugate entry; 0 where there is no term.  Each is read in order,
    with no sort or rank lookup, and written by ``_terms_text``."""
    return [_terms_text(list(compress(col, col)), list(compress(texts, col))) for col, texts in zip(columns, monomials)]


def _terms_text(coeffs: Sequence[Scalar], monos: Sequence[str]) -> str:
    """The nonzero coefficients ``coeffs`` on the monomial texts ``monos``
    (the constant's is empty, and only last), already in canonical order,
    written as one signed sum: "0" for none.  When every coefficient is an
    ``int`` they are formatted in one comprehension."""
    if not coeffs:
        return "0"
    if set(map(type, coeffs)) == {int}:
        pieces = [
            (f"- {m}" if c == -1 else f"- {-c}*{m}") if c < 0 else (f"+ {m}" if c == 1 else f"+ {c}*{m}")
            for c, m in zip(coeffs, monos)
        ]
        if not monos[-1]:  # the constant term, which sorts last
            c = coeffs[-1]
            pieces[-1] = f"- {-c}" if c < 0 else f"+ {c}"
    else:
        pieces = []
        for coeff, mono in zip(coeffs, monos):
            if is_rational(coeff):
                sign, body = ("-", scalar_format(-coeff)) if coeff < 0 else ("+", scalar_format(coeff))
            else:
                sign, body = "+", f"({scalar_format(coeff)})"
            if mono:
                body = mono if body == "1" else f"{body}*{mono}"
            pieces.append(f"{sign} {body}")
    first = pieces[0]
    pieces[0] = first[2:] if first[0] == "+" else f"-{first[2:]}"
    return " ".join(pieces)


def poly_subset_map(p: MPoly) -> Dict[str, str]:
    """Multiaffine polynomial as a {"1,3": coeff} map (1-based, "" = constant)."""
    if not p.is_multiaffine():
        raise ValueError("subset map form requires a multiaffine polynomial")
    out: Dict[str, str] = {}
    for exp in sorted(p.terms, key=lambda e: (sum(e), tuple(k for k, v in enumerate(e) if v))):
        key = ",".join(str(k + 1) for k, v in enumerate(exp) if v)
        out[key] = scalar_format(p.terms[exp])
    return out

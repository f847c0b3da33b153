"""Exact scalar arithmetic over Q and Q(i).

A scalar is a Python ``int``, a ``fractions.Fraction``, or a
:class:`GaussianRational`.  Values are kept in a canonical form: integral
fractions are demoted to ``int`` and Gaussian values with zero imaginary part
are demoted to their rational part, so equal values always compare (and hash)
equal no matter which code path produced them.  No floating point anywhere.

:class:`GaussianRational` is an immutable ``__slots__`` class.  Its public
constructor normalises both parts; arithmetic results go through the trusted
internal constructor ``GaussianRational._make``, which applies the same
demotions once and fills the slots directly.  Instances pickle and copy by
``__reduce__``.  ``_int_parts`` and ``_scaled`` are the one int encoding of
scalars that ``symdet``'s minor engine and ``mpoly``'s product kernel read.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from itertools import chain
from math import isqrt, lcm
from typing import List, Optional, Sequence, Tuple, Union

from .errors import ParseError

FIELD_Q = "Q"
FIELD_QI = "Q(i)"
FIELDS = (FIELD_Q, FIELD_QI)

Rat = Union[int, Fraction]


def _norm_rat(x: Rat) -> Rat:
    """Demote an integral Fraction to int."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


class GaussianRational:
    """An element a + b*i of Q(i) with exact rational parts.

    Immutable: assigning to ``re`` or ``im`` raises ``AttributeError``.
    Arithmetic demotes back to int/Fraction whenever the imaginary part
    cancels, so instances in circulation normally have ``im != 0``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Rat, im: Rat) -> None:
        _set_re(self, _norm_rat(re))
        _set_im(self, _norm_rat(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return (GaussianRational, (self.re, self.im))

    # -- construction ----------------------------------------------------
    @staticmethod
    def _make(re: Rat, im: Rat):
        """Trusted constructor for arithmetic results.

        Demotes integral Fractions, and returns the rational part when
        ``im == 0``; otherwise fills the slots directly, skipping the
        public constructor's normalisation pass.
        """
        if type(re) is Fraction and re.denominator == 1:
            re = re.numerator
        if not im:
            return re
        if type(im) is Fraction and im.denominator == 1:
            im = im.numerator
        g = _new(GaussianRational)
        _set_re(g, re)
        _set_im(g, im)
        return g

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return self._make(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return self._make(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return self._make(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return self._make(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._make(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return self._make(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return self._make(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            nrm = other.re * other.re + other.im * other.im
            return self._make(
                _rat_div(self.re * other.re + self.im * other.im, nrm),
                _rat_div(self.im * other.re - self.re * other.im, nrm),
            )
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("scalar division by zero")
            return self._make(_rat_div(self.re, other), _rat_div(self.im, other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other, 0) / self
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (1 / self) ** (-k)
        out = 1
        base = self
        while k:
            if k & 1:
                out = base * out
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return self._make(-self.re, -self.im)

    def __pos__(self):
        return self

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- comparison ------------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- misc --------------------------------------------------------------
    def conjugate(self):
        return self._make(self.re, -self.im)

    def __str__(self) -> str:
        return scalar_format(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__

Scalar = Union[int, Fraction, GaussianRational]


# Cleared rows: real parts, imaginary parts or None, and the row scales.
_IntParts = Tuple[List[List[int]], Optional[List[List[int]]], List[int]]


def _int_parts(rows: Sequence[Sequence[Scalar]]) -> _IntParts:
    """``rows`` with each row times the lcm of the denominators of its
    entries' parts, as new ``int`` lists of real parts and of imaginary
    parts (None when no entry is a ``GaussianRational``), and those row
    scales.  The entry types are scanned once; the split parts are rescanned
    for Fractions only when some entry is a ``GaussianRational``."""
    types = set(map(type, chain.from_iterable(rows)))
    parts = [rows]
    if GaussianRational in types:
        parts = [
            [[x.re if type(x) is GaussianRational else x for x in row] for row in rows],
            [[x.im if type(x) is GaussianRational else 0 for x in row] for row in rows],
        ]
        types = set(map(type, chain.from_iterable(chain.from_iterable(parts))))
    scales = [1] * len(rows)
    if Fraction in types:
        scales = [lcm(*[x.denominator for x in chain(*P)]) for P in zip(*parts)]
        parts = [[[x.numerator * (c // x.denominator) for x in row] for row, c in zip(P, scales)] for P in parts]
    elif parts[0] is rows:
        parts = [[list(row) for row in rows]]
    return parts[0], parts[1] if len(parts) == 2 else None, scales


def _scaled(re: int, im: int, scale: int) -> Scalar:
    """The scalar (re + im i) / scale."""
    if scale != 1:
        re, im = Fraction(re, scale), Fraction(im, scale) if im else 0
    return GaussianRational._make(re, im)


def _rat_div(a: Rat, b: Rat) -> Rat:
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return _norm_rat(Fraction(a) / Fraction(b))


def gaussian(re: Rat, im: Rat) -> Scalar:
    """Canonical constructor: demotes to a rational when im == 0."""
    return GaussianRational._make(re, im)


def div_exact(a: Scalar, b: Scalar) -> Scalar:
    """Field division that never touches floats (int/int stays exact)."""
    if not b:
        raise ZeroDivisionError("scalar division by zero")
    if isinstance(a, GaussianRational):
        return a / b
    if isinstance(b, GaussianRational):
        return GaussianRational(a, 0) / b
    return _rat_div(a, b)


def conj(x: Scalar) -> Scalar:
    if isinstance(x, GaussianRational):
        return x.conjugate()
    return x


def scalar_re(x: Scalar) -> Rat:
    return x.re if isinstance(x, GaussianRational) else x


def scalar_im(x: Scalar) -> Rat:
    return x.im if isinstance(x, GaussianRational) else 0


def is_rational(x: Scalar) -> bool:
    """True when x lies in Q (including Gaussian values with zero im part)."""
    return not isinstance(x, GaussianRational) or x.im == 0


def normalize_scalar(x: Scalar) -> Scalar:
    if isinstance(x, GaussianRational):
        return gaussian(x.re, x.im)
    return _norm_rat(x)


def is_perfect_square(x: Scalar) -> Optional[Rat]:
    """The nonnegative r in Q with r*r == x, or None.

    Only defined for rational x; Gaussian input is a usage error.
    """
    if isinstance(x, GaussianRational):
        if x.im != 0:
            raise TypeError("is_perfect_square expects a rational scalar")
        x = x.re
    f = Fraction(x)
    if f < 0:
        return None
    rn, rd = isqrt(f.numerator), isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return _norm_rat(Fraction(rn, rd))
    return None


def gaussian_sqrt(x: Scalar) -> Optional[Scalar]:
    """A square root of x inside Q(i), or None when no such element exists.

    Reduces to two rational perfect-square tests: r = u+vi has a root iff
    N = u^2+v^2 is a rational square s and (u+s)/2 is a rational square.
    """
    if is_rational(x):
        r = scalar_re(x)
        root = is_perfect_square(r if r >= 0 else -r)
        if root is None:
            return None
        return root if r >= 0 else gaussian(0, root)
    u, v = x.re, x.im
    s = is_perfect_square(u * u + v * v)
    if s is None:
        return None
    a = is_perfect_square(_rat_div(u + s, 2))
    if not a:
        return None
    b = _rat_div(v, 2 * a)
    root = gaussian(a, b)
    if root * root != x:
        return None
    return root


def sqrt_in_field(x: Scalar, field: str) -> Optional[Scalar]:
    if field == FIELD_Q:
        if not is_rational(x):
            return None
        return is_perfect_square(x)
    return gaussian_sqrt(x)


# -- text form -----------------------------------------------------------

_RAT_PAT = r"[+-]?[0-9]+(?:/[0-9]+)?"
_RE_REAL = _re.compile(rf"^({_RAT_PAT})$")
_RE_IMAG = _re.compile(r"^([+-]?)([0-9]+(?:/[0-9]+)?)?i(?:/([0-9]+))?$")
_RE_BOTH = _re.compile(rf"^({_RAT_PAT})([+-])([0-9]+(?:/[0-9]+)?)?i(?:/([0-9]+))?$")
_RE_SPLIT_DIGITS = _re.compile(r"[0-9]\s+[0-9]")


def _parse_rat(text: str) -> Rat:
    try:
        if "/" not in text:
            return int(text)
        return _norm_rat(Fraction(text))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ParseError(f"not a rational: {text!r}") from None


def scalar_parse(text: str, field: str = FIELD_QI) -> Scalar:
    """Parse ``[-]p[/q]`` or ``a+bi`` / ``a-bi`` (also bare ``bi``, ``i``).

    Digits are ASCII (a regex digit class and ``int`` read other scripts' too).
    Whitespace may stand around signs, ``/`` and ``i`` but not between two
    digits, which would join two numbers into one.
    With field="Q" any imaginary part is rejected.
    """
    if not isinstance(text, str):
        raise ParseError(f"scalar must be a string, got {type(text).__name__}")
    s = "".join(text.split())
    if len(s) != len(text) and _RE_SPLIT_DIGITS.search(text):
        raise ParseError(f"whitespace between digits in {text!r}")
    if not s:
        raise ParseError("empty scalar")
    m = _RE_REAL.match(s)
    if m:
        return _parse_rat(m.group(1))
    def _imag_mag(num: Optional[str], den: Optional[str]) -> Rat:
        if num and den and "/" in num:
            raise ParseError(f"malformed scalar: {text!r}")
        mag: Rat = _parse_rat(num) if num else 1
        if den:
            if den == "0" or int(den) == 0:
                raise ParseError(f"zero denominator in {text!r}")
            mag = _norm_rat(Fraction(mag, int(den)))
        return mag

    m = _RE_IMAG.match(s)
    if m:
        mag = _imag_mag(m.group(2), m.group(3))
        value = gaussian(0, -mag if m.group(1) == "-" else mag)
    else:
        m = _RE_BOTH.match(s)
        if not m:
            raise ParseError(f"malformed scalar: {text!r}")
        re_part = _parse_rat(m.group(1))
        mag = _imag_mag(m.group(3), m.group(4))
        value = gaussian(re_part, -mag if m.group(2) == "-" else mag)
    if field == FIELD_Q and not is_rational(value):
        raise ParseError(f"imaginary entry {text!r} not allowed over Q")
    return value


def scalar_format(x: Scalar) -> str:
    """Canonical text form; round-trips through scalar_parse."""
    if isinstance(x, GaussianRational):
        if x.im == 0:
            return str(x.re)
        mag = x.im if x.im > 0 else -x.im
        imag = "i" if mag == 1 else f"{mag}i"
        if x.re == 0:
            return imag if x.im > 0 else f"-{imag}"
        sign = "+" if x.im > 0 else "-"
        return f"{x.re}{sign}{imag}"
    return str(_norm_rat(x))

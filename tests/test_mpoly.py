"""Sparse multiaffine polynomial arithmetic and text forms."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmfiber import (
    ExactDivisionError,
    GaussianRational,
    MPoly,
    affine_resultant,
    gaussian,
    poly_subset_map,
    poly_text,
    rayleigh_difference,
)
import pmfiber.mpoly as mpoly
from pmfiber.mpoly import (
    SlotLayout,
    exact_divide,
    pack,
    packed_product_terms,
    product_sum,
)

import oracles
from conftest import linear, poly_of


def test_construction_drops_zeros():
    p = MPoly(2, {(1, 0): 3, (0, 1): 0})
    assert p.terms == {(1, 0): 3}
    assert MPoly.const(2, 0).is_zero()
    assert not MPoly.zero(3)


def test_wrong_exponent_length():
    with pytest.raises(ValueError):
        MPoly(2, {(1, 0, 0): 1})


@pytest.mark.parametrize("exp", [(-1, 0), (0, -2), (1.0, 0), (Fraction(1), 0), ("1", 0)])
def test_rejects_negative_or_non_integer_exponents(exp):
    with pytest.raises(ValueError):
        MPoly(2, {exp: 1})


def test_no_cap_on_the_variable_count():
    p = MPoly.var(17, 0) * MPoly.var(17, 16)
    assert p.terms == {(1,) + (0,) * 15 + (1,): 1}
    with pytest.raises(ValueError):
        MPoly(-1)


def test_add_mul_basics():
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    p = (x + 1) * (y + 2)
    assert p == poly_of(2, {(0, 1): 1, (0,): 2, (1,): 1, (): 2})
    assert p - p == MPoly.zero(2)
    assert (x + y) * 0 == MPoly.zero(2)
    assert 3 * x == poly_of(2, {(0,): 3})
    assert (x * x).is_multiaffine() is False
    assert p.is_multiaffine() is True


def test_substitute_and_evaluate():
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    p = x * y + 2 * x - y + 5
    assert p.substitute(0, 3) == 3 * y + 6 - y + 5
    assert p.evaluate([Fraction(1, 2), 4]) == Fraction(1, 2) * 4 + 1 - 4 + 5
    q = p.substitute(0, gaussian(0, 1))
    assert q.coefficient((0, 1)) == gaussian(0, 1) - 1


def test_derivative():
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    p = x * y + 3 * x + 7
    assert p.derivative(0) == y + 3
    assert p.derivative(1) == x
    assert p.derivative(1).derivative(0) == MPoly.const(2, 1)


def test_exact_divide_recovers_factor():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 4)
        a = poly_of(
            n,
            {
                (): rng.randint(-4, 4) or 1,
                (rng.randrange(n),): rng.randint(1, 3),
            },
        )
        b = poly_of(
            n,
            {
                (): rng.randint(-4, 4),
                tuple(sorted(rng.sample(range(n), 2))): rng.randint(-3, 3) or 2,
            },
        )
        assert exact_divide(a * b, a) == b
        assert exact_divide(a * b, b) == a


def test_exact_divide_rejects_remainder():
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    with pytest.raises(ExactDivisionError):
        exact_divide(x * y + 1, x + 1)
    with pytest.raises(ZeroDivisionError):
        exact_divide(x, MPoly.zero(2))


def test_rayleigh_difference_known_value():
    # f = (x1 + a)(x2 + d) - bc expands det([[x1+a, b], [c, x2+d]]);
    # the mixed difference is d_1 f * d_2 f - f * d_1 d_2 f = bc.
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    f = (x + 3) * (y - 2) - MPoly.const(2, 10)
    assert rayleigh_difference(f, 0, 1) == MPoly.const(2, 10)


def test_a_polynomial_equal_to_a_scalar_hashes_as_that_scalar():
    # MPoly.const(2, 5) == 5 held while the two hashed apart: a set kept both,
    # and a dict keyed by 0 missed the zero polynomial.
    for c in (5, 0, Fraction(-1, 2), gaussian(1, 2)):
        for n in (0, 3):
            p = MPoly.const(n, c)
            assert p == c and hash(p) == hash(c) and len({p, c}) == 1
    assert {0: "a"}.get(MPoly.zero(3)) == "a"
    x = MPoly.var(2, 0)
    assert hash(x + 5) == hash(MPoly(2, {(0, 0): 5, (1, 0): 1})) and x + 5 != 5


def test_affine_resultant_known_value():
    # res_k(g, h) = g|_{x_k=0} * d_k h - h|_{x_k=0} * d_k g on multiaffine input.
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    g = x * y + 2 * x + 1  # g|_{x2=0} = 2x+1, d_2 g = x
    h = 3 * y + x  # h|_{x2=0} = x,    d_2 h = 3
    assert affine_resultant(g, h, 1) == (2 * x + 1) * 3 - x * x


def test_poly_text_golden():
    x, y = MPoly.var(3, 0), MPoly.var(3, 1)
    z = MPoly.var(3, 2)
    assert poly_text(MPoly.zero(3)) == "0"
    assert poly_text(MPoly.const(3, -7)) == "-7"
    assert poly_text(x * y - z + 1) == "x1*x2 - x3 + 1"
    assert poly_text(-2 * x * y * z) == "-2*x1*x2*x3"
    assert poly_text(x * x + x) == "x1^2 + x1"
    assert poly_text(x + y) == "x1 + x2"


def test_poly_text_gaussian_coefficients():
    x = MPoly.var(1, 0)
    p = gaussian(0, 1) * x + gaussian(1, -1)
    text = poly_text(p)
    assert "i" in text and "x1" in text


COEFFS = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    st.builds(
        gaussian,
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)),
    ),
)


@st.composite
def poly_lists(draw):
    """Lists of 1..6 polynomials in one n = 0..8 variables.  Each polynomial
    is multiaffine or has exponents up to 3, and its coefficients are drawn
    from COEFFS, from the ints -4..4 or from +-1; its exponents come from a
    pool shared by the list, which holds the constant term, or are drawn
    afresh.  Empty draws give the zero polynomial."""
    n = draw(st.integers(0, 8))
    exponents = {top: st.tuples(*[st.integers(0, top)] * n) for top in (1, 3)}
    pool = draw(st.lists(exponents[3] | exponents[1], max_size=10)) + [(0,) * n]
    polys = []
    for _ in range(draw(st.integers(1, 6))):
        top = draw(st.sampled_from([1, 3]))
        coeff = draw(st.sampled_from([COEFFS, st.integers(-4, 4), st.sampled_from([1, -1])]))
        terms = draw(st.dictionaries(st.sampled_from(pool) | exponents[top], coeff, max_size=12))
        polys.append(MPoly(n, terms))
    return polys


@settings(max_examples=300, deadline=None, derandomize=True)
@given(poly_lists())
def test_poly_text_matches_reference(polys):
    expected = [oracles.poly_text_reference(p.terms, p.n) for p in polys]
    assert [poly_text(p) for p in polys] == expected


def _text_by_degree_then_exponent(terms, names):
    """Canonical text written independently of ``poly_text``: terms sorted
    by the key (degree, exponent), descending; each term's sign, its
    coefficient (a non-real one in parentheses after a plus) and its
    factors written out in full."""
    if not terms:
        return "0"
    pieces = []
    for exp in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        c = terms[exp]
        re, im = (c.re, c.im) if isinstance(c, GaussianRational) else (c, 0)
        if im:
            imag = ("-" if im < 0 else "") + ("" if abs(im) == 1 else str(abs(im))) + "i"
            negative, body = False, "(" + (f"{re}{'' if im < 0 else '+'}{imag}" if re else imag) + ")"
        else:
            negative, body = re < 0, str(abs(re))
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e]
        if factors:
            body = "*".join(factors if body == "1" else [body] + factors)
        if not pieces:
            pieces.append("-" + body if negative else body)
        else:
            pieces.append(("- " if negative else "+ ") + body)
    return " ".join(pieces)


@st.composite
def wide_poly_lists(draw):
    """Lists of 1..4 polynomials in one n = 0..20 variables: squarefree or
    with exponents up to 3, int, Fraction or Q(i) coefficients.  Above n = 8
    each holds at most 6 terms, so the polynomials above the ``det_poly``
    cap are sparse."""
    n = draw(st.integers(0, 20))
    top = draw(st.sampled_from([1, 3]))
    exps = st.tuples(*[st.integers(0, top)] * n)
    coeff = draw(st.sampled_from([st.integers(-4, 4), st.sampled_from([1, -1]), COEFFS]))
    size = 30 if n <= 8 else 6
    return [MPoly(n, draw(st.dictionaries(exps, coeff, max_size=size))) for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wide_poly_lists())
def test_poly_text_matches_an_independent_formatter(polys):
    names = [f"x{k + 1}" for k in range(polys[0].n)]
    expected = [_text_by_degree_then_exponent(p.terms, names) for p in polys]
    assert [poly_text(p) for p in polys] == expected


def test_poly_text_above_the_det_poly_cap_builds_no_subset_table():
    n = 40
    p = MPoly.var(n, 0) * MPoly.var(n, 39) - 2 * MPoly.var(n, 17)
    before = mpoly.subset_table.cache_info()
    assert poly_text(p) == "x1*x40 - 2*x18"
    assert poly_text(p * p) == "x1^2*x40^2 - 4*x1*x18*x40 + 4*x18^2"
    assert mpoly.subset_table.cache_info() == before


def test_poly_subset_map_golden():
    p = poly_of(3, {(): 4, (0,): -1, (0, 2): Fraction(1, 2)})
    assert poly_subset_map(p) == {"": "4", "1": "-1", "1,3": "1/2"}
    with pytest.raises(ValueError):
        poly_subset_map(MPoly.var(1, 0) * MPoly.var(1, 0))


def test_immutability():
    p = MPoly.var(2, 0)
    with pytest.raises(AttributeError):
        p.n = 3


def _assert_canonical(p):
    for exp, c in p.terms.items():
        assert type(exp) is tuple and len(exp) == p.n
        assert all(type(e) is int and e >= 0 for e in exp)
        assert c, exp
        if isinstance(c, GaussianRational):
            assert c.im != 0, exp
            parts = (c.re, c.im)
        else:
            parts = (c,)
        assert all(type(x) is int or x.denominator != 1 for x in parts), (exp, c)


def _check_product(p, q):
    prod = p * q
    assert prod.n == p.n
    _assert_canonical(prod)
    got = {exp: oracles.to_pair(c) for exp, c in prod.terms.items()}
    assert got == oracles.poly_mul_pairs(p.terms, q.terms)
    return prod


def _random_coeff(rng, kind):
    if kind == "mixed":
        kind = rng.choice(("int", "frac", "gauss"))
    if kind == "int":
        return rng.randint(-3, 3)
    if kind == "frac":
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return gaussian(Fraction(rng.randint(-2, 2), rng.randint(1, 2)), rng.randint(-2, 2))


def _random_poly(rng, n, kind, max_exp):
    terms = {}
    for _ in range(rng.randint(0, 7)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[exp] = _random_coeff(rng, kind)
    return MPoly(n, terms)


@pytest.mark.parametrize("kind", ["int", "frac", "gauss", "mixed"])
def test_product_matches_naive_reference(kind):
    rng = random.Random(2024)
    for n in (0, 1, 2, 3, 5):
        for max_exp in (1, 3, 4):
            for _ in range(30):
                p = _random_poly(rng, n, kind, max_exp)
                q = _random_poly(rng, n, rng.choice((kind, "mixed")), max_exp)
                _check_product(p, q)


def test_product_exponent_sums_across_field_widths():
    x = MPoly.var(1, 0)
    for a, b in [(3, 1), (4, 4), (7, 1), (128, 127), (255, 1), (200, 100), (300, 300)]:
        p = MPoly(1, {(a,): 2, (0,): gaussian(1, 1)})
        q = MPoly(1, {(b,): Fraction(1, 3), (1,): -1})
        prod = _check_product(p, q)
        assert prod.degree(0) == a + b
    y = MPoly.var(2, 1)
    xy = MPoly(2, {(3, 0): 1, (0, 4): 1})
    assert _check_product(xy, xy).terms == {(6, 0): 1, (3, 4): 2, (0, 8): 1}
    assert (x * x * x).terms == {(3,): 1}
    assert _check_product(y, MPoly.const(2, 5)).terms == {(0, 1): 5}


def test_product_cancellation_and_demotion():
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    i = gaussian(0, 1)
    # the cross term cancels
    assert _check_product(x + y, x - y) == x * x - y * y
    # Gaussian coefficients whose sums are rational come back as rationals
    prod = _check_product(x + i, x - i)
    assert prod.terms == {(2, 0): 1, (0, 0): 1}
    assert all(type(c) is int for c in prod.terms.values())
    prod = _check_product((1 + i) * x + y, (1 - i) * y)
    assert prod.terms == {(1, 1): 2, (0, 2): gaussian(1, -1)}
    # Fraction products that are integral come back as ints
    half = Fraction(1, 2)
    prod = _check_product(half * x + Fraction(3, 2), 2 * y + Fraction(2, 3))
    assert prod.terms == {(1, 1): 1, (1, 0): Fraction(1, 3), (0, 1): 3, (0, 0): 1}
    assert type(prod.terms[(1, 1)]) is int
    # a zero factor, in either place
    assert _check_product(x + i, MPoly.zero(2)).is_zero()
    assert _check_product(MPoly.zero(2), x).is_zero()
    # n = 0: products of constants
    assert _check_product(MPoly.const(0, i), MPoly.const(0, i)).terms == {(): -1}


def test_rayleigh_difference_matches_its_definition():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 4)
        i, j = rng.sample(range(n), 2)
        p = _random_poly(rng, n, "mixed", 3)
        f = MPoly(
            n,
            {
                tuple(min(e, 1) if k in (i, j) else e for k, e in enumerate(exp)): c
                for exp, c in p.terms.items()
            },
        )
        di, dj = f.derivative(i), f.derivative(j)
        assert rayleigh_difference(f, i, j) == di * dj - f * di.derivative(j)


def test_subtraction_matches_adding_the_negation():
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    i = gaussian(0, 1)
    p = 3 * x * y + (1 + i) * x - Fraction(1, 2)
    q = (2 - i) * y + (1 + i) * x + 7
    for a, b in ((p, q), (q, p), (p, MPoly.zero(2)), (MPoly.zero(2), p), (x, y)):
        assert (a - b).terms == (a + (-b)).terms
    # exact cancellation leaves no zero coefficients behind
    assert (p - p).terms == {}
    assert ((p + q) - q).terms == p.terms
    assert (i * x - i * x).is_zero()
    # Q(i) differences that turn rational come back as rationals
    diff = ((1 + i) * x) - (i * x)
    assert diff.terms == {(1, 0): 1} and type(diff.terms[(1, 0)]) is int
    # scalar operands on either side
    assert (p - 2).terms == (p + MPoly.const(2, -2)).terms
    assert (p - i).terms == (p + (-MPoly.const(2, i))).terms
    assert (2 - p).terms == (MPoly.const(2, 2) + (-p)).terms
    assert (p - Fraction(-1, 2)).terms == {(1, 1): 3, (1, 0): 1 + i}
    with pytest.raises(ValueError):
        x - MPoly.var(3, 0)


# -- sums, derivatives and substitution against the naive oracle -----------------


@st.composite
def operand_pairs(draw):
    """Two raw term dicts in 1..3 variables (zero coefficients kept), with
    exponents 0..3 so that terms meet, the second sometimes holding the
    negation of all or some of the first's terms; a variable index; and a
    substitution value, zero of any scalar type or not."""
    n = draw(st.integers(1, 3))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), COEFFS, max_size=8)
    p, q = draw(terms), draw(terms)
    twins = draw(st.sampled_from(("none", "all", "some")))
    for exp, c in p.items():
        if twins == "all" or twins == "some" and draw(st.booleans()):
            q[exp] = -c
    k = draw(st.integers(0, n - 1))
    value = draw(st.sampled_from((0, Fraction(0), gaussian(0, 0))) | COEFFS)
    return n, p, q, k, value


@settings(max_examples=300, deadline=None, derandomize=True)
@given(operand_pairs())
def test_sums_derivatives_and_substitution_match_the_naive_oracle(drawn):
    n, p_terms, q_terms, k, value = drawn
    p, q = MPoly(n, p_terms), MPoly(n, q_terms)

    def pairs(r):
        assert r.n == n
        assert all(type(e) is tuple and len(e) == n for e in r.terms)
        assert all(r.terms.values())
        return {exp: oracles.to_pair(c) for exp, c in r.terms.items()}

    assert pairs(p + q) == oracles.poly_combine_pairs(p_terms, q_terms, 1)
    assert pairs(p - q) == oracles.poly_combine_pairs(p_terms, q_terms, -1)
    assert pairs(-p) == oracles.poly_combine_pairs({}, p_terms, -1)
    assert pairs(p - value) == oracles.poly_combine_pairs(p_terms, {(0,) * n: value}, -1)
    assert pairs(p.derivative(k)) == oracles.poly_derivative_pairs(p_terms, k)
    assert pairs(p.substitute(k, value)) == oracles.poly_substitute_pairs(p_terms, k, value)
    # no operation changes its operands
    assert p.terms == MPoly(n, p_terms).terms and q.terms == MPoly(n, q_terms).terms


# -- the signed product sum --------------------------------------------------------


BIG = st.integers(-(2**200), 2**200)


@st.composite
def signed_pairs(draw):
    """n in 0..5 (fewer variables than the kernel's slots, and more) and up
    to four signed pairs of raw term dicts (zero coefficients kept);
    exponents 0..3, or in some sums also 128..300, so that sums reach the
    bit-shift packing and a radix with room for no slot; coefficients
    small, ints up to 2**200, Fractions and Gaussians with Fraction parts;
    sometimes a pair is followed by its cancelling twin."""
    n = draw(st.integers(0, 5))
    exponent = st.integers(0, 3)
    if draw(st.booleans()):
        exponent = exponent | st.integers(128, 300)
    exps = st.tuples(*[exponent] * n)
    coeffs = st.integers(-4, 4) | COEFFS | BIG | st.builds(Fraction, BIG, st.integers(1, 2**20))
    terms = st.dictionaries(exps, coeffs, max_size=6)
    pairs = draw(st.lists(st.tuples(st.sampled_from((1, -1)), terms, terms), max_size=4))
    if pairs and draw(st.booleans()):
        sign, p, q = draw(st.sampled_from(pairs))
        pairs.append((-sign, q, p))
    return n, pairs


def _signed_oracle_sum(pairs):
    total = {}
    for sign, p, q in pairs:
        for exp, (re, im) in oracles.poly_mul_pairs(p, q).items():
            old = total.get(exp, (0, 0))
            total[exp] = (old[0] + sign * re, old[1] + sign * im)
    return {exp: c for exp, c in total.items() if c != (0, 0)}


@settings(max_examples=250, deadline=None, derandomize=True)
@given(signed_pairs())
def test_product_sum_equals_the_sum_of_separate_products(drawn):
    n, pairs = drawn
    polys = [(sign, MPoly(n, p), MPoly(n, q)) for sign, p, q in pairs]
    got = product_sum(n, polys)
    _assert_canonical(got)
    separate = MPoly.zero(n)
    for sign, p, q in polys:
        separate = separate + p * q if sign > 0 else separate - p * q
    assert got == separate
    # the kernel on the raw term dicts, zero coefficients kept
    raw = iter(pack([MPoly._raw(n, t) for _, p, q in pairs for t in (p, q)]))
    raw_pairs = [(sign, next(raw), next(raw)) for sign, _, _ in pairs]
    assert packed_product_terms(n, raw_pairs) == got.terms
    assert {exp: oracles.to_pair(c) for exp, c in got.terms.items()} == _signed_oracle_sum(pairs)


def test_kernel_reads_i_blocks_exactly(monkeypatch):
    x = MPoly.var(1, 0)
    i = gaussian(0, 1)
    # blocks N0 and N2 are both x^2, and cancel only under the fold, which
    # finds the sum zero without reading a digit
    with monkeypatch.context() as patched:
        patched.setattr(mpoly, "_balanced_digits", None)
        assert product_sum(1, [(1, x, x), (1, i * x, i * x)]).is_zero()
    # only the real part cancels, or only the imaginary part
    assert product_sum(1, [(1, (1 + i) * x, (1 + i) * x)]).terms == {(2,): gaussian(0, 2)}
    assert product_sum(1, [(1, (1 + i) * x, (1 - i) * x)]).terms == {(2,): 2}
    assert product_sum(1, [(1, x, x), (1, i * x, i * x), (1, i * x, x)]).terms == {(2,): i}
    assert product_sum(1, [(1, i * x, x), (-1, x, i * x), (1, x, x)]).terms == {(2,): 1}
    # digits at the edge of the bound, of both signs, in every block
    edge = 2**64 - 1
    p = MPoly(2, {(a, b): edge * (-1) ** (a + b) for a in range(2) for b in range(2)})
    q = MPoly(2, {(a, b): gaussian(edge, -edge) for a in range(2) for b in range(2)})
    for sum_pairs in ([(1, p, p)], [(1, p, q), (-1, q, p)], [(1, q, q), (1, p, q)]):
        expected = _signed_oracle_sum([(sign, a.terms, b.terms) for sign, a, b in sum_pairs])
        got = product_sum(2, sum_pairs)
        assert {exp: oracles.to_pair(c) for exp, c in got.terms.items()} == expected


def test_layout_slices_match_mpoly_at_the_digit_edge():
    """Every coefficient of a squarefree p at +-(2**(b-2) - 1), above the
    bound that sets b, in every slot and, over Q(i), in both blocks: for
    every k, in and above the slot variables, x_k = 0 and d/dx_k taken from
    p's slot ints, and the slices of those, are the slot ints of the same
    slices taken with ``MPoly.substitute`` and ``MPoly.derivative``."""
    rng = random.Random(29)
    for gauss in (False, True):
        for n in range(1, 6):
            layout = SlotLayout(n, 8, gauss, 2**40 - 1)
            assert (layout.s, layout.b) == (min(n, 2 if gauss else 3), 43 if gauss else 42)
            edge = (1 << layout.b - 2) - 1

            def part():
                return rng.choice((edge, -edge))

            p = MPoly(n, {exp: gaussian(part(), part()) if gauss else part() for exp in product((0, 1), repeat=n)})
            slices = {(): p}
            for k in range(n):
                slices[k, "0"], slices[k, "d"] = p.substitute(k, 0), p.derivative(k)
                for j in range(n):
                    for how, q in (("0", slices[k, "0"]), ("d", slices[k, "d"])):
                        slices[k, how, j, "0"], slices[k, how, j, "d"] = q.substitute(j, 0), q.derivative(j)
            encoded = dict(zip(slices, (layout.encode(q, 1) for q in pack(list(slices.values())))))
            take = {"0": layout.restrict, "d": layout.derivative}
            for key, want in encoded.items():
                got = encoded[()]
                for k, how in zip(key[::2], key[1::2]):
                    got = take[how](got, k)
                assert dict(got) == dict(want), (gauss, n, key)


def test_packed_kernel_rejects_operands_of_mixed_width():
    (small,) = pack([MPoly.var(2, 0)])
    (big,) = pack([MPoly(2, {(200, 0): 1})])
    with pytest.raises(ValueError):
        packed_product_terms(2, [(1, small, big)])
    assert packed_product_terms(2, [(1, small, small)]) == {(2, 0): 1}


def test_product_sum_edge_cases():
    x, y = MPoly.var(2, 0), MPoly.var(2, 1)
    i = gaussian(0, 1)
    p, q = (1 + i) * x + Fraction(1, 2), 3 * y - i
    # pairs that cancel leave the zero polynomial
    assert product_sum(2, [(1, p, q), (-1, q, p)]).terms == {}
    assert product_sum(2, [(1, x + y, x - y), (-1, x, x), (1, y, y)]).terms == {}
    # Q(i) terms whose imaginary parts cancel come back rational
    prod = product_sum(2, [(1, i * x, i * y), (-1, i * x, i * y - 1)])
    assert prod.terms == {(1, 0): i}
    prod = product_sum(2, [(1, (1 + i) * x, (1 - i) * y), (-1, i * x, y)])
    assert prod.terms == {(1, 1): gaussian(2, -1)}
    prod = product_sum(2, [(1, (1 + i) * x, y), (-1, i * x, y)])
    assert prod.terms == {(1, 1): 1} and type(prod.terms[(1, 1)]) is int
    # empty operands and no pairs at all
    assert product_sum(2, [(1, MPoly.zero(2), p), (-1, q, MPoly.zero(2))]).is_zero()
    assert product_sum(2, []).is_zero()
    assert product_sum(2, [(1, MPoly.zero(2), p), (-1, x, y)]).terms == {(1, 1): -1}
    # n = 0: sums of products of constants
    c = MPoly.const(0, i)
    assert product_sum(0, [(1, c, c), (1, c, MPoly.const(0, 3))]).terms == {(): gaussian(-1, 3)}
    assert product_sum(0, [(1, c, c), (-1, c, c)]).is_zero()
    # exponent sums of 256 and more take the bit-shift packing
    big = MPoly(2, {(200, 1): 2, (0, 255): i})
    small = MPoly(2, {(56, 1): 1, (1, 0): -1})
    got = product_sum(2, [(1, big, small), (-1, small, big), (1, big, big)])
    assert got == big * big and got.degree(0) == 400 and got.degree(1) == 510
    assert product_sum(2, [(1, big, small), (-1, x, y)]).terms == {
        (256, 2): 2, (201, 1): -2, (56, 256): i, (1, 255): -i, (1, 1): -1
    }
    with pytest.raises(ValueError):
        product_sum(3, [(1, x, y)])

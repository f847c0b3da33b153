"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: scalars are (re, im) pairs of
Fractions with hand-rolled arithmetic, determinants are permutation sums
with inversion-count signs.  Nothing imports the package's algorithms, so
an agreement between the two is meaningful.
"""

from fractions import Fraction
from itertools import combinations, permutations

Pair = tuple  # (Fraction, Fraction) meaning re + im*i


def to_pair(x) -> Pair:
    """Convert an int/Fraction or any object exposing .re/.im to a pair.

    Already-converted pairs pass through unchanged.
    """
    if isinstance(x, tuple):
        return x
    re = getattr(x, "re", None)
    if re is not None:
        return (Fraction(x.re), Fraction(x.im))
    return (Fraction(x), Fraction(0))


def cadd(a: Pair, b: Pair) -> Pair:
    return (a[0] + b[0], a[1] + b[1])


def cmul(a: Pair, b: Pair) -> Pair:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cneg(a: Pair) -> Pair:
    return (-a[0], -a[1])


ZERO: Pair = (Fraction(0), Fraction(0))
ONE: Pair = (Fraction(1), Fraction(0))


def perm_sign(p) -> int:
    inv = sum(1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b])
    return -1 if inv % 2 else 1


def det_perm(rows) -> Pair:
    """Determinant as the full permutation sum over pair arithmetic."""
    n = len(rows)
    grid = [[to_pair(x) for x in row] for row in rows]
    total = ZERO
    for p in permutations(range(n)):
        term = (Fraction(perm_sign(p)), Fraction(0))
        for i in range(n):
            term = cmul(term, grid[i][p[i]])
            if term == ZERO:
                break
        total = cadd(total, term)
    return total


def minor_pair(rows, subset) -> Pair:
    idx = sorted(subset)
    if not idx:
        return ONE
    sub = [[rows[i][j] for j in idx] for i in idx]
    return det_perm(sub)


def all_principal_minors(rows):
    """Map frozenset -> pair, one entry per subset of 0..n-1."""
    n = len(rows)
    out = {}
    for mask in range(1 << n):
        subset = [k for k in range(n) if mask >> k & 1]
        out[frozenset(subset)] = minor_pair(rows, subset)
    return out


def pencil_at_point(rows, xs) -> Pair:
    """det(diag(xs) + A) evaluated numerically."""
    n = len(rows)
    grid = [[to_pair(rows[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        grid[i][i] = cadd(grid[i][i], to_pair(xs[i]))
    return det_perm(grid)


def adjugate_entry_at_point(rows, xs, i, j) -> Pair:
    """adj(diag(xs) + A)[i][j] = (-1)^(i+j) det(M with row j, column i deleted)."""
    n = len(rows)
    grid = [[to_pair(rows[r][c]) for c in range(n)] for r in range(n)]
    for r in range(n):
        grid[r][r] = cadd(grid[r][r], to_pair(xs[r]))
    sub = [
        [grid[r][c] for c in range(n) if c != i] for r in range(n) if r != j
    ]
    value = det_perm(sub) if sub else ONE
    return cneg(value) if (i + j) % 2 else value


def adjugate_coefficients(rows):
    """Every coefficient of adj(diag(x) + A), as {(i, j, S): pair} for the
    subsets S (sorted tuples) free of i and j: the coefficient of
    prod_{k in S} x_k in entry (i, j) is entry (i, j) of adj(A[U, U]) for U
    the indices outside S, read off one ``adjugate_at_point`` of that
    principal submatrix at x = 0 per S."""
    n = len(rows)
    out = {}
    for size in range(n + 1):
        for S in combinations(range(n), size):
            U = [k for k in range(n) if k not in S]
            adj = adjugate_at_point([[rows[r][c] for c in U] for r in U], [0] * len(U))
            for a, i in enumerate(U):
                for b, j in enumerate(U):
                    out[i, j, S] = adj[a][b]
    return out


def adjugate_at_point(rows, xs):
    """adj(diag(xs) + A) as an n x n grid of pairs, from one permutation sum:
    adj[i][j] is the cofactor of M[j][i], so it collects, from each
    permutation p with p(j) = i, sign(p) times the product of M[r][p(r)]
    over the rows r != j."""
    n = len(rows)
    grid = [[to_pair(rows[r][c]) for c in range(n)] for r in range(n)]
    for r in range(n):
        grid[r][r] = cadd(grid[r][r], to_pair(xs[r]))
    adj = [[ZERO] * n for _ in range(n)]
    for p in permutations(range(n)):
        factors = [grid[r][p[r]] for r in range(n)]
        if sum(f == ZERO for f in factors) > 1:
            continue
        before = [(Fraction(perm_sign(p)), Fraction(0))]  # sign times the factors above row r
        for f in factors:
            before.append(cmul(before[-1], f))
        after = ONE  # the factors below row r
        for r in reversed(range(n)):
            adj[p[r]][r] = cadd(adj[p[r]][r], cmul(before[r], after))
            after = cmul(after, factors[r])
    return adj


def cinv(a: Pair) -> Pair:
    norm = a[0] * a[0] + a[1] * a[1]
    return (a[0] / norm, -a[1] / norm)


def scaling_exists(a_rows, b_rows, positive=False) -> bool:
    """Is there a diagonal d, every d_i nonzero, with b_ij = d_i a_ij / d_j?

    The cycle test, with no search tree: the two supports and diagonals
    agree, and around every cycle of the undirected support graph the
    ratios d_i / d_j multiply to 1.  An edge from i to j reads that ratio
    as b_ij / a_ij, or as a_ji / b_ji through the reverse edge; where both
    edges exist the two readings (a cycle of length 2) must agree.  With
    ``positive``, every ratio must also be a positive rational, which is
    what a solution with every d_i > 0 needs.  Simple cycles are
    enumerated as vertex sequences, so this is for n <= 5.
    """
    n = len(a_rows)
    a = [[to_pair(x) for x in row] for row in a_rows]
    b = [[to_pair(x) for x in row] for row in b_rows]
    if any((a[i][j] == ZERO) != (b[i][j] == ZERO) for i in range(n) for j in range(n)):
        return False
    if any(a[i][i] != b[i][i] for i in range(n)):
        return False
    ratio = {}
    for i in range(n):
        for j in range(n):
            readings = set()
            if i != j and a[i][j] != ZERO:
                readings.add(cmul(b[i][j], cinv(a[i][j])))
            if i != j and a[j][i] != ZERO:
                readings.add(cmul(a[j][i], cinv(b[j][i])))
            if len(readings) > 1:
                return False
            if readings:
                (ratio[i, j],) = readings
    if positive and any(r[1] != 0 or r[0] <= 0 for r in ratio.values()):
        return False
    for k in range(3, n + 1):
        for cycle in permutations(range(n), k):
            edges = list(zip(cycle, cycle[1:] + cycle[:1]))
            if cycle[0] != min(cycle) or any(e not in ratio for e in edges):
                continue
            product = ONE
            for e in edges:
                product = cmul(product, ratio[e])
            if product != ONE:
                return False
    return True


def rank_gauss(rows) -> int:
    """Row-reduction rank over exact pair arithmetic."""
    grid = [[to_pair(x) for x in row] for row in rows]
    if not grid:
        return 0
    ncols = len(grid[0])
    rank = 0
    col = 0
    while rank < len(grid) and col < ncols:
        pivot = next(
            (r for r in range(rank, len(grid)) if grid[r][col] != ZERO), None
        )
        if pivot is None:
            col += 1
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        pr_inv = cinv(grid[rank][col])
        for r in range(rank + 1, len(grid)):
            factor = cmul(grid[r][col], pr_inv)
            if factor == ZERO:
                continue
            for c in range(col, ncols):
                grid[r][c] = cadd(grid[r][c], cneg(cmul(factor, grid[rank][c])))
        rank += 1
        col += 1
    return rank


def poly_mul_pairs(p_terms, q_terms):
    """Product of two {exponent tuple: scalar} maps as {exponent tuple: pair}.

    Exponent tuples add entrywise, coefficients multiply as pairs, and
    monomials whose coefficients sum to zero are dropped.
    """
    out = {}
    for e1, c1 in p_terms.items():
        for e2, c2 in q_terms.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            out[exp] = cadd(out.get(exp, ZERO), cmul(to_pair(c1), to_pair(c2)))
    return {exp: c for exp, c in out.items() if c != ZERO}


def _collect(items):
    """Sum (exponent tuple, scalar or pair) items into {exponent tuple: pair},
    dropping the monomials whose coefficients sum to zero."""
    out = {}
    for exp, c in items:
        out[exp] = cadd(out.get(exp, ZERO), to_pair(c))
    return {exp: c for exp, c in out.items() if c != ZERO}


def poly_combine_pairs(p_terms, q_terms, sign):
    """p + sign*q (sign 1 or -1) of two {exponent tuple: scalar} maps."""
    q_items = ((exp, cmul((Fraction(sign), Fraction(0)), to_pair(c))) for exp, c in q_terms.items())
    return _collect(list(p_terms.items()) + list(q_items))


def poly_derivative_pairs(terms, k):
    """d/dx_k of a {exponent tuple: scalar} map, monomial by monomial:
    c*x^e becomes e*c*x^(e-1), and constants in x_k vanish."""
    return _collect(
        (exp[:k] + (exp[k] - 1,) + exp[k + 1 :], cmul((Fraction(exp[k]), Fraction(0)), to_pair(c)))
        for exp, c in terms.items()
        if exp[k]
    )


def poly_substitute_pairs(terms, k, value):
    """A {exponent tuple: scalar} map with x_k set to value, monomial by
    monomial: c*x_k^e becomes c*value^e (repeated multiplication) times the
    same monomial without x_k."""
    items = []
    for exp, c in terms.items():
        term = to_pair(c)
        for _ in range(exp[k]):
            term = cmul(term, to_pair(value))
        items.append((exp[:k] + (0,) + exp[k + 1 :], term))
    return _collect(items)


def scalar_text(x) -> str:
    """Canonical text of a scalar, read off its pair: p, p/q, bi, a+bi, a-bi."""
    re, im = to_pair(x)
    if not im:
        return str(re)
    mag = abs(im)
    imag = "i" if mag == 1 else f"{mag}i"
    if not re:
        return imag if im > 0 else f"-{imag}"
    return f"{re}{'+' if im > 0 else '-'}{imag}"


def _grlex_key(exp):
    return (-sum(exp), tuple(-e for e in exp))


def _monomial_text(exp, names) -> str:
    parts = []
    for k, e in enumerate(exp):
        if e == 1:
            parts.append(names[k])
        elif e > 1:
            parts.append(f"{names[k]}^{e}")
    return "*".join(parts)


def poly_text_reference(terms, n, names=None) -> str:
    """Canonical text of a {exponent tuple: scalar} map with nonzero
    coefficients: terms sorted by an explicit descending graded-lex key,
    each monomial written factor by factor, non-real coefficients in
    parentheses after a plus sign."""
    if not terms:
        return "0"
    if names is None:
        names = [f"x{k + 1}" for k in range(n)]
    pieces = []
    for exp in sorted(terms, key=_grlex_key):
        re, im = to_pair(terms[exp])
        mono = _monomial_text(exp, names)
        if im:
            sign, body = "+", f"({scalar_text((re, im))})"
        else:
            sign, body = ("-" if re < 0 else "+"), str(abs(re))
        text = (mono if body == "1" else f"{body}*{mono}") if mono else body
        if not pieces:
            pieces.append(text if sign == "+" else f"-{text}")
        else:
            pieces.append(f"{sign} {text}")
    return " ".join(pieces)

"""Shared fixtures: two matrices with identical principal minors, and a
6x6 whose pencil splits into three quadratic factors."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pmfiber import MPoly, matrix

A4_ROWS = [
    [2, -1, 1, -2],
    [1, 1, -3, 6],
    [1, 2, 1, 1],
    [-1, -2, 2, -1],
]

# Same principal minors as A4_ROWS, not diagonally equivalent to it.
B4_ROWS = [
    [2, 1, 1, -2],
    [-1, 1, 2, -4],
    [1, -3, 1, 1],
    [-1, 3, 2, -1],
]

A6_ROWS = [
    [1, -3, 3, -2, -1, 2],
    [0, -3, 5, 1, 0, 2],
    [0, 0, 4, 0, 0, -4],
    [0, 1, 2, 1, 0, 5],
    [1, 0, -1, 6, 2, 4],
    [0, 0, 2, 0, 0, 3],
]

# A benchmark classify input (index 103 at seed 21): the swap across its first
# cut {0, 1} is diagonally equivalent to it, the one across {0, 1, 3} is not.
LATER_CUT_ROWS = [
    [-1, 1, -1, -2, 2, -1],
    [1, -2, 1, 2, -2, 1],
    [1, -1, 2, 1, 1, 2],
    [1, -1, 2, 1, -4, 2],
    [-1, 1, -1, -1, 2, 2],
    [-1, 1, -2, -1, -2, -2],
]


@pytest.fixture
def golden_a4():
    return matrix(A4_ROWS)


@pytest.fixture
def golden_b4():
    return matrix(B4_ROWS)


@pytest.fixture
def golden_a6():
    return matrix(A6_ROWS)


def cut_rows(n, k):
    """Dense diagonal blocks on {0..k-1} and the rest, rank-one blocks across:
    X = {0..k-1} is a cut of an irreducible, non-symmetrizable matrix."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if (i < k) == (j < k):
                rows[i][j] = (i * 7 + j * 3) % 4 + 1
            elif i < k:
                rows[i][j] = (i + 1) * (j % 3 + 1)
            else:
                rows[i][j] = (j + 2) * (i % 2 + 1)
    return rows


def poly_of(n, coeffs):
    """Build a multiaffine MPoly from {0-based index tuple: coefficient}."""
    terms = {}
    for subset, c in coeffs.items():
        exp = tuple(1 if k in subset else 0 for k in range(n))
        terms[exp] = c
    return MPoly(n, terms)


def linear(n, k, a, b):
    """a*x_{k+1} + b as an MPoly in n variables."""
    return a * MPoly.var(n, k) + MPoly.const(n, b)


# The 6x6 pencil factors as (x1*x5 + 2*x1 + x5 + 3)
#                          * (x2*x4 + x2 - 3*x4 - 4)
#                          * (x3*x6 + 3*x3 + 4*x6 + 20).
def a6_factors():
    return [
        poly_of(6, {(0, 4): 1, (0,): 2, (4,): 1, (): 3}),
        poly_of(6, {(1, 3): 1, (1,): 1, (3,): -3, (): -4}),
        poly_of(6, {(2, 5): 1, (2,): 3, (5,): 4, (): 20}),
    ]

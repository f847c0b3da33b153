"""Irreducibility, triangularized block structure, and pencil factorization."""

import random

from pmfiber import (
    MPoly,
    block_det_poly,
    det_poly,
    frobenius_form,
    is_irreducible,
    matrix,
    structure_check,
)
from pmfiber import structure, symdet
from pmfiber.structure import _strongly_connected_components

from conftest import a6_factors, poly_of


def test_irreducible_cycle():
    # a single directed n-cycle is strongly connected
    n = 5
    rows = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    assert is_irreducible(matrix(rows))


def test_scc_on_a_long_cycle_needs_no_recursion():
    n = 5000
    cycle = [((i + 1) % n,) for i in range(n)]
    assert _strongly_connected_components(n, cycle) == [list(range(n))]
    # a path: every vertex its own component, deepest first
    path = [(i + 1,) for i in range(n - 1)] + [()]
    assert _strongly_connected_components(n, path) == [[v] for v in reversed(range(n))]


def test_reducible_triangular():
    rows = [[1, 2, 3], [0, 4, 5], [0, 0, 6]]
    assert not is_irreducible(matrix(rows))
    form = frobenius_form(matrix(rows))
    assert len(form.blocks) == 3


def test_one_by_one_is_irreducible():
    assert is_irreducible(matrix([[0]]))


def test_golden_a4_irreducible(golden_a4):
    assert is_irreducible(golden_a4)


def test_golden_a6_blocks(golden_a6):
    form = frobenius_form(golden_a6)
    assert form.blocks == ((0, 4), (1, 3), (2, 5))
    # permuted copy is block upper triangular: entries below the block
    # diagonal vanish
    sizes = [len(b) for b in form.blocks]
    starts = [sum(sizes[:k]) for k in range(len(sizes))]
    P = form.permuted
    for bi, start in enumerate(starts):
        for u in range(start, start + sizes[bi]):
            for v in range(start):
                assert P.entries[u][v] == 0


def test_golden_a6_block_matrices(golden_a6):
    form = frobenius_form(golden_a6)
    picked = [golden_a6.block(b).entries for b in form.blocks]
    assert picked[0] == ((1, -1), (1, 2))
    assert picked[1] == ((-3, 1), (1, 1))
    assert picked[2] == ((4, -4), (2, 3))


def test_golden_a6_factors(golden_a6):
    form = frobenius_form(golden_a6)
    factors = [block_det_poly(golden_a6, b) for b in form.blocks]
    assert factors == a6_factors()


def test_structure_check_product(golden_a6):
    report = structure_check(golden_a6)
    assert report.all_ok
    assert report.product_matches
    assert list(report.blocks_irreducible) == [True, True, True]
    product = MPoly.const(6, 1)
    for f in report.factors:
        product = product * f
    assert product == det_poly(golden_a6).fpoly


def test_structure_check_expands_no_pencil(monkeypatch, golden_a6):
    def boom(A):
        raise AssertionError("det_poly called")

    for module in (symdet, structure):
        if hasattr(module, "det_poly"):
            monkeypatch.setattr(module, "det_poly", boom)
    report = structure_check(golden_a6)
    assert report.all_ok
    assert list(report.factors) == a6_factors()


def test_frobenius_order_is_permutation(golden_a6):
    form = frobenius_form(golden_a6)
    assert sorted(form.order) == list(range(6))
    # blocks listed in topological order of the condensation, minimum
    # original index first among independent blocks
    assert form.order == tuple(i for b in form.blocks for i in b)


def test_planted_blocks_recovered():
    rng = random.Random(31)
    for _ in range(20):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        n = sum(sizes)
        rows = [[0] * n for _ in range(n)]
        start = 0
        for s in sizes:
            for u in range(start, start + s):
                for v in range(start, start + s):
                    if u != v:
                        rows[u][v] = rng.randint(1, 3)
                    elif rng.random() < 0.5:
                        rows[u][v] = rng.randint(-2, 2)
            start += s
        # strictly-upper fill between blocks keeps the block structure
        start = 0
        for bi, s in enumerate(sizes):
            for u in range(start, start + s):
                for v in range(start + s, n):
                    if rng.random() < 0.6:
                        rows[u][v] = rng.randint(-3, 3)
            start += s
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = [[rows[perm[u]][perm[v]] for v in range(n)] for u in range(n)]
        form = frobenius_form(matrix(shuffled))
        assert len(form.blocks) == len(sizes)
        assert structure_check(matrix(shuffled)).all_ok


def test_structure_check_free_positions(golden_a6):
    report = structure_check(golden_a6)
    assert report.blocks == ((0, 4), (1, 3), (2, 5))
    assert report.free_positions == ((0, 1), (0, 2), (1, 2))
    assert report.factors == tuple(a6_factors())


def test_structure_check_irreducible(golden_a4):
    report = structure_check(golden_a4)
    assert report.blocks == ((0, 1, 2, 3),)
    assert report.free_positions == ()

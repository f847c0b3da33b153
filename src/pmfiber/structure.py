"""Irreducibility and block structure of a square matrix.

A matrix is irreducible when its support digraph (edge i -> j iff i != j and
A_ij != 0) is strongly connected.  Every matrix is permutation-conjugate to a
block upper triangular form with irreducible diagonal blocks; the blocks are
the strongly connected components of the support digraph, ordered so that all
edges point forward (topological order of the condensation, ties broken by
smallest original index).  The determinantal pencil factors accordingly, and
the factorization describes the whole fiber of the principal minor map.
structure_check's StructureReport is the one checked block report behind the
commands structure, fibershape, symfiber (reducible input) and stablecert.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import combinations
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .mpoly import MPoly
from .scalars import Scalar
from .symdet import SquareMatrix, check_size, det_fraction_free


class FrobeniusForm(NamedTuple):
    """order maps new position -> original index; blocks hold original indices."""

    order: Tuple[int, ...]
    blocks: Tuple[Tuple[int, ...], ...]
    permuted: SquareMatrix


def _adjacency(A: SquareMatrix) -> Tuple[Tuple[int, ...], ...]:
    """The support digraph: for each i, the j != i with A_ij != 0."""
    n = A.n
    return tuple(
        tuple(j for j in range(n) if j != i and A.entries[i][j]) for i in range(n)
    )


def _strongly_connected_components(
    n: int, adjacency: Sequence[Sequence[int]]
) -> List[List[int]]:
    """Tarjan's algorithm with an explicit call stack, so the depth of the
    search is not bounded by the interpreter's recursion limit.

    Components come out in Tarjan's order (each one after every component
    it reaches), each sorted.
    """
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    counter = 0
    components: List[List[int]] = []
    for root in range(n):
        if index[root] >= 0:
            continue
        calls = [(root, 0)]  # (vertex, position of the next edge to follow)
        while calls:
            v, pos = calls.pop()
            if pos == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            else:
                lowlink[v] = min(lowlink[v], lowlink[adjacency[v][pos - 1]])
            successors = adjacency[v]
            while pos < len(successors):
                w = successors[pos]
                pos += 1
                if index[w] < 0:
                    calls.append((v, pos))
                    calls.append((w, 0))
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    components.append(sorted(comp))
    return components


def frobenius_form(A: SquareMatrix) -> FrobeniusForm:
    """Permutation-conjugate block upper triangular form.

    Components are ordered by Kahn's algorithm on the condensation with a
    min-heap keyed by smallest original index, so the result is deterministic
    and all support edges point from earlier blocks to later ones.
    """
    n = A.n
    adjacency = _adjacency(A)
    comps = _strongly_connected_components(n, adjacency)
    comp_of = {}
    for c, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = c
    succ: List[set] = [set() for _ in comps]
    indegree = [0] * len(comps)
    for i in range(n):
        for j in adjacency[i]:
            a, b = comp_of[i], comp_of[j]
            if a != b and b not in succ[a]:
                succ[a].add(b)
                indegree[b] += 1
    heap: List[Tuple[int, int]] = []
    for c, comp in enumerate(comps):
        if indegree[c] == 0:
            heappush(heap, (comp[0], c))
    ordered: List[int] = []
    while heap:
        _, c = heappop(heap)
        ordered.append(c)
        for b in succ[c]:
            indegree[b] -= 1
            if indegree[b] == 0:
                heappush(heap, (comps[b][0], b))
    blocks = tuple(tuple(comps[c]) for c in ordered)
    order = tuple(v for block in blocks for v in block)
    return FrobeniusForm(order, blocks, A.permuted(order))


def is_irreducible(A: SquareMatrix) -> bool:
    """At most one strong component, so the 0x0 matrix is irreducible too."""
    return len(_strongly_connected_components(A.n, _adjacency(A))) <= 1


def same_block_form(form: FrobeniusForm, B: SquareMatrix) -> bool:
    """True when, in the order of A's Frobenius form, A is zero below its
    diagonal blocks and B equals A on and below them, entry for entry.

    Both are then block upper triangular with the same diagonal blocks, and
    a block triangular determinant is the product of its diagonal blocks,
    so det(diag(x) + B) = det(diag(x) + A) = the product of the block
    pencils, at O(n^2) cost.  With B = A it proves the factorization alone.
    """
    P, Q = form.permuted.entries, B.permuted(form.order).entries
    end = 0
    for block in form.blocks:
        start, end = end, end + len(block)
        for i in range(start, end):
            if any(P[i][:start]) or Q[i][:end] != P[i][:end]:
                return False
    return True


def block_det_poly(A: SquareMatrix, block: Sequence[int]) -> MPoly:
    """det(diag(x_k : k in block) + A[block, block]) embedded in all n variables."""
    n = A.n
    idx = list(block)
    terms: Dict[Tuple[int, ...], Scalar] = {}
    k = len(idx)
    check_size("block_det_poly", k)
    for mask in range(1 << k):
        inside = {idx[t] for t in range(k) if mask >> t & 1}
        outside = [v for v in idx if v not in inside]
        minor = det_fraction_free(A.submatrix(outside, outside))
        if minor:
            exp = tuple(1 if v in inside else 0 for v in range(n))
            terms[exp] = minor
    return MPoly(n, terms)


class StructureReport(NamedTuple):
    """A's Frobenius form, block pencils, and block-form check.  Every
    matrix with A's principal minors is permutation-conjugate to a block
    upper triangular one whose diagonal block p has pencil factors[p] and
    whose strictly-upper block positions (p, q), free_positions, are free."""

    form: FrobeniusForm
    factors: Tuple[MPoly, ...]
    product_matches: bool
    blocks_irreducible: Tuple[bool, ...]

    @property
    def blocks(self) -> Tuple[Tuple[int, ...], ...]:
        return self.form.blocks

    @property
    def free_positions(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(combinations(range(len(self.blocks)), 2))

    @property
    def all_ok(self) -> bool:
        return self.product_matches and all(self.blocks_irreducible)


def structure_check(A: SquareMatrix) -> StructureReport:
    """Frobenius form plus exact verification of the induced factorization.

    The one exact check is that A is block upper triangular in the form's
    order (same_block_form with A itself), so det(diag(x)+A) is the product
    of the block pencils without expanding it.  Each diagonal block's
    irreducibility is the strong connectivity of its support digraph,
    reported per block.
    """
    form = frobenius_form(A)
    factors = tuple(block_det_poly(A, block) for block in form.blocks)
    blocks_irreducible = tuple(is_irreducible(A.block(block)) for block in form.blocks)
    return StructureReport(form, factors, same_block_form(form, A), blocks_irreducible)

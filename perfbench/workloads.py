"""Seeded inputs for the three benchmark workloads.

Everything here depends only on ``random.Random`` and the workload seed, never
on pmfiber itself, so a change to the library (or to its own instance
generators) cannot shift the inputs a benchmark run measures.

Each workload is a fixed *schedule* of slots: a slot names the CLI command,
the matrix size, the field and the kind of matrix; only the entries come from
the seed.  Slots are interleaved so that any prefix of the list carries about
the same mix as the whole list, which keeps a time-bounded run representative.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("pencil", "verify", "classify")

Q = "Q"
QI = "Q(i)"


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``pmfiber <command> <matrix file>``."""

    index: int
    command: str
    kind: str
    n: int
    field: str
    rows: Tuple[Tuple[str, ...], ...]
    # Planted structure the output check uses (the hidden block order).
    meta: Dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def stratum(self) -> str:
        return f"{self.command}:{self.kind}:{self.field}:n{self.n}"

    def document(self) -> Dict:
        return {"n": self.n, "field": self.field, "entries": [list(r) for r in self.rows]}


def format_entry(x) -> str:
    """The CLI's scalar grammar for an int, a Fraction or a Gaussian (re, im) pair."""
    if isinstance(x, tuple):
        re, im = x
        if im == 0:
            return str(re)
        mag = "i" if abs(im) == 1 else f"{abs(im)}i"
        if re == 0:
            return mag if im > 0 else f"-{mag}"
        return f"{re}{'+' if im > 0 else '-'}{mag}"
    return str(x)


def _rows_text(rows) -> Tuple[Tuple[str, ...], ...]:
    return tuple(tuple(format_entry(x) for x in row) for row in rows)


# -- matrix families ----------------------------------------------------------------


def dense(rng: random.Random, n: int, fld: str, lo: int = -5, hi: int = 5):
    if fld == QI:
        return [[(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def _nonzero(rng: random.Random, lo: int = -5, hi: int = 5) -> int:
    while True:
        x = rng.randint(lo, hi)
        if x:
            return x


def _pm12(rng: random.Random) -> int:
    return rng.choice((-2, -1, 1, 2))


def _cut_sides(rng: random.Random, n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    k = rng.randint(2, n - 2)
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(sorted(perm[:k])), tuple(sorted(perm[k:]))


def planted_cut(rng: random.Random, n: int):
    """Rank-one off-diagonal blocks across a random cut X, entries from +-{1,2}.

    Nothing is rejected: symmetrizable and degenerate draws stay in.
    """
    X, Xc = _cut_sides(rng, n)
    rows = [[0] * n for _ in range(n)]
    for part in (X, Xc):
        for i in part:
            for j in part:
                rows[i][j] = _pm12(rng)
    u = [_pm12(rng) for _ in X]
    v = [_pm12(rng) for _ in Xc]
    w = [_pm12(rng) for _ in Xc]
    z = [_pm12(rng) for _ in X]
    for a, i in enumerate(X):
        for b, j in enumerate(Xc):
            rows[i][j] = u[a] * v[b]
            rows[j][i] = w[b] * z[a]
    return rows, {}


def symmetrizable_cut(rng: random.Random, n: int):
    """D*S*D^-1 with S symmetric, dense within a random cut, rank one across it."""
    X, Xc = _cut_sides(rng, n)
    S = [[0] * n for _ in range(n)]
    for part in (X, Xc):
        for i in part:
            for j in part:
                if i <= j:
                    S[i][j] = S[j][i] = _pm12(rng)
    u = [_pm12(rng) for _ in X]
    v = [_pm12(rng) for _ in Xc]
    for a, i in enumerate(X):
        for b, j in enumerate(Xc):
            S[i][j] = S[j][i] = u[a] * v[b]
    d = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
    rows = [[Fraction(S[i][j] * d[i], d[j]) for j in range(n)] for i in range(n)]
    rows = [[x.numerator if x.denominator == 1 else x for x in row] for row in rows]
    return rows, {}


def full_support(rng: random.Random, n: int):
    """Every entry nonzero in [-5, 5]: irreducible, and with no cut."""
    return [[_nonzero(rng) for _ in range(n)] for _ in range(n)], {}


def hidden_block_upper(rng: random.Random, n: int):
    """Block upper triangular with dense diagonal blocks, relabeled at random.

    meta["order"][u] is the original index placed at position u of the
    triangular form and meta["sizes"] the diagonal block sizes in that order.
    """
    sizes: List[int] = []
    left = n
    while left > 0:
        s = min(left, rng.randint(1, 4))
        sizes.append(s)
        left -= s
    if len(sizes) == 1:
        sizes = [1, n - 1]
    T = [[0] * n for _ in range(n)]
    start = 0
    bounds = []
    for s in sizes:
        bounds.append((start, start + s))
        for i in range(start, start + s):
            for j in range(start, start + s):
                T[i][j] = rng.randint(-4, 4) if i == j else _nonzero(rng, -4, 4)
        start += s
    for bi in range(len(sizes)):
        for bj in range(bi + 1, len(sizes)):
            for i in range(*bounds[bi]):
                for j in range(*bounds[bj]):
                    T[i][j] = rng.randint(-3, 3)
    order = list(range(n))
    rng.shuffle(order)
    # A[order[u]][order[v]] = T[u][v]
    rows = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            rows[order[u]][order[v]] = T[u][v]
    return rows, {"order": order, "sizes": sizes}


# -- schedules ----------------------------------------------------------------------

Slot = Tuple[str, str, str, int]  # (command, kind, field, n)


def _slots(*specs: str) -> List[List[Slot]]:
    """Each spec is "command kind field n", or alternatives joined by " | "
    that take turns from one cycle of the schedule to the next."""
    out = []
    for spec in specs:
        alternatives = []
        for alt in spec.split(" | "):
            command, kind, fld, n = alt.split()
            alternatives.append((command, kind, fld, int(n)))
        out.append(alternatives)
    return out


# One pass of a schedule is one cycle.  The median and the 90th percentile of
# a run's latencies are quantiles of a mix of very different ops, so each
# schedule puts them in the middle of a wide group of slots whose latencies lie
# close together: the median in a group that holds the 30%-70% (or 75%) range
# of a cycle, the 90th percentile in one that holds the 75%-95% or 80%-100%
# range.  A few inputs drawn cheaper or dearer than usual then move a
# quantile only within its group, and many distinct inputs of the group are
# drawn per run, which keeps both quantiles steady from seed to seed.
#
# pencil: below the median group, the Q inputs at n = 9-11 and the n = 7
# adjugate (6 slots); the median group is the Q(i) n = 9 minors and pencils
# with the n = 8 adjugate (8 slots); then the Q n = 12 inputs (2 slots) and
# the 90th-percentile group, the Q adjugates at n = 9 (4 slots).
PENCIL_SCHEDULE = _slots(
    "minors dense Q 9",
    "minors dense Q(i) 9",
    "adjugate dense Q 9",
    "detpoly dense Q(i) 9",
    "detpoly dense Q 10",
    "minors dense Q(i) 9",
    "minors dense Q 12",
    "adjugate dense Q 8",
    "adjugate dense Q 9",
    "adjugate dense Q 7",
    "detpoly dense Q(i) 9",
    "minors dense Q 11 | detpoly dense Q 11",
    "minors dense Q(i) 9",
    "adjugate dense Q 9",
    "detpoly dense Q 9",
    "detpoly dense Q(i) 9",
    "detpoly dense Q 12",
    "minors dense Q 10",
    "minors dense Q(i) 9",
    "adjugate dense Q 9",
)

# verify: below the median group, the n = 4 inputs and the Q n = 5 ones
# (6 slots); the median group is Q(i) at n = 5 (9 slots); the 90th-percentile
# group is Q at n = 6 (4 slots), and Q(i) at n = 6 takes the top slot.
VERIFY_SCHEDULE = _slots(
    "verify dense Q(i) 5",
    "verify dense Q 6",
    "verify dense Q 4",
    "verify dense Q(i) 5",
    "verify dense Q 5",
    "verify dense Q(i) 5",
    "verify dense Q(i) 6",
    "verify dense Q(i) 4",
    "verify dense Q(i) 5",
    "verify dense Q 6",
    "verify dense Q 5",
    "verify dense Q(i) 5",
    "verify dense Q 4",
    "verify dense Q(i) 5",
    "verify dense Q 6",
    "verify dense Q(i) 5",
    "verify dense Q 5",
    "verify dense Q(i) 5",
    "verify dense Q 6",
    "verify dense Q(i) 5",
)

# classify: planted cuts fill 13 of the 20 slots, since the fiber path is what
# this workload is for.  Below the median group, the symmetrizable cuts and
# the smaller reducible and no-cut inputs (6 slots, rotating through their
# sizes); the median group is planted n = 6 (8 slots); one slot of the larger
# no-cut and reducible inputs; the 90th-percentile group is planted n = 7
# (4 slots), and planted n = 8 takes the top slot.
CLASSIFY_SCHEDULE = _slots(
    "classify planted Q 6",
    "classify planted Q 7",
    "classify symmetrizable Q 6 | classify symmetrizable Q 7 | classify symmetrizable Q 8",
    "classify planted Q 6",
    "classify reducible Q 8 | classify reducible Q 9 | classify reducible Q 10",
    "classify planted Q 8",
    "classify planted Q 6",
    "classify nocut Q 8 | classify nocut Q 9",
    "classify planted Q 7",
    "classify planted Q 6",
    "classify nocut Q 10 | classify reducible Q 11 | classify nocut Q 11 | classify reducible Q 12",
    "classify planted Q 6",
    "classify symmetrizable Q 7 | classify symmetrizable Q 8 | classify symmetrizable Q 6",
    "classify planted Q 7",
    "classify planted Q 6",
    "classify reducible Q 9 | classify reducible Q 10 | classify reducible Q 8",
    "classify planted Q 6",
    "classify nocut Q 9 | classify nocut Q 8",
    "classify planted Q 7",
    "classify planted Q 6",
)

SCHEDULES = {"pencil": PENCIL_SCHEDULE, "verify": VERIFY_SCHEDULE, "classify": CLASSIFY_SCHEDULE}

# Distinct inputs per run, whole cycles.  A run goes through the whole list
# once whatever ``--seconds`` says (about 25 s on a 2-vCPU Xeon VM), then
# cycles through it again until its time is up; at least ten latencies lie
# beyond p90 in either pass.
INPUTS_PER_WORKLOAD = {"pencil": 120, "verify": 100, "classify": 120}


def slot_of(workload: str, index: int) -> Slot:
    """The (command, kind, field, n) of input ``index`` of a workload."""
    schedule = SCHEDULES[workload]
    alternatives = schedule[index % len(schedule)]
    return alternatives[(index // len(schedule)) % len(alternatives)]


_FAMILIES = {
    "planted": planted_cut,
    "symmetrizable": symmetrizable_cut,
    "nocut": full_support,
    "reducible": hidden_block_upper,
}


def build_ops(workload: str, seed: int) -> List[Op]:
    """The workload's input list for this seed (same seed, same list)."""
    if workload not in SCHEDULES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"pmfiber-bench:{workload}:{seed}")
    ops: List[Op] = []
    for index in range(INPUTS_PER_WORKLOAD[workload]):
        command, kind, fld, n = slot_of(workload, index)
        if kind == "dense":
            rows, meta = dense(rng, n, fld), {}
        else:
            rows, meta = _FAMILIES[kind](rng, n)
        ops.append(Op(index, command, kind, n, fld, _rows_text(rows), meta=meta))
    return ops


def write_inputs(ops: Sequence[Op], directory: str) -> List[List[str]]:
    """Write one matrix file per op; return each op's CLI argv."""
    argvs = []
    for op in ops:
        path = os.path.join(directory, f"op{op.index:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op.document(), fh)
        argvs.append([op.command, path])
    return argvs

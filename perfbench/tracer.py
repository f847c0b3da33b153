"""A per-layer tracer that wraps pmfiber's public functions from outside.

``Tracer.install()`` replaces each traced function in every ``pmfiber``
namespace that binds it (so ``from .symdet import det_fraction_free`` in
another module is caught too) and wraps ``MPoly.__mul__``/``__rmul__`` on the
class; ``uninstall()`` puts every original back.  Nothing in pmfiber changes
while the tracer is not installed.

Each call of a traced function becomes a span (name, start, end, parent, op
id) kept in compact arrays until the run ends.  The hottest leaves (scalar
division and polynomial multiplication, hundreds of thousands of calls per
second) are not stored one by one: their count and time are added to the
enclosing span, whose self time excludes them like any other child.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# module -> public functions traced in it (the layer boundaries).
TRACED_FUNCTIONS: Dict[str, Tuple[str, ...]] = {
    "cli": ("main",),
    "symdet": (
        "det_fraction_free",
        "rank_exact",
        "principal_minors",
        "det_poly",
        "adjugate_table",
        "matrix_from_adjugate",
        "verify_identities",
    ),
    "mpoly": ("exact_divide", "poly_text"),
    "scalars": ("div_exact",),
    "structure": ("is_irreducible", "frobenius_form"),
    "equiv": ("symmetrizability", "diagonal_equivalence"),
    "fiber": (
        "classify_fiber",
        "find_cuts",
        "rank_one_split",
        "cut_swap_witness",
        "reducible_witness",
    ),
}

# Leaves whose calls are aggregated into the enclosing span, not stored.
AGGREGATED = frozenset({"scalars.div_exact", "mpoly.mul"})

MODULES = tuple(TRACED_FUNCTIONS)


def span_self_times(
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
    leaf_s: Optional[Sequence[float]] = None,
) -> List[float]:
    """Self time of each span: its duration minus its children's durations
    (and minus the aggregated leaf time recorded against it).

    Spans are indexed by id; ``parents[k]`` is the id of span k's parent, or
    -1 for a root.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for k, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[k] - starts[k]
    if leaf_s is not None:
        for k, t in enumerate(leaf_s):
            out[k] -= t
    return out


class Tracer:
    """Collects spans from wrapped pmfiber functions; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # One entry per stored span, indexed by span id.
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.leaf_s = array("d")
        self.op_id = -1
        self._stack: List[int] = []  # open span ids
        self.calls: Dict[str, int] = defaultdict(int)
        self.raised: Dict[str, int] = defaultdict(int)
        self.leaf_time: Dict[str, float] = defaultdict(float)
        self.mul_term_pairs = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, name: str, on_call: Optional[Callable] = None) -> Callable:
        """A stand-in for fn that records one span (or leaf sample) per call."""
        tracer = self
        clock = self.clock
        calls = self.calls
        if name in AGGREGATED:
            leaf_time = self.leaf_time

            def leaf(*args, **kwargs):
                calls[name] += 1
                if on_call is not None:
                    on_call(args)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    leaf_time[name] += dt
                    stack = tracer._stack
                    if stack:
                        tracer.leaf_s[stack[-1]] += dt

            leaf.__wrapped__ = fn
            return leaf

        nid = self._name_id(name)

        def spanned(*args, **kwargs):
            calls[name] += 1
            stack = tracer._stack
            sid = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.leaf_s.append(0.0)
            tracer.end.append(0.0)
            stack.append(sid)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised[name] += 1
                raise
            finally:
                tracer.end[sid] = clock()
                stack.pop()

        spanned.__wrapped__ = fn
        return spanned

    # -- installing ------------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function in every pmfiber namespace binding it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        namespaces = [
            mod
            for modname, mod in sorted(sys.modules.items())
            if mod is not None and (modname == "pmfiber" or modname.startswith("pmfiber."))
        ]
        for module, functions in TRACED_FUNCTIONS.items():
            home = sys.modules[f"pmfiber.{module}"]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self.wrap(original, f"{module}.{fname}")
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, attr, wrapper)
        MPoly = sys.modules["pmfiber.mpoly"].MPoly

        def count_pairs(args):
            a, b = args
            self.mul_term_pairs += len(a.terms) * (len(b.terms) if isinstance(b, MPoly) else 1)

        for attr in ("__mul__", "__rmul__"):
            self._patch(MPoly, attr, self.wrap(MPoly.__dict__[attr], "mpoly.mul", count_pairs))

    def uninstall(self) -> None:
        """Restore every original binding, most recent patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reporting -------------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Totals over all recorded spans.

        ``<layer>_s`` is inclusive time (no traced function calls itself, so
        no span lies inside another of the same name), ``<layer>_self_s`` its
        self time, ``<layer>_calls`` the call count; ``<module>.self_s`` adds
        up the self time of all of a module's spans and leaves.
        """
        selfs = span_self_times(self.start, self.end, self.parent, self.leaf_s)
        incl: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        for k, nid in enumerate(self.name):
            name = self.names[nid]
            own[name] += selfs[k]
            incl[name] += self.end[k] - self.start[k]
        for name, t in self.leaf_time.items():
            incl[name] += t
            own[name] += t
        out: Dict[str, float] = {}
        for name in set(incl) | set(self.calls):
            out[f"{name}_s"] = incl.get(name, 0.0)
            out[f"{name}_self_s"] = own.get(name, 0.0)
            out[f"{name}_calls"] = self.calls.get(name, 0)
        for module in MODULES:
            out[f"{module}.self_s"] = sum(t for n, t in own.items() if n.startswith(module + "."))
        out["mpoly.mul_term_pairs"] = self.mul_term_pairs
        return out

    def write_spans(self, path: str) -> None:
        """Write every stored span as tab-separated text (times in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\tleaf_s\n")
            names = self.names
            for k in range(len(self.start)):
                fh.write(
                    f"{k}\t{names[self.name[k]]}\t{self.start[k]:.9f}\t{self.end[k]:.9f}"
                    f"\t{self.parent[k]}\t{self.op[k]}\t{self.leaf_s[k]:.9f}\n"
                )


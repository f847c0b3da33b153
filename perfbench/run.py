#!/usr/bin/env python3
"""pmfiber benchmark: seeded matrix files through the real CLI, in process.

Usage, from the repository root:

    python3 perfbench/run.py --workload pencil --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38

A single workload runs in this process: it builds its input list from the
seed (``workloads.py``), writes one JSON matrix file per input, measures
set-up in fresh interpreters, then drives a closed loop with one client that
calls ``pmfiber.cli.main(argv)`` with stdout captured: once through the
whole input list, then on through it again until ``--seconds`` have passed.
Outputs are checked after the loop (``checks.py``).  The last line of stdout
is one JSON object: ``correct``, ``attempted`` and ``failed`` (counted per
distinct input, so they depend on the seed only, not on how fast the run
went) and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics from
``tracer.py`` with ``--trace 1``).

``--workload all`` runs every workload in its own fresh process, one after
another, and prints a table of the end-to-end metrics and the check result.

Times are scaled to a reference speed of the host (``calibrate.py``): the
benchmark runs on shared virtual machines whose CPU speed drifts by up to a
factor of two over minutes, so after every op it times a fixed pure-Python
kernel and multiplies the op's latency by reference time over the kernel's
local median time.  The raw figures go to stderr.

Measurement is per process only: wall clocks, ``ru_maxrss`` and wrapped
function calls.  There is no machine-wide tracing and no hardware counter.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
# Share of a traced run spent on the untraced loop that the traced pass
# replays (the untraced loop runs every input once, however long that takes).
UNTRACED_SHARE = 0.45

# The README's 4x4 example: small, irreducible, with a cut, not symmetrizable,
# so one call of each command walks that command's whole code path.
WARMUP_ROWS = [["2", "-1", "1", "-2"], ["1", "1", "-3", "6"], ["1", "2", "1", "1"], ["-1", "-2", "2", "-1"]]

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, tracer summary key or None when computed here); counts and
# times are per traced op.
PER_LAYER = (
    ("symdet.det_calls", "count/op", "symdet.det_fraction_free_calls"),
    ("symdet.det_s", "s/op", "symdet.det_fraction_free_s"),
    ("symdet.principal_minors_s", "s/op", "symdet.principal_minors_s"),
    ("symdet.adjugate_table_calls", "count/op", "symdet.adjugate_table_calls"),
    ("symdet.adjugate_table_s", "s/op", "symdet.adjugate_table_s"),
    ("symdet.matrix_from_adjugate_s", "s/op", "symdet.matrix_from_adjugate_s"),
    ("symdet.rank_calls", "count/op", "symdet.rank_exact_calls"),
    ("symdet.rank_s", "s/op", "symdet.rank_exact_s"),
    ("symdet.verify_identities_s", "s/op", "symdet.verify_identities_self_s"),
    ("mpoly.mul_calls", "count/op", "mpoly.mul_calls"),
    ("mpoly.mul_term_pairs", "count/op", "mpoly.mul_term_pairs"),
    ("mpoly.mul_s", "s/op", "mpoly.mul_s"),
    ("mpoly.exact_divide_calls", "count/op", "mpoly.exact_divide_calls"),
    ("mpoly.exact_divide_s", "s/op", "mpoly.exact_divide_s"),
    ("mpoly.poly_text_s", "s/op", "mpoly.poly_text_s"),
    ("cli.self_s", "s/op", "cli.self_s"),
    ("cli.output_bytes", "bytes/op", None),
    ("scalars.div_exact_calls", "count/op", "scalars.div_exact_calls"),
    ("scalars.div_exact_s", "s/op", "scalars.div_exact_s"),
    ("scalars.max_bits", "bits", None),
    ("structure.is_irreducible_s", "s/op", "structure.is_irreducible_s"),
    ("structure.frobenius_form_s", "s/op", "structure.frobenius_form_s"),
    ("equiv.symmetrizability_s", "s/op", "equiv.symmetrizability_s"),
    ("equiv.diagonal_equivalence_calls", "count/op", "equiv.diagonal_equivalence_calls"),
    ("equiv.diagonal_equivalence_s", "s/op", "equiv.diagonal_equivalence_s"),
    ("fiber.classify_fiber_s", "s/op", "fiber.classify_fiber_s"),
    ("fiber.find_cuts_s", "s/op", "fiber.find_cuts_s"),
    ("fiber.rank_one_split_calls", "count/op", "fiber.rank_one_split_calls"),
    ("fiber.rank_one_split_s", "s/op", "fiber.rank_one_split_s"),
    ("fiber.cut_swap_witness_calls", "count/op", "fiber.cut_swap_witness_calls"),
    ("fiber.witness_ok_ratio", "ratio", None),
    ("symdet.self_s", "s/op", "symdet.self_s"),
    ("mpoly.self_s", "s/op", "mpoly.self_s"),
    ("scalars.self_s", "s/op", "scalars.self_s"),
    ("structure.self_s", "s/op", "structure.self_s"),
    ("equiv.self_s", "s/op", "equiv.self_s"),
    ("fiber.self_s", "s/op", "fiber.self_s"),
    ("trace.overhead_ratio", "ratio", None),
    ("trace.op_s", "s/op", None),
    ("trace.ops", "count", None),
)

_NUMBER = re.compile(r"(?<![x\d])\d+")

SETUP_PROBE = r"""
import contextlib, io, json, statistics, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pmfiber.cli
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        pmfiber.cli.main(argv)
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
import calibrate
print(elapsed, statistics.median(calibrate.sample() for _ in range(5)))
"""


class Refused(Exception):
    """The benchmark cannot run here (no pmfiber sources next to it)."""


def pin_to_one_cpu() -> None:
    """Keep this process (and the set-up probes it starts) on one fixed CPU.

    Left to the scheduler, a fresh process lands on any CPU, and on a shared
    virtual machine the CPUs can differ in speed by a third for minutes at a
    time (the lowest-numbered one usually also takes the interrupts), which
    splits runs into a fast and a slow group.  The highest-numbered allowed
    CPU is used every time.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def load_cli():
    """Import pmfiber.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "pmfiber" / "cli.py").is_file():
        raise Refused(f"no pmfiber sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import pmfiber
    import pmfiber.cli

    if SRC.resolve() not in Path(pmfiber.__file__).resolve().parents:
        raise Refused(f"imported pmfiber from {pmfiber.__file__}, not from {SRC}")
    return pmfiber.cli


def warmup_argvs(ops: Sequence[workloads.Op], workdir: Path) -> List[List[str]]:
    path = workdir / "warmup.json"
    path.write_text(json.dumps({"n": 4, "field": "Q", "entries": WARMUP_ROWS}))
    commands = sorted({op.command for op in ops})
    return [[command, str(path)] for command in commands]


def measure_setup(warm: List[List[str]]) -> Tuple[float, float]:
    """Median over fresh interpreters of: import pmfiber.cli, then one call of
    each of the workload's commands on a 4x4 input; scaled to reference speed
    by the kernel timed in the same interpreter right after, and raw."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), json.dumps(warm), str(HERE)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=str(ROOT),
            check=True,
        )
        samples.append([float(x) for x in proc.stdout.split()[-2:]])
    scaled = [elapsed * calibrate.REFERENCE_S / cal for elapsed, cal in samples]
    return statistics.median(scaled), statistics.median(elapsed for elapsed, _ in samples)


def call_cli(cli, argv: List[str]) -> Tuple[Optional[int], str, float]:
    """One op: (exit code or None if main raised, stdout, seconds in main)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit):
            code = None
        elapsed = time.perf_counter() - t0
    return code, buf.getvalue(), elapsed


class Loop:
    """The closed loop's record: which input each op ran and what came back.

    The first output of each input goes to a file in ``outdir``, so that the
    outputs kept for checking do not count in the process's peak memory;
    later runs of the same input are compared with it by digest.
    """

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.order: List[int] = []  # input index per op
        self.latency: List[float] = []
        self.cal: List[float] = []  # calibration kernel time after each op
        self.first: Dict[int, Tuple[Optional[int], bytes]] = {}  # input -> (code, digest)
        self.mismatch: List[int] = []  # ops whose output differed from the first run
        self.wall = 0.0

    def _path(self, index: int) -> Path:
        return self.outdir / f"out{index:04d}.txt"

    def record(self, index: int, code: Optional[int], text: str, elapsed: float) -> None:
        self.order.append(index)
        self.latency.append(elapsed)
        key = (code, hashlib.sha256(text.encode("utf-8")).digest())
        if index not in self.first:
            self.first[index] = key
            self._path(index).write_text(text, encoding="utf-8")
        elif self.first[index] != key:
            self.mismatch.append(len(self.order) - 1)

    def same_as_first(self, index: int, code: Optional[int], text: str) -> bool:
        return self.first[index] == (code, hashlib.sha256(text.encode("utf-8")).digest())

    def first_output(self, index: int) -> Tuple[Optional[int], str]:
        return self.first[index][0], self._path(index).read_text(encoding="utf-8")


def closed_loop(cli, argvs: List[List[str]], seconds: float, outdir: Path) -> Loop:
    """Send the next op when the previous one returns, cycling through the
    inputs, until every input has run once and ``seconds`` have passed.
    The calibration kernel runs between ops."""
    loop = Loop(outdir)
    start = time.perf_counter()
    k = 0
    while k < len(argvs) or time.perf_counter() - start < seconds:
        index = k % len(argvs)
        loop.record(index, *call_cli(cli, argvs[index]))
        loop.cal.append(calibrate.sample())
        k += 1
    loop.wall = time.perf_counter() - start
    return loop


def judge(ops: Sequence[workloads.Op], loop: Loop, seed: int) -> Tuple[List[str], List[str]]:
    """Status of every input (ok / refused / wrong), plus one note per failing
    input.  An input is wrong if any of its runs printed something else than
    its first run."""
    verdicts: Dict[int, Tuple[str, Optional[str]]] = {}
    for index in loop.first:
        verdicts[index] = checks.check_output(ops[index], *loop.first_output(index), seed)
    status = [verdicts[index][0] for index in range(len(ops))]
    for k in loop.mismatch:
        status[loop.order[k]] = checks.WRONG
    notes = [
        f"{ops[i].stratum} #{i}: {kind}: {why}"
        for i, (kind, why) in sorted(verdicts.items())
        if kind != checks.OK
    ]
    if loop.mismatch:
        notes.append(f"{len(loop.mismatch)} ops printed something else than the first run of their input")
    return status, notes


def end_to_end(loop: Loop, status: List[str], setup_s: float, rss_kb: int) -> Dict[str, float]:
    """The end-to-end metrics; times are scaled to reference speed, and
    ``ops_per_s`` counts the time spent in ``cli.main`` only."""
    lat = [t * f for t, f in zip(loop.latency, calibrate.speed_factors(loop.cal))]
    attempted = len(status)
    failed = sum(1 for s in status if s != checks.OK)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0],
        "ok_ratio": (attempted - failed) / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def traced_replay(
    cli, argvs, loop: Loop, budget: float, min_ops: int, spans_path: Path
) -> Tuple[Dict[str, float], List[int]]:
    """Replay the untraced loop's ops under the tracer, at least ``min_ops``
    of them and more while ``budget`` seconds last; returns the per-layer metrics and the replayed ops whose output
    differed from the untraced run."""
    tracer = tracing.Tracer()
    traced_lat: List[float] = []
    out_bytes = 0
    max_bits = 0
    differs: List[int] = []
    seen = set()
    start = time.perf_counter()
    with tracer:
        for k, index in enumerate(loop.order):
            if len(traced_lat) >= min_ops and time.perf_counter() - start >= budget:
                break
            tracer.op_id = k
            code, text, elapsed = call_cli(cli, argvs[index])
            traced_lat.append(elapsed)
            out_bytes += len(text.encode("utf-8"))
            if not loop.same_as_first(index, code, text):
                differs.append(k)
            if index not in seen:
                seen.add(index)
                max_bits = max([max_bits] + [int(d).bit_length() for d in _NUMBER.findall(text)])
    tracer.write_spans(str(spans_path))
    ops = len(traced_lat)
    summary = tracer.summary()
    calls = summary.get("fiber.cut_swap_witness_calls", 0)
    returned = calls - tracer.raised.get("fiber.cut_swap_witness", 0)
    computed = {
        "cli.output_bytes": out_bytes,
        "scalars.max_bits": max_bits,
        "fiber.witness_ok_ratio": returned / calls if calls else 0.0,
        "trace.overhead_ratio": sum(traced_lat) / sum(loop.latency[:ops]),
        "trace.op_s": sum(traced_lat),
        "trace.ops": ops,
    }
    metrics = {}
    for name, unit, key in PER_LAYER:
        value = computed[name] if key is None else summary.get(key, 0)
        if unit.endswith("/op"):
            value = value / ops
        metrics[name] = value
    return metrics, differs


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    cli = load_cli()
    pin_to_one_cpu()
    ops = workloads.build_ops(workload, seed)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        argvs = workloads.write_inputs(ops, str(workdir))
        warm = warmup_argvs(ops, workdir)
        setup_s, setup_raw = (0.0, 0.0) if trace else measure_setup(warm)
        for argv in warm:
            call_cli(cli, argv)
        loop = closed_loop(cli, argvs, seconds * UNTRACED_SHARE if trace else seconds, workdir)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if trace:
            spans = WORK / f"spans-{workload}.tsv"
            # At least one whole cycle of the schedule, so that every kind
            # of input of the workload is in the per-layer figures.
            cycle = len(workloads.SCHEDULES[workload])
            layers, differs = traced_replay(cli, argvs, loop, seconds - loop.wall, cycle, spans)
        status, notes = judge(ops, loop, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        for k in differs:
            status[loop.order[k]] = checks.WRONG
        if differs:
            notes.append(f"{len(differs)} traced ops printed something else than the untraced run")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        values = end_to_end(loop, status, setup_s, rss_kb)
        raw = sorted(loop.latency)
        print(
            f"raw: ops_per_s={len(raw) / sum(raw):.4f} latency_p50_s={statistics.median(raw):.4f} "
            f"setup_s={setup_raw:.4f} reference_speed={calibrate.REFERENCE_S / statistics.median(loop.cal):.3f}",
            file=sys.stderr,
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for note in notes[:20]:
        print(f"check: {note}", file=sys.stderr)
    return {
        "correct": checks.WRONG not in status,
        "attempted": len(status),
        "failed": sum(1 for s in status if s != checks.OK),
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(ROOT),
        )
        if proc.returncode != 0:
            print(f"{workload}: exited {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, res in results.items():
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

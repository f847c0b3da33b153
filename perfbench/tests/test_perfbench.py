"""Tests of the benchmark itself: inputs, tracer and output checks."""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

cli = run.load_cli()


def pmfiber_bindings():
    """id() of every attribute of every loaded pmfiber module and of MPoly."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "pmfiber" or modname.startswith("pmfiber.")):
            for attr, value in vars(mod).items():
                out[(modname, attr)] = id(value)
    for attr, value in vars(sys.modules["pmfiber.mpoly"].MPoly).items():
        out[("MPoly", attr)] = id(value)
    return out


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    workloads.write_inputs(workloads.build_ops(workload, 5), str(a))
    workloads.write_inputs(workloads.build_ops(workload, 5), str(b))
    workloads.write_inputs(workloads.build_ops(workload, 6), str(c))
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)


def test_generator_does_not_use_pmfiber():
    source = (BENCH / "workloads.py").read_text()
    assert not re.search(r"^\s*(from|import)\s+pmfiber", source, re.M)


def test_tracer_restores_every_binding():
    import pmfiber
    from pmfiber import symdet

    before = pmfiber_bindings()
    original = symdet.det_fraction_free
    A = pmfiber.matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    tracer = tracing.Tracer()
    with tracer:
        # every namespace binding the function sees the wrapper
        assert pmfiber.det_fraction_free is not original
        assert symdet.det_fraction_free is pmfiber.det_fraction_free
        assert sys.modules["pmfiber.structure"].det_fraction_free is symdet.det_fraction_free
        assert hasattr(pmfiber.MPoly.__mul__, "__wrapped__")
        assert hasattr(pmfiber.MPoly.__rmul__, "__wrapped__")
        pmfiber.principal_minors(A)
        pmfiber.MPoly.var(3, 0) * pmfiber.MPoly.var(3, 1)
    assert pmfiber_bindings() == before
    assert symdet.det_fraction_free is original
    summary = tracer.summary()
    assert summary["symdet.principal_minors_calls"] == 1
    assert summary["symdet.det_fraction_free_calls"] == 8
    assert summary["mpoly.mul_calls"] == 1
    assert summary["mpoly.mul_term_pairs"] == 1


def test_self_time_arithmetic_on_a_toy_call_tree():
    # root [0,10] has children a [1,4] and b [5,9]; b has child c [6,7] and
    # 0.5 s of aggregated leaf calls.
    starts, ends, parents = [0, 1, 5, 6], [10, 4, 9, 7], [-1, 0, 0, 2]
    leaf = [0, 0, 0.5, 0]
    assert tracing.span_self_times(starts, ends, parents, leaf) == [3, 3, 2.5, 1]


def test_tracer_summary_on_wrapped_toy_functions():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def inner():
        return 1

    wrapped_inner = tracer.wrap(inner, "toy.inner")

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_outer = tracer.wrap(outer, "toy.outer")
    assert wrapped_outer() == 2
    # outer spans ticks 0..5, the inner calls 1..2 and 3..4
    s = tracer.summary()
    assert s["toy.outer_s"] == 5 and s["toy.outer_self_s"] == 3
    assert s["toy.inner_s"] == 2 and s["toy.inner_self_s"] == 2
    assert s["toy.inner_calls"] == 2
    assert list(tracer.parent) == [-1, 0, 0]


def _op(workload, command, kind=None, field=None):
    """The smallest matching input of seed 3, to keep the tests quick."""
    return min(
        (
            op for op in workloads.build_ops(workload, 3)
            if op.command == command
            and (kind is None or op.kind == kind)
            and (field is None or op.field == field)
        ),
        key=lambda op: op.n,
    )


def _run(op, tmp_path):
    argv = workloads.write_inputs([op], str(tmp_path))[0]
    code, text, _ = run.call_cli(cli, argv)
    return code, text


@pytest.mark.parametrize(
    "workload,command,kind,field",
    [
        ("pencil", "minors", None, "Q"),
        ("pencil", "detpoly", None, "Q(i)"),
        ("pencil", "adjugate", None, "Q"),
        ("verify", "verify", None, "Q(i)"),
        ("classify", "classify", "planted", None),
        ("classify", "classify", "reducible", None),
        ("classify", "classify", "symmetrizable", None),
    ],
)
def test_checks_accept_real_output(workload, command, kind, field, tmp_path):
    op = _op(workload, command, kind, field)
    code, text = _run(op, tmp_path)
    assert checks.check_output(op, code, text, seed=3) == (checks.OK, None)


def test_corrupted_output_is_counted_as_failed(tmp_path):
    op = _op("pencil", "minors", field="Q")
    code, text = _run(op, tmp_path)
    doc = json.loads(text)
    full = ",".join(str(k + 1) for k in range(op.n))
    doc["result"]["minors"][full] = str(int(doc["result"]["minors"][full]) + 1)
    bad = json.dumps(doc, indent=2)
    assert checks.check_output(op, code, bad, seed=3)[0] == checks.WRONG

    loop = run.Loop(tmp_path)
    loop.record(0, code, bad, 0.1)
    loop.record(0, code, bad, 0.1)
    loop.cal = [calibrate.REFERENCE_S] * 2
    status, notes = run.judge([op], loop, seed=3)
    assert status == [checks.WRONG] and notes
    metrics = run.end_to_end(loop, status, setup_s=0.1, rss_kb=1024)
    assert metrics["ok_ratio"] == 0.0


def test_corrupted_witness_and_refusal(tmp_path):
    op = _op("classify", "classify", "reducible")
    code, text = _run(op, tmp_path)
    doc = json.loads(text)
    doc["witness"]["entries"] = [list(row) for row in op.rows]  # A itself
    assert checks.check_output(op, code, json.dumps(doc), seed=3)[0] == checks.WRONG
    refusal = json.dumps({"command": "classify", "error": "factor swap failed"})
    assert checks.check_output(op, 4, refusal, seed=3)[0] == checks.REFUSED
    assert checks.check_output(op, 2, refusal, seed=3)[0] == checks.WRONG
    assert checks.check_output(op, None, "", seed=3)[0] == checks.WRONG


def test_a_changed_repeat_output_is_wrong(tmp_path):
    op = _op("verify", "verify")
    code, text = _run(op, tmp_path)
    loop = run.Loop(tmp_path)
    loop.record(0, code, text, 0.1)
    loop.record(0, code, text + " ", 0.1)
    status, _ = run.judge([op], loop, seed=3)
    assert status == [checks.WRONG]


def test_every_input_runs_once_and_is_counted_once(tmp_path):
    ops = [_op("classify", "classify", kind) for kind in ("symmetrizable", "reducible")]
    argvs = workloads.write_inputs(ops, str(tmp_path))
    loop = run.closed_loop(cli, argvs, seconds=0.0, outdir=tmp_path)
    assert loop.order == [0, 1]
    loop = run.closed_loop(cli, argvs, seconds=0.3, outdir=tmp_path)
    assert len(loop.order) > 2
    status, _ = run.judge(ops, loop, seed=3)
    assert status == [checks.OK, checks.OK]
    metrics = run.end_to_end(loop, status, setup_s=0.1, rss_kb=1024)
    assert metrics["ok_ratio"] == 1.0
    assert len(loop.cal) == len(loop.latency)
    factors = calibrate.speed_factors(loop.cal)
    assert metrics["ops_per_s"] == len(loop.order) / sum(t * f for t, f in zip(loop.latency, factors))


def test_speed_factors_take_the_local_median():
    ref = calibrate.REFERENCE_S
    samples = [ref] * 5 + [2 * ref] * 20 + [100 * ref]
    factors = calibrate.speed_factors(samples, half_window=2)
    assert factors[:3] == [1.0, 1.0, 1.0]
    assert factors[10:] == [0.5] * 16  # one outlier does not move the median
    assert calibrate.kernel() == calibrate.kernel()


def test_scalar_and_poly_parsers():
    F = checks.Fraction
    assert checks.parse_scalar("-3/4") == (F(-3, 4), 0)
    assert checks.parse_scalar("2-3i") == (2, -3)
    assert checks.parse_scalar("-i") == (0, -1)
    assert checks.parse_scalar("1/2+5/3i") == (F(1, 2), F(5, 3))
    p = checks.parse_poly("x1*x2 - 3*x2 + (2-i)*x1 - 5", 2)
    assert p == {
        frozenset({0, 1}): (1, 0),
        frozenset({1}): (-3, 0),
        frozenset({0}): (2, -1),
        frozenset(): (-5, 0),
    }

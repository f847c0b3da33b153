"""End-to-end command line behavior: JSON documents, exit codes, stability."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmfiber import (
    MPoly,
    VerificationError,
    det_poly,
    find_cuts,
    matrix,
    scalar_parse,
    swap_factors_degenerate,
)
from pmfiber.cli import main
from pmfiber.scalars import div_exact, gaussian, scalar_format

from conftest import A4_ROWS, A6_ROWS, LATER_CUT_ROWS, cut_rows


def write_matrix(path, rows, field="Q"):
    doc = {
        "n": len(rows),
        "field": field,
        "entries": [[str(x) for x in row] for row in rows],
    }
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def a4_file(tmp_path):
    return write_matrix(tmp_path / "a4.json", A4_ROWS)


@pytest.fixture
def a6_file(tmp_path):
    return write_matrix(tmp_path / "a6.json", A6_ROWS)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out), out


# -- happy paths --------------------------------------------------------------------


def test_minors_document(capsys, a4_file):
    code, doc, _ = run_cli(capsys, "minors", a4_file)
    assert code == 0
    table = doc["result"]["minors"]
    assert len(table) == 16
    assert table[""] == "1"
    assert table["1,2,3,4"] == "87"
    assert table["1"] == "2" and table["4"] == "-1"


@pytest.mark.parametrize("n", [1, 4, 11])
def test_minors_keys_come_by_size_then_lexicographically(capsys, tmp_path, n):
    """The table lists each size in ``combinations`` order, keys 1-based and
    comma-joined, whatever the order in which the walk reaches the subsets."""
    rows = [[(i * 3 + j * 5 + i * j) % 7 - 3 for j in range(n)] for i in range(n)]
    code, doc, _ = run_cli(capsys, "minors", write_matrix(tmp_path / "m.json", rows))
    assert code == 0
    subsets = [S for k in range(n + 1) for S in combinations(range(n), k)]
    assert list(doc["result"]["minors"]) == [",".join(str(i + 1) for i in S) for S in subsets]
    pm = det_poly(matrix(rows)).minors()
    assert list(doc["result"]["minors"].values()) == [scalar_format(pm.value(S)) for S in subsets]


def test_detpoly_text_and_json(capsys, a4_file):
    code, doc, _ = run_cli(capsys, "detpoly", a4_file)
    assert code == 0
    assert isinstance(doc["polynomials"]["f"], str)
    code2, doc2, _ = run_cli(capsys, "detpoly", "--json-poly", a4_file)
    assert code2 == 0
    assert doc2["polynomials"]["f"]["1,2,3,4"] == "1"
    assert doc2["polynomials"]["f"][""] == "87"


def test_adjugate_grid(capsys, a4_file):
    code, doc, _ = run_cli(capsys, "adjugate", a4_file)
    assert code == 0
    grid = doc["polynomials"]["adjugate"]
    assert len(grid) == 4 and len(grid[0]) == 4
    assert grid[0][1] == "x3*x4 + 3*x3 + 3*x4 + 9"


def test_cuts_document(capsys, a4_file):
    code, doc, _ = run_cli(capsys, "cuts", a4_file)
    assert code == 0
    assert doc["result"]["count"] == 1
    assert doc["result"]["cuts"][0]["X"] == [1, 2]
    assert doc["result"]["cuts"][0]["complement"] == [3, 4]


def test_classify_and_witness_loop(capsys, tmp_path, a4_file):
    code, doc, _ = run_cli(capsys, "classify", a4_file)
    assert code == 0
    assert doc["result"]["verdict"] == "MultiPoint"
    assert doc["result"]["reason"] == "HasCutNotSymmetrizable"
    assert doc["result"]["cut"] == [1, 2]
    witness_file = tmp_path / "witness.json"
    witness_file.write_text(json.dumps(doc["witness"]))

    # the witness shares every principal minor with the input...
    _, minors_a, _ = run_cli(capsys, "minors", a4_file)
    _, minors_w, _ = run_cli(capsys, "minors", str(witness_file))
    assert minors_a["result"]["minors"] == minors_w["result"]["minors"]

    # ...yet no diagonal equivalence certificate exists
    code_eq, doc_eq, _ = run_cli(capsys, "equiv", a4_file, str(witness_file))
    assert code_eq == 0
    assert doc_eq["result"]["equivalent"] is False
    assert doc_eq["certificate"] is None


def test_witness_explicit_cut(capsys, a4_file):
    code, doc, _ = run_cli(capsys, "witness", "--cut", "1,2", a4_file)
    assert code == 0
    assert doc["result"]["kind"] == "CutSwap"
    assert doc["result"]["cut"] == [1, 2]
    assert doc["witness"]["n"] == 4


def test_witness_reducible_route(capsys, a6_file):
    code, doc, _ = run_cli(capsys, "witness", a6_file)
    assert code == 0
    assert doc["result"]["kind"] == "ReduciblePattern"
    assert doc["result"]["cut"] is None


def test_witness_no_cut_is_precondition_error(capsys, tmp_path):
    f = write_matrix(tmp_path / "dense.json", [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    code, doc, _ = run_cli(capsys, "witness", f)
    assert code == 2
    assert "error" in doc


def test_equiv_finds_planted_certificate(capsys, tmp_path):
    # B = D A D^-1 with D = diag(1, 2, 3): B_ij = d_i * A_ij / d_j
    a = write_matrix(tmp_path / "a.json", [[0, 2, 1], [1, 0, 3], [2, 2, 1]])
    b = tmp_path / "b.json"
    b.write_text(
        json.dumps(
            {
                "n": 3,
                "field": "Q",
                "entries": [["0", "1", "1/3"], ["2", "0", "2"], ["6", "3", "1"]],
            }
        )
    )
    code, doc, _ = run_cli(capsys, "equiv", a, str(b))
    assert code == 0
    assert doc["result"]["equivalent"] is True
    assert doc["certificate"]["d"] == ["1", "2", "3"]
    assert doc["certificate"]["transposed"] is False


def test_structure_document(capsys, a6_file):
    code, doc, _ = run_cli(capsys, "structure", a6_file)
    assert code == 0
    assert doc["result"]["blocks"] == [[1, 5], [2, 4], [3, 6]]
    assert doc["result"]["product_matches"] is True
    assert doc["polynomials"]["factors"] == [
        "x1*x5 + 2*x1 + x5 + 3",
        "x2*x4 + x2 - 3*x4 - 4",
        "x3*x6 + 3*x3 + 4*x6 + 20",
    ]


def test_fibershape_document(capsys, a6_file):
    code, doc, _ = run_cli(capsys, "fibershape", a6_file)
    assert code == 0
    assert doc["result"]["blocks"] == [[1, 5], [2, 4], [3, 6]]
    assert doc["result"]["free_positions"] == [[1, 2], [1, 3], [2, 3]]


def test_symmetrize_hermitize(capsys, tmp_path):
    s = write_matrix(tmp_path / "s.json", [[0, 1], [4, 0]])
    code, doc, _ = run_cli(capsys, "symmetrize", s)
    assert code == 0
    assert doc["result"]["verdict"] == "SymmetricEquivalentOverField"
    assert doc["certificate"]["witness_d"]["d"] == ["1", "1/2"]

    h = tmp_path / "h.json"
    h.write_text(
        json.dumps(
            {
                "n": 2,
                "field": "Q(i)",
                "entries": [["1", "2i"], ["-i/2", "1"]],
            }
        )
    )
    code2, doc2, _ = run_cli(capsys, "hermitize", str(h))
    assert code2 == 0
    assert doc2["result"]["verdict"] == "SymmetricEquivalentOverField"
    assert doc2["certificate"]["e"] == ["1", "4"]
    assert doc2["certificate"]["witness_d"]["d"] == ["1", "2"]


def test_symfiber_document(capsys, tmp_path):
    f = write_matrix(
        tmp_path / "sym.json",
        [[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 3, 4], [0, 0, 4, 3]],
    )
    code, doc, _ = run_cli(capsys, "symfiber", f)
    assert code == 0
    assert doc["result"]["irreducible"] is False
    assert doc["result"]["blocks"] == [[1, 2], [3, 4]]


def test_stablecert_document(capsys, tmp_path):
    f = tmp_path / "herm.json"
    f.write_text(
        json.dumps(
            {
                "n": 2,
                "field": "Q(i)",
                "entries": [["2", "1+i"], ["1-i", "3"]],
            }
        )
    )
    code, doc, _ = run_cli(capsys, "stablecert", str(f))
    assert code == 0
    assert doc["result"]["verdict"] == "Certified"
    assert doc["result"]["failing_block"] is None


def test_verify_document(capsys, a4_file):
    code, doc, _ = run_cli(capsys, "verify", a4_file)
    assert code == 0
    assert doc["result"]["all_ok"] is True
    assert set(doc["report"]) == {"dodgson", "resultant", "laplace", "adjugate"}
    code2, doc2, _ = run_cli(capsys, "verify", "--identity", "dodgson", a4_file)
    assert code2 == 0
    assert set(doc2["report"]) == {"dodgson"}


def test_selftest_document(capsys):
    code, doc, _ = run_cli(
        capsys, "selftest", "--n", "4", "--trials", "2", "--seed", "3",
        "--suite", "dodgson", "--suite", "equiv_recovery",
    )
    assert code == 0
    assert doc["result"]["all_ok"] is True
    assert [r["name"] for r in doc["report"]] == ["dodgson", "equiv_recovery"]


# -- the envelope -------------------------------------------------------------------

COMMANDS = [
    "minors", "detpoly", "adjugate", "cuts", "classify", "witness", "equiv", "structure",
    "fibershape", "symmetrize", "hermitize", "symfiber", "stablecert", "verify", "selftest",
]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_document_opens_with_its_command(capsys, tmp_path, a4_file, command):
    # On success and on a missing matrix file alike, "command" comes first;
    # an error document holds nothing else but "error".
    missing = str(tmp_path / "nope.json")
    if command == "selftest":
        runs = [(["selftest", "--n", "4", "--trials", "1", "--suite", "dodgson"], 0)]
    elif command == "equiv":
        runs = [([command, a4_file, a4_file], 0), ([command, missing, a4_file], 2),
                ([command, a4_file, missing], 2)]
    else:
        if command == "symfiber":  # needs a symmetric matrix: A4 plus its transpose
            sym = [[A4_ROWS[i][j] + A4_ROWS[j][i] for j in range(4)] for i in range(4)]
            a4_file = write_matrix(tmp_path / "sym.json", sym)
        runs = [([command, a4_file], 0), ([command, missing], 2)]
    for argv, expected in runs:
        code, doc, _ = run_cli(capsys, *argv)
        assert code == expected, argv
        assert next(iter(doc)) == "command" and doc["command"] == command
        if expected:
            assert list(doc) == ["command", "error"]
        else:
            assert "error" not in doc


# -- output stability ---------------------------------------------------------------


def test_output_is_byte_stable(capsys, a4_file):
    _, _, first = run_cli(capsys, "classify", a4_file)
    _, _, second = run_cli(capsys, "classify", a4_file)
    assert first == second
    _, _, third = run_cli(capsys, "witness", a4_file)
    _, _, fourth = run_cli(capsys, "witness", a4_file)
    assert third == fourth


# -- exit codes ---------------------------------------------------------------------


def test_exit_malformed_json(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, doc, _ = run_cli(capsys, "minors", str(f))
    assert code == 2 and "error" in doc


def test_exit_malformed_entry(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(
        json.dumps({"n": 2, "field": "Q", "entries": [["1", "oops"], ["0", "1"]]})
    )
    code, doc, _ = run_cli(capsys, "minors", str(f))
    assert code == 2 and "error" in doc


@pytest.mark.parametrize("entry", ["1 2", "1/2 3", "1 2/3", "\u0661", "\u0661+\u0662i"])
def test_exit_entry_with_split_or_non_ascii_digits(capsys, tmp_path, entry):
    """A typo that splits a number, or a digit of another script, is
    malformed input, not some other matrix: exit 2 and one error document."""
    f = write_matrix(tmp_path / "typo.json", [["1", entry], ["0", "1"]], field="Q(i)")
    for command in ("minors", "classify"):
        code, doc, _ = run_cli(capsys, command, f)
        assert code == 2 and list(doc) == ["command", "error"], doc
        assert repr(entry) in doc["error"]


def test_exit_imaginary_over_q(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(
        json.dumps({"n": 1, "field": "Q", "entries": [["2i"]]})
    )
    code, doc, _ = run_cli(capsys, "minors", str(f))
    assert code == 2


def test_exit_shape_mismatch(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"n": 2, "field": "Q", "entries": [["1", "2"]]}))
    code, doc, _ = run_cli(capsys, "minors", str(f))
    assert code == 2


def test_exit_boolean_size(capsys, tmp_path):
    # JSON true is a Python bool, an int subclass; it is not the size 1.
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"n": True, "field": "Q", "entries": [["1"]]}))
    code, doc, _ = run_cli(capsys, "minors", str(f))
    assert code == 2
    assert "n must be a positive integer" in doc["error"]


def test_exit_missing_file(capsys, tmp_path):
    code, doc, _ = run_cli(capsys, "minors", str(tmp_path / "nope.json"))
    assert code == 2


def test_exit_size_limit(capsys, tmp_path):
    n = 17
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    f = write_matrix(tmp_path / "big.json", rows)
    code, doc, _ = run_cli(capsys, "minors", f)
    assert code == 3 and "error" in doc


def test_exit_bad_cut_argument(capsys, a4_file):
    code, doc, _ = run_cli(capsys, "witness", "--cut", "1,zap", a4_file)
    assert code == 2
    code2, _, _ = run_cli(capsys, "witness", "--cut", "1,9", a4_file)
    assert code2 == 2
    code3, _, _ = run_cli(capsys, "witness", "--cut", "1,3", a4_file)
    assert code3 == 2  # {1,3} is not a cut of this matrix


@pytest.mark.parametrize("cut", ["1_0,2", "\u0661,2", "+2,10", "2,\uff11\uff10"])
def test_exit_cut_index_not_in_ascii_digits(capsys, tmp_path, cut):
    """Each ``--cut`` index is ASCII digits with spaces around; ``int`` alone
    would read "1_0" and the fullwidth "\uff11\uff10" as 10, "+2" as 2 and the
    Arabic-Indic "\u0661" as 1.  {2, 10} is a cut of this matrix."""
    base = cut_rows(10, 2)
    order = [2, 0, 3, 4, 5, 6, 7, 8, 9, 1]  # positions 2 and 10 take the cut {1, 2}
    f = write_matrix(tmp_path / "cut-2-10.json", [[base[p][q] for q in order] for p in order])
    code, doc, _ = run_cli(capsys, "witness", "--cut", cut, f)
    assert code == 2 and list(doc) == ["command", "error"]
    assert doc["error"].startswith("--cut expects comma-separated integers")
    code, doc, _ = run_cli(capsys, "witness", "--cut", " 2 , 10 ,", f)
    assert code == 0 and doc["result"]["cut"] == [2, 10]


def test_exit_internal_verification_maps_to_4(capsys, a4_file, monkeypatch):
    import pmfiber.cli as cli_mod

    def boom(A):
        raise VerificationError("synthetic failure")

    monkeypatch.setattr(cli_mod, "find_cuts", boom)
    code, doc, _ = run_cli(capsys, "cuts", a4_file)
    assert code == 4 and doc["error"] == "synthetic failure"


@pytest.mark.parametrize("argv", [("classify",), ("witness", "--cut", "1,2")])
def test_failed_swap_form_check_is_reported_as_such(capsys, a4_file, monkeypatch, argv):
    # An internal failure, not the refusal for a cut whose swap stays in
    # the input's class.
    import pmfiber.fiber as fiber_mod

    monkeypatch.setattr(fiber_mod, "_same_swap_form", lambda *args: False)
    code, doc, _ = run_cli(capsys, *argv, a4_file)
    assert code == 4
    assert doc["error"] == "factor swap failed its swap-form check: the swap's blocks do not match the input's"


@pytest.mark.parametrize("command", ["structure", "fibershape", "symfiber", "stablecert"])
def test_block_commands_exit_4_when_the_block_form_check_fails(capsys, tmp_path, monkeypatch, command):
    # All four read structure_check; with its one check failing, the block
    # factors no longer prove the pencil's factorization.
    import pmfiber.structure as structure_mod

    f = write_matrix(tmp_path / "sym.json", [[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 3, 4], [0, 0, 4, 3]])
    assert run_cli(capsys, command, f)[0] == 0
    monkeypatch.setattr(structure_mod, "same_block_form", lambda form, B: False)
    code, doc, _ = run_cli(capsys, command, f)
    assert code == 4
    if command == "stablecert":
        assert doc["error"] == "A is not block upper triangular in its Frobenius order"
    else:
        assert doc["result"]["blocks"] == [[1, 2], [3, 4]]


def test_selftest_failure_maps_to_4(capsys, monkeypatch):
    import pmfiber.cli as cli_mod
    from pmfiber.selftest import SuiteResult

    def fake(n=5, trials=25, seed=0, suites=None):
        return [SuiteResult("dodgson", trials, 1, ["trial 0: synthetic"])]

    monkeypatch.setattr(cli_mod, "run_selftest", fake)
    code, doc, _ = run_cli(capsys, "selftest", "--trials", "2")
    assert code == 4
    assert doc["result"]["all_ok"] is False


@pytest.mark.parametrize("argv", [["--trials", "-3"], ["--trials", "0"], ["--n", "-4"], ["--n", "0"]])
def test_selftest_rejects_sizes_below_one(capsys, argv):
    # --trials -3 used to exit 0 with "all_ok": true, and --n -4 echoed -4
    # while drawing 4 x 4 matrices.
    code, doc, _ = run_cli(capsys, "selftest", "--suite", "dodgson", *argv)
    assert code == 2
    assert list(doc) == ["command", "error"] and doc["command"] == "selftest"
    assert f"{argv[0][2:]} = {argv[1]}" in doc["error"]


def test_witness_on_a_long_cycle_reports_the_cut_cap(capsys, tmp_path):
    # Irreducible, so witness goes on to find_cuts, whose size cap applies;
    # the search for strong components must not hit the recursion limit.
    n = 1100
    rows = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    f = write_matrix(tmp_path / "cycle.json", rows)
    code = main(["witness", f])
    out = capsys.readouterr().out
    assert code == 3
    doc = json.loads(out)
    assert "error" in doc


@pytest.mark.parametrize("exc_type", [KeyError, ValueError])
def test_unexpected_exception_maps_to_4(capsys, a4_file, monkeypatch, exc_type):
    # A bug inside a command is an internal failure, not bad input.
    import pmfiber.cli as cli_mod

    def boom(A):
        raise exc_type("synthetic bug")

    monkeypatch.setattr(cli_mod, "find_cuts", boom)
    code, doc, _ = run_cli(capsys, "cuts", a4_file)
    assert code == 4
    assert doc["error"].startswith(exc_type.__name__)


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback(tmp_path):
    """The 12 x 12 minors document (over 100 kB) does not fit in a pipe's
    buffer, so the write meets the closed pipe: the command still exits
    with the handler's code, and writes nothing to stderr."""
    path = write_matrix(tmp_path / "m12.json", [[(i * 7 + j * 3) % 11 - 5 for j in range(12)] for i in range(12)])
    src = str(Path(main.__code__.co_filename).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "pmfiber", "minors", path], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert proc.stdout.read(20) == b'{\n  "command": "mino'
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_exit_oversized_integer_literal(capsys, tmp_path):
    # Python refuses to convert an integer literal longer than its digit
    # limit: bad input, 2.  The limit is set here rather than taken from the
    # interpreter, whose default PYTHONINTMAXSTRDIGITS=0 turns off.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no integer digit limit")
    f = tmp_path / "huge.json"
    f.write_text('{"n": 1, "field": "Q", "entries": [[' + "9" * 5000 + "]]}")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, doc, _ = run_cli(capsys, "minors", str(f))
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 2 and "error" in doc


def test_exit_deeply_nested_json(capsys, tmp_path):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100000 + "]" * 100000)
    code, doc, _ = run_cli(capsys, "minors", str(f))
    assert code == 2 and "error" in doc


def test_witness_cut_has_no_cap(capsys, tmp_path):
    # The swap is proved by its form, entry by entry, so no pencil is
    # expanded: n = 13 and n = 20 both answer.
    rows = cut_rows(13, 2)
    f = write_matrix(tmp_path / "cut13.json", rows)
    code, doc, _ = run_cli(capsys, "witness", "--cut", "1,2", f)
    assert code == 0 and doc["result"]["kind"] == "CutSwap"
    W = matrix([[scalar_parse(x) for x in row] for row in doc["witness"]["entries"]])
    assert det_poly(W).fpoly == det_poly(matrix(rows)).fpoly
    f = write_matrix(tmp_path / "cut20.json", cut_rows(20, 2))
    code, doc, _ = run_cli(capsys, "witness", "--cut", "1,2", f)
    assert code == 0 and doc["result"]["kind"] == "CutSwap"


def _reducible_rows(n):
    """Index 0 alone, then an (n-1)-cycle."""
    rows = [[i + 1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows[0][1] = 2
    for i in range(1, n):
        rows[i][i % (n - 1) + 1] = 1
    return rows


def test_witness_on_a_reducible_matrix_above_sixteen(capsys, tmp_path):
    # The reducible witness is proved by its block form, so no 17-variable
    # pencil is ever built.
    n = 17
    rows = _reducible_rows(n)
    f = write_matrix(tmp_path / "red17.json", rows)
    code, doc, _ = run_cli(capsys, "witness", f)
    assert code == 0 and doc["result"]["kind"] == "ReduciblePattern"
    W = doc["witness"]["entries"]
    assert W[0] == ["1", "0"] + ["1"] * (n - 2)
    assert W[1:] == [[str(x) for x in row] for row in rows[1:]]


def test_classify_on_a_reducible_matrix_above_sixteen(capsys, tmp_path):
    f = write_matrix(tmp_path / "red17.json", _reducible_rows(17))
    code, doc, _ = run_cli(capsys, "classify", f)
    assert code == 0 and doc["result"]["reason"] == "Reducible"


def test_minors_refusal_names_principal_minors(capsys, tmp_path):
    # the table is read off the pencil, but the refusal is the minor vector's
    f = write_matrix(tmp_path / "id17.json", [[int(i == j) for j in range(17)] for i in range(17)])
    code, doc, _ = run_cli(capsys, "minors", f)
    assert code == 3
    assert doc["error"] == "principal_minors limited to n <= 16, got n = 17"


def test_classify_on_an_irreducible_matrix_is_capped_by_find_cuts(capsys, tmp_path):
    f = write_matrix(tmp_path / "cut17.json", cut_rows(17, 2))
    code, doc, _ = run_cli(capsys, "classify", f)
    assert code == 3
    assert "find_cuts limited to n <= 16, got n = 17" in doc["error"]


def _block_rows(sizes, upper):
    """Tridiagonal (so irreducible) symmetric diagonal blocks of the given
    sizes; with ``upper``, every entry above the blocks is 1."""
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            rows[i][i] = i % 5 - 2
            if i + 1 < start + size:
                rows[i][i + 1] = rows[i + 1][i] = i % 3 + 1
            if upper:
                for j in range(start + size, n):
                    rows[i][j] = 1
        start += size
    return rows


@pytest.mark.parametrize(
    "command, upper",
    [("structure", True), ("fibershape", True), ("stablecert", True), ("symfiber", False)],
)
def test_block_commands_answer_a_reducible_twenty(capsys, tmp_path, command, upper):
    # Only the diagonal blocks' pencils are expanded, and their cap is by
    # block size, so n = 20 with blocks of 12 and 8 answers; symfiber takes
    # the symmetric, block diagonal, variant.
    f = write_matrix(tmp_path / "red20.json", _block_rows([12, 8], upper))
    code, doc, _ = run_cli(capsys, command, f)
    assert code == 0
    assert doc["result"]["blocks"] == [list(range(1, 13)), list(range(13, 21))]


def test_structure_caps_the_block_pencil(capsys, tmp_path):
    f = write_matrix(tmp_path / "cut13.json", cut_rows(13, 2))
    code, doc, _ = run_cli(capsys, "structure", f)
    assert code == 3
    assert "block_det_poly limited to n <= 12, got n = 13" in doc["error"]


# -- the contract on drawn input ----------------------------------------------------

MATRIX_COMMANDS = [c for c in COMMANDS if c != "selftest"]
POLY_COMMANDS = {"detpoly", "adjugate", "structure", "fibershape", "symfiber", "stablecert"}
CONTRACT_POOLS = {
    "Q": [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), 5],
    "Q(i)": [0, 0, 0, 1, -1, 2, gaussian(0, 1), gaussian(1, -1), Fraction(1, 2), gaussian(-2, 3)],
}


@st.composite
def cli_calls(draw):
    """(argv, matrix documents): one of the matrix commands on drawn input at
    n = 1..6 over Q or Q(i), about 30% zeros, a fifth of the draws symmetric."""
    command = draw(st.sampled_from(MATRIX_COMMANDS))
    field = draw(st.sampled_from(sorted(CONTRACT_POOLS)))
    pool = st.sampled_from(CONTRACT_POOLS[field])
    n = draw(st.integers(1, 6))
    symmetric = draw(st.integers(0, 4)) == 0
    docs = []
    for _ in range(2 if command == "equiv" else 1):
        rows = [[draw(pool) for _ in range(n)] for _ in range(n)]
        if symmetric:
            rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        docs.append({"n": n, "field": field, "entries": [[scalar_format(x) for x in r] for r in rows]})
    flags = ["--json-poly"] if command in POLY_COMMANDS and draw(st.booleans()) else []
    return [command, *flags], docs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cli_calls())
def test_cli_contract_on_drawn_input(tmp_path_factory, call):
    # One JSON document per call, exit 0, 2, 3 or 4; exit 4 only as the
    # refusal when every cut's swap is diagonally equivalent to the input.
    argv, docs = call
    folder = tmp_path_factory.mktemp("contract")
    paths = []
    for k, doc in enumerate(docs):
        path = folder / f"m{k}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + paths)
    doc = json.loads(out.getvalue())
    assert doc["command"] == argv[0]
    assert code in (0, 2, 3, 4)
    if code:
        assert list(doc) == ["command", "error"]
    if code == 4:
        assert argv[0] in ("classify", "witness")
        assert "swap produced a diagonally equivalent matrix" in doc["error"]
        A = matrix([[scalar_parse(x, docs[0]["field"]) for x in r] for r in docs[0]["entries"]], docs[0]["field"])
        assert all(swap_factors_degenerate(A, cut.X) for cut in find_cuts(A))


def test_witness_without_cut_takes_the_first_cut_that_leaves_the_class(capsys, tmp_path):
    f = write_matrix(tmp_path / "later.json", LATER_CUT_ROWS)
    code, doc, _ = run_cli(capsys, "witness", f)
    assert code == 0
    assert doc["result"] == {"kind": "CutSwap", "cut": [1, 2, 4]}
    _, classified, _ = run_cli(capsys, "classify", f)
    assert classified["witness"] == doc["witness"]
    code, doc, _ = run_cli(capsys, "witness", "--cut", "1,2", f)
    assert code == 2 and list(doc) == ["command", "error"]
    assert "diagonally equivalent" in doc["error"]


def test_a_given_cut_that_stays_in_the_class_is_bad_input(capsys, tmp_path):
    # Every cut's swap stays in the class: the classifier cannot decide
    # (exit 4), while a chosen cut that cannot leave it is a fact about the
    # input (exit 2), with the same message.
    f = write_matrix(tmp_path / "degenerate.json", [[1, 2, 1, 3], [3, 4, 2, 6], [1, 2, 5, 6], [3, 6, 6, 8]])
    for argv, expected in ((["classify"], 4), (["witness"], 4), (["witness", "--cut", "1,2"], 2)):
        code, doc, _ = run_cli(capsys, *argv, f)
        assert code == expected and list(doc) == ["command", "error"]
        assert "swap produced a diagonally equivalent matrix" in doc["error"]


# -- golden bytes of the polynomial commands ------------------------------------------


def _golden_inputs():
    """(field, rows) by name: dense int, Fraction, Q(i) with Fraction parts,
    Q(i) with a zero diagonal (the walk's deficiency path), n = 1, at n = 10
    and 9 a dense int and a Q(i) input, whose names and keys reach two digits
    (``x10``, ``10``), and at n = 8 Fraction rows and a zero on the diagonal,
    which send the full walk down its row-scale and deficiency paths.  Four
    reducible inputs, two of them symmetric, give ``structure``,
    ``fibershape``, ``stablecert`` and ``symfiber`` block factors with
    Fraction and Q(i) coefficients, whose text ``poly_text`` writes; on
    ``int-6`` and ``gaussian-fraction-5`` the first three print one block,
    and an irreducible symmetric input gives ``symfiber``'s note alone.  For
    the partial walk, at n = 12 an int input whose leading 3 x 3 block has
    rank one and whose diagonal has zeros, so singular subsets (rank
    deficiencies 1 and 2) appear at every size; at n = 11 one with Fraction
    rows (row scales above 1) and a Q(i) one with zero entries.  For the
    adjugate table and ``verify``, inputs at n = 1, 2 and 3, where a walk
    node has at most one index left, and at n = 9 and 10 with zeros on and
    off the diagonal and a rank-one leading block (so the full walk meets
    rank-deficient nodes), with Fraction rows over Q and over Q(i)."""
    q = Fraction

    def upper(n, first, entry):  # no entry from outside ``first`` into it
        return [[0 if i not in first and j in first else entry(i, j) for j in range(n)] for i in range(n)]

    def block_diagonal(n, blocks, entry):
        block = {k: b for b, B in enumerate(blocks) for k in B}
        return [[entry(min(i, j), max(i, j)) if block[i] == block[j] else 0 for j in range(n)] for i in range(n)]

    return {
        "int-6": ("Q", [[(-1) ** (i + j) * ((i * 5 + j * 3 + i * j) % 6 + 1) for j in range(6)] for i in range(6)]),
        "fraction-5": ("Q", [[q((i * 3 + j * 2) % 7 - 3, (i + 2 * j) % 4 + 1) for j in range(5)] for i in range(5)]),
        "gaussian-fraction-5": ("Q(i)", [
            [gaussian(q((i + 2 * j) % 5 - 2, j % 3 + 1), q((3 * i + j) % 5 - 2, i % 2 + 1)) for j in range(5)]
            for i in range(5)
        ]),
        "gaussian-zero-diagonal-4": ("Q(i)", [
            [0 if i == j else gaussian(q((i + j) % 3 + 1, i + 1), q(j - i, 2)) for j in range(4)]
            for i in range(4)
        ]),
        "n-1": ("Q(i)", [[gaussian(q(-3, 2), q(1, 3))]]),
        "int-10": ("Q", [[(-1) ** (i * j) * ((i * 7 + j * 3 + i * j) % 9 + 1) for j in range(10)] for i in range(10)]),
        "gaussian-9": ("Q(i)", [[gaussian((i + 2 * j) % 11 - 5, (3 * i + j * j) % 11 - 5) for j in range(9)] for i in range(9)]),
        "fraction-zero-diagonal-8": ("Q", [
            [0 if i == j == 3 else (
                q((i * 5 + j * 3) % 7 - 3, i % 3 + 2) if i % 3 == 1 else (-1) ** (i + j) * ((i * 3 + j * 5 + i * j) % 7 + 1)
            ) for j in range(8)]
            for i in range(8)
        ]),
        "reducible-fraction-6": ("Q", upper(
            6, {0, 2, 5}, lambda i, j: q((i * 5 + j * 3 + i * j) % 7 - 3, (i + 2 * j) % 3 + 1)
        )),
        "reducible-gaussian-5": ("Q(i)", upper(
            5, {1, 3}, lambda i, j: gaussian(q((i + 2 * j) % 5 - 2, j % 3 + 1), q((3 * i + j) % 5 - 2, i % 2 + 2))
        )),
        "symmetric-fraction-6": ("Q", block_diagonal(
            6, [(0, 3, 4), (1, 5), (2,)], lambda i, j: q((i * 3 + j * 2) % 7 - 3, (i + j) % 3 + 1)
        )),
        "symmetric-gaussian-5": ("Q(i)", block_diagonal(
            5, [(0, 2, 4), (1, 3)], lambda i, j: gaussian(q((i + j) % 5 - 2, 2), q((2 * i + j) % 3 - 1, j % 2 + 1))
        )),
        "symmetric-irreducible-5": ("Q", [[q((i * j + i + j) % 7 - 3, (i + j) % 3 + 1) for j in range(5)] for i in range(5)]),
        "int-singular-block-12": ("Q", [
            [(i + 1) * (j + 1) if i < 3 and j < 3 else 0 if i == j and i % 3 == 1 else (
                (i * 5 + j * 3 + 2 * i * j + i * i) % 7 - 3
            ) for j in range(12)]
            for i in range(12)
        ]),
        "fraction-rows-11": ("Q", [
            [q((i * 3 + j * 5 + i * j) % 9 - 4, (i + j) % 4 + 1) if i % 2 else (i * 2 + j * 3) % 7 - 3 for j in range(11)]
            for i in range(11)
        ]),
        "gaussian-zeros-11": ("Q(i)", [
            [0 if (i * 3 + j) % 4 == 0 else gaussian((i + 3 * j) % 5 - 2, (2 * i + j) % 5 - 2) for j in range(11)]
            for i in range(11)
        ]),
        "zero-1": ("Q", [[0]]),
        "int-zeros-2": ("Q", [[0, 3], [-2, 5]]),
        "fraction-zeros-3": ("Q", [[q(1, 2), 0, -1], [2, 0, q(3, 4)], [0, 5, q(-2, 3)]]),
        "gaussian-zeros-3": ("Q(i)", [[0, gaussian(1, -1), 2], [gaussian(0, 1), 0, 0], [q(1, 3), gaussian(q(1, 2), 2), 0]]),
        "fraction-zeros-9": ("Q", _rank_one_led(9, lambda i, j: (
            q((i * 5 + j * 3 + i * j) % 9 - 4, (i + j) % 3 + 1) if i % 2 else (i * 3 + j * 7) % 11 - 5
        ))),
        "gaussian-zeros-9": ("Q(i)", _rank_one_led(9, lambda i, j: gaussian(
            q((i + 3 * j) % 7 - 3, i % 2 + 1), (2 * i + j * j) % 5 - 2
        ))),
        "fraction-zeros-10": ("Q", _rank_one_led(10, lambda i, j: (
            q((i * 3 + j * 5 + 2 * i * j) % 7 - 3, j % 3 + 1) if i % 3 == 2 else (i * 7 + j * 2 + i * j) % 9 - 4
        ))),
        "gaussian-zeros-10": ("Q(i)", _rank_one_led(10, lambda i, j: gaussian(
            (i * 2 + j * 5) % 7 - 3, q((3 * i + j) % 5 - 2, j % 2 + 1)
        ))),
    }


def _rank_one_led(n, entry):
    """n x n rows whose leading 3 x 3 block has rank one, with zeros on a third
    of the diagonal and at a fifth of the other places, ``entry`` elsewhere."""
    return [
        [(i + 1) * (j - 2) if i < 3 and j < 3 else 0 if (i == j and i % 3 == 1) or (i * 4 + j * 3) % 5 == 0 else (
            entry(i, j)
        ) for j in range(n)]
        for i in range(n)
    ]


# SHA-256 of stdout; the walk and the text formatter must keep every byte.
GOLDEN_DIGESTS = {
    ('fraction-5', 'minors'): "4b089f8daf56f2838707c7775a3810ea75535899cdb988914b54baef73f8075c",
    ('fraction-5', 'detpoly'): "1d3c2d7c2f6040f567a4478a3952274e57b11c90c7d5b62e168f535297050d24",
    ('fraction-5', 'adjugate'): "1cb24d4448bc43d3df42d9b8edd4b71bd4f95733178583f997f7d590531d508b",
    ('fraction-5', 'detpoly --json-poly'): "794924c924a202b8320faf501505067aa1b7b8aaa0c9693cb55418eb92e8439c",
    ('fraction-5', 'adjugate --json-poly'): "04203b1fc89bacc1833e11d3fbbf522559fc7e12811f2f79c3fbf82c0020cf86",
    ('gaussian-fraction-5', 'minors'): "fe739e165f0b390cc669fba4fa70db697750d30753ab0db26964bd2494cddd94",
    ('gaussian-fraction-5', 'detpoly'): "700d6ecc82a0ee81fe1087862760e7d6b8a470e7bb8399c8ad9967b3f3437a9d",
    ('gaussian-fraction-5', 'adjugate'): "f42d73855dab99454212e408347e3009942e8ff8a0780c77b2c605b6a192cdf6",
    ('gaussian-fraction-5', 'detpoly --json-poly'): "b40ee10cb2f2087eaed723596b89ea7039b8e9f4b64df18439b50c2cf319a816",
    ('gaussian-fraction-5', 'adjugate --json-poly'): "0f835da4d0b36d269be8385360c7139342a385da3eadeeb06e9bda4cb5b0ed72",
    ('gaussian-zero-diagonal-4', 'minors'): "094a43c395e4c540a0a4e48931b9371f0ce12ef87707b7359c2ea9b0122040bc",
    ('gaussian-zero-diagonal-4', 'detpoly'): "9ed2094450f754708c8a6c35723301d87e48f06c4cb7253491255d9e1dcdd6c0",
    ('gaussian-zero-diagonal-4', 'adjugate'): "ed993c466a6274749071b67a30bf97ae27b1f1bd5878554e2287c62ccd31cee5",
    ('gaussian-zero-diagonal-4', 'detpoly --json-poly'): "0e154b01bffd2e15f68e100b0c94cbffdcc59cd1cba50662050f795830babbb9",
    ('gaussian-zero-diagonal-4', 'adjugate --json-poly'): "a2fe739c4268e63fb86ceadb809747091a80b6cc612d2ce9c5017977b0af1ccb",
    ('int-6', 'minors'): "00293b55e13e234153466f8fd8219a24529d7c5de8c9220f50d5d5ec38bfb8c7",
    ('int-6', 'detpoly'): "5339fa026e52b95e7a30ca6ef6476b1ae019348f8708f549f2ad47242e6c1eb2",
    ('int-6', 'adjugate'): "a119cbce329b6d51563a4dc482f48921837311457f33d7ac309e42817616cb1a",
    ('int-6', 'detpoly --json-poly'): "457afbef95113d0fa8c082ecc7146910ad71b889d57f854132e88a41db48f8a6",
    ('int-6', 'adjugate --json-poly'): "25d882c4b783321fdffc6ecbf047dffe480a01f08105e89730310444b38204b5",
    ('n-1', 'minors'): "1f5a7dbd1b71d97bd3dce0ae0d0d167b4127332a7fed120266bb6cdb21e45d30",
    ('n-1', 'detpoly'): "1c5c10b7b89d65a323604ce8e631f0bfcafa425f6436762cb23446472f38f73a",
    ('n-1', 'adjugate'): "cbf5bfd20df4d9a39a745fd502e7a95d40c561bf68a93aef0970fa43f1801537",
    ('n-1', 'detpoly --json-poly'): "29b62ac37cfe9eddc4994c6ae67666adeb08ce983513cc679a2c3114ba3246d0",
    ('n-1', 'adjugate --json-poly'): "d96631ed80c9a3d4e82c481263606916cbe49cc0849a947e7c6b8adc8bb9b021",
    ('int-10', 'minors'): "24b3924c40677668697ec19e307297ac4d79e96605225a3fa60f46293ffc0f4d",
    ('int-10', 'detpoly'): "78d62ef4c2bd8c99b5d61fa9e91235b2ac6f0be4c628aaf29345edc2daed339b",
    ('gaussian-9', 'minors'): "6a1d09ddefae2441657d798ea121948e7ca620f84dfd9123291514088a274e92",
    ('gaussian-9', 'detpoly'): "36205038c0988bbcd7184601fbe1210ddfef8eb0f42c792cd1acd005f29c16a5",
    ('gaussian-9', 'adjugate'): "cab10ac5f30402989f2104e0960301723de0764ceeeee6cb65b4d04153804aa4",
    ('int-10', 'adjugate'): "9ed11e09f78ee666aaffed797b3222bee603032d0cc2aaeec0af26597df2b541",
    ('fraction-zero-diagonal-8', 'minors'): "e65356bbccccd0be45b293281759b970474b8a5eea3d57c327f056b7b0687db0",
    ('fraction-zero-diagonal-8', 'detpoly'): "c2c031dd23027e25b58dc887a9c12f11b301297ea83d2b2fcbaea8123124eaae",
    ('fraction-zero-diagonal-8', 'adjugate'): "a8fea26514861d32a8d82fe7c590c69f087476f1caeb4dc03692237d15f09e21",
    ('fraction-zero-diagonal-8', 'detpoly --json-poly'): "4b6d0e73b4df77b3e17affa1550af85918e85e2efc5a7730dab419e0ed707730",
    ('fraction-zero-diagonal-8', 'adjugate --json-poly'): "e707f5a99fe45fd20c28c8181be0ddc86c77dc43085a510272ad1990e90f9dd8",
    ('reducible-fraction-6', 'structure'): "19a04838018cf9255a59113abfcd33637f1598658a1d37d2d1da75d4c16570f6",
    ('reducible-fraction-6', 'structure --json-poly'): "0993e822e29c92cdef282f237c291b0972d32cec2e9182082bde69d40b383171",
    ('reducible-fraction-6', 'fibershape'): "f827cc2cb5aeb63248344af5c50d6404e096af38163962654023022c01b11e91",
    ('reducible-fraction-6', 'fibershape --json-poly'): "1b83b05c212f340f2e80af11ed9fdd04efbc999f8fa2afdba466bab4c04a0d17",
    ('reducible-fraction-6', 'stablecert'): "0b9a1620d641a00148223e0e2f16a2076560de967a0561bdeb785ec8dc6ab9ff",
    ('reducible-fraction-6', 'stablecert --json-poly'): "0fbe89c70c7b14298b228927738719d7537af79f66d3f56daba989c9558f0f2b",
    ('reducible-gaussian-5', 'structure'): "57a5ebbaf4916fdc4a6d7ed7633fd20c7c7fdeec6884bc4c0963e1a8c3739444",
    ('reducible-gaussian-5', 'structure --json-poly'): "d68ff3766ec45ad320ec2ccda83bb33bf909e3c231ab62096b09cdabe943c8d2",
    ('reducible-gaussian-5', 'fibershape'): "7d21cd38a078fe87d555aafeacd3850f48f5ed77870f4b357cbca647d0334f3b",
    ('reducible-gaussian-5', 'fibershape --json-poly'): "dd4efc5013c12ca863da3c2547be8c1dc34327372b0cb95ac2bc5c51dd5f1870",
    ('reducible-gaussian-5', 'stablecert'): "b2764b29e6d205e46ceb34f75c9e4054e89b885fd04869de3cbedd9408c252dc",
    ('reducible-gaussian-5', 'stablecert --json-poly'): "efe2702682d66a43cbcacdb239f79cc79ff8f9cc697278a0ef8b78525ec2f652",
    ('symmetric-fraction-6', 'structure'): "e2226730ca6629edb2783c3220ba2add66baf264bb52c3316ba490c4f100f83b",
    ('symmetric-fraction-6', 'structure --json-poly'): "0fdb89381ecde6c5ba0468c0ed861c6626fcf7fc56654dcebc2030f132d8af92",
    ('symmetric-fraction-6', 'fibershape'): "b810498600d0c85f3ecc8caae2307dd52868747a3ed3f835d5ec93255becbb64",
    ('symmetric-fraction-6', 'fibershape --json-poly'): "9c961947ea4250ebc5d5829642a36bcae03fe15b64d84b70e0acabc5d66647ab",
    ('symmetric-fraction-6', 'stablecert'): "bfe5e7ab577eb6ef37f4da8198df0a719e5d7500693e8c2f39a2214afd32e89e",
    ('symmetric-fraction-6', 'stablecert --json-poly'): "2be62ceadd7c0e6972037e95a6c448e0ef17f145c6ab8b648a1e4258f424b112",
    ('symmetric-fraction-6', 'symfiber'): "7acf3118836af98f6646816a775cdd3eedd16f7ee355547695760efa0c59af73",
    ('symmetric-fraction-6', 'symfiber --json-poly'): "960a10279d6277347f3221203a8e97350e3f47cc7c1f13b60c212072f34a755d",
    ('symmetric-gaussian-5', 'structure'): "eb1a30a0a5d5baf5e07e56821855fe4d9670cee51d00b128c26a54ce4b86446d",
    ('symmetric-gaussian-5', 'structure --json-poly'): "f85fe59484e80f120bf89b4a44242e5126dbac31424a8aafa7fb7aac67974e94",
    ('symmetric-gaussian-5', 'fibershape'): "0f17622d40358479d62ff9621a89df0cb78e8802c0e18bb265a8fa2fb9c9d748",
    ('symmetric-gaussian-5', 'fibershape --json-poly'): "51524d7fc499919b9e4b887097e1fc7474ef7ba4e85541f0bbb8fb682c8d944e",
    ('symmetric-gaussian-5', 'stablecert'): "29599d81adee05d8f99832314487627b634a643c5c275f6649da20d105794da8",
    ('symmetric-gaussian-5', 'stablecert --json-poly'): "ba33544451426f9a61f4a1934d3e65e5ea9ee536b88501350362b59b7d5f3bca",
    ('symmetric-gaussian-5', 'symfiber'): "c0b8d3a40853cab83f3c9e10df36e4bc8b299b59f5c7a13111fa90e610048401",
    ('symmetric-gaussian-5', 'symfiber --json-poly'): "20c40b7075a9d1bd69dc87188fae5216cf9e36a05ef7f3232f18711e4410f28f",
    ('int-6', 'structure'): "a10914fb2faf85a4cf29f2fcff25085690556d6ceb755619398910c5e8699ccb",
    ('int-6', 'structure --json-poly'): "db04357849110a93b4e72bd9d859aec6b7af82f89854628a50f0b1bee52b5cc9",
    ('int-6', 'fibershape'): "c341c7db29999c823b1b3ed7c2091d9b095f472432d6a82095350289a2051314",
    ('int-6', 'fibershape --json-poly'): "c9bd4c20693a6bf3d3adecdab477a932fc182f592e33daec606f4e32b2745579",
    ('int-6', 'stablecert'): "855df4f7d644faf335892ec4edc7972251ef48f204625dd70c62723972b1bbe8",
    ('int-6', 'stablecert --json-poly'): "45944bb503ca8755512f66107449123215629ed8f267c816d0e518ef62b4fb3b",
    ('gaussian-fraction-5', 'structure'): "b113c4457925f8d1f5b9a673476433903f54585b864a3df0cd03a11a69707363",
    ('gaussian-fraction-5', 'structure --json-poly'): "6d47182d52848f62e32cade8fdd761ad5e478bfa4239431b3b8bde95ebc2b48d",
    ('gaussian-fraction-5', 'fibershape'): "1d1eba11cb15c9c90761d63f87c826a7b40d25adb529a47f5ffae782e8bfe2a2",
    ('gaussian-fraction-5', 'fibershape --json-poly'): "aaa51427a2a54d4c215f86b0c40e90c5d144ab893d1e17bdb9c4f0b47aa57dfa",
    ('gaussian-fraction-5', 'stablecert'): "a711ab0245e58980ad5509908989c1b356de5f7db1b5decb37197f5186dc04ea",
    ('gaussian-fraction-5', 'stablecert --json-poly'): "5c052b5ebd55bf39b333755dd5025d4f5f7324b7d002f17e8ee5678c397a991e",
    ('symmetric-irreducible-5', 'symfiber'): "5c4ae489e72e7428d9c3bc05a8cba0b0ca26248c272140d1eb8db4ff14f2e600",
    ('symmetric-irreducible-5', 'symfiber --json-poly'): "5c4ae489e72e7428d9c3bc05a8cba0b0ca26248c272140d1eb8db4ff14f2e600",
    ('int-singular-block-12', 'minors'): "f926b6ebe8ab48365bf825ea162bd96621762d68018f4790c8194bffa89e1590",
    ('int-singular-block-12', 'detpoly'): "bb23895cb4c59f93ac1994afd40785cdc2ec89ecdf595c9939ed32344fa17e49",
    ('int-singular-block-12', 'detpoly --json-poly'): "c2c4fe634c6434b80d393dfa628ed2dd8cca473f852f5bf9a379937148aa998c",
    ('fraction-rows-11', 'minors'): "876d6a0dfc9c5c46fb381991d1518e6b684acaa56a99225198aa80b49c285bd4",
    ('fraction-rows-11', 'detpoly'): "ba42760a8ab7ec3a486564c30e407cebff936273f5f2d40a336ce4a900d2c5f7",
    ('fraction-rows-11', 'detpoly --json-poly'): "487f165a4d0ff137bc01c8bc93eb9414332f7b4be972c8e12a130b9b680b8e52",
    ('gaussian-zeros-11', 'minors'): "8eac87281f867239c63db44ff7426b67b6f25af63630cb7f6c5edaa3a7912534",
    ('gaussian-zeros-11', 'detpoly'): "ea7d84237448c565cf4a806d8827b1cfeeeb6dafe0982a5bfcf914026e7b97f4",
    ('gaussian-zeros-11', 'detpoly --json-poly'): "a32f6929a8c2c8af63ca59d91a5158b2f1e6cc125733265389ce18d73e7458f1",
    ('n-1', 'verify'): "a5798ed6171afd1c8785c5398eb69c3c9ca6e157b57874afd142f6afca7cd842",
    ('zero-1', 'adjugate'): "f58d3764d97ee39dce052ad43b7d0e6f02eac1cf0d4b7a3e9c1aeca23126c431",
    ('zero-1', 'adjugate --json-poly'): "4d8b3ebefc97887ac842c7ec84a7d32a1ff009ae939c70a30e3bde9bd2660ffa",
    ('zero-1', 'verify'): "a5798ed6171afd1c8785c5398eb69c3c9ca6e157b57874afd142f6afca7cd842",
    ('int-zeros-2', 'adjugate'): "c80c0af7c5aa9d6f73cf60e085018e2f005b0702d86e0e8a733719d989114f2e",
    ('int-zeros-2', 'adjugate --json-poly'): "2ffe7a1028f95fc33fbbc07c8d3bb6a5814de9944d8becaa18e3527866a33ffd",
    ('int-zeros-2', 'verify'): "f21e9e3738ff62febf005b5ed343c9aed7e0697d55343fc7fdbd9a7b78283ef8",
    ('fraction-zeros-3', 'adjugate'): "635312927f85e5de74c4dc625628d396e5380ad9a302ef4bf40c04315136b9c4",
    ('fraction-zeros-3', 'adjugate --json-poly'): "ad3f832c93464d1d8d7281dd6aba257d6bef13cedf93f630b26a60a33435bed9",
    ('fraction-zeros-3', 'verify'): "8d239bd248e5a0a95396bb0b207c590ef6ccd986361b4cb6c6f84ead94513f8a",
    ('gaussian-zeros-3', 'adjugate'): "c4a4aaed8b660b6c1c61fff14f8e6951fc940a8b99bff65fb3074c6c0036edfa",
    ('gaussian-zeros-3', 'adjugate --json-poly'): "b06ec503805ae4b3db441caf2f10c64350d080b3bfd7ec29a028d254fc39bed7",
    ('gaussian-zeros-3', 'verify'): "8d239bd248e5a0a95396bb0b207c590ef6ccd986361b4cb6c6f84ead94513f8a",
    ('fraction-zeros-9', 'adjugate'): "16a6b103ac8f00737ef4f97e346297f090a96883fad9a4e4e5317d215e7a924f",
    ('fraction-zeros-9', 'adjugate --json-poly'): "506013e73ed7fc3e0c45509fdc754a163428fe1ee1582e06b2d9796943af74b7",
    ('fraction-zeros-9', 'verify --identity adjugate'): "214fdb73e9f969bd0a40a4de960868e42f2090c7c71c2d29cf475438d7c38102",
    ('fraction-zeros-9', 'verify --identity dodgson'): "51af1762af1650fd28b7f82009d8de7bc94e9d97a2af4d8d74a60d0cc45fa590",
    ('gaussian-zeros-9', 'adjugate'): "66ea740669a944fd23e19a46a3b67199586da1ddf10b469d8a3812c10c43feed",
    ('gaussian-zeros-9', 'adjugate --json-poly'): "86c6e140fb52c0956a607e3f031ecf112c8e49221cf84ad274705ee5fef1d28b",
    ('gaussian-zeros-9', 'verify --identity adjugate'): "214fdb73e9f969bd0a40a4de960868e42f2090c7c71c2d29cf475438d7c38102",
    ('gaussian-zeros-9', 'verify --identity dodgson'): "51af1762af1650fd28b7f82009d8de7bc94e9d97a2af4d8d74a60d0cc45fa590",
    ('fraction-zeros-10', 'adjugate'): "c70a2751d040ef02ac9b7c1d5d4286c04b9bcb09004ab7c18c194262f3c94768",
    ('fraction-zeros-10', 'adjugate --json-poly'): "24001938d1a157e693dddc9808128da46c12ba7fa53833766b8ef4c98bafdcf6",
    ('fraction-zeros-10', 'verify --identity adjugate'): "66bac931f04f333a949a709d08778cecd7e196d5705d7fcaea725513446b81a3",
    ('fraction-zeros-10', 'verify --identity dodgson'): "b00d71c71b176b6d4a8997f0499bd6d10149de0d0e8535a22854e50f9351428a",
    ('gaussian-zeros-10', 'adjugate'): "96b961123962b98177aa30a1db382d457f6dd4692574f4d7a36cf32df5d3194f",
    ('gaussian-zeros-10', 'adjugate --json-poly'): "583e873ac22cb20f917fd52bd18e43a518307daa54823c9158ed2cd985e49e39",
    ('gaussian-zeros-10', 'verify --identity adjugate'): "66bac931f04f333a949a709d08778cecd7e196d5705d7fcaea725513446b81a3",
}

GOLDEN_CALLS = [
    [command, *extra]
    for command in ("minors", "detpoly", "adjugate", "structure", "fibershape", "stablecert", "symfiber")
    for extra in ([], ["--json-poly"])
] + [["verify"], ["verify", "--identity", "adjugate"], ["verify", "--identity", "dodgson"]]


@pytest.mark.parametrize("name", sorted(_golden_inputs()))
def test_polynomial_commands_keep_their_bytes(capsys, tmp_path, name):
    field, rows = _golden_inputs()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"n": len(rows), "field": field, "entries": [[scalar_format(x) for x in r] for r in rows]}))
    calls = [argv for argv in GOLDEN_CALLS if (name, " ".join(argv)) in GOLDEN_DIGESTS]
    assert calls
    for argv in calls:
        code, _, out = run_cli(capsys, *argv, str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[name, " ".join(argv)], argv


# -- golden bytes of the scaling commands ---------------------------------------------


def _conjugated_rows(rows, d):
    """The rows of D * rows * D^-1 for the diagonal d."""
    return [[d[i] * div_exact(x, d[j]) if x else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]


def _scaling_inputs():
    """(field, rows) by name for ``symmetrize``, ``hermitize`` and
    ``classify``, and (field, rows of A, rows of B) for ``equiv``.

    The ``equiv`` pairs are a planted conjugate, a transposed conjugate over
    Q(i), that planted conjugate with one entry changed, and a support of
    three components with zeros inside them.  Over Q and over Q(i) the
    single inputs reach every verdict of both scalings: a conjugated
    symmetric (or Hermitian) matrix is OverField, a tree whose ratios are
    2, -1 or 3 needs a root outside the field, and a cycle whose ratios
    multiply to 2 is NotSymmetrizable.  Three inputs have a cut and are
    symmetrizable, so ``classify`` prints their certificate: one over Q,
    one over Q(i), and one only over an extension of Q."""
    q, g = Fraction, gaussian
    a5 = [
        [q(1, 2), 3, 0, -1, 2],
        [1, 0, q(-2, 3), 0, 4],
        [0, 5, -2, 1, 0],
        [q(3, 4), 0, 2, 1, -3],
        [-1, 2, 0, q(1, 5), 0],
    ]
    planted = _conjugated_rows(a5, (1, q(-2, 3), 3, q(1, 2), -4))
    changed = [row[:] for row in planted]
    changed[0][1] *= 2
    g4 = [[g((2 * i + j) % 5 - 2, (i + 3 * j) % 5 - 2) for j in range(4)] for i in range(4)]
    g4t = [list(col) for col in zip(*g4)]
    z6 = [
        [1, 0, 0, 2, 0, 0],
        [0, 0, 0, 0, q(1, 2), 0],
        [0, 0, -3, 0, 0, 0],
        [-1, 0, 0, 0, 0, 0],
        [0, 3, 0, 0, 0, -2],
        [0, 1, 0, 0, 0, q(2, 3)],
    ]
    s5 = [
        [2, q(1, 2), 0, -1, 3],
        [q(1, 2), -1, 2, 0, 0],
        [0, 2, q(3, 4), 1, 0],
        [-1, 0, 1, 0, q(-2, 3)],
        [3, 0, 0, q(-2, 3), 1],
    ]
    s4 = [[g((i + j) % 3 - 1, (i * j) % 3 - 1) for j in range(4)] for i in range(4)]
    h4 = [[g((i + j) % 4 - 1, (j - i) * ((i + j) % 2 + 1)) for j in range(4)] for i in range(4)]
    cut5 = [[0] * 5 for _ in range(5)]  # symmetric, dense on {1, 3} and {2, 4, 5}, rank one across
    for i in range(5):
        for j in range(i, 5):
            if (i in (0, 2)) == (j in (0, 2)):
                cut5[i][j] = cut5[j][i] = (i * 3 + j * 5) % 7 - 3 or 1
            else:
                x, y = (i, j) if i in (0, 2) else (j, i)
                cut5[i][j] = cut5[j][i] = (x + 1) * (y % 3 - 2)
    return {
        "planted-fraction-5": ("Q", a5, planted),
        "transposed-gaussian-4": ("Q(i)", g4, _conjugated_rows(g4t, (g(1, 1), 2, g(0, -1), g(q(1, 2), 3)))),
        "changed-entry-fraction-5": ("Q", a5, changed),
        "components-with-zeros-6": ("Q(i)", z6, _conjugated_rows(z6, (g(1, 1), -1, g(0, 2), q(1, 3), g(2, -1), g(q(1, 2), 1)))),
        "symmetric-scaled-fraction-5": ("Q", _conjugated_rows(s5, (1, -2, q(1, 3), 3, q(-3, 2)))),
        "ratio-two-fraction-4": ("Q", [[1, 2, 0, 0], [1, q(1, 2), 6, 0], [0, 1, 0, -1], [0, 0, q(-1, 3), 2]]),
        "ratio-minus-one-fraction-3": ("Q", [[0, 1, 0], [-1, 2, 3], [0, q(3, 4), 1]]),
        "cycle-fraction-4": ("Q", [[1, 1, 1, 0], [1, 0, 2, 0], [1, 1, 3, q(1, 2)], [0, 0, q(1, 2), -1]]),
        "symmetric-scaled-gaussian-4": ("Q(i)", _conjugated_rows(s4, (g(1, 2), 1, g(0, 1), g(q(1, 2), -1)))),
        "hermitian-scaled-gaussian-4": ("Q(i)", _conjugated_rows(h4, (q(1, 2), 3, -1, q(2, 3)))),
        "ratio-three-gaussian-3": ("Q(i)", [[2, g(3, 3), 0], [g(1, -1), -1, g(0, 1)], [0, g(0, -3), q(1, 2)]]),
        "cycle-gaussian-3": ("Q(i)", [[g(1, 0), g(1, 1), g(2, -1)], [g(0, 1), g(3, 0), g(1, 2)], [g(-1, 1), g(2, 0), g(0, 1)]]),
        "symmetrizable-cut-fraction-5": ("Q", _conjugated_rows(cut5, (2, q(-1, 3), 1, 3, q(1, 2)))),
    }


# SHA-256 of stdout, computed before the scaling solver was rewritten.
SCALING_DIGESTS = {
    ('planted-fraction-5', 'equiv'): "6383129b9e38b091cf3e587ce49635119deacdfa78d5b5427f5f74d60f8bf232",
    ('transposed-gaussian-4', 'equiv'): "ab64cf45540ab64cf1045e227b572077b6701eb79b1f420f4c28a4152d11474f",
    ('changed-entry-fraction-5', 'equiv'): "a51c68a9efd565282e97ec63c15f543246c1dc822751fbc2cc6230e623b97a21",
    ('components-with-zeros-6', 'equiv'): "c9b795f0a95e1a79ac8ec9d995854a41380c260e1ff24765fdaa1d77dc38124f",
    ('symmetric-scaled-fraction-5', 'symmetrize'): "ef5156ca4ba25df35d46ea16e56dd27856e1c1bf67ecc25e37455fe70683da5f",
    ('symmetric-scaled-fraction-5', 'hermitize'): "4334d5af468895f5344a3e20afa1275e4bca9fe7f14746e678535e72b592de05",
    ('ratio-two-fraction-4', 'symmetrize'): "ba39b6640bba168b78cbef604b1f8ee6ecd1bbd5ae9be71dc9fe601cf1851e19",
    ('ratio-two-fraction-4', 'hermitize'): "714b625187a5b67aa91765b014fe27a003999dbde9fe9ca4237a4aba5375257a",
    ('ratio-two-fraction-4', 'classify'): "d9ece5725a74996bb2aef1a2a91cfd5470962c1b15244a56658407b0140349ec",
    ('ratio-minus-one-fraction-3', 'symmetrize'): "69a64383a89f8f9b0bd1d841f18ea6d94f85579b1601b65935206e8e387d5aec",
    ('ratio-minus-one-fraction-3', 'hermitize'): "e95231a0ed8ed99c41c63f8d88923dc51be9fae1b3f644532fec20118d9cfb54",
    ('cycle-fraction-4', 'symmetrize'): "6a679353b4ed98c75a84de3981508e0a544e7c1a6e4e6f75f9f22e817cf9a8a8",
    ('cycle-fraction-4', 'hermitize'): "e95231a0ed8ed99c41c63f8d88923dc51be9fae1b3f644532fec20118d9cfb54",
    ('symmetric-scaled-gaussian-4', 'symmetrize'): "13a9fe8022a96862a3b2ef690624e89cf4ea6e814de12db21ee7450fa2799d69",
    ('symmetric-scaled-gaussian-4', 'hermitize'): "e95231a0ed8ed99c41c63f8d88923dc51be9fae1b3f644532fec20118d9cfb54",
    ('symmetric-scaled-gaussian-4', 'classify'): "e65483f9ee9ef0a5b7f2b0fbdff322ac301b48f855092396e15a9b5b7a9e59bf",
    ('hermitian-scaled-gaussian-4', 'symmetrize'): "6a679353b4ed98c75a84de3981508e0a544e7c1a6e4e6f75f9f22e817cf9a8a8",
    ('hermitian-scaled-gaussian-4', 'hermitize'): "624ba632436f62c9bba981d132937828bf199e81580de9a551686093ed88f81b",
    ('ratio-three-gaussian-3', 'symmetrize'): "4249567c702e4eb15e607a30b2a057c81f7f6edfe40346ed4b4ea185ceb813fc",
    ('ratio-three-gaussian-3', 'hermitize'): "77d33b0904b4e1c57461f46d27117470acbcbdd1d834c8e8d449668fb90016de",
    ('cycle-gaussian-3', 'symmetrize'): "6a679353b4ed98c75a84de3981508e0a544e7c1a6e4e6f75f9f22e817cf9a8a8",
    ('cycle-gaussian-3', 'hermitize'): "e95231a0ed8ed99c41c63f8d88923dc51be9fae1b3f644532fec20118d9cfb54",
    ('symmetrizable-cut-fraction-5', 'symmetrize'): "b88e5201fa603da6656aa9be9c31085b5cfdf7b517f2051cdfbc975db09ce0f0",
    ('symmetrizable-cut-fraction-5', 'hermitize'): "57a2781bf811a4c6602d4a9606695b55897b11958070bec08dd2380e81d30729",
    ('symmetrizable-cut-fraction-5', 'classify'): "3989f157ceac8a180187fd935890f098dadb1f6b1d03f4a5e5dc674ee0d339b0",
}


@pytest.mark.parametrize("name, command", sorted(SCALING_DIGESTS))
def test_scaling_commands_keep_their_bytes(capsys, tmp_path, name, command):
    field, *matrices = _scaling_inputs()[name]
    paths = []
    for k, rows in enumerate(matrices):
        path = tmp_path / f"{name}-{k}.json"
        path.write_text(json.dumps({"n": len(rows), "field": field, "entries": [[scalar_format(x) for x in r] for r in rows]}))
        paths.append(str(path))
    code, _, out = run_cli(capsys, command, *paths)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCALING_DIGESTS[name, command]


def test_adjugate_text_builds_no_polynomial(capsys, tmp_path, monkeypatch):
    """The text grid is read off the rank-ordered coefficient lists; only
    ``--json-poly`` builds the entries as polynomials."""
    calls = []
    raw = MPoly._raw.__func__
    monkeypatch.setattr(MPoly, "_raw", classmethod(lambda cls, n, terms: calls.append(n) or raw(cls, n, terms)))
    path = write_matrix(tmp_path / "a6.json", A6_ROWS)
    for argv, built in ((["adjugate"], False), (["adjugate", "--json-poly"], True)):
        calls.clear()
        code, _, _ = run_cli(capsys, *argv, path)
        assert code == 0 and bool(calls) == built, argv


def _lifted_int_text(fn):
    """fn() with Python's limit on int <-> decimal text lifted, where it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return fn()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn()
    finally:
        sys.set_int_max_str_digits(limit)


def test_results_longer_than_the_int_text_limit_print_exactly(capsys, tmp_path):
    """Entries under the digit limit parse; minors, pencils and factors of
    twice their length print in full, and the limit is back afterwards."""
    a, b, c = "7" * 2500, "3" * 2500, "5" * 2500
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    two = write_matrix(tmp_path / "two.json", [[a, b], [b, a]])
    code, doc, _ = run_cli(capsys, "minors", two)
    assert code == 0
    assert doc["result"]["minors"]["1,2"] == _lifted_int_text(lambda: str(int(a) ** 2 - int(b) ** 2))
    three = write_matrix(tmp_path / "three.json", [[a, b, c], [b, c, a], [c, a, b]])
    for command in ("minors", "detpoly", "adjugate", "structure", "fibershape", "stablecert"):
        code, doc, _ = run_cli(capsys, command, three)
        assert code == 0, (command, doc.get("error"))
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit

"""Command line interface.

Matrices travel as JSON files {"n": 4, "field": "Q", "entries": [["2","-1",...],...]}
with entries written in the exact scalar grammar ("3", "-1/2", "2+3i").  Every
subcommand prints a single JSON document to stdout and exits 0 for a completed
analysis (negative verdicts included), 2 for malformed input or violated
preconditions, 3 for size-limit refusals, and 4 when an internal verification
check fails or any other exception escapes (a bug; the error names its type).

main loads the command's matrix files, calls its handler with the matrix, and
prints {"command": name} followed by the handler's body, or by {"error": ...}
when either raises; no handler reads a matrix file or writes "command".  A
reader that closes the pipe early ends the output, not the exit code.  The
files are parsed under Python's limit on the digits of an int read from text;
main lifts it while the handler runs, since an exact result may be longer
than any entry, and restores it after.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from .equiv import (
    DiagonalCertificate,
    SymmetrizabilityResult,
    diagonal_equivalence,
    hermitian_equivalence,
    symmetrizability,
)
from .errors import ParseError, PreconditionError, SizeLimitError, VerificationError
from .fiber import (
    NO_WITNESS_SYMMETRIZABLE,
    classify_fiber,
    cut_swap_witness,
    find_cuts,
    stable_certify,
    symmetric_fiber_describe,
)
from .mpoly import MPoly, poly_subset_map, poly_text, ranked_texts, subset_table
from .scalars import FIELDS, scalar_format, scalar_parse
from .selftest import SUITES, run_selftest
from .structure import structure_check
from .symdet import (
    IDENTITIES,
    SquareMatrix,
    adjugate_table,
    check_size,
    det_poly,
    matrix,
    verify_identities,
)


def _load_matrix(path: str) -> SquareMatrix:
    """The matrix in a JSON file; any malformed content is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ParseError("matrix file must be a JSON object")
        missing = [key for key in ("n", "field", "entries") if key not in doc]
        if missing:
            raise ParseError(f"matrix file missing keys: {', '.join(missing)}")
        n, field, entries = doc["n"], doc["field"], doc["entries"]
        if type(n) is not int or n < 1:
            raise ParseError("n must be a positive integer")
        if field not in FIELDS:
            raise ParseError(f"field must be one of {list(FIELDS)}")
        if (
            not isinstance(entries, list)
            or len(entries) != n
            or any(not isinstance(row, list) or len(row) != n for row in entries)
        ):
            raise ParseError("entries must be an n x n array")
        rows = []
        for row in entries:
            parsed = []
            for cell in row:
                if not isinstance(cell, (str, int)):
                    raise ParseError(f"entry {cell!r} must be a string scalar")
                parsed.append(scalar_parse(str(cell), field))
            rows.append(parsed)
        return matrix(rows, field)
    except (ValueError, RecursionError) as exc:  # JSON syntax or nesting, digit limits
        raise ParseError(str(exc)) from exc


def _matrix_doc(A: SquareMatrix) -> Dict:
    return {"n": A.n, "field": A.field, "entries": A.to_strings()}


def _subset_doc(indices) -> List[int]:
    return [i + 1 for i in sorted(indices)]


def _poly_doc(p: MPoly, args):
    return poly_subset_map(p) if getattr(args, "json_poly", False) else poly_text(p)


def _certificate_doc(cert: Optional[DiagonalCertificate]) -> Optional[Dict]:
    if cert is None:
        return None
    return {
        "d": [scalar_format(x) for x in cert.d],
        "transposed": cert.transposed,
    }


def _symmetrizability_doc(result: SymmetrizabilityResult) -> Dict:
    return {
        "verdict": result.verdict,
        "e": None if result.e is None else [scalar_format(x) for x in result.e],
        "witness_d": _certificate_doc(result.witness_d),
    }


def _parse_cut(text: str, n: int) -> Tuple[int, ...]:
    parts = [part.strip() for part in text.split(",") if part.strip() != ""]
    if not all(part.isascii() and part.isdigit() for part in parts):  # int() takes "1_0", "+1"
        raise ParseError(f"--cut expects comma-separated integers, got {text!r}")
    indices = [int(part) for part in parts]
    if any(not 1 <= i <= n for i in indices):
        raise ParseError(f"--cut indices must lie in 1..{n}")
    if len(set(indices)) != len(indices):
        raise ParseError("--cut indices must be distinct")
    return tuple(sorted(i - 1 for i in indices))


# -- handlers (each returns (body, exit code); main adds the envelope) ------------


@functools.cache
def _subset_keys(n: int) -> List[str]:
    """The ``minors`` keys ("1,3", "" for the empty set) in ``subset_table(n).canon``
    order, read off the table's monomial texts ("x1*x3"), which it makes by doubling."""
    subsets = subset_table(n)
    return [subsets.texts[subsets.mask_rank[m]][1:].replace("*x", ",") for m in subsets.canon]


def _cmd_minors(A: SquareMatrix, args) -> Tuple[Dict, int]:
    check_size("principal_minors", A.n)
    by_mask = det_poly(A).minors().by_mask
    text = str if set(map(type, by_mask)) == {int} else scalar_format
    values = map(text, map(by_mask.__getitem__, subset_table(A.n).canon))
    return {
        "result": {"n": A.n, "field": A.field, "minors": dict(zip(_subset_keys(A.n), values))},
    }, 0


def _cmd_detpoly(A: SquareMatrix, args) -> Tuple[Dict, int]:
    f = det_poly(A).fpoly
    if getattr(args, "json_poly", False):
        doc = poly_subset_map(f)
    else:  # f's coefficients by rank, read in order as ``adjugate`` reads G's
        subsets = subset_table(A.n)
        (doc,) = ranked_texts([list(map(f.terms.get, subsets.grlex, repeat(0)))], [subsets.texts])
    return {
        "result": {"n": A.n, "field": A.field},
        "polynomials": {"f": doc},
    }, 0


def _cmd_adjugate(A: SquareMatrix, args) -> Tuple[Dict, int]:
    G = adjugate_table(A)
    if getattr(args, "json_poly", False):
        grid = [[poly_subset_map(G.entry(i, j)) for j in range(A.n)] for i in range(A.n)]
    else:
        texts = ranked_texts(G.coeffs, [m.texts for m in G.monomials()])
        grid = [texts[i * A.n : (i + 1) * A.n] for i in range(A.n)]
    return {
        "result": {"n": A.n, "field": A.field},
        "polynomials": {"adjugate": grid},
    }, 0


def _cmd_cuts(A: SquareMatrix, args) -> Tuple[Dict, int]:
    cuts = find_cuts(A)
    return {
        "result": {
            "n": A.n,
            "count": len(cuts),
            "cuts": [
                {
                    "X": _subset_doc(c.X),
                    "complement": _subset_doc(c.complement(A.n)),
                    "rank_xxc": c.rank_xxc,
                    "rank_xcx": c.rank_xcx,
                }
                for c in cuts
            ],
        },
    }, 0


def _cmd_classify(A: SquareMatrix, args) -> Tuple[Dict, int]:
    res = classify_fiber(A)
    doc = {
        "result": {
            "verdict": res.verdict,
            "reason": res.reason,
            "cut": None if res.cut is None else _subset_doc(res.cut.X),
            "note": res.note,
        },
    }
    if res.symmetrizability is not None:
        doc["certificate"] = _symmetrizability_doc(res.symmetrizability)
    if res.witness is not None:
        doc["witness"] = _matrix_doc(res.witness)
    return doc, 0


def _cmd_witness(A: SquareMatrix, args) -> Tuple[Dict, int]:
    if args.cut is not None:
        X = _parse_cut(args.cut, A.n)
        W, cut = cut_swap_witness(A, X), X
    else:  # the classifier's witness: a reducible pattern or its cut's swap
        res = classify_fiber(A)
        W, cut = res.witness, None if res.cut is None else res.cut.X
        if W is None:
            no_cut = "matrix has no cut; pass --cut or use classify for the verdict"
            raise PreconditionError(no_cut if cut is None else NO_WITNESS_SYMMETRIZABLE)
    return {
        "result": {
            "kind": "ReduciblePattern" if cut is None else "CutSwap",
            "cut": None if cut is None else _subset_doc(cut),
        },
        "witness": _matrix_doc(W),
    }, 0


def _cmd_equiv(A: SquareMatrix, args) -> Tuple[Dict, int]:
    cert = diagonal_equivalence(A, args.other_matrix)
    return {
        "result": {"equivalent": cert is not None},
        "certificate": _certificate_doc(cert),
    }, 0


def _cmd_structure(A: SquareMatrix, args) -> Tuple[Dict, int]:
    report = structure_check(A)
    return {
        "result": {
            "n": A.n,
            "irreducible": len(report.blocks) == 1,
            "blocks": [_subset_doc(b) for b in report.blocks],
            "order": [i + 1 for i in report.form.order],
            "product_matches": report.product_matches,
            "blocks_irreducible": list(report.blocks_irreducible),
        },
        "polynomials": {"factors": [_poly_doc(f, args) for f in report.factors]},
    }, 0 if report.all_ok else 4


def _cmd_fibershape(A: SquareMatrix, args) -> Tuple[Dict, int]:
    report = structure_check(A)
    return {
        "result": {
            "n": A.n,
            "blocks": [_subset_doc(b) for b in report.blocks],
            "free_positions": [[p + 1, q + 1] for p, q in report.free_positions],
        },
        "polynomials": {"factors": [_poly_doc(f, args) for f in report.factors]},
    }, 0 if report.all_ok else 4


def _cmd_scaling(solve, A: SquareMatrix, args) -> Tuple[Dict, int]:
    """symmetrize and hermitize: the same document over their own solver."""
    result = solve(A)
    return {
        "result": {"verdict": result.verdict},
        "certificate": _symmetrizability_doc(result),
    }, 0


def _cmd_symfiber(A: SquareMatrix, args) -> Tuple[Dict, int]:
    desc = symmetric_fiber_describe(A)
    result = {"irreducible": desc.irreducible, "note": desc.note}
    doc = {"result": result}
    if desc.shape is not None:
        result["blocks"] = [_subset_doc(b) for b in desc.shape.blocks]
        result["free_positions"] = [[p + 1, q + 1] for p, q in desc.shape.free_positions]
        doc["polynomials"] = {
            "factors": [_poly_doc(f, args) for f in desc.shape.factors]
        }
    return doc, 0 if desc.shape is None or desc.shape.all_ok else 4


def _cmd_stablecert(A: SquareMatrix, args) -> Tuple[Dict, int]:
    cert = stable_certify(A)
    return {
        "result": {
            "verdict": cert.verdict,
            "blocks": [_subset_doc(b) for b in cert.blocks],
            "block_verdicts": [r.verdict for r in cert.reports],
            "failing_block": None if cert.failing_block is None else _subset_doc(cert.failing_block),
        },
        "report": [_symmetrizability_doc(r) for r in cert.reports],
        "polynomials": {"factors": [_poly_doc(f, args) for f in cert.factors]},
    }, 0


def _cmd_verify(A: SquareMatrix, args) -> Tuple[Dict, int]:
    identities = (args.identity,) if args.identity else IDENTITIES
    report = verify_identities(A, identities)
    by_name: Dict[str, Dict[str, int]] = {}
    for check in report.checks:
        slot = by_name.setdefault(check.identity, {"checks": 0, "passed": 0})
        slot["checks"] += 1
        slot["passed"] += 1 if check.ok else 0
    return {
        "result": {"n": A.n, "all_ok": report.all_ok},
        "report": by_name,
    }, 0 if report.all_ok else 4


def _cmd_selftest(A: None, args) -> Tuple[Dict, int]:
    suites = args.suite if args.suite else None
    results = run_selftest(n=args.n, trials=args.trials, seed=args.seed, suites=suites)
    all_ok = all(r.ok for r in results)
    return {
        "result": {
            "n": args.n,
            "trials": args.trials,
            "seed": args.seed,
            "all_ok": all_ok,
        },
        "report": [
            {
                "name": r.name,
                "trials": r.trials,
                "failures": r.failures,
                "messages": r.messages,
            }
            for r in results
        ],
    }, 0 if all_ok else 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmfiber",
        description="Exact analysis of principal minors, determinantal pencils, "
        "and fibers of the principal minor map.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    poly_flag = argparse.ArgumentParser(add_help=False)
    poly_flag.add_argument(
        "--json-poly",
        action="store_true",
        help="emit polynomials as subset-coefficient maps instead of text",
    )

    def add(name: str, handler, help_text: str, polys: bool = False):
        cmd = sub.add_parser(name, help=help_text, parents=[poly_flag] if polys else [])
        cmd.add_argument("matrix", help="path to a matrix JSON file")
        cmd.set_defaults(handler=handler)
        return cmd

    add("minors", _cmd_minors, "all 2^n principal minors")
    add("detpoly", _cmd_detpoly, "determinant of diag(x) + A", polys=True)
    add("adjugate", _cmd_adjugate, "adjugate table of diag(x) + A", polys=True)
    add("cuts", _cmd_cuts, "all cuts (rank-one off-diagonal block pairs)")
    add("classify", _cmd_classify, "single-point or multi-point fiber verdict")
    witness = add("witness", _cmd_witness, "construct a second fiber point")
    witness.add_argument("--cut", help="comma-separated 1-based indices forcing the cut")
    equiv = add("equiv", _cmd_equiv, "diagonal equivalence certificate between two matrices")
    equiv.add_argument("other", help="path to the second matrix JSON file")
    add("structure", _cmd_structure, "triangularized block structure and pencil factors", polys=True)
    add("fibershape", _cmd_fibershape, "block template shared by the whole fiber", polys=True)
    add("symmetrize", functools.partial(_cmd_scaling, symmetrizability),
        "diagonal scaling to a symmetric matrix")
    add("hermitize", functools.partial(_cmd_scaling, hermitian_equivalence),
        "diagonal scaling to a Hermitian matrix")
    add("symfiber", _cmd_symfiber, "fiber description for a symmetric matrix", polys=True)
    add("stablecert", _cmd_stablecert, "blockwise stability certificate", polys=True)
    verify = add("verify", _cmd_verify, "exact adjugate/pencil identity checks")
    verify.add_argument("--identity", choices=IDENTITIES, help="restrict to one identity")
    selftest = sub.add_parser("selftest", help="seeded randomized property suites")
    selftest.add_argument("--n", type=int, default=5, help="largest matrix size drawn")
    selftest.add_argument("--trials", type=int, default=25, help="trials per suite")
    selftest.add_argument("--seed", type=int, default=0, help="master seed")
    selftest.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES),
        help="run only this suite (repeatable)",
    )
    selftest.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        A = _load_matrix(args.matrix) if args.command != "selftest" else None
        if args.command == "equiv":
            args.other_matrix = _load_matrix(args.other)
        if limit is not None:
            sys.set_int_max_str_digits(0)
        body, code = args.handler(A, args)
    except SizeLimitError as exc:
        body, code = {"error": str(exc)}, 3
    except (ParseError, PreconditionError, OSError) as exc:
        body, code = {"error": str(exc)}, 2
    except VerificationError as exc:
        body, code = {"error": str(exc)}, 4
    except Exception as exc:  # a bug, never reported as bad input
        body, code = {"error": f"{type(exc).__name__}: {exc}"}, 4
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    try:
        print(json.dumps({"command": args.command, **body}, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed the pipe: send what is left, and the flush at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

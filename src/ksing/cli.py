"""Command-line interface.

Subcommands expose each pipeline stage (quiver, cartan, matrix, snf), the
end-to-end computation (compute), the reference comparison (verify-paper),
and batch exploration over parameter grids (sweep).  Data goes to stdout,
diagnostics to stderr.  Exit codes: 0 success, 2 invalid input, 3 internal
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections.abc import Iterator
from multiprocessing import Pool

from . import ktheory
from .cartan import cartan_matrix, path_counts_bruteforce, path_counts_gf
from .errors import InputError
from .linalg import determinant, smith_normal_form
from .params import (
    PrimePower,
    QuotientParams,
    iter_weight_tuples,
    validate_params,
    validate_prime_power,
)
from .quiver import build_quiver, export_quiver


class RangeTooLarge(InputError):
    """The sweep grid exceeds the configured cell cap."""


_SOURCE_BY_ALIAS = {
    "pipeline": "theorem-pipeline",
    "family": "closed-form-family",
    "fixture": "paper-fixture",
    "theorem-pipeline": "theorem-pipeline",
    "closed-form-family": "closed-form-family",
    "paper-fixture": "paper-fixture",
}


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse weights {text!r}: {exc}") from None


def _parse_int_list(text: str) -> list[int]:
    """Parse '3,5,7' or '2-6' or a mix; returns sorted unique values."""
    values: set[int] = set()
    text = text.strip()
    if not text:
        return []
    for part in text.split(","):
        part = part.strip()
        try:
            dash = part.find("-", 1)  # position 0 would be a sign
            if dash > 0:
                values.update(range(int(part[:dash]), int(part[dash + 1:]) + 1))
            else:
                values.add(int(part))
        except ValueError:
            raise InputError(f"cannot parse integer list entry {part!r}") from None
    return sorted(values)


def _params_from_args(args) -> QuotientParams:
    if args.n is None or args.d is None or args.weights is None:
        raise InputError("--n, --d and --weights are required here")
    return validate_params(args.n, args.d, _parse_weights(args.weights))


def _coeff_from_args(args) -> PrimePower:
    if args.prime is None:
        raise InputError("--prime is required here")
    return validate_prime_power(args.prime, args.exponent)


def _matrix_lines(m) -> list[str]:
    cells = [[str(x) for x in row] for row in m.entries]
    widths = [max(len(cells[i][j]) for i in range(m.rows)) for j in range(m.cols)]
    return [
        "[ " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + " ]"
        for row in cells
    ]


def _print_matrix(m, indent: str = "  ") -> None:
    for line in _matrix_lines(m):
        print(indent + line)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _add_params_flags(sub) -> None:
    sub.add_argument("--n", type=int, default=None, help="order of the cyclic group")
    sub.add_argument("--d", type=int, default=None, help="dimension (number of weights)")
    sub.add_argument("--weights", default=None, help="comma-separated weights a_1,...,a_d")


def _add_source_flag(sub) -> None:
    sub.add_argument(
        "--source",
        default="pipeline",
        choices=sorted(_SOURCE_BY_ALIAS),
        help="where the matrix M comes from (default: pipeline)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksing",
        description=(
            "K-theory with Z/l^nu coefficients of cyclic quotient"
            " singularities via quiver path-count matrices"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compute = commands.add_parser("compute", help="full K-theory report")
    _add_params_flags(compute)
    compute.add_argument("--prime", type=int, default=None, help="coefficient prime l")
    compute.add_argument("--exponent", type=int, default=1, help="exponent nu (default 1)")
    _add_source_flag(compute)
    compute.add_argument("--format", default="pretty", choices=("pretty", "json"))

    quiver = commands.add_parser("quiver", help="truncated quiver of the parameters")
    _add_params_flags(quiver)
    quiver.add_argument("--format", default="dot", choices=("dot", "json"))

    cartan = commands.add_parser("cartan", help="path counts and Cartan matrix")
    _add_params_flags(cartan)
    cartan.add_argument("--format", default="pretty", choices=("pretty", "json"))
    cartan.add_argument(
        "--check-bruteforce",
        action="store_true",
        help="also count path classes from the quiver's arrows and compare",
    )
    cartan.add_argument(
        "--bruteforce-cap",
        type=int,
        default=10_000_000,
        help="raw path cap for --check-bruteforce",
    )

    matrix = commands.add_parser("matrix", help="the matrix M and its determinant")
    _add_params_flags(matrix)
    _add_source_flag(matrix)
    matrix.add_argument("--format", default="pretty", choices=("pretty", "json"))

    snf = commands.add_parser("snf", help="Smith normal form certificate of M")
    _add_params_flags(snf)
    _add_source_flag(snf)
    snf.add_argument(
        "--fixture",
        default=None,
        choices=("paper-low-dim",),
        help="use the published reference matrix instead of parameters",
    )
    snf.add_argument("--format", default="pretty", choices=("pretty", "json"))

    verify = commands.add_parser(
        "verify-paper",
        help="compare published reference matrices against the pipeline",
    )
    verify.add_argument(
        "--fixture", required=True, choices=("low-dim-example", "family")
    )
    verify.add_argument("--d", type=int, default=None, help="dimension for --fixture family")
    verify.add_argument("--format", default="pretty", choices=("pretty", "json"))

    sweep = commands.add_parser("sweep", help="batch computation over a parameter grid")
    sweep.add_argument("--n", required=True, help="n values, e.g. '3,5,7' or '2-8'")
    sweep.add_argument("--d", default=None, help="d values (weights-mode all only)")
    sweep.add_argument(
        "--weights-mode",
        default="ones",
        choices=("ones", "all"),
        help="'ones': weights (1,...,1) with d = n; 'all': every valid tuple",
    )
    sweep.add_argument("--primes", default="", help="comma-separated primes (may be empty)")
    sweep.add_argument("--exponent", type=int, default=1)
    _add_source_flag(sweep)
    sweep.add_argument("--format", default="csv", choices=("csv", "json"))
    sweep.add_argument("--max-cells", type=int, default=20_000)
    sweep.add_argument("--jobs", type=int, default=1, help="parallel workers")
    return parser


def _cmd_compute(args) -> int:
    report = ktheory.compute_ktheory(
        _params_from_args(args),
        _coeff_from_args(args),
        _SOURCE_BY_ALIAS[args.source],
    )
    if args.format == "json":
        _emit_json(report.to_json_dict())
        return 0
    p = report.params
    print(f"n = {p.n}, d = {p.d}, weights = ({', '.join(map(str, p.weights))})")
    print(
        f"coefficients: Z/{report.coefficient.q}"
        f"  (l = {report.coefficient.l}, nu = {report.coefficient.nu})"
    )
    print(f"matrix source: {report.matrix_source}")
    print("matrix M:")
    _print_matrix(report.matrix)
    print(f"det(M) = {determinant(report.matrix)}")
    print(f"divisors: {', '.join(map(str, report.divisors))}")
    print(f"K_i, i >= 0 even: {report.even_group}")
    print(f"K_i, i >= 0 odd:  {report.odd_group}")
    print(f"K_i, i < 0:       {report.negative_degrees}")
    for note in report.corollary_notes:
        tag = f"({note.conclusion})" + (f" [{note.parity}]" if note.parity else "")
        print(f"corollary {tag}: {note.statement}")
    return 0


def _cmd_quiver(args) -> int:
    q = build_quiver(_params_from_args(args))
    sys.stdout.write(export_quiver(q, args.format))
    return 0


def _cmd_cartan(args) -> int:
    params = _params_from_args(args)
    counts = path_counts_gf(params)
    c = cartan_matrix(counts)
    checked = None
    if args.check_bruteforce:
        brute = path_counts_bruteforce(build_quiver(params), cap=args.bruteforce_cap)
        checked = brute == counts
    if args.format == "json":
        payload = {
            "schema_version": 1,
            "params": {"n": params.n, "d": params.d, "weights": list(params.weights)},
            "path_counts": counts,
            "cartan_matrix": c.to_lists(),
        }
        if checked is not None:
            payload["bruteforce_agrees"] = checked
        _emit_json(payload)
        return 0
    print(f"path counts P(0..{params.n - 2}): {counts}")
    print("Cartan matrix C:")
    _print_matrix(c)
    if checked is not None:
        print(f"brute-force enumeration agrees: {'yes' if checked else 'NO'}")
    return 0


def _cmd_matrix(args) -> int:
    params = _params_from_args(args)
    m = ktheory.matrix_from_source(params, _SOURCE_BY_ALIAS[args.source])
    if args.format == "json":
        _emit_json(
            {
                "schema_version": 1,
                "params": {"n": params.n, "d": params.d, "weights": list(params.weights)},
                "matrix_source": _SOURCE_BY_ALIAS[args.source],
                "matrix": m.to_lists(),
                "det": determinant(m),
            }
        )
        return 0
    print("matrix M:")
    _print_matrix(m)
    print(f"det(M) = {determinant(m)}")
    return 0


def _cmd_snf(args) -> int:
    if args.fixture == "paper-low-dim":
        m = ktheory.LOW_DIM_PRINTED_MATRIX
        label = "paper-low-dim fixture"
    else:
        params = _params_from_args(args)
        m = ktheory.matrix_from_source(params, _SOURCE_BY_ALIAS[args.source])
        label = f"M for n={params.n}, d={params.d}, weights={params.weights}"
    dec = smith_normal_form(m)
    if args.format == "json":
        _emit_json(
            {
                "schema_version": 1,
                "matrix": m.to_lists(),
                "U": dec.U.to_lists(),
                "D": dec.D.to_lists(),
                "V": dec.V.to_lists(),
                "divisors": list(dec.divisors),
            }
        )
        return 0
    print(f"Smith normal form of {label}")
    for name, mat in (("U", dec.U), ("D", dec.D), ("V", dec.V)):
        print(f"{name}:")
        _print_matrix(mat)
    print(f"divisors: {', '.join(map(str, dec.divisors))}")
    return 0


def _cmd_verify_paper(args) -> int:
    report = ktheory.verify_paper(args.fixture, args.d)
    if args.format == "json":
        _emit_json(report.to_json_dict())
        return 0
    p = report.params
    print(
        f"fixture: {report.fixture}"
        f"  (n = {p.n}, d = {p.d}, weights = ({', '.join(map(str, p.weights))}))"
    )
    print("reference matrix:")
    _print_matrix(report.reference_matrix)
    print("pipeline matrix:")
    _print_matrix(report.computed_matrix)
    if report.entry_diffs:
        print("entry differences (row, col): reference vs pipeline")
        for i, j, ref, got in report.entry_diffs:
            print(f"  ({i}, {j}): {ref} vs {got}")
    for note in report.notes:
        print(note)
    print(f"result: {'exact agreement' if report.agree else 'DISCREPANCY'}")
    return 0


_SWEEP_COLUMNS = (
    "n",
    "d",
    "weights",
    "l",
    "nu",
    "q",
    "source",
    "det",
    "divisors",
    "even_group",
    "odd_group",
    "vanishing",
    "corollary",
)


def _sweep_set(task) -> list[dict]:
    """The rows of one parameter set, one per coefficient.

    M does not depend on the coefficient, so its determinant is taken once
    per set; the groups are computed per coefficient.
    """
    params, coeffs, source = task
    reports = [ktheory.compute_ktheory(params, coeff, source) for coeff in coeffs]
    det = determinant(reports[0].matrix)
    return [
        {
            "n": params.n,
            "d": params.d,
            "weights": ",".join(map(str, params.weights)),
            "l": report.coefficient.l,
            "nu": report.coefficient.nu,
            "q": report.coefficient.q,
            "source": source,
            "det": det,
            "divisors": ",".join(map(str, report.divisors)),
            "even_group": str(report.even_group),
            "odd_group": str(report.odd_group),
            "vanishing": report.even_group.is_trivial and report.odd_group.is_trivial,
            "corollary": report.corollary_notes[0].conclusion,
        }
        for report in reports
    ]


def _sweep_params(args) -> Iterator[QuotientParams]:
    n_values = _parse_int_list(args.n)
    if args.weights_mode == "ones":
        sets = (validate_params(n, n, (1,) * n) for n in n_values)
    else:
        d_values = _parse_int_list(args.d) if args.d else None
        sets = (
            QuotientParams(n, d, weights)
            for n in n_values
            for d in (d_values if d_values is not None else range(2, n + 1))
            for weights in iter_weight_tuples(n, d)
        )
    source = _SOURCE_BY_ALIAS[args.source]
    return (p for p in sets if ktheory._source_gap(p, source) is None)


def _cmd_sweep(args) -> int:
    primes = _parse_int_list(args.primes)
    coeffs = [validate_prime_power(l, args.exponent) for l in primes]
    source = _SOURCE_BY_ALIAS[args.source]
    sets = []
    for params in _sweep_params(args):
        sets.append(params)
        # Checked per set, so an oversized grid is refused before it is built.
        if len(sets) * len(coeffs) > args.max_cells:
            raise RangeTooLarge(
                f"sweep grid has more than {args.max_cells} cells;"
                f" raise --max-cells to proceed"
            )
    sets.sort(key=lambda p: (p.n, p.d, p.weights))
    tasks = [(params, coeffs, source) for params in sets] if coeffs else []
    if args.jobs > 1 and tasks:
        with Pool(args.jobs) as pool:
            groups = pool.map(_sweep_set, tasks)
    else:
        groups = [_sweep_set(task) for task in tasks]
    rows = [row for group in groups for row in group]
    if args.format == "json":
        _emit_json({"schema_version": 1, "rows": rows})
        return 0
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_SWEEP_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                str(row[col]).lower() if col == "vanishing" else row[col]
                for col in _SWEEP_COLUMNS
            ]
        )
    sys.stdout.write(buffer.getvalue())
    return 0


_DISPATCH = {
    "compute": _cmd_compute,
    "quiver": _cmd_quiver,
    "cartan": _cmd_cartan,
    "matrix": _cmd_matrix,
    "snf": _cmd_snf,
    "verify-paper": _cmd_verify_paper,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact results can pass the interpreter's 4,300-digit int-to-str limit,
    # where it has one: lift it while a command runs, then put it back.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _DISPATCH[args.command](args)
    except InputError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands expose each pipeline stage (quiver, cartan, matrix, snf), the
end-to-end computation (compute), the reference comparison (verify-paper),
and batch exploration over parameter grids (sweep).  Data goes to stdout,
diagnostics to stderr.  Exit codes: 0 success, 1 stdout closed by its
reader, 2 invalid input, 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from itertools import chain

from . import _bind, ktheory
from .cartan import cartan_matrix, path_counts_gf
from .errors import InputError
from .linalg import determinant
from .params import (
    DimensionTooSmall,
    NonPositiveExponent,
    PrimePower,
    QuotientParams,
    iter_weight_tuples,
    validate_params,
    validate_prime_power,
)

# build_quiver, export_quiver, path_counts_bruteforce and smith_certificate,
# run by ``quiver``, ``cartan --check-bruteforce`` and ``snf``, load on first use.
def __getattr__(name):
    return _bind(globals(), name)


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


def _parse_int_list(text: str) -> list[range]:
    """Parse '3,5,7' or '2-6' or a mix into sorted, disjoint ranges.

    Every entry is checked here, but no range is enumerated: chain the
    ranges to walk the values in ascending order, each once.
    """
    pairs = []
    text = text.strip()
    if not text:
        return []
    for part in text.split(","):
        part = part.strip()
        try:
            dash = part.find("-", 1)  # position 0 would be a sign
            bounds = (part[:dash], part[dash + 1:]) if dash > 0 else (part, part)
            lo, hi = map(int, bounds)
        except ValueError:
            raise InputError(f"cannot parse integer list entry {part!r}") from None
        if lo > hi:
            raise InputError(f"range {part!r} runs downwards; write it as {hi}-{lo}")
        pairs.append((lo, hi))
    ranges: list[range] = []
    for lo, hi in sorted(pairs):
        if ranges and lo <= ranges[-1].stop:
            lo, hi = ranges[-1].start, max(hi, ranges[-1].stop - 1)
            ranges.pop()
        ranges.append(range(lo, hi + 1))
    return ranges


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


def _det_m(params: QuotientParams, source: str, m) -> int:
    """det M: in closed form for the pipeline, by Bareiss for the other sources."""
    if source == "theorem-pipeline":
        return ktheory.pipeline_determinant(params.n, params.d)
    return determinant(m)


def _print_matrix(m, indent: str = "  ") -> None:
    for line in _matrix_lines(m):
        print(indent + line)


def _emit_json(payload: dict) -> None:
    import json

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
        default=None,
        help="raw path cap for --check-bruteforce (default 10000000)",
    )

    matrix = commands.add_parser("matrix", help="the matrix M and its determinant")
    _add_params_flags(matrix)
    _add_source_flag(matrix)
    matrix.add_argument("--format", default="pretty", choices=("pretty", "json"))

    snf = commands.add_parser("snf", help="Smith normal form certificate of M")
    _add_params_flags(snf)
    _add_source_flag(snf)
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
    sweep.add_argument("--format", default="csv", choices=("csv", "json"))
    sweep.add_argument("--max-cells", type=int, default=20_000)
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
    print(f"det(M) = {_det_m(p, report.matrix_source, report.matrix)}")
    print(f"divisors: {', '.join(map(str, report.divisors))}")
    print(f"K_i, i >= 0 even: {report.even_group}")
    print(f"K_i, i >= 0 odd:  {report.odd_group}")
    print(f"K_i, i < 0:       {report.negative_degrees}")
    for note in report.corollary_notes:
        tag = f"({note.conclusion})" + (f" [{note.parity}]" if note.parity else "")
        print(f"corollary {tag}: {note.statement}")
    return 0


def _cmd_quiver(args) -> int:
    this = sys.modules[__name__]
    q = this.build_quiver(_params_from_args(args))
    sys.stdout.write(this.export_quiver(q, args.format))
    return 0


def _cmd_cartan(args) -> int:
    cap = args.bruteforce_cap
    if cap is not None and not args.check_bruteforce:
        raise InputError("--bruteforce-cap applies only with --check-bruteforce")
    params = _params_from_args(args)
    counts = path_counts_gf(params)
    c = cartan_matrix(counts)
    checked = None
    if args.check_bruteforce:
        cap = 10_000_000 if cap is None else cap
        this = sys.modules[__name__]
        brute = this.path_counts_bruteforce(this.build_quiver(params), cap=cap)
        checked = brute == counts
    if args.format == "json":
        payload = {
            "schema_version": 1,
            "params": params.to_json_dict(),
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
    source = _SOURCE_BY_ALIAS[args.source]
    m = ktheory.matrix_from_source(params, source)
    if args.format == "json":
        _emit_json(
            {
                "schema_version": 1,
                "params": params.to_json_dict(),
                "matrix_source": source,
                "matrix": m.to_lists(),
                "det": _det_m(params, source, m),
            }
        )
        return 0
    print("matrix M:")
    _print_matrix(m)
    print(f"det(M) = {_det_m(params, source, m)}")
    return 0


def _cmd_snf(args) -> int:
    params = _params_from_args(args)
    m = ktheory.matrix_from_source(params, _SOURCE_BY_ALIAS[args.source])
    u, d, v = sys.modules[__name__].smith_certificate(m)
    divisors = [d[i, i] for i in range(d.rows)]  # M is square
    if args.format == "json":
        _emit_json(
            {
                "schema_version": 1,
                "matrix": m.to_lists(),
                "U": u.to_lists(),
                "D": d.to_lists(),
                "V": v.to_lists(),
                "divisors": divisors,
            }
        )
        return 0
    print(f"Smith normal form of M for n={params.n}, d={params.d}, weights={params.weights}")
    for name, mat in (("U", u), ("D", d), ("V", v)):
        print(f"{name}:")
        _print_matrix(mat)
    print(f"divisors: {', '.join(map(str, divisors))}")
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


def _sweep_rows(sets: list[QuotientParams], coeffs: list[PrimePower]) -> Iterator[tuple]:
    """The sweep's rows in _SWEEP_COLUMNS order, one per (set, coefficient),
    each yielded as soon as its report is computed.

    M and its divisors do not depend on the coefficient, so the closed-form
    determinant and the divisor text are made once per set; the groups are
    computed per coefficient, one group for both parities.
    """
    for params in sets:
        weights = ",".join(map(str, params.weights))
        det = ktheory.pipeline_determinant(params.n, params.d)
        divisors = None
        for coeff in coeffs:
            report = ktheory.compute_ktheory(params, coeff)
            divisors = divisors or ",".join(map(str, report.divisors))
            group = report.even_group
            text = str(group)
            yield (
                params.n,
                params.d,
                weights,
                coeff.l,
                coeff.nu,
                coeff.q,
                "theorem-pipeline",
                det,
                divisors,
                text,
                text,
                group.is_trivial,
                report.corollary_notes[0].conclusion,
            )


def _sweep_params(args) -> Iterator[QuotientParams]:
    """The sets the sweep prints, in (n, d, weights) order."""
    n_values = chain.from_iterable(_parse_int_list(args.n))
    if args.weights_mode == "ones":
        return (validate_params(n, n, (1,) * n) for n in n_values)
    d_ranges = _parse_int_list(args.d) if args.d else None
    return (
        QuotientParams(n, d, weights)
        for n in n_values
        for d in chain.from_iterable(d_ranges if d_ranges is not None else [range(2, n + 1)])
        for weights in iter_weight_tuples(n, d)
    )


def _check_sweep_flags(args) -> None:
    """Refuse a --d that the weights mode would drop or that holds a d below
    2, and a --max-cells below 1, even where no cell would read them."""
    if args.d is not None and args.weights_mode == "ones":
        raise InputError("--d applies only to --weights-mode all; 'ones' takes d = n")
    if args.exponent < 1:
        raise NonPositiveExponent(f"exponent nu must be >= 1, got {args.exponent}")
    if args.max_cells < 1:
        raise InputError(f"--max-cells must be at least 1, got {args.max_cells}")
    d_ranges = _parse_int_list(args.d or "")
    if d_ranges and d_ranges[0].start < 2:
        raise DimensionTooSmall(f"dimension d must be at least 2, got {d_ranges[0].start}")


def _cmd_sweep(args) -> int:
    _check_sweep_flags(args)
    primes = chain.from_iterable(_parse_int_list(args.primes))
    coeffs = [validate_prime_power(l, args.exponent) for l in primes]
    sets = []
    for params in _sweep_params(args):
        if not coeffs:
            break  # no cells; the first set was drawn to refuse an invalid --n
        sets.append(params)
        # Checked per set, so an oversized grid is refused before it is built
        # and before any row is written.
        if len(sets) * len(coeffs) > args.max_cells:
            raise RangeTooLarge(
                f"sweep grid has more than {args.max_cells} cells;"
                f" raise --max-cells to proceed"
            )
    rows = _sweep_rows(sets, coeffs)
    if args.format == "json":
        rows = [dict(zip(_SWEEP_COLUMNS, row)) for row in rows]
        _emit_json({"schema_version": 1, "rows": rows})
        return 0
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(_SWEEP_COLUMNS)
    # The vanishing column, second to last, is spelled as in JSON.
    writer.writerows((*r[:-2], "true" if r[-2] else "false", r[-1]) for r in rows)
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
        code = _DISPATCH[args.command](args)
        sys.stdout.flush()  # here, so that a closed stdout is caught below
        return code
    except BrokenPipeError:
        # The reader left early (``| head``).  Send what is still buffered to
        # devnull, so that the flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
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

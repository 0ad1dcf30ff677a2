"""Command-line interface.

Subcommands expose each pipeline stage (quiver, cartan, matrix, snf), the
end-to-end computation (compute), the reference comparison (verify-paper),
and batch exploration over parameter grids (sweep).  Data goes to stdout,
diagnostics to stderr.  Exit codes: 0 success, 1 stdout closed by its
reader, 2 invalid input, 3 internal error.

This module parses every command line and runs the sweep; the six
single-set commands live in ``ksing.commands``, which loads only when one
of them runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from itertools import chain, cycle

from . import _bind, ktheory
from .errors import InputError
from .params import (
    DimensionTooSmall,
    NonPositiveExponent,
    PrimePower,
    QuotientParams,
    iter_weight_tuples,
    validate_params,
    validate_prime_power,
)

# The handlers of the single-set commands, _cmd_compute ... _cmd_verify_paper,
# load from ksing.commands on first use; main reads them by name.
def __getattr__(name):
    return _bind(globals(), name)


class RangeTooLarge(InputError):
    """The sweep grid exceeds the configured cell cap."""


#: ``compute`` and ``sweep`` refuse a set with n * d above MAX_ND; the
#: slowest sets under it take a few seconds (see README).
MAX_ND = 100_000


class ComputeTooLarge(InputError):
    """The parameters exceed a command's size cap."""


def _refuse_above(params: QuotientParams, cap: int, command: str) -> None:
    nd = params.n * params.d
    if nd > cap:
        raise ComputeTooLarge(f"n * d = {nd} is above {command}'s cap of {cap}")


_SOURCE_BY_ALIAS = {
    "pipeline": "theorem-pipeline",
    "family": "closed-form-family",
    "fixture": "paper-fixture",
    "theorem-pipeline": "theorem-pipeline",
    "closed-form-family": "closed-form-family",
    "paper-fixture": "paper-fixture",
}


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
                "ii" if group.is_trivial else "i",
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
    # After the cell count, so that an oversized grid is refused as such.
    for params in sets:
        _refuse_above(params, MAX_ND, "sweep")
    rows = _sweep_rows(sets, coeffs)
    if args.format == "json":
        rows = [dict(zip(_SWEEP_COLUMNS, row)) for row in rows]
        _emit_json({"schema_version": 1, "rows": rows})
        return 0
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(_SWEEP_COLUMNS)
    # Each set's rows come in coeffs order, so q, column 5, is put in decimal
    # once per coefficient, not once a row; the vanishing column, second to
    # last, is spelled as in JSON.
    q_texts = cycle([str(coeff.q) for coeff in coeffs])
    writer.writerows(
        (*r[:5], q, *r[6:-2], "true" if r[-2] else "false", r[-1])
        for r, q in zip(rows, q_texts)
    )
    return 0


#: Each command and the name of its handler on this module.
_DISPATCH = {
    "compute": "_cmd_compute",
    "quiver": "_cmd_quiver",
    "cartan": "_cmd_cartan",
    "matrix": "_cmd_matrix",
    "snf": "_cmd_snf",
    "verify-paper": "_cmd_verify_paper",
    "sweep": "_cmd_sweep",
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
        code = getattr(sys.modules[__name__], _DISPATCH[args.command])(args)
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
    # Under ``python -m ksing.cli`` this module runs as __main__.  It serves
    # ``import ksing.cli`` too, which ksing.commands makes, so that cli.py is
    # compiled once.
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())

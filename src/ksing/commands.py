"""The single-set commands of the CLI: compute, quiver, cartan, matrix, snf
and verify-paper.

``ksing.cli`` parses every command line and runs the sweep itself; it reads
these handlers by name, so a process loads this module only when it runs
one of them.
"""

from __future__ import annotations

import sys

from . import _bind, ktheory
from .cartan import cartan_matrix, path_counts_gf
from .cli import MAX_ND, _SOURCE_BY_ALIAS, ComputeTooLarge, _emit_json, _refuse_above
from .errors import InputError
from .linalg import determinant
from .params import PrimePower, QuotientParams, validate_params, validate_prime_power

# build_quiver, export_quiver, path_counts_bruteforce and smith_certificate,
# run by ``quiver``, ``cartan --check-bruteforce`` and ``snf``, load on first use.
def __getattr__(name):
    return _bind(globals(), name)


#: ``compute`` refuses n * d above ``cli.MAX_ND`` and d above FAMILY_MAX_D for
#: the family source, whose dense Smith form grows as d**3 on growing entries;
#: ``matrix`` and ``snf`` refuse n * d above MATRIX_MAX_ND and SNF_MAX_ND,
#: and ``verify-paper --fixture family`` a d above VERIFY_MAX_D.  The slowest
#: inputs under each cap take a few seconds (see README).
FAMILY_MAX_D = 64
MATRIX_MAX_ND = 4_000
SNF_MAX_ND = 800
VERIFY_MAX_D = 80


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse weights {text!r}: {exc}") from None


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


def _cmd_compute(args) -> int:
    params, coeff = _params_from_args(args), _coeff_from_args(args)
    source = _SOURCE_BY_ALIAS[args.source]
    _refuse_above(params, MAX_ND, "compute")
    if source == "closed-form-family" and params.d > FAMILY_MAX_D:
        raise ComputeTooLarge(f"d = {params.d} is above the family cap of {FAMILY_MAX_D}")
    report = ktheory.compute_ktheory(params, coeff, source)
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
    params = _params_from_args(args)
    counts = path_counts_gf(params)
    c = cartan_matrix(counts)
    checked = None
    if args.check_bruteforce:
        this = sys.modules[__name__]
        brute = this.path_counts_bruteforce(this.build_quiver(params))
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
    _refuse_above(params, MATRIX_MAX_ND, "matrix")
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
    _refuse_above(params, SNF_MAX_ND, "snf")
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
    if args.fixture == "family" and args.d is not None and args.d > VERIFY_MAX_D:
        raise ComputeTooLarge(f"d = {args.d} is above verify-paper's cap of {VERIFY_MAX_D}")
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

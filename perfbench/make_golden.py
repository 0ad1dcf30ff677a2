"""Record the golden results every benchmark pass is checked against.

    python3 perfbench/make_golden.py

Computes, with the library under ``src``, the determinant, Smith divisors
and the group for every prime of the pool of each parameter set the
workloads use, the list of parameter sets the grid sweep prints, the
outcome of each ``verify_paper`` fixture, and the path counts of each
brute-force set, and writes them to ``golden.json``.  The
record is meant to be made once, from a commit whose answers are trusted,
and then left alone: a later change that alters an answer must fail the
check, not rewrite the record.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ksing  # noqa: E402
import ksing.cli  # noqa: E402
from workloads import (  # noqa: E402
    BRUTEFORCE_SETS,
    FAMILY_N,
    GOLDEN_PATH,
    GRID_N,
    PRIME_POOL,
    SWEEP_COLUMNS,
    VERIFY_D,
    WIDE_SETS,
    params_key,
)


def grid_records() -> dict:
    """Every sweep row of the grid for every pool prime, folded per parameter set."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = ksing.cli.main([
            "sweep", "--weights-mode", "all", "--n", f"{GRID_N[0]}-{GRID_N[1]}",
            "--primes", ",".join(map(str, PRIME_POOL)),
        ])
    if code != 0:
        raise SystemExit(f"sweep failed with code {code}")
    rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
    assert list(rows[0]) == SWEEP_COLUMNS
    out: dict = {}
    for row in rows:
        key = params_key(row["n"], row["d"], row["weights"].split(","))
        rec = out.setdefault(key, {
            "det": int(row["det"]),
            "divisors": [int(x) for x in row["divisors"].split(",")],
            "groups": {},
        })
        assert row["even_group"] == row["odd_group"]
        assert (row["even_group"] == "0") == (row["vanishing"] == "true")
        if row["even_group"] != "0":
            rec["groups"][row["l"]] = row["even_group"]
    return out


def ktheory_record(n: int, d: int, weights) -> dict:
    params = ksing.validate_params(n, d, weights)
    rec: dict = {"groups": {}}
    for l in PRIME_POOL:
        report = ksing.compute_ktheory(params, ksing.validate_prime_power(l, 1))
        rec.setdefault("det", ksing.determinant(report.matrix))
        rec.setdefault("divisors", list(report.divisors))
        assert rec["divisors"] == list(report.divisors)
        if not report.even_group.is_trivial:
            rec["groups"][str(l)] = str(report.even_group)
    return rec


def verify_record(fixture: str, d) -> dict:
    r = ksing.verify_paper(fixture, d)
    return {
        "agree": r.agree,
        "entry_diffs": len(r.entry_diffs),
        "reference_det": r.reference_det,
        "computed_det": r.computed_det,
        "pfaffian": r.pfaffian,
        "computed_det_is_square": r.computed_det_is_square,
    }


def main() -> None:
    params = grid_records()
    grid = list(params)
    family = [(n, n, (1,) * n) for n in range(FAMILY_N[0], FAMILY_N[1] + 1)]
    for n, d, w in family + list(WIDE_SETS):
        params[params_key(n, d, w)] = ktheory_record(n, d, w)
    verify = {"low-dim-example": verify_record("low-dim-example", None)}
    for d in range(VERIFY_D[0], VERIFY_D[1] + 1):
        verify[f"family:{d}"] = verify_record("family", d)
    path_counts = {}
    for n, d, w in BRUTEFORCE_SETS:
        p = ksing.validate_params(n, d, w)
        counts = ksing.path_counts_gf(p)
        assert ksing.path_counts_bruteforce(ksing.build_quiver(p)) == counts
        path_counts[params_key(n, d, w)] = counts
    golden = {
        "prime_pool": list(PRIME_POOL),
        "grid": grid,
        "params": params,
        "verify": verify,
        "path_counts": path_counts,
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH} ({len(params)} parameter sets)")


if __name__ == "__main__":
    main()

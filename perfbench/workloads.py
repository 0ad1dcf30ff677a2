"""The four benchmark workloads: inputs, one timed pass, and the golden check.

Each workload builds its inputs from a seed, runs one pass over them while
timing every cell, and checks the outputs against the golden record in
``golden.json`` plus invariants that hold for any correct answer.  A cell is
one ``compute_ktheory`` call, one sweep row, one ``verify_paper`` call or one
brute-force path-count check.

Nothing here imports ``ksing`` at module level: the caller passes the
imported package in, so that the import itself can be timed as set-up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: Coefficient primes the seed draws from.  Per-cell work does not depend on
#: the prime, so every seed costs the same while the expected groups differ.
PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

GRID_N = (2, 12)
GRID_PRIMES = 4
FAMILY_N = (3, 20)
WIDE_SETS = (
    (61, 2, (1, 60)),
    (101, 2, (1, 100)),
    (151, 2, (1, 150)),
    (81, 3, (1, 40, 40)),
    (101, 3, (1, 50, 50)),
    (141, 3, (1, 70, 70)),
    (77, 4, (1, 2, 3, 71)),
    (101, 4, (1, 2, 3, 95)),
    (121, 4, (1, 2, 3, 115)),
    (91, 5, (1, 2, 3, 4, 81)),
    (101, 5, (1, 2, 3, 4, 91)),
    (119, 5, (1, 2, 3, 4, 109)),
)
VERIFY_D = (3, 25)
BRUTEFORCE_SETS = (
    (7, 7, (1,) * 7),
    (8, 8, (1,) * 8),
    (9, 4, (1, 1, 2, 5)),
    (11, 5, (1, 1, 1, 4, 4)),
    (13, 3, (1, 6, 6)),
    (16, 4, (1, 3, 5, 7)),
    (17, 3, (1, 8, 8)),
    (19, 2, (1, 18)),
    (21, 3, (1, 10, 10)),
    (25, 3, (1, 12, 12)),
)

SWEEP_COLUMNS = [
    "n", "d", "weights", "l", "nu", "q", "source", "det", "divisors",
    "even_group", "odd_group", "vanishing", "corollary",
]


def params_key(n: int, d: int, weights) -> str:
    return f"{n}:{d}:{','.join(map(str, weights))}"


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def divisor_problems(divisors, det: int) -> list[str]:
    """Invariants of any Smith diagonal: the chain and the determinant."""
    out = []
    for a, b in zip(divisors, divisors[1:]):
        if a < 0 or (b % a if a else b):
            out.append(f"divisor chain broken at {a}, {b}")
    nonzero = [x for x in divisors if x]
    if det and math.prod(nonzero) != abs(det):
        out.append(f"product of divisors {math.prod(nonzero)} != |det| {abs(det)}")
    if not det and len(nonzero) == len(divisors):
        out.append("det is 0 but no divisor is 0")
    return out


@dataclass
class PassResult:
    """Outputs of one pass, and per cell its latency and its probe segment."""

    outputs: object
    latencies_ms: list
    segments: list


class CellWorkload:
    """A workload that calls the library once per cell."""

    name = ""
    imports: tuple[str, ...] = ()

    def cells(self, ksing, rng, tiny):
        raise NotImplementedError

    def call(self, ksing, cell):
        raise NotImplementedError

    def check_cell(self, cell, output, golden) -> list[str]:
        raise NotImplementedError

    def inputs(self, ksing, seed: int, tiny: bool = False):
        return self.cells(ksing, random.Random(seed), tiny)

    def run(self, ksing, cells, probe) -> PassResult:
        """One pass over the cells; ``probe`` may time the machine between them.

        Outputs follow the cells; latencies and segments are listed by cell
        key, so that passes run in different orders line up cell by cell.
        """
        outputs, latencies, segments = [], [], []
        for cell in cells:
            t0 = perf_counter()
            try:
                out = self.call(ksing, cell)
            except Exception as exc:  # noqa: BLE001 - a raising cell is a failed cell
                out = exc
            latencies.append((perf_counter() - t0) * 1e3)
            segments.append(probe.segment)
            outputs.append(out)
            probe.cell_done()
        order = sorted(range(len(cells)), key=lambda i: cells[i][0])
        return PassResult(outputs, [latencies[i] for i in order], [segments[i] for i in order])

    def check(self, cells, outputs, golden) -> tuple[int, int, list[str]]:
        """Cells attempted, cells failed, and a message per failed cell."""
        failed, messages = 0, []
        for cell, out in zip(cells, outputs):
            if isinstance(out, Exception):
                problems = [f"raised {type(out).__name__}: {out}"]
            else:
                problems = self.check_cell(cell, out, golden)
            if problems:
                failed += 1
                messages.append(f"{cell[0]}: {'; '.join(problems)}")
        return len(cells), failed, messages


class KTheoryCells(CellWorkload):
    """``compute_ktheory`` with the theorem-pipeline source, one prime per cell."""

    def param_sets(self, tiny):
        raise NotImplementedError

    def cells(self, ksing, rng, tiny):
        out = []
        for n, d, w in self.param_sets(tiny):
            l = rng.choice(PRIME_POOL)
            out.append(
                (
                    params_key(n, d, w),
                    ksing.validate_params(n, d, w),
                    ksing.validate_prime_power(l, 1),
                )
            )
        rng.shuffle(out)
        return out

    def call(self, ksing, cell):
        return ksing.compute_ktheory(cell[1], cell[2])

    def check_cell(self, cell, report, golden):
        _, params, coeff = cell
        g = golden["params"][params_key(params.n, params.d, params.weights)]
        problems = []
        if list(report.divisors) != g["divisors"]:
            problems.append(f"divisors {list(report.divisors)} != golden {g['divisors']}")
        want = g["groups"].get(str(coeff.l), "0")
        if str(report.even_group) != want:
            problems.append(f"even group {report.even_group} != golden {want}")
        if report.odd_group != report.even_group:
            problems.append(f"odd group {report.odd_group} != even group {report.even_group}")
        return problems + divisor_problems(list(report.divisors), g["det"])


class FamilySnf(KTheoryCells):
    name = "family-snf"

    def param_sets(self, tiny):
        lo, hi = FAMILY_N
        return [(n, n, (1,) * n) for n in range(lo, 7 if tiny else hi + 1)]


class WideLowdim(KTheoryCells):
    name = "wide-lowdim"

    def param_sets(self, tiny):
        return [WIDE_SETS[0], WIDE_SETS[6]] if tiny else list(WIDE_SETS)


class Crosscheck(CellWorkload):
    """Published-matrix verification and brute-force path enumeration.

    Nothing here depends on a coefficient, so the cells and their order are
    the same for every seed.
    """

    name = "crosscheck"

    def cells(self, ksing, rng, tiny):
        lo, hi = VERIFY_D
        out = [("verify:low-dim-example", "low-dim-example", None)]
        out += [(f"verify:family:{d}", "family", d) for d in range(lo, 7 if tiny else hi + 1)]
        for n, d, w in BRUTEFORCE_SETS[2:5:2] if tiny else BRUTEFORCE_SETS:
            out.append((f"bruteforce:{params_key(n, d, w)}", "bruteforce", ksing.validate_params(n, d, w)))
        return out

    def call(self, ksing, cell):
        _, kind, arg = cell
        if kind == "bruteforce":
            return ksing.path_counts_bruteforce(ksing.build_quiver(arg)), ksing.path_counts_gf(arg)
        return ksing.verify_paper(kind, arg)

    def check_cell(self, cell, out, golden):
        key, kind, arg = cell
        if kind == "bruteforce":
            brute, series = out
            want = golden["path_counts"][key.split(":", 1)[1]]
            problems = []
            if brute != series:
                problems.append(f"brute-force counts {brute} != series counts {series}")
            if series != want:
                problems.append(f"series counts {series} != golden {want}")
            return problems
        want = golden["verify"][key.split(":", 1)[1]]
        got = {
            "agree": out.agree,
            "entry_diffs": len(out.entry_diffs),
            "reference_det": out.reference_det,
            "computed_det": out.computed_det,
            "pfaffian": out.pfaffian,
            "computed_det_is_square": out.computed_det_is_square,
        }
        problems = [f"{k} {got[k]} != golden {want[k]}" for k in got if got[k] != want[k]]
        if out.pfaffian is not None and out.pfaffian ** 2 != out.computed_det:
            problems.append(f"Pf**2 = {out.pfaffian ** 2} != det {out.computed_det}")
        return problems


class GridSweep:
    """One in-process ``ksing sweep`` over every valid weight tuple, n = 2..12.

    The input is the command line only: the sweep enumerates the parameter
    sets itself.  The rows it must print come from the golden record, after
    the pass.
    """

    name = "grid-sweep"
    imports = ("ksing.cli",)

    def inputs(self, ksing, seed: int, tiny: bool = False):
        lo, hi = GRID_N
        hi = 5 if tiny else hi
        primes = sorted(random.Random(seed).sample(PRIME_POOL, GRID_PRIMES))
        argv = [
            "sweep", "--weights-mode", "all", "--n", f"{lo}-{hi}",
            "--primes", ",".join(map(str, primes)),
        ]
        return {"argv": argv, "n": (lo, hi), "primes": primes}

    def run(self, ksing, inputs, probe) -> PassResult:
        # Cell latency is the time of each compute_ktheory call, timed on the
        # name the CLI looks up; the probe may run after any of them.
        ktheory = ksing.ktheory
        original = ktheory.compute_ktheory
        latencies, segments = [], []

        def timed_compute(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                latencies.append((perf_counter() - t0) * 1e3)
                segments.append(probe.segment)
                probe.cell_done()

        ktheory.compute_ktheory = timed_compute
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = ksing.cli.main(inputs["argv"])
        finally:
            ktheory.compute_ktheory = original
        return PassResult((code, buffer.getvalue()), latencies, segments)

    def expected_rows(self, inputs, golden) -> list[list[str]]:
        """The sweep's rows for every grid parameter set the record holds."""
        lo, hi = inputs["n"]
        rows = []
        for key in golden["grid"]:
            n, d, weights = key.split(":")
            if not lo <= int(n) <= hi:
                continue
            g = golden["params"][key]
            for l in inputs["primes"]:
                group = g["groups"].get(str(l), "0")
                rows.append([
                    n, d, weights, str(l), "1", str(l),
                    "theorem-pipeline", str(g["det"]), ",".join(map(str, g["divisors"])),
                    group, group, "true" if group == "0" else "false",
                    "ii" if group == "0" else "i",
                ])
        rows.sort(key=lambda r: (int(r[0]), int(r[1]), tuple(map(int, r[2].split(","))), int(r[3])))
        return rows

    def check(self, inputs, output, golden) -> tuple[int, int, list[str]]:
        """Rows expected, rows failed, and a message per failed row."""
        code, text = output
        expected = self.expected_rows(inputs, golden)
        if code != 0:
            return len(expected), len(expected), [f"sweep exited with code {code}"]
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != SWEEP_COLUMNS:
            return len(expected), len(expected), [f"unexpected CSV header {rows[:1]}"]
        rows = rows[1:]
        failed, messages = abs(len(rows) - len(expected)), []
        if failed:
            messages.append(f"{len(rows)} rows, expected {len(expected)}")
        for got, want in zip(rows, expected):
            problems = []
            if got != want:
                problems.append(f"row {got} != golden {want}")
            try:
                divisors = [int(x) for x in got[8].split(",")]
                problems += divisor_problems(divisors, int(got[7]))
            except (IndexError, ValueError):
                problems.append(f"unparsable det/divisors in {got}")
            if len(got) > 10 and got[9] != got[10]:
                problems.append("even group != odd group")
            if problems:
                failed += 1
                messages.append("; ".join(problems))
        return len(expected), failed, messages


WORKLOADS = {w.name: w for w in (GridSweep(), FamilySnf(), WideLowdim(), Crosscheck())}

import csv
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path

import pytest

import ksing.cli
import ksing.ktheory
import ksing.linalg
from ksing import (
    IntMatrix,
    KTheoryReport,
    SourceUnavailable,
    matrix_from_source,
    quiver_from_json,
)
from ksing.cli import main

from conftest import all_valid_params


# The published fixture matrix, named by its parameters and source.
FIXTURE_ARGS = ("--source", "fixture", "--n", "5", "--d", "3", "--weights", "1,2,2")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeff_from_args_annotation_resolves():
    hints = typing.get_type_hints(ksing.cli._coeff_from_args)
    assert hints["return"] is ksing.PrimePower


def test_compute_family_pretty(capsys):
    code, out, err = run_cli(
        capsys, "compute", "--n", "3", "--d", "3", "--weights", "1,1,1",
        "--prime", "3", "--exponent", "1",
    )
    assert code == 0
    assert "Z/3 ⊕ Z/3" in out
    assert "K_i, i < 0:       0" in out
    assert err == ""


def test_compute_smallest_case(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--n", "2", "--d", "2", "--weights", "1,1",
        "--prime", "2", "--exponent", "2",
    )
    assert code == 0
    assert "K_i, i >= 0 even: Z/2" in out
    assert "K_i, i >= 0 odd:  Z/2" in out


def test_compute_validation_failure_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "compute", "--n", "4", "--d", "3", "--weights", "1,1,2",
        "--prime", "2",
    )
    assert code == 2
    assert "WeightNotCoprime" in err
    assert out == ""


def test_compute_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--n", "5", "--d", "3", "--weights", "1,2,2",
        "--prime", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    report = KTheoryReport.from_json_dict(payload)
    assert report.to_json_dict() == payload


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter prints integers of any length",
)
@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_compute_prints_integers_past_the_digit_limit(capsys, fmt):
    # q = 2**20000 has 6,021 digits, past the default limit of 4,300 on
    # int-to-str conversion.
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(
        capsys, "compute", "--n", "3", "--d", "3", "--weights", "1,1,1",
        "--prime", "2", "--exponent", "20000", "--format", fmt,
    )
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            assert json.loads(out)["coefficient"]["q"] == 2**20000
        else:
            assert f"coefficients: Z/{2**20000}  (l = 2, nu = 20000)" in out
    finally:
        sys.set_int_max_str_digits(limit)


def test_compute_fixture_source(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--n", "5", "--d", "3", "--weights", "1,2,2",
        "--prime", "13", "--source", "fixture", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix_source"] == "paper-fixture"
    assert payload["even_group"] == [13]


@pytest.mark.parametrize(
    "source, n, d, weights, message",
    [
        ("family", "5", "3", "1,2,2", "closed-form-family applies only to n = d with all weights 1"),
        ("family", "2", "2", "1,1", "closed-form-family needs d >= 3"),
        (
            "fixture", "3", "3", "1,1,1",
            "paper-fixture applies only to n = 5, d = 3, weights (1, 2, 2)",
        ),
    ],
)
def test_compute_refuses_a_set_its_source_does_not_cover(capsys, source, n, d, weights, message):
    code, out, err = run_cli(
        capsys, "compute", "--n", n, "--d", d, "--weights", weights,
        "--prime", "2", "--source", source,
    )
    assert (code, out, err) == (2, "", f"error: SourceUnavailable: {message}\n")


def test_an_unknown_source_is_refused_by_name():
    with pytest.raises(SourceUnavailable) as exc:
        matrix_from_source(ksing.LOW_DIM_PARAMS, "no-such-source")
    assert str(exc.value) == (
        "unknown matrix source 'no-such-source'; expected one of"
        " ('theorem-pipeline', 'closed-form-family', 'paper-fixture')"
    )


def _readme_commands() -> list[str]:
    """The ``ksing ...`` lines of README.md's ```sh blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = text.split("```sh\n")[1:]
    lines = (line.strip() for block in blocks for line in block.split("```")[0].splitlines())
    return [line for line in lines if line.startswith("ksing ")]


def test_readme_lists_its_cli_examples():
    # Guards the parser: no ksing line found would leave nothing to run.
    assert len(_readme_commands()) >= 10


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_cli_example_runs(capsys, line):
    code, out, err = run_cli(capsys, *shlex.split(line, comments=True)[1:])
    assert (code, err) == (0, "")
    assert out


def test_quiver_dot(capsys):
    code, out, _ = run_cli(
        capsys, "quiver", "--n", "5", "--d", "3", "--weights", "1,2,2",
        "--format", "dot",
    )
    assert code == 0
    assert out.startswith("digraph quiver {")
    assert sum("->" in line for line in out.splitlines()) == 7


def test_quiver_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "quiver", "--n", "5", "--d", "3", "--weights", "1,2,2",
        "--format", "json",
    )
    assert code == 0
    q = quiver_from_json(out)
    assert q.vertex_count == 4
    assert len(q.arrows) == 7


def test_cartan_with_bruteforce_check(capsys):
    code, out, _ = run_cli(
        capsys, "cartan", "--n", "5", "--d", "3", "--weights", "1,2,2",
        "--check-bruteforce",
    )
    assert code == 0
    assert "[1, 1, 3, 3]" in out
    assert "brute-force enumeration agrees: yes" in out


@pytest.mark.parametrize("check", [False, True], ids=["plain", "bruteforce"])
def test_cartan_json(capsys, check):
    argv = ["cartan", "--n", "5", "--d", "3", "--weights", "1,2,2", "--format", "json"]
    code, out, err = run_cli(capsys, *argv, *["--check-bruteforce"] * check)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["params"] == {"n": 5, "d": 3, "weights": [1, 2, 2]}
    assert payload["path_counts"] == [1, 1, 3, 3]
    assert payload["cartan_matrix"] == [[1, 0, 0, 0], [1, 1, 0, 0], [3, 1, 1, 0], [3, 3, 1, 1]]
    assert payload.get("bruteforce_agrees", "absent") == (True if check else "absent")


def test_cartan_bruteforce_cap_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "cartan", "--n", "8", "--d", "8", "--weights", "1,1,1,1,1,1,1,1",
        "--check-bruteforce", "--bruteforce-cap", "3",
    )
    assert code == 2
    assert "PathExplosion" in err


@pytest.mark.parametrize("n, d, weights", [("2", "2", "1,1"), ("5", "3", "1,2,2")])
def test_cartan_refuses_a_negative_bruteforce_cap(capsys, n, d, weights):
    code, _, err = run_cli(
        capsys, "cartan", "--n", n, "--d", d, "--weights", weights,
        "--check-bruteforce", "--bruteforce-cap", "-5",
    )
    assert code == 2
    assert "cap must be nonnegative" in err


def test_cartan_refuses_a_bruteforce_cap_without_the_check(capsys):
    for cap in ("0", "10000000"):
        code, out, err = run_cli(
            capsys, "cartan", "--n", "5", "--d", "3", "--weights", "1,2,2",
            "--bruteforce-cap", cap,
        )
        assert code == 2
        assert out == ""
        assert "InputError" in err and "--check-bruteforce" in err


def test_cartan_check_caps_at_ten_million_by_default(capsys, monkeypatch):
    caps = []
    brute = ksing.cli.path_counts_bruteforce
    monkeypatch.setattr(
        ksing.cli, "path_counts_bruteforce", lambda q, cap: caps.append(cap) or brute(q, cap)
    )
    code, out, _ = run_cli(
        capsys, "cartan", "--n", "5", "--d", "3", "--weights", "1,2,2", "--check-bruteforce"
    )
    assert code == 0
    assert "agrees: yes" in out
    assert caps == [10_000_000]


def test_matrix_command(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--n", "5", "--d", "3", "--weights", "1,2,2",
    )
    assert code == 0
    assert "det(M) = 25" in out


def test_snf_fixture_divisor_product_is_26(capsys):
    code, out, _ = run_cli(capsys, "snf", *FIXTURE_ARGS, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    divisors = payload["divisors"]
    prod = 1
    for x in divisors:
        prod *= x
    assert prod == 26


def test_snf_from_params(capsys):
    code, out, _ = run_cli(
        capsys, "snf", "--n", "3", "--d", "3", "--weights", "1,1,1",
    )
    assert code == 0
    assert "divisors: 3, 3" in out


@pytest.mark.parametrize(
    "argv, divisors",
    [
        (FIXTURE_ARGS, "1, 1, 1, 26"),
        (
            ("--n", "12", "--d", "12", "--weights", ",".join(["1"] * 12)),
            "1, 1, 1, 1, 1, 1, 1, 1, 32, 7776, 2985984",
        ),
    ],
)
def test_snf_runs_one_elimination(capsys, monkeypatch, argv, divisors):
    # The divisors are read off the certificate's D, so the modular
    # elimination of smith_normal_form never runs.
    def refuse(a, r):
        raise AssertionError("modular elimination was run")

    monkeypatch.setattr(ksing.linalg, "_divisors_mod", refuse)
    code, out, err = run_cli(capsys, "snf", *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"divisors: {divisors}"


@pytest.mark.parametrize(
    "argv, recorded",
    [
        (FIXTURE_ARGS, "snf_paper_low_dim.json"),
        (("--n", "5", "--d", "3", "--weights", "1,2,2"), "snf_5_3_1_2_2.json"),
    ],
)
def test_snf_json_matches_the_recorded_certificate(capsys, argv, recorded):
    # Recorded while snf still ran both eliminations: U, D, V and divisors
    # must stay byte for byte what they were.
    code, out, err = run_cli(capsys, "snf", *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == (Path(__file__).parent / "data" / recorded).read_text()


def test_verify_paper_low_dim(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--fixture", "low-dim-example")
    assert code == 0
    assert "reference det = 26, pipeline det = 25" in out
    assert "perfect square" in out
    assert "DISCREPANCY" in out


def test_verify_paper_low_dim_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify-paper", "--fixture", "low-dim-example", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"]["agree"] is False
    assert payload["verification"]["computed_det_is_square"] is True


def test_verify_paper_family_d3(capsys):
    code, out, _ = run_cli(
        capsys, "verify-paper", "--fixture", "family", "--d", "3"
    )
    assert code == 0
    assert "exact agreement" in out


def test_verify_paper_family_d7_renders_diff(capsys):
    code, out, _ = run_cli(
        capsys, "verify-paper", "--fixture", "family", "--d", "7"
    )
    assert code == 0
    assert "result:" in out


def test_verify_paper_family_needs_d(capsys):
    code, _, err = run_cli(capsys, "verify-paper", "--fixture", "family")
    assert code == 2
    assert "family" in err


def test_verify_paper_refuses_d_for_the_low_dim_example(capsys):
    code, out, err = run_cli(
        capsys, "verify-paper", "--fixture", "low-dim-example", "--d", "7"
    )
    assert code == 2
    assert out == ""
    assert "no dimension" in err


def test_sweep_refuses_d_in_weights_mode_ones(capsys):
    code, out, err = run_cli(capsys, "sweep", "--n", "3-4", "--d", "2", "--primes", "2")
    assert code == 2
    assert out == ""
    assert "--weights-mode all" in err


def test_closed_stdout_exits_1_without_a_message():
    # The reader of stdout is gone before the first write, as after ``| head``.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(ksing.cli.__file__).parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ksing.cli", "sweep", "--n", "3-9", "--primes", "2,3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_closed_stdout_stops_the_sweep_early():
    # Rows are written as they are computed, so the first write that fails
    # ends the sweep; block-buffered, as a pipe is by default, that is after
    # about one buffer of rows.
    code = (
        "import sys, ksing.cli, ksing.ktheory as k\n"
        "calls = []\n"
        "compute = k.compute_ktheory\n"
        "k.compute_ktheory = lambda *a: calls.append(a) or compute(*a)\n"
        "code = ksing.cli.main(sys.argv[1:])\n"
        "print(len(calls), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    argv = ["sweep", "--weights-mode", "all", "--n", "2-12", "--primes", "2"]
    cells = len(list(ksing.cli._sweep_params(ksing.cli.build_parser().parse_args(argv))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(ksing.cli.__file__).parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert cells == 1318
    assert int(proc.stderr) < cells // 4


def test_sweep_writes_each_row_before_computing_the_next(monkeypatch):
    out = io.StringIO()
    seen = []  # (params, stdout so far) at each compute_ktheory call
    compute = ksing.ktheory.compute_ktheory

    def recording(params, *args):
        seen.append((params, out.getvalue()))
        return compute(params, *args)

    monkeypatch.setattr(ksing.ktheory, "compute_ktheory", recording)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["sweep", "--n", "3-6", "--primes", "2,3"]) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 + len(seen) == 1 + 4 * 2
    # Before each cell, stdout holds the header and every earlier cell's row,
    # so the first set's rows are out before the last set is computed.
    assert [text.splitlines() for _, text in seen] == [lines[:i] for i in range(1, 9)]
    assert [params.n for params, _ in seen] == [3, 3, 4, 4, 5, 5, 6, 6]


def test_sweep_leaves_the_rows_of_m_unbuilt(capsys, monkeypatch):
    # The sweep prints det M in closed form and the divisors of
    # pipeline_divisors, so no row of any report's M is built.
    reports = []
    compute = ksing.ktheory.compute_ktheory

    def recording(*args):
        reports.append(compute(*args))
        return reports[-1]

    monkeypatch.setattr(ksing.ktheory, "compute_ktheory", recording)
    code, out, _ = run_cli(capsys, "sweep", "--n", "2-8", "--weights-mode", "all", "--primes", "2,3")
    assert code == 0 and len(out.splitlines()) == 1 + len(reports) > 50
    for report in reports:
        with pytest.raises(AttributeError):
            IntMatrix.entries.__get__(report.matrix)  # the slot, unset


def test_sweep_family_rows(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "3,5,7", "--weights-mode", "ones",
        "--primes", "3,5,7",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,d,weights")
    assert len(lines) == 1 + 9
    for d in (3, 5, 7):
        matching = [
            line for line in lines[1:]
            if line.startswith(f"{d},{d},") and f",{d},1,{d}," in line
        ]
        assert len(matching) == 1
        expected = " ⊕ ".join([f"Z/{d}"] * (d - 1))
        assert expected in matching[0]


def test_sweep_vanishing_follows_determinant(capsys):
    # pipeline det for (5, 3, (1, 2, 2)) is 25, so only l = 5 survives
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "5", "--d", "3", "--weights-mode", "all",
        "--primes", "2,3,5,7,11,13",
    )
    assert code == 0
    import csv as csv_mod
    import io

    parsed = list(csv_mod.DictReader(io.StringIO(out)))
    rows = [row for row in parsed if row["weights"] == "1,2,2"]
    assert len(rows) == 6
    for row in rows:
        assert (row["vanishing"] == "false") == (int(row["l"]) == 5)


def test_sweep_empty_prime_list(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "3", "--weights-mode", "ones", "--primes", ""
    )
    assert code == 0
    assert out.strip().splitlines() == ["n,d,weights,l,nu,q,source,det,divisors,even_group,odd_group,vanishing,corollary"]


def test_sweep_is_deterministic(capsys):
    args = (
        "sweep", "--n", "2-6", "--weights-mode", "all", "--primes", "2,3",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_sweep_takes_one_determinant_per_parameter_set(capsys, monkeypatch):
    dets, computes = [], []
    determinant, compute = ksing.cli.determinant, ksing.ktheory.compute_ktheory

    def counting_determinant(m):
        dets.append(m)
        return determinant(m)

    def counting_compute(params, *args):
        computes.append(params)
        return compute(params, *args)

    monkeypatch.setattr(ksing.cli, "determinant", counting_determinant)
    monkeypatch.setattr(ksing.ktheory, "compute_ktheory", counting_compute)
    args = ("sweep", "--n", "2-7", "--weights-mode", "all", "--primes", "2,3,5")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    sets = {tuple(row[:3]) for row in rows}
    assert len(rows) == 3 * len(sets)
    # The pipeline's det M is the closed form of pipeline_divisors.
    assert dets == []
    # compute_ktheory still runs once per (set, prime) cell.
    assert len(computes) == len(rows)
    # --max-cells counts (set, prime) cells, not parameter sets.
    assert run_cli(capsys, *args, "--max-cells", str(len(rows)))[0] == 0
    code, _, err = run_cli(capsys, *args, "--max-cells", str(len(rows) - 1))
    assert code == 2
    assert "RangeTooLarge" in err


@pytest.mark.parametrize(
    "command, fmt", [("compute", "pretty"), ("matrix", "pretty"), ("matrix", "json")]
)
def test_pipeline_det_is_the_closed_form(capsys, monkeypatch, command, fmt):
    dets = []
    determinant = ksing.cli.determinant

    def counting_determinant(m):
        dets.append(m)
        return determinant(m)

    monkeypatch.setattr(ksing.cli, "determinant", counting_determinant)
    args = (command, "--n", "7", "--d", "7", "--weights", "1,1,1,1,1,1,1", "--format", fmt)
    if command == "compute":
        args += ("--prime", "7")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and dets == []
    assert out.count(f" {7**6}") == 1
    assert run_cli(capsys, *args, "--source", "family")[0] == 0
    assert len(dets) == 1


def test_sweep_keeps_every_valid_set_of_its_grid():
    args = ksing.cli.build_parser().parse_args(["sweep", "--n", "2-8", "--weights-mode", "all"])
    assert set(ksing.cli._sweep_params(args)) == set(all_valid_params(8))


def test_sweep_range_too_large(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--n", "2-8", "--weights-mode", "all",
        "--primes", "2,3,5", "--max-cells", "10",
    )
    assert code == 2
    assert "RangeTooLarge" in err


@pytest.mark.parametrize(
    "flags, error",
    [
        (("--primes", "2", "--max-cells", "-5"), "InputError: --max-cells must be at least 1"),
        (("--primes", "2", "--max-cells", "0"), "InputError: --max-cells must be at least 1"),
        # Refused even where there are no cells to count.
        (("--primes", "", "--max-cells", "0"), "InputError: --max-cells must be at least 1"),
        # No prime reads the exponent, and it is still refused.
        (("--primes", "", "--exponent", "0"), "NonPositiveExponent"),
        # Nor a dimension below 2, which would draw no weights at all.
        (
            ("--weights-mode", "all", "--d", "1", "--primes", "2"),
            "DimensionTooSmall: dimension d must be at least 2, got 1",
        ),
        (
            ("--weights-mode", "all", "--d", "0-1", "--primes", "2"),
            "DimensionTooSmall: dimension d must be at least 2, got 0",
        ),
        (
            ("--weights-mode", "all", "--d=-4-3", "--primes", "2"),
            "DimensionTooSmall: dimension d must be at least 2, got -4",
        ),
        (
            ("--weights-mode", "all", "--d", "1,3", "--primes", ""),
            "DimensionTooSmall: dimension d must be at least 2, got 1",
        ),
    ],
)
def test_sweep_refuses_a_count_flag_below_one(capsys, flags, error):
    code, out, err = run_cli(capsys, "sweep", "--n", "3-5", *flags)
    assert (code, out) == (2, "")
    assert error in err


def test_sweep_refuses_an_oversized_grid_before_enumerating_it(capsys, monkeypatch):
    drawn = []
    iter_weight_tuples = ksing.cli.iter_weight_tuples

    def counting(n, d):
        for weights in iter_weight_tuples(n, d):
            drawn.append(weights)
            yield weights

    monkeypatch.setattr(ksing.cli, "iter_weight_tuples", counting)
    code, _, err = run_cli(
        capsys, "sweep", "--n", "2-16", "--weights-mode", "all",
        "--primes", "2,3", "--max-cells", "10",
    )
    assert code == 2
    assert "RangeTooLarge" in err
    # Ten cells at two primes are five sets: the sixth passes the cap.
    assert len(drawn) <= 10 // 2 + 1


def test_sweep_refuses_a_long_range_without_building_it(capsys):
    # --n is walked lazily, so the cap stops it after a few sets; holding
    # all 3,000,000 values at once took about 280 MB.
    tracemalloc.start()
    try:
        code, _, err = run_cli(
            capsys, "sweep", "--weights-mode", "ones", "--n", "2-3000000",
            "--primes", "2", "--max-cells", "10",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "RangeTooLarge" in err
    assert peak < 10 * 2**20


def test_parse_int_list_merges_into_sorted_ranges():
    assert ksing.cli._parse_int_list(" 9, 2-4,3-6 ,8,5") == [range(2, 7), range(8, 10)]
    assert ksing.cli._parse_int_list("") == []


def test_sweep_rows_come_out_in_grid_order(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--weights-mode", "all", "--n", "8,5-7", "--d", "5,3",
        "--primes", "3,2",
    )
    assert code == 0
    keys = [
        (int(row[0]), int(row[1]), tuple(map(int, row[2].split(","))), int(row[3]))
        for row in list(csv.reader(io.StringIO(out)))[1:]
    ]
    assert {key[1] for key in keys} == {3, 5}
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--n", "3-5", "--primes", "2", "--jobs", "2"),
        ("snf", "--fixture", "paper-low-dim"),
        ("sweep", "--n", "3-5", "--primes", "2", "--source", "family"),
        ("sweep", "--n", "3-5", "--primes", "2", "--source", "pipeline"),
    ],
    ids=["sweep-jobs", "snf-fixture", "sweep-source-family", "sweep-source-pipeline"],
)
def test_removed_flags_exit_2(capsys, argv):
    # The sweep runs in the calling process and on the pipeline only, so it
    # refuses even the default --source; snf takes the fixture as
    # --source fixture --n 5 --d 3 --weights 1,2,2.
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("n, primes", [("12-2", "2"), ("3-5", "7-3")])
def test_sweep_refuses_a_descending_range(capsys, n, primes):
    code, out, err = run_cli(capsys, "sweep", "--n", n, "--primes", primes)
    assert (code, out) == (2, "")
    assert "InputError" in err and "runs downwards" in err


@pytest.mark.parametrize("fmt, header", [
    ("csv", "n,d,weights,l,nu,q,source,det,divisors,even_group,odd_group,vanishing,corollary\n"),
    ("json", '{\n  "schema_version": 1,\n  "rows": []\n}\n'),
], ids=["csv", "json"])
def test_sweep_without_primes_does_not_walk_the_grid(capsys, monkeypatch, fmt, header):
    drawn = []
    iter_weight_tuples = ksing.cli.iter_weight_tuples

    def counting(n, d):
        for weights in iter_weight_tuples(n, d):
            drawn.append(weights)
            yield weights

    monkeypatch.setattr(ksing.cli, "iter_weight_tuples", counting)
    code, out, _ = run_cli(
        capsys, "sweep", "--weights-mode", "all", "--n", "2-20", "--primes", "",
        "--format", fmt,
    )
    assert code == 0
    assert out == header
    # One set is drawn, so that an invalid --n is still refused.
    assert len(drawn) <= 1
    code, _, err = run_cli(capsys, "sweep", "--n", "1-3", "--primes", "")
    assert code == 2
    assert "DimensionTooSmall" in err


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n", "3", "--weights-mode", "ones", "--primes", "3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["rows"][0]["even_group"] == "Z/3 ⊕ Z/3"


def test_internal_error_exit_3(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(ksing.ktheory, "compute_ktheory", boom)
    monkeypatch.setattr(ksing.cli.ktheory, "compute_ktheory", boom)
    code, _, err = run_cli(
        capsys, "compute", "--n", "3", "--d", "3", "--weights", "1,1,1",
        "--prime", "3",
    )
    assert code == 3
    assert "internal error" in err


def test_missing_params_exit_2(capsys):
    code, _, err = run_cli(capsys, "compute", "--prime", "3")
    assert code == 2
    assert "required" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("compute", "--n", "5", "--d", "3", "--weights", "1,x,2", "--prime", "2"),
            "InputError: cannot parse weights '1,x,2'",
        ),
        (
            ("compute", "--n", "5", "--d", "3", "--weights", "1,2,2"),
            "InputError: --prime is required here",
        ),
        (
            ("sweep", "--n", "2-a", "--primes", "2"),
            "InputError: cannot parse integer list entry '2-a'",
        ),
    ],
    ids=["weights", "prime", "int-list"],
)
def test_unparsable_or_missing_arguments_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err

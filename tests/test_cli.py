import csv
import io
import json
import sys
import typing

import pytest

import ksing.cli
import ksing.ktheory
from ksing import KTheoryReport, SourceUnavailable, matrix_from_source, quiver_from_json
from ksing.cli import main

from conftest import all_valid_params


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


def test_cartan_bruteforce_cap_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "cartan", "--n", "8", "--d", "8", "--weights", "1,1,1,1,1,1,1,1",
        "--check-bruteforce", "--bruteforce-cap", "3",
    )
    assert code == 2
    assert "PathExplosion" in err


def test_matrix_command(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "--n", "5", "--d", "3", "--weights", "1,2,2",
    )
    assert code == 0
    assert "det(M) = 25" in out


def test_snf_fixture_divisor_product_is_26(capsys):
    code, out, _ = run_cli(capsys, "snf", "--fixture", "paper-low-dim", "--format", "json")
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


def test_sweep_deterministic_and_parallel_identical(capsys):
    args = (
        "sweep", "--n", "2-6", "--weights-mode", "all", "--primes", "2,3",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    _, parallel, _ = run_cli(capsys, *args, "--jobs", "2")
    assert first == second == parallel


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
    assert len(dets) == len(sets)
    # compute_ktheory still runs once per (set, prime) cell.
    assert len(computes) == len(rows)
    # --max-cells counts (set, prime) cells, not parameter sets.
    assert run_cli(capsys, *args, "--max-cells", str(len(rows)))[0] == 0
    code, _, err = run_cli(capsys, *args, "--max-cells", str(len(rows) - 1))
    assert code == 2
    assert "RangeTooLarge" in err


@pytest.mark.parametrize("alias", ["pipeline", "family", "fixture"])
def test_sweep_keeps_exactly_the_sets_its_source_covers(alias):
    source = ksing.cli._SOURCE_BY_ALIAS[alias]
    args = ksing.cli.build_parser().parse_args(
        ["sweep", "--n", "2-8", "--weights-mode", "all", "--source", alias]
    )
    accepted = set()
    for params in all_valid_params(8):
        try:
            matrix_from_source(params, source)
        except SourceUnavailable:
            continue
        accepted.add(params)
    assert accepted
    assert set(ksing.cli._sweep_params(args)) == accepted


def test_sweep_range_too_large(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--n", "2-8", "--weights-mode", "all",
        "--primes", "2,3,5", "--max-cells", "10",
    )
    assert code == 2
    assert "RangeTooLarge" in err


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

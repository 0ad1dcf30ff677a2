"""Tests of the benchmark itself: tiny workloads, metric names, golden check.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from speed import Probe  # noqa: E402
from workloads import WIDE_SETS, WORKLOADS, load_golden, params_key  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_the_metrics_the_runner_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("trace", [False, True], ids=["end-to-end", "traced"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_workload_runs_and_emits_every_metric(workload, trace, capsys):
    result = run.run(workload, seed=7, seconds=0, trace=trace, tiny=True)
    section = "per_layer" if trace else "end_to_end"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], capsys.readouterr().out
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[section]}
    out = capsys.readouterr().out
    for name in result["metrics"]:
        assert name in out
    if trace and workload in ("grid-sweep", "family-snf"):
        ratio = result["metrics"]["ktheory.distinct_params_ratio"]["value"]
        assert ratio == (0.25 if workload == "grid-sweep" else 1.0)


def test_probe_segments_leave_out_the_probes_and_scale_to_the_reference():
    def busy(seconds):
        end = perf_counter() + seconds
        while perf_counter() < end:
            pass

    start = perf_counter()
    probe = Probe(every_s=0)
    busy(0.02)
    probe.cell_done()
    assert probe.segment == 1
    busy(0.02)
    probe.close()
    elapsed = perf_counter() - start
    segments = probe.segments()
    assert len(segments) == 2
    assert all(seconds >= 0.02 and ref > 0 for seconds, ref in segments)
    assert sum(seconds for seconds, _ in segments) < elapsed - sum(probe.refs)
    timed = {"segments": [[1.0, 2 * run.REF_S]] + segments[:1]}
    assert run.scaled_setup(timed) == 0.5
    assert run.scaled_wall(timed) == segments[0][0] * run.REF_S / segments[0][1]


def _corrupt(golden: dict, workload: str) -> dict:
    bad = copy.deepcopy(golden)
    if workload == "grid-sweep":
        bad["params"]["3:2:1,2"]["divisors"][-1] += 1
    elif workload == "family-snf":
        bad["params"]["4:4:1,1,1,1"]["det"] += 1
    elif workload == "wide-lowdim":
        bad["params"][params_key(*WIDE_SETS[0])]["divisors"][0] += 1
    else:
        bad["verify"]["family:3"]["computed_det"] += 1
    return bad


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupted_golden_entry_is_reported_as_failure(workload):
    sys.path.insert(0, str(HERE.parent / "src"))
    ksing = importlib.import_module("ksing")
    importlib.import_module("ksing.cli")
    wl = WORKLOADS[workload]
    inputs = wl.inputs(ksing, seed=3, tiny=True)
    result = wl.run(ksing, inputs, Probe())
    golden = load_golden()
    attempted, failed, _ = wl.check(inputs, result.outputs, golden)
    assert attempted >= 1 and failed == 0
    _, failed, messages = wl.check(inputs, result.outputs, _corrupt(golden, workload))
    assert failed >= 1 and messages


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

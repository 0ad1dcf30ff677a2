"""Benchmark of the ksing library: one workload, timed and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of the workload, each in a fresh worker process, until ``S``
seconds have gone and at least ``MIN_PASSES`` passes are done.  Every cell of
every pass is checked against the golden record.  Timings are scaled by
reference work each worker times between its cells (see ``end_to_end``).
Prints each metric by name with its unit and sample count, then, as the last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run alternates untraced passes and passes with every layer wrapped in
spans; the metrics are per layer (set-up plus one pass, least over the
traced passes) and the tracing overhead.  Spans go to
``.bench_out/spans-<workload>-<k>.json``."""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics and their units.
END_TO_END = {
    "wall_s": "s",
    "cell_ms_p50": "ms",
    "cell_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and their units; ``layer.function.stat`` reads ``stat``
#: of that function's spans.
PER_LAYER = {
    "linalg.smith_normal_form.calls": "count",
    "linalg.smith_normal_form.busy_s": "s",
    "linalg.smith_normal_form.input_bits_max": "bits",
    "linalg.unipotent_inverse.busy_s": "s",
    "linalg.theorem_matrix.self_s": "s",
    "linalg.determinant.busy_s": "s",
    "linalg.pfaffian.busy_s": "s",
    "cartan.path_counts_gf.busy_s": "s",
    "cartan.cartan_matrix.busy_s": "s",
    "cartan.path_counts_bruteforce.calls": "count",
    "cartan.path_counts_bruteforce.busy_s": "s",
    "cartan.path_counts_bruteforce.failed": "count",
    "quiver.build_quiver.calls": "count",
    "quiver.build_quiver.busy_s": "s",
    "params.iter_weight_tuples.busy_s": "s",
    "params.validate_params.calls": "count",
    "ktheory.pipeline_matrix.busy_s": "s",
    "ktheory.compute_ktheory.self_s": "s",
    "ktheory.verify_paper.self_s": "s",
    "ktheory.distinct_params_ratio": "ratio",
    "cli.main.self_s": "s",
    "trace_overhead_s": "s",
}

#: Layer functions each workload must reach; a traced run that records no
#: call to one of them is reported as incorrect.
REQUIRED_CALLS = {
    "grid-sweep": (
        "cli.main", "params.iter_weight_tuples",
        "ktheory.compute_ktheory", "ktheory.pipeline_matrix",
        "cartan.path_counts_gf", "cartan.cartan_matrix",
        "linalg.theorem_matrix", "linalg.unipotent_inverse",
        "linalg.smith_normal_form", "linalg.determinant",
    ),
    "family-snf": (
        "params.validate_params", "ktheory.compute_ktheory", "ktheory.pipeline_matrix",
        "cartan.path_counts_gf", "cartan.cartan_matrix", "linalg.theorem_matrix",
        "linalg.unipotent_inverse", "linalg.smith_normal_form",
    ),
    "wide-lowdim": (
        "params.validate_params", "ktheory.compute_ktheory", "ktheory.pipeline_matrix",
        "cartan.path_counts_gf", "cartan.cartan_matrix", "linalg.theorem_matrix",
        "linalg.unipotent_inverse", "linalg.smith_normal_form",
    ),
    "crosscheck": (
        "params.validate_params", "ktheory.verify_paper", "ktheory.pipeline_matrix",
        "cartan.path_counts_gf", "cartan.path_counts_bruteforce", "cartan.cartan_matrix",
        "quiver.build_quiver", "linalg.theorem_matrix", "linalg.determinant",
        "linalg.pfaffian",
    ),
}

#: Timings are reported at the machine speed at which the reference work of
#: ``speed.py`` takes this long, about its time on a lightly loaded 2-vCPU
#: Xeon VM.
REF_S = 0.007
#: A run makes at least this many passes, and samples set-up at least
#: ``MIN_SETUPS`` times.
MIN_PASSES = 7
MIN_SETUPS = 9
WORKER_TIMEOUT_S = 150


class WorkerFailed(RuntimeError):
    pass


def worker(workload: str, seed: int, mode: str, tiny: bool = False, spans=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if tiny:
        cmd.append("--tiny")
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {mode} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_seeds(seed: int):
    """The seed of each worker of a run, drawn from the run's seed.

    Each pass gets its own cell order and primes, so that a cell's latency,
    which depends on the cells run just before it, is a median over many
    orders rather than a property of one.
    """
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1 << 31)


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks, p in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(n: int) -> float:
    """Highest percentile (to 0.1) with at least 10 of ``n`` samples beyond it."""
    return max(50.0, math.floor(1000 * (1 - 10 / n)) / 10)


def environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {cpu}"


def scaled_wall(p: dict) -> float:
    """Pass time of worker ``p``, each probe segment at the reference speed."""
    return sum(seconds * REF_S / ref for seconds, ref in p["segments"][1:])


def scaled_setup(p: dict) -> float:
    seconds, ref = p["segments"][0]
    return seconds * REF_S / ref


def scaled_latencies(p: dict) -> list:
    refs = [ref for _, ref in p["segments"]]
    return [ms * REF_S / refs[j] for ms, j in zip(p["latencies_ms"], p["cell_segments"])]


def end_to_end(workload: str, seed: int, seconds: float, tiny: bool):
    """Timed passes; each time is scaled by the reference work next to it.

    Other load on a shared machine slows every process on it by up to about
    2x, in phases of seconds to minutes.  The workload and the reference work
    slow down together, so each time is reported at the speed at which the
    reference takes ``REF_S``, segment by segment (``speed.py``); medians
    over all passes are kept.
    """
    seeds = pass_seeds(seed)
    worker(workload, next(seeds), "setup", tiny)  # warms the bytecode cache; not counted
    passes = []
    start = perf_counter()
    while len(passes) < (1 if tiny else MIN_PASSES) or perf_counter() - start < seconds:
        passes.append(worker(workload, next(seeds), "pass", tiny))
    setups = [scaled_setup(p) for p in passes]
    while len(setups) < (1 if tiny else MIN_SETUPS):
        setups.append(scaled_setup(worker(workload, next(seeds), "setup", tiny)))
    # Every pass lists the same cells in the same order.  Each cell's latency
    # is its median over the passes, which drops one-off stalls; it counts
    # once per pass towards the percentiles.
    per_cell = zip(*(scaled_latencies(p) for p in passes))
    latencies = [statistics.median(cell) for cell in per_cell for _ in passes]
    level = tail_level(len(latencies))
    tail = percentile(latencies, level)
    beyond = sum(x > tail for x in latencies)
    cells = (f"{len(latencies)} latencies ({len(latencies) // len(passes)} cells x"
             f" {len(passes)} passes, each cell at its median)")
    raw_wall = statistics.median(p["wall_s"] for p in passes)
    ref_ms = statistics.median(ref for p in passes for _, ref in p["segments"]) * 1e3
    metrics = {
        "wall_s": (statistics.median(scaled_wall(p) for p in passes),
                   f"median of {len(passes)} passes (unscaled {raw_wall:.4f} s,"
                   f" reference work {ref_ms:.2f} ms)"),
        "cell_ms_p50": (percentile(latencies, 50), f"p50 of {cells}"),
        "cell_ms_tail": (tail, f"p{level:g} of {cells}, {beyond} beyond it"),
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
                        f"median of {len(passes)} pass processes"),
    }
    return passes, metrics, []


def traced(workload: str, seed: int, seconds: float, tiny: bool):
    """Alternating untraced and traced passes; per-layer values are least over traced ones."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    seeds = pass_seeds(seed)
    untraced, traced_passes = [], []
    start = perf_counter()
    while not untraced or not traced_passes or perf_counter() - start < seconds:
        if len(untraced) <= len(traced_passes):
            untraced.append(worker(workload, next(seeds), "pass", tiny))
        else:
            spans = out_dir / f"spans-{workload}-{len(traced_passes)}.json"
            traced_passes.append(worker(workload, next(seeds), "traced", tiny, spans))

    def layer_value(p, name):
        if name == "linalg.smith_normal_form.input_bits_max":
            return p["input_bits_max"]
        if name == "ktheory.distinct_params_ratio":
            return p["distinct_params_ratio"]
        function, stat = name.rsplit(".", 1)
        return p["layers"].get(function, {}).get(stat, 0)

    n = len(traced_passes)
    metrics = {
        name: (min(layer_value(p, name) for p in traced_passes),
               f"least of {n} traced passes (set-up + one pass)")
        for name in PER_LAYER if name != "trace_overhead_s"
    }
    base_wall = statistics.median(scaled_wall(p) for p in untraced)
    traced_wall = statistics.median(scaled_wall(p) for p in traced_passes)
    metrics["trace_overhead_s"] = (
        traced_wall - base_wall,
        f"median scaled wall of {n} traced passes, {traced_wall:.4f} s, - that of"
        f" {len(untraced)} untraced, {base_wall:.4f} s",
    )
    problems = [
        f"traced run recorded no call to {name}"
        for name in REQUIRED_CALLS[workload]
        if any(p["layers"].get(name, {}).get("calls", 0) < 1 for p in traced_passes)
    ]
    return untraced + traced_passes, metrics, problems


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the result object; prints the report lines."""
    passes, metrics, problems = (traced if trace else end_to_end)(workload, seed, seconds, tiny)
    units = PER_LAYER if trace else END_TO_END
    attempted = sum(p["cells"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {workload}, seed {seed}, trace {int(trace)}, {len(passes)} passes")
    print(f"environment: {environment()}")
    for name, (value, detail) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {units[name]:<5} {detail}")
    print(f"{'failed_frac':<44} {failed / attempted:>14.6g} {'ratio':<5} {failed} of {attempted} cells")
    for p in passes:
        for message in p["messages"]:
            print(f"mismatch: {message}")
    for problem in problems:
        print(f"problem: {problem}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ksing" / "__init__.py").is_file():
        print(f"error: no ksing sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

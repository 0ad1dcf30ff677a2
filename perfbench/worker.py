"""One pass of one workload, in a fresh process.

Every pass runs in its own interpreter so that each pays the import and
input generation a user's process pays, no pass reuses state an earlier pass
left in the library, and peak memory is that of one pass.  Prints one JSON
object on its last line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE

``--mode setup`` stops once the inputs are ready; ``pass`` times a pass and
checks it against the golden record; ``traced`` does the same with every
layer wrapped in spans.  Probes of reference work (``speed.py``) run before
set-up, between set-up and the pass, every quarter second between the cells
of an untraced pass, and after the pass; the worker reports its set-up, pass
and cells with the probe segment each ran in, so that the runner can scale
every time to one machine speed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import Probe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, load_golden  # noqa: E402

SRC = HERE.parent / "src"


def run_pass(workload: str, seed: int, mode: str, tiny: bool = False, spans_path=None) -> dict:
    """Set up, run and check one pass.  Set-up is the import plus the inputs."""
    wl = WORKLOADS[workload]
    # A traced pass probes only around the pass, so no probe lands in a span.
    probe = Probe(every_s=math.inf if mode == "traced" else 0.25)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ksing = importlib.import_module("ksing")
    for name in wl.imports:
        importlib.import_module(name)
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    inputs = wl.inputs(ksing, seed, tiny=tiny)
    probe.close()
    # Segment 0 is set-up; the pass is every later one, probes left out.
    out = {"setup_s": probe.segments()[0][0]}
    if mode == "setup":
        out["segments"] = probe.segments()
        return out
    result = wl.run(ksing, inputs, probe)
    probe.close()
    out["segments"] = probe.segments()
    out["wall_s"] = sum(seconds for seconds, _ in out["segments"][1:])
    out["latencies_ms"] = result.latencies_ms
    out["cell_segments"] = result.segments
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        bits = tracer.notes["linalg.smith_normal_form"]
        keys = tracer.notes["ktheory.compute_ktheory"]
        out["layers"] = tracer.stats()
        out["input_bits_max"] = max(bits, default=0)
        out["distinct_params_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
        if spans_path:
            tracer.write(spans_path, workload=workload, seed=seed)
    out["cells"], out["failed"], messages = wl.check(inputs, result.outputs, load_golden())
    out["messages"] = messages[:5]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "pass", "traced"))
    parser.add_argument("--tiny", action="store_true", help="a few cells only, for tests")
    parser.add_argument("--spans", default=None, help="file for the spans of a traced pass")
    args = parser.parse_args(argv)
    if not (SRC / "ksing" / "__init__.py").is_file():
        print(f"error: no ksing sources under {SRC}", file=sys.stderr)
        return 2
    out = run_pass(args.workload, args.seed, args.mode, args.tiny, args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

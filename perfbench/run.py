"""Benchmark of the gleason library and CLI.

    python3 perfbench/run.py --workload paper-cli|random-states|greechie-ladder|all \
        --seed N --seconds S --trace 0|1

Each workload runs alone in a fresh child interpreter (perfbench/worker.py)
with BLAS and OpenMP pinned to one thread; its ops run one after another, a
closed loop with one client. With --trace 0 the last line of output is a
JSON object with the end-to-end metrics:

    wall_s       one pass over the op list, each op at its fastest call in the run
    op_p50_ms    median over the op list of each op's fastest call
    op_p90_ms    90th percentile of the same; every workload has at least 100 ops
    setup_s      median over 11 fresh interpreters of importing gleason and
                 building the inputs, up to the first op
    peak_rss_mb  peak resident memory of the measuring child

The lines before it give fail_rate, the share of ops that raised, gave up or
contradicted the ground truth, with the failures by kind. With --trace 1 the
last line carries the per-layer metrics of a traced run, whose passes
alternate with untraced ones so that the tracing overhead can be reported.
Run from the root of a checkout.

BENCHMARK.json lists paper-cli and random-states only. greechie-ladder, the
scaling ladder of the enumeration and simplex layers, spends half of a
30-second run in five single-call ops; on a shared two-core machine its
op_p50_ms varied by more than 25% between runs, so it is run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-cli", "random-states", "greechie-ladder")
# Fresh interpreters that only set up; with the measuring child's own sample
# they give the set-up median.
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 150
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and return the JSON object it prints last."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        timeout=timeout,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup.append(run_child([*common, "--setup-only"], 60)["setup_s"])
    result = run_child([*common, "--trace", str(int(trace))], CHILD_TIMEOUT_S)
    setup.append(result["setup_s"])
    result["setup_s"] = statistics.median(setup)
    result["setup_samples"] = len(setup)
    return result


def report(workload: str, r: dict, trace: bool) -> dict:
    """Print the human-readable lines and return the driver's JSON object.

    Metric names and units come from BENCHMARK.json: end-to-end metrics for
    an untraced run, per-layer metrics for a traced one.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = r["layers"] if trace else r
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    kinds = r["failed_by_kind"]
    print(f"workload {workload}: {r['attempted']} ops, {r['runs']} op runs")
    print(
        f"  fail_rate {r['failed'] / r['attempted']:.6f} ({r['failed']}/{r['attempted']}: "
        f"raised {kinds['raised']}, gave_up {kinds['gave_up']}, wrong {kinds['wrong']})"
    )
    if trace:
        print(f"  {r['traced_passes']} traced passes; per-layer values are per pass")
        for layer, prediction in r["predictions"].items():
            print(f"  {layer} {prediction}")
    else:
        print(f"  latency percentiles over {r['attempted']} ops ({r['attempted'] // 10} beyond p90), "
              f"set-up median of {r['setup_samples']} interpreters")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    return {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gleason" / "__init__.py").is_file():
        print(f"error: no gleason sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            r = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            line = json.dumps(report(workload, r, bool(args.trace)))
        except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {workload}: {exc!r}", file=sys.stderr)
            return 1
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

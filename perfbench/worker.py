"""Run one workload in this fresh interpreter and print its measurements as JSON.

run.py starts this script once per sample, so every workload runs alone with
a cold import; ops run one after another (a closed loop with one client).

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up is timed from here to the first op

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402  (imports gleason and numpy)


# An op's latency is the fastest of its calls in the run: other tenants of
# the machine only ever add time, and they slow it down for seconds at a
# time, so each op's calls are spread over the whole run. An op slower than
# SLOW_OP_S runs once, in the first pass, and is followed there by a light
# pass over the ops before it. In light passes an op runs every stride-th
# time, its stride being its latency over STRIDE_S, so that each op costs
# about the same per light pass.
STRIDE_S = 0.05
SLOW_OP_S = 1.0


def time_op(op) -> tuple[float, tuple[str, str] | None]:
    """Call one op; return its latency and its failure, if any."""
    start = time.perf_counter()
    try:
        result = op.call()
    except RuntimeError as exc:  # the solvers raise RuntimeError when they give up
        return time.perf_counter() - start, ("gave_up", repr(exc))
    except Exception as exc:
        return time.perf_counter() - start, ("raised", repr(exc))
    latency = time.perf_counter() - start
    try:
        why = op.check(result)
    except Exception as exc:  # output the check cannot read is a wrong answer
        why = f"unreadable result: {exc!r}"
    return latency, None if why is None else ("wrong", why)


def run_ops(ops, samples: list[list[float]], failures: list) -> None:
    """One pass: time every op, add to its samples, append (op, kind, why) per failure."""
    for op, op_samples in zip(ops, samples):
        latency, failure = time_op(op)
        op_samples.append(latency)
        if failure is not None:
            failures.append((op, *failure))


def measure(ops, seconds: float, tracer: tracing.Tracer | None):
    """A first pass over the op list, then light passes until the next one would
    overrun ``seconds``.

    Returns the number of op runs, each op's latency samples and the failures
    of the untraced passes. With a tracer, every pass is full and is followed
    by a traced full pass, so that span counts are per pass and the tracing
    overhead compares like with like; the traced samples are returned too.
    """
    samples = [[] for _ in ops]
    traced_samples = [[] for _ in ops]
    failures: list = []
    light_numbers = itertools.count(1)

    def run(indices) -> int:
        run_ops([ops[i] for i in indices], [samples[i] for i in indices], failures)
        return len(indices)

    def light(limit: int) -> list[int]:
        number = next(light_numbers)
        return [
            i for i in range(limit)
            if min(samples[i]) < SLOW_OP_S and number % max(1, round(min(samples[i]) / STRIDE_S)) == 0
        ]

    begin = time.perf_counter()
    runs = 0
    for i in range(len(ops)):
        runs += run([i])
        if tracer is None and samples[i][-1] >= SLOW_OP_S:
            runs += run(light(i))
    while True:
        if tracer is not None:
            with tracer:
                run_ops(ops, traced_samples, [])
            chosen = list(range(len(ops)))
            next_pass_s = sum(s[-1] for s in samples) + sum(s[-1] for s in traced_samples)
        else:
            chosen = light(len(ops))
            next_pass_s = sum(samples[i][-1] for i in chosen)
        if time.perf_counter() - begin + next_pass_s > seconds:
            return runs, samples, failures, traced_samples
        runs += run(chosen)


def tally(failures) -> tuple[dict[str, int], list[str]]:
    """Failed ops by kind of their first failure, and those outside the known defects.

    An op is one input; running it again only adds timing samples.
    """
    first = {}
    for op, kind, why in failures:
        first.setdefault(id(op), (op, kind, why))
    kinds = {"raised": 0, "gave_up": 0, "wrong": 0}
    unexpected = []
    for op, kind, why in first.values():
        kinds[kind] += 1
        if (op.group, kind) not in workloads.KNOWN_DEFECTS:
            unexpected.append(f"{op.label}: {kind}: {why}")
    return kinds, unexpected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    warmup = workloads.warmup_ops(args.workload, ops)
    run_ops(warmup, [[] for _ in warmup], [])
    tracer = tracing.Tracer() if args.trace else None
    runs, samples, failures, traced_samples = measure(ops, args.seconds, tracer)
    kinds, unexpected = tally(failures)
    for line in sorted(set(unexpected)):
        print(f"unexpected failure: {line}", file=sys.stderr)

    latency = [min(s) for s in samples]
    deciles = statistics.quantiles(latency, n=10, method="inclusive")
    result = {
        "setup_s": setup_s,
        "runs": runs,
        "attempted": len(ops),
        "failed": sum(kinds.values()),
        "failed_by_kind": kinds,
        "correct": not unexpected,
        "wall_s": sum(latency),
        "op_p50_ms": deciles[4] * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        traced = sum(min(s) for s in traced_samples)
        layers = tracing.layer_metrics(tracer.spans, len(traced_samples[0]))
        layers["trace.overhead_s"] = traced - result["wall_s"]
        layers["greechie.quantum_feasibility.wrong"] = len({
            id(op) for op, kind, _ in failures
            if kind == "wrong" and op.group.startswith("quantum_feasibility")
        })
        for kind, count in kinds.items():
            layers[f"ops.{kind}"] = count
        result["layers"] = layers
        result["predictions"] = {
            name: f"should move {moves}; no change in {no_change}"
            for name, (_, moves, no_change) in tracing.LAYERS.items()
        }
        result["traced_passes"] = len(traced_samples[0])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

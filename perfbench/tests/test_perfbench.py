"""Tests of the benchmark itself: seeded inputs, failure accounting, tracing.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from gleason import greechie  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_inputs(workload):
    same = workloads.fingerprint(workloads.build(workload, 7))
    assert workloads.fingerprint(workloads.build(workload, 7)) == same
    assert workloads.fingerprint(workloads.build(workload, 8)) != same


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pass_has_enough_ops_for_p90(workload):
    assert len(workloads.build(workload, 1)) >= 100


def _feasibility_ops():
    return [op for op in workloads.build("random-states", 3)
            if op.group == "quantum_feasibility/determined-realizable"]


def test_planted_wrong_verdict_and_exception_are_failures():
    right, wrong, raising, giving_up = _feasibility_ops()[:4]
    wrong.call = lambda: greechie.QuantumFeasibility(realizable=False)

    def boom():
        raise ValueError("planted")

    def give_up():
        raise RuntimeError("planted")

    raising.call, giving_up.call = boom, give_up
    ops = [right, wrong, raising, giving_up]
    failures: list = []
    worker.run_ops(ops, [[] for _ in ops], failures)
    assert [(op, kind) for op, kind, _ in failures] == [
        (wrong, "wrong"), (raising, "raised"), (giving_up, "gave_up"),
    ]
    kinds, unexpected = worker.tally(failures)
    assert kinds == {"raised": 1, "gave_up": 1, "wrong": 1}
    assert len(unexpected) == 3


def test_known_defect_counts_but_is_expected():
    op = next(op for op in workloads.build("random-states", 3)
              if op.group == "quantum_feasibility/underdetermined-realizable")
    op.call = lambda: greechie.QuantumFeasibility(realizable=False)
    failures: list = []
    worker.run_ops([op], [[]], failures)
    kinds, unexpected = worker.tally(failures)
    assert kinds["wrong"] == 1 and unexpected == []


def _bindings():
    owners = [*tracing.MODULES, greechie.DensityOperator]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_traced_run_restores_every_wrapped_name():
    before = _bindings()
    ops = [op for w in workloads.WORKLOADS for op in workloads.build(w, 2)[:12]]
    tracer = tracing.Tracer()
    with pytest.raises(KeyError):
        with tracer:
            assert _bindings() != before
            worker.run_ops(ops, [[] for _ in ops], [])
            raise KeyError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "cli.render", "numerics.eigh", "density.DensityOperator"} <= names


def test_self_time_subtracts_child_spans():
    spans = [
        tracing.Span("greechie.convex_decomposition", 0.0, 10.0, -1, size=2),
        tracing.Span("greechie.enumerate_two_valued_states", 1.0, 3.0, 0, size=8),
        tracing.Span("numerics.lp_feasible", 3.0, 9.0, 0, size=40, gave_up=True),
        tracing.Span("numerics.eigh", 4.0, 5.0, 2, size=3),
    ]
    m = tracing.layer_metrics(spans, passes=2)
    assert m["greechie.convex_decomposition.self_s"] == pytest.approx(1.0)
    assert m["numerics.lp_feasible.self_s"] == pytest.approx(2.5)
    assert m["numerics.lp_feasible.calls"] == 0.5
    assert m["numerics.lp_feasible.gave_up"] == 0.5
    assert m["numerics.lp_feasible.cells"] == 20
    assert m["numerics.eigh.dim_max"] == 3
    assert m["greechie.convex_decomposition.support_ratio"] == pytest.approx(0.25)


def test_ks18_is_the_cabello_set():
    atoms, blocks, probs = workloads._parse_greechie(workloads.KS18_PATH)
    rays = {a: np.array([-1.0 if c == "m" else float(c) for c in a]) for a in atoms}
    assert len(atoms) == 18 and len(blocks) == 9
    assert all(sum(a in b for b in blocks) == 2 for a in atoms)
    for block in blocks:
        assert len(block) == 4
        for u, v in itertools.combinations(block, 2):
            assert rays[u] @ rays[v] == 0.0
    assert set(probs.values()) == {0.25}


@pytest.mark.parametrize("n", workloads.GON_RUNGS)
def test_odd_gon_mixtures_are_valid_states(n):
    rng = np.random.default_rng(n)
    diagram = workloads.odd_gon(n)
    mixture = workloads._mixture(rng, lambda: workloads._gon_state(rng, n))
    assert greechie.validate_state(diagram, mixture) == []
    assert workloads.lucas(n) == len(greechie.enumerate_two_valued_states(diagram))


@pytest.mark.parametrize("trace", [0, 1])
def test_worker_reports_every_metric_in_benchmark_json(trace, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert worker.main(["--workload", "paper-cli", "--seed", "1", "--seconds", "0",
                        "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    if trace:
        assert set(result["layers"]) == {m["name"] for m in spec["per_layer"]}
        assert result["layers"]["cli.main.calls"] == len(workloads.build("paper-cli", 1))
    else:
        assert {m["name"] for m in spec["end_to_end"]} <= set(result)

"""Spans around the public ``gleason`` layers, installed from outside the package.

Functions such as ``eigh`` are imported by name into several modules, so each
layer is wrapped at every module attribute that is bound to it, and put back
afterwards. Construction of ``DensityOperator`` is traced through its
``__post_init__``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

import gleason
from gleason import cli, density, frame, greechie, numerics

MODULES = (gleason, numerics, density, frame, greechie, cli)

# Layer name -> (the (owner, attribute) pairs that define it, the end-to-end
# metrics and workloads it should move, the pairing where the prediction is
# no change). Predictions follow the call graph at the parent commit.
LAYERS = {
    "numerics.eigh": (
        [(numerics, "eigh")],
        "op_p50_ms and wall_s on random-states; op_p50_ms on paper-cli; "
        "op_p90_ms on greechie-ladder only through the n-gon vertex tests",
        "wall_s on greechie-ladder",
    ),
    "numerics.rank": (
        [(numerics, "rank")],
        "op_p90_ms on greechie-ladder (n-gon vertex tests); op_p50_ms on paper-cli",
        "random-states (never called)",
    ),
    "numerics.solve_least_squares": (
        [(numerics, "solve_least_squares")],
        "op_p50_ms on random-states",
        "greechie-ladder",
    ),
    "numerics.lp_feasible": (
        [(numerics, "lp_feasible")],
        "wall_s, op_p90_ms and failed ops on greechie-ladder",
        "random-states (never called)",
    ),
    "greechie.enumerate_two_valued_states": (
        [(greechie, "enumerate_two_valued_states")],
        "wall_s and peak_rss_mb on greechie-ladder",
        "random-states (never called)",
    ),
    "greechie.convex_decomposition": (
        [(greechie, "convex_decomposition")],
        "wall_s on greechie-ladder",
        "random-states (never called)",
    ),
    "greechie.is_polytope_vertex": (
        [(greechie, "is_polytope_vertex")],
        "op_p90_ms on greechie-ladder",
        "random-states (never called)",
    ),
    "greechie.check_realization": (
        [(greechie, "check_realization")],
        "op_p50_ms on random-states and greechie-ladder",
        "wall_s on greechie-ladder",
    ),
    "greechie.quantum_feasibility": (
        [(greechie, "quantum_feasibility")],
        "failed ops and op_p50_ms on random-states",
        "wall_s on greechie-ladder",
    ),
    "greechie.parse_greechie_text": (
        [(greechie, "parse_greechie_text")],
        "op_p50_ms on paper-cli",
        "random-states (never called)",
    ),
    "frame.reconstruct_density": (
        [(frame, "reconstruct_density")],
        "op_p50_ms on random-states",
        "greechie-ladder (never called)",
    ),
    "frame.reconstruct_from_samples": (
        [(frame, "reconstruct_from_samples")],
        "op_p50_ms on random-states",
        "greechie-ladder (never called)",
    ),
    "frame.signature": (
        [(frame, "signature")],
        "op_p50_ms on random-states",
        "greechie-ladder (never called)",
    ),
    "density.DensityOperator": (
        [(density.DensityOperator, "__post_init__")],
        "op_p50_ms on random-states and paper-cli",
        "wall_s on greechie-ladder",
    ),
    "density.spectral_mixture": (
        [(density, "spectral_mixture")],
        "op_p50_ms on random-states",
        "greechie-ladder (never called)",
    ),
    "cli.main": (
        [(cli, "main")],
        "op_p50_ms on paper-cli",
        "random-states and greechie-ladder (never called)",
    ),
    "cli.render": (
        [(cli, "render_text"), (cli, "render_structured")],
        "op_p50_ms on paper-cli",
        "random-states and greechie-ladder (never called)",
    ),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    size: int = 0
    gave_up: bool = False


def _size(name: str, args, result) -> int:
    """Work count a span records: matrix dimension, LP cells or states."""
    if name == "numerics.eigh":
        return args[0].dim
    if name == "numerics.lp_feasible":
        return int(np.atleast_2d(np.asarray(args[0])).size)
    if name == "greechie.enumerate_two_valued_states":
        return len(result)
    if name == "greechie.convex_decomposition":
        return 0 if result is None else len(result.entries)
    return 0


class Tracer:
    """Context manager that wraps every layer while active and restores it on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except RuntimeError:
                span.gave_up = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.size = _size(name, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for name, (bindings, _moves, _no_change) in LAYERS.items():
            for owner, attr in bindings:
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original)
                targets = [owner] if isinstance(owner, type) else MODULES
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            self._restore.append((target, key, original))
                            setattr(target, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-pass counts and self times for every layer, plus the layer ratios."""
    self_s = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            self_s[s.parent] -= s.end - s.start
    out: dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for s, own in zip(spans, self_s):
        out[f"{s.name}.calls"] += 1.0
        out[f"{s.name}.self_s"] += own
    for key in out:
        out[key] /= passes

    def of(name):
        return [s for s in spans if s.name == name]

    out["numerics.eigh.dim_max"] = float(max((s.size for s in of("numerics.eigh")), default=0))
    lp = of("numerics.lp_feasible")
    out["numerics.lp_feasible.cells"] = sum(s.size for s in lp) / passes
    out["numerics.lp_feasible.gave_up"] = sum(s.gave_up for s in lp) / passes
    out["greechie.enumerate_two_valued_states.states"] = (
        sum(s.size for s in of("greechie.enumerate_two_valued_states")) / passes
    )
    decompositions = {i for i, s in enumerate(spans) if s.name == "greechie.convex_decomposition"}
    support = sum(spans[i].size for i in decompositions)
    enumerated = sum(
        s.size
        for s in spans
        if s.name == "greechie.enumerate_two_valued_states" and s.parent in decompositions
    )
    out["greechie.convex_decomposition.support_ratio"] = support / enumerated if enumerated else 0.0
    return out

"""Seeded inputs, op lists and ground truth for the three benchmark workloads.

An op is one call into a public ``gleason`` function, or one CLI invocation,
on one input. Each op carries a check that compares the result with an
answer known from how the input was built, or from the paper, never from
the program's own output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gleason import cli, density, frame, greechie, numerics

HERE = Path(__file__).resolve().parent
KS18_PATH = HERE / "ks18.greechie"
FIXTURES = Path(cli.__file__).resolve().parent / "fixtures"

WORKLOADS = ("paper-cli", "random-states", "greechie-ladder")

# Failures that the program at the parent commit is known to produce. They
# still count in ``failed``; only a failure outside this list makes a run
# incorrect. Keys are (op group, failure kind).
KNOWN_DEFECTS = {
    # Least squares returns the minimum-norm fit, which need not be positive
    # semidefinite when two contexts leave rho underdetermined.
    ("quantum_feasibility/underdetermined-realizable", "wrong"),
    # The Bland simplex hits its pivot cap on the large spin-1/2 rungs.
    ("convex_decomposition", "gave_up"),
}

# Tolerances of the checks. Recovered matrices are compared entrywise.
MATRIX_TOL = 1e-8
MEASURE_TOL = 1e-7
ZERO_TOL = 1e-9


@dataclass
class Op:
    """One call to time, the inputs it receives, and how to check its result."""

    group: str
    label: str
    inputs: tuple
    call: Callable[[], object]
    check: Callable[[object], str | None]


def fingerprint(ops: list[Op]) -> str:
    """Digest of every op's label and inputs, to compare seeds."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.label.encode())
        for item in op.inputs:
            if isinstance(item, np.ndarray):
                h.update(item.tobytes())
            else:
                h.update(repr(item).encode())
    return h.hexdigest()


def build(workload: str, seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    if workload == "paper-cli":
        return paper_cli(rng)
    if workload == "random-states":
        return random_states(rng)
    if workload == "greechie-ladder":
        return greechie_ladder(rng)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_ops(workload: str, ops: list[Op]) -> list[Op]:
    """Ops run once before timing; the ladder warms on its cheap rungs only."""
    if workload == "greechie-ladder":
        return [op for op in ops if op.label.endswith((" k=4", " n=5", " ks18"))]
    return ops


def _max_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def _inertia(m: np.ndarray) -> tuple[int, int, int]:
    w = np.linalg.eigvalsh(m)
    pos, neg = int(np.sum(w > ZERO_TOL)), int(np.sum(w < -ZERO_TOL))
    return pos, neg, m.shape[0] - pos - neg


# --------------------------------------------------------------------------
# paper-cli: every CLI command on every bundled fixture, in both formats.


def _read_matrix(path: Path) -> np.ndarray:
    rows = [ln.split("#", 1)[0].split() for ln in path.read_text().splitlines()]
    rows = [r for r in rows if r]
    return np.array([[float(x) for x in r] for r in rows[1:]])


# Verdicts per Greechie file: (valid, two-valued count, decomposable, realizer).
# The pentagon's answers are the paper's; the spin-1/2 files are one 0/1
# state (decomposable, not realizable: its first context forces rho = e1 e1^T,
# which gives 1/2 on the second) or the all-1/2 measure (I/2); KS-18 has no
# two-valued state and the uniform measure is I/4.
GREECHIE_TRUTH = {
    "pentagon.greechie": (True, 11, False, None),
    "fig_two_contexts_classical.greechie": (True, 4, True, None),
    "fig_two_contexts_ignorant.greechie": (True, 4, True, np.eye(2) / 2),
    "fig_three_contexts_classical.greechie": (True, 8, True, None),
    "ks18.greechie": (True, 0, False, np.eye(4) / 4),
}

DEMO_CASES = 13


def _parse_greechie(path: Path):
    atoms, blocks, probs = [], [], {}
    for ln in path.read_text().splitlines():
        parts = ln.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "atom":
            atoms.append(parts[1])
        elif parts[0] == "block":
            blocks.append(parts[1:])
        elif parts[0] == "prob":
            probs[parts[1]] = float(parts[2])
    return atoms, blocks, probs


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _expect_code(want: int, check_output: Callable[[str], str | None]):
    def check(result) -> str | None:
        code, out = result
        if code != want:
            return f"exit code {code}, expected {want}"
        return check_output(out)

    return check


def _text_has(*lines: str):
    def check(out: str) -> str | None:
        have = set(out.splitlines())
        missing = [ln for ln in lines if ln not in have]
        return f"missing line {missing[0]!r}" if missing else None

    return check


def _verdicts(out: str) -> dict:
    return {v["name"]: v["value"] for v in json.loads(out)["verdicts"]}


def _structured(check_verdicts: Callable[[dict], str | None]):
    return lambda out: check_verdicts(_verdicts(out))


def _matrix_checks(m: np.ndarray):
    """Expected output of density-to-frame, reconstruct and signature on matrix m."""
    pos, neg, zero = _inertia(m)
    sig_line = f"signature: positive={pos}  negative={neg}  zero={zero}"
    eig = np.sort(np.linalg.eigvalsh(m))[::-1]
    weights = eig[eig > ZERO_TOL]

    def frame_v(v):
        if _max_diff(v["coefficient_matrix"], m) > 1e-12:
            return "coefficient matrix differs from the density operator"
        if abs(v["weight"] - np.trace(m)) > ZERO_TOL:
            return f"weight {v['weight']}"
        return None

    def sig_v(v):
        got = v["signature"]
        if (got["positive"], got["negative"], got["zero"]) != (pos, neg, zero):
            return f"signature {got}, expected {(pos, neg, zero)}"
        return None

    def recon_v(v):
        if _max_diff(v["reconstructed"], m) > MATRIX_TOL:
            return "reconstructed matrix differs from the input form"
        if v["quantum"] is not True:
            return "density operator reported as not quantum"
        got = np.asarray(v["mixture_weights"])
        if got.shape != weights.shape or _max_diff(got, weights) > MATRIX_TOL:
            return f"mixture weights {got.tolist()}, expected {weights.tolist()}"
        return sig_v(v)

    return {
        "density-to-frame": (_text_has("weight: 1"), frame_v),
        "reconstruct": (_text_has("quantum: true", sig_line), recon_v),
        "signature": (_text_has(sig_line, "weight: 1"), sig_v),
    }


def _greechie_checks(path: Path):
    valid, count, decomposable, realizer = GREECHIE_TRUTH[path.name]
    atoms, blocks, probs = _parse_greechie(path)
    target = np.array([probs[a] for a in atoms])

    def check_v(v):
        return None if v["valid"] is valid else f"valid={v['valid']}"

    def two_valued_v(v):
        if v["count"] != count or len(v["states"]) != count:
            return f"{v['count']} two-valued states, expected {count}"
        index = {a: i for i, a in enumerate(v["atom_order"])}
        for bits in v["states"]:
            if any(sum(int(bits[index[a]]) for a in b) != 1 for b in blocks):
                return f"state {bits} is not two-valued"
        return None if len(set(v["states"])) == count else "repeated two-valued state"

    def decompose_v(v):
        if v["decomposable"] is not decomposable:
            return f"decomposable={v['decomposable']}"
        if not decomposable:
            return None
        weights = np.array([e["weight"] for e in v["weights"]])
        states = np.array([[int(c) for c in e["state"]] for e in v["weights"]])
        if np.any(weights < -ZERO_TOL) or abs(weights.sum() - 1.0) > ZERO_TOL:
            return "weights are not a probability vector"
        if _max_diff(weights @ states, target) > ZERO_TOL:
            return "decomposition does not reproduce the measure"
        return None

    def feasibility_v(v):
        if v["realizable"] is not (realizer is not None):
            return f"realizable={v['realizable']}"
        if realizer is not None and _max_diff(v["density"], realizer) > MATRIX_TOL:
            return "realizing density operator differs from the known one"
        return None

    yes_no = {True: "true", False: "false"}
    return {
        "check": (0 if valid else 3, _text_has(f"valid: {yes_no[valid]}"), check_v),
        "two-valued": (0, _text_has(f"count: {count}"), two_valued_v),
        "decompose": (
            0 if decomposable else 5,
            _text_has(f"decomposable: {yes_no[decomposable]}"),
            decompose_v,
        ),
        "feasibility": (
            0 if realizer is not None else 5,
            _text_has(f"realizable: {yes_no[realizer is not None]}"),
            feasibility_v,
        ),
    }


def _cli_ops(group: str, argv: list[str], code: int, text_check, structured_check) -> list[Op]:
    ops = []
    for fmt, check_output in (("text", text_check), ("structured", _structured(structured_check))):
        full = [*argv, "--format", fmt]
        ops.append(
            Op(
                group=group,
                label=" ".join(full),
                inputs=(tuple(full),),
                call=lambda full=full: _run_cli(full),
                check=_expect_code(code, check_output),
            )
        )
    return ops


def paper_cli(rng: np.random.Generator) -> list[Op]:
    """Every command on every fixture in both formats; the seed fixes the order."""
    ops: list[Op] = []
    for path in sorted(FIXTURES.glob("*.mat")):
        for command, (text_check, structured_check) in _matrix_checks(_read_matrix(path)).items():
            ops += _cli_ops(f"cli/{command}", [command, str(path)], 0, text_check, structured_check)
    for path in [*sorted(FIXTURES.glob("*.greechie")), KS18_PATH]:
        for sub, (code, text_check, structured_check) in _greechie_checks(path).items():
            group = "quantum_feasibility/cli" if sub == "feasibility" else f"cli/greechie {sub}"
            ops += _cli_ops(group, ["greechie", sub, str(path)], code, text_check, structured_check)

    def demo_v(v):
        if (v["passed"], v["failed"]) != (DEMO_CASES, 0):
            return f"demo passed {v['passed']}, failed {v['failed']}"
        return None

    ops += _cli_ops("cli/demo-paper", ["demo-paper"], 0, _text_has(f"passed: {DEMO_CASES}"), demo_v)
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# --------------------------------------------------------------------------
# random-states: seeded density operators through the linear-algebra paths.


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


def _spectrum_matrix(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    m = (q * w) @ q.T
    return (m + m.T) / 2.0


def random_density(rng: np.random.Generator, n: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """A rank-``rank`` density operator with a random eigenbasis, and its weights."""
    w = np.zeros(n)
    w[:rank] = rng.uniform(0.5, 1.5, rank)
    w /= w.sum()
    return _spectrum_matrix(_random_orthogonal(rng, n), w), np.sort(w[:rank])[::-1]


def _indefinite(rng: np.random.Generator, n: int) -> np.ndarray:
    """Trace-1 symmetric matrix with exactly one negative eigenvalue."""
    delta = rng.uniform(0.05, 0.2)
    w = rng.uniform(0.5, 1.5, n - 1)
    w = np.append((1.0 + delta) * w / w.sum(), -delta)
    return _spectrum_matrix(_random_orthogonal(rng, n), w)


def _contexts(rng: np.random.Generator, m: np.ndarray, count: int) -> list[np.ndarray]:
    """Random orthonormal bases (as rows) on which m gives probabilities in [0, 1]."""
    bases = []
    while len(bases) < count:
        q = _random_orthogonal(rng, m.shape[0]).T
        p = np.einsum("ij,jk,ik->i", q, m, q)
        if np.all((p >= 0.0) & (p <= 1.0)):
            bases.append(q)
    return bases


def _feasibility_input(bases: list[np.ndarray], m: np.ndarray):
    atoms, blocks, vectors, probs = [], [], {}, {}
    for c, q in enumerate(bases):
        block = []
        for i, v in enumerate(q):
            atom = f"c{c}.{i}"
            atoms.append(atom)
            block.append(atom)
            vectors[atom] = v
            probs[atom] = float(v @ m @ v)
        blocks.append(tuple(block))
    return (
        greechie.GreechieDiagram(tuple(atoms), tuple(blocks)),
        greechie.VectorRealization(vectors),
        greechie.ProbabilityAssignment(probs),
    )


def _check_feasibility(realizable: bool, realization, assignment):
    def check(verdict) -> str | None:
        if verdict.realizable != realizable:
            return f"realizable={verdict.realizable}, expected {realizable}"
        if not realizable:
            return None
        rho = verdict.density.matrix.entries
        if np.min(np.linalg.eigvalsh(rho)) < -ZERO_TOL or abs(np.trace(rho) - 1.0) > ZERO_TOL:
            return "returned matrix is not a density operator"
        for atom, v in realization.vectors.items():
            if abs(v @ rho @ v - assignment.values[atom]) > MEASURE_TOL:
                return f"returned density operator misses the measure at {atom}"
        return None

    return check


FEASIBILITY_KINDS = ("underdetermined-realizable", "determined-realizable", "determined-indefinite")


def random_states(rng: np.random.Generator) -> list[Op]:
    """Five calls per state; n in {3, 4, 6, 8}, rank in {1, 2, n}, one state per feasibility kind."""
    ops: list[Op] = []
    for n in (3, 4, 6, 8):
        for rank in (1, 2, n):
            for kind in FEASIBILITY_KINDS:
                ops += _state_ops(rng, n, rank, kind)
    return ops


def _state_ops(rng: np.random.Generator, n: int, rank: int, kind: str) -> list[Op]:
    rho, weights = random_density(rng, n, rank)
    tag = f"n={n} rank={rank} {kind}"
    oracle = frame.FrameOracle(evaluator=lambda x: float(x @ rho @ x), dim=n)
    probes = np.array([_random_unit(rng, n) for _ in range(n * (n + 1))])
    values = np.einsum("ij,jk,ik->i", probes, rho, probes)
    state = density.DensityOperator(numerics.SymMatrix(rho))
    form = frame.FrameFunction(numerics.SymMatrix(rho))

    def recovered(m: numerics.SymMatrix) -> str | None:
        return None if _max_diff(m.entries, rho) <= MATRIX_TOL else "rho not recovered"

    def fitted(got) -> str | None:
        if got.rank_deficient or got.residual > MATRIX_TOL:
            return f"fit rank_deficient={got.rank_deficient} residual={got.residual:.3e}"
        return recovered(got.frame_function.form)

    def mixture(got) -> str | None:
        w = np.array([p for p, _ in got])
        if w.shape != weights.shape or _max_diff(w, weights) > MATRIX_TOL:
            return f"weights {w.tolist()}, expected {weights.tolist()}"
        back = sum(p * np.outer(v.components, v.components) for p, v in got)
        return None if _max_diff(back, rho) <= MATRIX_TOL else "mixture does not sum to rho"

    def inertia(got) -> str | None:
        want = (rank, 0, n - rank)
        have = (got.positive, got.negative, got.zero)
        return None if have == want else f"signature {have}, expected {want}"

    if kind == "determined-indefinite":
        measured, realizable = _indefinite(rng, n), False
    else:
        measured, realizable = rho, True
    count = 2 if kind == "underdetermined-realizable" else n + 1
    diagram, realization, assignment = _feasibility_input(_contexts(rng, measured, count), measured)

    return [
        Op("reconstruct_density", f"reconstruct_density {tag}", (rho,),
           lambda: frame.reconstruct_density(oracle), lambda got: recovered(got.matrix)),
        Op("reconstruct_from_samples", f"reconstruct_from_samples {tag}", (probes, values),
           lambda: frame.reconstruct_from_samples(probes, values), fitted),
        Op("spectral_mixture", f"spectral_mixture {tag}", (rho,),
           lambda: density.spectral_mixture(state), mixture),
        Op("signature", f"signature {tag}", (rho,),
           lambda: frame.signature(form), inertia),
        Op(f"quantum_feasibility/{kind}", f"quantum_feasibility {tag}",
           (measured, *realization.vectors.values()),
           lambda: greechie.quantum_feasibility(diagram, realization, assignment),
           _check_feasibility(realizable, realization, assignment)),
    ]


# --------------------------------------------------------------------------
# greechie-ladder: a scaling ladder of diagrams through enumeration and LP.

SPIN_RUNGS = range(4, 15)
GON_RUNGS = range(5, 20, 2)
MIXTURE_SIZE = 3


def lucas(n: int) -> int:
    """Independent sets of an n-cycle: the two-valued states of the n-gon loop."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def odd_gon(n: int) -> greechie.GreechieDiagram:
    """Blocks {a_i, b_i, a_(i+1)}: the Wright pentagon generalised to n blocks."""
    atoms = tuple(f"a{i}" for i in range(n)) + tuple(f"b{i}" for i in range(n))
    blocks = tuple((f"a{i}", f"b{i}", f"a{(i + 1) % n}") for i in range(n))
    return greechie.GreechieDiagram(atoms, blocks)


def _spin_state(rng: np.random.Generator, k: int) -> dict[str, int]:
    plus = rng.integers(0, 2, k)
    return {f"x{i + 1}{s}": int((s == "+") == bool(plus[i])) for i in range(k) for s in "-+"}


def _gon_state(rng: np.random.Generator, n: int) -> dict[str, int]:
    a = rng.integers(0, 2, n)
    for i in range(n):
        if a[i] and a[(i + 1) % n]:
            a[(i + 1) % n] = 0
    return {f"a{i}": int(a[i]) for i in range(n)} | {
        f"b{i}": int(not a[i] and not a[(i + 1) % n]) for i in range(n)
    }


def _mixture(rng: np.random.Generator, draw) -> greechie.ProbabilityAssignment:
    """Convex mixture of MIXTURE_SIZE distinct two-valued states with positive weights."""
    states: list[dict[str, int]] = []
    while len(states) < MIXTURE_SIZE:
        s = draw()
        if s not in states:
            states.append(s)
    w = rng.uniform(0.5, 1.5, MIXTURE_SIZE)
    w /= w.sum()
    return greechie.ProbabilityAssignment(
        {a: float(sum(wi * s[a] for wi, s in zip(w, states))) for a in states[0]}
    )


def _check_count(want: int):
    return lambda got: None if len(got) == want else f"{len(got)} states, expected {want}"


def _check_decomposition(diagram, assignment, decomposable: bool):
    def check(got) -> str | None:
        if (got is not None) != decomposable:
            return f"decomposable={got is not None}, expected {decomposable}"
        if got is None:
            return None
        weights = np.array([w for w, _ in got.entries])
        if np.any(weights < -ZERO_TOL) or abs(weights.sum() - 1.0) > ZERO_TOL:
            return "weights are not a probability vector"
        back = got.reconstructed(diagram.atoms)
        if max(abs(back[a] - assignment.values[a]) for a in diagram.atoms) > ZERO_TOL:
            return "decomposition does not reproduce the measure"
        return None

    return check


def _check_equal(want):
    return lambda got: None if got == want else f"{got!r}, expected {want!r}"


def _check_realized_by(realizer: np.ndarray):
    def check(verdict) -> str | None:
        if not verdict.realizable:
            return "realizable=False, expected True"
        if _max_diff(verdict.density.matrix.entries, realizer) > MATRIX_TOL:
            return "realizing density operator differs from the known one"
        return None

    return check


def _rung_ops(tag: str, diagram, states: int, measures) -> list[Op]:
    """Enumeration once, then decomposition and extremality per (measure, decomposable, vertex)."""
    atoms = (diagram.atoms, diagram.blocks)
    ops = [
        Op("enumerate_two_valued_states", f"enumerate {tag}", atoms,
           lambda: greechie.enumerate_two_valued_states(diagram), _check_count(states)),
    ]
    for name, assignment, decomposable, vertex in measures:
        values = tuple(sorted(assignment.values.items()))
        ops += [
            Op("convex_decomposition", f"decompose {name} {tag}", (*atoms, values),
               lambda a=assignment: greechie.convex_decomposition(diagram, a),
               _check_decomposition(diagram, assignment, decomposable)),
            Op("is_polytope_vertex", f"vertex {name} {tag}", (*atoms, values),
               lambda a=assignment: greechie.is_polytope_vertex(diagram, a),
               _check_equal(vertex)),
        ]
    return ops


def greechie_ladder(rng: np.random.Generator) -> list[Op]:
    """Spin-1/2 families k=4..14, odd n-gon loops n=5..19, and KS-18.

    The seed sets the measurement directions of the spin-1/2 families. Each
    rung's mixture comes from a generator fixed by the rung's size: the
    simplex's pivot count, and so the cost of a decomposition, changes by a
    factor of several from one mixture to the next, which would make the
    ladder's timings depend on the draw rather than on the program.
    """
    ops: list[Op] = []
    for n in GON_RUNGS:
        diagram = odd_gon(n)
        # On an odd loop the all-1/2 measure (1/2 on every a_i, 0 on every b_i)
        # is a vertex of the state polytope that is not two-valued, so no
        # convex sum of two-valued states gives it.
        half = greechie.ProbabilityAssignment(
            {f"a{i}": 0.5 for i in range(n)} | {f"b{i}": 0.0 for i in range(n)}
        )
        fixed = np.random.default_rng(n)
        mixed = _mixture(fixed, lambda: _gon_state(fixed, n))
        ops += _rung_ops(f"n={n}", diagram, lucas(n),
                         [("half", half, False, True), ("mixture", mixed, True, False)])
    for k in SPIN_RUNGS:
        directions = np.sort(rng.uniform(0.0, math.pi, k))
        diagram, realization = greechie.builtin_spin_half_family(k, directions)
        half = greechie.ProbabilityAssignment({a: 0.5 for a in diagram.atoms})
        fixed = np.random.default_rng(k)
        mixed = _mixture(fixed, lambda: _spin_state(fixed, k))
        tag = f"k={k}"
        ops += _rung_ops(tag, diagram, 2**k,
                         [("half", half, True, False), ("mixture", mixed, True, False)])
        ops.append(
            Op("quantum_feasibility/spin-half", f"feasibility half {tag}", (directions,),
               lambda d=diagram, r=realization, h=half: greechie.quantum_feasibility(d, r, h),
               _check_realized_by(np.eye(2) / 2))
        )
    ks = greechie.parse_greechie_text(KS18_PATH.read_text())
    ops.append(
        Op("check_realization", "check_realization ks18", (KS18_PATH.name,),
           lambda: greechie.check_realization(ks.diagram, ks.realization), _check_equal([]))
    )
    ops += _rung_ops("ks18", ks.diagram, 0, [("uniform", ks.assignment, False, False)])
    ops.append(
        Op("quantum_feasibility/ks18", "feasibility uniform ks18", (KS18_PATH.name,),
           lambda: greechie.quantum_feasibility(ks.diagram, ks.realization, ks.assignment),
           _check_realized_by(np.eye(4) / 4))
    )
    return ops

"""Shared helpers for the test suite: random generators and brute-force oracles.

The oracles here are intentionally independent of the library paths they
check: exhaustive enumeration for two-valued states and for LP feasibility,
scipy's HiGHS for LPs too large to enumerate (tests using it are skipped
without scipy), and plain numpy arithmetic for expected values. The
``reference_*`` functions are the probe-by-probe, pair-by-pair and
vector-by-vector loops that the library's cached index arrays and batched
rows replace; results must match them exactly,
except ``reference_reconstructed``, whose sums a matrix product reorders.
``reference_least_squares`` is the plain ``np.linalg.lstsq`` call that every
library fit must match bit for bit. ``reference_atom_ids`` is the three
coercions that the atom id rule replaces, for inputs whose ids are distinct
after ``str``. ``reference_vector_failure`` replaces nothing: it is the
library's own atom-by-atom order, with numpy checks where ``VectorRealization``
checks each row's Python floats. ``reference_render_structured`` and
``reference_render_text`` are the CLI's report renderers with one generic
``json.dumps``, ``reference_block_pairs`` and ``reference_incidence`` build a
diagram's index arrays atom by atom, and ``reference_spectral_mixture`` takes
each norm with ``np.linalg.norm``; outputs must match them byte for byte.
``reference_lp_feasible`` is the Lawson-Hanson loop through numpy's module
functions (``np.linalg.norm``, ``np.where``, ``np.max``), whose bits the
library's method calls must keep: the loop's plain twin under the same column scaling
and zero rule, the same stop at no positive gradient and the same Farkas certificate
check before a None, not an oracle; ``cycling_lstsq`` drives that loop into its give-up.
``reference_is_polytope_vertex`` is the
stacked active-constraint rank test that the support-column test replaces;
their verdicts must match at tolerances up to 1e-3. ``clamp_miss`` and
``trace_miss`` build the seeded inputs that reach ``quantum_feasibility``'s
two rarest refusals.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from gleason import DensityOperator, GreechieDiagram, SymMatrix, orthonormalize
from gleason.frame import (
    _ORACLE_PROBE_COUNT,
    _ORACLE_PROBE_SEED,
    FrameOracle,
    NotAFrameFunction,
    consistency_limit,
)
from gleason.greechie import (
    Decomposition,
    InvalidRealization,
    ProbabilityAssignment,
    VectorRealization,
    Violation,
)
from gleason.numerics import DEFAULT_TOL, DimensionMismatch, pow2_rescale, rank, scaled_tol


# The Kochen-Specker set of 18 rays in R^4 that perfbench also runs.
KS18_TEXT = (Path(__file__).resolve().parents[1] / "perfbench" / "ks18.greechie").read_text()

# The paper's two worked frame functions: their forms and closed-form evaluators.
SEVENTHS = np.array([[3.0, 0.0, 0.0], [0.0, 2.0, -2.0], [0.0, -2.0, 2.0]]) / 7.0
TWELFTHS = np.array([[7.0, -3.0, 0.0], [-3.0, 4.0, -1.0], [0.0, -1.0, 1.0]]) / 12.0


def sevenths_function(x):
    return (3.0 * x[0] ** 2 + 2.0 * (x[1] - x[2]) ** 2) / 7.0


def twelfths_function(x):
    return (4.0 * x[0] ** 2 + 3.0 * (x[0] - x[1]) ** 2 + (x[1] - x[2]) ** 2) / 12.0


def random_orthonormal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random orthonormal basis of R^n as rows."""
    while True:
        v = rng.standard_normal((n, n))
        if abs(np.linalg.det(v)) > 1e-3:
            return orthonormalize(v)


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


def random_density(rng: np.random.Generator, n: int) -> DensityOperator:
    """Random mixed state: random eigenbasis with random simplex weights."""
    basis = random_orthonormal(rng, n)
    weights = rng.random(n) + 0.01
    weights /= weights.sum()
    matrix = basis.T @ np.diag(weights) @ basis
    return DensityOperator(SymMatrix((matrix + matrix.T) / 2.0))


def random_symmetric(rng: np.random.Generator, n: int, scale: float = 10.0) -> SymMatrix:
    a = rng.uniform(-scale, scale, size=(n, n))
    return SymMatrix((a + a.T) / 2.0)


def well_conditioned_transform(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random nonsingular matrix with singular values in [0.5, 2]."""
    q1 = random_orthonormal(rng, n)
    q2 = random_orthonormal(rng, n)
    return q1.T @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ q2


def row_tuples(states: np.ndarray) -> list[tuple[int, ...]]:
    """The rows of a two-valued state array as int tuples, as ``brute_force_two_valued`` gives them."""
    return list(map(tuple, states.tolist()))


def brute_force_two_valued(diagram: GreechieDiagram) -> list[tuple[int, ...]]:
    """All 0/1 assignments with exactly one 1 per block, as bit tuples."""
    hits = []
    for bits in itertools.product((0, 1), repeat=len(diagram.atoms)):
        values = dict(zip(diagram.atoms, bits))
        if all(sum(values[a] for a in block) == 1 for block in diagram.blocks):
            hits.append(bits)
    return sorted(hits)


def brute_force_lp_feasible(a: np.ndarray, b: np.ndarray, tol: float = 1e-7) -> bool:
    """Feasibility of {x >= 0, a x = b} by basic-solution enumeration.

    Any feasible system has a basic feasible solution supported on a
    linearly independent column subset of size <= m, so checking every
    such subset is exhaustive. Only usable for small systems.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = a.shape
    if np.linalg.norm(b) <= tol:
        return True
    for k in range(1, min(m, n) + 1):
        for cols in itertools.combinations(range(n), k):
            sub = a[:, cols]
            x, _, rank, _ = np.linalg.lstsq(sub, b, rcond=None)
            if rank < k:
                continue
            if np.linalg.norm(sub @ x - b) <= tol and np.min(x) >= -1e-9:
                return True
    return False


def highs_lp_feasible(a: np.ndarray, b: np.ndarray) -> bool:
    """Feasibility of {x >= 0, a x = b} by scipy's HiGHS solver."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    result = linprog(np.zeros(a.shape[1]), A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert result.status in (0, 2), result.message  # 0 feasible, 2 infeasible
    return result.status == 0


def random_diagram(rng: np.random.Generator) -> GreechieDiagram:
    """Random blocks of one size (2 or 3) drawn until they cover 3..10 atoms."""
    size = int(rng.integers(2, 4))
    atoms = [f"a{i}" for i in range(int(rng.integers(size + 1, 11)))]
    blocks: set[tuple[str, ...]] = set()
    while {a for block in blocks for a in block} != set(atoms):
        blocks.add(tuple(sorted(rng.choice(atoms, size=size, replace=False).tolist())))
    return GreechieDiagram(tuple(atoms), tuple(sorted(blocks)))


def pentagon_b_vectors() -> np.ndarray:
    """The five zero-probability rays of the pentagon, unit-normalized."""
    s5 = math.sqrt(5.0)
    spans = [
        (math.sqrt(s5), -math.sqrt(2.0 + s5), math.sqrt(3.0 - s5)),
        (0.0, math.sqrt(2.0), math.sqrt(s5 - 2.0)),
        (-math.sqrt(s5), -math.sqrt(2.0 + s5), math.sqrt(3.0 - s5)),
        (math.sqrt(5.0 + s5), math.sqrt(3.0 - s5), 2.0 * math.sqrt(s5 - 2.0)),
        (-math.sqrt(5.0 + s5), math.sqrt(3.0 - s5), 2.0 * math.sqrt(s5 - 2.0)),
    ]
    rows = np.array(spans)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def reference_reconstruct_form(oracle: FrameOracle) -> SymMatrix:
    """Polarization with every probe built at the call: basis, mixed pairs, then seeded checks."""
    n = oracle.dim
    basis = np.eye(n)
    diag = [float(oracle.evaluator(basis[i])) for i in range(n)]
    values = list(diag)
    a = np.diag(diag)
    for i in range(n - 1):
        for j in range(i + 1, n):
            mixed = float(oracle.evaluator((basis[i] + basis[j]) / math.sqrt(2.0)))
            a[i, j] = a[j, i] = mixed - (diag[i] + diag[j]) / 2.0
            values.append(mixed)
    form = SymMatrix(a)
    rng = np.random.default_rng(_ORACLE_PROBE_SEED)
    deviations = []
    for _ in range(_ORACLE_PROBE_COUNT):
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        value = float(oracle.evaluator(x))
        values.append(value)
        deviations.append(abs(value - float(x @ form.entries @ x)))
    limit = consistency_limit(values)
    for deviation in deviations:
        if deviation > limit:
            raise NotAFrameFunction(
                "oracle deviates from the reconstructed quadratic form "
                f"by {deviation:.3e} at a probe point"
            )
    return form


def reference_unit_row(v) -> np.ndarray:
    """One vector made unit as each atom's vector once was: exact rescale, one ``v @ v``, divide."""
    v = pow2_rescale(v)[0]
    return v / math.sqrt(v @ v)


def reference_vector_failure(vectors) -> tuple[type, str] | None:
    """Type and message of the first invalid vector, atom by atom, as ``VectorRealization`` raises.

    Within one atom: unconvertible (anything of complex dtype among them), non-finite,
    a dimension other than the first's, then zero.
    """
    dim = 0
    for atom, vec in vectors.items():
        if np.iscomplexobj(vec):
            return TypeError, f"vector for {atom!r} is complex; only real input is supported"
        try:
            v = np.asarray(vec, dtype=float).reshape(-1)
        except (TypeError, ValueError, OverflowError) as exc:
            return type(exc), str(exc)
        if not np.isfinite(v).all():
            return InvalidRealization, f"vector for {atom!r} has non-finite components"
        dim = dim or v.shape[0]
        if v.shape[0] != dim:
            return DimensionMismatch, f"vector for {atom!r} has dimension {v.shape[0]}, expected {dim}"
        if not v.any():
            return InvalidRealization, f"vector for {atom!r} is zero"
    return None


def reference_check_realization(
    diagram: GreechieDiagram, realization: VectorRealization, tol: float
) -> list[Violation]:
    """Block-size and in-block orthogonality violations, block by block, pair by pair."""
    position = {atom: i for i, atom in enumerate(diagram.atoms)}
    vectors = np.array([realization.vectors[a] for a in diagram.atoms])
    gram = np.abs(vectors @ vectors.T)
    violations = []
    for block in diagram.blocks:
        label = ",".join(block)
        if len(block) > realization.dim:
            violations.append(
                Violation(
                    "block-size",
                    label,
                    f"block of size {len(block)} exceeds dimension {realization.dim}",
                    float(len(block) - realization.dim),
                )
            )
        for u, w in itertools.combinations(block, 2):
            dot = float(gram[position[u], position[w]])
            if dot > tol:
                violations.append(
                    Violation(
                        "orthogonality",
                        f"{u},{w}",
                        f"|<{u}|{w}>| = {dot:.3e} in block {label}",
                        dot,
                    )
                )
    return violations


def reference_is_polytope_vertex(
    diagram: GreechieDiagram, assignment: ProbabilityAssignment, tol: float
) -> bool:
    """Block rows stacked over a unit row per atom valued at most ``tol``: full column rank."""
    values = np.array([assignment.values[a] for a in diagram.atoms])
    tight = np.eye(len(values))[values <= tol]
    return rank(np.vstack([reference_incidence(diagram), tight]), tol) == len(values)


def reference_validate_state(
    diagram: GreechieDiagram, assignment: ProbabilityAssignment, tol: float
) -> list[Violation]:
    """Range violations in atom order, then block-sum violations in block order."""
    violations = []
    for atom in diagram.atoms:
        value = assignment.values[atom]
        if not -tol <= value <= 1.0 + tol:
            violations.append(Violation("range", atom, f"value {value!r} outside [0, 1]", value))
    for block in diagram.blocks:
        total = math.fsum(assignment.values[a] for a in block)
        if not abs(total - 1.0) <= tol:
            violations.append(
                Violation(
                    "block-sum",
                    ",".join(block),
                    f"block sums to {total!r} (deficit {total - 1.0:+.3e})",
                    total - 1.0,
                )
            )
    return violations


def reference_reconstructed(decomposition: Decomposition, atoms) -> dict[str, float]:
    """Weight times state value, summed entry by entry for each atom."""
    out = {a: 0.0 for a in atoms}
    for weight, row in decomposition.entries:
        for a, value in zip(atoms, row):
            out[a] += weight * value
    return out


def reference_atom_ids(atoms, blocks, values, vectors) -> tuple:
    """Atoms, blocks, assignment values and realization keys, coerced as each type once did.

    The diagram kept its ids when all were exactly ``str`` and applied ``str`` to
    every one otherwise; assignments applied ``str`` to each key, realizations too.
    """
    atoms, blocks = tuple(atoms), tuple(map(tuple, blocks))
    if not {type(a) for a in itertools.chain(atoms, *blocks)} <= {str}:
        atoms = tuple(map(str, atoms))
        blocks = tuple(tuple(map(str, block)) for block in blocks)
    values = {str(k): float(v) for k, v in values.items()}
    return atoms, blocks, values, tuple(map(str, vectors))


def reference_least_squares(rows, rhs) -> tuple[np.ndarray, bool]:
    """Minimum-norm solution and rank-deficiency flag from ``np.linalg.lstsq`` (LAPACK gelsd)."""
    a = np.atleast_2d(np.asarray(rows, dtype=float))
    b = np.asarray(rhs, dtype=float).reshape(-1)
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    return x, int(rank) < a.shape[1]


def reference_lp_feasible(a, b, tol: float = DEFAULT_TOL) -> np.ndarray | None:
    """Witness x >= 0 with a @ x = b by Lawson-Hanson NNLS, else None; RuntimeError unsettled."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = a.shape
    if b.shape[0] != m:
        raise DimensionMismatch(f"{m} equations but {b.shape[0]} right-hand sides")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("feasibility system has non-finite entries")
    residual_tol = scaled_tol(tol, b)
    scale = np.ldexp(0.5, np.frexp(np.max(np.abs(a), axis=0, initial=0.0))[1])
    a = a / scale  # powers of 2: exact, and no square overflows
    norms = np.maximum(np.linalg.norm(a, axis=0), 0.5)
    floor = residual_tol / norms  # a coefficient at most this adds at most residual_tol
    x = np.zeros(n)
    active = np.zeros(n, dtype=bool)
    for _ in range(3 * n + 1):
        gradient = np.where(active, -np.inf, a.T @ (b - a @ x) / norms)
        if np.max(gradient, initial=-np.inf) <= 0.0:
            break
        entering = int(np.argmax(gradient))
        active[entering] = True
        s = np.zeros(n)
        s[active] = np.linalg.lstsq(a[:, active], b, rcond=None)[0]
        if s[entering] <= floor[entering]:
            break
        while np.any(low := active & (s <= floor)):
            ratio = x[low] / (x[low] - s[low])
            x += ratio.min() * (s - x)
            active[np.flatnonzero(low)[np.argmin(ratio)]] = False
            active &= x > floor
            s = np.zeros(n)
            s[active] = np.linalg.lstsq(a[:, active], b, rcond=None)[0]
        x = s
    else:
        raise RuntimeError("non-negative least squares did not settle in 3n steps")
    if np.max(np.abs(a @ x - b), initial=0.0) <= residual_tol:
        with np.errstate(over="ignore"):
            x = x / scale
        if np.all(np.isfinite(x)):  # else no float witness: undecided
            return x
    else:
        # None only with a Farkas certificate: the residual, projected off the columns x uses.
        y = b - a @ x
        y = y - a[:, x > 0.0] @ np.linalg.lstsq(a[:, x > 0.0], y, rcond=None)[0]
        y, rhs = pow2_rescale(y)[0], pow2_rescale(b)[0]
        slack = m * np.finfo(float).eps * np.sqrt(y @ y)
        if np.all(a.T @ y <= slack * norms) and rhs @ y > slack * np.sqrt(rhs @ rhs):
            return None
    raise RuntimeError("non-negative least squares stopped without a certificate of infeasibility")


def cycling_lstsq():
    """A stand-in for ``np.linalg.lstsq`` under which NNLS on two columns never settles.

    One active column gets 0.25 and two get (-1, 0.5), then (0.5, -1), in turn: the
    older column always goes negative and leaves, so the two columns take turns
    (on ``[[1, 1]] x = [1]`` and on a one-block, two-atom decomposition alike).
    """
    pairs = itertools.cycle(([-1.0, 0.5], [0.5, -1.0]))

    def lstsq(a, b, rcond=None):
        return np.array([0.25] if a.shape[1] == 1 else next(pairs)), None, None, None

    return lstsq


def _reference_jsonable(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_jsonable(v) for v in value]
    return value


def reference_render_structured(report) -> str:
    """A CLI report as JSON: native values, then ``json.dumps(..., indent=2)``."""
    payload = {
        "command": report.command,
        "inputs": _reference_jsonable(report.inputs),
        "verdicts": [
            {"name": name, "value": _reference_jsonable(value)} for name, value in report.verdicts
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _reference_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    return str(value)


def reference_render_text(report) -> str:
    """A CLI report as text: one line per input and verdict, list items indented below."""
    lines = [f"# {report.command}"]
    lines += [f"input {key}: {_reference_scalar(value)}" for key, value in report.inputs.items()]
    for name, value in report.verdicts:
        value = _reference_jsonable(value)
        if isinstance(value, list):
            lines.append(f"{name}:")
            for item in value:
                if isinstance(item, list):
                    lines.append("  " + " ".join(_reference_scalar(v) for v in item))
                elif isinstance(item, dict):
                    pairs = (f"{k}={_reference_scalar(v)}" for k, v in item.items())
                    lines.append("  - " + "  ".join(pairs))
                else:
                    lines.append(f"  - {_reference_scalar(item)}")
        elif isinstance(value, dict):
            pairs = (f"{k}={_reference_scalar(v)}" for k, v in value.items())
            lines.append(f"{name}: " + "  ".join(pairs))
        else:
            lines.append(f"{name}: {_reference_scalar(value)}")
    return "\n".join(lines) + "\n"


def reference_block_pairs(diagram: GreechieDiagram) -> np.ndarray:
    """Rows (first, second, block) of atom positions, block by block, pair by pair."""
    position = {atom: i for i, atom in enumerate(diagram.atoms)}
    pairs = [
        (position[u], position[w], b)
        for b, block in enumerate(diagram.blocks)
        for u, w in itertools.combinations(block, 2)
    ]
    return np.array(pairs, dtype=np.intp).reshape(-1, 3).T


def reference_incidence(diagram: GreechieDiagram) -> np.ndarray:
    """Blocks x atoms, True where the atom lies in the block, set atom by atom."""
    incidence = np.zeros((len(diagram.blocks), len(diagram.atoms)), dtype=bool)
    for b, block in enumerate(diagram.blocks):
        for atom in block:
            incidence[b, diagram.atoms.index(atom)] = True
    return incidence


def reference_spectral_mixture(rho: DensityOperator) -> list[tuple[float, np.ndarray]]:
    """(weight, unit ray) per eigenvalue above 1e-9: first significant component positive,
    sorted by weight, then by ray; each ray divided by its ``np.linalg.norm``."""
    dec = rho.matrix.spectrum
    pairs = []
    for lam, vec in zip(dec.eigenvalues, dec.eigenvectors.T):
        if lam > 1e-9:
            lead = next((c for c in vec if abs(c) > 1e-12), 1.0)
            pairs.append((float(lam), vec.copy() if lead > 0 else -vec))
    pairs.sort(key=lambda p: (-p[0], tuple(p[1])))
    return [(w, v / float(np.linalg.norm(v))) for w, v in pairs]


def measured(vectors, probs, blocks):
    """Diagram, realization and measure with atoms a0, a1, ... in the order given."""
    atoms = tuple(f"a{k}" for k in range(len(vectors)))
    diagram = GreechieDiagram(atoms, tuple(tuple(atoms[k] for k in b) for b in blocks))
    return (
        diagram,
        VectorRealization(dict(zip(atoms, np.asarray(vectors, dtype=float)))),
        ProbabilityAssignment(dict(zip(atoms, map(float, probs)))),
    )


def plane_pairs(angles, dim):
    """Two-atom blocks (cos t, sin t, 0, ...), (-sin t, cos t, 0, ...) per angle t."""
    vectors = np.zeros((2 * len(angles), dim))
    for k, t in enumerate(angles):
        vectors[2 * k, :2] = math.cos(t), math.sin(t)
        vectors[2 * k + 1, :2] = -math.sin(t), math.cos(t)
    return vectors, [(2 * k, 2 * k + 1) for k in range(len(angles))]


def clamp_miss(dim):
    """Inputs whose candidate passes the first two checks and fails the clamped recheck.

    The measure of diag(1 + 7e-9, -7e-9) on seven two-atom blocks in the x-y plane, moved
    by 4e-9 within the first block: the fit stays within 1e-8 of every value, and its
    smallest eigenvalue is above -1e-8, but clamping it moves the first block past 1e-8.
    In R^2 the fit is unique; in R^3 nothing constrains the x-z and y-z entries.
    """
    angles = [1e-3, *np.random.default_rng(0).uniform(0.0, math.pi, 6)]
    vectors, blocks = plane_pairs(angles, dim)
    rho = np.zeros((dim, dim))
    rho[0, 0], rho[1, 1] = 1.0 + 7e-9, -7e-9
    probs = np.einsum("ki,ij,kj->k", vectors, rho, vectors)
    probs[:2] += 4e-9, -4e-9
    return vectors, probs, blocks


def trace_miss(rank_deficient):
    """Inconsistent measures whose least-squares fit misses the unit trace (seed 0).

    Four random two-atom blocks in R^3 pin the form down. Three two-atom blocks in the
    x-y plane plus the standard basis leave the x-z and y-z entries free. Each block
    puts a random p on its first atom and shares 1 - p among the others.
    """
    rng = np.random.default_rng(0)
    if rank_deficient:
        vectors, blocks = plane_pairs(rng.uniform(0.0, math.pi, 3), 3)
        vectors, blocks = np.vstack([vectors, np.eye(3)]), blocks + [(6, 7, 8)]
    else:
        vectors = np.vstack([random_orthonormal(rng, 3)[:2] for _ in range(4)])
        blocks = [(2 * k, 2 * k + 1) for k in range(4)]
    probs = []
    for block, p in zip(blocks, rng.uniform(0.05, 0.95, len(blocks))):
        probs += [p] + [(1.0 - p) / (len(block) - 1)] * (len(block) - 1)
    return vectors, probs, blocks

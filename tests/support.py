"""Shared helpers for the test suite: random generators and brute-force oracles.

The oracles here are intentionally independent of the library paths they
check: exhaustive enumeration for two-valued states and for LP feasibility,
scipy's HiGHS for LPs too large to enumerate (tests using it are skipped
without scipy), and plain numpy arithmetic for expected values. The
``reference_*`` functions are the probe-by-probe and pair-by-pair loops that
the library's cached index arrays replace; results must match them exactly,
except ``reference_reconstructed``, whose sums a matrix product reorders, and
``reference_least_squares``, the SVD-based solve that the library keeps only
for systems its QR path cannot certify.
"""

from __future__ import annotations

import itertools
import math

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
from gleason.greechie import Decomposition, ProbabilityAssignment, VectorRealization, Violation


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
    for weight, state in decomposition.entries:
        for a in atoms:
            out[a] += weight * state.values[a]
    return out


def reference_least_squares(rows, rhs) -> tuple[np.ndarray, bool]:
    """Minimum-norm solution and rank-deficiency flag from ``np.linalg.lstsq`` (LAPACK gelsd)."""
    a = np.atleast_2d(np.asarray(rows, dtype=float))
    b = np.asarray(rhs, dtype=float).reshape(-1)
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    return x, int(rank) < a.shape[1]

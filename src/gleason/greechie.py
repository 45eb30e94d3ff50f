"""Greechie diagrams and their probability measures.

A diagram is a set of atoms plus blocks, each block one complete
measurement context (an orthonormal basis in any vector realization), so a
valid state assigns [0, 1] values summing to exactly 1 per block. The
module enumerates two-valued states, decomposes states into convex sums of
them, tests extremality in the state polytope, verifies vector
realizations, and decides whether a state is reproduced by some density
operator on a given realization. Builders for the Wright pentagon and for
families of disjoint spin-one-half contexts are included, along with a
line-oriented text format.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .density import DensityOperator
from .numerics import (
    DEFAULT_TOL,
    DimensionMismatch,
    SymMatrix,
    content_lines,
    eigh,
    finite_float,
    lp_feasible,
    quad_coeff_row,
    rank,
    solve_least_squares,
    sym_from_packed,
)

#: Residual / PSD tolerance for quantum feasibility; a decade looser than
#: construction tolerances because the decision composes two solves.
FEASIBILITY_TOL = 1e-8

_ZERO_PROB_TOL = 1e-12


class UnknownAtom(ValueError):
    """An atom id that the diagram does not declare (or is not covered)."""


class DuplicateDirection(ValueError):
    """Two measurement directions coincide modulo pi."""


class GreechieFormatError(ValueError):
    """Greechie text input violates the line format."""


class InvalidState(ValueError):
    """Probability assignment violates the state conditions."""


class InvalidRealization(ValueError):
    """Vector realization violates unit-norm or orthogonality conditions."""


@dataclass(frozen=True)
class GreechieDiagram:
    """Atoms plus blocks; every block is one complete orthogonal context."""

    atoms: tuple[str, ...]
    blocks: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        declared = set(self.atoms)
        if len(declared) != len(self.atoms):
            raise ValueError("duplicate atom id")
        covered: set[str] = set()
        for block in self.blocks:
            if len(block) < 2:
                raise ValueError(f"block {block} has fewer than 2 atoms")
            if len(set(block)) != len(block):
                raise ValueError(f"block {block} repeats an atom")
            for atom in block:
                if atom not in declared:
                    raise UnknownAtom(f"block references undeclared atom {atom!r}")
            covered.update(block)
        for atom in self.atoms:
            if atom not in covered:
                raise ValueError(f"atom {atom!r} appears in no block")


@dataclass(frozen=True, eq=False)
class ProbabilityAssignment:
    """Map atom id -> probability in [0, 1] (validity is checked by validate_state)."""

    values: dict[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", {str(k): float(v) for k, v in self.values.items()}
        )


@dataclass(frozen=True, eq=False)
class TwoValuedState:
    """A {0,1} assignment with exactly one 1 per block."""

    values: dict[str, int]

    def bits(self, atoms: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(self.values[a] for a in atoms)

    def as_assignment(self) -> ProbabilityAssignment:
        return ProbabilityAssignment({a: float(v) for a, v in self.values.items()})


@dataclass(frozen=True, eq=False)
class VectorRealization:
    """Finite, nonzero vectors per atom (ray representatives, normalized on construction)."""

    vectors: dict[str, np.ndarray]
    dim: int = 0

    def __post_init__(self) -> None:
        normalized: dict[str, np.ndarray] = {}
        dim = self.dim
        for atom, vec in self.vectors.items():
            v = np.asarray(vec, dtype=float).reshape(-1)
            if not np.all(np.isfinite(v)):
                raise InvalidRealization(f"vector for {atom!r} has non-finite components")
            if dim == 0:
                dim = v.shape[0]
            elif v.shape[0] != dim:
                raise DimensionMismatch(
                    f"vector for {atom!r} has dimension {v.shape[0]}, expected {dim}"
                )
            norm = float(np.linalg.norm(v))
            if norm <= 0.0:
                raise InvalidRealization(f"vector for {atom!r} is zero")
            v = v / norm
            v.flags.writeable = False
            normalized[str(atom)] = v
        object.__setattr__(self, "vectors", normalized)
        object.__setattr__(self, "dim", dim)


@dataclass(frozen=True)
class Violation:
    """One failed validity condition; ``subject`` names the atom, pair, or block."""

    kind: str
    subject: str
    detail: str
    amount: float = 0.0


def _check_coverage(diagram: GreechieDiagram, keys, what: str) -> None:
    declared = set(diagram.atoms)
    for atom in diagram.atoms:
        if atom not in keys:
            raise UnknownAtom(f"{what} misses atom {atom!r}")
    for atom in keys:
        if atom not in declared:
            raise UnknownAtom(f"{what} names undeclared atom {atom!r}")


def validate_state(
    diagram: GreechieDiagram,
    assignment: ProbabilityAssignment,
    tol: float = DEFAULT_TOL,
) -> list[Violation]:
    """All state-condition violations; an empty list means the state is valid.

    Conditions: every value in [0, 1] and every block summing to 1 within
    tolerance. A NaN value fails both conditions.
    """
    _check_coverage(diagram, assignment.values, "assignment")
    violations: list[Violation] = []
    for atom in diagram.atoms:
        value = assignment.values[atom]
        if not -tol <= value <= 1.0 + tol:
            violations.append(
                Violation("range", atom, f"value {value!r} outside [0, 1]", value)
            )
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


def _require_valid_state(diagram: GreechieDiagram, assignment: ProbabilityAssignment) -> None:
    violations = validate_state(diagram, assignment)
    if violations:
        raise InvalidState(
            "; ".join(f"{v.kind} at {v.subject}: {v.detail}" for v in violations)
        )


def enumerate_two_valued_states(diagram: GreechieDiagram) -> list[TwoValuedState]:
    """All {0,1} states, by backtracking block by block.

    Choosing the 1-atom of each block propagates forced zeros through
    shared atoms; the result is returned in lexicographic order of the
    value tuple over the diagram's atom order. The empty list is a
    legitimate outcome (no two-valued state exists).
    """
    assigned: dict[str, int] = {}
    found: list[dict[str, int]] = []

    def walk(index: int) -> None:
        if index == len(diagram.blocks):
            found.append(dict(assigned))
            return
        block = diagram.blocks[index]
        ones = [a for a in block if assigned.get(a) == 1]
        if len(ones) > 1:
            return
        candidates = ones if ones else [a for a in block if a not in assigned]
        for choice in candidates:
            added: list[str] = []
            for atom in block:
                want = 1 if atom == choice else 0
                if atom not in assigned:
                    assigned[atom] = want
                    added.append(atom)
            walk(index + 1)
            for atom in added:
                del assigned[atom]

    walk(0)
    states = [TwoValuedState(values) for values in found]
    states.sort(key=lambda s: s.bits(diagram.atoms))
    return states


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Convex weights over two-valued states reproducing a given state."""

    entries: tuple[tuple[float, TwoValuedState], ...]

    def reconstructed(self, atoms: tuple[str, ...]) -> dict[str, float]:
        out = {a: 0.0 for a in atoms}
        for weight, state in self.entries:
            for a in atoms:
                out[a] += weight * state.values[a]
        return out


def convex_decomposition(
    diagram: GreechieDiagram, assignment: ProbabilityAssignment
) -> Decomposition | None:
    """Express the state as a convex sum of two-valued states, if possible.

    Feasibility of { w >= 0, sum w = 1, sum_s w_s s(atom) = p(atom) } is
    decided by the phase-one simplex; None means no decomposition exists.
    """
    _require_valid_state(diagram, assignment)
    states = enumerate_two_valued_states(diagram)
    if not states:
        return None
    columns = np.array([[s.values[a] for s in states] for a in diagram.atoms], dtype=float)
    rows = np.vstack([columns, np.ones(len(states))])
    rhs = np.array([assignment.values[a] for a in diagram.atoms] + [1.0])
    weights = lp_feasible(rows, rhs)
    if weights is None:
        return None
    entries = tuple(
        (float(w), s) for w, s in zip(weights, states) if w > 1e-12
    )
    return Decomposition(entries)


def is_polytope_vertex(
    diagram: GreechieDiagram,
    assignment: ProbabilityAssignment,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Extreme-point test in the state polytope {q >= 0, block sums = 1}.

    True iff the active constraints (all block equalities plus the tight
    q(atom) = 0 bounds) have full rank over the atoms.
    """
    _require_valid_state(diagram, assignment)
    atoms = diagram.atoms
    blocks = [[float(a in block) for a in atoms] for block in diagram.blocks]
    tight = np.eye(len(atoms))[[assignment.values[a] <= tol for a in atoms]]
    return rank(np.vstack([blocks, tight]), tol) == len(atoms)


def check_realization(
    diagram: GreechieDiagram,
    realization: VectorRealization,
    tol: float = DEFAULT_TOL,
) -> list[Violation]:
    """Violations of the realization conditions; empty list means valid.

    Checks unit norms, pairwise orthogonality inside each block, and that
    no block exceeds the space dimension.
    """
    _check_coverage(diagram, realization.vectors, "realization")
    violations: list[Violation] = []
    for atom in diagram.atoms:
        deviation = abs(float(np.linalg.norm(realization.vectors[atom])) - 1.0)
        if deviation > tol:
            violations.append(
                Violation("norm", atom, f"|v| deviates from 1 by {deviation:.3e}", deviation)
            )
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
            dot = abs(float(realization.vectors[u] @ realization.vectors[w]))
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


def _require_valid_realization(diagram: GreechieDiagram, realization: VectorRealization) -> None:
    violations = check_realization(diagram, realization)
    if violations:
        raise InvalidRealization(
            "; ".join(f"{v.kind} at {v.subject}: {v.detail}" for v in violations)
        )


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Structured reason why no density operator reproduces the state.

    kind is one of:
      * ``kernel-rank`` — the zero-probability atoms span the whole space,
        forcing rho = 0 against tr(rho) = 1; ``kernel_rank`` is that span's
        rank.
      * ``residual`` — the least-squares state cannot meet every
        constraint; ``violations`` lists (subject, target, achieved).
      * ``psd`` — the unique/least-norm solution has ``min_eigenvalue``
        below the -1e-8 allowance.
    """

    kind: str
    kernel_rank: int | None = None
    violations: tuple[tuple[str, float, float], ...] = ()
    min_eigenvalue: float | None = None

    def describe(self) -> str:
        if self.kind == "kernel-rank":
            return (
                f"zero-probability atoms span the full space (rank {self.kernel_rank}); "
                "rho would have to vanish, contradicting unit trace"
            )
        if self.kind == "psd":
            return f"solution is not positive semidefinite (minimum eigenvalue {self.min_eigenvalue:.3e})"
        parts = ", ".join(
            f"{subject}: needs {target:.6g}, best {achieved:.6g}"
            for subject, target, achieved in self.violations
        )
        return f"no symmetric solution meets every constraint ({parts})"


@dataclass(frozen=True, eq=False)
class QuantumFeasibility:
    """Outcome of the density-operator feasibility decision."""

    realizable: bool
    density: DensityOperator | None = None
    certificate: InfeasibilityCertificate | None = None


def quantum_feasibility(
    diagram: GreechieDiagram,
    realization: VectorRealization,
    assignment: ProbabilityAssignment,
) -> QuantumFeasibility:
    """Decide whether some density operator rho gives v^T rho v = p(v) everywhere.

    Zero-probability atoms force rho v = 0 (positive semidefiniteness), so
    rho is restricted to the orthogonal complement of their span; when that
    span already fills the space the state is unrealizable outright, with
    the span rank as certificate. Otherwise the remaining constraints plus
    unit trace are solved by least squares over symmetric matrices and the
    candidate is verified against every constraint (tolerance 1e-8) and
    against positive semidefiniteness (eigenvalue floor -1e-8).
    """
    _require_valid_realization(diagram, realization)
    _require_valid_state(diagram, assignment)
    n = realization.dim
    zero_atoms = [a for a in diagram.atoms if assignment.values[a] <= _ZERO_PROB_TOL]

    if zero_atoms:
        z = np.array([realization.vectors[a] for a in zero_atoms])
        gram = SymMatrix(z.T @ z)
        dec = eigh(gram)
        scale = max(1.0, float(dec.eigenvalues[0]))
        kernel_rank = int(np.sum(dec.eigenvalues > DEFAULT_TOL * scale))
        if kernel_rank == n:
            return QuantumFeasibility(
                realizable=False,
                certificate=InfeasibilityCertificate("kernel-rank", kernel_rank=kernel_rank),
            )
        basis = dec.eigenvectors[:, kernel_rank:]
    else:
        basis = np.eye(n)
    m = basis.shape[1]

    rows, rhs = [], []
    for atom in diagram.atoms:
        p = assignment.values[atom]
        if p > _ZERO_PROB_TOL:
            reduced = basis.T @ realization.vectors[atom]
            rows.append(quad_coeff_row(reduced))
            rhs.append(p)
    rows.append(np.concatenate([np.ones(m), np.zeros(m * (m - 1) // 2)]))
    rhs.append(1.0)
    fit = solve_least_squares(np.array(rows), np.array(rhs))
    sigma = sym_from_packed(fit.solution, m)
    rho = basis @ sigma @ basis.T
    rho = (rho + rho.T) / 2.0

    def constraint_violations(candidate: np.ndarray) -> tuple[tuple[str, float, float], ...]:
        bad = []
        for atom in diagram.atoms:
            v = realization.vectors[atom]
            achieved = float(v @ candidate @ v)
            if abs(achieved - assignment.values[atom]) > FEASIBILITY_TOL:
                bad.append((atom, assignment.values[atom], achieved))
        trace = float(np.trace(candidate))
        if abs(trace - 1.0) > FEASIBILITY_TOL:
            bad.append(("trace", 1.0, trace))
        return tuple(bad)

    violations = constraint_violations(rho)
    if violations:
        return QuantumFeasibility(
            realizable=False,
            certificate=InfeasibilityCertificate("residual", violations=violations),
        )
    spectrum = eigh(SymMatrix(rho))
    min_eigenvalue = float(spectrum.eigenvalues[-1])
    if min_eigenvalue < -FEASIBILITY_TOL:
        return QuantumFeasibility(
            realizable=False,
            certificate=InfeasibilityCertificate("psd", min_eigenvalue=min_eigenvalue),
        )
    # Scrub roundoff negatives and renormalize before handing out a DensityOperator.
    clamped = np.clip(spectrum.eigenvalues, 0.0, None)
    cleaned = spectrum.eigenvectors @ np.diag(clamped) @ spectrum.eigenvectors.T
    cleaned = (cleaned + cleaned.T) / 2.0
    cleaned /= np.trace(cleaned)
    violations = constraint_violations(cleaned)
    if violations:
        return QuantumFeasibility(
            realizable=False,
            certificate=InfeasibilityCertificate("residual", violations=violations),
        )
    return QuantumFeasibility(realizable=True, density=DensityOperator(SymMatrix(cleaned)))


def builtin_wright_pentagon() -> tuple[GreechieDiagram, VectorRealization, ProbabilityAssignment]:
    """The 10-atom, 5-block pentagon with its classic extreme measure.

    Blocks are {a_i, b_i, a_(i+1 mod 5)}; the b_i sit between consecutive
    a-vertices. The stored coordinates are closed-form radicals, normalized
    on load since they are span representatives; the measure puts 1/2 on
    every a_i and 0 on every b_i, so each block sums to 1 exactly.
    """
    s5 = math.sqrt(5.0)
    spans = {
        "a0": (math.sqrt(s5), math.sqrt(2.0 + s5), math.sqrt(3.0 + s5)),
        "b0": (math.sqrt(s5), -math.sqrt(2.0 + s5), math.sqrt(3.0 - s5)),
        "a1": (-math.sqrt(s5), -math.sqrt(s5 - 2.0), math.sqrt(2.0)),
        "b1": (0.0, math.sqrt(2.0), math.sqrt(s5 - 2.0)),
        "a2": (math.sqrt(s5), -math.sqrt(s5 - 2.0), math.sqrt(2.0)),
        "b2": (-math.sqrt(s5), -math.sqrt(2.0 + s5), math.sqrt(3.0 - s5)),
        "a3": (-math.sqrt(s5), math.sqrt(2.0 + s5), math.sqrt(3.0 + s5)),
        "b3": (math.sqrt(5.0 + s5), math.sqrt(3.0 - s5), 2.0 * math.sqrt(s5 - 2.0)),
        "a4": (0.0, -math.sqrt(s5 - 1.0), 1.0),
        "b4": (-math.sqrt(5.0 + s5), math.sqrt(3.0 - s5), 2.0 * math.sqrt(s5 - 2.0)),
    }
    atoms = tuple(f"a{i}" for i in range(5)) + tuple(f"b{i}" for i in range(5))
    blocks = tuple((f"a{i}", f"b{i}", f"a{(i + 1) % 5}") for i in range(5))
    diagram = GreechieDiagram(atoms, blocks)
    realization = VectorRealization({k: np.array(v) for k, v in spans.items()})
    measure = ProbabilityAssignment(
        {f"a{i}": 0.5 for i in range(5)} | {f"b{i}": 0.0 for i in range(5)}
    )
    return diagram, realization, measure


def builtin_spin_half_family(
    n: int, directions
) -> tuple[GreechieDiagram, VectorRealization]:
    """n disjoint two-atom contexts realized by rotated planar bases.

    Measurement direction i contributes atoms ``x{i}-`` and ``x{i}+`` with
    vectors (cos t, sin t) and (-sin t, cos t). Directions must be pairwise
    distinct modulo pi, else the atoms would repeat a ray.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    angles = [float(t) for t in directions]
    if len(angles) != n:
        raise DimensionMismatch(f"expected {n} directions, got {len(angles)}")
    for i in range(n):
        for j in range(i + 1, n):
            separation = (angles[i] - angles[j]) % math.pi
            if min(separation, math.pi - separation) < 1e-12:
                raise DuplicateDirection(
                    f"directions {i + 1} and {j + 1} coincide modulo pi"
                )
    atoms: list[str] = []
    blocks: list[tuple[str, str]] = []
    vectors: dict[str, np.ndarray] = {}
    for i, t in enumerate(angles, 1):
        minus, plus = f"x{i}-", f"x{i}+"
        atoms += [minus, plus]
        blocks.append((minus, plus))
        vectors[minus] = np.array([math.cos(t), math.sin(t)])
        vectors[plus] = np.array([-math.sin(t), math.cos(t)])
    return GreechieDiagram(tuple(atoms), tuple(blocks)), VectorRealization(vectors)


@dataclass(frozen=True, eq=False)
class GreechieFile:
    """Parsed contents of a Greechie text file."""

    diagram: GreechieDiagram
    assignment: ProbabilityAssignment | None
    realization: VectorRealization | None


def parse_greechie_text(text: str) -> GreechieFile:
    """Parse the line-oriented Greechie format.

    Directives: ``atom <id>``, ``block <id> <id> ...``, ``prob <id>
    <decimal>``, ``vec <id> <v1> ... <vn>``; ``#`` starts a comment.
    Rejects non-finite numbers, unknown atoms in block/prob/vec lines,
    duplicate prob or vec entries for one atom, blocks of fewer than 2
    atoms, and inconsistent vector dimensions.
    """
    atoms: list[str] = []
    blocks: list[tuple[str, ...]] = []
    probs: dict[str, float] = {}
    vectors: dict[str, list[float]] = {}
    vec_dim = 0
    declared: set[str] = set()

    for lineno, (keyword, *args) in content_lines(text):
        if keyword == "atom":
            if len(args) != 1:
                raise GreechieFormatError(f"line {lineno}: atom takes exactly one id")
            if args[0] in declared:
                raise GreechieFormatError(f"line {lineno}: duplicate atom {args[0]!r}")
            declared.add(args[0])
            atoms.append(args[0])
        elif keyword == "block":
            if len(args) < 2:
                raise GreechieFormatError(f"line {lineno}: block needs at least 2 atoms")
            for a in args:
                if a not in declared:
                    raise GreechieFormatError(f"line {lineno}: unknown atom {a!r}")
            if len(set(args)) != len(args):
                raise GreechieFormatError(f"line {lineno}: block repeats an atom")
            blocks.append(tuple(args))
        elif keyword == "prob":
            if len(args) != 2:
                raise GreechieFormatError(f"line {lineno}: prob takes an id and a value")
            if args[0] not in declared:
                raise GreechieFormatError(f"line {lineno}: unknown atom {args[0]!r}")
            if args[0] in probs:
                raise GreechieFormatError(f"line {lineno}: duplicate prob for {args[0]!r}")
            try:
                probs[args[0]] = finite_float(args[1])
            except ValueError:
                raise GreechieFormatError(
                    f"line {lineno}: bad probability {args[1]!r}"
                ) from None
        elif keyword == "vec":
            if len(args) < 2:
                raise GreechieFormatError(f"line {lineno}: vec takes an id and components")
            if args[0] not in declared:
                raise GreechieFormatError(f"line {lineno}: unknown atom {args[0]!r}")
            if args[0] in vectors:
                raise GreechieFormatError(f"line {lineno}: duplicate vec for {args[0]!r}")
            try:
                components = [finite_float(c) for c in args[1:]]
            except ValueError as exc:
                raise GreechieFormatError(f"line {lineno}: {exc}") from None
            if vec_dim == 0:
                vec_dim = len(components)
            elif len(components) != vec_dim:
                raise GreechieFormatError(
                    f"line {lineno}: vector has {len(components)} components, "
                    f"earlier vectors have {vec_dim}"
                )
            vectors[args[0]] = components
        else:
            raise GreechieFormatError(f"line {lineno}: unknown directive {keyword!r}")

    diagram = GreechieDiagram(tuple(atoms), tuple(blocks))
    assignment = ProbabilityAssignment(probs) if probs else None
    realization = (
        VectorRealization({k: np.array(v) for k, v in vectors.items()}) if vectors else None
    )
    return GreechieFile(diagram, assignment, realization)

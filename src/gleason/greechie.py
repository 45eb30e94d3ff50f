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
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType

import numpy as np

from .density import DensityOperator
from .numerics import (
    DEFAULT_TOL,
    DimensionMismatch,
    SymMatrix,
    content_lines,
    finite_float,
    lp_feasible,
    packed_index,
    pow2_rescale,
    quad_coeff_row,
    rank,
    scaled_tol,
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
    """Vector realization has a zero or non-finite vector, or violates orthogonality."""


@dataclass(frozen=True)
class GreechieDiagram:
    """Atoms plus blocks; every block is one complete orthogonal context.

    Atom ids and block members are kept as strings, as assignments and
    realizations key them. Construction validates the blocks and keeps each
    block's atom positions; ``incidence`` (the read-only blocks x atoms
    matrix, True where the atom lies in the block) and the in-block pairs
    are built on first use and kept.
    """

    atoms: tuple[str, ...]
    blocks: tuple[tuple[str, ...], ...]
    _position: dict[str, int] = field(init=False, repr=False, compare=False)
    _block_positions: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        atoms = tuple(self.atoms)
        blocks = tuple(map(tuple, self.blocks))
        # Exact type, so that str subclasses such as np.str_ are coerced too.
        if not set(map(type, itertools.chain(atoms, *blocks))) <= {str}:
            atoms = tuple(map(str, atoms))
            blocks = tuple(tuple(map(str, block)) for block in blocks)
        position = dict(zip(atoms, range(len(atoms))))
        if len(position) != len(atoms):
            raise ValueError("duplicate atom id")
        block_positions = []
        for block in blocks:
            if len(block) < 2:
                raise ValueError(f"block {block} has fewer than 2 atoms")
            if len(set(block)) != len(block):
                raise ValueError(f"block {block} repeats an atom")
            try:
                block_positions.append(itemgetter(*block)(position))
            except KeyError as missing:
                raise UnknownAtom(f"block references undeclared atom {missing.args[0]!r}") from None
        if len(set().union(*block_positions)) < len(atoms):
            uncovered = min(set(range(len(atoms))).difference(*block_positions))
            raise ValueError(f"atom {atoms[uncovered]!r} appears in no block")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_position", position)
        object.__setattr__(self, "_block_positions", tuple(block_positions))

    @cached_property
    def incidence(self) -> np.ndarray:
        incidence = np.zeros((len(self.blocks), len(self.atoms)), dtype=bool)
        for b, block in enumerate(self._block_positions):
            incidence[b, block] = True
        incidence.flags.writeable = False
        return incidence

    @cached_property
    def _block_pairs(self) -> np.ndarray:
        """Rows (first, second, block) of atom positions, one column per in-block pair.

        Pairs come block by block, each in ``itertools.combinations`` order.
        """
        pairs = np.array(
            [
                (u, w, b)
                for b, block in enumerate(self._block_positions)
                for u, w in itertools.combinations(block, 2)
            ],
            dtype=np.intp,
        ).reshape(-1, 3).T
        pairs.flags.writeable = False
        return pairs

    def _atom_array(self, by_atom: Mapping, what: str, shape: tuple = ()) -> np.ndarray:
        """The mapping's values in ``atoms`` order, stacked into rows of ``shape``.

        UnknownAtom names the first atom missing, else the first undeclared key.
        """
        try:
            values = [by_atom[atom] for atom in self.atoms]
        except KeyError as missing:
            raise UnknownAtom(f"{what} misses atom {missing.args[0]!r}") from None
        if len(by_atom) != len(values):
            extra = next(atom for atom in by_atom if atom not in self._position)
            raise UnknownAtom(f"{what} names undeclared atom {extra!r}")
        return np.array(values).reshape(len(values), *shape)


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
    """Finite, nonzero rays per atom, as read-only unit vectors after ``pow2_rescale``; dim is derived."""

    vectors: Mapping[str, np.ndarray]
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        normalized: dict[str, np.ndarray] = {}
        dim = 0
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
            v = pow2_rescale(v)[0]
            if not (norm := math.sqrt(v @ v)):
                raise InvalidRealization(f"vector for {atom!r} is zero")
            v = v / norm
            v.flags.writeable = False
            normalized[str(atom)] = v
        object.__setattr__(self, "vectors", MappingProxyType(normalized))
        object.__setattr__(self, "dim", dim)


@dataclass(frozen=True)
class Violation:
    """One failed validity condition; ``subject`` names the atom, pair, or block."""

    kind: str
    subject: str
    detail: str
    amount: float = 0.0


def validate_state(
    diagram: GreechieDiagram,
    assignment: ProbabilityAssignment,
    tol: float = DEFAULT_TOL,
) -> list[Violation]:
    """All state-condition violations; an empty list means the state is valid.

    Conditions: every value in [0, 1] and every block summing to 1 within
    tolerance. A NaN value fails both conditions.
    """
    return _state_violations(diagram, diagram._atom_array(assignment.values, "assignment"), tol)


def _state_violations(diagram: GreechieDiagram, values: np.ndarray, tol: float) -> list[Violation]:
    """``validate_state`` on the assignment's atom-order array."""
    values = values.tolist()
    violations = [
        Violation("range", atom, f"value {value!r} outside [0, 1]", value)
        for atom, value in zip(diagram.atoms, values)
        if not -tol <= value <= 1.0 + tol
    ]
    for block, where in zip(diagram.blocks, diagram._block_positions):
        total = math.fsum(values[i] for i in where)
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


def _require(violations: list[Violation], error: type[ValueError]) -> None:
    if violations:
        raise error("; ".join(f"{v.kind} at {v.subject}: {v.detail}" for v in violations))


def _two_valued_rows(diagram: GreechieDiagram) -> list[tuple[int, ...]]:
    """All {0,1} states as value rows over ``diagram.atoms``, in lexicographic order.

    Backtracks block by block over one row of -1 (unassigned), 0 and 1; choosing a
    block's 1-atom sets its other unassigned atoms to 0, which propagates through
    shared atoms. Every atom lies in some block, so no finished row keeps a -1.
    """
    blocks = diagram._block_positions
    row = [-1] * len(diagram.atoms)
    found: list[tuple[int, ...]] = []

    def walk(index: int) -> None:
        if index == len(blocks):
            found.append(tuple(row))
            return
        block = blocks[index]
        ones = [i for i in block if row[i] == 1]
        if len(ones) > 1:
            return
        free = [i for i in block if row[i] == -1]
        for choice in ones or free:
            for i in free:
                row[i] = int(i == choice)
            walk(index + 1)
            for i in free:
                row[i] = -1

    walk(0)
    return sorted(found)


def enumerate_two_valued_states(diagram: GreechieDiagram) -> list[TwoValuedState]:
    """All {0,1} states, by backtracking block by block.

    The states come in lexicographic order of the value tuple over the
    diagram's atom order, and each state's values follow that order. The
    empty list is a legitimate outcome (no two-valued state exists).
    """
    return [TwoValuedState(dict(zip(diagram.atoms, row))) for row in _two_valued_rows(diagram)]


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Convex weights over two-valued states reproducing a given state."""

    entries: tuple[tuple[float, TwoValuedState], ...]

    def reconstructed(self, atoms: tuple[str, ...]) -> dict[str, float]:
        weights = np.array([w for w, _ in self.entries])
        rows = np.array([s.bits(atoms) for _, s in self.entries]).reshape(len(weights), len(atoms))
        return dict(zip(atoms, (weights @ rows).tolist()))


def convex_decomposition(
    diagram: GreechieDiagram, assignment: ProbabilityAssignment
) -> Decomposition | None:
    """Express the state as a convex sum of two-valued states, if possible.

    Feasibility of { w >= 0, sum w = 1, sum_s w_s s(atom) = p(atom) } is
    decided by ``lp_feasible``; None means no decomposition exists, and
    every entry's weight is above DEFAULT_TOL.
    """
    _require(validate_state(diagram, assignment), InvalidState)
    atoms = diagram.atoms
    states = _two_valued_rows(diagram)
    columns = np.array(states, dtype=float).reshape(len(states), len(atoms)).T
    rows = np.vstack([columns, np.ones(len(states))])
    target = np.append(diagram._atom_array(assignment.values, "assignment"), 1.0)
    weights = lp_feasible(rows, target)
    if weights is None:
        return None
    support = [(float(w), s) for w, s in zip(weights, states) if w]
    return Decomposition(tuple((w, TwoValuedState(dict(zip(atoms, s)))) for w, s in support))


def is_polytope_vertex(
    diagram: GreechieDiagram,
    assignment: ProbabilityAssignment,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Extreme-point test in the state polytope {q >= 0, block sums = 1}.

    True iff the active constraints (all block equalities plus the tight
    q(atom) = 0 bounds) have full rank over the atoms.
    """
    _require(validate_state(diagram, assignment), InvalidState)
    values = diagram._atom_array(assignment.values, "assignment")
    tight = np.eye(len(values))[values <= tol]
    return rank(np.vstack([diagram.incidence, tight]), tol) == len(values)


def check_realization(
    diagram: GreechieDiagram,
    realization: VectorRealization,
    tol: float = DEFAULT_TOL,
) -> list[Violation]:
    """Violations of the realization conditions; empty list means valid.

    Checks pairwise orthogonality inside each block, from one Gram matrix,
    and that no block exceeds the space dimension. Unit norm is not checked:
    ``VectorRealization`` keeps it from construction on.
    """
    vectors = diagram._atom_array(realization.vectors, "realization", (realization.dim,))
    return _realization_violations(diagram, vectors, tol)


def _realization_violations(
    diagram: GreechieDiagram, vectors: np.ndarray, tol: float
) -> list[Violation]:
    """``check_realization`` on the realization's atoms x dim array of unit vectors."""
    dim = vectors.shape[1]
    first, second, block_of = diagram._block_pairs
    dots = np.abs(vectors @ vectors.T)[first, second]
    # (block, -1) for an oversized block sorts before (block, pair) for its pairs.
    failures = [(b, -1) for b, block in enumerate(diagram.blocks) if len(block) > dim]
    failures += [(int(block_of[k]), int(k)) for k in (dots > tol).nonzero()[0]]
    violations: list[Violation] = []
    for b, k in sorted(failures):
        block = diagram.blocks[b]
        label = ",".join(block)
        if k < 0:
            violations.append(
                Violation(
                    "block-size",
                    label,
                    f"block of size {len(block)} exceeds dimension {dim}",
                    float(len(block) - dim),
                )
            )
            continue
        u, w, dot = diagram.atoms[first[k]], diagram.atoms[second[k]], float(dots[k])
        violations.append(
            Violation("orthogonality", f"{u},{w}", f"|<{u}|{w}>| = {dot:.3e} in block {label}", dot)
        )
    return violations


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
    n = realization.dim
    vectors = diagram._atom_array(realization.vectors, "realization", (n,))
    _require(_realization_violations(diagram, vectors, DEFAULT_TOL), InvalidRealization)
    probs = diagram._atom_array(assignment.values, "assignment")
    _require(_state_violations(diagram, probs, DEFAULT_TOL), InvalidState)
    zero = probs <= _ZERO_PROB_TOL

    if zero.any():
        z = vectors[zero]
        dec = SymMatrix(z.T @ z).spectrum
        kernel_rank = int(np.sum(dec.eigenvalues > scaled_tol(DEFAULT_TOL, dec.eigenvalues)))
        if kernel_rank == n:
            return QuantumFeasibility(
                realizable=False,
                certificate=InfeasibilityCertificate("kernel-rank", kernel_rank=kernel_rank),
            )
        basis = dec.eigenvectors[:, kernel_rank:]
        points = vectors[~zero] @ basis
    else:
        basis, points = None, vectors
    m = points.shape[1]

    trace_row = np.equal(*packed_index(m))  # 1 on the packed diagonal
    rows = np.vstack([quad_coeff_row(points), trace_row])
    fit = solve_least_squares(rows, np.append(probs[~zero], 1.0))
    rho = sym_from_packed(fit.solution, m)
    if basis is not None:
        rho = basis @ rho @ basis.T
        rho = (rho + rho.T) / 2.0

    def constraint_violations(candidate: np.ndarray) -> tuple[tuple[str, float, float], ...]:
        achieved = np.einsum("ki,ij,kj->k", vectors, candidate, vectors)
        failing = (np.abs(achieved - probs) > FEASIBILITY_TOL).nonzero()[0]
        found = [(diagram.atoms[k], float(probs[k]), float(achieved[k])) for k in failing]
        trace = candidate.trace()
        if abs(trace - 1.0) > FEASIBILITY_TOL:
            found.append(("trace", 1.0, float(trace)))
        return tuple(found)

    violations = constraint_violations(rho)
    if violations:
        return QuantumFeasibility(
            realizable=False,
            certificate=InfeasibilityCertificate("residual", violations=violations),
        )
    spectrum = SymMatrix(rho).spectrum
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

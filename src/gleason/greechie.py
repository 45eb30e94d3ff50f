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
from pathlib import Path
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
    quad_coeff_row,
    rank,
    real_array,
    scaled_tol,
    solve_least_squares,
    sym_from_packed,
    unit_rows,
)

#: Residual / PSD tolerance for quantum feasibility; a decade looser than
#: construction tolerances because the decision composes two solves.
FEASIBILITY_TOL = 1e-8

_ZERO_PROB_TOL = 1e-12

#: The data files shipped with the package, the pentagon's among them.
FIXTURES = Path(__file__).with_name("fixtures")


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

    The atom id rule, here and for assignment and realization keys: ids
    become ``str``, and two that come out equal raise ValueError. Construction
    validates the blocks and keeps each block's atom positions; ``incidence``
    (the read-only blocks x atoms matrix, True where the atom lies in the
    block) and the in-block pairs are built on first use and kept.
    """

    atoms: tuple[str, ...]
    blocks: tuple[tuple[str, ...], ...]
    _block_positions: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        atoms, blocks = tuple(self.atoms), list(map(tuple, self.blocks))
        atoms = _atom_ids(atoms, "duplicate atom id")
        position = dict(zip(atoms, range(len(atoms))))
        block_positions = []
        for b, block in enumerate(blocks):  # block by block: the first failing one decides
            blocks[b] = block = _atom_ids(block, "block {ids} repeats an atom")
            if len(block) < 2:
                raise ValueError(f"block {block} has fewer than 2 atoms")
            try:
                block_positions.append(itemgetter(*block)(position))
            except KeyError as missing:
                raise UnknownAtom(f"block references undeclared atom {missing.args[0]!r}") from None
        if len(set().union(*block_positions)) < len(atoms):
            uncovered = min(set(range(len(atoms))).difference(*block_positions))
            raise ValueError(f"atom {atoms[uncovered]!r} appears in no block")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "_block_positions", tuple(block_positions))

    @cached_property
    def incidence(self) -> np.ndarray:
        n = len(self.atoms)
        incidence = np.zeros(len(self.blocks) * n, dtype=bool)
        incidence[[b * n + a for b, pos in enumerate(self._block_positions) for a in pos]] = True
        incidence.flags.writeable = False
        return incidence.reshape(len(self.blocks), n)

    @cached_property
    def _block_pairs(self) -> np.ndarray:
        """Rows (first, second, block) of atom positions, one column per in-block pair.

        Pairs come block by block, each in ``itertools.combinations`` order.
        """
        pairs = [
            (u, w, b)
            for b, block in enumerate(self._block_positions)
            for u, w in itertools.combinations(block, 2)
        ]
        flat = np.fromiter(itertools.chain.from_iterable(pairs), np.intp, 3 * len(pairs))
        flat.flags.writeable = False
        return flat.reshape(-1, 3).T

    def _aligned(self, keyed: ProbabilityAssignment | VectorRealization, what: str) -> np.ndarray:
        """``keyed``'s read-only rows in ``atoms`` order: its own array if so keyed, else a gather.

        UnknownAtom names the first atom missing, else the first undeclared key.
        """
        if keyed._atoms == self.atoms:
            return keyed._rows
        position = dict(zip(keyed._atoms, range(len(keyed._atoms))))
        try:
            order = [position[atom] for atom in self.atoms]
        except KeyError as missing:
            raise UnknownAtom(f"{what} misses atom {missing.args[0]!r}") from None
        if len(position) != len(order):
            extra = next(atom for atom in keyed._atoms if atom not in self.atoms)
            raise UnknownAtom(f"{what} names undeclared atom {extra!r}")
        return keyed._rows[order]


def _atom_ids(ids, duplicate: str) -> tuple[str, ...]:
    """``ids`` as ``str``, by the atom id rule; ValueError(``duplicate``) if two come out equal."""
    ids = tuple(map(str, ids))
    if len(set(ids)) < len(ids):
        raise ValueError(duplicate.format(ids=ids, atom=next(a for a in ids if ids.count(a) > 1)))
    return ids


def _keep_keyed(keyed, mapping: str, atoms: tuple[str, ...], rows: np.ndarray, items) -> None:
    """Keep ``rows`` read-only as ``_rows``, ``atoms`` as ``_atoms``, ``mapping`` read-only.

    Construction ends here, and so does unpickling or copying: ``unit_rows`` again could move bits.
    """
    rows.flags.writeable = False
    object.__setattr__(keyed, mapping, MappingProxyType(dict(zip(atoms, items))))
    object.__setattr__(keyed, "_atoms", atoms)
    object.__setattr__(keyed, "_rows", rows)


@dataclass(frozen=True, eq=False)
class ProbabilityAssignment:
    """Read-only map atom id -> float probability, kept as one array in key order too.

    validate_state checks it. Keys become ``str``; ValueError if two name one atom (1, "1").
    """

    values: Mapping[str, float]
    _atoms: tuple[str, ...] = field(init=False, repr=False)
    _rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        values = np.array([float(v) for v in self.values.values()])
        self.__setstate__((_atom_ids(self.values, "assignment names atom {atom!r} twice"), values))

    def __getstate__(self):
        return self._atoms, self._rows

    def __setstate__(self, state) -> None:
        atoms, rows = state
        _keep_keyed(self, "values", atoms, rows, rows.tolist())


@dataclass(frozen=True, eq=False)
class VectorRealization:
    """Finite, nonzero rays per atom, kept as read-only rows of ``unit_rows`` in key order.

    Construction walks the keys in order and the first failing atom decides; within one:
    conversion to float (its own error; TypeError if complex), non-finite, a dimension other
    than the first's, zero. Keys then become ``str``; ValueError if two name one atom.
    """

    vectors: Mapping[str, np.ndarray]
    dim: int = field(init=False)
    _atoms: tuple[str, ...] = field(init=False, repr=False)
    _rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows, dim = [], 0
        for atom, vec in self.vectors.items():
            v = real_array(vec, f"vector for {atom!r}").reshape(-1)
            components = v.tolist()
            if not all(map(math.isfinite, components)):
                raise InvalidRealization(f"vector for {atom!r} has non-finite components")
            dim = dim or len(components)
            if len(components) != dim:
                raise DimensionMismatch(
                    f"vector for {atom!r} has dimension {len(components)}, expected {dim}"
                )
            if not any(components):
                raise InvalidRealization(f"vector for {atom!r} is zero")
            rows.append(v)
        atoms = _atom_ids(self.vectors, "realization names atom {atom!r} twice")
        self.__setstate__((atoms, unit_rows(np.array(rows).reshape(len(rows), dim))))

    def __getstate__(self):
        return self._atoms, self._rows

    def __setstate__(self, state) -> None:
        atoms, rows = state
        _keep_keyed(self, "vectors", atoms, rows, rows)
        object.__setattr__(self, "dim", rows.shape[1])


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
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return _state_violations(diagram, diagram._aligned(assignment, "assignment"), tol)


def _state_violations(diagram: GreechieDiagram, values: np.ndarray, tol: float) -> list[Violation]:
    """``validate_state`` on the assignment's atom-order array."""
    values, high = values.tolist(), 1.0 + tol
    violations = [
        Violation("range", atom, f"value {value!r} outside [0, 1]", value)
        for atom, value in zip(diagram.atoms, values)
        if not -tol <= value <= high
    ]
    for block, where in zip(diagram.blocks, diagram._block_positions):
        total = math.fsum(itemgetter(*where)(values))  # blocks have at least 2 atoms
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


def enumerate_two_valued_states(diagram: GreechieDiagram) -> list[tuple[int, ...]]:
    """All {0,1} states, as tuples of ints 0 and 1 over ``diagram.atoms``, sorted.

    The empty list means that no two-valued state exists. Backtracks block by
    block over one row of -1 (unassigned), 0 and 1; choosing a block's 1-atom
    sets its other unassigned atoms to 0, which propagates through shared
    atoms. Every atom lies in some block, so no finished row keeps a -1.
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
    del walk  # its closure cell refers to it: a cycle holding found until a full collection
    return sorted(found)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Convex weights reproducing a state, as (weight, two-valued row over ``atoms``).

    ``atoms`` is the diagram's atom order, which every row follows.
    """

    entries: tuple[tuple[float, tuple[int, ...]], ...]
    atoms: tuple[str, ...]

    def reconstructed(self, atoms: tuple[str, ...]) -> dict[str, float]:
        """Sum of weight * row per atom; ValueError unless ``atoms`` is ``self.atoms``, in order."""
        if tuple(atoms) != self.atoms:
            raise ValueError(f"atoms must be the decomposition's, in its order: {self.atoms}")
        weights = np.array([w for w, _ in self.entries])
        rows = np.array([s for _, s in self.entries]).reshape(len(weights), len(atoms))
        return dict(zip(atoms, (weights @ rows).tolist()))


def convex_decomposition(
    diagram: GreechieDiagram, assignment: ProbabilityAssignment
) -> Decomposition | None:
    """Express the state as a convex sum of two-valued states, if possible.

    Feasibility of { w >= 0, sum w = 1, sum_s w_s s(atom) = p(atom) } is
    decided by ``lp_feasible``; None means no decomposition exists, and
    every entry's weight is above DEFAULT_TOL.
    """
    values = diagram._aligned(assignment, "assignment")
    _require(_state_violations(diagram, values, DEFAULT_TOL), InvalidState)
    states = enumerate_two_valued_states(diagram)
    columns = np.array(states, dtype=float).reshape(len(states), len(values)).T
    rows = np.vstack([columns, np.ones(len(states))])
    target = np.append(values, 1.0)
    weights = lp_feasible(rows, target)
    if weights is None:
        return None
    entries = tuple((float(w), s) for w, s in zip(weights, states) if w)
    return Decomposition(entries, diagram.atoms)


def is_polytope_vertex(
    diagram: GreechieDiagram,
    assignment: ProbabilityAssignment,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Extreme-point test in the state polytope {q >= 0, block sums = 1}.

    True iff the active constraints (all block equalities plus the tight
    q(atom) = 0 bounds) have full rank over the atoms.
    """
    values = diagram._aligned(assignment, "assignment")
    _require(_state_violations(diagram, values, DEFAULT_TOL), InvalidState)
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
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    return _realization_violations(diagram, diagram._aligned(realization, "realization"), tol)


def _realization_violations(
    diagram: GreechieDiagram, vectors: np.ndarray, tol: float
) -> list[Violation]:
    """``check_realization`` on the realization's atoms x dim array of unit vectors."""
    dim = vectors.shape[1]
    first, second, block_of = diagram._block_pairs
    dots = abs((vectors @ vectors.T)[first, second])
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
    vectors = diagram._aligned(realization, "realization")
    _require(_realization_violations(diagram, vectors, DEFAULT_TOL), InvalidRealization)
    probs = diagram._aligned(assignment, "assignment")
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
        points, targets = vectors[~zero] @ basis, probs[~zero]
    else:
        basis, points, targets = None, vectors, probs
    m = points.shape[1]

    trace_row = np.equal(*packed_index(m))  # 1 on the packed diagonal
    rows = np.concatenate((quad_coeff_row(points), trace_row[None]))
    fit = solve_least_squares(rows, np.concatenate((targets, (1.0,))))
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
    clamped = np.maximum(spectrum.eigenvalues, 0.0)
    cleaned = spectrum.eigenvectors @ np.diag(clamped) @ spectrum.eigenvectors.T
    cleaned = (cleaned + cleaned.T) / 2.0
    cleaned /= cleaned.trace()
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
    a-vertices. Atoms, blocks, coordinates and measure are the parse of the
    bundled ``pentagon.greechie``; the measure puts 1/2 on every a_i and 0 on
    every b_i, so each block sums to 1 exactly.
    """
    parsed = parse_greechie_text((FIXTURES / "pentagon.greechie").read_text(encoding="utf-8"))
    return parsed.diagram, parsed.realization, parsed.assignment


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
    for i, j in itertools.combinations(range(n), 2):
        separation = (angles[i] - angles[j]) % math.pi
        if min(separation, math.pi - separation) < 1e-12:
            raise DuplicateDirection(f"directions {i + 1} and {j + 1} coincide modulo pi")
    blocks: list[tuple[str, str]] = []
    vectors: dict[str, tuple[float, float]] = {}
    for i, t in enumerate(angles, 1):
        minus, plus = f"x{i}-", f"x{i}+"
        blocks.append((minus, plus))
        vectors[minus], vectors[plus] = (math.cos(t), math.sin(t)), (-math.sin(t), math.cos(t))
    return GreechieDiagram(tuple(vectors), tuple(blocks)), VectorRealization(vectors)


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
    atoms: dict[str, None] = {}  # declared atoms, in order
    blocks: list[tuple[str, ...]] = []
    probs: dict[str, float] = {}
    vectors: dict[str, list[float]] = {}
    vec_dim = 0

    for lineno, (keyword, *args) in content_lines(text):
        if keyword == "atom":
            if len(args) != 1:
                raise GreechieFormatError(f"line {lineno}: atom takes exactly one id")
            if args[0] in atoms:
                raise GreechieFormatError(f"line {lineno}: duplicate atom {args[0]!r}")
            atoms[args[0]] = None
        elif keyword == "block":
            if len(args) < 2:
                raise GreechieFormatError(f"line {lineno}: block needs at least 2 atoms")
            for a in args:
                if a not in atoms:
                    raise GreechieFormatError(f"line {lineno}: unknown atom {a!r}")
            if len(set(args)) != len(args):
                raise GreechieFormatError(f"line {lineno}: block repeats an atom")
            blocks.append(tuple(args))
        elif keyword == "prob":
            if len(args) != 2:
                raise GreechieFormatError(f"line {lineno}: prob takes an id and a value")
            if args[0] not in atoms:
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
            if args[0] not in atoms:
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
    realization = VectorRealization(vectors) if vectors else None
    return GreechieFile(diagram, assignment, realization)

"""Density operators on real Hilbert spaces.

Pure states, convex mixtures, Born-rule probabilities, purity diagnostics,
and spectral decomposition back into a mixture of pure states. Positive
semidefiniteness (not strict definiteness) is the enforced invariant, since
rank-deficient states such as pure-state projectors are legitimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import DEFAULT_TOL, DimensionMismatch, SymMatrix, orthonormalize, real_array

_NORM_SLACK = 1e-6


class NotNormalized(ValueError):
    """State vector norm deviates from 1 by more than the admitted slack."""


class BadWeights(ValueError):
    """Mixture weights are negative or do not sum to 1."""


class TraceNotOne(ValueError):
    """Matrix trace differs from 1 beyond tolerance."""


class NotPositiveSemidefinite(ValueError):
    """Matrix has an eigenvalue below the -1e-9 roundoff allowance."""


class NotAProjector(ValueError):
    """Matrix is not idempotent with eigenvalues in {0, 1}."""


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit vector representing a pure state; renormalized on construction.

    Norm deviations up to 1e-6 are absorbed silently; anything larger is a
    caller bug and raises NotNormalized.
    """

    components: np.ndarray

    def __post_init__(self) -> None:
        x = real_array(self.components, "state vector").ravel()
        if x.shape[0] < 1:
            raise DimensionMismatch("state vector must have dimension >= 1")
        norm = math.hypot(*x.tolist())  # never overflows, so an oversize x is refused, not warned on
        if not abs(norm - 1.0) <= _NORM_SLACK:
            raise NotNormalized(f"vector norm {norm:.6g} is not within 1e-6 of 1")
        x = x / math.sqrt(x.dot(x))  # np.linalg.norm's dot on contiguous x: the same bits
        x.flags.writeable = False
        object.__setattr__(self, "components", x)

    @property
    def dim(self) -> int:
        return self.components.shape[0]


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Symmetric, positive-semidefinite, unit-trace matrix.

    Eigenvalues in [-1e-9, 0) are treated as roundoff zeros; anything below
    -1e-9 rejects construction.
    """

    matrix: SymMatrix

    def __post_init__(self) -> None:
        tr = self.matrix.trace()
        if abs(tr - 1.0) > DEFAULT_TOL:
            raise TraceNotOne(f"trace is {tr!r}, not 1")
        smallest = float(self.matrix.spectrum.eigenvalues[-1])
        if smallest < -DEFAULT_TOL:
            raise NotPositiveSemidefinite(
                f"not positive semidefinite (minimum eigenvalue {smallest:.3e})"
            )

    @property
    def dim(self) -> int:
        return self.matrix.dim


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector: idempotent with eigenvalues in {0, 1}."""

    matrix: SymMatrix

    def __post_init__(self) -> None:
        e = self.matrix.entries
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails the test below
            square = e @ e
        if not float(np.max(np.abs(square - e))) <= DEFAULT_TOL:
            raise NotAProjector("matrix is not idempotent")
        w = self.matrix.spectrum.eigenvalues
        if float(np.max(np.minimum(np.abs(w), np.abs(w - 1.0)))) > DEFAULT_TOL:
            raise NotAProjector("eigenvalues are not all in {0, 1}")

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def rank_hint(self) -> int:
        return int(round(self.matrix.trace()))

    @classmethod
    def onto(cls, vectors) -> "Projector":
        """Projector onto the span of the given (independent) vectors."""
        q = orthonormalize(np.atleast_2d(np.asarray(vectors, dtype=float)))
        return cls(SymMatrix(q.T @ q))


def pure_state(x: StateVector) -> DensityOperator:
    """Rank-1 projector x x^T of a unit vector."""
    v = x.components
    return DensityOperator(SymMatrix(np.outer(v, v)))


def mix(components: Sequence[tuple[float, DensityOperator]]) -> DensityOperator:
    """Convex combination sum_i p_i rho_i of density operators."""
    if not components:
        raise BadWeights("mixture needs at least one component")
    weights = [float(w) for w, _ in components]
    negative = [w for w in weights if w < -1e-12]
    if negative:
        raise BadWeights(f"negative weight {min(negative)!r}")
    total = sum(weights)
    if not abs(total - 1.0) <= DEFAULT_TOL:
        raise BadWeights(f"weights sum to {total!r}, not 1")
    dims = {rho.dim for _, rho in components}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixture components have dimensions {sorted(dims)}")
    acc = sum(w * rho.matrix.entries for w, rho in components)
    return DensityOperator(SymMatrix(acc))


def born_probability(rho: DensityOperator, e: Projector) -> float:
    """Probability tr(rho E) of the proposition E in state rho, in [0, 1]."""
    if rho.dim != e.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != projector dim {e.dim}")
    value = float(np.sum(rho.matrix.entries * e.matrix.entries))
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class PurityReport:
    is_pure: bool
    tr_rho_sq: float


def purity(rho: DensityOperator) -> PurityReport:
    """Idempotence test: rho^2 = rho and tr(rho^2) = 1 hold only for pure states."""
    m = rho.matrix.entries
    sq = m @ m
    return PurityReport(
        is_pure=float(np.max(np.abs(sq - m))) <= DEFAULT_TOL,
        tr_rho_sq=float(np.trace(sq)),
    )


def spectral_mixture(rho: DensityOperator) -> list[tuple[float, StateVector]]:
    """Decompose into an orthogonal mixture of pure states.

    Returns the eigenpairs with weight above 1e-9, ordered by descending
    weight with lexicographic eigenvector tie-breaking. Eigenvector signs
    are fixed so the first significant component is positive; for degenerate
    weights any orthonormal eigenbasis is legitimate, so compare
    reconstructed matrices rather than vector lists.
    """
    dec = rho.matrix.spectrum
    pairs = []
    for lam, vec in zip(dec.eigenvalues.tolist(), dec.eigenvectors.T):
        if lam > DEFAULT_TOL:
            for c in vec.tolist():  # a unit vector has a component above 1e-12
                if abs(c) > 1e-12:
                    break
            pairs.append((lam, vec.copy() if c > 0 else -vec))  # its first one made positive
    pairs.sort(key=lambda p: (-p[0], p[1].tolist()))
    return [(w, StateVector(v)) for w, v in pairs]

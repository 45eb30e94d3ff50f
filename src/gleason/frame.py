"""Frame functions as quadratic forms.

A frame function is carried by a symmetric coefficient matrix A through
f(x) = x^T A x; its weight is tr(A), the common value of sum_i f(e_i) over
every orthonormal basis. Quantum frame functions (weight 1, positive
semidefinite A) correspond one-to-one with density operators; the general
case is still representable here and classified by its inertia signature.

Reconstruction of A from a black-box evaluator uses the polarization
identity, which solves the defining linear system in closed form with the
minimal probe set: n basis vectors plus the n(n-1)/2 mixed probes
(e_i + e_j)/sqrt(2), checked on ten seeded probes. These points are built
once per dimension, and the evaluator gets read-only rows of that plan, so
an evaluator that writes to its argument raises. Least squares handles
noisy or overdetermined probe tables instead. Both judge consistency with a
quadratic form by one limit, :func:`consistency_limit`, relative to the
largest value given, so a form is judged alike at every scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable

import numpy as np

from .density import DensityOperator, NotPositiveSemidefinite, TraceNotOne
from .numerics import (
    DEFAULT_TOL,
    DimensionMismatch,
    SymMatrix,
    fit_form,
    packed_index,
    pow2_rescale,
    quadratic_values,
    scaled_tol,
    sym_from_packed,
    unit_rows,
)

_ORACLE_PROBE_COUNT = 10
_ORACLE_PROBE_SEED = 0x5EED


class NotUnit(ValueError):
    """Evaluation point is not a unit vector."""


class NotPositive(ValueError):
    """Form has negative squares, so it admits no probabilistic reading."""


class NotAFrameFunction(ValueError):
    """Oracle values are inconsistent with any quadratic form."""


class NotQuantum(ValueError):
    """Reconstructed form is a valid quadratic form but not a density operator.

    Carries the form and diagnostics so callers can still classify it.
    """

    def __init__(self, message: str, form: SymMatrix, trace: float, min_eigenvalue: float):
        super().__init__(message)
        self.form = form
        self.trace = trace
        self.min_eigenvalue = min_eigenvalue


@dataclass(frozen=True, eq=False)
class FrameFunction:
    """Quadratic form f(x) = x^T form x on unit vectors."""

    form: SymMatrix

    @property
    def dim(self) -> int:
        return self.form.dim

    @property
    def weight(self) -> float:
        return self.form.trace()

    @cached_property
    def _scaled_form(self) -> tuple[np.ndarray, float]:
        """:func:`pow2_rescale` of A for :func:`evaluate`: exact, so x^T A x overflows only past the float range."""
        return pow2_rescale(self.form.entries)


@dataclass(frozen=True)
class Signature:
    """Counts of positive, negative, and zero eigenvalues (inertia)."""

    positive: int
    negative: int
    zero: int


@dataclass(frozen=True, eq=False)
class FrameOracle:
    """Black-box ray function: evaluator(x) for unit x, with evaluator(x) = evaluator(-x).

    :func:`reconstruct_form` passes read-only rows of a probe plan kept per
    dimension; the evaluator must not write to x.
    """

    evaluator: Callable[[np.ndarray], float]
    dim: int

    @classmethod
    def from_frame_function(cls, f: FrameFunction) -> "FrameOracle":
        return cls(evaluator=partial(evaluate, f), dim=f.dim)


def evaluate(f: FrameFunction, x) -> float:
    """f(x) = x^T A x for a unit vector x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    a, s = f._scaled_form
    if len(x) != len(a):
        raise DimensionMismatch(f"point has dimension {len(x)}, form has {f.dim}")
    norm = math.hypot(*x.tolist())  # never overflows, so an oversize x is refused, not warned on
    if not abs(norm - 1.0) <= DEFAULT_TOL:
        raise NotUnit(f"|x| = {norm:.12g} is not 1")
    return float(x.dot(a).dot(x)) * s  # x @ a @ x bit for bit, with less dispatch


def from_density(rho: DensityOperator) -> FrameFunction:
    """The frame function x -> tr(rho E_x) = <rho x|x> of a state."""
    return FrameFunction(rho.matrix)


def consistency_limit(values) -> float:
    """Largest deviation from a quadratic form consistent with ``values``.

    :func:`~gleason.numerics.scaled_tol` at 1e-7, loose enough for
    float-backed evaluators.
    """
    return scaled_tol(1e-7, values)


@cache
def _probe_plan(n: int) -> np.ndarray:
    """Every point :func:`reconstruct_form` evaluates at dimension n, as read-only rows.

    The n basis vectors, the mixed probes (e_i + e_j)/sqrt 2 in
    :func:`~gleason.numerics.packed_index` order, then the ten seeded check
    probes. Kept per n: the seeded generator alone costs more than the
    products it feeds.
    """
    basis = np.eye(n)
    i, j = packed_index(n)
    checks = np.random.default_rng(_ORACLE_PROBE_SEED).standard_normal((_ORACLE_PROBE_COUNT, n))
    plan = np.vstack([basis, unit_rows(np.vstack([basis[i[n:]] + basis[j[n:]], checks]))])
    plan.flags.writeable = False
    return plan


def reconstruct_form(oracle: FrameOracle) -> SymMatrix:
    """Coefficient matrix from oracle values, by the polarization identity.

    A_ii = f(e_i) and A_ij = f((e_i + e_j)/sqrt 2) - (f(e_i)/2 + f(e_j)/2).
    Ten seeded random unit probes then check the oracle against this form,
    raising NotAFrameFunction on a deviation above :func:`consistency_limit`
    of every value the oracle gave; a non-finite value raises ValueError.
    The dimension must be at least 2. The evaluator is called once per row
    of the per-n probe plan, in order, and gets that read-only row.
    """
    n = oracle.dim
    if n < 2:
        raise DimensionMismatch("oracle dimension must be at least 2")
    plan = _probe_plan(n)
    values = np.array([float(oracle.evaluator(x)) for x in plan])
    if not np.isfinite(values).all():
        raise ValueError(f"oracle value {values[~np.isfinite(values)][0]} is not finite")
    first_check = len(plan) - _ORACLE_PROBE_COUNT
    i, j = packed_index(n)
    # Halved first; a difference that still overflows is inf, refused by SymMatrix or the
    # limit. SymMatrix does no arithmetic on inf, and einsum is no ufunc: neither warns.
    with np.errstate(over="ignore"):
        mixed = values[n:first_check] - (values[i[n:]] / 2.0 + values[j[n:]] / 2.0)
        form = SymMatrix(sym_from_packed(np.concatenate([values[:n], mixed]), n))
        checks = plan[first_check:]
        predicted = quadratic_values(checks, form.entries)
        deviations = np.abs(values[first_check:] - predicted)
    past = np.flatnonzero(deviations > consistency_limit(values))
    if past.size:
        raise NotAFrameFunction(
            "oracle deviates from the reconstructed quadratic form "
            f"by {deviations[past[0]]:.3e} at a probe point"
        )
    return form


def reconstruct_density(oracle: FrameOracle) -> DensityOperator:
    """Recover the density operator behind a frame-function oracle.

    The form comes from :func:`reconstruct_form`, with its checks. Forms
    failing the unit-trace or positivity checks raise NotQuantum with
    diagnostics attached.
    """
    form = reconstruct_form(oracle)
    try:
        return DensityOperator(form)
    except (TraceNotOne, NotPositiveSemidefinite) as exc:
        raise NotQuantum(
            f"reconstructed form is not a density operator: {exc}",
            form=form,
            trace=form.trace(),
            min_eigenvalue=float(form.spectrum.eigenvalues[-1]),
        ) from exc


@dataclass(frozen=True, eq=False)
class SampledReconstruction:
    """Least-squares fit of a form to probe data, with fit diagnostics."""

    frame_function: FrameFunction
    residual: float
    rank_deficient: bool


def reconstruct_from_samples(probes, values) -> SampledReconstruction:
    """Fit a symmetric form to (probe vector, value) samples.

    Solves min ||f(x_k) - v_k|| over symmetric coefficient matrices; the
    minimum-norm solution is returned when the probe set does not pin the
    form down. The samples are consistent with some quadratic form when the
    residual is at most ``consistency_limit(values)``.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    values = np.asarray(values, dtype=float).reshape(-1)
    if probes.shape[0] != values.shape[0]:
        raise DimensionMismatch(f"{probes.shape[0]} probes but {values.shape[0]} values")
    fit = fit_form(probes, values)
    f = FrameFunction(SymMatrix(fit.solution))
    return SampledReconstruction(f, fit.residual, fit.rank_deficient)


def signature(f: FrameFunction, tol: float = DEFAULT_TOL) -> Signature:
    """Inertia of the form: eigenvalue counts above t, below -t, and between.

    t is ``scaled_tol(tol, eigenvalues)`` and +/-t counts as zero, so the counts keep under
    scaling and under congruence S^T A S with nonsingular S (Sylvester's law of inertia).
    This is :func:`~gleason.numerics.rank`'s rule on the singular values |eigenvalues|.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    w = f.form.spectrum.eigenvalues
    nonzero = w[np.abs(w) > scaled_tol(tol, w)]
    positive = int(np.count_nonzero(nonzero > 0))
    return Signature(positive, len(nonzero) - positive, f.dim - len(nonzero))


def classify(f: FrameFunction, tol: float = DEFAULT_TOL) -> int:
    """Canonical type index of a positive form: its rank P in {0, ..., n}.

    Up to congruence and permutation a positive semidefinite form is
    diag(1, ..., 1, 0, ..., 0) with P ones; for a quantum frame function P
    is the number of pure states in any spectral mixture. Raises NotPositive
    when the form has negative squares.
    """
    sig = signature(f, tol)
    if sig.negative > 0:
        raise NotPositive(
            f"form has {sig.negative} negative square(s); no canonical positive type"
        )
    return sig.positive

"""Dense real symmetric linear algebra and feasibility kernels.

Everything here is float64 and sized for desk-scale problems (dimensions up
to a few dozen). Eigendecomposition, rank, least squares and
orthonormalization delegate to LAPACK through numpy, and so does LP
feasibility, decided by non-negative least squares. Least squares takes one
Householder QR when its R factor is certified to have full column rank
(||R||_F ||R^-1||_F small enough that the SVD would find full rank too), and
falls back to the SVD-based ``lstsq`` for every other system. ``SymMatrix.spectrum``
is the one place a matrix is diagonalized, :func:`scaled_tol` the one rule
for zero at the input's scale, and :func:`pow2_rescale` the one exact
rescaling. The ``dim n`` matrix text format of the command line is here too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

#: Default zero threshold for rank / positivity decisions.
DEFAULT_TOL = 1e-9

_ASYMMETRY_LIMIT = 1e-12


class DimensionMismatch(ValueError):
    """Operands do not have compatible dimensions."""


class LinearlyDependent(ValueError):
    """Input vectors do not form a linearly independent set."""


class MatrixFormatError(ValueError):
    """Matrix text does not follow the ``dim n`` + n-rows layout."""


def scaled_tol(tol: float, values) -> float:
    """``tol * max(1, max |values|)``: absolute within [-1, 1], relative beyond."""
    return tol * max(1.0, float(np.abs(values).max(initial=0.0)))


def pow2_rescale(v) -> tuple[np.ndarray, float]:
    """``(v / s, s)`` for s = 2^floor(log2 max |v|): exact, and (v / s)^2 cannot overflow."""
    v = np.asarray(v, dtype=float)
    s = math.ldexp(1.0, math.frexp(np.abs(v).max(initial=0.0))[1] - 1)
    return v / s, s


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense real symmetric matrix.

    Construction symmetrizes through a/2 + a^T/2 but rejects inputs whose
    asymmetry exceeds 1e-12, so caller bugs surface instead of being
    averaged away. Non-finite entries are rejected too: LAPACK turns them
    into NaN eigenvalues, which pass every ``<`` test. A trace that overflows
    is rejected as well, so ``trace`` is always finite. The entries are
    read-only, so ``spectrum`` is computed on first use and kept.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DimensionMismatch("matrix must have dimension >= 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix has non-finite entries")
        a *= 0.5  # halved first: a - a^T and a + a^T overflow near the float limit
        asym = 2.0 * float(np.max(np.abs(a - a.T)))
        if asym > _ASYMMETRY_LIMIT:
            raise ValueError(f"matrix is not symmetric (max |a - a^T| = {asym:.3e})")
        a = a + a.T
        # Partial sums of the trace stay below 2 n max |a_ii|, so only near
        # the float limit can it overflow; there it is summed without warning.
        if 2.0 * len(a) * max(map(abs, a.diagonal().tolist())) > sys.float_info.max:
            with np.errstate(over="ignore", invalid="ignore"):
                if not math.isfinite(np.trace(a)):
                    raise ValueError("matrix trace overflows float64")
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries))

    @cached_property
    def spectrum(self) -> "EigenDecomposition":
        return eigh(self)


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral decomposition a = V diag(w) V^T.

    ``eigenvalues`` are sorted descending; column i of ``eigenvectors``
    belongs to ``eigenvalues[i]`` and the columns are orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh(a: SymMatrix) -> EigenDecomposition:
    """Diagonalize a symmetric matrix with LAPACK's symmetric eigensolver.

    ``np.linalg.eigh`` returns ascending eigenvalues; they are reversed
    here, together with their eigenvector columns, into descending order.
    """
    w, v = np.linalg.eigh(a.entries)
    eigenvalues, eigenvectors = w[::-1], v[:, ::-1]
    eigenvalues.flags.writeable = False
    eigenvectors.flags.writeable = False
    return EigenDecomposition(eigenvalues, eigenvectors)


def rank(a, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values strictly above ``tol``.

    ``a`` is a SymMatrix (singular values = |eigenvalues|) or a 2-D array.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    m = a.entries if isinstance(a, SymMatrix) else np.atleast_2d(np.asarray(a, dtype=float))
    return int(np.sum(np.linalg.svd(m, compute_uv=False) > tol))


@dataclass(frozen=True, eq=False)
class LeastSquaresSolution:
    """Minimizer of ||rows @ x - rhs||; minimum-norm when rank deficient."""

    solution: np.ndarray
    residual: float
    rank_deficient: bool


def solve_least_squares(rows, rhs) -> LeastSquaresSolution:
    """Least squares by LAPACK; ValueError on non-finite entries, which it cannot scale.

    A tall system (m >= k >= 1) whose QR factor is certified to have full
    column rank (see :func:`_certified_qr_solve`) is solved from one
    Householder QR. Every other system, wide, rank deficient or too close to
    the rank threshold, goes to ``np.linalg.lstsq`` (LAPACK's SVD-based
    ``gelsd``), which gives the minimum-norm solution and decides
    ``rank_deficient``. The residual is ||rows @ x - rhs||, taken after
    :func:`pow2_rescale` so that its squares cannot overflow.
    """
    a = np.atleast_2d(np.asarray(rows, dtype=float))
    b = np.asarray(rhs, dtype=float).reshape(-1)
    m, k = a.shape
    if m == 0:
        raise DimensionMismatch("need at least one row")
    if m != b.shape[0]:
        raise DimensionMismatch(f"{m} rows but {b.shape[0]} right-hand sides")
    ab = np.column_stack([a, b])
    if not np.isfinite(ab).all():
        raise ValueError("least-squares system has non-finite entries")
    x = _certified_qr_solve(ab) if m >= k >= 1 else None
    if x is None:
        x, _, rk, _ = np.linalg.lstsq(a, b, rcond=None)
        rank_deficient = int(rk) < k
    else:
        rank_deficient = False
    r, s = pow2_rescale(a @ x - b)
    residual = math.sqrt(r @ r) * s
    return LeastSquaresSolution(x, residual, rank_deficient)


@cache
def _upper_ones(k: int) -> np.ndarray:
    """Read-only k x k ones on and above the diagonal, kept per k.

    ``np.triu`` builds its mask per call, which costs as much as a small QR.
    """
    mask = np.triu(np.ones((k, k)))
    mask.flags.writeable = False
    return mask


def _certified_qr_solve(ab: np.ndarray) -> np.ndarray | None:
    """x = R^-1 Q^T b from one Householder QR of ab = [a | b], or None unless R is certified.

    Householder QR least squares is backward stable for full-rank problems
    (Golub & Van Loan, Matrix Computations, sec. 5.3). The certificate is
    kappa_F = ||R||_F ||R^-1||_F <= 1e-3 / (eps max(m, k)), taken on R after
    :func:`pow2_rescale` so that no square overflows or underflows. Since
    sigma_max / sigma_min <= kappa_F, it gives sigma_min > 1e3 rcond sigma_max
    for gelsd's rcond = eps max(m, k): ``lstsq`` would find full rank too.
    One LAPACK solve of the scaled R gives both R^-1 Q^T b and R^-1.
    """
    m, k = ab.shape[0], ab.shape[1] - 1
    # LAPACK's geqrf output, transposed: row j holds column j of [R | Q^T b] up to
    # the diagonal, then the Householder vectors, which the mask zeroes.
    h = np.linalg.qr(ab, mode="raw")[0]
    scaled, s = pow2_rescale(h[:k, :k].T * _upper_ones(k))
    rhs = np.eye(k, k + 1, 1)
    rhs[:, 0] = h[k, :k]
    try:
        solved = np.linalg.solve(scaled, rhs)
    except np.linalg.LinAlgError:  # R is exactly singular
        return None
    # A certified R_s^-1 has entries below 1e-3 / eps, so its squares stay in range;
    # past 1e154 they overflow to inf (vdot is no ufunc and does not warn), which fails.
    inverse = solved[:, 1:]
    kappa = math.sqrt(np.vdot(scaled, scaled)) * math.sqrt(np.vdot(inverse, inverse))
    if not kappa * sys.float_info.epsilon * max(m, k) <= 1e-3:
        return None
    x = solved[:, 0]  # s x
    # s is a power of 2, so x / s only shifts exponents; it overflows (with a
    # warning) only where x itself is past the float range, and lstsq decides those.
    if not np.abs(x).max() < sys.float_info.max * min(s, 1.0):
        return None
    return x / s


def lp_feasible(a, b, tol: float = DEFAULT_TOL) -> np.ndarray | None:
    """Decide existence of x >= 0 with a @ x = b.

    Lawson-Hanson non-negative least squares (Solving Least Squares
    Problems, 1974, ch. 23), one LAPACK solve per step. Returns a witness
    with entries exactly 0 or above tol if max |a x - b| <= scaled_tol(tol,
    b), else None; RuntimeError if 3n steps do not settle.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = a.shape
    if b.shape[0] != m:
        raise DimensionMismatch(f"{m} equations but {b.shape[0]} right-hand sides")
    residual_tol = scaled_tol(tol, b)
    norms = np.maximum(np.linalg.norm(a, axis=0), np.finfo(float).tiny)
    x = np.zeros(n)
    active = np.zeros(n, dtype=bool)
    for _ in range(3 * n + 1):
        gradient = np.where(active, -np.inf, a.T @ (b - a @ x) / norms)
        if np.max(gradient, initial=-np.inf) <= residual_tol:
            break
        entering = int(np.argmax(gradient))
        active[entering] = True
        s = np.zeros(n)
        s[active] = np.linalg.lstsq(a[:, active], b, rcond=None)[0]
        if s[entering] <= tol:  # > 0 in exact arithmetic: roundoff has stalled the search
            break
        while np.any(low := active & (s <= tol)):
            # x > tol >= s on low columns: step to the first zero, drop it.
            ratio = x[low] / (x[low] - s[low])
            x += ratio.min() * (s - x)
            active[np.flatnonzero(low)[np.argmin(ratio)]] = False
            active &= x > tol
            s = np.zeros(n)
            s[active] = np.linalg.lstsq(a[:, active], b, rcond=None)[0]
        x = s
    else:
        raise RuntimeError("non-negative least squares did not settle in 3n steps")
    return x if np.max(np.abs(a @ x - b), initial=0.0) <= residual_tol else None


def orthonormalize(vectors, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (rows) for the span of the input, by QR.

    Row i of the result is the unit vector Gram-Schmidt would produce from
    the first i + 1 inputs: each sign is chosen so that diag(R) > 0. Raises
    LinearlyDependent when a squared singular value of the input is at most
    ``scaled_tol(tol, v v^T)``. The Gram matrix is taken of the rows after
    :func:`pow2_rescale`, so the threshold stays finite where v v^T would
    overflow and is exact where it would not.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    k, n = v.shape
    if k > n:
        raise LinearlyDependent(f"{k} vectors cannot be independent in dimension {n}")
    scaled, s = pow2_rescale(v)
    gram_max = float(np.abs(scaled @ scaled.T).max())  # max |v v^T| / s^2, exactly
    # sqrt(tol * max(1, gram_max * s^2)); s is a power of 2, so sqrt(s^2) = s exactly.
    threshold = math.sqrt(tol * gram_max) * s if gram_max * s * s > 1.0 else math.sqrt(tol)
    if rank(v, threshold) < k:
        raise LinearlyDependent("input vectors are linearly dependent")
    q, r = np.linalg.qr(v.T)
    return (q * np.sign(np.diag(r))).T


@cache
def packed_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each packed entry: the diagonal, then i < j lexicographically.

    Kept per n and read-only: ``triu_indices`` costs more than the products it indexes.
    """
    rows, cols = np.triu_indices(n, 1)
    diag = np.arange(n)
    index = np.concatenate([diag, rows]), np.concatenate([diag, cols])
    for a in index:
        a.flags.writeable = False
    return index


def quad_coeff_row(x) -> np.ndarray:
    """Linear-system row for a quadratic form with unknown upper triangle.

    Unknown order: the n diagonal entries, then the off-diagonal entries
    (i, j) with i < j in lexicographic order. The row satisfies
    row @ packed(A) == x^T A x for symmetric A. A k x n stack of points
    gives the k x n(n+1)/2 stack of their rows.
    """
    x = np.asarray(x, dtype=float)
    i, j = packed_index(x.shape[-1])
    # C order, as for rows stacked one by one, so that products round alike.
    row = np.multiply(x[..., i], x[..., j], order="C")
    row[..., x.shape[-1] :] *= 2.0
    return row


def sym_from_packed(values, n: int) -> np.ndarray:
    """Inverse of the packing used by :func:`quad_coeff_row`."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.shape[0] != n * (n + 1) // 2:
        raise DimensionMismatch(
            f"expected {n * (n + 1) // 2} packed entries, got {values.shape[0]}"
        )
    i, j = packed_index(n)
    a = np.zeros((n, n))
    a[i, j] = a[j, i] = values
    return a


def finite_float(token: str) -> float:
    """``float(token)``, raising ValueError for nan and infinities too."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token!r}")
    return value


def content_lines(text: str):
    """Yield ``(line number, tokens)`` for each line with content.

    ``#`` starts a comment; lines blank after it are skipped. Line numbers
    count every line of ``text``, from 1, so messages can name file lines.
    """
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse the shared matrix format: ``dim n`` then n rows of n decimals.

    Blank lines and ``#`` comments are skipped; scientific notation is
    accepted, nan and infinities are not. Decimal points only, independent
    of locale.
    """
    lines = list(content_lines(text))
    if not lines:
        raise MatrixFormatError("empty matrix input")
    head = lines[0][1]
    if len(head) != 2 or head[0] != "dim":
        raise MatrixFormatError("first line must be 'dim n'")
    try:
        n = int(head[1])
    except ValueError:
        raise MatrixFormatError(f"bad dimension {head[1]!r}") from None
    if n < 1:
        raise MatrixFormatError("dimension must be >= 1")
    if len(lines) - 1 != n:
        raise MatrixFormatError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for lineno, parts in lines[1:]:
        if len(parts) != n:
            raise MatrixFormatError(
                f"line {lineno}: expected {n} entries, found {len(parts)}"
            )
        try:
            rows.append([finite_float(p) for p in parts])
        except ValueError as exc:
            raise MatrixFormatError(f"line {lineno}: {exc}") from None
    return np.array(rows)


def format_matrix_text(a) -> str:
    """Write a square matrix in the shared text format (full precision)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    lines = [f"dim {a.shape[0]}"]
    for row in a:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"

"""Dense real symmetric linear algebra and feasibility kernels.

Everything here is float64 and sized for desk-scale problems (dimensions up
to a few dozen). Eigendecomposition, rank, least squares and
orthonormalization delegate to LAPACK through numpy; a phase-one simplex
decides LP feasibility. The shared ``dim n`` matrix text format used by the
command line lives here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense real symmetric matrix.

    Construction symmetrizes through (a + a^T)/2 but rejects inputs whose
    asymmetry exceeds 1e-12, so caller bugs surface instead of being
    averaged away. Non-finite entries are rejected too: LAPACK turns them
    into NaN eigenvalues, which pass every ``<`` test.
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
        asym = float(np.max(np.abs(a - a.T)))
        if asym > _ASYMMETRY_LIMIT:
            raise ValueError(f"matrix is not symmetric (max |a - a^T| = {asym:.3e})")
        a = (a + a.T) / 2.0
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries))

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls(np.eye(n))

    @classmethod
    def zeros(cls, n: int) -> "SymMatrix":
        return cls(np.zeros((n, n)))

    @classmethod
    def diagonal(cls, values) -> "SymMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))


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
    if tol <= 0.0:
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
    a = np.atleast_2d(np.asarray(rows, dtype=float))
    b = np.asarray(rhs, dtype=float).reshape(-1)
    if a.shape[0] == 0:
        raise DimensionMismatch("need at least one row")
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(
            f"{a.shape[0]} rows but {b.shape[0]} right-hand sides"
        )
    x, _, rk, _ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.linalg.norm(a @ x - b))
    return LeastSquaresSolution(x, residual, rank_deficient=int(rk) < a.shape[1])


def lp_feasible(a, b, tol: float = DEFAULT_TOL) -> np.ndarray | None:
    """Decide existence of x >= 0 with a @ x = b.

    Phase-one simplex with Bland's anti-cycling rule, float64 throughout.
    Returns a witness point when feasible, None otherwise.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = a.shape
    if b.shape[0] != m:
        raise DimensionMismatch(f"{m} equations but {b.shape[0]} right-hand sides")
    if n == 0:
        return np.zeros(0) if np.all(np.abs(b) <= tol) else None

    # Canonical tableau with one artificial variable per row; minimize their sum.
    flip = b < 0.0
    t = np.hstack([np.where(flip[:, None], -a, a), np.eye(m)])
    rhs = np.where(flip, -b, b)
    basis = list(range(n, n + m))
    cost = np.concatenate([np.zeros(n), np.ones(m)])

    # Bland's rule prevents cycling; the cap only guards against float-tie
    # pathologies and is far above anything desk-scale problems need.
    for _ in range(5000):
        reduced = cost - cost[basis] @ t
        entering = -1
        for j in range(n + m):
            if reduced[j] < -tol:
                entering = j
                break
        if entering < 0:
            break
        leaving, best, best_var = -1, math.inf, math.inf
        for i in range(m):
            coef = t[i, entering]
            if coef > tol:
                ratio = rhs[i] / coef
                if ratio < best - tol or (abs(ratio - best) <= tol and basis[i] < best_var):
                    leaving, best, best_var = i, ratio, basis[i]
        if leaving < 0:
            # Unbounded cannot happen in phase one; defensive stop.
            return None
        pivot = t[leaving, entering]
        t[leaving] /= pivot
        rhs[leaving] /= pivot
        for i in range(m):
            if i != leaving and t[i, entering] != 0.0:
                factor = t[i, entering]
                t[i] -= factor * t[leaving]
                rhs[i] -= factor * rhs[leaving]
        basis[leaving] = entering
    else:
        raise RuntimeError("phase-one simplex failed to terminate")

    infeasibility = sum(rhs[i] for i in range(m) if basis[i] >= n)
    if infeasibility > tol:
        return None
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = max(rhs[i], 0.0)
    return x


def orthonormalize(vectors, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (rows) for the span of the input, by QR.

    Row i of the result is the unit vector Gram-Schmidt would produce from
    the first i + 1 inputs: each sign is chosen so that diag(R) > 0. Raises
    LinearlyDependent when a squared singular value of the input is at most
    ``tol * max(1, max |v v^T|)``.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    k, n = v.shape
    if k > n:
        raise LinearlyDependent(f"{k} vectors cannot be independent in dimension {n}")
    scale = max(1.0, float(np.max(np.abs(v @ v.T))))
    if rank(v, math.sqrt(tol * scale)) < k:
        raise LinearlyDependent("input vectors are linearly dependent")
    q, r = np.linalg.qr(v.T)
    return (q * np.sign(np.diag(r))).T


def _packed_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each packed entry: the diagonal, then i < j lexicographically."""
    rows, cols = np.triu_indices(n, 1)
    diag = np.arange(n)
    return np.concatenate([diag, rows]), np.concatenate([diag, cols])


def quad_coeff_row(x) -> np.ndarray:
    """Linear-system row for a quadratic form with unknown upper triangle.

    Unknown order: the n diagonal entries, then the off-diagonal entries
    (i, j) with i < j in lexicographic order. The row satisfies
    row @ packed(A) == x^T A x for symmetric A.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    i, j = _packed_index(x.shape[0])
    row = x[i] * x[j]
    row[x.shape[0] :] *= 2.0
    return row


def sym_from_packed(values, n: int) -> np.ndarray:
    """Inverse of the packing used by :func:`quad_coeff_row`."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.shape[0] != n * (n + 1) // 2:
        raise DimensionMismatch(
            f"expected {n * (n + 1) // 2} packed entries, got {values.shape[0]}"
        )
    i, j = _packed_index(n)
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

"""Dense real symmetric linear algebra and feasibility kernels.

Everything here is float64 and sized for desk-scale problems (dimensions up to a few
dozen). Eigendecomposition, rank, least squares and orthonormalization delegate to
LAPACK through numpy, and so does LP feasibility, decided by non-negative least squares.
Least squares solves A X = B, for one right-hand side or several, from one Householder
QR of [A | B] when its R factor is certified to have full column rank (||R||_F ||R^-1||_F
small enough that the SVD would find full rank too), and with the SVD-based ``lstsq``
for every other system. ``SymMatrix.spectrum`` is the one place a matrix is
diagonalized (a SymMatrix's :func:`rank` reads it too),
:func:`scaled_tol` the one rule for zero at the input's scale (past the float range too;
:func:`rank`, :func:`orthonormalize` and :func:`lp_feasible`'s coefficients decide
through it), :func:`pow2_rescale` the one exact rescaling, :func:`unit_rows` the one way
rows are normalised, :func:`real_array` the one gate that refuses complex input,
:func:`fit_form` the one-shot fit of a symmetric form (:func:`fit_operator` the same fit
with unit trace as a linear map of the values, read-only), :func:`quadratic_values` its batch
evaluation for checks (``frame.evaluate`` is the API's evaluator at one unit point, on
the rescaled form); the ``dim n`` text format is here too.
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
    """``tol * max(1, max |values|)``: absolute within [-1, 1], relative beyond.

    The peak is capped at the largest float, so an overflowed value (inf) clears the
    threshold and the others are judged against ``sys.float_info.max``.
    """
    return tol * min(max(1.0, float(np.abs(values).max(initial=0.0))), sys.float_info.max)


def real_array(a, what: str) -> np.ndarray:
    """``np.asarray(a, dtype=float)``, but TypeError for input of complex dtype.

    The cast would drop the imaginary part, also of numpy complex scalars in a list, so
    anything but an array is first probed with a dtype-less ``np.asarray``.
    The message names ``a`` as ``what``.
    """
    if (a if isinstance(a, np.ndarray) else np.asarray(a)).dtype.kind == "c":
        raise TypeError(f"{what} is complex; only real input is supported")
    return np.asarray(a, dtype=float)


def _pow2_floor(peak):
    """2^floor(log2 peak), entrywise (0.5 where peak is 0): dividing by it is exact."""
    return np.ldexp(0.5, np.frexp(peak)[1])


def pow2_rescale(v) -> tuple[np.ndarray, float]:
    """``(v / s, s)`` for s = 2^floor(log2 max |v|): exact, and (v / s)^2 cannot overflow.

    ``s`` is :func:`_pow2_floor` of the peak, taken with ``math`` on one float.
    """
    v = np.asarray(v, dtype=float)
    s = math.ldexp(0.5, math.frexp(np.abs(v).max(initial=0.0))[1])
    return v / s, s


def unit_rows(m) -> np.ndarray:
    """Each row of a finite k x n array with no zero row, divided by its 2-norm.

    Bit for bit :func:`pow2_rescale`, then ``v / math.sqrt(v @ v)``, per row: the
    stacked 1 x n @ n x 1 products keep one BLAS ``ddot`` per row, as ``einsum`` does not.
    """
    m = np.asarray(m, dtype=float)
    u = m / _pow2_floor(np.abs(m).max(axis=1, initial=0.0))[:, None]
    return u / np.sqrt(u[:, None, :] @ u[:, :, None])[:, 0]


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense real symmetric matrix.

    Construction symmetrizes through a/2 + a^T/2 but rejects inputs whose
    asymmetry exceeds ``scaled_tol(1e-12, a)``, so caller bugs surface instead of
    being averaged away. Complex entries are rejected (:func:`real_array`), and so are
    non-finite ones: LAPACK turns them into NaN eigenvalues, which pass every ``<``
    test. A trace that overflows is rejected as well, so ``trace`` is always finite.
    The entries are read-only, so ``spectrum`` is computed on first use and kept.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = real_array(self.entries, "matrix")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DimensionMismatch("matrix must have dimension >= 1")
        peak = float(abs(a).max())  # NaN or inf exactly when some entry is
        if not math.isfinite(peak):
            raise ValueError("matrix has non-finite entries")
        a = a * 0.5  # halved first: a - a^T and a + a^T overflow near the float limit
        asym = 2.0 * float(abs(a - a.T).max())
        if asym > _ASYMMETRY_LIMIT and asym > scaled_tol(_ASYMMETRY_LIMIT, peak):
            raise ValueError(f"matrix is not symmetric (max |a - a^T| = {asym:.3e})")
        a = a + a.T
        # Partial sums of the trace stay below 2 n max |a_ij|, so only near
        # the float limit can it overflow; there it is summed without warning.
        if 2.0 * len(a) * peak > sys.float_info.max:
            with np.errstate(over="ignore", invalid="ignore"):
                if not math.isfinite(np.trace(a)):
                    raise ValueError("matrix trace overflows float64")
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(self.entries.trace())

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
    """Number of singular values strictly above ``scaled_tol(tol, singular values)``.

    The threshold is ``tol`` while sigma_max <= 1 and ``tol * sigma_max`` beyond.
    ``a`` is a SymMatrix, whose singular values are the |eigenvalues| of its kept spectrum,
    or a 2-D array, whose SVD is taken; ValueError on an array's non-finite entries.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if isinstance(a, SymMatrix):  # finite by construction
        s = np.abs(a.spectrum.eigenvalues)
    else:
        m = np.atleast_2d(np.asarray(a, dtype=float))
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite entries")
        s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > scaled_tol(tol, s)))


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
    m = a.shape[0]
    if m == 0:
        raise DimensionMismatch("need at least one row")
    if m != b.shape[0]:
        raise DimensionMismatch(f"{m} rows but {b.shape[0]} right-hand sides")
    x, rank_deficient = _least_squares(a, b[:, None])
    x = x[:, 0]
    r, s = pow2_rescale(a @ x - b)
    residual = math.sqrt(r @ r) * s
    return LeastSquaresSolution(x, residual, rank_deficient)


def _least_squares(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, bool]:
    """(X, rank_deficient) minimizing ||a X - b|| per column of the m x r ``b``.

    A tall system (m >= k >= 1) takes one Householder QR of [a | b]; X comes from it when
    :func:`_certified_qr_solve` certifies R, and from ``np.linalg.lstsq`` otherwise.
    """
    m, k = a.shape
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("least-squares system has non-finite entries")
    x = None
    if m >= k >= 1:
        # LAPACK's geqrf output, transposed: row j holds column j of [R | Q^T b] up to
        # the diagonal, then the Householder vectors, which the mask zeroes.
        h = np.linalg.qr(np.concatenate((a, b), axis=1), mode="raw")[0]
        x = _certified_qr_solve(h[:k, :k].T, h[k:, :k].T, m)
    if x is None:
        x, _, rk, _ = np.linalg.lstsq(a, b, rcond=None)
        return x, int(rk) < k
    return x, False


@cache
def _upper_ones(k: int) -> np.ndarray:
    """Read-only k x k ones on and above the diagonal, kept per k.

    ``np.triu`` builds its mask per call, which costs as much as a small QR.
    """
    mask = np.triu(np.ones((k, k)))
    mask.flags.writeable = False
    return mask


def _certified_qr_solve(r: np.ndarray, qtb: np.ndarray, m: int) -> np.ndarray | None:
    """X = R^-1 Q^T B from an m-row Householder QR, or None unless R is certified.

    ``r`` holds R on and above its diagonal (the mask drops what lies below), ``qtb`` is
    the top k rows of Q^T B, k x r, and X is k x r, one solution per column of B.
    Householder QR least squares is backward stable for full-rank problems (Golub & Van
    Loan, Matrix Computations, sec. 5.3). The certificate is
    kappa_F = ||R||_F ||R^-1||_F <= 1e-3 / (eps max(m, k)), taken on R after
    :func:`pow2_rescale` so that no square overflows or underflows. Since
    sigma_max / sigma_min <= kappa_F, it gives sigma_min > 1e3 rcond sigma_max
    for gelsd's rcond = eps max(m, k): ``lstsq`` would find full rank too.
    One LAPACK solve of the scaled R for [Q^T B | I] gives both R^-1 Q^T B and R^-1.
    """
    k, width = qtb.shape
    scaled, s = pow2_rescale(r * _upper_ones(k))
    # ||R_s||_F >= max |r_ii| and ||R_s^-1||_F >= max 1 / |r_ii|, the diagonal of the
    # triangular inverse, so kappa_F >= high * (1 / low): rounded alike, this rejects
    # only what the kappa test below would, and exactly singular R before the solve.
    diagonal = abs(scaled.diagonal()).tolist()
    low, high = min(diagonal), max(diagonal)
    if not (low > 0.0 and high * (1.0 / low) * sys.float_info.epsilon * max(m, k) <= 1e-3):
        return None
    rhs = np.eye(k, k + width, width)
    rhs[:, :width] = qtb
    solved = np.linalg.solve(scaled, rhs)
    # A certified R_s^-1 has entries below 1e-3 / eps, so its squares stay in range;
    # past 1e154 they overflow to inf (vdot is no ufunc and does not warn), which fails.
    inverse = solved[:, width:]
    kappa = math.sqrt(np.vdot(scaled, scaled)) * math.sqrt(np.vdot(inverse, inverse))
    if not kappa * sys.float_info.epsilon * max(m, k) <= 1e-3:
        return None
    x = solved[:, :width]  # s X
    # s is a power of 2, so x / s only shifts exponents; it overflows (with a
    # warning) only where x itself is past the float range, and lstsq decides those.
    if not np.abs(x).max() < sys.float_info.max * min(s, 1.0):
        return None
    return x / s


def lp_feasible(a, b, tol: float = DEFAULT_TOL) -> np.ndarray | None:
    """Decide existence of x >= 0 with a @ x = b.

    Lawson-Hanson non-negative least squares (Solving Least Squares
    Problems, 1974, ch. 23), one LAPACK solve per step. With t = scaled_tol(tol, b),
    returns a witness if max |a x - b| <= t, else None; each witness entry x_j is
    exactly 0 or its column adds above t (x_j ||a_j|| > t). RuntimeError if 3n steps
    do not settle. ValueError on non-finite entries, as no finite x can answer them.
    """
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
    # np.linalg.norm's column norms, without its dispatch
    norms = np.maximum(np.sqrt(np.add.reduce(a * a, axis=0)), sys.float_info.min)
    with np.errstate(over="ignore"):  # inf: no finite coefficient adds the threshold
        floor = residual_tol / norms  # x_j <= floor_j: column j adds at most residual_tol
    x = np.zeros(n)
    active = np.zeros(n, dtype=bool)
    for _ in range(3 * n + 1):
        gradient = a.T @ (b - a @ x) / norms
        gradient[active] = -np.inf
        # NNLS's optimality test a^T r <= 0: a column with any positive gradient, even
        # one below t, can still shrink r, and a None from a stop above 0 proves nothing.
        if gradient.max(initial=-np.inf) <= 0.0:
            break
        entering = int(gradient.argmax())
        active[entering] = True
        s = np.zeros(n)
        s[active] = np.linalg.lstsq(a[:, active], b, rcond=None)[0]
        if s[entering] <= floor[entering]:  # > 0 in exact arithmetic: roundoff has stalled it
            break
        while (low := active & (s <= floor)).any():
            # x > floor >= s on low columns: step to the first zero, drop it.
            ratio = x[low] / (x[low] - s[low])
            x += ratio.min() * (s - x)
            active[np.flatnonzero(low)[ratio.argmin()]] = False
            active &= x > floor
            s = np.zeros(n)
            s[active] = np.linalg.lstsq(a[:, active], b, rcond=None)[0]
        x = s
    else:
        raise RuntimeError("non-negative least squares did not settle in 3n steps")
    return x if abs(a @ x - b).max(initial=0.0) <= residual_tol else None


def orthonormalize(vectors, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (rows) for the span of the input, by QR.

    Row i of the result is the unit vector Gram-Schmidt would produce from
    the first i + 1 inputs: each sign is chosen so that diag(R) > 0. Raises
    LinearlyDependent when ``rank(v, sqrt(tol)) < k``, that is when sigma_min^2 <=
    tol * max(1, sigma_max^2). The QR runs on the rows after :func:`pow2_rescale`,
    which is exact and keeps the Householder norms in range. ValueError on non-finite
    components, which span nothing. No vectors (k = 0) give the empty basis.
    """
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    if not np.isfinite(v).all():
        raise ValueError("vectors have non-finite components")
    k, n = v.shape
    if k > n:
        raise LinearlyDependent(f"{k} vectors cannot be independent in dimension {n}")
    if rank(v, math.sqrt(tol)) < k:
        raise LinearlyDependent("input vectors are linearly dependent")
    q, r = np.linalg.qr(pow2_rescale(v)[0].T)
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
    # C order, as for rows stacked one by one, so that BLAS sums the rows alike.
    row = x.take(i, axis=-1)
    row *= x.take(j, axis=-1)
    row[..., x.shape[-1] :] *= 2.0
    return row


def fit_form(points, values) -> LeastSquaresSolution:
    """Least-squares symmetric A with x^T A x = value on each row of the k x n ``points``.

    ``solution`` is A itself, n x n. A row that overflows is inf, which
    :func:`solve_least_squares` refuses with ValueError.
    """
    fit = solve_least_squares(_form_rows(points), values)
    n = np.shape(points)[1]
    return LeastSquaresSolution(sym_from_packed(fit.solution, n), fit.residual, fit.rank_deficient)


def fit_operator(points) -> tuple[np.ndarray, bool]:
    """Read-only L and ``rank_deficient`` of the fit of x^T A x = value and tr A = trace.

    The rows are :func:`fit_form`'s, then tr A; L is the solution for B = I, by the same
    solve as :func:`solve_least_squares` (the QR of [rows | I], or ``lstsq``), so
    ``L @ [values, trace]`` is the packed least-squares A to roundoff. L is read-only, so a
    caller may keep it: ``quantum_feasibility`` keeps a realization's zero-free L.
    """
    n = np.shape(points)[1]
    rows = np.concatenate((_form_rows(points), np.equal(*packed_index(n))[None]))
    operator, rank_deficient = _least_squares(rows, np.eye(len(rows)))
    operator.flags.writeable = False
    return operator, rank_deficient


def _form_rows(points) -> np.ndarray:
    """``quad_coeff_row`` of each point; a row that overflows is inf, without a warning."""
    with np.errstate(over="ignore"):  # the solve stays outside, so its overflows still warn
        return quad_coeff_row(points)


def quadratic_values(points, a) -> np.ndarray:
    """x^T A x on each row x of the k x n ``points``."""
    return np.einsum("ki,ij,kj->k", points, a, points)


def sym_from_packed(values, n: int) -> np.ndarray:
    """Inverse of the packing used by :func:`quad_coeff_row`."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.shape[0] != n * (n + 1) // 2:
        raise DimensionMismatch(
            f"expected {n * (n + 1) // 2} packed entries, got {values.shape[0]}"
        )
    a = np.zeros(n * n)
    for flat in _flat_index(n):
        a[flat] = values
    return a.reshape(n, n)


@cache
def _flat_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions in a flat n x n array of (row, col) and of (col, row) per packed entry.

    Kept per n and read-only: one flat assignment costs less than one indexed by two arrays.
    """
    i, j = packed_index(n)
    index = i * n + j, j * n + i
    for a in index:
        a.flags.writeable = False
    return index


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
        tokens = (raw[: raw.index("#")] if "#" in raw else raw).split()  # most lines have no "#"
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

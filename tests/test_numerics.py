import math

import numpy as np
import pytest

from gleason.numerics import (
    DimensionMismatch,
    LinearlyDependent,
    MatrixFormatError,
    SymMatrix,
    eigh,
    format_matrix_text,
    lp_feasible,
    orthonormalize,
    parse_matrix_text,
    quad_coeff_row,
    rank,
    solve_least_squares,
    sym_from_packed,
)
from support import (
    brute_force_lp_feasible,
    pentagon_b_vectors,
    random_orthonormal,
    random_symmetric,
)

SEVENTHS = np.array([[3.0, 0.0, 0.0], [0.0, 2.0, -2.0], [0.0, -2.0, 2.0]]) / 7.0


class TestSymMatrix:
    def test_symmetrizes_tiny_asymmetry(self):
        a = np.array([[1.0, 2.0 + 5e-13], [2.0, 3.0]])
        m = SymMatrix(a)
        assert m.entries[0, 1] == m.entries[1, 0]

    def test_rejects_real_asymmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SymMatrix(np.array([[1.0, 2.0], [2.1, 3.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            SymMatrix(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_entries_are_immutable(self):
        m = SymMatrix.identity(2)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_constructors(self):
        assert SymMatrix.identity(3).trace() == 3.0
        assert SymMatrix.zeros(2).trace() == 0.0
        assert SymMatrix.diagonal([1.0, 2.0]).entries[1, 1] == 2.0


class TestEigh:
    def test_identity(self):
        dec = eigh(SymMatrix.identity(3))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0], atol=0)

    def test_sevenths_spectrum(self):
        dec = eigh(SymMatrix(SEVENTHS))
        assert abs(dec.eigenvalues[0] - 4.0 / 7.0) <= 1e-12
        assert abs(dec.eigenvalues[1] - 3.0 / 7.0) <= 1e-12
        assert abs(dec.eigenvalues[2]) <= 1e-12

    def test_two_by_two_closed_form(self):
        a = b = 0.5
        block = SymMatrix(np.array([[a + b / 2.0, b / 2.0], [b / 2.0, b / 2.0]]))
        root = math.sqrt(0.25 - a * b / 2.0)
        dec = eigh(block)
        assert abs(dec.eigenvalues[0] - (0.5 + root)) <= 1e-12
        assert abs(dec.eigenvalues[1] - (0.5 - root)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_round_trip_random(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            a = random_symmetric(rng, n)
            dec = eigh(a)
            rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
            assert np.max(np.abs(rebuilt - a.entries)) <= 1e-9
            gram = dec.eigenvectors.T @ dec.eigenvectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
            assert np.all(np.diff(dec.eigenvalues) <= 1e-15)

    @pytest.mark.parametrize(
        "spectrum",
        [(1.0, 1.0, 1.0), (0.5, 0.5, 0.0), (0.4, 0.3, 0.3), (0.25,) * 4, (0.5, 0.25, 0.25, 0.0)],
    )
    def test_degenerate_spectra(self, spectrum):
        rng = np.random.default_rng(len(spectrum))
        n = len(spectrum)
        for _ in range(10):
            q = random_orthonormal(rng, n)
            a = q.T @ np.diag(spectrum) @ q
            dec = eigh(SymMatrix((a + a.T) / 2.0))
            assert np.all(np.diff(dec.eigenvalues) <= 0.0)
            assert np.max(np.abs(dec.eigenvalues - sorted(spectrum, reverse=True))) <= 1e-12
            v = dec.eigenvectors
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12
            assert np.max(np.abs(v @ np.diag(dec.eigenvalues) @ v.T - a)) <= 1e-12

    def test_eigenvalue_sum_and_product(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 4):
            for _ in range(10):
                a = random_symmetric(rng, n)
                w = eigh(a).eigenvalues
                assert abs(np.sum(w) - a.trace()) <= 1e-9
                assert abs(np.prod(w) - np.linalg.det(a.entries)) <= 1e-8

    def test_well_scaled_accuracy(self):
        rng = np.random.default_rng(7)
        a = random_symmetric(rng, 6, scale=1e3)
        dec = eigh(a)
        rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        assert np.max(np.abs(rebuilt - a.entries)) <= 1e-10 * 1e3


class TestRank:
    def test_zero_matrix(self):
        assert rank(SymMatrix.zeros(3), 1e-9) == 0

    def test_identity(self):
        assert rank(SymMatrix.identity(4), 1e-9) == 4

    def test_pentagon_b_gram_has_full_spatial_rank(self):
        b = pentagon_b_vectors()
        assert rank(SymMatrix(b @ b.T), 1e-9) == 3

    def test_rectangular_array_is_not_squared(self):
        # Singular values 1 and 1e-6 both clear 1e-9; the Gram matrix's
        # eigenvalue 1e-12 would not.
        active = np.array([[1.0, 0.0], [0.0, 1e-6], [0.0, 0.0]])
        assert rank(active, 1e-9) == 2
        assert rank(active, 1e-3) == 1

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            rank(SymMatrix.identity(2), 0.0)


class TestLeastSquares:
    def test_square_exact(self):
        fit = solve_least_squares([(1.0, 0.0), (0.0, 1.0)], (2.0, 3.0))
        assert np.allclose(fit.solution, [2.0, 3.0], atol=1e-14)
        assert fit.residual <= 1e-14
        assert not fit.rank_deficient

    def test_overdetermined_average(self):
        fit = solve_least_squares([(1.0,), (1.0,)], (0.0, 2.0))
        assert abs(fit.solution[0] - 1.0) <= 1e-14
        assert abs(fit.residual - math.sqrt(2.0)) <= 1e-12

    def test_rank_deficient_minimum_norm(self):
        fit = solve_least_squares([(1.0, 0.0), (2.0, 0.0)], (1.0, 2.0))
        assert fit.rank_deficient
        assert np.allclose(fit.solution, [1.0, 0.0], atol=1e-12)

    def test_twelfths_six_unknown_system(self):
        # Probing the closed-form function at basis and mixed directions
        # must pin down all six coefficients of the 3x3 symmetric matrix.
        def f(x):
            return (4.0 * x[0] ** 2 + 3.0 * (x[0] - x[1]) ** 2 + (x[1] - x[2]) ** 2) / 12.0

        basis = np.eye(3)
        probes = [basis[i] for i in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                probes.append((basis[i] + basis[j]) / math.sqrt(2.0))
        rows = [quad_coeff_row(x) for x in probes]
        rhs = [f(x) for x in probes]
        fit = solve_least_squares(rows, rhs)
        expected = np.array([[7.0, -3.0, 0.0], [-3.0, 4.0, -1.0], [0.0, -1.0, 1.0]]) / 12.0
        assert not fit.rank_deficient
        assert fit.residual <= 1e-10
        assert np.max(np.abs(sym_from_packed(fit.solution, 3) - expected)) <= 1e-12

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            solve_least_squares(np.zeros((0, 2)), [])
        with pytest.raises(DimensionMismatch):
            solve_least_squares([(1.0, 0.0)], (1.0, 2.0))


class TestLpFeasible:
    def test_simplex_sum_one(self):
        x = lp_feasible([[1.0, 1.0]], [1.0])
        assert x is not None
        assert np.min(x) >= -1e-12
        assert abs(np.sum(x) - 1.0) <= 1e-9

    def test_negative_rhs_infeasible(self):
        assert lp_feasible([[1.0]], [-1.0]) is None

    def test_zero_variables(self):
        assert lp_feasible(np.zeros((1, 0)), [0.0]) is not None
        assert lp_feasible(np.zeros((1, 0)), [1.0]) is None

    def test_pentagon_measure_system_is_infeasible(self):
        # Decomposing the half/zero pentagon measure over its 11 two-valued
        # states: every state raises some zero-probability atom, so no
        # convex combination can work.
        from gleason import builtin_wright_pentagon, enumerate_two_valued_states

        diagram, _, measure = builtin_wright_pentagon()
        states = enumerate_two_valued_states(diagram)
        assert len(states) == 11
        a = np.array([[s.values[atom] for s in states] for atom in diagram.atoms])
        rows = np.vstack([a, np.ones(len(states))])
        rhs = np.array([measure.values[atom] for atom in diagram.atoms] + [1.0])
        assert lp_feasible(rows, rhs) is None

    def test_agrees_with_brute_force_enumeration(self):
        rng = np.random.default_rng(2024)
        for trial in range(60):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(2, 7))
            a = rng.integers(-3, 4, size=(m, n)).astype(float)
            if trial % 2 == 0:
                x0 = rng.random(n) * (rng.random(n) < 0.6)
                b = a @ x0
            else:
                b = rng.integers(-3, 4, size=m).astype(float)
            witness = lp_feasible(a, b)
            expected = brute_force_lp_feasible(a, b)
            assert (witness is not None) == expected, f"trial {trial}: a={a} b={b}"
            if witness is not None:
                assert np.max(np.abs(a @ witness - b)) <= 1e-7
                assert np.min(witness) >= -1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lp_feasible([[1.0, 2.0]], [1.0, 2.0])


class TestOrthonormalize:
    def test_axis_scaling(self):
        q = orthonormalize([(2.0, 0.0), (0.0, 3.0)])
        assert np.allclose(q, np.eye(2), atol=0)

    def test_plane_span_preserved(self):
        q = orthonormalize([(1.0, 1.0, 0.0), (1.0, 0.0, 0.0)])
        projector = q.T @ q
        assert np.max(np.abs(projector - np.diag([1.0, 1.0, 0.0]))) <= 1e-10

    def test_orthonormality_and_trace_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            vectors = rng.standard_normal((4, 4))
            if abs(np.linalg.det(vectors)) < 1e-3:
                continue
            q = orthonormalize(vectors)
            assert np.max(np.abs(q @ q.T - np.eye(4))) <= 1e-10
            a = random_symmetric(rng, 4)
            total = sum(float(e @ a.entries @ e) for e in q)
            assert abs(total - a.trace()) <= 1e-9

    @pytest.mark.parametrize("shape", [(1, 3), (2, 3), (3, 3), (2, 5), (4, 6)])
    def test_gram_schmidt_orientation(self, shape):
        # Row i lies in the span of inputs 0..i and has a positive overlap
        # with input i: q @ v.T is upper-triangular with a positive diagonal.
        rng = np.random.default_rng(sum(shape))
        for _ in range(10):
            v = rng.standard_normal(shape)
            q = orthonormalize(v)
            overlap = q @ v.T
            assert np.max(np.abs(np.tril(overlap, -1))) <= 1e-12
            assert np.all(np.diag(overlap) > 0.0)
            assert np.max(np.abs(q @ q.T - np.eye(shape[0]))) <= 1e-12

    def test_dependency_threshold(self):
        # Squared singular values 5e-9 and 4.5e-10 sit on either side of
        # tol * max(1, max |v v^T|) = 1e-9.
        q = orthonormalize([(1.0, 0.0), (1.0, 1e-4)])
        assert np.max(np.abs(q - np.eye(2))) <= 1e-12
        with pytest.raises(LinearlyDependent):
            orthonormalize([(1.0, 0.0), (1.0, 3e-5)])

    def test_rejects_dependent_input(self):
        with pytest.raises(LinearlyDependent):
            orthonormalize([(1.0, 0.0), (2.0, 0.0)])
        with pytest.raises(LinearlyDependent):
            orthonormalize([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])


class TestPackedQuadratic:
    def test_row_matches_quadratic_value(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 5):
            a = random_symmetric(rng, n, scale=2.0)
            packed = np.concatenate(
                [np.diag(a.entries), a.entries[np.triu_indices(n, 1)]]
            )
            for _ in range(5):
                x = rng.standard_normal(n)
                assert abs(quad_coeff_row(x) @ packed - x @ a.entries @ x) <= 1e-10

    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(10)
        a = random_symmetric(rng, 4, scale=3.0)
        packed = np.concatenate([np.diag(a.entries), a.entries[np.triu_indices(4, 1)]])
        assert np.array_equal(sym_from_packed(packed, 4), a.entries)

    def test_unpack_length_check(self):
        with pytest.raises(DimensionMismatch):
            sym_from_packed([1.0, 2.0], 3)


class TestMatrixText:
    def test_parse_with_scientific_notation(self):
        a = parse_matrix_text("dim 2\n1 2e-3\n2E-3 4\n")
        assert a[0, 1] == 2e-3
        assert a[1, 1] == 4.0

    def test_comments_and_blank_lines(self):
        a = parse_matrix_text("# header\n\ndim 1\n0.5 # inline\n")
        assert a[0, 0] == 0.5

    def test_round_trip_full_precision(self):
        rng = np.random.default_rng(3)
        a = random_symmetric(rng, 3).entries
        again = parse_matrix_text(format_matrix_text(a))
        assert np.array_equal(a, again)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "dim\n",
            "size 2\n1 0\n0 1\n",
            "dim 0\n",
            "dim 2\n1 0\n",
            "dim 2\n1 0 0\n0 1 0\n",
            "dim 2\n1 x\n0 1\n",
            "dim 2\nnan 0\n0 1\n",
            "dim 2\n1 0\n0 inf\n",
            "dim 1\n-Infinity\n",
            "dim 1\n1e400\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(MatrixFormatError):
            parse_matrix_text(text)

    def test_error_names_the_file_line(self):
        # comment and blank lines count: the short row is line 5 of the text
        with pytest.raises(MatrixFormatError, match="line 5"):
            parse_matrix_text("# c\n\ndim 2\n0.5 0\n0 0.5 1\n")

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
    packed_index,
    parse_matrix_text,
    pow2_rescale,
    quad_coeff_row,
    rank,
    scaled_tol,
    solve_least_squares,
    sym_from_packed,
)
from support import (
    brute_force_lp_feasible,
    highs_lp_feasible,
    pentagon_b_vectors,
    random_orthonormal,
    random_symmetric,
    random_unit,
    reference_least_squares,
)

EPS = np.finfo(float).eps


def graded_system(rng, m, k, kappa_f):
    """m x k matrix with geometrically graded singular values and ||A||_F ||A^+||_F = kappa_f."""

    def kappa_of(log_ratio):
        sigma = np.exp(-np.linspace(0.0, log_ratio, k))
        return math.sqrt(sigma @ sigma) * math.sqrt((1.0 / sigma) @ (1.0 / sigma)), sigma

    low, high = 0.0, 200.0
    for _ in range(200):
        mid = (low + high) / 2.0
        low, high = (mid, high) if kappa_of(mid)[0] < kappa_f else (low, mid)
    u = np.linalg.qr(rng.standard_normal((m, k)))[0]
    return (u * kappa_of(low)[1]) @ random_orthonormal(rng, k)


def least_squares_cases():
    """(label, rows, rhs, path): path "qr" or "lstsq" is the solve each system must take."""
    rng = np.random.default_rng(15)
    cases = []
    full_rank = []
    for n in (3, 4, 6, 8):
        # reconstruct_from_samples: n(n + 1) random unit probes.
        probes = quad_coeff_row(np.array([random_unit(rng, n) for _ in range(n * (n + 1))]))
        # quantum_feasibility: n + 1 random contexts plus the trace row.
        contexts = np.vstack([random_orthonormal(rng, n) for _ in range(n + 1)])
        trace_row = np.equal(*packed_index(n)).astype(float)
        feasibility = np.vstack([quad_coeff_row(contexts), trace_row])
        full_rank += [probes, feasibility]
    for a in full_rank:
        m, k = a.shape
        cases.append((f"{m}x{k}", a, rng.standard_normal(m), "qr"))
        x = rng.standard_normal(k)
        for scale in (1e150, 1e-150):
            cases.append((f"{m}x{k} rows x {scale:g}", a * scale, a @ x * scale, "qr"))
            cases.append((f"{m}x{k} rows x {scale:g}, rhs as is", a * scale, a @ x, "qr"))
    # Two contexts plus the trace row: in R^3, 7 rows of rank 5.
    contexts = np.vstack([random_orthonormal(rng, 3) for _ in range(2)])
    a = np.vstack([quad_coeff_row(contexts), np.equal(*packed_index(3))])
    cases.append(("two contexts, 7x6 of rank 5", a, rng.uniform(0.0, 1.0, 7), "lstsq"))
    a = rng.standard_normal((12, 5))
    a = np.column_stack([a, a[:, 2], a[:, 0]])
    cases.append(("duplicated columns, 12x7 of rank 5", a, rng.standard_normal(12), "lstsq"))
    for m, k in ((12, 6), (20, 10), (73, 36)):
        threshold = 1e-3 / (EPS * max(m, k))
        for factor, path in ((0.9, "qr"), (1.1, "lstsq")):
            a = graded_system(rng, m, k, factor * threshold)
            b = a @ rng.standard_normal(k)
            cases.append((f"{m}x{k} graded, kappa_F {factor} x the certificate", a, b, path))
    for m, k in ((1, 2), (5, 6), (9, 10), (17, 36)):
        a, b = rng.standard_normal((m, k)), rng.standard_normal(m)
        cases.append((f"wide {m}x{k}", a, b, "lstsq"))
    cases.append(("no unknowns", np.zeros((3, 0)), rng.standard_normal(3), "lstsq"))
    a, b = np.array([[1e-300]]), np.array([1e300])
    cases.append(("solution past the float range", a, b, "lstsq"))
    return cases


SEVENTHS = np.array([[3.0, 0.0, 0.0], [0.0, 2.0, -2.0], [0.0, -2.0, 2.0]]) / 7.0


class TestPow2Rescale:
    @pytest.mark.parametrize("peak", [5e-324, 1e-160, 0.75, 1.0, 3.0, 1e200, np.finfo(float).max])
    def test_division_is_exact(self, peak):
        v = np.array([peak, -peak / 3.0, 0.0])
        scaled, s = pow2_rescale(v)
        assert math.frexp(s)[0] == 0.5 and s <= peak < 2.0 * s
        assert np.max(np.abs(scaled)) == peak / s
        assert np.array_equal(scaled * s, v)


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

    def test_asymmetry_reported_at_the_float_limit(self):
        # a - a^T overflows here; halved first, the measure is inf with no warning.
        with pytest.raises(ValueError, match=r"max \|a - a\^T\| = inf\)"):
            SymMatrix(np.array([[0.0, 1e308], [-1e308, 0.0]]))
        with pytest.raises(ValueError, match=r"max \|a - a\^T\| = 1\.000e-01\)"):
            SymMatrix(np.array([[1.0, 2.0], [2.1, 3.0]]))

    @pytest.mark.parametrize(
        "diagonal",
        [
            [1e308, 1e308],
            [1e308, -1e308],
            [8e307, 8e307],
            [1e308, 1e308, -1e308],
            [-1e308, 1e308, 1e308, 1e308],
            [1e308, 1e308, -1e308] + [0.0] * 6,
            [1e308] * 8 + [-1e308] * 8,
            [-1e308, 1e308, 1e308, -1e308] + [0.0] * 5,
            [1e307] * 17,
            [1.0, 2.0, 3.0],
        ],
    )
    def test_rejects_exactly_the_traces_that_overflow(self, diagonal):
        a = np.diag(diagonal)
        with np.errstate(over="ignore", invalid="ignore"):
            overflows = not math.isfinite(np.trace(a))
        if overflows:
            with pytest.raises(ValueError, match="^matrix trace overflows float64$"):
                SymMatrix(a)
        else:
            assert SymMatrix(a).trace() == np.trace(a)

    def test_symmetrizes_at_the_float_limit(self):
        # a + a^T would overflow here; the entries must stay finite.
        big = np.finfo(float).max
        m = SymMatrix(np.array([[1.0, big], [big, 1.0]]))
        assert np.array_equal(m.entries, [[1.0, big], [big, 1.0]])
        assert np.all(np.isfinite(m.spectrum.eigenvalues))

    def test_entries_are_immutable(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestEigh:
    def test_identity(self):
        dec = eigh(SymMatrix(np.eye(3)))
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
        assert rank(SymMatrix(np.zeros((3, 3))), 1e-9) == 0

    def test_identity(self):
        assert rank(SymMatrix(np.eye(4)), 1e-9) == 4

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
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError):
                rank(SymMatrix(np.eye(2)), tol)


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

    @pytest.mark.parametrize(
        "rows, rhs",
        [
            ([(1.0, 0.0), (0.0, math.inf)], (1.0, 2.0)),
            ([(1.0, 0.0), (0.0, 1.0)], (math.nan, 2.0)),
        ],
    )
    def test_rejects_non_finite_input(self, rows, rhs):
        with pytest.raises(ValueError, match="non-finite"):
            solve_least_squares(rows, rhs)

    def test_residual_is_the_norm_at_every_scale(self):
        # Bit for bit np.linalg.norm while its squares stay in range.
        rng = np.random.default_rng(11)
        for exponent in range(-150, 151, 10):
            a = rng.standard_normal((6, 3))
            b = rng.standard_normal(6) * 10.0**exponent
            fit = solve_least_squares(a, b)
            assert fit.residual == float(np.linalg.norm(a @ fit.solution - b)) > 0.0

    def test_residual_stays_finite_where_squares_overflow(self):
        # Probes (1, 0), (0, 1), (1, 1) of the form [[1e300, -5e299], [-5e299, 0]].
        rows = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 2.0)]
        fit = solve_least_squares(rows, (1e300, 0.0, 0.5))
        assert fit.residual <= 1e-14 * 1e300

    @pytest.mark.filterwarnings("error")
    def test_matches_the_lstsq_oracle(self, monkeypatch):
        # Certified systems take one Householder QR and agree with gelsd to
        # roundoff; every other system is gelsd's own answer, bit for bit.
        lstsq, calls = np.linalg.lstsq, []

        def counted(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        for label, a, b, path in least_squares_cases():
            calls.clear()
            fit = solve_least_squares(a, b)
            assert ("lstsq" if calls else "qr") == path, label
            x, rank_deficient = reference_least_squares(a, b)
            assert fit.rank_deficient == rank_deficient, label
            if path == "lstsq":
                assert fit.solution.tobytes() == x.tobytes(), label
            else:
                sigma = np.linalg.svd(a, compute_uv=False)
                kappa = sigma[0] / sigma[-1]
                assert np.linalg.norm(fit.solution - x) <= 1e-12 * kappa * np.linalg.norm(x), label
            r = a @ fit.solution - b
            # An exact power-of-2 lift keeps the squares of tiny residuals out of underflow.
            lift = 2.0**500 if np.abs(r).max(initial=0.0) < 1e-140 else 1.0
            assert fit.residual == float(np.linalg.norm(r * lift)) / lift, label

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
        # Two readings of the sum, 1e-9 apart, fit within scaled_tol(1e-9, b);
        # 1e-8 apart they do not. At 2^20 the verdicts hold and the witness
        # scales with b, which an absolute residual threshold would break.
        a = [[1.0, 1.0], [1.0, 1.0]]
        near, far = np.array([1.0, 1.0 + 1e-9]), np.array([1.0, 1.0 + 1e-8])
        x = lp_feasible(a, near)
        assert x is not None and abs(np.sum(x) - 1.0) <= 1e-9
        assert np.array_equal(lp_feasible(a, 2.0**20 * near), 2.0**20 * x)
        assert lp_feasible(a, far) is None and lp_feasible(a, 2.0**20 * far) is None

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

    def test_agrees_with_highs(self):
        # Systems too large to enumerate: is b in the convex hull of the
        # columns of an integer, 0/1 (repeated columns, degenerate vertices)
        # or Gaussian matrix? b is a sparse convex combination, moved by +-1
        # along one axis in every other group of three trials.
        rng = np.random.default_rng(4)
        for trial in range(180):
            m, n = int(rng.integers(2, 10)), int(rng.integers(10, 40))
            a = [
                rng.integers(-3, 4, size=(m, n)).astype(float),
                (rng.random((m, n)) < 0.4).astype(float),
                rng.standard_normal((m, n)),
            ][trial % 3]
            a = np.vstack([a, np.ones(n)])
            x0 = rng.random(n) * (rng.random(n) < 0.3)
            b = a @ (x0 / max(x0.sum(), 1e-9))
            b[-1] = 1.0
            if trial // 3 % 2:
                b[int(rng.integers(m))] += rng.choice([-1.0, 1.0])
            witness = lp_feasible(a, b)
            assert (witness is not None) == highs_lp_feasible(a, b), f"trial {trial}"
            if witness is not None:
                assert np.max(np.abs(a @ witness - b)) <= 1e-9
                assert np.all((witness == 0.0) | (witness > 1e-9))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lp_feasible([[1.0, 2.0]], [1.0, 2.0])


class TestOrthonormalize:
    def test_axis_scaling(self):
        q = orthonormalize([(2.0, 0.0), (0.0, 3.0)])
        assert np.allclose(q, np.eye(2), atol=0)

    def test_huge_orthogonal_rows(self):
        # v v^T overflows here; the Gram matrix of the rescaled rows does not.
        assert np.array_equal(orthonormalize([(1e200, 0.0), (0.0, 1e200)]), np.eye(2))

    def test_verdict_matches_unscaled_gram_rule(self):
        # Where v v^T stays finite, the verdict is rank(v, sqrt(scaled_tol(tol, v v^T))) < k.
        rng = np.random.default_rng(2024)
        verdicts = []
        for _ in range(400):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, n + 1))
            v = rng.standard_normal((k, n))
            if k > 1 and rng.random() < 0.6:  # the last row close to the span of the others
                v[-1] = rng.standard_normal(k - 1) @ v[:-1] + 10.0 ** rng.uniform(-8, -2) * v[-1]
            v *= 10.0 ** rng.uniform(-140, 140)
            tol = float(rng.choice([1e-12, 1e-9, 1e-6]))
            dependent = rank(v, math.sqrt(scaled_tol(tol, v @ v.T))) < k
            try:
                orthonormalize(v, tol)
                raised = False
            except LinearlyDependent:
                raised = True
            assert raised == dependent
            verdicts.append(dependent)
        assert 50 <= sum(verdicts) <= 350

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
        # scaled_tol(1e-9, v v^T) = 1e-9; scaled by 2^20, both move with it.
        q = orthonormalize([(1.0, 0.0), (1.0, 1e-4)])
        assert np.max(np.abs(q - np.eye(2))) <= 1e-12
        assert np.array_equal(orthonormalize(2.0**20 * np.array([(1.0, 0.0), (1.0, 1e-4)])), q)
        for scale in (1.0, 2.0**20):
            with pytest.raises(LinearlyDependent):
                orthonormalize(scale * np.array([(1.0, 0.0), (1.0, 3e-5)]))

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
            stack = rng.standard_normal((4, n))
            assert np.array_equal(quad_coeff_row(stack), [quad_coeff_row(x) for x in stack])

    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(10)
        a = random_symmetric(rng, 4, scale=3.0)
        packed = np.concatenate([np.diag(a.entries), a.entries[np.triu_indices(4, 1)]])
        assert np.array_equal(sym_from_packed(packed, 4), a.entries)

    def test_unpack_length_check(self):
        with pytest.raises(DimensionMismatch):
            sym_from_packed([1.0, 2.0], 3)

    def test_shared_index_is_read_only(self):
        rows, cols = packed_index(3)
        assert rows.tolist() == [0, 1, 2, 0, 0, 1]
        assert cols.tolist() == [0, 1, 2, 1, 2, 2]
        with pytest.raises(ValueError):
            rows[0] = 1
        assert packed_index(3)[0] is rows


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

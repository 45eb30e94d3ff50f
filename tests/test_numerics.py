import math

import numpy as np
import pytest

from gleason import numerics
from gleason.greechie import parse_greechie_text
from gleason.numerics import (
    _least_squares,
    _pow2_floor,
    DimensionMismatch,
    LinearlyDependent,
    MatrixFormatError,
    SymMatrix,
    eigh,
    fit_form,
    fit_operator,
    format_matrix_text,
    lp_feasible,
    orthonormalize,
    packed_index,
    parse_matrix_text,
    pow2_rescale,
    quad_coeff_row,
    quadratic_values,
    rank,
    scaled_tol,
    solve_least_squares,
    sym_from_packed,
    unit_rows,
)
from support import (
    KS18_TEXT,
    SEVENTHS,
    TWELFTHS,
    brute_force_lp_feasible,
    cycling_lstsq,
    highs_lp_feasible,
    pentagon_b_vectors,
    random_orthonormal,
    random_symmetric,
    random_unit,
    reference_least_squares,
    reference_lp_feasible,
    reference_unit_row,
    twelfths_function,
)

EPS = np.finfo(float).eps


def kappa(a):
    """sigma_max / sigma_min over the singular values gelsd keeps (1 for no unknowns)."""
    sigma = np.linalg.svd(a, compute_uv=False)
    kept = sigma[sigma > EPS * max(a.shape) * sigma.max(initial=0.0)]
    return kept[0] / kept[-1] if kept.size else 1.0


def lp_verdict(monkeypatch, a, b):
    """``lp_feasible(a, b)``, and for a None the residual y it certified (its first rescale)."""
    rescaled = []

    def recorded(v):
        rescaled.append(np.array(v, dtype=float))
        return pow2_rescale(v)

    with monkeypatch.context() as patch:
        patch.setattr(numerics, "pow2_rescale", recorded)
        witness = lp_feasible(a, b)
    return witness, None if witness is not None else rescaled[0]


def assert_farkas(a, b, y):
    """a_j^T y <= m eps ||a_j|| ||y|| for every column and b^T y > m eps ||b|| ||y||."""
    slack = len(b) * EPS * np.linalg.norm(y)
    assert np.all(a.T @ y <= slack * np.linalg.norm(a, axis=0))
    assert b @ y > slack * np.linalg.norm(b)


def least_squares_cases():
    """(label, rows, rhs): the fits' systems at three scales, rank-deficient and wide ones."""
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
        cases.append((f"{m}x{k}", a, rng.standard_normal(m)))
        x = rng.standard_normal(k)
        for scale in (1e150, 1e-150):
            cases.append((f"{m}x{k} rows x {scale:g}", a * scale, a @ x * scale))
            cases.append((f"{m}x{k} rows x {scale:g}, rhs as is", a * scale, a @ x))
    # Two contexts plus the trace row: in R^3, 7 rows of rank 5.
    contexts = np.vstack([random_orthonormal(rng, 3) for _ in range(2)])
    a = np.vstack([quad_coeff_row(contexts), np.equal(*packed_index(3))])
    cases.append(("two contexts, 7x6 of rank 5", a, rng.uniform(0.0, 1.0, 7)))
    a = rng.standard_normal((12, 5))
    a = np.column_stack([a, a[:, 2], a[:, 0]])
    cases.append(("duplicated columns, 12x7 of rank 5", a, rng.standard_normal(12)))
    for m, k in ((1, 2), (5, 6), (9, 10), (17, 36)):
        a, b = rng.standard_normal((m, k)), rng.standard_normal(m)
        cases.append((f"wide {m}x{k}", a, b))
    cases.append(("no unknowns", np.zeros((3, 0)), rng.standard_normal(3)))
    a, b = np.array([[1e-300]]), np.array([1e300])
    cases.append(("solution past the float range", a, b))
    return cases


class TestPow2Rescale:
    @pytest.mark.parametrize("peak", [5e-324, 1e-160, 0.75, 1.0, 3.0, 1e200, np.finfo(float).max])
    def test_division_is_exact(self, peak):
        v = np.array([peak, -peak / 3.0, 0.0])
        scaled, s = pow2_rescale(v)
        assert math.frexp(s)[0] == 0.5 and s <= peak < 2.0 * s
        assert np.max(np.abs(scaled)) == peak / s
        assert np.array_equal(scaled * s, v)


    def test_matches_the_array_rule_bit_for_bit(self):
        # pow2_rescale takes its scale with math on one float; _pow2_floor, which
        # unit_rows keeps, with numpy on arrays. 0, subnormal, inf and NaN peaks included.
        rng = np.random.default_rng(20)
        m = rng.uniform(-1.0, 1.0, (20_000, 4)) * 10.0 ** rng.uniform(-308, 308, (20_000, 1))
        specials = np.array([0.0, -0.0, 5e-324, -2.5e-320, 1e-310, np.finfo(float).max,
                             -np.finfo(float).max, np.inf, -np.inf, np.nan])
        m[rng.random(m.shape) < 0.05] = 0.0
        rows = rng.random(len(m)) < 0.2
        m[rows, rng.integers(0, 4, rows.sum())] = rng.choice(specials, rows.sum())
        m[:len(specials)] = specials[:, None]  # vectors of 0s, subnormals, infs, NaNs only
        want_s = _pow2_floor(np.abs(m).max(axis=1))
        with np.errstate(invalid="ignore"):  # NaN peaks
            for v, s in zip(m, want_s):
                scaled, got_s = pow2_rescale(v)
                assert type(got_s) is float and np.float64(got_s).tobytes() == s.tobytes()
                assert scaled.tobytes() == (v / s).tobytes()


class TestUnitRows:
    """unit_rows against the per-vector path it replaces, bit for bit, sign of zero included."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_matches_reference_per_row(self, n):
        rng = np.random.default_rng(1800 + n)
        scales = np.concatenate([[1e-300, 1e300, 1.0], 10.0 ** rng.uniform(-300, 300, 57)])
        m = rng.standard_normal((len(scales), n)) * scales[:, None]
        m[rng.random(m.shape) < 0.2] = 0.0
        m[rng.random(m.shape) < 0.1] = -0.0
        empty = ~m.any(axis=1)
        m[empty, 0] = -scales[empty]  # no zero rows: unit_rows requires none
        want = np.array([reference_unit_row(v) for v in m])
        got = unit_rows(m)
        assert got.shape == m.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_rows_are_unit_at_the_float_limits(self):
        tiny, huge = 5e-324, np.finfo(float).max
        got = unit_rows([[tiny, 0.0], [huge, -huge], [-0.0, 3.0]])
        half = 1.0 / math.sqrt(2.0)
        assert got.tolist() == [[1.0, 0.0], [half, -half], [-0.0, 1.0]]
        assert math.copysign(1.0, got[2, 0]) == -1.0


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

    def test_rejects_an_empty_matrix(self):
        with pytest.raises(DimensionMismatch, match=r"^matrix must have dimension >= 1$"):
            SymMatrix(np.zeros((0, 0)))

    @pytest.mark.parametrize(
        "entries",
        [np.array([[1, 1j], [-1j, 1]]), np.eye(2, dtype=complex), np.complex128(1.0),
         [[np.complex128(1j), 0.0], [0.0, 1.0]]],
        ids=["hermitian", "complex-identity", "complex-scalar", "complex-scalar-in-list"],
    )
    def test_rejects_complex_entries(self, entries):
        # The float cast would keep the real parts: [[1, 1j], [-1j, 1]] became the identity.
        with pytest.raises(TypeError, match=r"^matrix is complex; only real input is supported$"):
            SymMatrix(entries)

    @pytest.mark.parametrize("scale", [1e4, 1e6, 1e100])
    def test_roundoff_at_large_scale_is_not_asymmetry(self, scale):
        # q diag(w) q^T is symmetric up to roundoff of order eps * scale, which the
        # absolute 1e-12 refused from scale 1e4 on; the limit is scaled_tol of the matrix.
        for seed in range(50):
            rng = np.random.default_rng(seed)
            q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            a = q @ np.diag(rng.uniform(0.5, 1.5, 4) * scale) @ q.T
            assert np.array_equal(SymMatrix(a).entries, a / 2.0 + a.T / 2.0)

    def test_relative_asymmetry_is_refused_at_large_scale(self):
        rng = np.random.default_rng(0)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        a = q @ np.diag(rng.uniform(0.5, 1.5, 4) * 1e6) @ q.T
        a[0, 1] += 1e-6 * np.abs(a).max()
        with pytest.raises(ValueError, match="not symmetric"):
            SymMatrix(a)
        # Just past scaled_tol(1e-12, a) is refused; just inside it is averaged away.
        limit = scaled_tol(1e-12, a)
        for excess, refused in ((1.5, True), (0.5, False)):
            b = (a + a.T) / 2.0
            b[0, 1] += excess * limit
            if refused:
                with pytest.raises(ValueError, match="not symmetric"):
                    SymMatrix(b)
            else:
                SymMatrix(b)

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

    def test_leaves_its_input_alone(self):
        a = np.array([[1.0, 2.0 + 5e-13], [2.0, 3.0]])
        given = a.copy()
        m = SymMatrix(a)
        assert a.tobytes() == given.tobytes() and a.flags.writeable
        assert not np.shares_memory(m.entries, a)


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

    def test_threshold_scales_with_the_largest_singular_value(self):
        # Singular values 1e10 and 1e-6: the second is roundoff-sized at the first's scale.
        assert rank(np.diag([1e10, 1e-6])) == 1
        assert rank(np.diag([1e10, 1e2])) == 2

    def test_sym_matrix_reads_its_kept_spectrum(self, monkeypatch):
        # A SymMatrix's singular values are its |eigenvalues|: no SVD of the entries,
        # and the same ranks as the SVD of its entries as an array.
        def no_svd(*args, **kwargs):
            raise AssertionError("rank ran an SVD")

        rng = np.random.default_rng(33)
        forms = [SymMatrix(SEVENTHS), SymMatrix(np.diag([1e10, -1e2, 1e-6]))]
        for n in (2, 4, 6):
            g = rng.standard_normal((n - 1, n))
            forms += [SymMatrix(g.T @ g * scale) for scale in (1e-5, 1.0, 1e4)]
        expected = [rank(form.entries, tol) for form in forms for tol in (1e-9, 1e-3)]
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert [rank(form, tol) for form in forms for tol in (1e-9, 1e-3)] == expected
        assert expected[:4] == [2, 2, 2, 1]  # |-1e2| counts; 1e-6 is zero at 1e10's scale

    def test_overflowed_singular_value(self):
        # Singular values inf (2e308 overflows) and 3.35e291, LAPACK's roundoff for 0.
        assert rank(np.full((2, 2), 1e308)) == 1

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_input(self, capfd, bad):
        # An inf entry once counted as rank 0; NaN failed inside the SVD.
        with pytest.raises(ValueError) as raised:
            rank([[bad, 0.0]])
        assert type(raised.value) is ValueError
        assert str(raised.value) == "matrix has non-finite entries"
        assert capfd.readouterr() == ("", "")


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
        basis = np.eye(3)
        probes = [basis[i] for i in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                probes.append((basis[i] + basis[j]) / math.sqrt(2.0))
        rows = [quad_coeff_row(x) for x in probes]
        rhs = [twelfths_function(x) for x in probes]
        fit = solve_least_squares(rows, rhs)
        assert not fit.rank_deficient
        assert fit.residual <= 1e-10
        assert np.max(np.abs(sym_from_packed(fit.solution, 3) - TWELFTHS)) <= 1e-12

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
    def test_matches_the_lstsq_oracle(self):
        # Every system is gelsd's own answer, bit for bit, with gelsd's rank decision.
        for label, a, b in least_squares_cases():
            fit = solve_least_squares(a, b)
            x, rank_deficient = reference_least_squares(a, b)
            assert fit.solution.tobytes() == x.tobytes(), label
            assert fit.rank_deficient == rank_deficient, label
            r = a @ fit.solution - b
            # An exact power-of-2 lift keeps the squares of tiny residuals out of underflow.
            lift = 2.0**500 if np.abs(r).max(initial=0.0) < 1e-140 else 1.0
            assert fit.residual == float(np.linalg.norm(r * lift)) / lift, label

    def test_operator_is_the_single_solve_as_one_map(self):
        # L, the solution for B = I by the same solve, takes the rank of the one-column
        # solve, and L @ b is its solution to roundoff.
        for label, a, b in least_squares_cases():
            if label == "solution past the float range":  # L @ b overflows where x does
                continue
            operator, rank_deficient = _least_squares(a, np.eye(len(a)))
            fit = solve_least_squares(a, b)
            assert rank_deficient == fit.rank_deficient, label
            x = fit.solution
            assert np.linalg.norm(operator @ b - x) <= 1e-12 * kappa(a) * np.linalg.norm(x), label

    def test_every_solve_is_one_lstsq_call(self, monkeypatch):
        # One gelsd call and no QR per system: a single right-hand side, and B = I for
        # fit_operator on determined point sets, n + 1 random contexts of R^n for n = 2..8
        # and KS-18's 18 rays in R^4.
        rng = np.random.default_rng(35)
        point_sets = [np.vstack([random_orthonormal(rng, n) for _ in range(n + 1)])
                      for n in range(2, 9)]
        ks18 = parse_greechie_text(KS18_TEXT).realization
        point_sets.append(np.array(list(ks18.vectors.values())))
        qr, lstsq, calls = np.linalg.qr, np.linalg.lstsq, []

        def recorded_qr(*args, **kwargs):
            calls.append("qr")
            return qr(*args, **kwargs)

        def recorded_lstsq(*args, **kwargs):
            calls.append("lstsq")
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recorded_qr)
        monkeypatch.setattr(np.linalg, "lstsq", recorded_lstsq)
        for label, a, b in least_squares_cases():
            calls.clear()
            solve_least_squares(a, b)
            assert calls == ["lstsq"], label
        for points in point_sets:
            calls.clear()
            assert not fit_operator(points)[1]
            assert calls == ["lstsq"], points.shape

    def test_rank_deficient_tall_systems_are_flagged(self):
        # gelsd's minimum-norm answer, bit for bit, for the single solve and for B = I;
        # an exactly zero column or matrix too, without a LinAlgError.
        systems = [(a, b) for label, a, b in least_squares_cases() if "of rank 5" in label]
        systems.append((np.column_stack([np.ones(4), np.zeros(4)]), np.ones(4)))
        systems.append((np.zeros((3, 2)), np.ones(3)))
        assert [a.shape for a, _ in systems[:2]] == [(7, 6), (12, 7)]
        for a, b in systems:
            fit = solve_least_squares(a, b)
            assert fit.rank_deficient
            assert fit.solution.tobytes() == reference_least_squares(a, b)[0].tobytes()
            assert _least_squares(a, np.eye(len(a)))[1]  # the operator for B = I too

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

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_requires_positive_tol(self, tol):
        a, b = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.5, 0.5, 1.0]
        assert lp_feasible(a, b) is not None
        with pytest.raises(ValueError, match="tol must be positive"):
            lp_feasible(a, b, tol)

    def test_negative_rhs_infeasible(self):
        assert lp_feasible([[1.0]], [-1.0]) is None

    def test_zero_variables(self):
        assert lp_feasible(np.zeros((1, 0)), [0.0]) is not None
        assert lp_feasible(np.zeros((1, 0)), [1.0]) is None

    def test_pentagon_measure_system_is_infeasible(self, monkeypatch):
        # Decomposing the half/zero pentagon measure over its 11 two-valued
        # states: every state raises some zero-probability atom, so no
        # convex combination can work. The certificate is 0.1 on each a atom,
        # -0.2 on each b atom and 0 on the sum row: a state scores at most 0,
        # the measure 0.25.
        from gleason import builtin_wright_pentagon, enumerate_two_valued_states

        diagram, _, measure = builtin_wright_pentagon()
        states = enumerate_two_valued_states(diagram)
        assert len(states) == 11
        a = np.array(states).T
        rows = np.vstack([a, np.ones(len(states))])
        rhs = np.array([measure.values[atom] for atom in diagram.atoms] + [1.0])
        witness, certificate = lp_verdict(monkeypatch, rows, rhs)
        assert witness is None
        assert_farkas(rows, rhs, certificate)
        assert np.max(np.abs(certificate - ([0.1] * 5 + [-0.2] * 5 + [0.0]))) <= 1e-12

    def test_agrees_with_brute_force_enumeration(self, monkeypatch):
        # Every None comes with its Farkas certificate, checked here again.
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
            witness, certificate = lp_verdict(monkeypatch, a, b)
            expected = brute_force_lp_feasible(a, b)
            assert (witness is not None) == expected, f"trial {trial}: a={a} b={b}"
            if witness is None:
                assert_farkas(a, b, certificate)
            else:
                assert np.max(np.abs(a @ witness - b)) <= 1e-7
                assert np.min(witness) >= -1e-9

    def test_agrees_with_highs(self, monkeypatch):
        # Systems too large to enumerate: is b in the convex hull of the
        # columns of an integer, 0/1 (repeated columns, degenerate vertices)
        # or Gaussian matrix? b is a sparse convex combination, moved by +-1
        # along one axis in every other group of three trials. Every None comes
        # with its Farkas certificate, checked here again.
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
            witness, certificate = lp_verdict(monkeypatch, a, b)
            assert (witness is not None) == highs_lp_feasible(a, b), f"trial {trial}"
            if witness is None:
                assert_farkas(a, b, certificate)
            else:
                assert np.max(np.abs(a @ witness - b)) <= 1e-9
                # Each nonzero entry's column adds above the residual threshold.
                nonzero = witness != 0.0
                added = witness[nonzero] * np.linalg.norm(a, axis=0)[nonzero]
                assert np.all(added > scaled_tol(1e-9, b))

    def test_ill_conditioned_columns_against_highs(self, monkeypatch):
        # Gaussian columns scaled by 10^U(-3, 3) plus a sum row; b is a sparse convex
        # combination moved by 10^U(-8, 0) on one row, so some systems are infeasible by a
        # hair. Every None comes with its Farkas certificate, checked here again, and every
        # witness reproduces b; no witness is given where HiGHS finds no solution. Where the
        # certificate fails on roundoff the search gives up with RuntimeError ("undecided").
        for seed in range(100, 130):
            rng = np.random.default_rng(seed)
            for trial in range(6):
                m, n = int(rng.integers(2, 10)), int(rng.integers(10, 40))
                a = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3.0, 3.0, n)
                a = np.vstack([a, np.ones(n)])
                x0 = rng.random(n) * (rng.random(n) < 0.3)
                b = a @ (x0 / max(x0.sum(), 1e-9))
                b[-1] = 1.0
                row = int(rng.integers(m))
                b[row] += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, 0.0)
                try:
                    witness, certificate = lp_verdict(monkeypatch, a, b)
                except RuntimeError:
                    continue
                if witness is None:
                    assert_farkas(a, b, certificate)
                else:
                    assert highs_lp_feasible(a, b), f"seed {seed} trial {trial}"
                    assert np.min(witness) >= 0.0
                    assert np.max(np.abs(a @ witness - b)) <= scaled_tol(1e-9, b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lp_feasible([[1.0, 2.0]], [1.0, 2.0])

    def test_coefficients_are_judged_by_the_residual_threshold(self):
        # Every solution's entries are at or below tol = 1e-3, but each column adds
        # above the threshold 1e-3 = scaled_tol(1e-3, b): a coefficient is zero only
        # when its column adds at most that, so these feasible systems get witnesses.
        assert np.array_equal(lp_feasible([[10.0]], [5e-3], 1e-3), [5e-4])
        x = lp_feasible([[10.0, 1.0], [1.0, 10.0]], [5e-3, 5e-3], 1e-3)
        assert x is not None
        assert np.max(np.abs(x - 5e-3 / 11.0)) <= 1e-18
        # A zero column, whose norm is taken as 1/2, never enters.
        assert np.array_equal(lp_feasible([[0.0, 1.0]], [1e10]), [0.0, 1e10])

    def test_columns_whose_squares_overflow(self):
        # Each column is scaled by the power of 2 below its peak before its norm is taken,
        # so 1e200^2 is never formed; the witness is scaled back, here exactly.
        assert lp_feasible([[1e200, 1.0]], [1e200]).tolist() == [1.0, 0.0]
        assert lp_feasible([[1e200, 1.0]], [-1e200]) is None
        # A witness past the float range is no answer, and no certificate either.
        with pytest.raises(RuntimeError, match="without a certificate of infeasibility"):
            lp_feasible([[1e-310]], [1.0])

    def test_roundoff_stall_without_a_certificate_gives_up(self, monkeypatch):
        # An entering coefficient at or below its floor (> 0 in exact arithmetic) stops
        # the search at the last point, here x = 0, whose residual y = 1 is too large. The
        # system is feasible, and a^T y = 1 > 0 is no Farkas certificate: RuntimeError, which
        # `gleason greechie decompose` answers as "undecided" (exit 6), with no warning.
        def stalled(a, b, rcond=None):
            return np.zeros(a.shape[1]), None, None, None

        monkeypatch.setattr(np.linalg, "lstsq", stalled)
        with pytest.raises(RuntimeError) as raised:
            lp_feasible([[1.0, 1.0]], [1.0])
        message = "non-negative least squares stopped without a certificate of infeasibility"
        assert str(raised.value) == message

    def test_gives_up_after_3n_steps(self, monkeypatch):
        # The two columns take turns entering and leaving, so 3n steps do not settle;
        # `gleason greechie decompose` prints this message as its explanation (exit 6).
        monkeypatch.setattr(np.linalg, "lstsq", cycling_lstsq())
        with pytest.raises(RuntimeError) as raised:
            lp_feasible([[1.0, 1.0]], [1.0])
        assert str(raised.value) == "non-negative least squares did not settle in 3n steps"

    def test_matches_the_reference_bit_for_bit(self):
        # 0/1 rows and a sum row, as convex_decomposition builds them, with repeated
        # columns; b is a convex combination, moved by +-1 on one row in every other system.
        def outcome(solve, a, b):
            try:
                x = solve(a, b)
            except RuntimeError as exc:
                return "RuntimeError", str(exc)
            return None if x is None else x.tobytes()

        rng = np.random.default_rng(26)
        verdicts = []
        for trial in range(600):
            m, n = int(rng.integers(2, 10)), int(rng.integers(2, 40))
            a = np.vstack([(rng.random((m, n)) < 0.4).astype(float), np.ones(n)])
            x0 = rng.random(n) * (rng.random(n) < 0.3)
            b = a @ (x0 / max(x0.sum(), 1e-9))
            b[-1] = 1.0
            if trial % 2:
                b[int(rng.integers(m))] += rng.choice([-1.0, 1.0])
            want = outcome(reference_lp_feasible, a, b)
            assert outcome(lp_feasible, a, b) == want, f"trial {trial}"
            verdicts.append(want is None)
        assert 0 < sum(verdicts) < len(verdicts)  # both verdicts are exercised

    @pytest.mark.parametrize(
        "a, b",
        [
            ([[1.0, 1.0]], [math.inf]),
            ([[1.0, 1.0]], [math.nan]),
            ([[math.inf, 1.0]], [1.0]),
            ([[math.nan, 1.0]], [1.0]),
        ],
        ids=["inf-rhs", "nan-rhs", "inf-matrix", "nan-matrix"],
    )
    def test_rejects_non_finite_input(self, capfd, a, b):
        # An inf right-hand side was once answered with the witness 0, whose residual
        # is inf like its tolerance; NaN in a made LAPACK print to stderr.
        with pytest.raises(ValueError) as raised:
            lp_feasible(a, b)
        assert type(raised.value) is ValueError
        assert str(raised.value) == "feasibility system has non-finite entries"
        assert capfd.readouterr() == ("", "")


class TestOrthonormalize:
    def test_axis_scaling(self):
        q = orthonormalize([(2.0, 0.0), (0.0, 3.0)])
        assert np.allclose(q, np.eye(2), atol=0)

    def test_huge_orthogonal_rows(self):
        # v v^T overflows here; the Gram matrix of the rescaled rows does not.
        assert np.array_equal(orthonormalize([(1e200, 0.0), (0.0, 1e200)]), np.eye(2))

    def test_rows_near_the_float_limit(self):
        # Householder norms of these rows overflow (NaN rows once came out, without a
        # warning); the QR of the exactly rescaled rows gives the 45-degree basis.
        v = np.array([[1.5e308, 1.5e308], [1.5e308, -1.5e308]])
        q = orthonormalize(v)
        assert np.isfinite(q).all()
        assert np.array_equal(q, orthonormalize(v * 2.0**-1000))
        assert np.max(np.abs(q - np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))) <= 1e-15

    def test_verdict_matches_unscaled_gram_rule(self):
        # The verdict is sigma_min <= sqrt(tol) * max(1, sigma_max), from numpy's SVD of v.
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
            sigma = np.linalg.svd(v, compute_uv=False)
            dependent = np.count_nonzero(sigma > math.sqrt(tol) * max(1.0, sigma[0])) < k
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
        # tol * sigma_max^2 = 2e-9 (sigma_max^2 = 2); scaled by 2^20, both move with it.
        q = orthonormalize([(1.0, 0.0), (1.0, 1e-4)])
        assert np.max(np.abs(q - np.eye(2))) <= 1e-12
        assert np.array_equal(orthonormalize(2.0**20 * np.array([(1.0, 0.0), (1.0, 1e-4)])), q)
        for scale in (1.0, 2.0**20):
            with pytest.raises(LinearlyDependent):
                orthonormalize(scale * np.array([(1.0, 0.0), (1.0, 3e-5)]))

    @pytest.mark.parametrize("n", [1, 3])
    def test_no_vectors_give_the_empty_basis(self, n):
        # The Gram matrix of no rows has no maximum; numpy's reduction error once leaked here.
        q = orthonormalize(np.zeros((0, n)))
        assert (q.shape, q.dtype) == ((0, n), np.float64)

    def test_rejects_dependent_input(self):
        with pytest.raises(LinearlyDependent):
            orthonormalize([(1.0, 0.0), (2.0, 0.0)])
        with pytest.raises(LinearlyDependent):
            orthonormalize([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_input(self, capfd, bad):
        # An inf component was once called dependent; NaN failed inside the SVD.
        with pytest.raises(ValueError) as raised:
            orthonormalize([[bad, 0.0]])
        assert type(raised.value) is ValueError
        assert str(raised.value) == "vectors have non-finite components"
        assert capfd.readouterr() == ("", "")


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

    def test_quadratic_values_match_each_row(self):
        rng = np.random.default_rng(12)
        a = random_symmetric(rng, 4, scale=2.0).entries
        x = rng.standard_normal((6, 4))
        got = quadratic_values(x, a)
        assert got.shape == (6,)
        assert np.max(np.abs(got - [v @ a @ v for v in x])) <= 1e-12

    @pytest.mark.parametrize("trace", [None, 1.0])
    def test_fit_form_is_the_packed_least_squares_fit(self, trace):
        # Bit for bit the rows and unpacking written out by hand; with the trace row,
        # fit_operator is the solve for an explicit B = I on those rows.
        rng = np.random.default_rng(13)
        for n, k in ((2, 4), (3, 6), (3, 12), (4, 20)):
            points = unit_rows(rng.standard_normal((k, n)))
            values = rng.uniform(0.0, 1.0, k)
            rows = quad_coeff_row(points)
            if trace is None:
                want = solve_least_squares(rows, values)
                got = fit_form(points, values)
                assert got.solution.tobytes() == sym_from_packed(want.solution, n).tobytes()
                assert (got.residual, got.rank_deficient) == (want.residual, want.rank_deficient)
            else:
                rows = np.vstack([rows, np.equal(*packed_index(n))])
                operator, rank_deficient = _least_squares(rows, np.eye(len(rows)))
                got = fit_operator(points)
                assert (got[0].tobytes(), got[1]) == (operator.tobytes(), rank_deficient)

    def test_fit_form_recovers_a_form_and_reports_rank(self):
        rng = np.random.default_rng(14)
        a = random_symmetric(rng, 3, scale=1.0).entries
        points = unit_rows(rng.standard_normal((9, 3)))
        fit = fit_form(points, quadratic_values(points, a))
        assert np.max(np.abs(fit.solution - a)) <= 1e-12
        assert fit.residual <= 1e-12 and not fit.rank_deficient
        # Two orthonormal bases and the trace: 7 rows of rank 5 for 6 unknowns.
        bases = np.vstack([random_orthonormal(rng, 3), random_orthonormal(rng, 3)])
        assert fit_operator(bases)[1]

    def test_fit_form_refuses_an_overflowing_row_without_a_warning(self):
        # quad_coeff_row builds the rows under errstate(over="ignore"); the solve then
        # refuses the inf.
        points = np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]])
        rows = [[math.inf, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 2.0]]
        assert quad_coeff_row(points).tolist() == rows
        with pytest.raises(ValueError, match="non-finite entries"):
            fit_form(points, np.ones(3))
        with pytest.raises(ValueError, match="non-finite entries"):
            fit_operator(points)

    def test_fit_operator_is_the_trace_fit_as_one_map(self):
        # Determined, 7 x 6 of rank 5, wide (9 x 10, 13 x 21) and kernel-reduced point
        # sets: L @ [v, 1] is the least-squares fit of the rows plus the trace row, to roundoff.
        rng = np.random.default_rng(34)
        sets = [np.vstack([random_orthonormal(rng, n) for _ in range(count)])
                for n, count in ((3, 4), (4, 5), (6, 7), (3, 2), (4, 2), (6, 2))]
        sets.append(sets[2] @ random_orthonormal(rng, 6)[:4].T)  # rays on a 4-space
        for points in sets:
            n = points.shape[1]
            operator, rank_deficient = fit_operator(points)
            assert not operator.flags.writeable
            rows = np.vstack([quad_coeff_row(points), np.equal(*packed_index(n))])
            assert rank_deficient == (np.linalg.matrix_rank(rows) < rows.shape[1])
            for _ in range(3):
                rhs = np.append(rng.uniform(0.0, 1.0, len(points)), 1.0)
                fit = solve_least_squares(rows, rhs)
                assert fit.rank_deficient == rank_deficient
                bound = 1e-12 * kappa(rows) * np.linalg.norm(fit.solution)
                assert np.linalg.norm(operator @ rhs - fit.solution) <= bound

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
            "dim x\n",
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

    def test_format_rejects_a_non_square_matrix(self):
        with pytest.raises(DimensionMismatch, match=r"^expected a square matrix, got shape \(1, 3\)"):
            format_matrix_text([[1.0, 2.0, 3.0]])

    def test_error_names_the_file_line(self):
        # comment and blank lines count: the short row is line 5 of the text
        with pytest.raises(MatrixFormatError, match="line 5"):
            parse_matrix_text("# c\n\ndim 2\n0.5 0\n0 0.5 1\n")

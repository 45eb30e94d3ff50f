import math

import numpy as np
import pytest

from gleason import frame
from gleason.density import DensityOperator, StateVector, pure_state, spectral_mixture
from gleason.frame import (
    FrameFunction,
    FrameOracle,
    NotAFrameFunction,
    NotPositive,
    NotQuantum,
    NotUnit,
    Signature,
    classify,
    consistency_limit,
    evaluate,
    from_density,
    reconstruct_density,
    reconstruct_form,
    reconstruct_from_samples,
    signature,
)
from gleason.numerics import (
    DimensionMismatch,
    SymMatrix,
    eigh,
    quad_coeff_row,
    rank,
    solve_least_squares,
)
from support import (
    SEVENTHS,
    TWELFTHS,
    random_density,
    random_orthonormal,
    random_symmetric,
    random_unit,
    reference_reconstruct_form,
    sevenths_function,
    twelfths_function,
    well_conditioned_transform,
)

SQ2 = math.sqrt(2.0)


class TestEvaluate:
    def test_axis_pure_state_square(self):
        f = from_density(pure_state(StateVector(np.array([1.0, 0.0, 0.0]))))
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = random_unit(rng, 3)
            assert abs(evaluate(f, x) - x[0] ** 2) <= 1e-12

    def test_entangled_pair_forms(self):
        rng = np.random.default_rng(2)
        cases = [
            (np.array([1.0, 0.0, 0.0, 1.0]) / SQ2, lambda x: 0.5 * (x[0] + x[3]) ** 2),
            (np.array([1.0, 0.0, 0.0, -1.0]) / SQ2, lambda x: 0.5 * (x[0] - x[3]) ** 2),
            (np.array([0.0, 1.0, 1.0, 0.0]) / SQ2, lambda x: 0.5 * (x[1] + x[2]) ** 2),
            (np.array([0.0, 1.0, -1.0, 0.0]) / SQ2, lambda x: 0.5 * (x[1] - x[2]) ** 2),
        ]
        for vector, closed_form in cases:
            f = from_density(pure_state(StateVector(vector)))
            for _ in range(50):
                x = random_unit(rng, 4)
                assert abs(evaluate(f, x) - closed_form(x)) <= 1e-12

    def test_rayleigh_at_eigenvectors(self):
        rng = np.random.default_rng(3)
        a = random_symmetric(rng, 4, scale=2.0)
        dec = eigh(a)
        f = FrameFunction(a)
        for lam, vec in zip(dec.eigenvalues, dec.eigenvectors.T):
            assert abs(evaluate(f, vec) - lam) <= 1e-10

    def test_ray_symmetry_exact(self):
        rng = np.random.default_rng(4)
        f = FrameFunction(random_symmetric(rng, 3, scale=1.0))
        for _ in range(20):
            x = random_unit(rng, 3)
            assert evaluate(f, x) == evaluate(f, -x)

    def test_value_near_the_float_limit(self):
        # x @ A overflows float64 here, although x^T A x does not; no warning may escape.
        f = FrameFunction(SymMatrix([[1e308, 1.7e308], [1.7e308, -1e308]]))
        assert evaluate(f, np.array([1.0, 1.0]) / SQ2) == 1.6999999999999997e308
        assert evaluate(f, np.array([1.0, -1.0]) / SQ2) == -1.6999999999999997e308
        assert evaluate(f, [1.0, 0.0]) == 1e308

    def test_ordinary_forms_keep_the_plain_product(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 5, 8):
            for scale in (1e-300, 1e-6, 1.0, 1e6, 1e150):
                a = random_symmetric(rng, n, scale)
                f = FrameFunction(a)
                for _ in range(10):
                    x = random_unit(rng, n)
                    assert evaluate(f, x) == float(x @ a.entries @ x)

    def test_rejects_non_unit(self):
        f = FrameFunction(SymMatrix(np.eye(2)))
        with pytest.raises(NotUnit):
            evaluate(f, np.array([1.0, 1.0]))
        with pytest.raises(NotUnit):
            evaluate(f, np.array([math.nan, 0.0]))

    @pytest.mark.filterwarnings("error")
    def test_oversize_point_is_refused_without_a_warning(self):
        # Squaring it overflows; the norm the check takes does not.
        f = FrameFunction(SymMatrix(np.eye(2)))
        with pytest.raises(NotUnit, match=r"^\|x\| = 1e\+200 is not 1$"):
            evaluate(f, [1e200, 0.0])

    def test_rejects_a_point_of_another_dimension(self):
        f = FrameFunction(SymMatrix(np.eye(2)))
        with pytest.raises(DimensionMismatch, match=r"^point has dimension 3, form has 2$"):
            evaluate(f, np.array([1.0, 0.0, 0.0]))


class TestFromDensity:
    def test_mixture_of_entangled_projectors(self):
        p = 0.3
        rho = DensityOperator(
            SymMatrix(
                p * np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0
                + (1 - p) * np.outer([0, 1, 1, 0], [0, 1, 1, 0]) / 2.0
            )
        )
        f = from_density(rho)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = random_unit(rng, 4)
            want = 0.5 * (p * (x[0] + x[3]) ** 2 + (1 - p) * (x[1] + x[2]) ** 2)
            assert abs(evaluate(f, x) - want) <= 1e-12

    def test_diagonal_mixture(self):
        p = 0.65
        f = from_density(DensityOperator(SymMatrix(np.diag([p, 1.0 - p, 0.0, 0.0]))))
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = random_unit(rng, 4)
            want = p * x[0] ** 2 + (1.0 - p) * x[1] ** 2
            assert abs(evaluate(f, x) - want) <= 1e-12

    def test_maximally_mixed_is_constant(self):
        f = from_density(DensityOperator(SymMatrix(np.eye(3) / 3.0)))
        rng = np.random.default_rng(7)
        for _ in range(20):
            assert abs(evaluate(f, random_unit(rng, 3)) - 1.0 / 3.0) <= 1e-12

    def test_weight_is_one(self):
        rng = np.random.default_rng(8)
        assert abs(from_density(random_density(rng, 5)).weight - 1.0) <= 1e-12


class TestReconstruct:
    def test_orthogonal_example(self):
        rho = reconstruct_density(FrameOracle(sevenths_function, dim=3))
        assert np.max(np.abs(rho.matrix.entries - SEVENTHS)) <= 1e-12
        weights = sorted(w for w, _ in spectral_mixture(rho))
        assert abs(weights[0] - 3.0 / 7.0) <= 1e-12
        assert abs(weights[1] - 4.0 / 7.0) <= 1e-12

    def test_nonorthogonal_example(self):
        rho = reconstruct_density(FrameOracle(twelfths_function, dim=3))
        assert np.max(np.abs(rho.matrix.entries - TWELFTHS)) <= 1e-12

    def test_pure_round_trip(self):
        rho = reconstruct_density(FrameOracle(lambda x: x[0] ** 2, dim=3))
        assert np.max(np.abs(rho.matrix.entries - np.diag([1.0, 0.0, 0.0]))) <= 1e-14

    def test_round_trip_random_densities(self):
        rng = np.random.default_rng(9)
        for n in range(2, 7):
            for _ in range(10):
                rho = random_density(rng, n)
                oracle = FrameOracle.from_frame_function(from_density(rho))
                again = reconstruct_density(oracle)
                assert np.max(np.abs(again.matrix.entries - rho.matrix.entries)) <= 1e-10

    def test_rejects_non_quadratic_oracle(self):
        for reconstruct in (reconstruct_density, reconstruct_form):
            with pytest.raises(NotAFrameFunction):
                reconstruct(FrameOracle(lambda x: float(x[0] ** 4), dim=3))

    def test_rejects_non_quadratic_oracle_at_large_scale(self):
        with pytest.raises(NotAFrameFunction):
            reconstruct_form(FrameOracle(lambda x: 1e9 * float(x[0] ** 4), dim=3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("row", range(16))
    def test_rejects_non_finite_value(self, bad, row):
        # n = 3: six polarization rows, then the ten check rows.
        calls = []

        def evaluator(x):
            calls.append(x)
            return bad if len(calls) == row + 1 else sevenths_function(x)

        with pytest.raises(ValueError, match=f"oracle value {bad} is not finite"):
            reconstruct_form(FrameOracle(evaluator, dim=3))
        assert len(calls) == 16

    def test_consistency_limit_is_absolute_up_to_one(self):
        assert consistency_limit([0.5, -1.0, 0.0]) == 1e-7
        assert consistency_limit([]) == 1e-7
        assert consistency_limit([2.0, -4e9]) == 1e-7 * 4e9

    def test_flags_wrong_weight(self):
        with pytest.raises(NotQuantum) as info:
            reconstruct_density(FrameOracle(lambda x: 2.0 * x[0] ** 2, dim=3))
        assert abs(info.value.trace - 2.0) <= 1e-12
        assert np.max(np.abs(info.value.form.entries - np.diag([2.0, 0.0, 0.0]))) <= 1e-12

    def test_flags_indefinite_form(self):
        oracle = FrameOracle(lambda x: 1.5 * x[0] ** 2 - 0.5 * x[1] ** 2, dim=2)
        with pytest.raises(NotQuantum) as info:
            reconstruct_density(oracle)
        assert info.value.min_eigenvalue < -1e-6

    def test_requires_dimension_two_or_more(self):
        for reconstruct in (reconstruct_density, reconstruct_form):
            with pytest.raises(DimensionMismatch):
                reconstruct(FrameOracle(lambda x: x[0] ** 2, dim=1))

    def test_rotated_oracle_gives_the_rotated_form(self):
        # x -> f(Q^T x) is the form Q A Q^T for orthogonal Q.
        rng = np.random.default_rng(22)
        for n in range(2, 7):
            for _ in range(10):
                a = random_symmetric(rng, n)
                q = random_orthonormal(rng, n)
                f = FrameFunction(a)
                form = reconstruct_form(FrameOracle(lambda x: evaluate(f, q.T @ x), dim=n))
                want = q @ a.entries @ q.T
                assert np.max(np.abs(form.entries - want)) <= consistency_limit(want)

    def test_reconstruct_form_without_checks(self):
        form = reconstruct_form(FrameOracle(lambda x: 2.0 * x[0] ** 2, dim=2))
        assert np.max(np.abs(form.entries - np.diag([2.0, 0.0]))) <= 1e-14


def recording_oracle(evaluator, n):
    """An oracle that calls ``evaluator`` and keeps a copy of every point it was given."""
    points = []

    def record(x):
        points.append(np.array(x))
        return evaluator(x)

    return FrameOracle(record, dim=n), points


class TestProbePlan:
    """reconstruct_form against the probe-by-probe reference loop in tests/support.py."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_reference_loop(self, n):
        rng = np.random.default_rng(1050 + n)
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9):
            quadratic = random_symmetric(rng, n, scale).entries
            for evaluator in (lambda x: x @ quadratic @ x, lambda x: scale * x[0] ** 4):
                results = []
                for reconstruct in (reference_reconstruct_form, reconstruct_form):
                    oracle, points = recording_oracle(evaluator, n)
                    try:
                        result = reconstruct(oracle).entries
                    except NotAFrameFunction as exc:
                        result = str(exc)
                    results.append((result, np.array(points)))
                (want, want_points), (got, got_points) = results
                if isinstance(want, str):
                    assert got == want
                else:
                    assert np.array_equal(got, want)
                assert np.array_equal(got_points, want_points)
                assert len(got_points) == n * (n + 1) // 2 + 10

    def test_deviation_past_the_float_limit(self):
        # Form diag(-1e308, 0), then 1e308 at every check probe: some deviations overflow.
        messages = []
        for reconstruct in (reference_reconstruct_form, reconstruct_form):
            values = iter([-1e308, 0.0, -0.5e308])
            with pytest.raises(NotAFrameFunction) as raised:
                reconstruct(FrameOracle(lambda x: next(values, 1e308), dim=2))
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

    def test_second_call_builds_no_plan(self):
        oracle = FrameOracle(sevenths_function, dim=3)
        reconstruct_form(oracle)
        before = frame._probe_plan.cache_info()
        reconstruct_form(oracle)
        after = frame._probe_plan.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 1)

    def test_evaluator_cannot_write_to_the_plan(self):
        def scribble(x):
            x *= 2.0
            return float(x @ SEVENTHS @ x)

        with pytest.raises(ValueError, match="read-only"):
            reconstruct_form(FrameOracle(scribble, dim=3))
        form = reconstruct_form(FrameOracle(sevenths_function, dim=3))
        assert np.max(np.abs(form.entries - SEVENTHS)) <= 1e-12


class TestReconstructFromSamples:
    def test_exact_probe_table(self):
        rng = np.random.default_rng(10)
        a = random_symmetric(rng, 3, scale=1.0)
        probes = [random_unit(rng, 3) for _ in range(12)]
        values = [float(x @ a.entries @ x) for x in probes]
        fitted = reconstruct_from_samples(probes, values)
        assert fitted.residual <= 1e-10
        assert not fitted.rank_deficient
        assert np.max(np.abs(fitted.frame_function.form.entries - a.entries)) <= 1e-9
        # Same rows as built one probe at a time, so the same bits.
        by_row = solve_least_squares(np.array([quad_coeff_row(x) for x in probes]), values)
        assert fitted.residual == by_row.residual

    def test_inconsistent_probes_have_large_residual(self):
        probes = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
        fitted = reconstruct_from_samples(probes, [0.0, 1.0])
        assert fitted.residual > 1e-7

    def test_underdetermined_probe_set_is_flagged(self):
        fitted = reconstruct_from_samples([np.array([1.0, 0.0])], [1.0])
        assert fitted.rank_deficient

    def test_mismatched_lengths(self):
        with pytest.raises(DimensionMismatch):
            reconstruct_from_samples([np.array([1.0, 0.0])], [1.0, 2.0])

    def test_overflowing_probe_is_refused_without_a_warning(self):
        # (1e200)^2 overflows its row to inf; tier-1 runs with warnings as errors.
        with pytest.raises(ValueError, match="^least-squares system has non-finite entries$"):
            reconstruct_from_samples([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 0.0, 0.5])


class TestSignature:
    def test_sevenths(self):
        sig = signature(FrameFunction(SymMatrix(SEVENTHS)))
        assert sig == Signature(positive=2, negative=0, zero=1)

    def test_twelfths(self):
        sig = signature(FrameFunction(SymMatrix(TWELFTHS)))
        assert sig == Signature(positive=3, negative=0, zero=0)

    def test_zero_form(self):
        assert signature(FrameFunction(SymMatrix(np.zeros((3, 3))))) == Signature(0, 0, 3)

    def test_boundary_values_count_as_zero(self):
        tol = 1e-9
        f = FrameFunction(SymMatrix(np.diag([2e-9, 1e-9, -1e-9])))
        assert signature(f, tol) == Signature(positive=1, negative=0, zero=2)

    def test_requires_positive_tol(self):
        for tol in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                signature(FrameFunction(SymMatrix(TWELFTHS)), tol)

    def test_parts_sum_to_dimension(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = FrameFunction(random_symmetric(rng, 5))
            sig = signature(f)
            assert sig.positive + sig.negative + sig.zero == 5

    def test_congruence_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            eigenvalues = np.where(
                rng.random(n) < 0.25,
                0.0,
                rng.uniform(0.5, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n),
            )
            basis = random_orthonormal(rng, n)
            a = SymMatrix(basis.T @ np.diag(eigenvalues) @ basis)
            s = well_conditioned_transform(rng, n)
            transformed = SymMatrix(s.T @ a.entries @ s)
            assert signature(FrameFunction(transformed)) == signature(FrameFunction(a))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e10, 1e100, 1e300])
    def test_scaling_keeps_the_inertia(self, scale):
        # Rank-2 forms v v^T - w w^T / 2 in R^3: one positive square, one negative, one zero,
        # however large the form; its eigenvalue near 0 is roundoff at the form's own scale.
        rng = np.random.default_rng(21)
        for _ in range(200):
            v, w = random_unit(rng, 3), random_unit(rng, 3)
            form = SymMatrix(scale * (np.outer(v, v) - 0.5 * np.outer(w, w)))
            assert signature(FrameFunction(form)) == Signature(positive=1, negative=1, zero=1)
            assert rank(form) == 2

    def test_overflowed_eigenvalue_is_not_zero(self):
        # Eigenvalues 2e308 (past the float range) and -1e308 twice; the trace is 0. An inf
        # peak once made the threshold inf, and every eigenvalue read as zero.
        a = 1e308
        form = SymMatrix(np.array([[0.0, a, a], [a, 0.0, a], [a, a, 0.0]]))
        assert signature(FrameFunction(form)) == Signature(positive=1, negative=2, zero=0)


class TestClassify:
    def test_pure_state_is_type_one(self):
        rho = pure_state(StateVector(np.array([0.0, 1.0, 0.0])))
        assert classify(from_density(rho)) == 1

    def test_sevenths_is_type_two(self):
        assert classify(FrameFunction(SymMatrix(SEVENTHS))) == 2

    def test_maximally_mixed_is_full_type(self):
        assert classify(from_density(DensityOperator(SymMatrix(np.eye(3) / 3.0)))) == 3

    def test_rejects_indefinite_forms(self):
        with pytest.raises(NotPositive):
            classify(FrameFunction(SymMatrix(np.diag([1.0, -1.0]))))


class TestFrameFunctionProperties:
    def test_weight_additivity_over_random_bases(self):
        rng = np.random.default_rng(13)
        for n in (3, 4):
            f = FrameFunction(random_symmetric(rng, n, scale=1.0))
            for _ in range(100):
                basis = random_orthonormal(rng, n)
                total = math.fsum(evaluate(f, e) for e in basis)
                assert abs(total - f.weight) <= 1e-9

    def test_probability_additivity_on_orthogonal_pairs(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            rho = random_density(rng, 4)
            f = from_density(rho)
            basis = random_orthonormal(rng, 4)
            u, v = basis[0], basis[1]
            projector_sum = np.outer(u, u) + np.outer(v, v)
            expected = float(np.sum(rho.matrix.entries * projector_sum))
            assert abs(evaluate(f, u) + evaluate(f, v) - expected) <= 1e-10

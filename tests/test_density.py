import math
import warnings

import numpy as np
import pytest

from gleason.density import (
    BadWeights,
    DensityOperator,
    NotAProjector,
    NotNormalized,
    NotPositiveSemidefinite,
    Projector,
    StateVector,
    TraceNotOne,
    born_probability,
    mix,
    pure_state,
    purity,
    spectral_mixture,
)
from gleason.frame import FrameFunction, evaluate
from gleason.numerics import DimensionMismatch, SymMatrix
from support import (
    SEVENTHS,
    random_density,
    random_orthonormal,
    random_unit,
    reference_spectral_mixture,
)

SQ2 = math.sqrt(2.0)


class TestStateVector:
    def test_keeps_exact_unit_vector(self):
        x = StateVector(np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(x.components, [1.0, 0.0, 0.0])
        assert x.dim == 3

    def test_renormalizes_small_drift(self):
        x = StateVector(np.array([1.0 + 1e-8, 0.0]))
        assert abs(np.linalg.norm(x.components) - 1.0) <= 1e-15

    def test_rejects_large_deviation(self):
        with pytest.raises(NotNormalized):
            StateVector(np.array([1.0, 1.0]))
        with pytest.raises(NotNormalized):
            StateVector(np.array([math.nan, 0.0]))

    @pytest.mark.parametrize("exponent", [-300, -150, 0, 150, 300])
    def test_norm_is_numpys_bit_for_bit(self, exponent):
        # Contiguous, strided, reversed and 2-D input; near 1 the components are x / norm
        # with np.linalg.norm's bits, elsewhere the error names math.hypot's norm, which
        # neither overflows nor underflows, and nothing warns.
        rng = np.random.default_rng(exponent + 1000)
        for n in (1, 2, 3, 4, 7, 33):
            for _ in range(10):
                x = rng.standard_normal(2 * n)
                if exponent == 0:
                    x *= (1.0 + rng.uniform(-1e-7, 1e-7)) / np.linalg.norm(x[::2])
                x *= 10.0**exponent
                for v in (x[:n], x[::2], x[-2::-2], x[:n].reshape(1, n)):
                    checked = math.hypot(*v.reshape(-1).tolist())
                    with warnings.catch_warnings(record=True) as seen:
                        warnings.simplefilter("always")
                        if abs(checked - 1.0) <= 1e-6:
                            got = StateVector(v).components
                            assert got.tobytes() == (v.reshape(-1) / np.linalg.norm(v)).tobytes()
                        else:
                            with pytest.raises(NotNormalized) as raised:
                                StateVector(v)
                            message = f"vector norm {checked:.6g} is not within 1e-6 of 1"
                            assert str(raised.value) == message
                    assert [str(w.message) for w in seen] == []

    @pytest.mark.filterwarnings("error")
    def test_oversize_vector_is_refused_without_a_warning(self):
        # Squaring it overflows; the norm the check takes does not.
        message = r"^vector norm 1\.41421e\+200 is not within 1e-6 of 1$"
        with pytest.raises(NotNormalized, match=message):
            StateVector([1e200, 1e200])

    def test_rejects_an_empty_vector(self):
        with pytest.raises(DimensionMismatch, match=r"^state vector must have dimension >= 1$"):
            StateVector(np.zeros(0))

    @pytest.mark.parametrize(
        "components", [np.array([1j, 0.0]), np.array([1.0, 0.0], dtype=complex)], ids=["i", "real"]
    )
    def test_rejects_complex_components(self, components):
        # The float cast kept (0, 0) of (i, 0), reported as "vector norm 0".
        with pytest.raises(TypeError, match=r"^state vector is complex; only real input"):
            StateVector(components)


class TestPureState:
    def test_axis_state(self):
        rho = pure_state(StateVector(np.array([1.0, 0.0, 0.0])))
        assert np.array_equal(rho.matrix.entries, np.diag([1.0, 0.0, 0.0]))

    def test_entangled_corner_matrix(self):
        rho = pure_state(StateVector(np.array([1.0, 0.0, 0.0, 1.0]) / SQ2))
        expected = np.zeros((4, 4))
        for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
            expected[i, j] = 0.5
        assert np.max(np.abs(rho.matrix.entries - expected)) <= 1e-15

    def test_second_axis(self):
        rho = pure_state(StateVector(np.array([0.0, 1.0])))
        assert np.array_equal(rho.matrix.entries, np.diag([0.0, 1.0]))

    def test_random_pure_states_are_pure(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 5):
            for _ in range(10):
                rho = pure_state(StateVector(random_unit(rng, n)))
                report = purity(rho)
                assert report.is_pure
                assert abs(rho.matrix.trace() - 1.0) <= 1e-12


class TestDensityValidation:
    def test_rejects_bad_trace(self):
        with pytest.raises(TraceNotOne):
            DensityOperator(SymMatrix(np.diag([0.5, 0.4])))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPositiveSemidefinite):
            DensityOperator(SymMatrix(np.diag([1.1, -0.1])))

    def test_tolerates_roundoff_negatives(self):
        rho = DensityOperator(SymMatrix(np.diag([1.0 + 1e-10, -1e-10])))
        assert rho.dim == 2


class TestMix:
    def test_bell_mixture_block_matrix(self):
        p = 0.3
        psi = pure_state(StateVector(np.array([1.0, 0.0, 0.0, 1.0]) / SQ2))
        phi = pure_state(StateVector(np.array([0.0, 1.0, 1.0, 0.0]) / SQ2))
        rho = mix([(p, psi), (1.0 - p, phi)])
        expected = np.zeros((4, 4))
        expected[np.ix_((0, 3), (0, 3))] = p / 2.0
        expected[np.ix_((1, 2), (1, 2))] = (1.0 - p) / 2.0
        assert np.max(np.abs(rho.matrix.entries - expected)) <= 1e-15

    def test_single_component_identity(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 3)
        again = mix([(1.0, rho)])
        assert np.max(np.abs(again.matrix.entries - rho.matrix.entries)) <= 1e-15

    def test_nonorthogonal_half_half(self):
        first = pure_state(StateVector(np.array([1.0, 0.0, 0.0])))
        second = pure_state(StateVector(np.array([1.0, 1.0, 0.0]) / SQ2))
        rho = mix([(0.5, first), (0.5, second)])
        expected = np.array([[0.75, 0.25, 0.0], [0.25, 0.25, 0.0], [0.0, 0.0, 0.0]])
        assert np.max(np.abs(rho.matrix.entries - expected)) <= 1e-15

    def test_trace_linearity(self):
        rng = np.random.default_rng(8)
        parts = [random_density(rng, 4) for _ in range(3)]
        weights = np.array([0.2, 0.3, 0.5])
        rho = mix(list(zip(weights, parts)))
        assert abs(rho.matrix.trace() - 1.0) <= 1e-12

    def test_rejects_bad_weights(self):
        rho = pure_state(StateVector(np.array([1.0, 0.0])))
        with pytest.raises(BadWeights):
            mix([(0.5, rho), (0.6, rho)])
        with pytest.raises(BadWeights):
            mix([(-0.1, rho), (1.1, rho)])
        with pytest.raises(BadWeights):
            mix([])
        with pytest.raises(BadWeights, match="weights sum to nan"):
            mix([(math.nan, rho), (1.0, rho)])
        with pytest.raises(BadWeights, match="negative weight -0.5"):
            mix([(math.nan, rho), (-0.5, rho), (1.5, rho)])

    def test_rejects_mixed_dimensions(self):
        r2 = pure_state(StateVector(np.array([1.0, 0.0])))
        r3 = pure_state(StateVector(np.array([1.0, 0.0, 0.0])))
        with pytest.raises(DimensionMismatch):
            mix([(0.5, r2), (0.5, r3)])


class TestBornProbability:
    def test_aligned_projector(self):
        rho = pure_state(StateVector(np.array([1.0, 0.0, 0.0])))
        e = Projector(SymMatrix(np.diag([1.0, 0.0, 0.0])))
        assert born_probability(rho, e) == 1.0

    def test_maximally_mixed_is_half_everywhere(self):
        rho = DensityOperator(SymMatrix(np.diag([0.5, 0.5])))
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = random_unit(rng, 2)
            e = Projector(SymMatrix(np.outer(x, x)))
            assert abs(born_probability(rho, e) - 0.5) <= 1e-12

    def test_sevenths_against_frame_evaluation(self):
        rho = DensityOperator(SymMatrix(SEVENTHS))
        x = np.array([0.0, 1.0, -1.0]) / SQ2
        e = Projector(SymMatrix(np.outer(x, x)))
        p = born_probability(rho, e)
        assert abs(p - 4.0 / 7.0) <= 1e-12
        assert abs(p - evaluate(FrameFunction(rho.matrix), x)) <= 1e-12

    def test_additive_over_orthogonal_projectors(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            rho = random_density(rng, 4)
            basis = random_orthonormal(rng, 4)
            e1 = Projector(SymMatrix(np.outer(basis[0], basis[0])))
            e2 = Projector(SymMatrix(np.outer(basis[1], basis[1])))
            both = Projector(
                SymMatrix(np.outer(basis[0], basis[0]) + np.outer(basis[1], basis[1]))
            )
            total = born_probability(rho, e1) + born_probability(rho, e2)
            assert abs(total - born_probability(rho, both)) <= 1e-10

    def test_resolution_of_identity(self):
        rng = np.random.default_rng(19)
        for n in (2, 3, 5):
            rho = random_density(rng, n)
            basis = random_orthonormal(rng, n)
            total = sum(
                born_probability(rho, Projector(SymMatrix(np.outer(e, e)))) for e in basis
            )
            assert abs(total - 1.0) <= 1e-9

    def test_dimension_mismatch(self):
        rho = DensityOperator(SymMatrix(np.diag([0.5, 0.5])))
        e = Projector(SymMatrix(np.diag([1.0, 0.0, 0.0])))
        with pytest.raises(DimensionMismatch):
            born_probability(rho, e)


class TestProjector:
    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError):
            Projector(SymMatrix(np.diag([0.5, 0.5])))

    @pytest.mark.parametrize("entries", [np.diag([1e200, 0.0]), [[1e200, 1e200], [1e200, -1e200]]])
    def test_overflowing_square_is_refused_without_a_warning(self, entries):
        # e @ e overflows (and, in the second, meets inf - inf); tier-1 runs with warnings as errors.
        with pytest.raises(NotAProjector, match="^matrix is not idempotent$"):
            Projector(SymMatrix(entries))

    def test_rejects_eigenvalues_off_zero_and_one(self):
        # 1.5e-9 v v^T passes the idempotence test (max |A^2 - A| = 7.5e-10), not the spectrum's.
        v = np.array([1.0, 1.0]) / SQ2
        entries = 1.5e-9 * np.outer(v, v)
        assert float(np.max(np.abs(entries @ entries - entries))) <= 1e-9
        with pytest.raises(NotAProjector, match=r"^eigenvalues are not all in \{0, 1\}$"):
            Projector(SymMatrix(entries))

    def test_onto_span(self):
        e = Projector.onto([(1.0, 1.0, 0.0), (1.0, 0.0, 0.0)])
        assert e.rank_hint == 2
        assert np.max(np.abs(e.matrix.entries - np.diag([1.0, 1.0, 0.0]))) <= 1e-12

    def test_onto_no_vectors_is_the_zero_projector(self):
        e = Projector.onto(np.zeros((0, 3)))
        assert e.rank_hint == 0
        assert np.array_equal(e.matrix.entries, np.zeros((3, 3)))

    def test_rank_hint_is_derived(self):
        with pytest.raises(TypeError):
            Projector(SymMatrix(np.diag([1.0, 0.0])), rank_hint=5)
        assert Projector(SymMatrix(np.diag([1.0, 0.0]))).rank_hint == 1


class TestPurity:
    def test_pure_state(self):
        report = purity(pure_state(StateVector(np.array([1.0, 0.0, 0.0]))))
        assert report.is_pure
        assert report.tr_rho_sq == 1.0

    def test_maximally_mixed(self):
        report = purity(DensityOperator(SymMatrix(np.diag([0.5, 0.5]))))
        assert not report.is_pure
        assert abs(report.tr_rho_sq - 0.5) <= 1e-15

    def test_rank_two_mixture(self):
        report = purity(DensityOperator(SymMatrix(np.diag([3.0 / 7.0, 4.0 / 7.0, 0.0]))))
        assert not report.is_pure
        assert abs(report.tr_rho_sq - 25.0 / 49.0) <= 1e-12


class TestSpectralMixture:
    def test_sevenths_weights_and_rays(self):
        rho = DensityOperator(SymMatrix(SEVENTHS))
        mixture = spectral_mixture(rho)
        assert len(mixture) == 2
        (w1, v1), (w2, v2) = mixture
        assert abs(w1 - 4.0 / 7.0) <= 1e-12
        assert abs(w2 - 3.0 / 7.0) <= 1e-12
        ray1 = np.outer(v1.components, v1.components)
        ray2 = np.outer(v2.components, v2.components)
        expected1 = np.outer([0.0, 1.0, -1.0], [0.0, 1.0, -1.0]) / 2.0
        expected2 = np.diag([1.0, 0.0, 0.0])
        assert np.max(np.abs(ray1 - expected1)) <= 1e-10
        assert np.max(np.abs(ray2 - expected2)) <= 1e-10

    def test_pure_state_single_weight(self):
        mixture = spectral_mixture(DensityOperator(SymMatrix(np.diag([1.0, 0.0]))))
        assert len(mixture) == 1
        weight, vector = mixture[0]
        assert abs(weight - 1.0) <= 1e-12
        assert np.max(np.abs(vector.components - [1.0, 0.0])) <= 1e-12

    def test_nonorthogonal_mixture_closed_form(self):
        rho = DensityOperator(
            SymMatrix(np.array([[0.75, 0.25, 0.0], [0.25, 0.25, 0.0], [0.0, 0.0, 0.0]]))
        )
        weights = [w for w, _ in spectral_mixture(rho)]
        root = math.sqrt(0.125)
        assert abs(weights[0] - (0.5 + root)) <= 1e-12
        assert abs(weights[1] - (0.5 - root)) <= 1e-12

    @pytest.mark.parametrize(
        "spectrum", [(0.5, 0.5), (1 / 3,) * 3, (0.4, 0.3, 0.3), (0.25,) * 4, (0.5, 0.25, 0.25, 0.0)]
    )
    def test_degenerate_spectra(self, spectrum):
        # Any orthonormal eigenbasis of a repeated weight is legitimate, so
        # check the order, orthonormality and the rebuilt matrix, not vectors.
        rng = np.random.default_rng(len(spectrum))
        for _ in range(10):
            q = random_orthonormal(rng, len(spectrum))
            a = q.T @ np.diag(spectrum) @ q
            rho = DensityOperator(SymMatrix((a + a.T) / 2.0))
            mixture = spectral_mixture(rho)
            weights = [w for w, _ in mixture]
            assert weights == sorted(weights, reverse=True)
            vectors = np.array([v.components for _, v in mixture])
            assert np.max(np.abs(vectors @ vectors.T - np.eye(len(mixture)))) <= 1e-12
            rebuilt = sum(w * np.outer(v.components, v.components) for w, v in mixture)
            assert np.max(np.abs(rebuilt - rho.matrix.entries)) <= 1e-12

    def test_matches_reference_bit_for_bit(self):
        # Weights, order and ray bits, degenerate weights (ordered by ray) included.
        rng = np.random.default_rng(37)
        rhos = [random_density(rng, n) for n in (2, 3, 4, 6, 8) for _ in range(8)]
        for spectrum in ((0.5, 0.5), (0.25,) * 4, (0.5, 0.25, 0.25, 0.0)):
            q = random_orthonormal(rng, len(spectrum))
            a = q.T @ np.diag(spectrum) @ q
            rhos.append(DensityOperator(SymMatrix((a + a.T) / 2.0)))
        rhos.append(DensityOperator(SymMatrix(np.diag([0.5, 0.5, 0.0]))))
        for rho in rhos:
            got = [(w, v.components.tobytes()) for w, v in spectral_mixture(rho)]
            assert got == [(w, v.tobytes()) for w, v in reference_spectral_mixture(rho)]

    def test_round_trip_through_mix(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 4, 6):
            rho = random_density(rng, n)
            mixture = spectral_mixture(rho)
            assert abs(sum(w for w, _ in mixture) - 1.0) <= 1e-8
            rebuilt = mix([(w, pure_state(v)) for w, v in mixture])
            assert np.max(np.abs(rebuilt.matrix.entries - rho.matrix.entries)) <= 1e-8

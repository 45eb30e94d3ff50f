"""Acceptance suite: every golden criterion at its stated tolerance.

Each test prints one PASS line on success (visible with -s or -rP); a
failing assertion marks the criterion red. Expected values were fixed in
advance by independent brute-force oracles (exhaustive enumeration,
closed-form eigenvalue formulas, basic-solution LP checks). The 3/7 and
twelfths reconstructions, the pentagon's kernel-rank certificate and
extremality, and the two-context feasibility verdicts are asserted once, in
test_frame.py and test_greechie.py.
"""

import math

import numpy as np
import pytest

from gleason import (
    FrameFunction,
    FrameOracle,
    StateVector,
    SymMatrix,
    builtin_wright_pentagon,
    check_realization,
    enumerate_two_valued_states,
    evaluate,
    from_density,
    mix,
    parse_greechie_text,
    pure_state,
    reconstruct_density,
    signature,
    spectral_mixture,
    validate_state,
)
from gleason.cli import _default_fixtures
from support import (
    brute_force_two_valued,
    random_density,
    random_orthonormal,
    random_unit,
    well_conditioned_transform,
)

FIXTURES = _default_fixtures()
SQ2 = math.sqrt(2.0)


def done(label):
    print(f"ACCEPTANCE {label}: PASS")


def test_03_bell_frame_functions():
    cases = [
        (np.array([1.0, 0.0, 0.0, 1.0]) / SQ2, lambda x: 0.5 * (x[0] + x[3]) ** 2),
        (np.array([1.0, 0.0, 0.0, -1.0]) / SQ2, lambda x: 0.5 * (x[0] - x[3]) ** 2),
        (np.array([0.0, 1.0, 1.0, 0.0]) / SQ2, lambda x: 0.5 * (x[1] + x[2]) ** 2),
        (np.array([0.0, 1.0, -1.0, 0.0]) / SQ2, lambda x: 0.5 * (x[1] - x[2]) ** 2),
    ]
    rng = np.random.default_rng(301)
    for vector, closed_form in cases:
        f = from_density(pure_state(StateVector(vector)))
        for _ in range(1000):
            x = random_unit(rng, 4)
            assert abs(evaluate(f, x) - closed_form(x)) <= 1e-12
    done("3 bell-frame-functions")


def test_04_nonorthogonal_mixture_eigenvalues():
    rng = np.random.default_rng(304)
    first = pure_state(StateVector(np.array([1.0, 0.0, 0.0])))
    second = pure_state(StateVector(np.array([1.0, 1.0, 0.0]) / SQ2))
    for _ in range(20):
        a = float(rng.uniform(0.05, 0.95))
        b = 1.0 - a
        rho = mix([(a, first), (b, second)])
        weights = [w for w, _ in spectral_mixture(rho)]
        root = math.sqrt(0.25 - a * b / 2.0)
        assert len(weights) == 2
        assert abs(weights[0] - (0.5 + root)) <= 1e-10
        assert abs(weights[1] - (0.5 - root)) <= 1e-10
    done("4 nonorthogonal-mixture-eigenvalues")


def test_05_weight_additivity():
    rng = np.random.default_rng(305)
    for n in (3, 4, 5):
        f = from_density(random_density(rng, n))
        for _ in range(100):
            basis = random_orthonormal(rng, n)
            total = math.fsum(evaluate(f, e) for e in basis)
            assert abs(total - 1.0) <= 1e-9
    done("5 weight-additivity")


def test_06_reconstruction_round_trip():
    rng = np.random.default_rng(306)
    for k in range(200):
        n = 2 + k % 5
        rho = random_density(rng, n)
        oracle = FrameOracle.from_frame_function(from_density(rho))
        again = reconstruct_density(oracle)
        assert np.max(np.abs(again.matrix.entries - rho.matrix.entries)) <= 1e-10
    done("6 round-trip")


def test_07_sylvester_invariance():
    rng = np.random.default_rng(307)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        eigenvalues = np.where(
            rng.random(n) < 0.3,
            0.0,
            rng.uniform(0.5, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n),
        )
        basis = random_orthonormal(rng, n)
        a = SymMatrix(basis.T @ np.diag(eigenvalues) @ basis)
        s = well_conditioned_transform(rng, n)
        congruent = SymMatrix(s.T @ a.entries @ s)
        assert signature(FrameFunction(congruent)) == signature(FrameFunction(a))
    done("7 sylvester-invariance")


def test_08_pentagon_embedding():
    diagram, realization, measure = builtin_wright_pentagon()
    assert check_realization(diagram, realization) == []
    worst = max(
        abs(float(realization.vectors[u] @ realization.vectors[v]))
        for block in diagram.blocks
        for u in block
        for v in block
        if u < v
    )
    assert worst <= 1e-9
    assert validate_state(diagram, measure) == []
    for block in diagram.blocks:
        assert math.fsum(measure.values[a] for a in block) == 1.0
    done("8 pentagon-embedding")


@pytest.mark.parametrize(
    "name",
    [
        "pentagon.greechie",
        "fig_two_contexts_classical.greechie",
        "fig_two_contexts_ignorant.greechie",
        "fig_three_contexts_classical.greechie",
    ],
)
def test_11_two_valued_enumeration_matches_brute_force(name):
    parsed = parse_greechie_text((FIXTURES / name).read_text())
    diagram = parsed.diagram
    assert len(diagram.atoms) <= 12
    states = [s.bits(diagram.atoms) for s in enumerate_two_valued_states(diagram)]
    assert states == brute_force_two_valued(diagram)
    expected_count = {
        "pentagon.greechie": 11,
        "fig_two_contexts_classical.greechie": 4,
        "fig_two_contexts_ignorant.greechie": 4,
        "fig_three_contexts_classical.greechie": 8,
    }[name]
    assert len(states) == expected_count
    done(f"11 enumeration-vs-brute-force[{name}]")

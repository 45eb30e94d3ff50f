"""The names ``gleason`` exports, pinned: removing or renaming one is a deliberate change."""

import types

import gleason

PUBLIC_NAMES = """
    BadWeights DEFAULT_TOL Decomposition DensityOperator DimensionMismatch DuplicateDirection
    EigenDecomposition FrameFunction FrameOracle GreechieDiagram GreechieFile GreechieFormatError
    InfeasibilityCertificate InvalidRealization InvalidState LeastSquaresSolution
    LinearlyDependent MatrixFormatError NotAFrameFunction NotAProjector NotNormalized NotPositive
    NotPositiveSemidefinite NotQuantum NotUnit ProbabilityAssignment Projector PurityReport
    QuantumFeasibility SampledReconstruction Signature StateVector SymMatrix TraceNotOne
    UnknownAtom VectorRealization Violation born_probability builtin_spin_half_family
    builtin_wright_pentagon check_realization classify convex_decomposition eigh
    enumerate_two_valued_states evaluate format_matrix_text from_density is_polytope_vertex
    lp_feasible mix orthonormalize parse_greechie_text parse_matrix_text pure_state purity
    quantum_feasibility rank reconstruct_density reconstruct_form reconstruct_from_samples
    signature solve_least_squares spectral_mixture validate_state
""".split()


def test_exported_names_are_pinned():
    exported = {
        name
        for name, value in vars(gleason).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(exported) == sorted(PUBLIC_NAMES)

import copy
import gc
import itertools
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from gleason.cli import _default_fixtures
from gleason.greechie import (
    Decomposition,
    DuplicateDirection,
    GreechieDiagram,
    GreechieFormatError,
    InvalidRealization,
    InvalidState,
    ProbabilityAssignment,
    UnknownAtom,
    VectorRealization,
    builtin_spin_half_family,
    builtin_wright_pentagon,
    check_realization,
    convex_decomposition,
    enumerate_two_valued_states,
    is_polytope_vertex,
    parse_greechie_text,
    quantum_feasibility,
    validate_state,
)
from gleason.numerics import DEFAULT_TOL, DimensionMismatch
from support import (
    brute_force_two_valued,
    highs_lp_feasible,
    pentagon_b_vectors,
    random_density,
    random_diagram,
    random_orthonormal,
    random_symmetric,
    reference_atom_ids,
    reference_block_pairs,
    reference_check_realization,
    reference_incidence,
    reference_reconstructed,
    reference_unit_row,
    reference_validate_state,
    reference_vector_failure,
)

TRIANGLE = GreechieDiagram(
    atoms=("x", "y", "z"), blocks=(("x", "y"), ("y", "z"), ("z", "x"))
)


def ngon(n):
    """Blocks {a_i, b_i, a_(i+1 mod n)}: the Wright pentagon's shape on n vertices."""
    atoms = tuple(f"a{i}" for i in range(n)) + tuple(f"b{i}" for i in range(n))
    blocks = tuple((f"a{i}", f"b{i}", f"a{(i + 1) % n}") for i in range(n))
    return GreechieDiagram(atoms, blocks)


def classical_measure(diagram):
    values = {}
    for atom in diagram.atoms:
        values[atom] = 1.0 if atom.endswith("-") else 0.0
    return ProbabilityAssignment(values)


def uniform_measure(diagram, value=0.5):
    return ProbabilityAssignment({a: value for a in diagram.atoms})


def as_assignment(diagram, row):
    """A two-valued state row as the assignment it stands for."""
    return ProbabilityAssignment(dict(zip(diagram.atoms, row)))


class TestDiagramInvariants:
    def test_rejects_small_block(self):
        with pytest.raises(ValueError, match="fewer than 2"):
            GreechieDiagram(("a", "b"), (("a",),))

    def test_rejects_repeated_atom_in_block(self):
        with pytest.raises(ValueError, match="repeats"):
            GreechieDiagram(("a", "b"), (("a", "a"),))

    def test_rejects_undeclared_atom(self):
        with pytest.raises(UnknownAtom):
            GreechieDiagram(("a", "b"), (("a", "c"),))

    def test_rejects_uncovered_atom(self):
        with pytest.raises(ValueError, match="no block"):
            GreechieDiagram(("a", "b", "c"), (("a", "b"),))

    def test_rejects_duplicate_atom_id(self):
        with pytest.raises(ValueError, match="^duplicate atom id$"):
            GreechieDiagram(("a", "a"), (("a", "b"),))

    def test_non_string_atom_ids_match_assignment_keys(self):
        # Assignments and realizations key atoms by str; the diagram must too.
        diagram = GreechieDiagram((1, 2, 3), ((1, 2), (2, 3)))
        assert diagram.atoms == ("1", "2", "3")
        assert diagram.blocks == (("1", "2"), ("2", "3"))
        assignment = ProbabilityAssignment({1: 1.0, 2: 0.0, 3: 1.0})
        assert validate_state(diagram, assignment) == []
        assert is_polytope_vertex(diagram, assignment)
        realization = VectorRealization({1: [1.0, 0.0], 2: [0.0, 1.0], 3: [1.0, 0.0]})
        assert check_realization(diagram, realization) == []
        assert quantum_feasibility(diagram, realization, assignment).realizable

    def test_numpy_string_ids_become_str(self):
        # np.str_ subclasses str, yet ids must come out as exactly str, in atoms and in blocks.
        names = np.array(["a", "b", "c"])
        for atoms, blocks in (
            (tuple(names), (("a", "b"), ("b", "c"))),
            (("a", "b", "c"), ((names[0], names[1]), ("b", names[2]))),
        ):
            diagram = GreechieDiagram(atoms, blocks)
            assert diagram.atoms == ("a", "b", "c")
            assert diagram.blocks == (("a", "b"), ("b", "c"))
            ids = [*diagram.atoms, *(atom for block in diagram.blocks for atom in block)]
            assert all(type(atom) is str for atom in ids)
        with pytest.raises(UnknownAtom, match=r"^block references undeclared atom 'd'$"):
            GreechieDiagram(("a", "b"), ((names[0], np.str_("d")),))


class TestAtomIdRule:
    """Ids become str, and two that come out equal are refused: in atoms, blocks and keys."""

    def test_keys_naming_one_atom_twice_are_refused(self):
        # Each pair once merged into one key, and the last value or vector won.
        with pytest.raises(ValueError, match=r"^realization names atom '1' twice$"):
            VectorRealization({1: [1.0, 0.0], "1": [0.0, 1.0], "2": [1.0, 0.0]})
        with pytest.raises(ValueError, match=r"^assignment names atom '1' twice$"):
            ProbabilityAssignment({1: 0.5, "1": 0.7})
        with pytest.raises(ValueError, match=r"^assignment names atom '2' twice$"):
            ProbabilityAssignment({"a": 1.0, np.str_("2"): 0.0, 2: 0.0})

    def test_collisions_in_the_diagram_keep_their_messages(self):
        with pytest.raises(ValueError, match=r"^duplicate atom id$"):
            GreechieDiagram((1, "1", "2"), (("1", "2"),))
        with pytest.raises(ValueError, match=r"^block \('1', '1'\) repeats an atom$"):
            GreechieDiagram(("1", "2"), ((1, "1"),))

    def test_an_earlier_block_failure_comes_first(self):
        with pytest.raises(UnknownAtom, match=r"^block references undeclared atom 'c'$"):
            GreechieDiagram(("a", "b"), (("a", "c"), ("a", "a")))
        with pytest.raises(ValueError, match=r"^block \('a',\) has fewer than 2 atoms$"):
            GreechieDiagram(("a", "b"), (("a",), ("b", "b")))
        with pytest.raises(TypeError):
            GreechieDiagram(("a", "a"), (("a", "b"), None))

    def test_invalid_values_and_vectors_come_before_collisions(self):
        # The old errors, which name the key as it was given, still win.
        with pytest.raises(InvalidRealization, match=r"^vector for 1 is zero$"):
            VectorRealization({1: [0.0, 0.0], "1": [1.0, 0.0]})
        with pytest.raises(DimensionMismatch, match=r"^vector for '1' has dimension 3, expected 2$"):
            VectorRealization({1: [1.0, 0.0], "1": [1.0, 0.0, 0.0]})
        with pytest.raises(ValueError, match="could not convert string to float"):
            ProbabilityAssignment({1: 0.5, "1": "half"})

    @pytest.mark.parametrize("seed", range(10))
    def test_distinct_ids_build_what_the_old_coercions_built(self, seed):
        rng = np.random.default_rng(seed)
        kinds = (str, int, np.str_)
        for _ in range(30):
            names = [str(k) for k in rng.choice(40, size=int(rng.integers(2, 9)), replace=False)]
            names = [f"a{name}" if rng.random() < 0.3 else name for name in names]

            def given(name):
                kind = kinds[int(rng.integers(len(kinds)))]
                return kind(name) if kind is not int or name.isdigit() else name

            order = rng.permutation(len(names))
            blocks = [[given(names[k]) for k in pair] for pair in zip(order, np.roll(order, 1))]
            atoms = [given(name) for name in names]
            values = {given(names[k]): float(rng.random()) for k in rng.permutation(len(names))}
            vectors = {given(names[k]): rng.standard_normal(3) for k in rng.permutation(len(names))}
            want_atoms, want_blocks, want_values, want_keys = reference_atom_ids(
                atoms, blocks, values, vectors
            )
            diagram = GreechieDiagram(atoms, blocks)
            assert (diagram.atoms, diagram.blocks) == (want_atoms, want_blocks)
            ids = [*diagram.atoms, *(atom for block in diagram.blocks for atom in block)]
            assert all(type(atom) is str for atom in ids)
            assert list(ProbabilityAssignment(values).values.items()) == list(want_values.items())
            realization = VectorRealization(vectors)
            assert tuple(realization.vectors) == want_keys
            want_rows = np.array([reference_unit_row(v) for v in vectors.values()])
            assert realization._rows.tobytes() == want_rows.tobytes()


class TestKeyedInputs:
    """Measures and realizations keep read-only rows in key order; the diagram aligns both."""

    def test_values_are_read_only_floats(self):
        assignment = ProbabilityAssignment({"a": 1, "b": np.float64(0.25)})
        assert list(assignment.values.items()) == [("a", 1.0), ("b", 0.25)]
        assert all(type(value) is float for value in assignment.values.values())
        # Writes once slipped an int key past the atom id rule, or a str value past float().
        for key, value in ((1, 0.5), ("a", "0.5")):
            with pytest.raises(TypeError):
                assignment.values[key] = value
        assert assignment._rows.tolist() == [1.0, 0.25]
        with pytest.raises(ValueError):
            assignment._rows[0] = 0.5

    @pytest.mark.parametrize("seed", range(10))
    def test_aligned_rows_are_the_atom_gather(self, seed):
        # The diagram's atom order, from each input's own array or from one gather, bit for
        # bit what stacking the mapping's values atom by atom gives.
        rng = np.random.default_rng(seed)
        atoms = tuple(f"a{k}" for k in range(int(rng.integers(2, 12))))
        diagram = GreechieDiagram(atoms, (atoms,))
        for order in (range(len(atoms)), rng.permutation(len(atoms))):
            keys = [atoms[k] for k in order]
            measure = ProbabilityAssignment(dict(zip(keys, rng.random(len(keys)).tolist())))
            realization = VectorRealization(dict(zip(keys, rng.standard_normal((len(keys), 3)))))
            for keyed, mapping, what in ((measure, measure.values, "assignment"),
                                         (realization, realization.vectors, "realization")):
                got, want = diagram._aligned(keyed, what), np.array([mapping[a] for a in atoms])
                assert (got.shape, got.dtype) == (want.shape, want.dtype)
                assert got.tobytes() == want.tobytes()
                assert (got is keyed._rows) == (keyed._atoms == atoms)


KS18_TEXT = (Path(__file__).resolve().parents[1] / "perfbench" / "ks18.greechie").read_text()


class TestPickling:
    """A pickle or a deep copy keeps the state, read-only, and the answers on it."""

    @pytest.mark.parametrize(
        "copy_of",
        [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_round_trip(self, copy_of):
        # KS-18 carries the check: its rows are not a fixed point of unit_rows, and 18 entries
        # would move if loading normalised them again. The pentagon's rows are one.
        ks18 = parse_greechie_text(KS18_TEXT)
        cases = (builtin_wright_pentagon(), (ks18.diagram, ks18.realization, ks18.assignment))
        for diagram, realization, measure in cases:
            loaded = {"vectors": copy_of(realization), "values": copy_of(measure)}
            for mapping, original in (("vectors", realization), ("values", measure)):
                got, want = loaded[mapping]._rows, original._rows
                assert type(loaded[mapping]) is type(original)
                assert loaded[mapping]._atoms == original._atoms
                assert (got.shape, got.dtype) == (want.shape, want.dtype)
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable
                with pytest.raises(TypeError):
                    getattr(loaded[mapping], mapping)["x"] = 0.5
            assert loaded["vectors"].dim == realization.dim
            assert list(loaded["values"].values.items()) == list(measure.values.items())
            for atom, row in loaded["vectors"].vectors.items():
                assert row.tobytes() == realization.vectors[atom].tobytes()
            r, m = loaded["vectors"], loaded["values"]
            assert check_realization(diagram, r) == check_realization(diagram, realization)
            got = quantum_feasibility(diagram, r, m)
            want = quantum_feasibility(diagram, realization, measure)
            assert (got.realizable, got.certificate) == (want.realizable, want.certificate)
            if want.realizable:
                assert got.density.matrix.entries.tobytes() == want.density.matrix.entries.tobytes()

    def test_parsed_file_deep_copies(self):
        parsed = parse_greechie_text(KS18_TEXT)
        copied = copy.deepcopy(parsed)
        assert copied.assignment._rows.tobytes() == parsed.assignment._rows.tobytes()
        assert copied.realization._rows.tobytes() == parsed.realization._rows.tobytes()


class TestValidateState:
    def test_classical_measure_is_valid(self):
        diagram, _ = builtin_spin_half_family(3, [0.0, 0.4, 0.9])
        assert validate_state(diagram, classical_measure(diagram)) == []

    def test_pentagon_measure_is_valid(self):
        diagram, _, measure = builtin_wright_pentagon()
        assert validate_state(diagram, measure) == []

    def test_all_zero_fails_every_block(self):
        diagram, _, _ = builtin_wright_pentagon()
        violations = validate_state(diagram, uniform_measure(diagram, 0.0))
        assert len(violations) == len(diagram.blocks)
        assert all(v.kind == "block-sum" for v in violations)

    def test_out_of_range_value(self):
        diagram, _ = builtin_spin_half_family(1, [0.0])
        bad = ProbabilityAssignment({"x1-": 1.5, "x1+": -0.5})
        kinds = {v.kind for v in validate_state(diagram, bad)}
        assert kinds == {"range"}

    def test_nan_fails_range_and_block_sum(self):
        diagram, _ = builtin_spin_half_family(1, [0.0])
        nan = ProbabilityAssignment({"x1-": math.nan, "x1+": math.nan})
        kinds = [v.kind for v in validate_state(diagram, nan)]
        assert kinds == ["range", "range", "block-sum"]

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_requires_positive_tol(self, tol):
        diagram, _, measure = builtin_wright_pentagon()
        with pytest.raises(ValueError, match="tol must be positive"):
            validate_state(diagram, measure, tol)

    def test_missing_atom_raises(self):
        diagram, _ = builtin_spin_half_family(1, [0.0])
        with pytest.raises(UnknownAtom):
            validate_state(diagram, ProbabilityAssignment({"x1-": 1.0}))

    def test_extra_atom_raises(self):
        diagram, _ = builtin_spin_half_family(1, [0.0])
        values = {"x1-": 1.0, "x1+": 0.0, "ghost": 0.5}
        with pytest.raises(UnknownAtom):
            validate_state(diagram, ProbabilityAssignment(values))


def with_coverage_fault(mapping, fault):
    """A copy of an atom-keyed mapping without atom x1+, with an undeclared atom, or both."""
    out = dict(mapping)
    if fault in ("missing", "both"):
        del out["x1+"]
    if fault in ("undeclared", "both"):
        out["ghost"] = out["x2-"]
    return out


class TestCoverageErrors:
    """Every entry point names a missing atom before an undeclared one."""

    ENTRY_POINTS = {
        "validate_state": ("assignment", lambda d, r, p: validate_state(d, p)),
        "check_realization": ("realization", lambda d, r, p: check_realization(d, r)),
        "convex_decomposition": ("assignment", lambda d, r, p: convex_decomposition(d, p)),
        "is_polytope_vertex": ("assignment", lambda d, r, p: is_polytope_vertex(d, p)),
        "quantum_feasibility-realization": ("realization", quantum_feasibility),
        "quantum_feasibility-assignment": ("assignment", quantum_feasibility),
    }

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("missing", "misses atom 'x1+'"),
            ("undeclared", "names undeclared atom 'ghost'"),
            ("both", "misses atom 'x1+'"),
        ],
    )
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_unknown_atom_message(self, entry, fault, message):
        diagram, realization = builtin_spin_half_family(2, [0.0, 0.5])
        assignment = uniform_measure(diagram)
        what, call = self.ENTRY_POINTS[entry]
        if what == "assignment":
            assignment = ProbabilityAssignment(with_coverage_fault(assignment.values, fault))
        else:
            realization = VectorRealization(with_coverage_fault(realization.vectors, fault))
        with pytest.raises(UnknownAtom) as raised:
            call(diagram, realization, assignment)
        assert str(raised.value) == f"{what} {message}"


class TestTwoValuedEnumeration:
    def test_disjoint_blocks_power_of_two(self):
        for n, angles in ((1, [0.0]), (2, [0.0, 0.5]), (3, [0.0, 0.5, 1.0])):
            diagram, _ = builtin_spin_half_family(n, angles)
            states = enumerate_two_valued_states(diagram)
            assert len(states) == 2**n

    def test_single_block_three_states(self):
        diagram = GreechieDiagram(("a", "b", "c"), (("a", "b", "c"),))
        states = enumerate_two_valued_states(diagram)
        assert len(states) == 3
        assert states == [
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        ]

    def test_pentagon_has_eleven(self):
        diagram, _, _ = builtin_wright_pentagon()
        assert len(enumerate_two_valued_states(diagram)) == 11

    def test_odd_cycle_of_binary_blocks_has_none(self):
        assert enumerate_two_valued_states(TRIANGLE) == []

    def test_every_state_is_a_valid_measure(self):
        diagram, _, _ = builtin_wright_pentagon()
        for row in enumerate_two_valued_states(diagram):
            assert validate_state(diagram, as_assignment(diagram, row)) == []

    @pytest.mark.parametrize(
        "diagram",
        [
            TRIANGLE,
            GreechieDiagram(("a", "b", "c"), (("a", "b", "c"),)),
            GreechieDiagram(
                ("a", "b", "c", "d", "e"), (("a", "b", "c"), ("c", "d", "e"))
            ),
            builtin_wright_pentagon()[0],
            builtin_spin_half_family(3, [0.0, 0.5, 1.0])[0],
            ngon(7),
            *(random_diagram(np.random.default_rng(seed)) for seed in range(20)),
        ],
        ids=[
            "triangle", "one-block", "chained", "pentagon", "disjoint", "7-gon",
            *(f"random-{seed}" for seed in range(20)),
        ],
    )
    def test_agrees_with_exhaustive_enumeration(self, diagram):
        states = enumerate_two_valued_states(diagram)
        assert states == brute_force_two_valued(diagram)
        assert states == sorted(states)
        assert all(type(bit) is int for row in states for bit in row)

    def test_leaves_no_garbage_cycle(self):
        # The backtracker's recursive closure must not keep its rows alive until a full collection.
        diagram, _ = builtin_spin_half_family(3, [0.0, 0.5, 1.0])
        gc.collect()
        enumerate_two_valued_states(diagram)
        assert gc.collect() == 0
        convex_decomposition(diagram, uniform_measure(diagram))
        assert gc.collect() == 0


class TestConvexDecomposition:
    def test_two_valued_measure_decomposes_onto_itself(self):
        diagram, _ = builtin_spin_half_family(2, [0.0, 0.7])
        measure = classical_measure(diagram)
        result = convex_decomposition(diagram, measure)
        assert result is not None
        assert len(result.entries) == 1
        weight, row = result.entries[0]
        assert abs(weight - 1.0) <= 1e-9
        assert as_assignment(diagram, row).values == measure.values

    def test_uniform_measure_witness_resubstitutes(self):
        diagram, _ = builtin_spin_half_family(2, [0.0, 0.7])
        measure = uniform_measure(diagram)
        result = convex_decomposition(diagram, measure)
        assert result is not None
        total = sum(w for w, _ in result.entries)
        assert abs(total - 1.0) <= 1e-9
        rebuilt = result.reconstructed(diagram.atoms)
        for atom in diagram.atoms:
            assert abs(rebuilt[atom] - 0.5) <= 1e-8

    def test_reconstructed_refuses_another_atom_order(self):
        # Rows carry no atom names: read in reversed order they put x1-'s 0 under x2+.
        diagram, _ = builtin_spin_half_family(2, [0.0, 0.7])
        measure = ProbabilityAssignment(dict(zip(diagram.atoms, (1.0, 0.0, 0.3, 0.7))))
        result = convex_decomposition(diagram, measure)
        assert result.atoms == diagram.atoms
        rebuilt = result.reconstructed(list(diagram.atoms))
        assert max(abs(rebuilt[a] - measure.values[a]) for a in diagram.atoms) <= 1e-9
        for atoms in (tuple(reversed(diagram.atoms)), diagram.atoms[:2]):
            with pytest.raises(ValueError, match="atoms must be the decomposition's"):
                result.reconstructed(atoms)

    def test_all_half_measure_on_fourteen_contexts(self):
        # 2^14 two-valued states: an LP with 16384 columns and 29 rows.
        diagram, _ = builtin_spin_half_family(14, [i * math.pi / 28 for i in range(14)])
        result = convex_decomposition(diagram, uniform_measure(diagram))
        assert result is not None
        assert abs(sum(w for w, _ in result.entries) - 1.0) <= 1e-9
        rebuilt = result.reconstructed(diagram.atoms)
        assert max(abs(rebuilt[a] - 0.5) for a in diagram.atoms) <= 1e-9

    def test_keeps_only_the_support(self):
        # 2^10 two-valued states; the weights that reach the result are few.
        diagram, _ = builtin_spin_half_family(10, [i * math.pi / 20 for i in range(10)])
        result = convex_decomposition(diagram, uniform_measure(diagram))
        assert result is not None
        states = set(enumerate_two_valued_states(diagram))
        assert all(w > 0 and row in states for w, row in result.entries)
        assert len(result.entries) < 2**10

    def test_agrees_with_highs_on_random_diagrams(self):
        # Measures mix 1/|block| on every atom with a random mixture of
        # two-valued states, so both verdicts occur.
        rng = np.random.default_rng(5)
        verdicts = []
        for trial in range(300):
            diagram = random_diagram(rng)
            states = enumerate_two_valued_states(diagram)
            size = len(diagram.blocks[0])
            weights = rng.random(len(states)) * (rng.random(len(states)) < 0.5)
            weights /= max(weights.sum(), 1.0)
            columns = np.array(states).reshape(len(states), len(diagram.atoms)).T
            probs = (1.0 - weights.sum()) / size + columns @ weights
            p = dict(zip(diagram.atoms, probs))
            result = convex_decomposition(diagram, ProbabilityAssignment(p))
            rows = np.vstack([columns, np.ones(len(states))])
            expected = bool(states) and highs_lp_feasible(rows, np.append(probs, 1.0))
            assert (result is not None) == expected, f"trial {trial}"
            verdicts.append(expected)
            if result is not None:
                assert all(w > DEFAULT_TOL for w, _ in result.entries)
                assert abs(sum(w for w, _ in result.entries) - 1.0) <= 1e-9
                rebuilt = result.reconstructed(diagram.atoms)
                assert max(abs(rebuilt[a] - p[a]) for a in diagram.atoms) <= 1e-9
        assert 0 < sum(verdicts) < len(verdicts)

    def test_pentagon_measure_is_not_decomposable(self):
        diagram, _, measure = builtin_wright_pentagon()
        assert convex_decomposition(diagram, measure) is None

    def test_no_two_valued_states_means_no_decomposition(self):
        assert convex_decomposition(TRIANGLE, uniform_measure(TRIANGLE)) is None

    def test_requires_valid_state(self):
        diagram, _, _ = builtin_wright_pentagon()
        with pytest.raises(InvalidState):
            convex_decomposition(diagram, uniform_measure(diagram, 0.0))


class TestPolytopeVertex:
    def test_pentagon_measure_is_extreme(self):
        diagram, _, measure = builtin_wright_pentagon()
        assert is_polytope_vertex(diagram, measure)

    def test_uniform_measure_on_disjoint_blocks_is_not(self):
        for n, angles in ((1, [0.0]), (2, [0.0, 0.7])):
            diagram, _ = builtin_spin_half_family(n, angles)
            assert not is_polytope_vertex(diagram, uniform_measure(diagram))

    def test_two_valued_states_are_vertices(self):
        diagram, _, _ = builtin_wright_pentagon()
        for row in enumerate_two_valued_states(diagram):
            assert is_polytope_vertex(diagram, as_assignment(diagram, row))
        spin, _ = builtin_spin_half_family(2, [0.0, 0.7])
        for row in enumerate_two_valued_states(spin):
            assert is_polytope_vertex(spin, as_assignment(spin, row))

    @pytest.mark.parametrize("n", range(4, 14))
    def test_ngon_half_measure(self, n):
        # Blocks {a_i, b_i, a_(i+1)} with 1/2 on every a and 0 on every b:
        # the tight b-bounds and block sums pin the measure down exactly
        # when n is odd (the pentagon's case); for even n it is the midpoint
        # of the two alternating two-valued states.
        diagram = ngon(n)
        measure = ProbabilityAssignment(
            {a: 0.5 if a[0] == "a" else 0.0 for a in diagram.atoms}
        )
        odd = n % 2 == 1
        assert is_polytope_vertex(diagram, measure) == odd
        assert (convex_decomposition(diagram, measure) is None) == odd

    def test_triangle_unique_state_is_a_vertex(self):
        # The three block equalities alone have full rank here, so the
        # all-1/2 state is the polytope's only point.
        assert is_polytope_vertex(TRIANGLE, uniform_measure(TRIANGLE))


def shuffled(rng, diagram):
    """The same diagram with its atoms, and each block's atoms, in random order."""
    atoms = tuple(rng.permutation(diagram.atoms).tolist())
    blocks = tuple(tuple(rng.permutation(block).tolist()) for block in diagram.blocks)
    return GreechieDiagram(atoms, blocks)


class TestIndexArrays:
    """Cached diagram indices, and the checks on them against the loops in tests/support.py."""

    def test_incidence_marks_block_members(self):
        diagram = shuffled(np.random.default_rng(3), ngon(5))
        want = [[atom in block for atom in diagram.atoms] for block in diagram.blocks]
        assert diagram.incidence.tolist() == want
        assert diagram.incidence is diagram.incidence
        with pytest.raises(ValueError):
            diagram.incidence[0, 0] = not diagram.incidence[0, 0]

    def test_empty_diagram(self):
        diagram = GreechieDiagram((), ())
        assert diagram.incidence.shape == (0, 0)
        assert check_realization(diagram, VectorRealization({})) == []

    @pytest.mark.parametrize("seed", range(20))
    def test_index_arrays_match_reference(self, seed):
        # One block of 2 atoms, then blocks of 3 to 5, atoms in random order within each.
        rng = np.random.default_rng(seed)
        atoms = [f"a{k}" for k in range(int(rng.integers(3, 12)))]
        blocks = [tuple(rng.choice(atoms, size=2, replace=False).tolist())]
        while {a for block in blocks for a in block} != set(atoms):
            size = int(rng.integers(3, min(5, len(atoms)) + 1))
            blocks.append(tuple(rng.choice(atoms, size=size, replace=False).tolist()))
        diagram = GreechieDiagram(tuple(rng.permutation(atoms).tolist()), tuple(blocks))
        for got, want in (
            (diagram._block_pairs, reference_block_pairs(diagram)),
            (diagram.incidence, reference_incidence(diagram)),
        ):
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    @pytest.mark.parametrize("seed", range(30))
    def test_check_realization_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        diagram = shuffled(rng, random_diagram(rng))
        dim = int(rng.integers(2, 5))
        # Atoms on random axes, some tilted: same-axis pairs fail at every tol,
        # tilted ones only at the smaller tolerances.
        axes = np.eye(dim)[rng.integers(0, dim, len(diagram.atoms))]
        tilt = rng.choice([0.0, 0.02, 0.5], size=(len(diagram.atoms), 1)) * rng.standard_normal(dim)
        realization = VectorRealization(dict(zip(diagram.atoms, axes + tilt)))
        for tol in (DEFAULT_TOL, 0.1, 0.6):
            want = reference_check_realization(diagram, realization, tol)
            assert check_realization(diagram, realization, tol) == want

    @pytest.mark.parametrize("seed", range(30))
    def test_validate_state_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        diagram = shuffled(rng, random_diagram(rng))
        states = [as_assignment(diagram, row) for row in enumerate_two_valued_states(diagram)[:3]]
        for _ in range(3):
            values = rng.choice([0.0, 0.5, 1.0, -0.2, 1.3, rng.random()], size=len(diagram.atoms))
            states.append(ProbabilityAssignment(dict(zip(diagram.atoms, values))))
        for state in states:
            for tol in (DEFAULT_TOL, 0.25):
                want = reference_validate_state(diagram, state, tol)
                assert validate_state(diagram, state, tol) == want

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstructed_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        diagram = shuffled(rng, random_diagram(rng))
        states = enumerate_two_valued_states(diagram)
        weights = rng.random(len(states))
        atoms = diagram.atoms
        decomposition = Decomposition(tuple(zip((weights / weights.sum()).tolist(), states)), atoms)
        want = reference_reconstructed(decomposition, atoms)
        got = decomposition.reconstructed(atoms)
        assert list(got) == list(atoms)
        # Each side sums at most len(states) weights in [0, 1] with total 1, in its own order.
        assert max(abs(got[a] - want[a]) for a in atoms) <= 2 * len(states) * np.finfo(float).eps


class TestBuiltinPentagon:
    def test_is_the_parse_of_the_bundled_file(self):
        parsed = parse_greechie_text((_default_fixtures() / "pentagon.greechie").read_text())
        diagram, realization, measure = builtin_wright_pentagon()
        assert (diagram.atoms, diagram.blocks) == (parsed.diagram.atoms, parsed.diagram.blocks)
        for got, want in ((realization, parsed.realization), (measure, parsed.assignment)):
            assert got._atoms == want._atoms
            assert (got._rows.shape, got._rows.dtype) == (want._rows.shape, want._rows.dtype)
            assert got._rows.tobytes() == want._rows.tobytes()

    def test_b_rays_match_the_closed_form(self):
        _, realization, _ = builtin_wright_pentagon()
        b = np.array([realization.vectors[f"b{i}"] for i in range(5)])
        assert np.max(np.abs(b - pentagon_b_vectors())) <= 1.2e-16


class TestCheckRealization:
    def test_pentagon_embedding_is_valid(self):
        diagram, realization, _ = builtin_wright_pentagon()
        assert check_realization(diagram, realization) == []

    def test_corrupted_vector_names_pair_and_block(self):
        diagram, realization, _ = builtin_wright_pentagon()
        vectors = {k: np.array(v) for k, v in realization.vectors.items()}
        vectors["b0"] = vectors["b0"] + np.array([0.05, 0.0, 0.0])
        bad = check_realization(diagram, VectorRealization(vectors))
        assert bad
        assert all(v.kind == "orthogonality" for v in bad)
        assert any("b0" in v.subject for v in bad)
        assert any("a0,b0,a1" in v.detail for v in bad)

    def test_rotated_plane_bases_are_valid(self):
        diagram, realization = builtin_spin_half_family(3, [0.1, 0.9, 2.0])
        assert check_realization(diagram, realization) == []

    def test_block_larger_than_dimension(self):
        diagram = GreechieDiagram(("a", "b", "c"), (("a", "b", "c"),))
        realization = VectorRealization(
            {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0]), "c": np.array([1.0, 1.0])}
        )
        kinds = {v.kind for v in check_realization(diagram, realization)}
        assert "block-size" in kinds

    @pytest.mark.parametrize(
        "bad", [[0.0, 0.0], [math.nan, 0.0], [math.inf, 0.0]], ids=["zero", "nan", "inf"]
    )
    def test_degenerate_vector_is_rejected(self, bad):
        with pytest.raises(InvalidRealization):
            VectorRealization({"a": bad, "b": [0.0, 1.0]})

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 5e-324, 1e308])
    def test_extreme_scales_normalize_to_unit_vectors(self, scale):
        # v @ v overflows (1e200, 1e308) or underflows (1e-160, 5e-324) here.
        realization = VectorRealization(
            {"a": [scale, 0.0], "b": [0.0, scale], "c": [0.6 * scale, 0.8 * scale]}
        )
        assert realization.vectors["a"].tolist() == [1.0, 0.0]
        assert realization.vectors["b"].tolist() == [0.0, 1.0]
        if scale > 1e-300:  # 0.6 * 5e-324 and 0.8 * 5e-324 both round to 5e-324
            assert np.allclose(realization.vectors["c"], [0.6, 0.8], rtol=0, atol=1e-15)
        for v in realization.vectors.values():
            assert abs(float(np.linalg.norm(v)) - 1.0) <= 1e-15
        diagram = GreechieDiagram(("a", "b", "c"), (("a", "b"), ("b", "c")))
        violations = check_realization(diagram, realization)
        assert [(v.kind, v.subject) for v in violations] == [("orthogonality", "b,c")]

    @pytest.mark.parametrize(
        "vectors, error, message",
        [
            (
                {"a": [math.nan, 0.0], "b": [1.0, 0.0, 0.0]},
                InvalidRealization,
                "vector for 'a' has non-finite components",
            ),
            ({"a": [0.0, 0.0], "b": [math.inf, 1.0]}, InvalidRealization, "vector for 'a' is zero"),
            ({"a": [], "b": [1.0, 0.0]}, InvalidRealization, "vector for 'a' is zero"),
            (
                {1: [1.0, 0.0], 2: [0.0, 0.0, 0.0]},
                DimensionMismatch,
                "vector for 2 has dimension 3, expected 2",
            ),
            (
                {"a": [1.0, 0.0], "b": [math.inf, 0.0, 0.0]},
                InvalidRealization,
                "vector for 'b' has non-finite components",
            ),
            (
                {"a": [1.0, 0.0], "b": [0.0, 0.0, 0.0]},
                DimensionMismatch,
                "vector for 'b' has dimension 3, expected 2",
            ),
            (
                {"a": [1.0, 0.0], "b": [0.0, 0.0], "c": [math.nan, 1.0, 2.0]},
                InvalidRealization,
                "vector for 'b' is zero",
            ),
            ({"a": [0.0, 0.0], "b": "one"}, InvalidRealization, "vector for 'a' is zero"),
            ({"a": [1.0, 0.0], "b": "one"}, ValueError, "could not convert string to float: 'one'"),
            (
                {"a": [0.0, 0.0], "b": np.array([1j, 0.0])},
                InvalidRealization,
                "vector for 'a' is zero",
            ),
        ],
        ids=["non-finite-then-dimension", "zero-then-non-finite", "empty-first", "integer-key",
             "non-finite-before-dimension", "dimension-before-zero", "zero-before-later-faults",
             "zero-before-unconvertible", "unconvertible", "zero-before-complex"],
    )
    def test_first_failing_atom_decides(self, vectors, error, message):
        # Across atoms the first failure wins; within one: non-finite, dimension, zero.
        with pytest.raises(ValueError) as raised:
            VectorRealization(vectors)
        assert type(raised.value) is error
        assert str(raised.value) == message

    @pytest.mark.parametrize("seed", range(20))
    def test_failures_match_the_atom_by_atom_walk(self, seed):
        # The library checks each row's Python floats; the reference checks numpy arrays.
        # Both must name the same atom, error and message, on lists and arrays alike.
        rng = np.random.default_rng(seed)
        faults = [[0.0, 0.0], [math.nan, 1.0], [1.0, -math.inf], [1.0, 2.0, 3.0], [], [[1.0]],
                  "one", [10**400, 1.0],
                  np.array([math.nan, 1.0]), np.array([math.inf, 1.0]), np.array([1.0, -math.inf]),
                  np.array([-0.0, 0.0]), np.float64(2.0), np.array([[1.0, 2.0]]),
                  np.array([0.5, -2.0], dtype=np.float32), np.array([3, 0]), np.array([0.6, 0.8]),
                  np.array([1j, 1.0]), np.array([0.6, 0.8], dtype=complex)]
        for _ in range(50):
            vectors = {}
            for k in range(rng.integers(1, 7)):
                vectors[f"v{k}"] = (
                    faults[rng.integers(len(faults))] if rng.random() < 0.15
                    else rng.standard_normal(2).tolist()
                )
            want = reference_vector_failure(vectors)
            if want is None:
                realization = VectorRealization(vectors)
                first = np.ravel(next(iter(vectors.values())))
                assert realization.dim == len(first) and list(realization.vectors) == list(vectors)
                continue
            with pytest.raises((ValueError, OverflowError, TypeError)) as raised:
                VectorRealization(vectors)
            assert (type(raised.value), str(raised.value)) == want

    def test_complex_vectors_are_refused(self):
        # The float cast kept (0, 1) of (i, 1), and this block then passed the check, though
        # <a|b> = i; complex input waits for one dtype path through the library.
        with pytest.raises(TypeError, match=r"^vector for 'a' is complex; only real input"):
            VectorRealization({"a": np.array([1j, 1.0]), "b": np.array([1.0, 0.0])})
        with pytest.raises(TypeError, match=r"^vector for 2 is complex"):  # before non-finite
            VectorRealization({"a": [1.0, 0.0], 2: np.array([math.nan, 1j])})
        with pytest.raises(TypeError):  # complex Python numbers fail the cast itself
            VectorRealization({"a": [1j, 1.0], "b": [1.0, 0.0]})

    def test_vectors_are_rows_of_one_read_only_array(self):
        realization = VectorRealization({"a": [3.0, 4.0], "b": (0.0, -2.0)})
        a, b = realization.vectors["a"], realization.vectors["b"]
        assert a.tolist() == [0.6, 0.8] and b.tolist() == [0.0, -1.0]
        assert a.base is not None and a.base is b.base and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0

    def test_vectors_cannot_be_replaced(self):
        realization = VectorRealization({"a": [3.0, 0.0], "b": [0.0, 1.0]})
        with pytest.raises(TypeError):
            realization.vectors["a"] = np.array([2.0, 0.0])
        assert realization.vectors["a"].tolist() == [1.0, 0.0]
        assert realization.dim == 2

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_requires_positive_tol(self, tol):
        # Every pair of these parallel vectors fails orthogonality; a NaN tol would pass them.
        diagram, _, _ = builtin_wright_pentagon()
        parallel = VectorRealization({atom: [1.0, 0.0, 0.0] for atom in diagram.atoms})
        assert check_realization(diagram, parallel)
        with pytest.raises(ValueError, match="tol must be positive"):
            check_realization(diagram, parallel, tol)

    def test_missing_vector_raises(self):
        diagram, _ = builtin_spin_half_family(1, [0.0])
        with pytest.raises(UnknownAtom):
            check_realization(diagram, VectorRealization({"x1-": np.array([1.0, 0.0])}))


class TestQuantumFeasibility:
    def test_uniform_measure_realized_by_most_ignorant_state(self):
        diagram, realization = builtin_spin_half_family(2, [0.0, math.pi / 4])
        verdict = quantum_feasibility(diagram, realization, uniform_measure(diagram))
        assert verdict.realizable
        got = verdict.density.matrix.entries
        assert np.max(np.abs(got - np.diag([0.5, 0.5]))) <= 1e-10

    def test_classical_measure_on_two_directions_is_not_realizable(self):
        diagram, realization = builtin_spin_half_family(2, [0.0, math.pi / 4])
        verdict = quantum_feasibility(diagram, realization, classical_measure(diagram))
        assert not verdict.realizable
        assert verdict.certificate.kind == "kernel-rank"
        assert verdict.certificate.kernel_rank == 2

    def test_single_direction_classical_measure_is_realizable(self):
        diagram, realization = builtin_spin_half_family(1, [0.3])
        verdict = quantum_feasibility(diagram, realization, classical_measure(diagram))
        assert verdict.realizable
        v = realization.vectors["x1-"]
        assert np.max(np.abs(verdict.density.matrix.entries - np.outer(v, v))) <= 1e-10

    def test_pentagon_kernel_certificate(self):
        diagram, realization, measure = builtin_wright_pentagon()
        verdict = quantum_feasibility(diagram, realization, measure)
        assert not verdict.realizable
        assert verdict.certificate.kind == "kernel-rank"
        assert verdict.certificate.kernel_rank == 3

    def test_residual_certificate_for_overcommitted_measure(self):
        diagram, realization = builtin_spin_half_family(2, [0.0, math.pi / 4])
        measure = ProbabilityAssignment(
            {"x1-": 1.0, "x1+": 0.0, "x2-": 0.9, "x2+": 0.1}
        )
        verdict = quantum_feasibility(diagram, realization, measure)
        assert not verdict.realizable
        assert verdict.certificate.kind == "residual"
        subjects = {s for s, _, _ in verdict.certificate.violations}
        assert "x2-" in subjects
        # x1+ = 0 forces rho = e1 e1^T, which gives 1/2 on both x2 atoms.
        for subject, target, achieved in verdict.certificate.violations:
            assert target == measure.values[subject]
            assert abs(achieved - 0.5) <= 1e-12

    def test_psd_certificate_for_cloned_near_certainty(self):
        diagram, realization = builtin_spin_half_family(2, [0.0, math.pi / 4])
        measure = ProbabilityAssignment(
            {"x1-": 0.999, "x1+": 0.001, "x2-": 0.999, "x2+": 0.001}
        )
        verdict = quantum_feasibility(diagram, realization, measure)
        assert not verdict.realizable
        assert verdict.certificate.kind == "psd"
        assert verdict.certificate.min_eigenvalue < -1e-8

    def test_realizable_result_reproduces_every_constraint(self):
        diagram, realization = builtin_spin_half_family(3, [0.1, 0.8, 2.1])
        rho = np.array([[0.7, 0.1], [0.1, 0.3]])
        values = {
            atom: float(vec @ rho @ vec) for atom, vec in realization.vectors.items()
        }
        verdict = quantum_feasibility(diagram, realization, ProbabilityAssignment(values))
        assert verdict.realizable
        got = verdict.density.matrix.entries
        for atom, vec in realization.vectors.items():
            assert abs(float(vec @ got @ vec) - values[atom]) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_shuffled_keys_give_the_same_bits(self, n):
        # Keys in atom order hand the realization's or the measure's own rows to the checks;
        # any other order gathers them by atom. Densities and certificates must not tell the
        # four combinations apart.
        rng = np.random.default_rng(200 + n)
        eye = np.eye(n)
        basis = random_orthonormal(rng, n)
        indefinite = basis.T @ np.diag(np.append(np.full(n - 1, 1.2 / (n - 1)), -0.2)) @ basis
        kinds = set()
        for contexts in (2, n + 1):
            # A mixed state, a pure state with zero-probability atoms, an indefinite
            # matrix, and a classical measure (1 on each context's first atom).
            for measured in (random_density(rng, n).matrix.entries, np.diag(eye[0]),
                             (indefinite + indefinite.T) / 2.0, None):
                bases, q = [], eye  # the eye basis first, where it gives probabilities
                while len(bases) < contexts:
                    if measured is None or np.all(np.abs(np.einsum(
                            "ki,ij,kj->k", q, measured, q) - 0.5) <= 0.5):
                        bases.append(q)
                    q = random_orthonormal(rng, n)
                atoms = [f"c{c}.{i}" for c in range(contexts) for i in range(n)]
                blocks = [tuple(atoms[c * n:(c + 1) * n]) for c in range(contexts)]
                rows = np.vstack(bases)
                probs = (np.einsum("ki,ij,kj->k", rows, measured, rows) if measured is not None
                         else np.tile(eye[0], contexts))
                diagram = GreechieDiagram(tuple(atoms), tuple(blocks))
                values = probs.tolist()
                verdicts = []
                orders = (np.arange(len(atoms)), rng.permutation(len(atoms)))
                for vector_order, value_order in itertools.product(orders, repeat=2):
                    realization = VectorRealization({atoms[k]: rows[k] for k in vector_order})
                    state = ProbabilityAssignment({atoms[k]: values[k] for k in value_order})
                    for keyed, order in ((realization, vector_order), (state, value_order)):
                        in_order = order.tolist() == sorted(order.tolist())
                        assert (keyed._atoms == diagram.atoms) == in_order
                    verdict = quantum_feasibility(diagram, realization, state)
                    density = verdict.density and verdict.density.matrix.entries.tobytes()
                    verdicts.append((verdict.realizable, density, repr(verdict.certificate)))
                assert verdicts == verdicts[:1] * 4
                kinds.add(verdict.certificate.kind if verdict.certificate else "realizable")
        assert {"realizable", "kernel-rank", "psd"} <= kinds

    def test_precondition_failures_raise(self):
        # The realization is checked first: its coverage, its orthogonality,
        # then the assignment's coverage and its state conditions.
        diagram, realization, measure = builtin_wright_pentagon()
        bad_state = uniform_measure(diagram, 0.3)
        skewed = VectorRealization({**realization.vectors, "b0": realization.vectors["a0"]})
        partial = VectorRealization({a: v for a, v in realization.vectors.items() if a != "a3"})
        partial_state = ProbabilityAssignment(
            {a: p for a, p in measure.values.items() if a != "a1"}
        )
        cases = [
            (realization, bad_state, InvalidState, "block-sum at a0,b0,a1"),
            (skewed, measure, InvalidRealization, r"orthogonality at a0,b0: \|<a0\|b0>\| = 1"),
            (skewed, bad_state, InvalidRealization, "orthogonality at a0,b0"),
            (partial, partial_state, UnknownAtom, "^realization misses atom 'a3'$"),
        ]
        for realization_in, assignment_in, error, message in cases:
            with pytest.raises(error, match=message):
                quantum_feasibility(diagram, realization_in, assignment_in)


class TestBuiltins:
    def test_pentagon_shape(self):
        diagram, realization, measure = builtin_wright_pentagon()
        assert len(diagram.atoms) == 10
        assert len(diagram.blocks) == 5
        assert realization.dim == 3
        assert sorted(measure.values.values()) == [0.0] * 5 + [0.5] * 5
        for block in diagram.blocks:
            assert math.fsum(measure.values[a] for a in block) == 1.0

    def test_pentagon_blocks_share_vertices_cyclically(self):
        diagram, _, _ = builtin_wright_pentagon()
        for i, block in enumerate(diagram.blocks):
            assert block == (f"a{i}", f"b{i}", f"a{(i + 1) % 5}")

    def test_spin_family_vectors(self):
        diagram, realization = builtin_spin_half_family(1, [0.0])
        assert diagram.blocks == (("x1-", "x1+"),)
        assert np.allclose(realization.vectors["x1-"], [1.0, 0.0], atol=0)
        assert np.allclose(realization.vectors["x1+"], [0.0, 1.0], atol=0)

    def test_spin_family_shapes(self):
        diagram, realization = builtin_spin_half_family(2, [0.0, math.pi / 4])
        assert len(diagram.atoms) == 4
        assert len(diagram.blocks) == 2
        assert check_realization(diagram, realization) == []

    def test_duplicate_direction_rejected(self):
        with pytest.raises(DuplicateDirection):
            builtin_spin_half_family(2, [0.25, 0.25 + math.pi])

    def test_needs_at_least_one_direction(self):
        with pytest.raises(ValueError, match=r"^n must be at least 1$"):
            builtin_spin_half_family(0, [])

    def test_direction_count_must_match(self):
        with pytest.raises(DimensionMismatch):
            builtin_spin_half_family(2, [0.0])


class TestParser:
    def test_round_trip_pentagon_equivalence(self):
        diagram, realization, measure = builtin_wright_pentagon()
        lines = [f"atom {a}" for a in diagram.atoms]
        lines += ["block " + " ".join(b) for b in diagram.blocks]
        lines += [
            f"vec {a} " + " ".join(repr(float(c)) for c in realization.vectors[a])
            for a in diagram.atoms
        ]
        lines += [f"prob {a} {measure.values[a]!r}" for a in diagram.atoms]
        parsed = parse_greechie_text("\n".join(lines))
        assert parsed.diagram == diagram
        assert parsed.assignment.values == measure.values
        for atom in diagram.atoms:
            # parsing renormalizes, which can move the last ulp
            assert np.allclose(
                parsed.realization.vectors[atom], realization.vectors[atom], atol=1e-15
            )

    def test_comments_and_blanks(self):
        parsed = parse_greechie_text(
            "# heading\n\natom a # trailing\natom b\nblock a b\n"
        )
        assert parsed.diagram.atoms == ("a", "b")
        assert parsed.assignment is None
        assert parsed.realization is None

    @pytest.mark.parametrize(
        "text,message",
        [
            ("atom a\natom a\nblock a a\n", "duplicate atom"),
            ("atom a b\n", "atom takes exactly one id"),
            ("atom a\natom b\nblock a b a\n", "block repeats an atom"),
            ("atom a\natom b\nblock a b\nprob a\n", "prob takes an id and a value"),
            ("atom a\natom b\nblock a b\nvec a\n", "vec takes an id and components"),
            ("atom a\nblock a\n", "at least 2"),
            ("atom a\natom b\nblock a c\n", "unknown atom"),
            ("atom a\natom b\nblock a b\nprob c 1\n", "unknown atom"),
            ("atom a\natom b\nblock a b\nprob a 1\nprob a 0\n", "duplicate prob"),
            ("atom a\natom b\nblock a b\nvec c 1 0\n", "unknown atom"),
            ("atom a\natom b\nblock a b\nvec a 1 0\nvec a 0 1\n", "duplicate vec"),
            ("atom a\natom b\nblock a b\nvec a 1 0\nvec b 1 0 0\n", "components"),
            ("atom a\natom b\nblock a b\nprob a x\n", "bad probability"),
            ("atom a\natom b\nblock a b\nwhat a\n", "unknown directive"),
            ("atom a\natom b\nblock a b\nprob a nan\n", "bad probability"),
            ("atom a\natom b\nblock a b\nprob a -inf\n", "bad probability"),
            ("atom a\natom b\nblock a b\nvec a inf 0\n", "non-finite"),
        ],
    )
    def test_rejects_malformed(self, text, message):
        with pytest.raises(GreechieFormatError, match=message):
            parse_greechie_text(text)

    def test_structural_problems_are_not_format_errors(self):
        with pytest.raises(ValueError, match="no block") as info:
            parse_greechie_text("atom a\natom b\natom c\nblock a b\n")
        assert not isinstance(info.value, GreechieFormatError)

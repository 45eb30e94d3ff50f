import argparse
import hashlib
import importlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gleason
from gleason import cli, density, frame, greechie, numerics
from gleason.cli import (
    EXIT_BAD_PROBES,
    EXIT_DEMO_FAIL,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNDECIDED,
    EXIT_VALIDATION,
    DEMO_CASES,
    Report,
    _polynomial,
    main,
    render_structured,
    render_text,
)
import cli_digest
from support import clamp_miss, cycling_lstsq, reference_render_structured, reference_render_text

FIXTURES = greechie.FIXTURES
# rho = psi psi^T, psi = (1, 4, 8) / 9, on two contexts of R^3: realizable, but undecided.
PSI_UNDECIDED = Path(__file__).with_name("psi_undecided.greechie")
# Two contexts of R^3 sharing e3 at probability 0: realizable, through a fit on the e1-e2 plane.
SHARED_RAY = Path(__file__).with_name("shared_ray.greechie")
# (1 - e) 1010110 + e 1011010 with e = 1.214e-9, just above tol: a convex sum of two-valued states.
NEAR_THRESHOLD = Path(__file__).with_name("near_threshold.greechie")
BOM = b"\xef\xbb\xbf"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def structured(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    payload = json.loads(out) if out else None
    return code, payload, err


def verdicts(payload):
    return {entry["name"]: entry["value"] for entry in payload["verdicts"]}


def clamp_miss_file(tmp_path):
    """``clamp_miss(3)`` as a Greechie file, atoms a0, a1, ...: undecided after the clamp."""
    vectors, probs, blocks = clamp_miss(3)
    atoms = [f"a{k}" for k in range(len(vectors))]
    lines = [f"atom {a}" for a in atoms]
    lines += ["block " + " ".join(atoms[k] for k in block) for block in blocks]
    lines += [f"vec {a} " + " ".join(map(repr, v)) for a, v in zip(atoms, vectors.tolist())]
    lines += [f"prob {a} {p!r}" for a, p in zip(atoms, probs.tolist())]
    f = tmp_path / "clamped.greechie"
    f.write_text("\n".join(lines) + "\n")
    return f


def count_calls(monkeypatch, module, name):
    """Arguments of every call to module.<name>, through each module that binds it."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for bound in (numerics, density, frame, greechie, cli):
        if vars(bound).get(name) is original:
            monkeypatch.setattr(bound, name, counting)
    return calls


class TestDensityToFrame:
    def test_pure_state_renders_single_square(self, capsys):
        code, out, err = run(capsys, "density-to-frame", str(FIXTURES / "pure_state.mat"))
        assert code == EXIT_OK
        assert "frame_function: x1^2" in out
        assert err == ""

    def test_structured_output_round_trips(self, capsys):
        code, payload, err = structured(
            capsys, "density-to-frame", str(FIXTURES / "bell_psi_plus.mat")
        )
        assert code == EXIT_OK
        assert err == ""
        matrix = verdicts(payload)["coefficient_matrix"]
        assert matrix[0][0] == 0.5
        assert matrix[0][3] == 0.5
        assert matrix[1][1] == 0.0

    def test_non_psd_input_fails_validation(self, capsys, tmp_path):
        bad = tmp_path / "bad.mat"
        bad.write_text("dim 2\n1.1 0\n0 -0.1\n")
        code, out, err = run(capsys, "density-to-frame", str(bad))
        assert code == EXIT_VALIDATION
        assert "not positive semidefinite" in err

    def test_bad_trace_fails_validation(self, capsys, tmp_path):
        bad = tmp_path / "bad.mat"
        bad.write_text("dim 2\n0.5 0\n0 0.4\n")
        code, _, err = run(capsys, "density-to-frame", str(bad))
        assert code == EXIT_VALIDATION
        assert "trace" in err

    def test_asymmetric_input_fails_validation(self, capsys, tmp_path):
        bad = tmp_path / "bad.mat"
        bad.write_text("dim 2\n0.5 0.2\n0.1 0.5\n")
        code, _, err = run(capsys, "density-to-frame", str(bad))
        assert code == EXIT_VALIDATION
        assert "not symmetric" in err

    def test_malformed_matrix_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.mat"
        bad.write_text("dim 2\n1 0\n")
        code, _, err = run(capsys, "density-to-frame", str(bad))
        assert code == EXIT_PARSE
        assert err != ""

    def test_missing_file_is_parse_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "density-to-frame", str(tmp_path / "nope.mat"))
        assert code == EXIT_PARSE


class TestUnreadableFile:
    """The read path's failures: exit 2 with the operating system's text, naming the path."""

    @pytest.mark.parametrize(
        "argv", [["signature"], ["reconstruct"], ["greechie", "check"]], ids=" ".join
    )
    def test_missing_file_and_directory(self, capsys, tmp_path, argv):
        missing = tmp_path / "missing"
        assert run(capsys, *argv, str(missing)) == (
            EXIT_PARSE,
            "",
            f"error: [Errno 2] No such file or directory: '{missing}'\n",
        )
        assert run(capsys, *argv, str(tmp_path)) == (
            EXIT_PARSE,
            "",
            f"error: [Errno 21] Is a directory: '{tmp_path}'\n",
        )

    def test_demo_with_a_missing_fixtures_directory(self, capsys, tmp_path):
        missing = tmp_path / "missing"
        code, out, err = run(capsys, "demo-paper", "--fixtures", str(missing))
        assert (code, err) == (EXIT_DEMO_FAIL, "")
        for name, _ in DEMO_CASES:
            prefix = f"{name}: FAIL: FileNotFoundError: [Errno 2] No such file or directory: "
            assert any(line.startswith(f"{prefix}'{missing}/") for line in out.splitlines()), name
        assert "failed: 13\n" in out


class TestRendering:
    def test_bell_mixture_frame_function(self, capsys):
        code, out, _ = run(capsys, "density-to-frame", str(FIXTURES / "bell_mixture.mat"))
        assert code == EXIT_OK
        assert (
            "frame_function: 0.125 x1^2 + 0.375 x2^2 + 0.375 x3^2 + 0.125 x4^2"
            " + 0.25 x1 x4 + 0.75 x2 x3\n"
        ) in out

    @pytest.mark.parametrize(
        "form, text",
        [
            ([[-2.0, 0.5], [0.5, 1.0]], "-2 x1^2 + x2^2 + x1 x2"),
            ([[0.0, -0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, -1.0]], "-x3^2 - x1 x2"),
            ([[0.0, 0.0], [0.0, 0.0]], "0"),
        ],
    )
    def test_polynomial_signs_and_unit_coefficients(self, form, text):
        assert _polynomial(np.array(form)) == text

    def test_every_value_shape(self):
        report = Report("shapes", {"path": "p", "n": np.int64(3)})
        for name, value in (
            ("matrix", np.array([[1.0, 0.5], [0.0, -2.0]])),
            ("rows", [[1, 2]]),
            ("records", [{"weight": 0.5, "state": "10"}, {"weight": np.float64(0.25)}]),
            ("floats", [0.25, 1.0 / 3.0]),
            ("empty", []),
            ("counts", {"positive": 2, "negative": np.int64(0)}),
            ("flag", True),
            ("np_flag", np.bool_(False)),
            ("x", 1.0 / 3.0),
            ("np_x", np.float64(2.5)),
            ("k", 7),
            ("np_k", np.int32(-7)),
            ("none", None),
        ):
            report.add(name, value)
        assert render_text(report) == (
            "# shapes\n"
            "input path: p\n"
            "input n: 3\n"
            "matrix:\n  1 0.5\n  0 -2\n"
            "rows:\n  1 2\n"
            "records:\n  - weight=0.5  state=10\n  - weight=0.25\n"
            "floats:\n  - 0.25\n  - 0.333333\n"
            "empty:\n"
            "counts: positive=2  negative=0\n"
            "flag: true\n"
            "np_flag: false\n"
            "x: 0.333333\n"
            "np_x: 2.5\n"
            "k: 7\n"
            "np_k: -7\n"
            "none: None\n"
        )
        payload = json.loads(render_structured(report))
        assert payload == {
            "command": "shapes",
            "inputs": {"path": "p", "n": 3},
            "verdicts": [
                {"name": "matrix", "value": [[1.0, 0.5], [0.0, -2.0]]},
                {"name": "rows", "value": [[1, 2]]},
                {"name": "records", "value": [{"weight": 0.5, "state": "10"}, {"weight": 0.25}]},
                {"name": "floats", "value": [0.25, 1.0 / 3.0]},
                {"name": "empty", "value": []},
                {"name": "counts", "value": {"positive": 2, "negative": 0}},
                {"name": "flag", "value": True},
                {"name": "np_flag", "value": False},
                {"name": "x", "value": 1.0 / 3.0},
                {"name": "np_x", "value": 2.5},
                {"name": "k", "value": 7},
                {"name": "np_k", "value": -7},
                {"name": "none", "value": None},
            ],
        }
        kinds = [type(v["value"]) for v in payload["verdicts"][6:12]]
        assert kinds == [bool, bool, float, float, int, int]
        assert render_text(report) == reference_render_text(report)
        assert render_structured(report) == reference_render_structured(report)

    def test_acceptance_reports_render_as_the_reference(self):
        # Every report of tests/cli_digest.py, structured reconstruct and KS-18
        # feasibility too, which neither snapshot file holds.
        parser = cli.build_parser()
        for argv in cli_digest.invocations():
            args = parser.parse_args(argv)
            report, _ = args.handler(args)
            assert render_structured(report) == reference_render_structured(report), argv
            assert render_text(report) == reference_render_text(report), argv


# 1e9-scale form whose signature is fine; its entries span ten decades.
LARGE_FORM = np.array([[3e9, 1e9, 2.0], [1e9, 5e9, -7.0], [2.0, -7.0, 4e9]])


class TestReconstruct:
    def test_form_matrix_full_analysis(self, capsys):
        code, payload, err = structured(capsys, "reconstruct", str(FIXTURES / "sevenths.mat"))
        assert code == EXIT_OK
        assert err == ""
        values = verdicts(payload)
        assert values["quantum"] is True
        weights = values["mixture_weights"]
        assert abs(weights[0] - 4.0 / 7.0) <= 1e-12
        assert abs(weights[1] - 3.0 / 7.0) <= 1e-12
        assert values["signature"] == {"positive": 2, "negative": 0, "zero": 1}
        assert values["classification"] == 2

    def test_frame_to_density_alias(self, capsys):
        code, payload, _ = structured(
            capsys, "frame-to-density", str(FIXTURES / "twelfths.mat")
        )
        assert code == EXIT_OK
        assert verdicts(payload)["classification"] == 3

    def test_structured_floats_recover_library_values(self, capsys):
        code, payload, _ = structured(capsys, "reconstruct", str(FIXTURES / "sevenths.mat"))
        assert code == EXIT_OK
        from gleason import (
            FrameFunction,
            FrameOracle,
            SymMatrix,
            parse_matrix_text,
            reconstruct_density,
        )

        form = SymMatrix(parse_matrix_text((FIXTURES / "sevenths.mat").read_text()))
        rho = reconstruct_density(FrameOracle.from_frame_function(FrameFunction(form)))
        got = np.array(verdicts(payload)["reconstructed"])
        # structured mode must reproduce the in-process floats bit for bit
        assert np.array_equal(got, rho.matrix.entries)

    def test_non_quantum_form_is_flagged_not_fatal(self, capsys, tmp_path):
        form = tmp_path / "heavy.mat"
        form.write_text("dim 3\n2 0 0\n0 0 0\n0 0 0\n")
        code, payload, err = structured(capsys, "reconstruct", str(form))
        assert code == EXIT_OK
        assert err == ""
        values = verdicts(payload)
        assert values["quantum"] is False
        assert abs(values["trace"] - 2.0) <= 1e-12
        assert values["signature"] == {"positive": 1, "negative": 0, "zero": 2}
        assert values["classification"] == 1

    def test_indefinite_form_has_no_classification(self, capsys, tmp_path):
        form = tmp_path / "indefinite.mat"
        form.write_text("dim 2\n1.5 0\n0 -0.5\n")
        for command in ("reconstruct", "signature"):
            code, payload, _ = structured(capsys, command, str(form))
            assert code == EXIT_OK
            values = verdicts(payload)
            assert values["classification"] is None
            assert "negative squares" in values["classification_note"]
            if command == "reconstruct":
                assert values["quantum"] is False

    def test_probe_table_reconstruction(self, capsys, tmp_path):
        s = float(np.sqrt(0.5))
        table = tmp_path / "probes.txt"
        table.write_text(
            "1 0 1\n0 1 0\n" + f"{s!r} {s!r} {s * s!r}\n" + f"{s!r} {-s!r} {s * s!r}\n"
        )
        code, payload, _ = structured(capsys, "reconstruct", str(table))
        assert code == EXIT_OK
        values = verdicts(payload)
        assert values["residual"] <= 1e-12
        got = np.array(values["reconstructed"])
        assert np.max(np.abs(got - np.diag([1.0, 0.0]))) <= 1e-9

    def test_inconsistent_probe_table_exits_four(self, capsys, tmp_path):
        table = tmp_path / "probes.txt"
        table.write_text("1 0 0\n1 0 1\n")
        code, _, err = run(capsys, "reconstruct", str(table))
        assert code == EXIT_BAD_PROBES
        assert "inconsistent" in err

    def test_inconsistent_probe_table_at_large_scale_exits_four(self, capsys, tmp_path):
        table = tmp_path / "probes.txt"
        table.write_text("1 0 0\n1 0 1e9\n")
        code, _, err = run(capsys, "reconstruct", str(table))
        assert code == EXIT_BAD_PROBES
        assert "inconsistent" in err

    def test_large_scale_form_matrix(self, capsys, tmp_path):
        path = tmp_path / "large.mat"
        path.write_text(numerics.format_matrix_text(LARGE_FORM))
        assert run(capsys, "signature", str(path))[0] == EXIT_OK
        code, payload, err = structured(capsys, "reconstruct", str(path))
        assert (code, err) == (EXIT_OK, "")
        got = np.array(verdicts(payload)["reconstructed"])
        assert np.max(np.abs(got - LARGE_FORM)) <= 1e-12 * np.max(np.abs(LARGE_FORM))

    def test_diagonal_near_the_float_limit(self, capsys, tmp_path):
        # f(e_1) + f(e_3) overflows float64; f(e_1)/2 + f(e_3)/2 does not.
        path = tmp_path / "huge.mat"
        path.write_text("dim 3\n1e308 0 0\n0 -1e308 0\n0 0 1e308\n")
        lines = []
        for command in ("signature", "reconstruct"):
            code, out, err = run(capsys, command, str(path))
            assert (code, err) == (EXIT_OK, "")
            lines += [line for line in out.splitlines() if line.startswith("signature:")]
        assert lines == ["signature: positive=2  negative=1  zero=0"] * 2

    def test_large_scale_probe_table(self, capsys, tmp_path):
        x = np.random.default_rng(12).standard_normal((12, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        values = np.einsum("ki,ij,kj->k", x, LARGE_FORM, x)
        table = tmp_path / "probes.txt"
        rows = np.column_stack([x, values]).tolist()
        table.write_text("".join(" ".join(map(repr, row)) + "\n" for row in rows))
        code, payload, err = structured(capsys, "reconstruct", str(table))
        assert (code, err) == (EXIT_OK, "")
        got = np.array(verdicts(payload)["reconstructed"])
        assert np.max(np.abs(got - LARGE_FORM)) <= 1e-12 * np.max(np.abs(LARGE_FORM))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1\n", "probe line 1: need at least one coordinate and a value"),
            ("# no rows\n", "empty probe table"),
            ("1 0 1\n0 1 0 5\n", "probe lines have inconsistent column counts"),
            ("1e200 0 0.5\n", "probe line 1: coordinate 1e+200 is too large"),
        ],
        ids=["one-column", "empty", "ragged", "too-large"],
    )
    def test_malformed_probe_table_is_parse_error(self, capsys, tmp_path, text, message):
        table = tmp_path / "probes.txt"
        table.write_text(text)
        assert run(capsys, "reconstruct", str(table)) == (EXIT_PARSE, "", f"error: {message}\n")

    def test_form_value_near_the_float_limit(self, tmp_path):
        # x @ A overflows float64 at (1, 1)/sqrt 2 though the value does not; under
        # -W error a warning would end the run in a traceback. Some check probes
        # really are past the float range, so the oracle is refused.
        form = tmp_path / "huge.mat"
        form.write_text("dim 2\n1e308 1.7e308\n1.7e308 -1e308\n")
        src = str(Path(gleason.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gleason.cli", "reconstruct", str(form)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, "")
        assert proc.stderr == "error: oracle value -inf is not finite\n"

    @pytest.mark.parametrize("coordinate", ["1e200", "1e170", "-9.5e153"])
    def test_huge_probe_coordinate_is_parse_error(self, tmp_path, coordinate):
        # Such a row overflows to inf, and LAPACK has hung on it: run apart, with a timeout.
        table = tmp_path / "probes.txt"
        table.write_text(f"0 1 0\n{coordinate} 0.5 1\n1 1 0.5\n")
        src = str(Path(gleason.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gleason.cli", "reconstruct", str(table)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == EXIT_PARSE
        assert proc.stdout == ""
        peak = abs(float(coordinate))
        assert proc.stderr == f"error: probe line 2: coordinate {peak:g} is too large\n"


    def test_consistent_probe_table_near_the_float_limit(self, tmp_path):
        # The residual's squares overflow float64: any numpy warning must fail the run.
        table = tmp_path / "probes.txt"
        table.write_text("1 0 1e300\n0 1 0\n1 1 0.5\n")
        src = str(Path(gleason.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gleason.cli", "reconstruct", "--format",
             "structured", str(table)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        residual = verdicts(json.loads(proc.stdout))["residual"]
        assert 0.0 <= residual <= 1e-14 * 1e300


class TestOneSpectrumPerMatrix:
    @pytest.mark.parametrize("command", ["reconstruct", "frame-to-density"])
    def test_reconstruct_diagonalizes_once(self, capsys, monkeypatch, command):
        calls = count_calls(monkeypatch, numerics, "eigh")
        code, _, _ = run(capsys, command, str(FIXTURES / "sevenths.mat"))
        assert code == EXIT_OK
        assert len(calls) == 1


class TestSignatureCommand:
    def test_twelfths(self, capsys):
        code, payload, _ = structured(capsys, "signature", str(FIXTURES / "twelfths.mat"))
        assert code == EXIT_OK
        values = verdicts(payload)
        assert values["signature"] == {"positive": 3, "negative": 0, "zero": 0}
        assert values["classification"] == 3
        assert abs(values["weight"] - 1.0) <= 1e-12

    def test_form_near_the_float_limit(self, capsys, tmp_path):
        # Eigenvalues near +-1e308: symmetrizing must not overflow to inf.
        form = tmp_path / "huge.mat"
        form.write_text("dim 2\n1 1e308\n1e308 1\n")
        code, payload, err = structured(capsys, "signature", str(form))
        assert (code, err) == (EXIT_OK, "")
        values = verdicts(payload)
        assert values["signature"] == {"positive": 1, "negative": 1, "zero": 0}
        assert values["classification"] is None

    def test_overflowed_eigenvalue_is_not_zero(self, capsys, tmp_path):
        # Trace 0, eigenvalues 2e308 (past the float range) and -1e308 twice.
        form = tmp_path / "huge3.mat"
        form.write_text("dim 3\n0 1e308 1e308\n1e308 0 1e308\n1e308 1e308 0\n")
        code, out, err = run(capsys, "signature", str(form))
        assert (code, err) == (EXIT_OK, "")
        assert "signature: positive=1  negative=2  zero=0" in out.splitlines()

    def test_bad_dimension_is_parse_error(self, capsys, tmp_path):
        form = tmp_path / "bad.mat"
        form.write_text("dim x\n")
        assert run(capsys, "signature", str(form)) == (EXIT_PARSE, "", "error: bad dimension 'x'\n")

    def test_roundoff_of_a_large_product_is_not_asymmetry(self, capsys, tmp_path):
        # q diag(w) q^T at scale 1e6 is symmetric only up to roundoff near 1e-10.
        rng = np.random.default_rng(0)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        product = q @ np.diag(rng.uniform(0.5, 1.5, 4) * 1e6) @ q.T
        assert np.abs(product - product.T).max() > 1e-12
        form = tmp_path / "large.mat"
        form.write_text(numerics.format_matrix_text(product))
        code, payload, err = structured(capsys, "signature", str(form))
        assert (code, err) == (EXIT_OK, "")
        assert verdicts(payload)["signature"] == {"positive": 4, "negative": 0, "zero": 0}

    @pytest.mark.parametrize("command", ["signature", "reconstruct"])
    def test_asymmetry_at_the_float_limit(self, tmp_path, command):
        # a - a^T overflows float64 here: any numpy warning must fail the run.
        form = tmp_path / "skew.mat"
        form.write_text("dim 2\n0 1e308\n-1e308 0\n")
        src = str(Path(gleason.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gleason.cli", command, str(form)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, "")
        assert proc.stderr == "error: matrix is not symmetric (max |a - a^T| = inf)\n"

    @pytest.mark.parametrize(
        "rows, command",
        [
            ("1e308 1e308\n1e308 1e308", "signature"),
            ("1e308 1e308\n1e308 1e308", "density-to-frame"),
            ("1e308 1e308\n1e308 1e308", "reconstruct"),
            ("1e308 0\n0 1e308", "signature"),
            ("1e308 0\n0 1e308", "density-to-frame"),
        ],
        ids=["full-signature", "full-density", "full-reconstruct", "diag-signature", "diag-density"],
    )
    def test_trace_past_the_float_limit(self, tmp_path, rows, command):
        # The trace 2e308 overflows float64: any numpy warning must fail the run.
        form = tmp_path / "huge.mat"
        form.write_text(f"dim 2\n{rows}\n")
        src = str(Path(gleason.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gleason.cli", command, str(form)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, "")
        assert proc.stderr == "error: matrix trace overflows float64\n"

    def test_custom_tolerance_moves_the_boundary(self, capsys, tmp_path):
        form = tmp_path / "soft.mat"
        form.write_text("dim 2\n1 0\n0 1e-6\n")
        _, payload, _ = structured(capsys, "signature", str(form))
        assert verdicts(payload)["signature"]["positive"] == 2
        _, payload, _ = structured(capsys, "signature", str(form), "--tol", "1e-3")
        assert verdicts(payload)["signature"]["positive"] == 1
        # main reuses its parser, so the next call must not see that --tol.
        _, payload, _ = structured(capsys, "signature", str(form))
        assert verdicts(payload)["signature"]["positive"] == 2


class TestTolOption:
    @pytest.mark.parametrize("command", ["signature", "greechie check"])
    @pytest.mark.parametrize("token", ["nan", "inf", "0", "-1", "1e400", "abc"])
    def test_tol_must_be_finite_and_positive(self, capsys, tmp_path, command, token):
        # A usage error (exit 2) that names the token, never a verdict or a validation failure.
        one_zero = tmp_path / "one-zero.greechie"
        one_zero.write_text("atom a\natom b\nblock a b\nprob a 1\nprob b 0\n")
        path = FIXTURES / "twelfths.mat" if command == "signature" else one_zero
        with pytest.raises(SystemExit) as info:
            main([*command.split(), str(path), "--tol", token])
        assert info.value.code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err
        assert f"must be a finite positive number, got {token!r}" in captured.err
        assert "_positive_tol" not in captured.err

    @pytest.mark.parametrize(
        "line, kind",
        [("vec a 1 0\nvec b 1e-6 1", "orthogonality"), ("prob a 0.5\nprob b 0.500001", "block-sum")],
        ids=["orthogonality", "block-sum"],
    )
    def test_tol_moves_the_check_verdict(self, capsys, tmp_path, line, kind):
        # A fault of 1e-6: over the default threshold, under 1e-3.
        path = tmp_path / "near.greechie"
        path.write_text(f"atom a\natom b\nblock a b\n{line}\n")
        code, payload, _ = structured(capsys, "greechie", "check", str(path))
        assert code == EXIT_VALIDATION
        assert [v["kind"] for v in verdicts(payload)["violations"]] == [kind]
        code, payload, _ = structured(capsys, "greechie", "check", str(path), "--tol", "1e-3")
        assert (code, verdicts(payload)["violations"]) == (EXIT_OK, [])

    def test_tol_moves_the_reconstructed_signature(self, capsys, tmp_path):
        form = tmp_path / "soft.mat"
        form.write_text("dim 2\n1 0\n0 1e-6\n")
        _, payload, _ = structured(capsys, "reconstruct", str(form))
        assert verdicts(payload)["signature"]["positive"] == 2
        _, payload, _ = structured(capsys, "reconstruct", str(form), "--tol", "1e-3")
        assert verdicts(payload)["signature"]["positive"] == 1


class TestGreechieCommands:
    @pytest.mark.parametrize(
        "subcommand, text, message",
        [
            (
                "decompose",
                "atom a\natom b\nblock a b\n",
                "file has no prob lines; nothing to decompose",
            ),
            (
                "feasibility",
                "atom a\natom b\nblock a b\nprob a 1\nprob b 0\n",
                "feasibility needs both prob and vec lines",
            ),
        ],
        ids=["decompose-without-prob", "feasibility-without-vec"],
    )
    def test_missing_lines_are_greechie_format_errors(
        self, capsys, tmp_path, subcommand, text, message
    ):
        path = tmp_path / "partial.greechie"
        path.write_text(text)
        args = cli.build_parser().parse_args(["greechie", subcommand, str(path)])
        with pytest.raises(greechie.GreechieFormatError) as raised:
            args.handler(args)
        assert str(raised.value) == message
        code, out, err = run(capsys, "greechie", subcommand, str(path))
        assert (code, out, err) == (EXIT_PARSE, "", f"error: {message}\n")

    def test_check_pentagon(self, capsys):
        code, payload, err = structured(
            capsys, "greechie", "check", str(FIXTURES / "pentagon.greechie")
        )
        assert code == EXIT_OK
        assert err == ""
        assert verdicts(payload)["valid"] is True

    def test_check_corrupted_pentagon(self, capsys, tmp_path):
        text = (FIXTURES / "pentagon.greechie").read_text()
        corrupted = text.replace("vec a0 0.4370160244488211", "vec a0 0.5370160244488211")
        bad = tmp_path / "pentagon.greechie"
        bad.write_text(corrupted)
        code, payload, _ = structured(capsys, "greechie", "check", str(bad))
        assert code == EXIT_VALIDATION
        values = verdicts(payload)
        assert values["valid"] is False
        assert any(v["kind"] == "orthogonality" for v in values["violations"])

    def test_two_valued_pentagon(self, capsys):
        code, payload, _ = structured(
            capsys, "greechie", "two-valued", str(FIXTURES / "pentagon.greechie")
        )
        assert code == EXIT_OK
        values = verdicts(payload)
        assert values["count"] == 11
        assert len(values["states"]) == 11
        assert all(set(s) <= {"0", "1"} for s in values["states"])

    def test_two_valued_chain_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        # 1200 two-atom blocks over 1201 atoms have two states; the search once exited 3 here.
        chain = tmp_path / "chain.greechie"
        atoms = "".join(f"atom x{i}\n" for i in range(1201))
        chain.write_text(atoms + "".join(f"block x{i} x{i + 1}\n" for i in range(1200)))
        code, out, err = run(capsys, "greechie", "two-valued", str(chain))
        assert (code, err) == (EXIT_OK, "")
        assert "count: 2" in out.splitlines()

    def test_decompose_uniform(self, capsys):
        code, payload, _ = structured(
            capsys, "greechie", "decompose", str(FIXTURES / "fig_two_contexts_ignorant.greechie")
        )
        assert code == EXIT_OK
        values = verdicts(payload)
        assert values["decomposable"] is True
        assert abs(sum(w["weight"] for w in values["weights"]) - 1.0) <= 1e-9

    def test_decompose_pentagon_is_infeasible(self, capsys):
        code, payload, err = structured(
            capsys, "greechie", "decompose", str(FIXTURES / "pentagon.greechie")
        )
        assert code == EXIT_INFEASIBLE
        assert verdicts(payload)["decomposable"] is False
        assert err == ""

    def test_decompose_near_the_threshold(self, capsys):
        # Once "decomposable: false" with exit 5: NNLS stopped while the small weight's
        # column still had a positive gradient, below tol.
        code, out, err = run(capsys, "greechie", "decompose", str(NEAR_THRESHOLD))
        assert (code, err) == (EXIT_OK, "")
        assert "decomposable: true" in out.splitlines()
        code, payload, err = structured(capsys, "greechie", "decompose", str(NEAR_THRESHOLD))
        assert (code, err) == (EXIT_OK, "")
        values = verdicts(payload)
        assert values["decomposable"] is True
        weights = np.array([w["weight"] for w in values["weights"]])
        states = np.array([[int(c) for c in w["state"]] for w in values["weights"]])
        parsed = greechie.parse_greechie_text(NEAR_THRESHOLD.read_text())
        p = np.array([parsed.assignment.values[a] for a in parsed.diagram.atoms])
        assert np.max(np.abs(weights @ states - p)) <= 1e-9

    def test_decompose_solver_give_up_is_undecided(self, capsys, monkeypatch):
        # A give-up proves neither answer; it once exited 3 with the message on stderr alone.
        message = "non-negative least squares did not settle in 3n steps"

        def give_up(*args, **kwargs):
            raise RuntimeError(message)

        monkeypatch.setattr(greechie, "lp_feasible", give_up)
        f = FIXTURES / "fig_two_contexts_ignorant.greechie"
        code, out, err = run(capsys, "greechie", "decompose", str(f))
        assert (code, err) == (EXIT_UNDECIDED, "")
        assert out == (
            f"# greechie decompose\ninput path: {f}\ninput atoms: 4\ninput blocks: 2\n"
            f"decomposable: undecided\nexplanation: {message}\n"
        )
        code, payload, err = structured(capsys, "greechie", "decompose", str(f))
        assert (code, err) == (EXIT_UNDECIDED, "")
        assert verdicts(payload) == {"decomposable": "undecided", "explanation": message}

    def test_decompose_solver_cycle_is_undecided(self, capsys, monkeypatch, tmp_path):
        # One two-atom block gives two LP columns, which cycling_lstsq makes take turns
        # until lp_feasible itself gives up: its message is the explanation.
        f = tmp_path / "pair.greechie"
        f.write_text("atom a\natom b\nblock a b\nprob a 0.5\nprob b 0.5\n")
        monkeypatch.setattr(np.linalg, "lstsq", cycling_lstsq())
        code, out, err = run(capsys, "greechie", "decompose", str(f))
        assert (code, err) == (EXIT_UNDECIDED, "")
        assert out.endswith(
            "decomposable: undecided\n"
            "explanation: non-negative least squares did not settle in 3n steps\n"
        )
        monkeypatch.setattr(np.linalg, "lstsq", cycling_lstsq())
        code, payload, err = structured(capsys, "greechie", "decompose", str(f))
        assert (code, err) == (EXIT_UNDECIDED, "")
        assert verdicts(payload) == {
            "decomposable": "undecided",
            "explanation": "non-negative least squares did not settle in 3n steps",
        }

    def test_decompose_without_probs_is_parse_error(self, capsys, tmp_path):
        f = tmp_path / "bare.greechie"
        f.write_text("atom a\natom b\nblock a b\n")
        code, _, err = run(capsys, "greechie", "decompose", str(f))
        assert code == EXIT_PARSE
        assert "prob" in err

    def test_feasibility_pentagon_certificate(self, capsys):
        code, payload, _ = structured(
            capsys, "greechie", "feasibility", str(FIXTURES / "pentagon.greechie")
        )
        assert code == EXIT_INFEASIBLE
        values = verdicts(payload)
        assert values["realizable"] is False
        assert values["certificate_kind"] == "kernel-rank"
        assert values["kernel_rank"] == 3

    def test_feasibility_ignorant_state(self, capsys):
        code, payload, _ = structured(
            capsys, "greechie", "feasibility", str(FIXTURES / "fig_two_contexts_ignorant.greechie")
        )
        assert code == EXIT_OK
        values = verdicts(payload)
        assert values["realizable"] is True
        got = np.array(values["density"])
        assert np.max(np.abs(got - np.diag([0.5, 0.5]))) <= 1e-10

    def test_feasibility_classical_measure(self, capsys):
        code, payload, _ = structured(
            capsys, "greechie", "feasibility", str(FIXTURES / "fig_two_contexts_classical.greechie")
        )
        assert code == EXIT_INFEASIBLE
        assert verdicts(payload)["realizable"] is False

    @pytest.mark.parametrize(
        "probs, certificate",
        [
            (
                (1, 0, 0.9, 0.1),
                "certificate_kind: residual\n"
                "constraint_violations:\n"
                "  - subject=x2-  target=0.9  achieved=0.5\n"
                "  - subject=x2+  target=0.1  achieved=0.5\n"
                "explanation: no symmetric solution meets every constraint "
                "(x2-: needs 0.9, best 0.5, x2+: needs 0.1, best 0.5)\n",
            ),
            (
                (0.999, 0.001, 0.999, 0.001),
                "certificate_kind: psd\n"
                "min_eigenvalue: -0.205693\n"
                "explanation: solution is not positive semidefinite "
                "(minimum eigenvalue -2.057e-01)\n",
            ),
        ],
        ids=["residual", "psd"],
    )
    def test_feasibility_certificate_text(self, capsys, tmp_path, probs, certificate):
        lines = (FIXTURES / "fig_two_contexts_classical.greechie").read_text().splitlines()
        kept = [line for line in lines if not line.startswith("prob ")]
        atoms = ("x1-", "x1+", "x2-", "x2+")
        f = tmp_path / "contexts.greechie"
        f.write_text("\n".join(kept + [f"prob {a} {p}" for a, p in zip(atoms, probs)]) + "\n")
        code, out, err = run(capsys, "greechie", "feasibility", str(f))
        assert (code, err) == (EXIT_INFEASIBLE, "")
        assert out == (
            f"# greechie feasibility\ninput path: {f}\ninput atoms: 4\ninput blocks: 2\n"
            "realizable: false\n" + certificate
        )

    def test_feasibility_undecided(self, capsys):
        # The minimum-norm fit of the underdetermined system is not positive semidefinite.
        f = PSI_UNDECIDED
        code, out, err = run(capsys, "greechie", "feasibility", str(f))
        assert (code, err) == (EXIT_UNDECIDED, "") and EXIT_UNDECIDED == 6
        assert out == (
            f"# greechie feasibility\ninput path: {f}\ninput atoms: 6\ninput blocks: 2\n"
            "realizable: undecided\n"
            "min_eigenvalue: -0.0566614\n"
            "explanation: the measure does not determine rho, and the minimum-norm candidate "
            "is not positive semidefinite; another density operator may still give the measure\n"
        )
        code, payload, err = structured(capsys, "greechie", "feasibility", str(f))
        assert (code, err) == (EXIT_UNDECIDED, "")
        values = verdicts(payload)
        assert list(values) == ["realizable", "min_eigenvalue", "explanation"]
        assert values["realizable"] == "undecided"
        assert abs(values["min_eigenvalue"] + 0.0566614) <= 1e-7

    def test_feasibility_reduced_fit(self, capsys):
        # z at probability 0 forces rho e3 = 0, so rho is fitted on the e1-e2 plane.
        code, out, err = run(capsys, "greechie", "feasibility", str(SHARED_RAY))
        assert (code, err) == (EXIT_OK, "")
        assert "realizable: true\n" in out
        code, payload, err = structured(capsys, "greechie", "feasibility", str(SHARED_RAY))
        assert (code, err) == (EXIT_OK, "")
        values = verdicts(payload)
        assert values["realizable"] is True
        assert np.max(np.abs(np.array(values["density"]) - np.diag([0.5, 0.5, 0.0]))) <= 1e-12

    def test_feasibility_ks18_is_the_maximally_mixed_state(self, capsys):
        # Nine contexts of R^4 fix rho, and the uniform 1/4 measure gives I/4. The text
        # snapshot leaves this report out, as its off-diagonal entries carry roundoff.
        code, payload, err = structured(capsys, "greechie", "feasibility", str(KS18))
        assert (code, err) == (EXIT_OK, "")
        values = verdicts(payload)
        assert values["realizable"] is True
        assert np.max(np.abs(np.array(values["density"]) - np.eye(4) / 4.0)) <= 1e-14

    def test_feasibility_undecided_after_the_clamp(self, capsys, tmp_path):
        f = clamp_miss_file(tmp_path)
        code, payload, err = structured(capsys, "greechie", "feasibility", str(f))
        assert (code, err) == (EXIT_UNDECIDED, "")
        values = verdicts(payload)
        assert list(values) == ["realizable", "min_eigenvalue", "constraint_violations",
                                "explanation"]
        assert [v["subject"] for v in values["constraint_violations"]] == ["a0", "a1"]
        assert values["explanation"].startswith(
            "the measure does not determine rho, and the minimum-norm candidate misses a "
            "constraint once clamped; "
        )

    @pytest.mark.parametrize(
        "case, status, kind, code",
        [
            ("pentagon", "no", "kernel-rank", EXIT_INFEASIBLE),
            ("psi", "undecided", "psd", EXIT_UNDECIDED),
            ("clamp_miss", "undecided", "residual", EXIT_UNDECIDED),
            ("ignorant", "yes", None, EXIT_OK),
        ],
    )
    def test_feasibility_explanation_and_exit_follow_the_verdict(
        self, capsys, tmp_path, case, status, kind, code
    ):
        # The exit code is read off the status alone; the explanation line is describe().
        f = {
            "pentagon": FIXTURES / "pentagon.greechie",
            "psi": PSI_UNDECIDED,
            "clamp_miss": clamp_miss_file(tmp_path),
            "ignorant": FIXTURES / "fig_two_contexts_ignorant.greechie",
        }[case]
        parsed = greechie.parse_greechie_text(f.read_text())
        verdict = greechie.quantum_feasibility(
            parsed.diagram, parsed.realization, parsed.assignment
        )
        assert verdict.status == status
        assert (verdict.certificate and verdict.certificate.kind) == kind
        explanation = verdict.describe()
        assert (explanation is None) == (status == "yes")
        code_got, out, err = run(capsys, "greechie", "feasibility", str(f))
        assert (code_got, err) == (code, "")
        lines = [line for line in out.splitlines() if line.startswith("explanation: ")]
        assert lines == ([] if explanation is None else [f"explanation: {explanation}"])
        code_got, payload, err = structured(capsys, "greechie", "feasibility", str(f))
        assert (code_got, err) == (code, "")
        assert verdicts(payload).get("explanation") == explanation

    def test_feasibility_requires_vectors(self, capsys, tmp_path):
        f = tmp_path / "noprobs.greechie"
        f.write_text("atom a\natom b\nblock a b\nprob a 1\nprob b 0\n")
        code, _, err = run(capsys, "greechie", "feasibility", str(f))
        assert code == EXIT_PARSE
        assert "vec" in err

    def test_invalid_state_fails_validation(self, capsys, tmp_path):
        f = tmp_path / "badsum.greechie"
        f.write_text(
            "atom a\natom b\nblock a b\nvec a 1 0\nvec b 0 1\nprob a 0.7\nprob b 0.7\n"
        )
        code, _, err = run(capsys, "greechie", "feasibility", str(f))
        assert code == EXIT_VALIDATION


    @pytest.mark.parametrize("scale", ["1e200", "1e-160"])
    def test_check_extreme_scale_vectors(self, capsys, tmp_path, scale):
        # Unit norm is kept at construction even where v @ v leaves the float range.
        f = tmp_path / "scaled.greechie"
        f.write_text(
            f"atom a\natom b\natom c\nblock a b\nblock b c\n"
            f"vec a {scale} 0\nvec b 0 {scale}\nvec c {scale} {scale}\n"
        )
        code, payload, err = structured(capsys, "greechie", "check", str(f))
        assert code == EXIT_VALIDATION
        assert err == ""
        values = verdicts(payload)
        assert values["valid"] is False
        assert [(v["kind"], v["subject"]) for v in values["violations"]] == [
            ("orthogonality", "b,c")
        ]


KS18 = Path(__file__).resolve().parents[1] / "perfbench" / "ks18.greechie"
# Text stdout and exit code per "<subcommand> <file name>". KS-18 feasibility is
# left out: its density carries LAPACK roundoff near 1e-17.
GREECHIE_SNAPSHOT = json.loads((Path(__file__).parent / "greechie_cli_snapshot.json").read_text())


class TestGreechieSnapshot:
    @pytest.mark.parametrize("key", sorted(GREECHIE_SNAPSHOT))
    def test_text_output(self, capsys, monkeypatch, key):
        subcommand, name = key.split()
        path = KS18 if name == KS18.name else FIXTURES / name
        monkeypatch.chdir(path.parent)  # the report prints the path as given
        code, out, _ = run(capsys, "greechie", subcommand, name)
        assert {"exit": code, "stdout": out} == GREECHIE_SNAPSHOT[key]

    def test_covers_every_fixture_and_subcommand(self):
        names = [p.name for p in FIXTURES.glob("*.greechie")] + [KS18.name]
        subcommands = ("check", "two-valued", "decompose", "feasibility")
        want = {f"{s} {n}" for s in subcommands for n in names} - {"feasibility ks18.greechie"}
        assert set(GREECHIE_SNAPSHOT) == want


# The same record for the .mat commands whose text prints no roundoff. reconstruct
# and frame-to-density are left out: their polarization leaves residues such as
# -5.55112e-17 where the input has 0, and those come from BLAS products.
MATRIX_SNAPSHOT = json.loads((Path(__file__).parent / "matrix_cli_snapshot.json").read_text())


class TestMatrixSnapshot:
    @pytest.mark.parametrize("key", sorted(MATRIX_SNAPSHOT))
    def test_text_output(self, capsys, monkeypatch, key):
        command, name = key.split()
        monkeypatch.chdir(FIXTURES)  # the report prints the path as given
        code, out, _ = run(capsys, command, name)
        assert {"exit": code, "stdout": out} == MATRIX_SNAPSHOT[key]

    def test_covers_every_fixture_and_command(self):
        names = [p.name for p in FIXTURES.glob("*.mat")]
        assert len(names) == 10
        want = {f"{c} {n}" for c in ("density-to-frame", "signature") for n in names}
        assert set(MATRIX_SNAPSHOT) == want


class TestNonFiniteInput:
    """nan and infinities are format errors (exit 2), never silent verdicts."""

    @pytest.mark.parametrize("command", ["density-to-frame", "reconstruct", "signature"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_matrix_file(self, capsys, tmp_path, command, token):
        f = tmp_path / "bad.mat"
        f.write_text(f"dim 2\n{token} 0\n0 {token}\n")
        code, out, err = run(capsys, command, str(f))
        assert code == EXIT_PARSE
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_probe_table(self, capsys, tmp_path, token):
        f = tmp_path / "probes.txt"
        f.write_text(f"1 0 1\n0 1 {token}\n")
        code, out, err = run(capsys, "reconstruct", str(f))
        assert code == EXIT_PARSE
        assert "non-finite" in err

    @pytest.mark.parametrize("subcommand", ["check", "two-valued", "decompose", "feasibility"])
    @pytest.mark.parametrize(
        "lines",
        ["vec a 1 0\nvec b 0 1\nprob a nan\nprob b nan\n", "vec a inf 0\nvec b 0 1\nprob a 1\nprob b 0\n"],
        ids=["prob", "vec"],
    )
    def test_greechie_file(self, capsys, tmp_path, subcommand, lines):
        f = tmp_path / "bad.greechie"
        f.write_text("atom a\natom b\nblock a b\n" + lines)
        code, out, err = run(capsys, "greechie", subcommand, str(f))
        assert code == EXIT_PARSE
        assert out == ""
        assert err != ""


class TestNonUtf8Input:
    """A file that is not UTF-8 text is unreadable (exit 2), not invalid (exit 3)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["density-to-frame"],
            ["reconstruct"],
            ["signature"],
            ["greechie", "check"],
            ["greechie", "two-valued"],
            ["greechie", "decompose"],
            ["greechie", "feasibility"],
        ],
        ids=" ".join,
    )
    def test_is_parse_error(self, capsys, tmp_path, argv):
        for bom, newline in itertools.product((b"", BOM), (b"\n", b"\r\n", b"\r")):
            f = tmp_path / "binary"
            f.write_bytes(bom + newline.join([b"dim 2", b"1 0", b"0 \xff", b""]))
            code, out, err = run(capsys, *argv, str(f))
            assert code == EXIT_PARSE
            assert out == ""
            assert "utf-8" in err
            assert f"{f}: line 3:" in err


class TestByteOrderMark:
    """A UTF-8 file that starts with a byte-order mark reads like the plain file."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["signature", "sevenths.mat"],
            ["reconstruct", "sevenths.mat"],
            ["density-to-frame", "sevenths.mat"],
            ["greechie", "check", "pentagon.greechie"],
            ["greechie", "two-valued", "pentagon.greechie"],
            ["greechie", "decompose", "pentagon.greechie"],
            ["greechie", "feasibility", "pentagon.greechie"],
            ["reconstruct", "probes.txt"],
        ],
        ids=" ".join,
    )
    def test_same_output_as_plain_file(self, capsys, tmp_path, argv):
        *command, name = argv
        fixture = FIXTURES / name
        plain = fixture.read_bytes() if fixture.exists() else b"1 0 0.75\n0 1 0.25\n1 1 1\n"
        f = tmp_path / name
        for fmt in ("text", "structured"):
            f.write_bytes(plain)
            want = run(capsys, *command, str(f), "--format", fmt)
            f.write_bytes(BOM + plain)
            assert run(capsys, *command, str(f), "--format", fmt) == want


class TestParserReuse:
    """main reuses one parser; no call may see options given to an earlier one."""

    def test_usage_error_does_not_affect_the_next_call(self, capsys):
        path = str(FIXTURES / "twelfths.mat")
        before = run(capsys, "signature", path)
        with pytest.raises(SystemExit) as info:
            main(["signature", path, "--tol", "nan"])
        assert info.value.code == EXIT_PARSE
        capsys.readouterr()
        after = run(capsys, "signature", path)
        assert after == before
        assert after[0] == EXIT_OK

    def test_structured_format_does_not_leak_into_the_next_call(self, capsys):
        path = str(FIXTURES / "pure_state.mat")
        _, payload, _ = structured(capsys, "density-to-frame", path)
        assert payload["command"] == "density-to-frame"
        code, out, _ = run(capsys, "density-to-frame", path)
        assert code == EXIT_OK
        assert out.startswith("# density-to-frame\n")

    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        run(capsys, "demo-paper", "--list")
        built.clear()
        code, _, _ = run(capsys, "signature", str(FIXTURES / "twelfths.mat"))
        assert code == EXIT_OK
        assert built == []

    def test_import_builds_no_parser(self):
        src = str(Path(gleason.__file__).resolve().parents[1])
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *a, **k):\n"
            "    built.append(self)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import gleason.cli\n"
            "print(len(built))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"


def outcome(capsys, call):
    """(return value, or ("exit", code) on SystemExit; stdout; stderr) of one call."""
    try:
        value = call()
    except SystemExit as exc:
        value = ("exit", exc.code)
    captured = capsys.readouterr()
    return value, captured.out, captured.err


class TestOneArgparsePass:
    """main hands argv after a command name to that command's parser; every outcome
    must be the full parse's: the namespace, or the exit code, help, usage and error text."""

    UNUSUAL = [
        [],
        ["-h"],
        ["nosuch"],
        ["--format", "text", "signature", "x"],
        ["signature"],
        ["signature", "-h"],
        ["signature", "x", "y"],
        ["signature", "x", "--tol", "nan"],
        ["greechie", "nope", "x"],
    ]

    @pytest.fixture
    def seen(self):
        """Namespaces main hands its handlers; each handler reports and returns EXIT_OK."""
        seen = []

        def spy(args):
            seen.append(args)
            return Report("spy"), EXIT_OK

        parsers = set(cli._parsers()[1].values())
        handlers = {p: p.get_default("handler") for p in parsers}
        for p in parsers:
            p.set_defaults(handler=spy)
        yield seen
        for p, handler in handlers.items():
            p.set_defaults(handler=handler)

    def check(self, capsys, seen, argv, call):
        want = outcome(capsys, lambda: cli.build_parser().parse_args(argv))
        got = outcome(capsys, call)
        if isinstance(want[0], argparse.Namespace):
            assert (got[0], got[2]) == (EXIT_OK, "")
            assert seen == [want[0]]
        else:
            assert got == want
            assert seen == []
        seen.clear()

    def test_acceptance_invocations(self, capsys, seen):
        for argv in cli_digest.invocations():
            self.check(capsys, seen, argv, lambda: main(argv))

    @pytest.mark.parametrize("argv", UNUSUAL, ids=" ".join)
    def test_unusual_argv(self, capsys, seen, argv):
        self.check(capsys, seen, argv, lambda: main(argv))

    @pytest.mark.parametrize(
        "argv", [["signature", str(FIXTURES / "twelfths.mat")], *UNUSUAL], ids=" ".join
    )
    def test_argv_from_sys_argv(self, capsys, seen, monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", ["gleason", *argv])
        self.check(capsys, seen, argv, main)

    def test_top_level_parser_runs_only_for_the_rest(self, capsys, seen, monkeypatch):
        parser, passes = cli.build_parser(), []
        full = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda argv: passes.append(argv) or full(argv))
        for argv in cli_digest.invocations():
            main(argv)
        assert passes == []
        for argv in (["-h"], ["signature", "x", "y"]):
            with pytest.raises(SystemExit):
                main(argv)
        assert len(passes) == 2


class TestDemo:
    def test_all_cases_pass(self, capsys):
        code, out, err = run(capsys, "demo-paper")
        assert code == EXIT_OK
        assert err == ""
        for name, _ in DEMO_CASES:
            assert f"{name}: PASS" in out
        assert "failed: 0" in out

    def test_list_names_without_running(self, capsys):
        code, out, err = run(capsys, "demo-paper", "--list")
        assert code == EXIT_OK
        for name, _ in DEMO_CASES:
            assert name in out

    def test_parses_each_fixture_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, greechie, "parse_greechie_text")
        code, _, _ = run(capsys, "demo-paper")
        assert code == EXIT_OK
        pentagon = (FIXTURES / "pentagon.greechie").read_text()
        assert [text for text, in calls].count(pentagon) == 1

    def test_perturbed_fixture_fails_named_case(self, capsys, tmp_path):
        # A bad vector fails the cases that read the realization; a file that
        # does not parse fails every case that loads it, and only those.
        pentagon_cases = {name for name, _ in DEMO_CASES if name.startswith("pentagon-")}
        for old, new, failing in (
            (
                "vec b0 0.5558929702514211",
                "vec b0 0.6558929702514211",
                {"pentagon-embedding", "pentagon-quantum-infeasibility"},
            ),
            ("block a0 b0 a1", "block a0 b0 zz", pentagon_cases),
        ):
            target = tmp_path / new.split()[0]
            shutil.copytree(FIXTURES, target)
            pentagon = target / "pentagon.greechie"
            text = pentagon.read_text()
            assert old in text
            pentagon.write_text(text.replace(old, new))
            code, out, _ = run(capsys, "demo-paper", "--fixtures", str(target))
            assert code == EXIT_DEMO_FAIL
            for name, _ in DEMO_CASES:
                assert f"{name}: {'FAIL' if name in failing else 'PASS'}" in out


class TestHarness:
    def test_module_entry_point(self):
        # The child must import the same gleason as this process, however
        # that one was found (installed, PYTHONPATH or pytest's pythonpath).
        src = str(Path(gleason.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "gleason.cli", "demo-paper", "--list"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "pentagon-embedding" in proc.stdout

    def test_structured_report_is_valid_json_for_every_command(self, capsys, tmp_path):
        paths = [
            ("density-to-frame", FIXTURES / "maximally_mixed.mat"),
            ("reconstruct", FIXTURES / "twelfths.mat"),
            ("signature", FIXTURES / "sevenths.mat"),
        ]
        for command, path in paths:
            code, payload, _ = structured(capsys, command, str(path))
            assert code == EXIT_OK
            assert payload["command"] == command.replace("frame-to-density", "reconstruct")
            assert payload["inputs"]["path"] == str(path)

    def test_acceptance_invocations_exit_as_pinned_with_empty_stderr(self):
        # The contract that tests/cli_digest.py compares between two trees, pinned on this one:
        # exit 5 for the infeasible verdicts, 0 for every other run, nothing on stderr.
        infeasible = {
            ("decompose", "pentagon.greechie"),
            ("feasibility", "pentagon.greechie"),
            ("decompose", "ks18.greechie"),
            ("feasibility", "fig_two_contexts_classical.greechie"),
            ("feasibility", "fig_three_contexts_classical.greechie"),
        }
        empty = hashlib.sha256(b"").hexdigest()
        runs = [cli_digest.digest(argv) for argv in cli_digest.invocations()]
        assert len(runs) == 122
        for digest in runs:
            argv = digest["argv"]
            verdict = (argv[1], Path(argv[2]).name) if argv[0] == "greechie" else None
            assert digest["stderr"] == empty, argv
            assert digest["exit"] == (EXIT_INFEASIBLE if verdict in infeasible else EXIT_OK), argv
        assert sum(digest["exit"] == EXIT_INFEASIBLE for digest in runs) == 10

    def test_digest_covers_the_benchmarked_cli_traffic(self, monkeypatch):
        # So a bit-for-bit claim on perfbench's paper-cli workload is one the digest checks.
        monkeypatch.syspath_prepend(str(cli_digest.ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        benchmarked = [op.inputs[0] for op in workloads.build("paper-cli", 1)]
        assert len(benchmarked) == 102
        assert set(benchmarked) <= set(map(tuple, cli_digest.invocations()))

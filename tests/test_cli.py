import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gleason
from gleason.cli import (
    EXIT_BAD_PROBES,
    EXIT_DEMO_FAIL,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    DEMO_CASES,
    _default_fixtures,
    main,
)

FIXTURES = _default_fixtures()


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


class TestSignatureCommand:
    def test_twelfths(self, capsys):
        code, payload, _ = structured(capsys, "signature", str(FIXTURES / "twelfths.mat"))
        assert code == EXIT_OK
        values = verdicts(payload)
        assert values["signature"] == {"positive": 3, "negative": 0, "zero": 0}
        assert values["classification"] == 3
        assert abs(values["weight"] - 1.0) <= 1e-12

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
    @pytest.mark.parametrize("token", ["nan", "inf", "0", "-1"])
    def test_tol_must_be_finite_and_positive(self, capsys, tmp_path, command, token):
        # A usage error (exit 2), never a verdict or a validation failure.
        one_zero = tmp_path / "one-zero.greechie"
        one_zero.write_text("atom a\natom b\nblock a b\nprob a 1\nprob b 0\n")
        path = FIXTURES / "twelfths.mat" if command == "signature" else one_zero
        with pytest.raises(SystemExit) as info:
            main([*command.split(), str(path), "--tol", token])
        assert info.value.code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err


class TestGreechieCommands:
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
        f = tmp_path / "binary"
        f.write_bytes(b"dim 2\n1 0\n0 \xff\n")
        code, out, err = run(capsys, *argv, str(f))
        assert code == EXIT_PARSE
        assert out == ""
        assert "utf-8" in err


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

    def test_perturbed_fixture_fails_named_case(self, capsys, tmp_path):
        target = tmp_path / "fixtures"
        shutil.copytree(FIXTURES, target)
        pentagon = target / "pentagon.greechie"
        pentagon.write_text(
            pentagon.read_text().replace(
                "vec b0 0.5558929702514211", "vec b0 0.6558929702514211"
            )
        )
        code, out, _ = run(capsys, "demo-paper", "--fixtures", str(target))
        assert code == EXIT_DEMO_FAIL
        assert "pentagon-embedding: FAIL" in out
        assert "pure-state-frame-function: PASS" in out


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

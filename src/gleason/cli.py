"""Command-line front end.

``build_parser`` builds the argument parser once per process, on its first
call, and returns that same parser to every later call, ``main``'s included.
Reports are built once and rendered either as human-readable text (6
significant digits) or as JSON whose numbers round-trip at full precision.
Exit codes are a stable contract:

  0  success
  1  demo mismatch
  2  parse failure (bad file format, unreadable or non-UTF-8 file, bad option value)
  3  validation failure (violated invariant)
  4  probe table inconsistent with any quadratic form
  5  infeasible as requested (NotRealizable / NotDecomposable verdicts)
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from . import density, frame, greechie
from .numerics import (
    DEFAULT_TOL,
    MatrixFormatError,
    SymMatrix,
    content_lines,
    finite_float,
    packed_index,
    parse_matrix_text,
    unit_rows,
)

EXIT_OK = 0
EXIT_DEMO_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BAD_PROBES = 4
EXIT_INFEASIBLE = 5

_PLAIN = (float, int, str, bool, type(None))
_ENCODER = json.JSONEncoder(indent=2, check_circular=False)  # payloads are fresh trees


@dataclass
class Report:
    """Single source for both output modes, so text and JSON cannot drift."""

    command: str
    inputs: dict[str, object] = field(default_factory=dict)
    verdicts: list[tuple[str, object]] = field(default_factory=list)

    def add(self, name: str, value: object) -> None:
        self.verdicts.append((name, value))


def _jsonable(value):
    if type(value) in _PLAIN:  # Python scalars are most values and pass unchanged
        return value
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()  # native Python values all the way down
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def render_structured(report: Report) -> str:
    payload = {
        "command": report.command,
        "inputs": _jsonable(report.inputs),
        "verdicts": [
            {"name": name, "value": _jsonable(value)} for name, value in report.verdicts
        ],
    }
    return _ENCODER.encode(payload) + "\n"


def _fmt_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    return str(value)


def render_text(report: Report) -> str:
    lines = [f"# {report.command}"]
    for key, value in report.inputs.items():
        lines.append(f"input {key}: {_fmt_scalar(value)}")
    for name, value in report.verdicts:
        value = _jsonable(value)
        if isinstance(value, list):
            lines.append(f"{name}:")
            for item in value:  # a matrix row, a record, or a scalar
                if isinstance(item, list):
                    lines.append("  " + " ".join(map(_fmt_scalar, item)))
                elif isinstance(item, dict):
                    lines.append(
                        "  - " + "  ".join(f"{k}={_fmt_scalar(v)}" for k, v in item.items())
                    )
                else:
                    lines.append(f"  - {_fmt_scalar(item)}")
        elif isinstance(value, dict):
            lines.append(
                f"{name}: " + "  ".join(f"{k}={_fmt_scalar(v)}" for k, v in value.items())
            )
        else:
            lines.append(f"{name}: {_fmt_scalar(value)}")
    return "\n".join(lines) + "\n"


def _polynomial(form: np.ndarray) -> str:
    """Human-readable expansion of x^T A x in variables x1..xn, in packed order."""
    n = form.shape[0]
    rows, cols = packed_index(n)
    coeffs = form[rows, cols]
    coeffs[n:] *= 2.0
    pieces: list[str] = []
    for i, j, coeff in zip(rows.tolist(), cols.tolist(), coeffs.tolist()):
        if abs(coeff) <= 1e-12:
            continue
        monomial = f"x{i + 1}^2" if i == j else f"x{i + 1} x{j + 1}"
        magnitude = abs(coeff)
        shown = "" if abs(magnitude - 1.0) <= 1e-12 else format(magnitude, ".6g") + " "
        sign = (" - " if coeff < 0 else " + ") if pieces else ("-" if coeff < 0 else "")
        pieces.append(f"{sign}{shown}{monomial}")
    return "".join(pieces) or "0"


def _read_text(path: Path) -> str:
    with open(path, "rb", buffering=0) as f:  # one unbuffered read of the whole file
        data = f.readall()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the data after any byte-order mark, which exc.start indexes.
        # Count lines as content_lines does; "x" stands in for the bad byte's line.
        line = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        raise MatrixFormatError(f"{path}: line {line}: not utf-8 text ({exc.reason})") from None


def _load_symmetric(path: Path) -> SymMatrix:
    return SymMatrix(parse_matrix_text(_read_text(path)))


def _load_greechie(path: Path) -> greechie.GreechieFile:
    return greechie.parse_greechie_text(_read_text(path))


def _append_signature(report: Report, form: SymMatrix, tol: float) -> None:
    """Signature and canonical type; a form with negative squares has none."""
    sig = frame.signature(frame.FrameFunction(form), tol)
    report.add("signature", dict(vars(sig)))
    report.add("classification", sig.positive if sig.negative == 0 else None)
    if sig.negative:
        report.add("classification_note", "negative squares present; no positive canonical type")


def _append_form_analysis(report: Report, form: SymMatrix, tol: float) -> None:
    """Spectral mixture (when quantum), signature, and classification."""
    try:
        rho = density.DensityOperator(form)
    except (density.TraceNotOne, density.NotPositiveSemidefinite) as exc:
        report.add("quantum", False)
        report.add("not_quantum_reason", str(exc))
        report.add("trace", form.trace())
        report.add("min_eigenvalue", float(form.spectrum.eigenvalues[-1]))
    else:
        report.add("quantum", True)
        mixture = density.spectral_mixture(rho)
        report.add("mixture_weights", [w for w, _ in mixture])
        report.add("mixture_components", [v.components for _, v in mixture])
    _append_signature(report, form, tol)


def _cmd_density_to_frame(args) -> tuple[Report, int]:
    report = Report("density-to-frame", {"path": str(args.path)})
    rho = density.DensityOperator(_load_symmetric(args.path))
    f = frame.from_density(rho)
    report.add("coefficient_matrix", f.form.entries)
    report.add("frame_function", _polynomial(f.form.entries))
    report.add("weight", f.weight)
    return report, EXIT_OK


def _parse_probe_table(text: str) -> tuple[np.ndarray, np.ndarray]:
    rows = []
    for lineno, tokens in content_lines(text):
        try:
            numbers = [finite_float(p) for p in tokens]
        except ValueError as exc:
            raise MatrixFormatError(f"probe line {lineno}: {exc}") from None
        if len(numbers) < 2:
            raise MatrixFormatError(
                f"probe line {lineno}: need at least one coordinate and a value"
            )
        peak = max(abs(c) for c in numbers[:-1])
        if not math.isfinite(2.0 * peak * peak):  # the fit's row entries 2 x_i x_j
            raise MatrixFormatError(f"probe line {lineno}: coordinate {peak:g} is too large")
        rows.append(numbers)
    if not rows:
        raise MatrixFormatError("empty probe table")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise MatrixFormatError("probe lines have inconsistent column counts")
    table = np.array(rows)
    return table[:, :-1], table[:, -1]


def _cmd_reconstruct(args) -> tuple[Report, int]:
    report = Report("reconstruct", {"path": str(args.path)})
    text = _read_text(args.path)
    first = next((tokens[0] for _, tokens in content_lines(text)), "")
    if first.startswith("dim"):
        form_in = SymMatrix(parse_matrix_text(text))
        report.inputs["mode"] = "form-matrix"
        oracle = frame.FrameOracle.from_frame_function(frame.FrameFunction(form_in))
        reconstructed = frame.reconstruct_form(oracle)
    else:
        probes, values = _parse_probe_table(text)
        report.inputs["mode"] = "probe-table"
        fitted = frame.reconstruct_from_samples(probes, values)
        report.add("residual", fitted.residual)
        report.add("rank_deficient", fitted.rank_deficient)
        if fitted.residual > frame.consistency_limit(values):
            raise frame.NotAFrameFunction(
                f"probe table is inconsistent with any quadratic form "
                f"(residual {fitted.residual:.3e})"
            )
        reconstructed = fitted.frame_function.form
    report.add("reconstructed", reconstructed.entries)
    _append_form_analysis(report, reconstructed, args.tol)
    return report, EXIT_OK


def _cmd_signature(args) -> tuple[Report, int]:
    report = Report("signature", {"path": str(args.path)})
    form = _load_symmetric(args.path)
    _append_signature(report, form, args.tol)
    report.add("weight", form.trace())
    return report, EXIT_OK


def _cmd_greechie(args) -> tuple[Report, int]:
    report = Report(f"greechie {args.subcommand}", {"path": str(args.path)})
    parsed = _load_greechie(args.path)
    diagram = parsed.diagram
    report.inputs["atoms"] = len(diagram.atoms)
    report.inputs["blocks"] = len(diagram.blocks)

    if args.subcommand == "check":
        violations: list[greechie.Violation] = []
        if parsed.realization is not None:
            violations += greechie.check_realization(diagram, parsed.realization, args.tol)
        if parsed.assignment is not None:
            violations += greechie.validate_state(diagram, parsed.assignment, args.tol)
        report.add("valid", not violations)
        report.add(
            "violations",
            [{"kind": v.kind, "subject": v.subject, "detail": v.detail} for v in violations],
        )
        return report, EXIT_OK if not violations else EXIT_VALIDATION

    if args.subcommand == "two-valued":
        states = greechie.enumerate_two_valued_states(diagram)
        report.add("count", len(states))
        report.add("atom_order", list(diagram.atoms))
        report.add("states", ["".join(map(str, row)) for row in states])
        return report, EXIT_OK

    if args.subcommand == "decompose":
        if parsed.assignment is None:
            raise greechie.GreechieFormatError("file has no prob lines; nothing to decompose")
        result = greechie.convex_decomposition(diagram, parsed.assignment)
        if result is None:
            report.add("decomposable", False)
            return report, EXIT_INFEASIBLE
        report.add("decomposable", True)
        report.add(
            "weights",
            [{"weight": w, "state": "".join(map(str, row))} for w, row in result.entries],
        )
        return report, EXIT_OK

    # feasibility
    if parsed.assignment is None or parsed.realization is None:
        raise greechie.GreechieFormatError("feasibility needs both prob and vec lines")
    verdict = greechie.quantum_feasibility(diagram, parsed.realization, parsed.assignment)
    report.add("realizable", verdict.realizable)
    if verdict.realizable:
        report.add("density", verdict.density.matrix.entries)
        return report, EXIT_OK
    cert = verdict.certificate
    report.add("certificate_kind", cert.kind)
    if cert.kernel_rank is not None:
        report.add("kernel_rank", cert.kernel_rank)
    if cert.min_eigenvalue is not None:
        report.add("min_eigenvalue", cert.min_eigenvalue)
    if cert.violations:
        report.add(
            "constraint_violations",
            [
                {"subject": s, "target": t, "achieved": a}
                for s, t, a in cert.violations
            ],
        )
    report.add("explanation", cert.describe())
    return report, EXIT_INFEASIBLE


# --------------------------------------------------------------------------
# demo-paper: run every bundled golden case end to end. A case gets a loader
# of parsed fixtures by file name and yields (what, got, expected, tol)
# checks; _first_failure compares them in order.


def _default_fixtures() -> Path:
    return greechie.FIXTURES


def _show(value) -> str:
    text = np.array2string(np.asarray(value), threshold=6, floatmode="unique", separator=", ")
    return " ".join(text.split())


def _first_failure(checks) -> str | None:
    """Detail of the first check that misses its expected value, else None.

    Strings compare exactly; anything else entrywise within ``tol`` once the
    shapes match, so ``tol = 0`` is exact for counts and booleans.
    """
    for what, got, expected, tol in checks:
        if isinstance(expected, str):
            ok = got == expected
        else:
            g, e = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
            ok = g.shape == e.shape and bool((abs(g - e) <= tol).all())
        if not ok:
            return f"{what}: got {_show(got)}, expected {_show(expected)}"
    return None


def _frame_values(f: frame.FrameFunction, x: np.ndarray) -> np.ndarray:
    """x -> x^T A x on each row of ``x``."""
    return np.einsum("ki,ij,kj->k", x, f.form.entries, x)


def _case_pure_state(load):
    f = frame.from_density(density.DensityOperator(load("pure_state.mat")))
    yield "coefficient matrix", f.form.entries, np.diag([1.0, 0.0, 0.0]), 1e-12
    yield "frame function", _polynomial(f.form.entries), "x1^2", 0


def _case_bell_frames(load):
    rng = np.random.default_rng(7)
    for name, i, j, sign in (
        ("bell_psi_plus.mat", 0, 3, +1.0),
        ("bell_psi_minus.mat", 0, 3, -1.0),
        ("bell_phi_plus.mat", 1, 2, +1.0),
        ("bell_phi_minus.mat", 1, 2, -1.0),
    ):
        rho = density.DensityOperator(load(name))
        yield f"{name} is pure", density.purity(rho).is_pure, True, 0
        f = frame.from_density(rho)
        x = unit_rows(rng.standard_normal((200, 4)))
        closed_form = 0.5 * (x[:, i] + sign * x[:, j]) ** 2
        yield f"{name} frame function", _frame_values(f, x), closed_form, 1e-12


def _case_bell_mixture(load):
    p, q = 0.25, 0.75
    rho = density.DensityOperator(load("bell_mixture.mat"))
    block_form = np.array([[p, 0, 0, p], [0, q, q, 0], [0, q, q, 0], [p, 0, 0, p]]) / 2.0
    yield "mixture matrix", rho.matrix.entries, block_form, 1e-12
    yield "spectral weights", [w for w, _ in density.spectral_mixture(rho)], [q, p], 1e-10


def _case_nonorthogonal_mixture(load):
    a = b = 0.5
    rho = density.DensityOperator(load("nonorthogonal_mixture.mat"))
    f = frame.from_density(rho)
    x = unit_rows(np.random.default_rng(11).standard_normal((200, 3)))
    closed_form = a * x[:, 0] ** 2 + (b / 2.0) * (x[:, 0] + x[:, 1]) ** 2
    yield "frame function", _frame_values(f, x), closed_form, 1e-12
    root = math.sqrt(0.25 - a * b / 2.0)
    weights = [w for w, _ in density.spectral_mixture(rho)]
    yield "spectral weights", weights, [0.5 + root, 0.5 - root], 1e-10


def _case_reconstruct_orthogonal(load):
    oracle = frame.FrameOracle(
        evaluator=lambda x: (3.0 * x[0] ** 2 + 2.0 * (x[1] - x[2]) ** 2) / 7.0, dim=3
    )
    rho = frame.reconstruct_density(oracle)
    expected = load("sevenths.mat").entries
    yield "reconstructed matrix", rho.matrix.entries, expected, 1e-12
    weights = sorted(w for w, _ in density.spectral_mixture(rho))
    yield "statistical weights", weights, [3.0 / 7.0, 4.0 / 7.0], 1e-12


def _case_reconstruct_nonorthogonal(load):
    oracle = frame.FrameOracle(
        evaluator=lambda x: (
            4.0 * x[0] ** 2 + 3.0 * (x[0] - x[1]) ** 2 + (x[1] - x[2]) ** 2
        )
        / 12.0,
        dim=3,
    )
    rho = frame.reconstruct_density(oracle)
    expected = load("twelfths.mat").entries
    yield "reconstructed matrix", rho.matrix.entries, expected, 1e-12
    f = frame.from_density(rho)
    yield "signature", astuple(frame.signature(f)), (3, 0, 0), 0
    yield "classification", frame.classify(f), 3, 0


def _case_pentagon_embedding(load):
    parsed = load("pentagon.greechie")
    bad = greechie.check_realization(parsed.diagram, parsed.realization)
    yield "realization violations", "; ".join(v.detail for v in bad), "", 0
    bad = greechie.validate_state(parsed.diagram, parsed.assignment)
    yield "state violations", "; ".join(v.detail for v in bad), "", 0


def _case_pentagon_infeasible(load):
    parsed = load("pentagon.greechie")
    verdict = greechie.quantum_feasibility(parsed.diagram, parsed.realization, parsed.assignment)
    yield "quantum-realizable", verdict.realizable, False, 0
    cert = verdict.certificate
    yield "certificate", f"{cert.kind}/{cert.kernel_rank}", "kernel-rank/3", 0


def _case_pentagon_two_valued(load):
    parsed = load("pentagon.greechie")
    yield "two-valued states", len(greechie.enumerate_two_valued_states(parsed.diagram)), 11, 0


def _case_pentagon_extremal(load):
    parsed = load("pentagon.greechie")
    yield "extreme point", greechie.is_polytope_vertex(parsed.diagram, parsed.assignment), True, 0
    decomposition = greechie.convex_decomposition(parsed.diagram, parsed.assignment)
    yield "decomposable", decomposition is not None, False, 0


def _case_spin_half_classical(load):
    parsed = load("fig_two_contexts_classical.greechie")
    yield "two-valued states", len(greechie.enumerate_two_valued_states(parsed.diagram)), 4, 0
    verdict = greechie.quantum_feasibility(parsed.diagram, parsed.realization, parsed.assignment)
    yield "quantum-realizable", verdict.realizable, False, 0
    decomposition = greechie.convex_decomposition(parsed.diagram, parsed.assignment)
    yield "decomposable", decomposition is not None, True, 0


def _case_spin_half_ignorant(load):
    parsed = load("fig_two_contexts_ignorant.greechie")
    verdict = greechie.quantum_feasibility(parsed.diagram, parsed.realization, parsed.assignment)
    yield "quantum-realizable", verdict.realizable, True, 0
    yield "realizing state", verdict.density.matrix.entries, np.diag([0.5, 0.5]), 1e-10
    yield "extreme point", greechie.is_polytope_vertex(parsed.diagram, parsed.assignment), False, 0
    decomposition = greechie.convex_decomposition(parsed.diagram, parsed.assignment)
    yield "decomposable", decomposition is not None, True, 0


def _case_three_contexts(load):
    parsed = load("fig_three_contexts_classical.greechie")
    yield "two-valued states", len(greechie.enumerate_two_valued_states(parsed.diagram)), 8, 0
    verdict = greechie.quantum_feasibility(parsed.diagram, parsed.realization, parsed.assignment)
    yield "quantum-realizable", verdict.realizable, False, 0


DEMO_CASES: tuple[tuple[str, object], ...] = (
    ("pure-state-frame-function", _case_pure_state),
    ("bell-state-frame-functions", _case_bell_frames),
    ("bell-mixture-spectrum", _case_bell_mixture),
    ("nonorthogonal-mixture-spectrum", _case_nonorthogonal_mixture),
    ("reconstruct-orthogonal-example", _case_reconstruct_orthogonal),
    ("reconstruct-nonorthogonal-example", _case_reconstruct_nonorthogonal),
    ("pentagon-embedding", _case_pentagon_embedding),
    ("pentagon-quantum-infeasibility", _case_pentagon_infeasible),
    ("pentagon-two-valued-states", _case_pentagon_two_valued),
    ("pentagon-measure-extremal", _case_pentagon_extremal),
    ("two-contexts-classical-only", _case_spin_half_classical),
    ("two-contexts-most-ignorant", _case_spin_half_ignorant),
    ("three-contexts-enumeration", _case_three_contexts),
)


def _cmd_demo(args) -> tuple[Report, int]:
    report = Report("demo-paper")
    if args.list_cases:
        report.add("cases", [name for name, _ in DEMO_CASES])
        return report, EXIT_OK
    fixtures = args.fixtures if args.fixtures is not None else _default_fixtures()
    report.inputs["fixtures"] = str(fixtures)

    @functools.cache  # for this run only; a failed load is retried by the next case
    def load(name: str):
        path = fixtures / name
        return _load_greechie(path) if path.suffix == ".greechie" else _load_symmetric(path)

    failures = 0
    for name, case in DEMO_CASES:
        try:
            detail = _first_failure(case(load))
        except Exception as exc:  # a broken fixture should fail its case, not the run
            detail = f"{type(exc).__name__}: {exc}"
        if detail is None:
            report.add(name, "PASS")
        else:
            failures += 1
            report.add(name, f"FAIL: {detail}")
    report.add("passed", len(DEMO_CASES) - failures)
    report.add("failed", failures)
    return report, EXIT_OK if failures == 0 else EXIT_DEMO_FAIL


def _positive_tol(token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        value = math.nan  # refused below, like every value outside (0, inf)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {token!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later one.

    ``parse_args`` leaves the parser as it was, so one serves every ``main`` call.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="text for humans (6 digits), structured JSON at full precision",
    )
    common.add_argument(
        "--tol",
        type=_positive_tol,
        default=DEFAULT_TOL,
        help=(
            "zero threshold for the signature (signature, reconstruct) and for "
            "greechie check; the other commands use fixed tolerances"
        ),
    )
    parser = argparse.ArgumentParser(
        prog="gleason",
        description=(
            "Convert density operators to frame functions and back, classify "
            "quadratic forms, and analyze probability measures on Greechie diagrams."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reconstruct_help = "recover the density operator behind a form matrix or probe table"
    for name, summary, handler in (
        (
            "density-to-frame",
            "frame function of a density operator given in matrix format",
            _cmd_density_to_frame,
        ),
        ("reconstruct", reconstruct_help, _cmd_reconstruct),
        ("frame-to-density", reconstruct_help, _cmd_reconstruct),
        ("signature", "inertia signature and canonical type of a form matrix", _cmd_signature),
    ):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.add_argument("path", type=Path)
        p.set_defaults(handler=handler)

    p = sub.add_parser(
        "greechie",
        parents=[common],
        help="check, enumerate, decompose, or decide quantum feasibility",
    )
    p.add_argument("subcommand", choices=("check", "two-valued", "decompose", "feasibility"))
    p.add_argument("path", type=Path)
    p.set_defaults(handler=_cmd_greechie)

    p = sub.add_parser(
        "demo-paper",
        parents=[common],
        help="run the bundled golden demonstration cases end to end",
    )
    p.add_argument("--list", action="store_true", dest="list_cases", help="list case names only")
    p.add_argument("--fixtures", type=Path, default=None, help="override the fixtures directory")
    p.set_defaults(handler=_cmd_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = args.handler(args)
    except (MatrixFormatError, greechie.GreechieFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except frame.NotAFrameFunction as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PROBES
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out = render_structured(report) if args.format == "structured" else render_text(report)
    sys.stdout.write(out)
    return code


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()

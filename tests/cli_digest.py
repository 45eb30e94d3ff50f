"""Digest of the CLI acceptance invocations: one JSON line per run, to compare two trees.

Runs ``gleason.cli.main`` in this process, from this checkout's ``src``, on
every bundled ``.mat`` fixture x (density-to-frame, reconstruct,
frame-to-density, signature), on every bundled ``.greechie`` fixture and
``perfbench/ks18.greechie`` x (check, two-valued, decompose, feasibility),
and ``demo-paper``; each in text and in structured form. Each line holds the
argv, the exit code and the SHA-256 of stdout and of stderr, with the
checkout's absolute root replaced by ``<root>`` first. Usage::

    python tests/cli_digest.py > after.jsonl
    diff before.jsonl after.jsonl   # the same script, run in the other tree

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# One BLAS thread, as the benchmark's measured runs use, before numpy loads.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(ROOT / "src"))

from gleason import cli  # noqa: E402


def invocations() -> list[list[str]]:
    """The argv of every run, text before structured for each command."""
    fixtures = ROOT / "src" / "gleason" / "fixtures"
    commands = [
        [command, str(path)]
        for path in sorted(fixtures.glob("*.mat"))
        for command in ("density-to-frame", "reconstruct", "frame-to-density", "signature")
    ]
    greechie = [*sorted(fixtures.glob("*.greechie")), ROOT / "perfbench" / "ks18.greechie"]
    commands += [
        ["greechie", subcommand, str(path)]
        for path in greechie
        for subcommand in ("check", "two-valued", "decompose", "feasibility")
    ]
    commands.append(["demo-paper"])
    return [[*argv, "--format", form] for argv in commands for form in ("text", "structured")]


def digest(argv: list[str]) -> dict:
    """Exit code and output hashes of one in-process run, with the root replaced."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)

    def sha(text: str) -> str:
        return hashlib.sha256(text.replace(str(ROOT), "<root>").encode()).hexdigest()

    return {
        "argv": [arg.replace(str(ROOT), "<root>") for arg in argv],
        "exit": code,
        "stdout": sha(out.getvalue()),
        "stderr": sha(err.getvalue()),
    }


def main() -> None:
    for argv in invocations():
        print(json.dumps(digest(argv)))


if __name__ == "__main__":
    main()

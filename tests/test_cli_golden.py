"""CLI golden outputs: stdout and exit code of fast commands, replayed in-process.

The expected outputs live in tests/data/cli_golden.json, the matrix files
they read in tests/data/matrices.  Stderr is not pinned.  To record the
file again from the current code, run

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from coxabs.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"

NAMED = ["A3", "B3", "B4", "D4", "F4", "H3", "G2", "I2(5)"]
MATRIX_FILES = ["h3", "f4", "g2", "b2xa1"]
REFUSED_FILES = ["affine_triangle", "four_bond_cycle", "bond7", "a128"]
COMMANDS = [["build"], ["classify"], ["lattice", "--w0"], ["interval", "--w0"], ["length", "--w0"]]


def golden_argvs() -> list[list[str]]:
    types = NAMED + [f"matrices/{name}.txt" for name in MATRIX_FILES]
    argvs = [[cmd[0], t, *cmd[1:]] for t in types for cmd in COMMANDS]
    argvs += [["build", "E8"], ["build", "A128"]]
    argvs += [["build", f"matrices/{name}.txt"] for name in REFUSED_FILES]
    return argvs


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one command; matrix paths are under DATA."""
    resolved = [str(DATA / a) if a.startswith("matrices/") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(resolved)
    return code, out.getvalue()


# a missing file fails test_golden_file_covers_the_command_set
CASES = json.loads(GOLDEN.read_text())["cases"] if GOLDEN.exists() else []


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_matches_the_golden_file(case):
    assert run(case["argv"]) == (case["exit"], case["stdout"])


def test_golden_file_covers_the_command_set():
    cases = json.loads(GOLDEN.read_text())["cases"]
    assert [case["argv"] for case in cases] == golden_argvs()


if __name__ == "__main__":
    cases = []
    for argv in golden_argvs():
        code, out = run(argv)
        cases.append({"argv": argv, "exit": code, "stdout": out})
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1, ensure_ascii=False) + "\n")

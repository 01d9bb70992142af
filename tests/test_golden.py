"""CLI stdout replayed against recorded golden files, byte for byte.

Each file under ``tests/golden/`` holds the stdout of one ``heckechain``
command, recorded before the change that the command guards (the
congruence-graph and polynomial consolidation, the packed extension-field
multiply, the F_ell minimal polynomials, the lazy eigensystems, the single
CLI command path); a refactor or optimisation must reproduce every one
exactly.  Record a new command by adding it to ``COMMANDS`` and running this
file as a script from the repository root with ``PYTHONPATH=src``.  A
``.json`` argument names a descriptor file in ``tests/golden/``.
"""

import re
import sys
from pathlib import Path

import pytest

from heckechain import cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = [
    *[["graph", str(N), "2", "--lmax", "50"] for N in (11, 22, 33, 37, 44, 57, 67, 96, 114, 124, 131)],
    ["congruences", "1", "12", "11", "2", "--lmax", "13"],
    ["congruences", "5", "4", "7", "4", "--lmax", "13"],
    ["congruences", "3", "6", "2", "8", "--lmax", "13"],
    ["congruences", "6", "4", "8", "4", "--lmax", "13"],
    ["congruences", "14", "4", "14", "4", "--lmax", "13"],
    ["congruences", "23", "2", "29", "2", "--lmax", "13"],
    ["chain", "1.12.0", "11.2.0", "--lmax", "13", "--mlt-only"],
    ["chain", "5.4.0", "7.4.0", "--lmax", "13"],
    ["chain", "2.8.0", "3.6.0", "--lmax", "13", "--mlt-only"],
    ["orbits", "23", "2", "5"],
    ["orbits", "22", "2", "7"],
    ["orbits", "67", "2", "5"],
    ["orbits", "5", "12", "13"],
    ["orbits", "37", "6", "101"],
    ["orbits", "11", "10", "101"],
    ["orbits", "97", "2", "11"],
    ["orbits", "49", "4", "5"],
    ["orbits", "48", "2", "11"],
    ["orbits", "30", "4", "7"],
    ["plan", "delta.json", "--bound", "10"],
    ["plan", "messy.json", "--bound", "20"],
    ["connect", "delta.json", "messy.json", "--bound", "20"],
    ["space", "11", "2", "7"],
    ["classify", "23", "2", "5", "0"],
    ["classify", "11", "2", "7", "0"],
    ["mlt-edge", "11", "Large", "12", "2"],
    [
        "mlt-edge", "5", "Dihedral", "2", "2", "--parameter", "-4", "--good-dihedral",
        "--ordinary", "true", "false",
    ],
    [
        "mlt-edge", "7", "Reducible", "2", "4", "--not-residually-modular",
        "--fontaine-laffaille", "true",
    ],
    ["good-dihedral", "--bound", "10"],
    ["good-dihedral", "--bound", "30", "--forbidden", "37,41"],
]


def golden_path(argv: list[str]) -> Path:
    return GOLDEN / (re.sub(r"[^0-9A-Za-z.]+", "_", " ".join(argv)) + ".txt")


def resolved(argv: list[str]) -> list[str]:
    return [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]


def stdout_of(argv: list[str], capsys) -> str:
    assert cli.main(resolved(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_stdout_matches_golden(argv, capsys, monkeypatch):
    monkeypatch.delenv("HECKECHAIN_CACHE_DIR", raising=False)
    assert stdout_of(argv, capsys) == golden_path(argv).read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io

    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cli.main(resolved(argv)) != 0:
                sys.exit(f"{' '.join(argv)} failed")
        golden_path(argv).write_text(out.getvalue(), encoding="utf-8")

"""Seeded CLI output against the files under tests/golden, byte for byte.

Each golden file is the stdout of its commands run one after another, and
every command must exit 0.  To regenerate a file after an intended change of
output, run the same commands with `python -m superflows.cli` and concatenate
their stdout in the order listed here.
"""

from pathlib import Path

import pytest

from superflows import cli

GOLDEN = Path(__file__).parent / "golden"

SYMMETRY_FAMILIES = [
    ("delta_tilde", []),
    ("gamma_4k1", ["--k", "1"]),
    ("gamma_4k3", ["--k", "1"]),
    ("gamma_sph", []),
]

CASES = {
    "classify_3-60.txt": [["classify", "--m", "3..60"]],
    "classify_3-60.json": [["classify", "--m", "3..60", "--format", "json"]],
    "classify_3-60.tsv": [["classify", "--m", "3..60", "--format", "tsv"]],
    "solve_3-28.txt": [["solve", "--m", str(m)] for m in range(3, 29)],
    "solve_3-28.json": [["solve", "--m", str(m), "--format", "json"] for m in range(3, 29)],
    "solve_bounded.txt": [
        ["solve", "--m", "5", "--max-degree", "0"],
        ["solve", "--m", "7", "--max-degree", "3"],
    ],
    "solve_bounded.json": [
        ["solve", "--m", "5", "--max-degree", "0", "--format", "json"],
        ["solve", "--m", "7", "--max-degree", "3", "--format", "json"],
    ],
    "symmetry.txt": [
        ["symmetry", "--family", family, *k, "--draws", "5", "--seed", "3"]
        for family, k in SYMMETRY_FAMILIES
    ],
    "symmetry.json": [
        ["symmetry", "--family", family, *k, "--draws", "5", "--seed", "3", "--format", "json"]
        for family, k in SYMMETRY_FAMILIES
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name, capsys):
    out = []
    for argv in CASES[name]:
        assert cli.main(argv) == 0, argv
        out.append(capsys.readouterr().out)
    assert "".join(out) == (GOLDEN / name).read_text(encoding="utf-8")

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

CATALOG_FLOWS = [
    ["--family", "parabolic"],
    ["--family", "sph_inf"],
    ["--family", "level0"],
    ["--family", "radical_x", "--k", "1"],
    ["--family", "radical_x", "--k", "2"],
    ["--family", "radical_y", "--k", "1"],
    ["--family", "radical_y", "--k", "2"],
]

NUMERIC = {
    "verify_flow": [["verify-flow", *flow, "--samples", "20", "--seed", "5"] for flow in CATALOG_FLOWS],
    "verify_pde": [["verify-pde", *flow, "--samples", "10", "--seed", "5"] for flow in CATALOG_FLOWS],
    "orbits": [["orbits", "--steps", "200", "--samples", "10", "--seed", "5"]],
}

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
    **{f"{name}.txt": argvs for name, argvs in NUMERIC.items()},
    **{f"{name}.json": [[*argv, "--format", "json"] for argv in argvs] for name, argvs in NUMERIC.items()},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name, capsys):
    out = []
    for argv in CASES[name]:
        assert cli.main(argv) == 0, argv
        out.append(capsys.readouterr().out)
    assert "".join(out) == (GOLDEN / name).read_text(encoding="utf-8")

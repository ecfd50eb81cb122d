"""End-to-end tests of the command-line interface."""

import io
import json
from contextlib import redirect_stdout

import pytest

from superflows import cli, flows, matgroup
from superflows.homog import RatVF, monomial_field


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def test_classify_text_statuses():
    code, out = run_cli(["classify", "--m", "3..12"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    statuses = {}
    for line in lines:
        m = int(line.split()[0].split("=")[1])
        statuses[m] = "superflow" in line
    for m in (3, 5, 6, 7, 9, 10, 11):
        assert statuses[m]
    for m in (4, 8, 12):
        assert not statuses[m]


def test_classify_tsv_columns():
    code, out = run_cli(["classify", "--m", "6..7", "--format", "tsv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m\tgroup_order\tstatus\tdenom_degree\tfield\treduction"
    row6 = lines[1].split("\t")
    assert row6[0] == "6" and row6[2] == "superflow" and row6[5] == "3"
    row7 = lines[2].split("\t")
    assert row7[1] == "14" and row7[3] == "2"


def test_classify_json_round_trip():
    code, out = run_cli(["classify", "--m", "7", "--format", "json"])
    assert code == 0
    row = json.loads(out.strip())
    assert row["m"] == 7
    assert row["status"] == "superflow"
    assert row["field_pretty"] == "y^4/x^2 • 0"
    from superflows.homog import RatVF, monomial_field

    assert RatVF.parse(row["field"]) == monomial_field(0, 0, 2, 0)


def test_solve_text():
    code, out = run_cli(["solve", "--m", "7"])
    assert code == 0
    assert "superflow" in out
    assert "y^4/x^2" in out
    assert "|G| = 14" in out


def test_diagonal_verdicts_build_no_matrix(monkeypatch):
    # alpha groups are closed and scanned in exponent form, with no Mat2 anywhere
    def refuse(self, *entries):
        raise AssertionError("a Mat2 was built on the verdict path")

    monkeypatch.setattr(matgroup.Mat2, "__init__", refuse)
    code, out = run_cli(["solve", "--m", "397"])
    assert code == 0
    assert out == "superflow: 0 • x^199/y^197, denom degree 197, |G| = 794\n"
    code, out = run_cli(["classify", "--m", "3..40"])
    assert code == 0 and len(out.splitlines()) == 38


def test_solve_large_m_gives_the_closed_form():
    # m = 1001 = 4k+1 with k = 250: README's closed form 0 . x^(2k+1)/y^(2k-1)
    code, out = run_cli(["solve", "--m", "1001", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "superflow" and payload["group_order"] == 2002
    assert payload["denom_degree"] == 499
    assert RatVF.parse(payload["field"]) == monomial_field(1, 501, 0, 499)


def test_solve_bounded_none_names_its_bound():
    # m = 5 has a superflow at degree 1; a scan stopped at 0 must not look like a proof
    code, out = run_cli(["solve", "--m", "5", "--max-degree", "0"])
    assert code == 0
    assert out == "none up to denom degree 0, |G| = 10\n"
    code, out = run_cli(["solve", "--m", "5", "--max-degree", "0", "--format", "json"])
    assert json.loads(out) == {
        "m": 5, "group_order": 10, "status": "none", "denom_degree": None,
        "dimension": 0, "field": None,
    }
    assert run_cli(["solve", "--m", "8", "--max-degree", "0"])[1] == (
        "none (minus-identity shortcut), |G| = 8\n"
    )


def test_verify_flow_exit_and_seed():
    code, out = run_cli(["verify-flow", "--family", "parabolic", "--samples", "100", "--seed", "1"])
    assert code == 0
    assert "seed=1" in out


def test_verify_flow_deterministic():
    argv = ["verify-flow", "--family", "radical_x", "--k", "1", "--samples", "50", "--seed", "9", "--format", "json"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second


def test_verify_flow_json_schema():
    code, out = run_cli(
        ["verify-flow", "--family", "level0", "--samples", "20", "--seed", "2", "--format", "json"]
    )
    assert code == 0
    record = json.loads(out.strip())
    assert set(record) == {"flow", "check", "n_samples", "max_residual", "worst_sample", "seed"}
    assert record["check"] == "translation"
    assert record["max_residual"] <= 1e-10


def test_verify_pde_passes():
    code, out = run_cli(
        ["verify-pde", "--family", "sph_inf", "--samples", "40", "--seed", "3", "--format", "json"]
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert {r["check"] for r in records} == {"pde", "vector_field_extraction"}


def test_orbits_passes():
    code, out = run_cli(["orbits", "--steps", "1000", "--seed", "4"])
    assert code == 0
    assert "nonalgebraic_example" in out


def test_symmetry_command():
    code, out = run_cli(
        ["symmetry", "--family", "gamma_4k3", "--k", "1", "--draws", "10", "--seed", "5", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out.strip())
    assert report["all_passed"] is True
    assert report["worst_residual"] <= 1e-8
    assert report["n_draws"] == 10


def test_radical_family_requires_k():
    with pytest.raises(SystemExit):
        run_cli(["verify-flow", "--family", "radical_x"])


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        cli.main(["classify"])  # missing --m
    assert info.value.code == 2


def test_engine_error_surfaces_with_context(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["solve", "--m", "2"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error" in err and "--m" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--m", "2"],
        ["solve", "--m", "5", "--max-degree", "-1"],
        ["classify", "--m", "abc"],
        ["classify", "--m", "2..5"],
        ["classify", "--m", "9..5"],
        ["verify-flow", "--family", "radical_x", "--k", "0"],
        ["verify-flow", "--family", "radical_x"],
        ["verify-flow", "--family", "parabolic", "--samples", "0"],
        ["verify-pde", "--family", "parabolic", "--samples", "0"],
        ["orbits", "--steps", "0"],
        ["symmetry", "--family", "gamma_sph", "--draws", "0"],
        ["symmetry", "--family", "gamma_4k3"],
        ["verify-flow", "--family", "parabolic", "--format", "tsv"],
        ["verify-pde", "--family", "parabolic", "--format", "tsv"],
        ["orbits", "--format", "tsv"],
        ["symmetry", "--family", "gamma_sph", "--format", "tsv"],
        ["verify-flow", "--family", "parabolic", "--tol", "nan"],
        ["verify-flow", "--family", "parabolic", "--tol", "-1"],
        ["verify-pde", "--family", "parabolic", "--tol", "inf"],
        ["orbits", "--tol", "0"],
        ["verify-flow", "--family", "parabolic", "--k", "2"],
        ["verify-pde", "--family", "sph_inf", "--k", "1"],
        ["symmetry", "--family", "delta_tilde", "--k", "2"],
    ],
)
def test_invalid_values_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_tol_replaces_every_tolerance(monkeypatch):
    # spoil the extraction so that only its record fails at its own tolerance
    def shifted(flow, point):
        u, v = flow.vector_field().eval_field(point)
        return (u + 1e-3, v)

    monkeypatch.setattr(flows, "extract_vector_field", shifted)
    argv = ["verify-pde", "--family", "parabolic", "--samples", "5"]
    assert run_cli(argv)[0] == 1
    assert run_cli(argv + ["--tol", "10"])[0] == 0
    assert run_cli(argv + ["--tol", "1e-4"])[0] == 1


def test_out_file(tmp_path):
    target = tmp_path / "table.tsv"
    code, out = run_cli(["classify", "--m", "3..5", "--format", "tsv", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("m\t")

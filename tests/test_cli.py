"""End-to-end tests of the command-line interface."""

import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from superflows import cli, engine, flows, matgroup, selftest
from superflows.homog import monomial_field


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
    assert row["field"] == monomial_field(0, 0, 2, 0).to_text()


def test_solve_classify_and_tsv_agree_on_every_shared_value():
    # one helper builds the keys that both commands print; this pins them against drift
    shared = ("m", "group_order", "status", "denom_degree", "field")
    code, out = run_cli(["classify", "--m", "3..60", "--format", "json"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["m"] for r in records] == list(range(3, 61))
    for record in records:
        m = record["m"]
        code, out = run_cli(["solve", "--m", str(m), "--format", "json"])
        assert code == 0
        solved = json.loads(out)
        assert {k: solved[k] for k in shared} == {k: record[k] for k in shared}, m
        assert record["reduction"] == (m // 2 if m % 4 == 2 else None), m
    code, out = run_cli(["classify", "--m", "3..60", "--format", "tsv"])
    assert code == 0
    header, *rows = out.splitlines()
    columns = header.split("\t")
    assert columns == [*shared, "reduction"] and len(rows) == len(records)
    for row, record in zip(rows, records):
        assert row.split("\t") == ["" if record[c] is None else str(record[c]) for c in columns]


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
    assert payload["field"] == monomial_field(1, 501, 0, 499).to_text()


def test_solve_bounded_none_names_its_bound():
    # m = 5 has a superflow at degree 1; a scan stopped at 0 must not look like a proof
    code, out = run_cli(["solve", "--m", "5", "--max-degree", "0"])
    assert code == 0
    assert out == "none up to denom degree 0, |G| = 10\n"
    code, out = run_cli(["solve", "--m", "5", "--max-degree", "0", "--format", "json"])
    assert json.loads(out) == {
        "m": 5, "group_order": 10, "status": "none", "denom_degree": None,
        "dimension": 0, "field": None, "scan_bound": 0,
    }
    assert run_cli(["solve", "--m", "8", "--max-degree", "0"])[1] == (
        "none (minus-identity shortcut), |G| = 8\n"
    )
    # the shortcut is a proof, so its JSON carries no bound
    out = run_cli(["solve", "--m", "8", "--max-degree", "0", "--format", "json"])[1]
    assert json.loads(out)["status"] == "none" and json.loads(out)["scan_bound"] is None


def test_verify_flow_exit_and_seed():
    code, out = run_cli(["verify-flow", "--family", "parabolic", "--samples", "100", "--seed", "1"])
    assert code == 0
    assert "seed=1" in out


def test_verify_flow_with_no_moved_sample_fails():
    # at k = 200 the flow moves no drawn point, so every sample is vacuous
    code, out = run_cli(["verify-flow", "--family", "radical_x", "--k", "200", "--samples", "20"])
    assert code == 1
    assert out.splitlines()[1] == "radical_x(k=200)  translation: n=0  max_residual=0.000e+00"


def test_verify_pde_with_zero_fields_only_fails():
    # at k = 1500 both fields read 0 at every drawn point, so no extraction sample counts
    code, out = run_cli(["verify-pde", "--family", "radical_x", "--k", "1500", "--samples", "20"])
    assert code == 1
    assert out.splitlines()[2] == "radical_x(k=1500)  vector_field_extraction: n=0  max_residual=0.000e+00"


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


CHECK_OPTIONS = ["--seed", "--tol", "--out", "--format"]

# each command's options in --help order
OPTIONS = {
    "classify": ["--m", "--out", "--format"],
    "solve": ["--m", "--max-degree", "--out", "--format"],
    "verify-flow": ["--family", "--k", "--samples", *CHECK_OPTIONS],
    "verify-pde": ["--family", "--k", "--samples", *CHECK_OPTIONS],
    "orbits": ["--steps", "--samples", *CHECK_OPTIONS],
    "symmetry": ["--family", "--k", "--draws", *CHECK_OPTIONS],
    "selftest": ["--out", "--format"],
}


@pytest.mark.parametrize("command", OPTIONS)
def test_parser_adds_the_options_of_the_invoked_command_only(command):
    parser = cli.build_parser(command)
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == list(OPTIONS)
    for name, sub in commands.choices.items():
        flags = [a.option_strings[0] for a in sub._actions]
        assert flags == (["-h", *OPTIONS[name]] if name == command else ["-h"])


@pytest.mark.parametrize("argv", [[], ["bogus"]])
def test_a_missing_or_unknown_command_is_a_usage_error_naming_every_command(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "{" + ",".join(OPTIONS) + "}" in err
    if argv:
        assert "invalid choice: 'bogus' (choose from " + ", ".join(f"'{c}'" for c in OPTIONS) in err


def test_main_reads_the_command_line_by_default(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["superflows", "solve", "--m", "7", "--format", "json"])
    code, out = run_cli(None)
    assert code == 0 and json.loads(out)["group_order"] == 14


def test_selftest_runs_in_process():
    code, out = run_cli(["selftest", "--format", "json"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["criterion"] for r in records] == [name for name, _ in selftest.CRITERIA]
    assert len(records) == 8
    assert all(r["passed"] is True and r["elapsed_s"] >= 0 for r in records)


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
        ["verify-flow", "--family", "radical_y", "--k", "3000"],
        ["verify-pde", "--family", "radical_y", "--k", "3000"],
        ["symmetry", "--family", "gamma_4k1", "--k", "3000"],
    ],
)
def test_float_overflow_is_an_error_line(argv, capsys):
    # at k = 3000 a power of the radical's anchor overflows a complex double
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


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
        ["solve", "--m", "3", "--out", "/nonexistent/dir/x"],
        ["classify", "--m", "5.."],
        ["classify", "--m", "..5"],
        ["symmetry", "--family", "delta_tilde", "--samples", "5"],
        ["verify-flow", "--family", "parabolic", "--tol", "abc"],
    ],
)
def test_invalid_values_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_unwritable_out_fails_before_the_command_runs(monkeypatch, capsys):
    def must_not_run():
        raise AssertionError("selftest ran before --out was checked")

    monkeypatch.setattr(selftest, "run_all", must_not_run)
    with pytest.raises(SystemExit) as info:
        cli.main(["selftest", "--out", "/nonexistent/dir/x"])
    assert info.value.code == 2
    assert "--out: cannot write" in capsys.readouterr().err


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


@pytest.mark.parametrize("fmt", ["text", "json", "tsv"])
def test_out_file_holds_the_bytes_of_stdout(fmt, tmp_path):
    argv = ["classify", "--m", "3..200", "--format", fmt]
    code, out = run_cli(argv)
    assert code == 0 and len(out.splitlines()) == 198 + (fmt == "tsv")
    target = tmp_path / f"table.{fmt}"
    assert run_cli(argv + ["--out", str(target)]) == (0, "")
    assert target.read_bytes() == out.encode("utf-8")


def test_classify_writes_each_row_before_deciding_the_next(monkeypatch):
    decided = []
    find_superflow = engine.find_superflow

    def counted(group, *args, **kwargs):
        decided.append(group)
        return find_superflow(group, *args, **kwargs)

    writes = []

    class Recorder(io.StringIO):
        """A stdout that notes how many verdicts were decided at each write."""
        def write(self, text):
            writes.append((len(decided), text))
            return super().write(text)

    monkeypatch.setattr(engine, "find_superflow", counted)
    with redirect_stdout(Recorder()) as stdout:
        assert cli.main(["classify", "--m", "3..50"]) == 0
    assert [count for count, _ in writes] == list(range(1, 49))
    assert writes[0][1].startswith("m=3 ")
    assert stdout.getvalue() == run_cli(["classify", "--m", "3..50"])[1]


def test_a_closed_stdout_ends_the_run_quietly(tmp_path, capsys):
    class ClosedPipe(io.StringIO):
        """A stdout whose reader has gone, on a descriptor of its own."""
        def __init__(self, fd):
            super().__init__()
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    target = tmp_path / "stdout"
    with open(target, "wb") as handle:
        with redirect_stdout(ClosedPipe(handle.fileno())):
            assert cli.main(["classify", "--m", "3..50"]) == 0
        # the descriptor now leads to the null device, so a final flush writes nowhere
        os.write(handle.fileno(), b"after the reader closed\n")
    assert target.read_bytes() == b""
    assert capsys.readouterr() == ("", "")


def test_classify_into_a_reader_that_takes_one_line_exits_0_with_empty_stderr():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-X", "dev", "-W", "error", "-m", "superflows.cli",
            "classify", "--m", "3..100000"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first.startswith(b"m=3 ")
    assert (code, err) == (0, b"")

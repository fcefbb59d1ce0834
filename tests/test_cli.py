"""CLI driver: schema, determinism, exit-status contracts."""

import csv
import json

import pytest

from susylattice import cli
from susylattice.dicke import MAX_PARTICLES
from susylattice.reporting import (Report, ReportSchemaError, check_row,
                                   load_tolerances)

HEADER = ["metric", "n", "value_re", "value_im", "target_re", "target_im",
          "provenance", "pass"]


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def exit_code(args):
    """Exit status of `susylab args`; argparse rejects with SystemExit."""
    try:
        return cli.main(args)
    except SystemExit as exc:
        return exc.code


# ------------------------------------------------------------- reporting

def test_row_provenance_schema_enforced():
    with pytest.raises(ReportSchemaError):
        check_row("x", 1, 0.0, 0.0, "GUESS", 1e-9)


def test_report_csv_schema_and_sorting():
    rep = Report()
    rep.add(check_row("b_metric", 2, 1.0, 1.0, "TRIVIAL", 1e-9))
    rep.add(check_row("a_metric", 4, 1.0, 2.0, "DERIVED", 1e-9))
    rep.add(check_row("a_metric", 2, 1.0, 1.0, "PAPER", 1e-9))
    text = rep.to_csv()
    assert text.endswith("\n") and "\r" not in text
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == HEADER
    assert [r[0] for r in rows[1:]] == ["a_metric", "a_metric", "b_metric"]
    assert rows[1][7] == "pass" and rows[2][7] == "fail"
    assert not rep.all_passed()


def test_report_json_mirrors_rows():
    rep = Report(config_echo={"command": "verify"})
    rep.add(check_row("m", 8, 1.5, 1.5, "DERIVED", 1e-9))
    payload = json.loads(rep.to_json())
    assert payload["metadata"]["config"] == {"command": "verify"}
    (row,) = payload["rows"]
    assert row["metric"] == "m" and row["pass"] is True
    assert set(row) >= {"value_re", "value_im", "target_re", "target_im",
                        "provenance", "tolerance"}


def test_tolerance_overrides(tmp_path):
    path = tmp_path / "tol.json"
    path.write_text(json.dumps({"gaussian": 0.5}))
    tol = load_tolerances(str(path))
    assert tol["gaussian"] == 0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1.0}))
    with pytest.raises(ReportSchemaError):
        load_tolerances(str(bad))


# ------------------------------------------------------------------ verify

def test_verify_default_passes(capsys):
    code, out = run_cli(["verify"], capsys)
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == HEADER
    assert all(r[7] == "pass" for r in rows[1:])
    assert all(r[6] in ("PAPER", "TRIVIAL", "DERIVED") for r in rows[1:])


def test_verify_baby_suite_composition(capsys):
    code, out = run_cli(["verify", "--model", "baby"], capsys)
    assert code == 0
    metrics = [r.split(",")[0] for r in out.splitlines()[1:]]
    assert len([m for m in metrics if m.startswith("baby_flow_s=")]) == 4


def test_verify_unknown_model_is_usage_error(capsys):
    code, _ = run_cli(["verify", "--model", "nonexistent"], capsys)
    assert code == 2


def test_verify_dimension_bound_error(capsys):
    code, _ = run_cli(["verify", "--model", "model_iii", "--n", "5"], capsys)
    assert code == 2


def test_verify_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["--out", str(out1), "--jobs", "1", "verify"]) == 0
    assert cli.main(["--out", str(out2), "--jobs", "4", "verify"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ------------------------------------------------------------------- sweep

def test_sweep_gaussian(capsys):
    code, out = run_cli(["sweep", "--metric", "gaussian",
                         "--n-list", "64,256,1024"], capsys)
    assert code == 0
    rows = [r.split(",") for r in out.splitlines()[1:]]
    assert {r[0] for r in rows} == {"gaussian", "gaussian_fit_limit"}


def test_sweep_needs_three_points(capsys):
    code, _ = run_cli(["sweep", "--metric", "gaussian",
                       "--n-list", "64,256"], capsys)
    assert code == 2


def test_sweep_rejects_descending_n_list(capsys):
    assert exit_code(["sweep", "--metric", "gaussian",
                      "--n-list", "256,64,16"]) == 2


def test_sweep_rejects_repeated_n_list(capsys):
    assert exit_code(["sweep", "--metric", "gaussian",
                      "--n-list", "64,64,64"]) == 2
    assert capsys.readouterr().out == ""


def test_tables_rejects_descending_n_list(capsys):
    assert exit_code(["tables", "--n-list", "256,64"]) == 2
    assert capsys.readouterr().out == ""


def test_sweep_unknown_metric(capsys):
    code, _ = run_cli(["sweep", "--metric", "bogus",
                       "--n-list", "4,8,16"], capsys)
    assert code == 2


def test_sweep_bad_n_list_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--metric", "gaussian", "--n-list", "a,b"])
    assert exc.value.code == 2


def test_sweep_odlro_ceiling(capsys):
    code, out = run_cli(["sweep", "--metric", "odlro", "--state", "ceiling",
                         "--n-list", "50,100,200"], capsys)
    assert code == 0
    fit_rows = [r for r in out.splitlines()[1:]
                if r.startswith("odlro_fit_limit")]
    assert len(fit_rows) == 1 and fit_rows[0].endswith("pass")


def test_sweep_meso_variance_divergence_row(capsys):
    code, out = run_cli(["sweep", "--metric", "meso_variance",
                         "--state", "ceiling", "--n-list", "50,100,200"],
                        capsys)
    assert code == 0
    assert any(r.startswith("meso_variance_divergent") and r.endswith("pass")
               for r in out.splitlines())


@pytest.mark.parametrize("metric", sorted(cli.SWEEP_METRICS))
def test_sweep_reaches_max_particles(metric, capsys):
    code, out = run_cli(["--jobs", "1", "sweep", "--metric", metric,
                         "--n-list", f"5000,10000,{MAX_PARTICLES}"], capsys)
    assert code == 0
    rows = list(csv.reader(out.splitlines()))[1:]
    assert rows and all(r[7] == "pass" for r in rows)
    assert str(MAX_PARTICLES) in {r[1] for r in rows}


# ---------------------------------------------------------------- spectrum

def test_spectrum_dicke(capsys):
    code, out = run_cli(["spectrum", "--model", "dicke", "--n", "8",
                         "--levels", "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "spectrum_level_0000"
    assert abs(float(first[2])) < 1e-12


def test_spectrum_unknown_model(capsys):
    code, _ = run_cli(["spectrum", "--model", "qcd", "--n", "4"], capsys)
    assert code == 2


@pytest.mark.parametrize("levels", ("0", "-1"))
def test_spectrum_rejects_nonpositive_levels(levels, capsys):
    code, out = run_cli(["spectrum", "--model", "dicke", "--n", "8",
                         "--levels", levels], capsys)
    assert code == 2 and out == ""


# ------------------------------------------------------------------ tables

def test_tables_all_cells_pass(capsys):
    code, out = run_cli(["tables"], capsys)
    assert code == 1 or code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == 17
    t1 = [r for r in lines if r.startswith("t1_")]
    t2 = [r for r in lines if r.startswith("t2_")]
    assert len(t1) == 9 and len(t2) == 8
    assert all(r.endswith("pass") for r in lines)
    assert code == 0


def test_tables_determinism(tmp_path):
    outs = [tmp_path / f"{k}.csv" for k in range(3)]
    for out, jobs in zip(outs, ("1", "2", "1")):
        assert cli.main(["--out", str(out), "--jobs", jobs, "tables"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() \
        == outs[2].read_bytes()


def test_json_output_format(tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["--out", str(out), "--format", "json",
                     "spectrum", "--model", "dicke", "--n", "4"]) == 0
    payload = json.loads(out.read_text())
    assert payload["rows"][0]["metric"] == "spectrum_level_0000"

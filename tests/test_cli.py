"""CLI driver: schema, determinism, exit-status contracts."""

import csv
import json
import math
from pathlib import Path

import pytest

from susylattice import cli, limits, operators
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
    """verify has no size flag: `--n` is an unknown argument (the Model III
    Fock bound itself is `build_model_iii_fock(5)` -> DimensionError)."""
    assert exit_code(["verify", "--model", "model_iii", "--n", "5"]) == 2
    assert exit_code(["verify", "--model", "model_iii", "--n", "3"]) == 2
    assert capsys.readouterr().out == ""


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
    """tables runs at fixed sizes: any `--n-list` is an unknown argument."""
    assert exit_code(["tables", "--n-list", "256,64"]) == 2
    assert exit_code(["tables", "--n-list", "1,2,256"]) == 2
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


@pytest.mark.parametrize("metric", ("gaussian", "spectral"))
@pytest.mark.parametrize("state", ("foo", "bogoliubov_1", "bogoliubov(x)"))
def test_sweep_rejects_unknown_state(metric, state, capsys):
    assert exit_code(["sweep", "--metric", metric, "--n-list", "64,128,256",
                      "--state", state]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", (
    ["tables"],
    ["verify", "--model", "baby"],
    ["spectrum", "--model", "dicke", "--n", "4"],
    ["sweep", "--metric", "spectral", "--n-list", "64,128,256"],
    ["sweep", "--metric", "gaussian", "--n-list", "64,128,256"],
))
@pytest.mark.parametrize("jobs", ("0", "-1"))
def test_jobs_must_be_positive(argv, jobs, capsys):
    assert exit_code(["--jobs", jobs, *argv]) == 2
    assert capsys.readouterr().out == ""


def _spy_on_sweep(monkeypatch):
    """Record the `jobs` of every limits.sweep call."""
    jobs_seen, real = [], limits.sweep

    def spy(cell, n_list, jobs=1):
        jobs_seen.append(jobs)
        return real(cell, n_list, jobs)
    monkeypatch.setattr(limits, "sweep", spy)
    return jobs_seen


@pytest.mark.parametrize("metric", sorted(cli.SWEEP_METRICS))
def test_sweep_metric_runs_on_jobs_threads(metric, monkeypatch, capsys):
    jobs_seen = _spy_on_sweep(monkeypatch)
    code, out = run_cli(["--jobs", "3", "sweep", "--metric", metric,
                         "--n-list", "16,32,64"], capsys)
    assert code in (0, 1) and out
    assert jobs_seen == [3]


def test_tables_sweeps_run_on_jobs_threads(monkeypatch, capsys):
    jobs_seen = _spy_on_sweep(monkeypatch)
    code, _ = run_cli(["--jobs", "3", "tables"], capsys)
    assert code == 0
    assert jobs_seen == [3, 3]


def test_tables_builds_no_per_site_operator(monkeypatch, capsys):
    """The local rows come from the 4x4 (site 1, Clifford) operator, so no
    tables path reaches the bit-string per-site builder."""
    def refuse(*args, **kwargs):
        raise AssertionError("tables built a per-site operator")
    monkeypatch.setattr(operators, "bit_operator", refuse)
    code, out = run_cli(["--jobs", "1", "tables"], capsys)
    assert code == 0 and out


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


def test_spectrum_witten_below_cutoff_is_usage_error(capsys):
    """The rows are labelled with --n, so --n is the cutoff itself: below
    the minimum it exits 2 instead of being raised silently."""
    code, out = run_cli(["spectrum", "--model", "witten", "--n", "3"], capsys)
    assert code == 2 and out == ""
    code, out = run_cli(["spectrum", "--model", "witten", "--n", "8",
                         "--levels", "3"], capsys)
    assert code == 0
    rows = list(csv.reader(out.splitlines()))[1:]
    assert [r[1] for r in rows] == ["8"] * 3
    assert [float(r[2]) for r in rows] == pytest.approx([0.0, 1.0, 1.0],
                                                        abs=1e-10)


@pytest.mark.parametrize("model,n", (("model_i", 10), ("model_ii", 6)))
def test_spectrum_fock_models_at_their_caps(model, n, capsys):
    """Unit couplings: Model I has H = N * 1; Model II has the subset-sum
    levels k = 0..N with multiplicity C(N, k) * 2^N (the free down spins)."""
    code, out = run_cli(["--jobs", "1", "spectrum", "--model", model,
                         "--n", str(n)], capsys)
    assert code == 0
    got = [float(r[2]) for r in list(csv.reader(out.splitlines()))[1:]]
    if model == "model_i":
        want = [float(n)] * 2 ** n
    else:
        want = [float(k) for k in range(n + 1)
                for _ in range(math.comb(n, k) * 2 ** n)]
    assert got == want


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


# ------------------------------------------------------------ golden CSVs

GOLDEN = Path(__file__).resolve().parent / "golden"


def _sweep_argv(metric, n_list, *extra):
    return ["sweep", "--metric", metric, "--n-list", n_list, *extra]


@pytest.mark.parametrize("name,argv", (
    ("verify.csv", ["verify"]),
    ("tables.csv", ["tables"]),
    ("spectrum_model_ii_n4.csv", ["spectrum", "--model", "model_ii",
                                  "--n", "4"]),
    ("sweep_gaussian.csv", _sweep_argv("gaussian", "16,64,256", "--alpha",
                                       "0.7", "--beta", "0.3")),
    ("sweep_bs_gaussian_y.csv", _sweep_argv("bs_gaussian_y", "16,64,256")),
    ("sweep_bs_gaussian_z.csv", _sweep_argv("bs_gaussian_z", "16,64,256",
                                            "--r", "0.5")),
    ("sweep_weyl_phase.csv", _sweep_argv("weyl_phase", "64,256,1024")),
    ("sweep_odlro_ceiling.csv", _sweep_argv("odlro", "50,100,200",
                                            "--state", "ceiling")),
    ("sweep_odlro_ground.csv", _sweep_argv("odlro", "50,100,200")),
    ("sweep_meso_variance_ceiling.csv",
     _sweep_argv("meso_variance", "50,100,200", "--state", "ceiling")),
    ("sweep_meso_variance_bogoliubov.csv",
     _sweep_argv("meso_variance", "50,100,200", "--state", "bogoliubov")),
    ("sweep_spectral.csv", _sweep_argv("spectral", "64,128,256")),
    ("sweep_bs_super.csv", _sweep_argv("bs_super", "16,64,256")),
    ("sweep_isometry.csv", _sweep_argv("isometry", "50,100,200")),
))
def test_default_workload_csv_matches_golden_bytes(name, argv, tmp_path):
    """Refactors keep the default workloads' CSV bytes, for any --jobs: the
    files under tests/golden were written by `susylab --jobs 1 ...` (tables
    and spectrum before the plain-array operator layer, verify after the
    blocked decomposition, the sweeps before the single sweep engine; numpy
    2.4 / scipy 1.17 on OpenBLAS, x86-64); another BLAS build may move a
    last digit."""
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}_{name}"
        assert cli.main(["--out", str(out), "--jobs", jobs, *argv]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes()

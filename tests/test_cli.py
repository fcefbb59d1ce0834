"""CLI driver: schema, determinism, exit-status contracts."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from susylattice import cli, dicke, limits, models, operators
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


def test_nilpotency_row_can_fail():
    """A non-nilpotent Q yields its failing nilpotency row alone, not the
    NilpotencyError of a decomposition it does not have."""
    q = models.hopping_supercharge(3)
    inst = models.ModelInstance(
        kind="hopping", spec=operators.LatticeSpec(3), couplings=(1.0,) * 3,
        q=q, h=q @ q.conj().T + q.conj().T @ q)
    rows = cli._decomposition_rows("hopping", inst, load_tolerances(None))
    assert [(r.metric, r.passed) for r in rows] == [("hopping_nilpotency",
                                                     False)]
    assert rows[0].value == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)),
                                          rel=1e-12)


def test_car_defect_fails_the_car_row_but_not_the_pm_row(monkeypatch):
    """A relative 1e-6 error in one eta entry breaks CAR only: the
    pm_symmetry row checks the pairing and +-sqrt(E), not CAR again."""
    inst = models.build_model_ii((0.7, 1.3))
    dec = operators.super_decompose(inst.q)
    eta = dec.eta.copy()
    eta.data[np.argmax(np.abs(eta.data))] *= 1 + 1e-6
    bad = dataclasses.replace(dec, eta=eta)
    monkeypatch.setattr(operators, "super_decompose",
                        lambda q, check=True: bad)
    rows = {r.metric: r.passed for r in cli._decomposition_rows(
        "m", inst, load_tolerances(None))}
    assert rows == {"m_nilpotency": True, "m_car_completeness": False,
                    "m_even_multiplicity": True, "m_pm_symmetry": True,
                    "m_g_square": True}


@pytest.mark.parametrize("suite,most", (("baby", 1), ("model_i", 11),
                                        ("model_ii", 15)))
def test_flow_suites_diagonalise_each_generator_once(suite, most,
                                                     monkeypatch):
    """One eigh per generator over every flow parameter: the flow checks
    call the matrix functions with the array of FLOW_POINTS."""
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    rows = cli.VERIFY_SUITES[suite](load_tolerances(None))
    assert all(r.passed for r in rows)
    assert 0 < len(calls) <= most


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


def _sweep_pairs():
    """Every cli.SWEEP key as (metric, state) params: the metric's default
    state is left out of the argv (id: the metric), the others are given
    with --state (id: metric-state)."""
    pairs = []
    for metric, state in cli.SWEEP:
        given = None if cli.sweep_key(metric, None)[1] == state else state
        pairs.append(pytest.param(metric, given, id="-".join(
            filter(None, (metric, given)))))
    return sorted(pairs, key=lambda p: p.id)


def _state_argv(state):
    return [] if state is None else ["--state", state]


@pytest.mark.parametrize("metric,state", _sweep_pairs())
def test_sweep_metric_runs_on_jobs_threads(metric, state, monkeypatch,
                                           capsys):
    jobs_seen = _spy_on_sweep(monkeypatch)
    code, out = run_cli(["--jobs", "3", "sweep", "--metric", metric,
                         "--n-list", "16,32,64", *_state_argv(state)], capsys)
    assert code in (0, 1) and out
    assert jobs_seen == [3]


def test_tables_sweeps_run_on_jobs_threads(monkeypatch, capsys):
    jobs_seen = _spy_on_sweep(monkeypatch)
    code, _ = run_cli(["--jobs", "3", "tables"], capsys)
    assert code == 0
    assert jobs_seen == [3, 3]


def test_tables_build_the_n256_operators_once(monkeypatch, capsys):
    """gs_phase_slope, bs_free_evolution and the n = 256 bs_eta_prime cell
    share one DickeOperators(256)."""
    built = []
    collective_ops = dicke.collective_ops

    def counted(n):
        built.append(n)
        return collective_ops(n)
    monkeypatch.setattr(dicke, "collective_ops", counted)
    code, _ = run_cli(["--jobs", "2", "tables"], capsys)
    assert code == 0
    assert built.count(256) == 1


def test_tables_builds_no_per_site_operator(monkeypatch, capsys):
    """The local rows come from the 4x4 (site 1, Clifford) operator, so no
    tables path reaches the bit-string per-site builder."""
    def refuse(*args, **kwargs):
        raise AssertionError("tables built a per-site operator")
    monkeypatch.setattr(operators, "bit_operator", refuse)
    code, out = run_cli(["--jobs", "1", "tables"], capsys)
    assert code == 0 and out


@pytest.mark.parametrize("metric,state", _sweep_pairs())
def test_sweep_reaches_max_particles(metric, state, capsys):
    code, out = run_cli(["--jobs", "1", "sweep", "--metric", metric,
                         "--n-list", f"5000,10000,{MAX_PARTICLES}",
                         *_state_argv(state)], capsys)
    assert code == 0
    rows = list(csv.reader(out.splitlines()))[1:]
    assert rows and all(r[7] == "pass" for r in rows)
    assert str(MAX_PARTICLES) in {r[1] for r in rows}


@pytest.mark.parametrize("state", (None, "ground", "ceiling", "bogoliubov"))
@pytest.mark.parametrize("metric", sorted({m for m, _ in cli.SWEEP}))
def test_sweep_state_is_read_or_rejected(metric, state, capsys):
    """Every (metric, --state) either has a SWEEP entry, where all rows
    pass, or exits 2 with empty stdout and names the states it reads."""
    code = exit_code(["--jobs", "1", "sweep", "--metric", metric,
                      "--n-list", "40,120,360", *_state_argv(state)])
    captured = capsys.readouterr()
    states = [s for m, s in cli.SWEEP if m == metric]
    if state is None or state in states:
        assert code == 0
        rows = list(csv.reader(captured.out.splitlines()))[1:]
        assert rows and all(r[7] == "pass" for r in rows)
    else:
        assert code == 2 and captured.out == ""
        if states == [None]:
            assert "takes no --state" in captured.err
        else:
            assert all(s in captured.err for s in states)


def test_sweep_default_state_resolves_and_is_echoed(tmp_path):
    """A left-out --state is ground where the metric reads it, else its one
    state; the JSON config echo records the state the sweep ran in."""
    want = {"gaussian": "ground", "weyl_phase": "ground", "odlro": "ground",
            "meso_variance": "ground", "isometry": "ceiling",
            "spectral": None, "bs_gaussian_y": None, "bs_gaussian_z": None,
            "bs_super": None}
    assert want == {m: cli.sweep_key(m, None)[1] for m, _ in cli.SWEEP}
    for metric in ("isometry", "odlro", "spectral"):
        out = tmp_path / f"{metric}.json"
        assert cli.main(["--jobs", "1", "--out", str(out), "--format",
                         "json", "sweep", "--metric", metric,
                         "--n-list", "16,32,64"]) == 0
        config = json.loads(out.read_text())["metadata"]["config"]
        assert config.get("state") == want[metric]


def test_sweep_spectral_below_three_particles_is_usage_error(capsys):
    """Level 6 needs 2(n+1) > 6 levels: n = 1 or 2 exits 2, not IndexError."""
    code = exit_code(["sweep", "--metric", "spectral", "--n-list", "1,2,3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "n >= 3" in captured.err
    with pytest.raises(ValueError, match="n >= 3"):
        limits.spectral_level(dicke.collective_ops(2))


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_sweep_table_lists_the_sweep_keys():
    """The README's metric/state table names exactly the cli.SWEEP keys and
    each metric's default state ("-" where the metric reads none)."""
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| `--metric` |"):].split("\n\n", 1)[0]
    keys, defaults = set(), {}
    for line in table.splitlines()[2:]:
        metric, accepted, default = (c.strip() for c in
                                     line.strip("|").split("|"))
        metric = metric.strip("`")
        states = re.findall(r"`(\w+)`", accepted) or [None]
        keys |= {(metric, s) for s in states}
        defaults[metric] = (re.findall(r"`(\w+)`", default) or [None])[0]
    assert keys == set(cli.SWEEP)
    assert defaults == {m: cli.sweep_key(m, None)[1] for m, _ in cli.SWEEP}


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


def test_spectrum_witten_above_bound_is_usage_error(capsys):
    """Just above MAX_WITTEN_CUTOFF the run exits 2 with a DimensionError
    message; at the bound it runs."""
    bound = limits.MAX_WITTEN_CUTOFF
    code = cli.main(["spectrum", "--model", "witten", "--n", str(bound + 1)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert f"exceeds bound {bound}" in err
    code, out = run_cli(["spectrum", "--model", "witten", "--n", str(bound),
                         "--levels", "1"], capsys)
    assert code == 0
    (row,) = list(csv.reader(out.splitlines()))[1:]
    assert row[:2] == ["spectrum_level_0000", str(bound)]
    assert abs(float(row[2])) < 1e-12


def test_spectrum_rows_ascend_past_9999_levels(capsys):
    """Dicke n = 5000 has 10002 levels: the index is padded to five digits,
    so the string-sorted rows keep both the indices and the levels
    ascending down the CSV."""
    code, out = run_cli(["spectrum", "--model", "dicke", "--n", "5000"],
                        capsys)
    assert code == 0
    rows = list(csv.reader(out.splitlines()))[1:]
    assert len(rows) == 10002
    assert [r[0] for r in rows] == [f"spectrum_level_{i:05d}"
                                    for i in range(10002)]
    values = [float(r[2]) for r in rows]
    assert values == sorted(values)


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


def test_table_cells_are_the_golden_rows():
    """Each tables row comes from exactly one TABLE_CELLS entry."""
    golden = (GOLDEN / "tables.csv").read_text().splitlines()[1:]
    assert set(cli.TABLE_CELLS) == {line.split(",")[0] for line in golden}
    assert len(cli.TABLE_CELLS) == len(golden) == 17


@pytest.mark.parametrize("metric", sorted(cli.TABLE_CELLS))
def test_each_table_cell_can_fail(metric, monkeypatch, capsys):
    """A cell whose value is swapped for target + 1 fails its own row and
    no other, and tables exits 1."""
    n, _, target, key, provenance = cli.TABLE_CELLS[metric]
    monkeypatch.setitem(cli.TABLE_CELLS, metric,
                        (n, lambda x: target + 1, target, key, provenance))
    code, out = run_cli(["--jobs", "1", "tables"], capsys)
    assert code == 1
    rows = list(csv.reader(out.splitlines()))[1:]
    assert len(rows) == 17
    assert [r[0] for r in rows if r[7] == "fail"] == [metric]


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
    ("sweep_odlro_ceiling_nongeometric.csv",
     _sweep_argv("odlro", "1024,4096,16000", "--state", "ceiling")),
))
def test_default_workload_csv_matches_golden_bytes(name, argv, tmp_path):
    """Refactors keep the default workloads' CSV bytes, for any --jobs: the
    files under tests/golden were written by `susylab --jobs 1 ...` (tables
    and spectrum before the plain-array operator layer, verify after the
    blocked decomposition, the sweeps before the single sweep engine; numpy
    2.4 / scipy 1.17 on OpenBLAS, x86-64); another BLAS build may move a
    last digit.

    verify, tables, sweep_bs_gaussian_y|z, sweep_bs_super and
    sweep_meso_variance_bogoliubov were re-recorded when the Dicke
    log-factorials moved from scipy.special.gammaln to math.lgamma: the two
    differ in the last bit for about half of the integers up to 20002,
    which moves 20 Bogoliubov rows by at most 7.3e-14 (see the mpmath
    oracle in test_dicke.py).  sweep_odlro_ceiling_nongeometric pins the
    exact three-point fit of a non-geometric n-grid.

    tables, sweep_gaussian, sweep_bs_gaussian_y|z and sweep_weyl_phase were
    re-recorded when the rotations moved from expm_multiply to the
    Chebyshev-Bessel sum, the tables time evolutions to elementwise phases
    and the 2x2 rotation to eigh: 13 rotation rows moved by at most 3.4e-16
    and stay within 3e-16 of their closed forms; in tables,
    t1_gs_meso_phase_slope moved from 1 - 1.4e-13 to 1,
    t1_bs_meso_p_constant from 8.9e-16 to 0 and t1_bs_local_rotation from
    2.7e-16 to 1.1e-15.

    sweep_spectral was re-recorded when the Witten limit moved to CSR and
    its levels to the diagonal read: the target column of the three
    hss_level_6 rows and of spectral_limit moved from 1.9999999999999996
    (a dense eigvalsh) to 2; no value moved."""
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}_{name}"
        assert cli.main(["--out", str(out), "--jobs", jobs, *argv]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes()


# --------------------------------------------------------- bad CLI input

def _python(*argv, timeout=120):
    """`python argv` in a fresh interpreter with this checkout's src first on
    the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


_ANGLE_SWEEP = ["sweep", "--metric", "gaussian", "--n-list", "16,32,64"]


@pytest.mark.parametrize("argv", (
    ["--jobs", "0", "verify"],
    ["verify", "--model", "qcd"],
    ["sweep", "--metric", "gaussian", "--n-list", "64,32,128"],
    ["sweep", "--metric", "gaussian", "--n-list", "16,32"],
    ["sweep", "--metric", "odlro", "--n-list", "16,32,64", "--state", "foo"],
    ["sweep", "--metric", "isometry", "--n-list", "16,32,64",
     "--state", "ground"],
    ["sweep", "--metric", "spectral", "--n-list", "2,4,8"],
    ["spectrum", "--model", "dicke", "--n", "8", "--levels", "0"],
    ["spectrum", "--model", "witten", "--n", "7"],
    ["spectrum", "--model", "witten", "--n", "20001"],
    [*_ANGLE_SWEEP, "--alpha", "inf"],
    [*_ANGLE_SWEEP, "--alpha=-inf"],
    [*_ANGLE_SWEEP, "--beta", "nan"],
    [*_ANGLE_SWEEP, "--alpha", "1e308"],
    ["sweep", "--metric", "bs_gaussian_y", "--n-list", "16,32,64",
     "--r", "1e4"],
), ids=" ".join)
def test_bad_input_exits_2_cleanly(argv):
    """Every documented usage error, the non-finite angles and the angles
    past MAX_ROTATION_RHO exit 2 with empty stdout and no traceback."""
    proc = _python("-m", "susylattice.cli", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error" in proc.stderr and "Traceback" not in proc.stderr


# ------------------------------------------------------------ import graph

_IMPORT_GUARD = """
import contextlib, io, json, sys
FORBIDDEN = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph",
             "scipy.optimize", "scipy.special")
from susylattice import cli
runs = [["verify"], ["tables"]]
runs += [["spectrum", "--model", model, "--n", n] for model, n in (
    ("dicke", "40"), ("witten", "16"), ("model_i", "3"), ("model_ii", "3"),
    ("model_iii", "2"))]
runs += [["sweep", "--metric", metric, "--n-list", "40,100,360",
          *(["--state", state] if state else [])] for metric, state in cli.SWEEP]
seen = [["import susylattice.cli", 0]]
for argv in runs:
    seen[-1].append(sorted(m for m in FORBIDDEN if m in sys.modules))
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([" ".join(argv), cli.main(["--jobs", "1", *argv])])
seen[-1].append(sorted(m for m in FORBIDDEN if m in sys.modules))
print(json.dumps(seen))
"""


def test_runtime_never_loads_scipy_optimize_or_special():
    """The runtime imports scipy.sparse alone: no scipy.linalg,
    scipy.sparse.linalg, scipy.sparse.csgraph, scipy.optimize or
    scipy.special after `import susylattice.cli`, nor after `verify`,
    `tables`, `spectrum` of every model and every accepted SWEEP pair (on a
    non-geometric n-grid, which takes the interpolating fit).  Each would
    cost set-up time and resident memory."""
    proc = _python("-c", _IMPORT_GUARD, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert len(seen) == 1 + 2 + 5 + len(cli.SWEEP)
    assert [(step, code, loaded) for step, code, loaded in seen
            if code != 0 or loaded] == []

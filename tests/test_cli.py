"""CLI driver: schema, determinism, exit-status contracts."""

import csv
import dataclasses
import functools
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from susylattice import __version__, cli, dicke, limits, models, operators
from susylattice.dicke import MAX_PARTICLES
from susylattice.reporting import (PROVENANCE_TAGS, Report,
                                   ReportSchemaError, check_row, check_rows,
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


_NUMBERS = st.sampled_from((np.nan, np.inf, -np.inf, 0.0, -0.0)) \
    | st.floats(-1e300, 1e300)


def _complex(re, im):
    """re + i im with no arithmetic, so an infinite part stays alone."""
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


@settings(deadline=None, max_examples=100)
@given(values=st.lists(st.tuples(_NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS,
                                 st.sampled_from((0.0, 1e-12, 0.5, np.inf))),
                       min_size=1, max_size=12))
def test_check_rows_gives_check_row_verdicts(values):
    """check_rows is check_row element by element: the same values,
    targets, tolerances and verdicts, and a nan or infinite difference
    fails any finite tolerance."""
    v_re, v_im, t_re, t_im, tol = map(np.array, zip(*values))
    value, target = _complex(v_re, v_im), _complex(t_re, t_im)
    metric = [f"m{i}" for i in range(len(values))]
    block = check_rows(metric, 7, value, target, "DERIVED", tol)
    rows = [check_row(*args, "DERIVED", t) for args, t in
            zip(zip(metric, [7] * len(values), value, target), tol)]
    assert block.passed.tolist() == [r.passed for r in rows]
    assert block.metric.tolist() == metric
    assert block.n.tolist() == [7] * len(rows)
    for name in ("value", "target", "tolerance"):
        got = getattr(block, name)
        want = np.array([getattr(r, name) for r in rows], dtype=got.dtype)
        assert got.tobytes() == want.tobytes()
    with np.errstate(invalid="ignore"):
        differences = value - target
    assert not block.passed[~np.isfinite(differences) & np.isfinite(tol)].any()


def test_check_rows_enforces_the_provenance_schema():
    with pytest.raises(ReportSchemaError):
        check_rows(["a", "b"], 1, 0.0, 0.0, ["PAPER", "GUESS"], 0.0)


def _reference_render(config, timestamp, rows):
    """CSV and JSON of Rows as csv.writer and json.dumps wrote them, row by
    row, before a report held column blocks."""
    rows = sorted(rows, key=lambda r: (r.metric, r.n))
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(HEADER)
    for r in rows:
        w.writerow([r.metric, r.n] + [f"{x:.17g}" for x in (
            r.value.real, r.value.imag, r.target.real, r.target.imag)]
            + [r.provenance, "pass" if r.passed else "fail"])
    payload = {"metadata": {"artifact_version": __version__,
                            "config": config, "timestamp": timestamp},
               "rows": [{"metric": r.metric, "n": r.n,
                         "value_re": r.value.real, "value_im": r.value.imag,
                         "target_re": r.target.real,
                         "target_im": r.target.imag,
                         "provenance": r.provenance,
                         "tolerance": r.tolerance, "pass": r.passed}
                        for r in rows]}
    return buf.getvalue(), json.dumps(payload, indent=2, sort_keys=True) + "\n"


_ROW = st.tuples(
    st.sampled_from(("a", "b", "a,b", 'q"x', "line\nbreak", "cr\rx", "é",
                     "a_1", "")),
    st.integers(-3, 3), _NUMBERS, _NUMBERS, _NUMBERS,
    st.sampled_from(PROVENANCE_TAGS),
    st.sampled_from((0.0, 0.5, np.inf)))


@settings(deadline=None, max_examples=60)
@given(blocks=st.lists(st.lists(_ROW, max_size=6), max_size=4),
       as_block=st.lists(st.booleans(), min_size=4, max_size=4))
def test_report_renders_as_csv_writer_and_json_dumps(blocks, as_block):
    """One template per format gives the bytes of csv.writer and
    json.dumps over the sorted rows, whether rows came in as check_row
    Rows or as a check_rows block: quotes, commas and line breaks in a
    metric, -0.0, nan and infinities, ties in (metric, n) included."""
    report = Report(config_echo={"command": "x", "n": [1, 2]},
                    timestamp=12.5)
    rows = []
    for block, whole in zip(blocks, as_block):
        made = [check_row(m, n, complex(vr, vi), t, p, tol)
                for m, n, vr, vi, t, p, tol in block]
        rows += made
        if whole and block:
            m, n, vr, vi, t, p, tol = map(list, zip(*block))
            report.add_block(check_rows(
                m, n, _complex(vr, vi), t, p, tol))
        else:
            report.extend(made)
    assert report.all_passed() == all(r.passed for r in rows)
    want_csv, want_json = _reference_render(report.config_echo, 12.5, rows)
    assert report.to_csv() == want_csv
    assert report.to_json() == want_json


def test_tolerance_overrides(tmp_path):
    path = tmp_path / "tol.json"
    path.write_text(json.dumps({"gaussian": 0.5}))
    tol = load_tolerances(str(path))
    assert tol["gaussian"] == 0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1.0}))
    with pytest.raises(ReportSchemaError):
        load_tolerances(str(bad))


@pytest.mark.parametrize("body", ('5', 'null', '{"identity": null}',
                                  '{"identity": -1}', '{"identity": NaN}',
                                  '{"identity": true}'))
def test_malformed_tolerance_file_exits_2(body, tmp_path, capsys):
    """A tolerance file that is not an object of finite, non-negative
    reals is a usage error: not a traceback, not a row that fails on every
    input, and not a bool read as 1."""
    path = tmp_path / "tol.json"
    path.write_text(body)
    assert cli.main(["--tol-file", str(path), "verify",
                     "--model", "baby"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


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


def test_verify_dicke_builds_no_fock_space_past_two_sites(monkeypatch,
                                                         capsys):
    """dicke_cross_rep at n = 2, 3 and 4 reads Model III on its 4^n locked
    pair sector: with the 8^n Fock builder made to raise above 2 sites,
    `verify --model dicke` still passes every row."""
    build = models.build_model_iii_fock

    def small_only(n):
        if n > 2:
            raise AssertionError(f"the {8 ** n}-state Fock space was built")
        return build(n)
    monkeypatch.setattr(models, "build_model_iii_fock", small_only)
    code, out = run_cli(["verify", "--model", "dicke"], capsys)
    assert code == 0
    rows = list(csv.reader(out.splitlines()))[1:]
    assert sorted(r[1] for r in rows if r[0] == "dicke_cross_rep") == \
        ["2", "3", "4"]
    assert all(r[7] == "pass" for r in rows)


def test_verify_builds_the_fock_model_iii_twice(monkeypatch, capsys):
    """A whole `verify` builds Model III's Fock space only for its two
    2-site rows (model_iii and bcs_fock_defect) and asks for no 9 or 12
    Jordan-Wigner modes."""
    builds, modes = [], []
    build, annihilators = (models.build_model_iii_fock,
                           operators.sparse_annihilators)

    def counted(n):
        builds.append(n)
        return build(n)

    def asked(k):
        modes.append(k)
        return annihilators(k)
    monkeypatch.setattr(models, "build_model_iii_fock", counted)
    for module in (models, operators):
        monkeypatch.setattr(module, "sparse_annihilators", asked)
    code, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert builds == [2, 2]
    assert not {9, 12} & set(modes)


def test_verify_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["--out", str(out1), "--jobs", "1", "verify"]) == 0
    assert cli.main(["--out", str(out2), "--jobs", "4", "verify"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("where", ("missing/x.csv", "."))
def test_out_to_an_unwritable_path_exits_2(where, tmp_path, capsys):
    """A report that cannot be written, under a missing directory or onto
    a directory, is a usage error (exit 2), not a failing row (exit 1)."""
    code = cli.main(["--out", str(tmp_path / where), "verify",
                     "--model", "baby"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_nilpotency_row_can_fail():
    """A non-nilpotent Q yields its failing nilpotency row alone, not the
    NilpotencyError of a decomposition it does not have."""
    inst = models.ModelInstance(
        kind="hopping", spec=operators.LatticeSpec(3), couplings=(1.0,) * 3,
        q=models.hopping_supercharge(3))
    rows = cli._decomposition_rows("hopping", inst, load_tolerances(None))
    assert [(r.metric, r.passed) for r in rows] == [("hopping_nilpotency",
                                                     False)]
    assert rows[0].value == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)),
                                          rel=1e-12)


def _eta_entry_scaled(dec):
    data = dec.eta.data.copy()
    data[np.argmax(np.abs(data))] *= 1 + 1e-6
    return dataclasses.replace(dec, eta=operators.Sparse(
        dec.eta.rows, dec.eta.cols, data, dec.eta.shape))


def _top_level_unpaired(dec):
    (e_top, m_top), rest = dec.paired_spectrum[-1], dec.paired_spectrum[:-1]
    return dataclasses.replace(dec,
                               paired_spectrum=rest + ((e_top, m_top - 1),))


def _q_shifted(dec):
    one = operators.Sparse.from_diagonals({0: np.ones(dec.q.shape[0])})
    return dataclasses.replace(dec, q=dec.q + 1e-6 * one)


def _h_scaled(dec):
    return dataclasses.replace(dec, h=dec.h * (1 + 1e-6))


@pytest.mark.parametrize("mutate,failing,message", (
    (_eta_entry_scaled, {"car_completeness"}, "CAR"),
    (_top_level_unpaired, {"even_multiplicity"}, "odd multiplicity"),
    (_q_shifted, {"pm_symmetry", "g_square"}, "do not match"),
    (_h_scaled, {"g_square"}, r"G_alpha\^2 != H")),
    ids=("eta_entry", "top_multiplicity", "q_shift", "h_scale"))
def test_a_mutation_fails_its_rows_and_its_check(mutate, failing, message,
                                                 monkeypatch):
    """Each mutated decomposition of Model II fails exactly the rows of the
    invariants it breaks, and verify_decomposition raises on the first of
    them: a relative 1e-6 error in one eta entry breaks CAR alone, an odd
    multiplicity breaks the pairing count, a 1e-6 diagonal shift of Q the
    +-sqrt(E) symmetry of G_0 (and so G_alpha^2 = H), and H scaled by
    1 + 1e-6 the G_alpha^2 = H identity alone."""
    inst = models.build_model_ii((0.7, 1.3))
    bad = mutate(operators.super_decompose(inst.q))
    monkeypatch.setattr(operators, "super_decompose",
                        lambda q, check=True: bad)
    rows = cli._decomposition_rows("m", inst, load_tolerances(None))
    assert [r.metric for r in rows] == [
        f"m_{name}" for name in ("nilpotency", "car_completeness",
                                 "even_multiplicity", "pm_symmetry",
                                 "g_square")]
    assert {r.metric[2:] for r in rows if not r.passed} == failing
    with pytest.raises(ValueError, match=message):
        operators.verify_decomposition(bad)


@pytest.mark.parametrize("suite,most", (("baby", 1), ("model_i", 5),
                                        ("model_ii", 8)))
def test_flow_suites_diagonalise_each_generator_once(suite, most,
                                                     monkeypatch):
    """One eigh per generator over every flow parameter and every mode: the
    flow checks call the matrix functions with the array of FLOW_POINTS and
    the stack of mode operators, and each closed form takes all its
    functions of G from one call.  eigvalsh counts too, so the pairing check
    cannot bring back an eigensolve of G beside the decomposition's."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, solve=getattr(np.linalg, name), **kwargs):
            calls.append(name)
            return solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
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
def test_sweep_metric_runs_and_prints_rows(metric, state, capsys):
    code, out = run_cli(["sweep", "--metric", metric, "--n-list", "16,32,64",
                         *_state_argv(state)], capsys)
    assert code in (0, 1) and out


def test_cells_run_on_the_calling_thread():
    """No thread pool: every module of the package is free of
    concurrent.futures and threading, and `sweep` takes no `jobs`."""
    for path in Path(cli.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        for word in ("concurrent.futures", "ThreadPoolExecutor", "threading"):
            assert word not in text, (path.name, word)
    assert list(inspect.signature(limits.sweep).parameters) == ["cell",
                                                                "n_list"]


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


def _without_timestamp(body):
    payload = json.loads(body)
    del payload["metadata"]["timestamp"]
    return payload


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    """Three main calls build one parser, each call's report equals the
    one from a freshly built parser (the JSON config echo included, so no
    default or flag leaks from one call into the next), and the handler
    run_<command> is looked up per call, so a patched one runs."""
    argvs = (["--format", "json", "sweep", "--metric", "gaussian",
              "--n-list", "8,16,32", "--alpha", "0.5", "--beta", "0.25"],
             ["--format", "json", "sweep", "--metric", "gaussian",
              "--n-list", "8,16,32"],
             ["spectrum", "--model", "dicke", "--n", "6", "--levels", "4"])
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        assert cli.main(argv) == 0
        fresh.append(capsys.readouterr().out)
    cli.build_parser.cache_clear()
    for argv, want in zip(argvs, fresh):
        assert cli.main(argv) == 0
        got = capsys.readouterr().out
        if "--format" in argv:
            assert _without_timestamp(got) == _without_timestamp(want)
        else:
            assert got == want
    assert cli.build_parser.cache_info().misses == 1
    calls = []
    monkeypatch.setattr(cli, "run_tables",
                        lambda args, tol: calls.append(args) or Report())
    assert cli.main(["tables"]) == 0 and len(calls) == 1
    assert cli._echo(calls[0]) == {"command": "tables", "format": "csv",
                                   "jobs": 1}


def test_weyl_phase_target_is_wrapped_into_the_phase_range(capsys):
    """-alpha beta/2 = -4.5 lies outside np.angle's (-pi, pi]; the target is
    its remainder mod 2 pi, which the phases and their fit reach."""
    code, out = run_cli(["sweep", "--metric", "weyl_phase", "--n-list",
                         "1024,4096,16000", "--alpha", "3", "--beta", "3"],
                        capsys)
    rows = list(csv.DictReader(out.splitlines()))
    assert code == 0 and len(rows) == 4
    assert {r["target_re"] for r in rows} == {"1.7831853071795862"}
    assert all(r["pass"] == "pass" for r in rows)


def test_sweep_spectral_below_three_particles_is_usage_error(capsys):
    """Level 6 needs 2(n+1) > 6 levels: n = 1 or 2 exits 2, not IndexError."""
    code = exit_code(["sweep", "--metric", "spectral", "--n-list", "1,2,3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "n >= 3" in captured.err
    with pytest.raises(ValueError, match="n >= 3"):
        limits.spectral_level(dicke.collective_ops(2))


def test_weyl_phase_with_an_underflowed_gaussian_is_usage_error(capsys):
    """Past alpha^2 + beta^2 of about 2980 the Gaussian modulus that the
    Weyl phase divides by underflows to 0: exit 2 naming it, not a
    ZeroDivisionError traceback."""
    code = exit_code(["sweep", "--metric", "weyl_phase", "--n-list", "1,2,3",
                      "--alpha", "40", "--beta", "40"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "Gaussian modulus" in captured.err
    ops = dicke.collective_ops(3)
    with pytest.raises(ValueError, match="underflows"):
        limits.weyl_relation_probe(ops, dicke.ground_state(ops), 40.0, 40.0)


def test_weyl_phase_below_the_modulus_floor_is_usage_error(capsys):
    """At alpha = beta = 10 the product |<W(alpha,0) W(0,beta)>| reaches
    rounding by n = 256 (about 1e-16, where the closed form is 2e-20) and
    its phase is noise: exit 2 naming |prod|, not rows of wrong phases."""
    code = exit_code(["sweep", "--metric", "weyl_phase", "--n-list",
                      "64,256,1024", "--alpha", "10", "--beta", "10"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "|<W(alpha,0) W(0,beta)>|" in captured.err
    ops = dicke.collective_ops(1024)
    gs = dicke.ground_state(ops)
    limits.weyl_relation_probe(ops, gs, 7.5, 7.5)      # |prod| = 8e-13
    with pytest.raises(ValueError, match="below the floor"):
        limits.weyl_relation_probe(ops, gs, 8.0, 8.0)  # |prod| = 1.8e-14


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
    assert cli.main(["spectrum", "--model", "qcd", "--n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: unknown spectrum model 'qcd'; choose from ['dicke', "
        "'model_i', 'model_ii', 'model_iii', 'witten']\n")


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


# sha256 of `susylab --format F spectrum --model M --n 20000` on stdout,
# with the report's timestamp at 0.0, as the per-row renderer wrote them
SPECTRUM_PINS = {
    ("dicke", "csv"):
        "d79ac7b79bdc81e15a64c2dba30ad2bc650cc49e1d93f9b508c3dcdfcbb58c9d",
    ("dicke", "json"):
        "af02278f73d58ddc5a426273f088b70f5311a4273f0139522678b1ac16d78dcc",
    ("witten", "csv"):
        "d610e1e3dd9ae6b1055ea97e09e6b4febc09ca2e2f5d2b2970514eb9c52ddb2b",
    ("witten", "json"):
        "78d631da0f03bdee54db86074a59f73e22c6075fcf337a3d5d100e5a17d7ee92",
}


@pytest.mark.parametrize("model,fmt", sorted(SPECTRUM_PINS))
def test_large_spectrum_keeps_its_bytes(model, fmt, capsys, monkeypatch):
    """The 40002-row Dicke and 30000-row Witten spectra at n = 20000 render
    to the bytes the per-row renderer wrote, in both formats."""
    monkeypatch.setattr(cli, "Report", functools.partial(Report,
                                                         timestamp=0.0))
    code, out = run_cli(["--format", fmt, "spectrum", "--model", model,
                         "--n", "20000"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SPECTRUM_PINS[
        model, fmt]


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


@pytest.mark.parametrize("model,n", (("model_i", 10), ("model_i", 12),
                                     ("model_ii", 6), ("model_ii", 7)))
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


@pytest.mark.parametrize("model,cap", (("model_i", 12), ("model_ii", 7),
                                       ("model_iii", 8)))
def test_spectrum_fock_models_above_their_caps_exit_2(model, cap, capsys):
    code = cli.main(["spectrum", "--model", model, "--n", str(cap + 1)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert f"at most {cap} sites" in err


def _peak_kb(code):
    """VmHWM in kB after running `code` in a fresh interpreter: the
    high-water mark of the interpreter's own address space, where a forked
    child's ru_maxrss also counts the parent it was forked from, the whole
    test process."""
    proc = _python("-c", code + """
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status
               if line.startswith("VmHWM:")))
""")
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_spectrum_model_iii_at_its_cap_stays_small():
    """At its cap, 8 sites, `spectrum --model model_iii` exits 0 with the
    18 Dicke H_SS levels, in a fresh process under 500 MB peak RSS (about
    270 MB and 0.7 s on 2 vCPU; 9 sites would take about four times as
    much of each)."""
    assert _peak_kb("""
import contextlib, csv, io
import numpy as np
from susylattice import cli, dicke
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = cli.main(["--jobs", "1", "spectrum", "--model", "model_iii",
                     "--n", "8"])
assert code == 0
got = [float(r[2]) for r in list(csv.reader(buf.getvalue().splitlines()))[1:]]
want = dicke.hss_eigenvalues(dicke.collective_ops(8))
assert len(got) == 18 and np.abs(np.array(got) - want).max() < 1e-9
""") < 500 * 1024


def test_model_i_decomposition_at_its_cap_stays_small():
    """Model I n = 12 decomposes and checks in well under 200 MB peak RSS
    (about 97 MB on 2 vCPU): H = (sum z_i^2) 1 splits into 4096 one-state
    blocks, so no dense 4096^2 block is formed, although the pattern of
    |Q| + |Q^dag| connects all 4096 states."""
    assert _peak_kb("""
from susylattice import models, operators
operators.super_decompose(models.build_model_i((1.0,) * 12).q, check=True)
""") < 200 * 1024      # kB


def test_model_ii_decomposition_below_its_cap_stays_small():
    """Model II n = 6 decomposes and checks in well under 100 MB peak RSS
    (about 42 MB on 2 vCPU): no dense 2^12 x 2^12 matrix is formed."""
    assert _peak_kb("""
from susylattice import models, operators
operators.super_decompose(models.build_model_ii(
    (0.55, 0.8, 1.0, 1.15, 1.3, 1.45)).q, check=True)
""") < 100 * 1024      # kB


def test_model_i_decomposition_rows_at_its_cap_stay_small():
    """The verify rows of Model I n = 12 take well under 150 MB peak RSS
    (about 97 MB on 2 vCPU): G_alpha^2 = H is a Frobenius norm over the
    stored entries, where a dense spectral norm needs a 4096^2 SVD."""
    assert _peak_kb("""
from susylattice import cli, models
from susylattice.reporting import load_tolerances
rows = cli._decomposition_rows("model_i", models.build_model_i((1.0,) * 12),
                               load_tolerances(None))
assert all(r.passed for r in rows)
""") < 150 * 1024      # kB


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
    (a dense eigvalsh) to 2; no value moved.

    All fifteen kept their bytes when the operators moved from scipy CSR to
    operators.Sparse, and when P0 followed them.

    verify was re-recorded when the decomposition moved from the blocks of
    Q to those of H: model_i_car_completeness moved from
    1.1102230246251565e-16 to 0, the Sparse identity on a diagonal H."""
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
    ["sweep", "--metric", "weyl_phase", "--n-list", "1,2,3", "--alpha", "40",
     "--beta", "40"],
), ids=" ".join)
def test_bad_input_exits_2_cleanly(argv):
    """Every documented usage error, the non-finite angles and the angles
    past MAX_ROTATION_RHO exit 2 with empty stdout and no traceback."""
    proc = _python("-m", "susylattice.cli", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error" in proc.stderr and "Traceback" not in proc.stderr


# ------------------------------------------------------------ import graph

# Runs, in one fresh interpreter, verify, tables, `spectrum` of every
# cli.SPECTRA model and every cli.SWEEP pair (on a non-geometric n-grid,
# which takes the interpolating fit); prints [step, exit code, the modules
# of package WATCH loaded after it] per step.
_GUARD = """
import contextlib, io, json, sys
from susylattice import cli
SIZES = {"dicke": "40", "witten": "16", "model_i": "3", "model_ii": "3",
         "model_iii": "2"}
runs = [["verify"], ["tables"]]
runs += [["spectrum", "--model", model, "--n", SIZES[model]]
         for model in cli.SPECTRA]
runs += [["sweep", "--metric", metric, "--n-list", "40,100,360",
          *(["--state", state] if state else [])]
         for metric, state in cli.SWEEP]
watched = lambda: sorted(m for m in sys.modules
                         if m == WATCH or m.startswith(WATCH + "."))
seen = [["import susylattice.cli", 0]]
for argv in runs:
    seen[-1].append(watched())
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([" ".join(argv), cli.main(["--jobs", "1", *argv])])
seen[-1].append(watched())
print(json.dumps(seen))
"""
_IMPORT_GUARD = 'WATCH = "scipy"' + _GUARD
_NUMPY_MA_GUARD = 'WATCH = "numpy.ma"' + _GUARD


def test_runtime_never_loads_scipy_optimize_or_special():
    """The runtime is numpy alone: no scipy module at all, scipy.optimize
    and scipy.special among them, is loaded by `import susylattice.cli`, nor
    after verify, tables, spectrum of every model or any accepted SWEEP
    pair, and each of them exits 0.  scipy.sparse alone cost about 0.2 s of
    set-up and 20 MB of resident memory."""
    proc = _python("-c", _IMPORT_GUARD, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert len(seen) == 1 + 2 + len(cli.SPECTRA) + len(cli.SWEEP)
    assert [(step, code, loaded) for step, code, loaded in seen
            if code != 0 or loaded] == []


def test_commands_never_load_numpy_ma():
    """No command loads numpy.ma: np.unique does, through np.ma.is_masked,
    and the import alone took 11-16 ms of a Fock pass."""
    proc = _python("-c", _NUMPY_MA_GUARD, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert len(seen) == 1 + 2 + len(cli.SPECTRA) + len(cli.SWEEP)
    assert [(step, code, loaded) for step, code, loaded in seen
            if code != 0 or loaded] == []

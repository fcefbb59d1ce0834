"""Tests of the benchmark itself: tracing is transparent, the self-time
arithmetic is right, the oracles agree with the engine, and every check
can fail.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import susylattice  # noqa: E402
from susylattice import cli, dicke, limits, models, operators  # noqa: E402

SMALL_COMMANDS = (
    ["verify", "--model", "model_ii"],
    ["sweep", "--metric", "gaussian", "--n-list", "16,32,64",
     "--alpha", "0.5", "--beta", "0.7"],
    ["sweep", "--metric", "odlro", "--state", "ceiling", "--n-list",
     "100,200,400"],
)


def _cli_bytes(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--jobs", "1", *argv])
    return code, buf.getvalue()


def test_tracing_leaves_cli_output_bytes_identical():
    originals = (np.linalg.norm, np.linalg.eigh, limits.eig_banded,
                 models.gauge_charge, operators.super_decompose,
                 cli.ThreadPoolExecutor, operators.OperatorMatrix.__init__)
    before = [_cli_bytes(argv) for argv in SMALL_COMMANDS]
    tracer = tracing.Tracer().install(susylattice)
    try:
        assert models.gauge_charge is not originals[3]
        traced = [_cli_bytes(argv) for argv in SMALL_COMMANDS]
    finally:
        tracer.uninstall()
    after = [_cli_bytes(argv) for argv in SMALL_COMMANDS]
    assert before == traced == after
    assert all(code == 0 for code, _ in before)
    assert originals == (np.linalg.norm, np.linalg.eigh, limits.eig_banded,
                         models.gauge_charge, operators.super_decompose,
                         cli.ThreadPoolExecutor,
                         operators.OperatorMatrix.__init__)
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"cli.main", "kernel.eig_banded", "kernel.eigh", "kernel.norm2",
            "operators.super_decompose", "models.build_model_ii",
            "dicke.ceiling_state_ladder", "limits.odlro"} <= names


def test_pool_tasks_are_children_of_the_submitting_span():
    tracer = tracing.Tracer().install(susylattice)
    try:
        _cli_bytes(SMALL_COMMANDS[1])
    finally:
        tracer.uninstall()
    spans = tracer.export("t")
    by_id = {s["id"]: s for s in spans}
    probe = next(s for s in spans
                 if s["name"] == "limits.fluctuation_expectation")
    chain = []
    while probe["parent"] is not None:
        probe = by_id[probe["parent"]]
        chain.append(probe["name"])
    assert chain[-2:] == ["cli.run_sweep", "cli.main"]


def _span(sid, start, end, parent=None, name="x", dim=0, nbytes=0):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "dim": dim, "nbytes": nbytes}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 0.0, 10.0, name="root"),
        _span(1, 1.0, 4.0, 0, name="a"),       # overlaps b: union is [1, 6]
        _span(2, 3.0, 6.0, 0, name="b"),
        _span(3, 2.0, 3.0, 1, name="leaf"),
        _span(4, 9.0, 12.0, 0, name="b"),      # outlives root: clipped to 1
        _span(5, 1.5, 2.5, 1, name="leaf"),    # overlaps the other leaf
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 10 - 5 - 1, 1: 3 - 1.5, 2: 3.0,
                                   3: 1.0, 4: 3.0, 5: 1.0})
    totals = tracing.layer_totals(spans)
    assert totals["b"]["s"] == pytest.approx(6.0)
    assert totals["b"]["calls"] == 2
    assert totals["leaf"]["s"] == pytest.approx(2.0)


def test_oracles_agree_with_the_engine_at_small_n():
    alpha, beta = 0.8, 0.45
    for n in (8, 64):
        ops = dicke.collective_ops(n)
        gs = dicke.ground_state(ops)
        got = limits.fluctuation_expectation(
            ops, gs, limits.FluctuationParams(alpha, beta))
        assert abs(got - workloads.gaussian_oracle(n, alpha, beta)) < 1e-12
        _, phase = limits.weyl_relation_probe(ops, gs, alpha, beta)
        assert phase == pytest.approx(
            workloads.weyl_phase_oracle(n, alpha, beta), rel=1e-10)
        ceiling = dicke.ceiling_state_ladder(ops)[1]
        assert limits.odlro(ops, ceiling) == pytest.approx(
            workloads.odlro_ceiling_oracle(n), rel=1e-10)
    z = (0.7, 1.3, 0.55)
    h = models.build_model_ii(z).h
    engine = np.sort(np.linalg.eigvalsh(h.mat))
    assert np.allclose(engine, workloads.model_ii_levels(z), rtol=0,
                       atol=1e-12)


def _small_odlro_op(corrupt=None):
    ns = (100, 200, 400)
    op = workloads.cli_op(
        "odlro", ["sweep", "--metric", "odlro", "--state", "ceiling",
                  "--n-list", ",".join(map(str, ns))],
        lambda: {("odlro", n): complex(workloads.odlro_ceiling_oracle(n))
                 for n in ns})
    if corrupt is None:
        return op

    def run_corrupted():
        code, rows = op.run()
        return corrupt(code, dict(rows))

    return workloads.Operation(op.label, run_corrupted, op.oracle)


def _nudge(code, rows):
    value, ok = rows[("odlro", 200)]
    rows[("odlro", 200)] = (value * (1 + 1e-9), ok)
    return code, rows


def _fail_row(code, rows):
    value, _ = rows[("odlro_fit_limit", 0)]
    rows[("odlro_fit_limit", 0)] = (value, False)
    return code, rows


def _drop_row(code, rows):
    del rows[("odlro", 400)]
    return code, rows


def _raise(code, rows):
    raise FloatingPointError("corrupted")


@pytest.mark.parametrize("corrupt, reason", [
    (_nudge, "oracle ('odlro', 200)"),
    (_fail_row, "fail rows"),
    (_drop_row, "oracle row ('odlro', 400) missing"),
    (lambda code, rows: (1, rows), "exit code 1"),
    (_raise, "raised FloatingPointError"),
])
def test_every_check_can_fail(corrupt, reason):
    reasons, _ = workloads.run_operation(_small_odlro_op())
    assert reasons == []
    reasons, _ = workloads.run_operation(_small_odlro_op(corrupt))
    assert any(r.startswith(reason) for r in reasons), reasons


def test_bad_cli_input_counts_as_failure():
    op = workloads.cli_op("bad", ["sweep", "--metric", "gaussian"])
    with contextlib.redirect_stderr(io.StringIO()):
        reasons, _ = workloads.run_operation(op)
    assert reasons == ["exit code 2"]


def test_decomposition_op_passes_its_oracle_at_small_n():
    op = workloads.decompose_op((0.9, 1.2, 0.6))
    reasons, rows = workloads.run_operation(op)
    assert reasons == []
    assert rows[("kernel_dim", 3)][0] == pytest.approx(8)
    assert len(rows) == 64 - 8 + 1


def test_seeded_inputs_are_deterministic_and_in_range():
    for seed in (0, 1, 12345):
        for w in workloads.WORKLOADS:
            assert workloads.inputs(w, seed) == workloads.inputs(w, seed)
        z = workloads.inputs("fock", seed)["z"]
        assert len(z) == 5 and all(0.5 <= v <= 1.5 for v in z)
        angles = workloads.inputs("collective", seed)
        assert all(0.3 <= v <= 1.0 for pair in angles.values() for v in pair)
    assert workloads.inputs("fock", 0) != workloads.inputs("fock", 1)
    assert [op.label for op in workloads.operations("collective", 7)] == \
        ["sweep_gaussian", "sweep_weyl_phase", "sweep_odlro_ceiling"]


def test_max_drift_is_relative_and_notices_missing_rows():
    ref = {"a": [2.0, 0.0], "b": [0.0, 1e-16]}
    assert workloads.max_drift(ref, ref) == 0.0
    assert workloads.max_drift({"a": [2.0 + 2e-12, 0.0], "b": [0.0, 0.0]},
                               ref) == pytest.approx(1e-12)
    assert math.isinf(workloads.max_drift({"a": [2.0, 0.0]}, ref))


def test_import_split_groups_by_top_level_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:      2000 |       2500 |     numpy.linalg",
        "import time:       500 |       3000 |   numpy",
        "import time:      1000 |       1000 |   scipy.sparse",
        "import time:       300 |       4300 | susylattice",
        run.child.IMPORT_MARKER,
        "import time:      9999 |       9999 | scipy.optimize",
    ])
    assert run.import_split(stderr) == pytest.approx(
        {"numpy": 2.5e-3, "scipy": 1e-3, "susylattice": 3e-4,
         "other": 1e-4})

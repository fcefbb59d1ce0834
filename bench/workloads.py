"""Workload definitions, seeded inputs, closed-form oracles and the
failure accounting of one operation.

An operation is one `susylab` command (run in-process through
`susylattice.cli.main` with `--jobs 1`) or one library call.  It fails when
it raises, exits non-zero, emits a `fail` row, or disagrees with an oracle
that the benchmark computes itself by more than ORACLE_RTOL relative.
Output rows are compared as numbers, never as CSV bytes.
"""

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

WORKLOADS = ("fock", "collective", "tables")
ORACLE_RTOL = 1e-10

# Fixed sizes: the sizes set the cost, the seed only picks couplings/angles.
GAUSSIAN_N = (1024, 2048, 4096)
WEYL_N = (512, 1024, 2048)
ODLRO_N = (1024, 4096, 16000)
MODEL_II_SITES = 5
ANGLE_RANGE = (0.3, 1.0)
COUPLING_RANGE = (0.5, 1.5)


@dataclass(frozen=True)
class Operation:
    """`run()` returns (exit code, {(metric, n): (value, passed)});
    `oracle()` returns {(metric, n): expected value} or None."""

    label: str
    run: Callable
    oracle: Optional[Callable] = None


# ---------------------------------------------------------------- oracles

def gaussian_oracle(n, alpha, beta):
    """Ground-state <exp{i(alpha S_x - beta S_y)/sqrt(2N)}>: every spin
    contributes cos(sqrt(alpha^2 + beta^2)/sqrt(2N))."""
    return math.cos(math.hypot(alpha, beta) / math.sqrt(2.0 * n)) ** n


def weyl_phase_oracle(n, alpha, beta):
    """arg((cos x cos y - i sin x sin y)^N), x = alpha/sqrt(2N),
    y = beta/sqrt(2N): the per-spin factor of W(alpha,0) W(0,beta)."""
    x, y = alpha / math.sqrt(2.0 * n), beta / math.sqrt(2.0 * n)
    phase = n * math.atan2(-math.sin(x) * math.sin(y),
                           math.cos(x) * math.cos(y))
    return math.remainder(phase, 2.0 * math.pi)


def odlro_ceiling_oracle(n):
    """ODLRO of the ceiling state (S_x-symmetric, <S_x> = 0): N/(2(N-1))."""
    return n / (2.0 * (n - 1))


def model_ii_levels(z):
    """Sorted H eigenvalues of Model II: every subset sum of z_i^2, each
    2^n-fold (the down-spin factor is untouched by H)."""
    n = len(z)
    sums = [sum(z[i] ** 2 for i in range(n) if mask >> i & 1)
            for mask in range(2 ** n)]
    return sorted(s for s in sums for _ in range(2 ** n))


# ---------------------------------------------------------------- checking

def parse_csv(text):
    """{(metric, n): (complex value, passed)} from a susylab CSV report."""
    return {(r["metric"], int(r["n"])):
            (complex(float(r["value_re"]), float(r["value_im"])),
             r["pass"] == "pass")
            for r in csv.DictReader(io.StringIO(text))}


def check_outcome(code, rows, expected):
    """Reasons an operation failed; empty when it passed."""
    reasons = []
    if code != 0:
        reasons.append(f"exit code {code}")
    bad = sorted(k for k, (_, ok) in rows.items() if not ok)
    if bad:
        reasons.append(f"fail rows {bad[:5]}")
    for key, want in sorted((expected or {}).items()):
        if key not in rows:
            reasons.append(f"oracle row {key} missing")
            continue
        got = rows[key][0]
        if abs(got - want) > ORACLE_RTOL * (abs(want) or 1.0):
            reasons.append(f"oracle {key}: {got!r} != {want!r}")
    return reasons


def run_operation(op):
    """(reasons, rows) for one operation; exceptions count as failures."""
    try:
        code, rows = op.run()
    except SystemExit as exc:
        return [f"exit code {exc.code}"], {}
    except Exception as exc:  # any error inside the program is a failure
        return [f"raised {type(exc).__name__}: {exc}"], {}
    try:
        expected = op.oracle() if op.oracle else None
    except Exception as exc:
        return [f"oracle raised {type(exc).__name__}: {exc}"], rows
    return check_outcome(code, rows, expected), rows


# ---------------------------------------------------------------- operations

def cli_op(label, argv, oracle=None):
    def run():
        from susylattice import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--jobs", "1", "--format", "csv", *argv])
        return code, parse_csv(buf.getvalue())

    return Operation(label, run, oracle)


def decompose_op(z):
    """models.build_model_ii(z) then operators.super_decompose(q,
    check=True); reports the paired spectrum and the kernel dimension."""
    n = len(z)

    def run():
        import numpy as np
        from susylattice import models, operators

        dec = operators.super_decompose(models.build_model_ii(z).q,
                                        check=True)
        levels = [e for e, m in dec.paired_spectrum for _ in range(m)]
        rows = {(f"paired_level_{i:04d}", n): (complex(e), True)
                for i, e in enumerate(levels)}
        p0 = np.asarray(getattr(dec.p0, "mat", dec.p0))
        rows[("kernel_dim", n)] = (complex(np.trace(p0)), True)
        return 0, rows

    def oracle():
        levels = model_ii_levels(z)
        kernel = 2 ** n
        exp = {(f"paired_level_{i:04d}", n): complex(e)
               for i, e in enumerate(levels[kernel:])}
        exp[("kernel_dim", n)] = complex(kernel)
        return exp

    return Operation("decompose_model_ii", run, oracle)


def _n_list(ns):
    return ",".join(str(n) for n in ns)


def _uniform(rng, bounds, k):
    return tuple(rng.uniform(*bounds) for _ in range(k))


def inputs(workload, seed):
    """The seeded inputs of a workload; identical for identical seeds."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fock":
        return {"z": _uniform(rng, COUPLING_RANGE, MODEL_II_SITES)}
    if workload == "collective":
        return {"gaussian": _uniform(rng, ANGLE_RANGE, 2),
                "weyl_phase": _uniform(rng, ANGLE_RANGE, 2)}
    if workload == "tables":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload, seed):
    """The ordered operations of one pass of a workload."""
    data = inputs(workload, seed)
    if workload == "fock":
        spectrum_n = MODEL_II_SITES
        return [
            cli_op("verify", ["verify"]),
            cli_op("spectrum_model_ii",
                   ["spectrum", "--model", "model_ii", "--n", str(spectrum_n)],
                   lambda: {(f"spectrum_level_{i:04d}", spectrum_n): complex(v)
                            for i, v in enumerate(
                                model_ii_levels((1.0,) * spectrum_n))}),
            decompose_op(data["z"]),
        ]
    if workload == "collective":
        ga, gb = data["gaussian"]
        wa, wb = data["weyl_phase"]
        return [
            cli_op("sweep_gaussian",
                   ["sweep", "--metric", "gaussian", "--n-list",
                    _n_list(GAUSSIAN_N), "--alpha", repr(ga),
                    "--beta", repr(gb)],
                   lambda: {("gaussian", n):
                            complex(gaussian_oracle(n, ga, gb))
                            for n in GAUSSIAN_N}),
            cli_op("sweep_weyl_phase",
                   ["sweep", "--metric", "weyl_phase", "--n-list",
                    _n_list(WEYL_N), "--alpha", repr(wa), "--beta", repr(wb)],
                   lambda: {("weyl_phase", n):
                            complex(weyl_phase_oracle(n, wa, wb))
                            for n in WEYL_N}),
            cli_op("sweep_odlro_ceiling",
                   ["sweep", "--metric", "odlro", "--state", "ceiling",
                    "--n-list", _n_list(ODLRO_N)],
                   lambda: {("odlro", n): complex(odlro_ceiling_oracle(n))
                            for n in ODLRO_N}),
        ]
    if workload == "tables":
        return [cli_op("tables", ["tables"])]
    raise ValueError(f"unknown workload {workload!r}")



def flatten_rows(label, rows):
    """{"label/metric/n": [re, im]} for the drift comparison."""
    return {f"{label}/{m}/{n}": [v.real, v.imag]
            for (m, n), (v, _) in rows.items()}


def max_drift(values, reference):
    """Largest |value - reference| / max(|reference|, 1) over shared keys;
    keys present on only one side count as infinite drift."""
    worst = 0.0
    for key in set(values) | set(reference):
        if key not in values or key not in reference:
            return math.inf
        got, ref = complex(*values[key]), complex(*reference[key])
        worst = max(worst, abs(got - ref) / max(abs(ref), 1.0))
    return worst


"""Command-line driver: invariant verification, n-sweeps, spectra and the
three-scale table reproduction, emitted as CSV or JSON reports.

Exit codes: 0 all rows pass, 1 at least one failing row, 2 usage error.
Every cell runs on the calling thread.  Reports are deterministic:
identical configs produce byte-identical CSV bodies (rows are sorted by
(metric, n)).  --jobs is accepted for compatibility and has no effect.
"""

import argparse
import functools
import math
import sys
from types import SimpleNamespace

import numpy as np

from . import dicke, limits, models, operators
from .reporting import Report, check_row, check_rows, load_tolerances

FLOW_POINTS = (0.1, 0.7, np.pi / 2, 2.0)


def _indicator(metric, n, ok, provenance):
    """Boolean check encoded as a 1/0 row against target 1."""
    return check_row(metric, n, 1.0 if ok else 0.0, 1.0, provenance, 0.5)


# ---------------------------------------------------------------- verify

def _verify_baby(tol):
    inst = models.build_baby()
    a = operators.sparse_annihilators(inst.spec.modes)[0]
    s = np.array(FLOW_POINTS)
    gaps = np.linalg.norm(operators.unitary_flow(inst.g_alpha(0.6), s, a)
                          - models.baby_flow_closed(s, 0.6), 2, axis=(-2, -1))
    return [check_row(f"baby_flow_s={p:.6g}", 1, gap, 0, "PAPER",
                      tol["identity"]) for p, gap in zip(FLOW_POINTS, gaps)]


def _decomposition_rows(label, inst, tol):
    """The nilpotency row, then the decomposition rows; a Q that fails
    nilpotency has no decomposition, so its row comes alone."""
    n = inst.spec.n_sites
    rows = [check_row(f"{label}_nilpotency", n,
                      operators.nilpotency_residual(inst.q), 0, "PAPER",
                      tol["machine"])]
    if not rows[0].passed:
        return rows
    res = operators.decomposition_residuals(
        operators.super_decompose(inst.q, check=False))
    return rows + [
        check_row(f"{label}_car_completeness", n, res["car"], 0, "PAPER",
                  tol["identity"]),
        _indicator(f"{label}_even_multiplicity", n, not res["odd"], "PAPER"),
        _indicator(f"{label}_pm_symmetry", n,
                   res["pairing"] <= operators.PAIRING_TOL, "PAPER"),
        check_row(f"{label}_g_square", n, res["g_square"], 0, "PAPER",
                  tol["identity"])]


def _verify_model_i(tol):
    z = (1.0, 2.0, 2.0)
    inst = models.build_model_i(z)
    rows = _decomposition_rows("model_i", inst, tol)
    aa = np.stack([a.toarray() for a in
                   operators.sparse_annihilators(inst.spec.modes)])
    # the last flow point, s = pi/4, is the non-locality witness's
    s = np.array(FLOW_POINTS + (np.pi / 4,))
    flows = operators.unitary_flow(inst.g_alpha(0.0), s, aa)
    worst = max(np.linalg.norm(flow - models.model_i_flow_closed(k, s, inst),
                               2, axis=(-2, -1)).max()
                for k, flow in enumerate(flows))
    rows.append(check_row("model_i_flow", 3, worst, 0, "PAPER",
                          tol["identity"]))
    cross = np.linalg.norm(operators.bracket(flows[0][-1], aa[1]), 2)
    rows.append(_indicator("model_i_nonlocal", 3, cross > 1e-3, "PAPER"))
    scalar = sum(x * x for x in z) * np.eye(inst.h.shape[0], dtype=complex)
    rows.append(check_row("model_i_h_scalar", 3,
                          np.linalg.norm(inst.h.toarray() - scalar, 2), 0,
                          "PAPER", tol["machine"]))
    return rows


def _verify_model_ii(tol):
    z = (1.0, 1.0)
    inst = models.build_model_ii(z)
    rows = _decomposition_rows("model_ii", inst, tol)
    ops = np.stack([a.toarray() for a in
                    operators.sparse_annihilators(inst.spec.modes)])
    s = np.array(FLOW_POINTS)
    flows = operators.unitary_flow(inst.g_alpha(0.0), s, ops)
    worst = 0.0
    for k in range(2):
        for flavor, c in enumerate(models.model_ii_flow_closed(k, s, inst)):
            brute = flows[inst.spec.mode_index(k, flavor)]
            worst = max(worst, np.linalg.norm(brute - c, 2,
                                              axis=(-2, -1)).max())
    rows.append(check_row("model_ii_flow", 2, worst, 0, "PAPER",
                          tol["identity"]))
    kern = int(np.sum(np.abs(operators.diagonal_eigenvalues(inst.h)) < 1e-9))
    rows.append(check_row("model_ii_kernel_dim", 2, kern, 4, "DERIVED", 0.5))
    return rows


def _verify_model_iii(tol):
    inst, pair = models.build_model_iii_fock(2)
    rows = _decomposition_rows("model_iii", inst, tol)
    eta, p = pair.eta_n, pair.pair_projector
    car = operators.bracket(eta, eta.conj().T, "anticommutator").toarray()
    comm = operators.bracket(pair.m_n, pair.eta_n)
    sector = p @ (inst.h - models.hss_pair_expansion(pair)) @ p
    for metric, residual, provenance in (
            ("eta_car", car - np.eye(eta.shape[0]), "PAPER"),
            ("m_eta_commute", comm.toarray(), "PAPER"),
            ("expansion_pair_sector", sector.toarray(), "DERIVED")):
        rows.append(check_row(f"model_iii_{metric}", 2,
                              np.linalg.norm(residual, 2), 0, provenance,
                              tol["identity"]))
    m_norm = np.linalg.norm(pair.m_n.toarray(), 2)
    n = 2
    exact = float(np.sqrt((n // 2 + 1) * (n - n // 2) / n))
    rows.append(check_row("model_iii_m_norm", 2, m_norm, exact, "DERIVED",
                          tol["identity"]))
    return rows


def _verify_counterexample(tol):
    q = models.hopping_supercharge(3, (1.0, 1.0, 1.0), periodic=True)
    ok, res = models.nilpotency_check(q)
    rows = [_indicator("counterexample_not_nilpotent", 3, not ok, "PAPER"),
            check_row("counterexample_residual", 3, res,
                      1.0 / (2.0 * np.sqrt(3.0)), "DERIVED", tol["spectral"])]
    return rows


def _verify_dicke(tol):
    def cross_rep(n):
        fock = models.model_iii_symmetric_sector_spectrum(n)
        dvals = dicke.hss_eigenvalues(dicke.collective_ops(n))
        return float(np.abs(np.sort(fock) - dvals).max())

    rows = [check_row("dicke_cross_rep", n, v, 0, "DERIVED", tol["spectral"])
            for n, v in limits.sweep(cross_rep, (2, 3, 4))]
    for k, metric in enumerate(("ceiling_law_psi1", "ceiling_law")):
        rows += [check_row(metric, n, v, n * (n + 2), "PAPER", 0)
                 for n, v in limits.sweep(
                     lambda n: dicke.ceiling_law_exact(n)[k], (4, 100, 1000))]
    ops = dicke.collective_ops(8)
    psi2 = dicke.ceiling_state(ops)
    rows += [check_row(f"{label}_overlap_deficit", 8,
                       1.0 - abs(dicke.overlap(state, psi2)), 0, "PAPER",
                       tol["overlap"])
             for label, state in (
                 ("ceiling_integral", dicke.ceiling_state_integral(ops)),
                 ("coherent_g1",
                  dicke.coherent_superposition(ops, lambda a: 1.0)))]
    ops40 = dicke.collective_ops(40)
    ov = abs(dicke.overlap(dicke.bogoliubov_state(ops40, 0.3),
                           dicke.bogoliubov_state(ops40, 0.7)))
    rows.append(check_row("bogoliubov_overlap", 40, ov,
                          abs(np.cos(0.4)) ** 40, "DERIVED", tol["identity"]))
    for prefix, residuals in (
            ("eom", limits.eom_identity_residuals(6)),
            ("super", limits.super_identity_residuals(6, 0.9))):
        rows += [check_row(f"{prefix}_{name}", 6, val, 0, "PAPER",
                           tol["identity"]) for name, val in residuals.items()]
    return rows


def _verify_bcs(tol):
    """||H_BCS + H_SS|| = ||eta eta^dag S_z|| / N = 1 exactly."""
    return [check_row(metric, n, models.build_bcs(n, rep).diff_norm, 1.0,
                      provenance, tol["identity"])
            for metric, n, rep, provenance in (
                ("bcs_fock_defect", 2, "fock", "TRIVIAL"),
                ("bcs_dicke_bounded", 4, "dicke", "PAPER"))]


VERIFY_SUITES = {
    "baby": _verify_baby,
    "model_i": _verify_model_i,
    "model_ii": _verify_model_ii,
    "model_iii": _verify_model_iii,
    "counterexample": _verify_counterexample,
    "dicke": _verify_dicke,
    "bcs": _verify_bcs,
}


def run_verify(args, tol):
    if args.model is not None and args.model not in VERIFY_SUITES:
        raise UsageError(f"unknown model {args.model!r}; choose from "
                         f"{sorted(VERIFY_SUITES)}")
    names = [args.model] if args.model else list(VERIFY_SUITES)
    report = Report(config_echo=_echo(args))
    for name in names:
        report.extend(VERIFY_SUITES[name](tol))
    return report


# ---------------------------------------------------------------- sweep

# --state label -> DickeOperators -> DickeState; None: the metric reads none
_STATE_OF = {
    None: lambda ops: None,
    "ground": dicke.ground_state,
    "ceiling": dicke.ceiling_state,
    "bogoliubov": lambda ops: dicke.bogoliubov_state(ops, 0.0),
}


def _limit(target, tol_key, provenance):
    """Row builder: per-n rows against target(args) plus the
    extrapolated-limit row."""
    def rows(key, args, tol, pts):
        fit = (f"{key[0]}_fit_limit", 0, limits.extrapolate(pts).limit)
        return [check_row(m, n, v, target(args), provenance, tol[tol_key])
                for m, n, v in [(key[0], n, v) for n, v in pts] + [fit]]
    return rows


def _meso_rows(divergent):
    """Row builder: the per-n variances, then the divergence rows where
    the variance diverges (ceiling) or the boundedness row elsewhere."""
    def rows(key, args, tol, pts):
        out = [check_row(f"meso_variance[{key[1]}]", n, v, v, "DERIVED", 0.0)
               for n, v in pts]
        slope, grows = limits.variance_divergence(pts)
        if not divergent:
            return out + [_indicator("meso_variance_bounded", 0, not grows,
                                     "DERIVED")]
        return out + [check_row("meso_variance_slope", 0, slope, 0.5,
                                "DERIVED", tol["slope"]),
                      _indicator("meso_variance_divergent", 0, grows,
                                 "PAPER")]
    return rows


def _spectral_rows(key, args, tol, pts):
    target = float(limits.witten_limit(64).bulk_levels()[3])
    rows = [check_row("hss_level_6", n, v, target, "DERIVED",
                      abs(target) * 0.05 + 2.5 / n) for n, v in pts]
    fit = limits.extrapolate(pts)
    rows.append(check_row("spectral_rate", 0, fit.rate, 1.0, "DERIVED",
                          tol["rate"]))
    rows.append(check_row("spectral_limit", 0, fit.limit, target, "DERIVED",
                          tol["gaussian"]))
    return rows


def _bs_super_rows(key, args, tol, pts):
    rows = [check_row("bs_eta_prime_growth", n, v, 0.5 * np.sqrt(n),
                      "DERIVED", tol["identity"]) for n, v in pts]
    rows.append(check_row("bs_super_exponent", 0,
                          limits.power_growth_fit(pts).rate, 0.5, "DERIVED",
                          tol["slope"]))
    return rows


def _isometry_rows(key, args, tol, pts):
    rows = [check_row("isometry", n, v, 1.0 + 2.0 / n, "DERIVED",
                      tol["spectral"]) for n, v in pts]
    rows.append(check_row("isometry_limit", 0, limits.extrapolate(pts).limit,
                          1.0, "PAPER", tol["isometry"]))
    return rows


# the limit exp(-r^2/2) of both BS(0) axes
_bs_gaussian = _limit(lambda a: float(np.exp(-a.r * a.r / 2.0)), "gaussian",
                      "PAPER")

# (metric, --state) -> (probe (ops, state, args) -> value at one n,
# row builder (key, args, tol, swept points) -> rows); the state None marks
# a metric that reads no --state.  The probes look `limits` up per call.
SWEEP = {
    ("gaussian", "ground"): (
        lambda o, s, a: limits.fluctuation_expectation(o, s, a.alpha, a.beta),
        _limit(lambda a: limits.gaussian_target(a.alpha, a.beta), "gaussian",
               "PAPER")),
    ("bs_gaussian_y", None): (
        lambda o, s, a: limits.bs_gaussian_probe(o, a.r, "y"), _bs_gaussian),
    ("bs_gaussian_z", None): (
        lambda o, s, a: limits.bs_gaussian_probe(o, a.r, "z"), _bs_gaussian),
    ("weyl_phase", "ground"): (
        lambda o, s, a: limits.weyl_relation_probe(o, s, a.alpha, a.beta)[1],
        _limit(lambda a: math.remainder(-a.alpha * a.beta / 2.0, 2 * math.pi),
               "slope", "DERIVED")),
    ("odlro", "ground"): (lambda o, s, a: limits.odlro(o, s),
                          _limit(lambda a: 0.0, "machine", "PAPER")),
    ("odlro", "ceiling"): (lambda o, s, a: limits.odlro(o, s),
                           _limit(lambda a: 0.5, "odlro", "PAPER")),
    ("odlro", "bogoliubov"): (lambda o, s, a: limits.odlro(o, s),
                              _limit(lambda a: 0.0, "machine", "PAPER")),
    ("meso_variance", "ground"): (
        lambda o, s, a: limits.mesoscopic_variance(o, s), _meso_rows(False)),
    ("meso_variance", "ceiling"): (
        lambda o, s, a: limits.mesoscopic_variance(o, s), _meso_rows(True)),
    ("meso_variance", "bogoliubov"): (
        lambda o, s, a: limits.mesoscopic_variance(o, s), _meso_rows(False)),
    ("spectral", None): (lambda o, s, a: limits.spectral_level(o),
                         _spectral_rows),
    ("bs_super", None): (lambda o, s, a: limits.bs_eta_prime(o, a.alpha),
                         _bs_super_rows),
    ("isometry", "ceiling"): (lambda o, s, a: limits.ceiling_isometry(o, s),
                              _isometry_rows),
}


def sweep_key(metric, state):
    """The SWEEP key of `--metric`, `--state`.  A left-out state (None) is
    `ground` where the metric reads it, else the metric's one state; a
    state the metric does not read is a UsageError."""
    states = [s for m, s in SWEEP if m == metric]
    if not states:
        raise UsageError(f"unknown metric {metric!r}; choose from "
                         f"{sorted({m for m, _ in SWEEP})}")
    if state is None:
        state = "ground" if "ground" in states else states[0]
    if state not in states:
        valid = ("no --state" if states == [None]
                 else "--state " + " or ".join(states))
        raise UsageError(f"metric {metric!r} takes {valid}, got --state "
                         f"{state}")
    return metric, state


def _cell(key, args):
    """The one-n cell n -> probe(ops, state, args) of the SWEEP entry."""
    probe, make_state = SWEEP[key][0], _STATE_OF[key[1]]

    def cell(n):
        ops = dicke.collective_ops(n)
        return probe(ops, make_state(ops), args)
    return cell


def run_sweep(args, tol):
    key = sweep_key(args.metric, args.state)
    if len(args.n_list) < 3:
        raise UsageError("sweep needs at least 3 n-values for the fit")
    args.state = key[1]         # the config echo records the resolved state
    pts = limits.sweep(_cell(key, args), args.n_list)
    report = Report(config_echo=_echo(args))
    report.extend(SWEEP[key][1](key, args, tol, pts))
    return report


# ---------------------------------------------------------------- spectrum

# --model -> n -> the ascending levels; the builders are looked up per call
SPECTRA = {
    "dicke": lambda n: dicke.hss_eigenvalues(dicke.collective_ops(n)),
    "witten": lambda n: limits.witten_limit(n).bulk_levels(),
    "model_i": lambda n: operators.diagonal_eigenvalues(
        models.build_model_i((1.0,) * n).h),
    "model_ii": lambda n: operators.diagonal_eigenvalues(
        models.build_model_ii((1.0,) * n).h),
    "model_iii": lambda n: models.model_iii_symmetric_sector_spectrum(n),
}


def run_spectrum(args, tol):
    if args.levels is not None and args.levels < 1:
        raise UsageError(f"--levels must be positive, got {args.levels}")
    if args.model not in SPECTRA:
        raise UsageError(f"unknown spectrum model {args.model!r}; choose "
                         f"from {sorted(SPECTRA)}")
    report = Report(config_echo=_echo(args))
    vals = np.asarray(SPECTRA[args.model](args.n), dtype=float)[:args.levels]
    width = max(4, len(str(len(vals) - 1)))   # rows sort as strings
    report.add_block(check_rows(
        [f"spectrum_level_{i:0{width}d}" for i in range(len(vals))], args.n,
        vals, vals, "DERIVED", 0.0))
    return report


# ---------------------------------------------------------------- tables

def _table_inputs(args):
    """What more than one tables cell reads, built once per run."""
    ops, ops256 = dicke.collective_ops(200), dicke.collective_ops(256)
    ground, ceiling = dicke.ground_state(ops), dicke.ceiling_state(ops)
    return SimpleNamespace(
        ops=ops, ops256=ops256, ground=ground, ceiling=ceiling,
        szp={s.label: limits.sz_prime_apply(ops, s.vector)
             for s in (ground, ceiling)},
        drift=limits.bs_free_evolution(ops256, 1.0),
        meso=limits.sweep(_cell(("meso_variance", "ceiling"), args),
                          (50, 100, 200)),
        growth=limits.sweep(lambda n: limits.bs_eta_prime(
            ops256 if n == 256 else dicke.collective_ops(n)), (16, 64, 256)))


def _triple_distance(x, state, want):
    """L1 distance of the macroscopic triple of `state` from `want`."""
    triple = limits.macroscopic_triple(x.ops, state)
    return sum(abs(t - w) for t, w in zip(triple, want))


def _ceiling_energy_variance(x):
    """<H^2> - <H>^2 of H_SS in the ceiling state, H applied twice."""
    h, v = {0: dicke.hss_diagonal(x.ops)}, x.ceiling.vector
    hv = operators.apply_diagonals(h, v)
    e1 = np.real(np.vdot(v, hv))
    return np.real(np.vdot(v, operators.apply_diagonals(h, hv))) - e1 * e1


def _dictionary_residual(x):
    sup = limits.super_identity_residuals(8, 0.0)
    return sup["eta_prime"] + sup["sz_prime"]


# BS(0) restricted to (site 1, Clifford mode): (1, 1)/sqrt 2 x (0, 1)
_BS_SITE1 = np.kron(np.ones(2) / np.sqrt(2.0), (0.0, 1.0))

# metric -> (n, value(_table_inputs), target, tolerance key, provenance):
# one three-scale table cell, fit rows at n = 0.  t1: time evolution, t2:
# supertransformation; gs/bs/cs: ground, Bogoliubov, ceiling state.
TABLE_CELLS = {
    # S_z-dot = -i[S_z, H_SS] vanishes as an operator
    "t1_gs_local_stationary": (
        6, lambda x: limits.eom_identity_residuals(6)["sz_dot"], 0,
        "identity", "TRIVIAL"),
    "t1_gs_meso_phase_slope": (
        256, lambda x: abs(limits.gs_phase_slope(x.ops256)), 1, "slope",
        "PAPER"),
    "t1_gs_macro_triple": (
        200, lambda x: _triple_distance(x, x.ground, (0, 0, -1)), 0,
        "machine", "PAPER"),
    "t1_bs_local_rotation": (
        1, lambda x: limits.local_rotation_check(0.7), 0, "spectral", "PAPER"),
    "t1_bs_meso_free_growth": (
        256, lambda x: x.drift[0], 1, "growth", "DERIVED"),
    "t1_bs_meso_p_constant": (
        256, lambda x: abs(x.drift[1]), 0, "identity", "PAPER"),
    # the macroscopic triple doubles as the constancy witness
    "t1_bs_macro_triple": (
        200, lambda x: _triple_distance(x, dicke.bogoliubov_state(x.ops, 0.0),
                                        (1, 0, 0)), 0, "identity", "PAPER"),
    "t1_cs_local_stationary": (
        200, _ceiling_energy_variance, 0, "spectral", "DERIVED"),
    "t1_cs_meso_divergence_slope": (
        0, lambda x: limits.variance_divergence(x.meso)[0], 0.5, "slope",
        "DERIVED"),
    # sigma_z'^{(1)} lives on (site 1, Clifford mode): norm exactly 2/sqrt N
    "t2_gs_local_sqrtn_norm": (
        256, lambda x: np.sqrt(256) * limits.local_super_derivative_norms(256),
        2, "identity", "DERIVED"),
    "t2_gs_meso_dictionary": (
        8, _dictionary_residual, 0, "identity", "PAPER"),
    "t2_gs_macro_vanishing": (
        200, lambda x: abs(np.vdot(x.ground.vector, x.szp["ground"])) / 200, 0,
        "identity", "PAPER"),
    "t2_bs_local_finite": (
        256, lambda x: abs(np.vdot(_BS_SITE1, limits.local_super_derivative(
            256, "x") @ _BS_SITE1)), 0, "identity", "PAPER"),
    "t2_bs_meso_growth_exponent": (
        0, lambda x: limits.power_growth_fit(x.growth).rate, 0.5, "slope",
        "PAPER"),
    "t2_bs_macro_eta_prime": (
        256, lambda x: abs(x.growth[-1][1]) / np.sqrt(x.growth[-1][0]), 0.5,
        "identity", "DERIVED"),
    # ||S_z' psi2|| = sqrt(N+2) exactly: sqrt(N) growth with coefficient 1
    "t2_cs_meso_divergent_norm": (
        200, lambda x: float(np.linalg.norm(x.szp["ceiling"]))
        / np.sqrt(200), np.sqrt(1.0 + 2.0 / 200), "identity", "DERIVED"),
    "t2_cs_macro_vanishing": (
        200, lambda x: abs(np.vdot(x.ceiling.vector, x.szp["ceiling"]))
        / 200, 0, "identity", "DERIVED"),
}


def run_tables(args, tol):
    """One row per TABLE_CELLS entry."""
    x = _table_inputs(args)
    report = Report(config_echo=_echo(args))
    report.extend(check_row(metric, n, value(x), target, provenance, tol[key])
                  for metric, (n, value, target, key, provenance)
                  in TABLE_CELLS.items())
    return report


# ---------------------------------------------------------------- driver

class UsageError(Exception):
    pass


def _echo(args):
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in sorted(vars(args).items()) if v is not None}


def _n_list(text):
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad n-list {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("n-list entries must be positive")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError("n-list must strictly increase")
    return values


def _finite_float(text):
    """An argparse float that is neither infinite nor nan."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


@functools.cache
def build_parser():
    """Built once per process; `main` looks run_<command> up per call."""
    parser = argparse.ArgumentParser(
        prog="susylab",
        description="Exact laboratory for supersymmetric fermion lattices.")
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--tol-file", help="JSON tolerance overrides")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("--model", help="restrict to one suite")

    p_sweep = sub.add_parser("sweep", help="n-sweep a limit probe")
    p_sweep.add_argument("--metric", required=True)
    p_sweep.add_argument("--n-list", type=_n_list, required=True)
    p_sweep.add_argument("--alpha", type=_finite_float, default=1.0)
    p_sweep.add_argument("--beta", type=_finite_float, default=1.0)
    p_sweep.add_argument("--r", type=_finite_float, default=1.0)
    p_sweep.add_argument("--state", choices=sorted(filter(None, _STATE_OF)))

    p_spec = sub.add_parser("spectrum", help="emit model spectra")
    p_spec.add_argument("--model", required=True)
    p_spec.add_argument("--n", type=int, required=True)
    p_spec.add_argument("--levels", type=int)

    sub.add_parser("tables", help="three-scale table surrogates")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be positive, got {args.jobs}")
    try:
        tol = load_tolerances(args.tol_file)
        report = globals()[f"run_{args.command}"](args, tol)
        body = report.render(args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(body)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(body)
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())

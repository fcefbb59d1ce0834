"""Command-line driver: invariant verification, n-sweeps, spectra and the
three-scale table reproduction, emitted as CSV or JSON reports.

Exit codes: 0 all rows pass, 1 at least one failing row, 2 usage error.
Reports are deterministic: identical configs produce byte-identical CSV
bodies regardless of the --jobs setting (rows are sorted by (metric, n)).
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import dicke, limits, models, operators
from .reporting import Report, Row, check_row, load_tolerances

FLOW_POINTS = (0.1, 0.7, np.pi / 2, 2.0)


def _indicator(metric, n, ok, provenance):
    """Boolean check encoded as a 1/0 row against target 1."""
    return check_row(metric, n, 1.0 if ok else 0.0, 1.0, provenance, 0.5)


def _residual(metric, n, value, tol, provenance, target=0.0):
    return check_row(metric, n, value, target, provenance, tol)


# ---------------------------------------------------------------- verify

def _verify_baby(tol):
    rows = []
    inst = models.build_baby()
    a = operators.sparse_annihilators(inst.spec.modes)[0]
    for s in FLOW_POINTS:
        g = inst.g_alpha(0.6)
        brute = operators.unitary_flow(g, s, a)
        closed = models.baby_flow_closed(s, 0.6)
        rows.append(_residual(f"baby_flow_s={s:.6g}", 1,
                              np.linalg.norm(brute - closed, 2),
                              tol["identity"], "PAPER"))
    return rows


def _decomposition_rows(label, inst, tol):
    rows = []
    n = inst.spec.n_sites
    dec = operators.super_decompose(inst.q, check=False)
    rows.append(_residual(f"{label}_nilpotency", n,
                          operators.nilpotency_residual(inst.q),
                          tol["machine"], "PAPER"))
    rows.append(_residual(f"{label}_car_completeness", n,
                          operators.car_residual(dec),
                          tol["identity"], "PAPER"))
    even = all(m % 2 == 0 for _, m in dec.paired_spectrum)
    rows.append(_indicator(f"{label}_even_multiplicity", n, even, "PAPER"))
    try:
        operators.verify_decomposition(dec)
        ok = True
    except ValueError:
        ok = False
    rows.append(_indicator(f"{label}_pm_symmetry", n, ok, "PAPER"))
    g = inst.g_alpha(1.1)
    rows.append(_residual(f"{label}_g_square", n,
                          np.linalg.norm((g @ g - inst.h).toarray(), 2),
                          tol["identity"], "PAPER"))
    return rows


def _verify_model_i(tol):
    z = (1.0, 2.0, 2.0)
    inst = models.build_model_i(z)
    rows = _decomposition_rows("model_i", inst, tol)
    aa = operators.sparse_annihilators(inst.spec.modes)
    g = inst.g_alpha(0.0)
    worst = 0.0
    for s in FLOW_POINTS:
        for k in range(len(z)):
            brute = operators.unitary_flow(g, s, aa[k])
            closed = models.model_i_flow_closed(k, s, z)
            worst = max(worst, np.linalg.norm(brute - closed, 2))
    rows.append(_residual("model_i_flow", 3, worst, tol["identity"], "PAPER"))
    # non-locality witness at s = pi/4
    moved = operators.unitary_flow(g, np.pi / 4, aa[0])
    cross = np.linalg.norm(operators.bracket(moved, aa[1]), 2)
    rows.append(_indicator("model_i_nonlocal", 3, cross > 1e-3, "PAPER"))
    scalar = sum(x * x for x in z) * np.eye(inst.h.shape[0], dtype=complex)
    rows.append(_residual("model_i_h_scalar", 3,
                          np.linalg.norm(inst.h.toarray() - scalar, 2),
                          tol["machine"], "PAPER"))
    return rows


def _verify_model_ii(tol):
    z = (1.0, 1.0)
    inst = models.build_model_ii(z)
    rows = _decomposition_rows("model_ii", inst, tol)
    g = inst.g_alpha(0.0)
    ops = operators.sparse_annihilators(inst.spec.modes)
    worst = 0.0
    for s in FLOW_POINTS:
        for k in range(2):
            closed = models.model_ii_flow_closed(k, s, z)
            for flavor, c in enumerate(closed):
                a = ops[inst.spec.mode_index(k, flavor)]
                brute = operators.unitary_flow(g, s, a)
                worst = max(worst, np.linalg.norm(brute - c, 2))
    rows.append(_residual("model_ii_flow", 2, worst, tol["identity"], "PAPER"))
    kern = int(np.sum(np.abs(operators.diagonal_eigenvalues(inst.h)) < 1e-9))
    rows.append(check_row("model_ii_kernel_dim", 2, kern, 4, "DERIVED", 0.5))
    return rows


def _verify_model_iii(tol):
    inst, pair = models.build_model_iii_fock(2)
    rows = _decomposition_rows("model_iii", inst, tol)
    eta = pair.eta_n
    car = operators.bracket(eta, eta.conj().T, "anticommutator").toarray()
    rows.append(_residual("model_iii_eta_car", 2,
                          np.linalg.norm(car - np.eye(eta.shape[0]), 2),
                          tol["identity"], "PAPER"))
    comm = operators.bracket(pair.m_n, pair.eta_n)
    rows.append(_residual("model_iii_m_eta_commute", 2,
                          np.linalg.norm(comm.toarray(), 2), tol["identity"],
                          "PAPER"))
    p = pair.pair_projector
    sector = p @ (inst.h - models.hss_pair_expansion(pair)) @ p
    rows.append(_residual("model_iii_expansion_pair_sector", 2,
                          np.linalg.norm(sector.toarray(), 2),
                          tol["identity"], "DERIVED"))
    m_norm = np.linalg.norm(pair.m_n.toarray(), 2)
    n = 2
    exact = float(np.sqrt((n // 2 + 1) * (n - n // 2) / n))
    rows.append(_residual("model_iii_m_norm", 2, m_norm, tol["identity"],
                          "DERIVED", target=exact))
    return rows


def _verify_counterexample(tol):
    q = models.hopping_supercharge(3, (1.0, 1.0, 1.0), periodic=True)
    ok, res = models.nilpotency_check(q)
    rows = [_indicator("counterexample_not_nilpotent", 3, not ok, "PAPER"),
            _residual("counterexample_residual", 3, res, tol["spectral"],
                      "DERIVED", target=1.0 / (2.0 * np.sqrt(3.0)))]
    return rows


def _verify_dicke(tol):
    def cross_rep(n):
        fock = models.model_iii_symmetric_sector_spectrum(n)
        dvals = dicke.hss_eigenvalues(dicke.collective_ops(n))
        return float(np.abs(np.sort(fock) - dvals).max())

    rows = [_residual("dicke_cross_rep", n, v, tol["spectral"], "DERIVED")
            for n, v in limits.sweep(cross_rep, (2, 3, 4))]
    for k, metric in enumerate(("ceiling_law_psi1", "ceiling_law")):
        rows += [check_row(metric, n, v, n * (n + 2), "PAPER", 0)
                 for n, v in limits.sweep(
                     lambda n: dicke.ceiling_law_exact(n)[k], (4, 100, 1000))]
    ops = dicke.collective_ops(8)
    _, psi2 = dicke.ceiling_state_ladder(ops)
    integral = dicke.ceiling_state_integral(ops)
    rows.append(_residual("ceiling_integral_overlap_deficit", 8,
                          1.0 - abs(dicke.overlap(integral, psi2)),
                          tol["overlap"], "PAPER"))
    coh = dicke.coherent_superposition(ops, lambda a: 1.0)
    rows.append(_residual("coherent_g1_overlap_deficit", 8,
                          1.0 - abs(dicke.overlap(coh, psi2)),
                          tol["overlap"], "PAPER"))
    ops40 = dicke.collective_ops(40)
    ov = abs(dicke.overlap(dicke.bogoliubov_state(ops40, 0.3),
                           dicke.bogoliubov_state(ops40, 0.7)))
    rows.append(_residual("bogoliubov_overlap", 40, ov, tol["identity"],
                          "DERIVED", target=abs(np.cos(0.4)) ** 40))
    for name, val in limits.eom_identity_residuals(6).items():
        rows.append(_residual(f"eom_{name}", 6, val, tol["identity"],
                              "PAPER"))
    for name, val in limits.super_identity_residuals(6, 0.9).items():
        rows.append(_residual(f"super_{name}", 6, val, tol["identity"],
                              "PAPER"))
    return rows


def _verify_bcs(tol):
    rows = []
    # ||H_BCS + H_SS|| = ||eta eta^dag S_z|| / N = 1 exactly
    bcs = models.build_bcs(2, "fock")
    rows.append(_residual("bcs_fock_defect", 2, bcs.diff_norm,
                          tol["identity"], "TRIVIAL", target=1.0))
    bcs4 = models.build_bcs(4, "dicke")
    rows.append(_residual("bcs_dicke_bounded", 4, bcs4.diff_norm,
                          tol["identity"], "PAPER", target=1.0))
    return rows


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
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for rows in pool.map(lambda nm: VERIFY_SUITES[nm](tol), names):
            report.extend(rows)
    return report


# ---------------------------------------------------------------- sweep

# --state label -> the map from DickeOperators to that DickeState
STATES = {
    "ground": dicke.ground_state,
    "ceiling": lambda ops: dicke.ceiling_state_ladder(ops)[1],
    "bogoliubov": lambda ops: dicke.bogoliubov_state(ops, 0.0),
}


def _state_cell(label, probe):
    """The one-n cell n -> probe(ops, state) in the `label` state."""
    def cell(n):
        ops = dicke.collective_ops(n)
        return probe(ops, STATES[label](ops))
    return cell


def _limit_rows(metric, pts, target, tolerance, provenance):
    """Per-n rows against the target plus the extrapolated-limit row."""
    rows = [check_row(metric, n, v, target, provenance, tolerance)
            for n, v in pts]
    fit = limits.extrapolate(pts)
    rows.append(check_row(f"{metric}_fit_limit", 0, fit.limit, target,
                          provenance, tolerance))
    return rows


def _gaussian_cell(args):
    params = limits.FluctuationParams(args.alpha, args.beta)
    return _state_cell(args.state, lambda ops, state:
                       limits.fluctuation_expectation(ops, state, params))


def _gaussian_rows(args, tol, pts):
    return _limit_rows("gaussian", pts,
                       limits.gaussian_target(args.alpha, args.beta),
                       tol["gaussian"], "PAPER")


def _bs_gaussian(axis):
    def cell(args):
        return lambda n: limits.bs_gaussian_probe(dicke.collective_ops(n),
                                                  args.r, axis)

    def rows(args, tol, pts):
        return _limit_rows(f"bs_gaussian_{axis}", pts,
                           float(np.exp(-args.r * args.r / 2.0)),
                           tol["gaussian"], "PAPER")
    return cell, rows


def _weyl_phase_cell(args):
    def probe(ops, state):
        return limits.weyl_relation_probe(ops, state, args.alpha, args.beta)[1]
    return _state_cell(args.state, probe)


def _weyl_phase_rows(args, tol, pts):
    return _limit_rows("weyl_phase", pts, -args.alpha * args.beta / 2.0,
                       tol["slope"], "DERIVED")


def _odlro_rows(args, tol, pts):
    if args.state == "ceiling":
        return _limit_rows("odlro", pts, 0.5, tol["odlro"], "PAPER")
    return _limit_rows("odlro", pts, 0.0, tol["machine"], "PAPER")


def _meso_variance_rows(args, tol, pts):
    rows = [check_row(f"meso_variance[{args.state}]", n, v, v, "DERIVED",
                      0.0) for n, v in pts]
    slope, divergent = limits.variance_divergence(pts)
    if args.state == "ceiling":
        rows.append(check_row("meso_variance_slope", 0, slope, 0.5,
                              "DERIVED", tol["slope"]))
        rows.append(_indicator("meso_variance_divergent", 0, divergent,
                               "PAPER"))
    else:
        rows.append(_indicator("meso_variance_bounded", 0, not divergent,
                               "DERIVED"))
    return rows


def _spectral_rows(args, tol, pts):
    target = float(limits.witten_limit(64).bulk_levels()[3])
    rows = [check_row("hss_level_6", n, v, target, "DERIVED",
                      abs(target) * 0.05 + 2.5 / n) for n, v in pts]
    fit = limits.extrapolate(pts)
    rows.append(check_row("spectral_rate", 0, fit.rate, 1.0, "DERIVED",
                          tol["rate"]))
    rows.append(check_row("spectral_limit", 0, fit.limit, target, "DERIVED",
                          tol["gaussian"]))
    return rows


def _bs_super_rows(args, tol, pts):
    rows = [check_row("bs_eta_prime_growth", n, v, 0.5 * np.sqrt(n),
                      "DERIVED", tol["identity"]) for n, v in pts]
    rows.append(check_row("bs_super_exponent", 0,
                          limits.power_growth_fit(pts).rate, 0.5, "DERIVED",
                          tol["slope"]))
    return rows


def _isometry_cell(args):
    return _state_cell("ceiling", lambda ops, state:
                       limits.macroscopic_probe(ops, state)["isometry"])


def _isometry_rows(args, tol, pts):
    rows = [check_row("isometry", n, v, 1.0 + 2.0 / n, "DERIVED",
                      tol["spectral"]) for n, v in pts]
    rows.append(check_row("isometry_limit", 0, limits.extrapolate(pts).limit,
                          1.0, "PAPER", tol["isometry"]))
    return rows


# metric -> (args -> one-n cell, (args, tol, swept points) -> rows)
SWEEP_METRICS = {
    "gaussian": (_gaussian_cell, _gaussian_rows),
    "bs_gaussian_y": _bs_gaussian("y"),
    "bs_gaussian_z": _bs_gaussian("z"),
    "weyl_phase": (_weyl_phase_cell, _weyl_phase_rows),
    "odlro": (lambda args: _state_cell(args.state, limits.odlro),
              _odlro_rows),
    "meso_variance": (
        lambda args: _state_cell(args.state, limits.mesoscopic_variance),
        _meso_variance_rows),
    "spectral": (lambda args: limits.spectral_level, _spectral_rows),
    "bs_super": (lambda args: lambda n: limits.bs_eta_prime(n, args.alpha),
                 _bs_super_rows),
    "isometry": (_isometry_cell, _isometry_rows),
}


def run_sweep(args, tol):
    if args.metric not in SWEEP_METRICS:
        raise UsageError(f"unknown metric {args.metric!r}; choose from "
                         f"{sorted(SWEEP_METRICS)}")
    if len(args.n_list) < 3:
        raise UsageError("sweep needs at least 3 n-values for the fit")
    cell, rows = SWEEP_METRICS[args.metric]
    pts = limits.sweep(cell(args), args.n_list, args.jobs)
    report = Report(config_echo=_echo(args))
    report.extend(rows(args, tol, pts))
    return report


# ---------------------------------------------------------------- spectrum

def run_spectrum(args, tol):
    if args.levels is not None and args.levels < 1:
        raise UsageError(f"--levels must be positive, got {args.levels}")
    report = Report(config_echo=_echo(args))
    n = args.n
    if args.model == "dicke":
        vals = dicke.hss_eigenvalues(dicke.collective_ops(n))
    elif args.model == "witten":
        vals = limits.witten_limit(n).bulk_levels()
    elif args.model == "model_i":
        vals = operators.diagonal_eigenvalues(
            models.build_model_i((1.0,) * n).h)
    elif args.model == "model_ii":
        vals = operators.diagonal_eigenvalues(
            models.build_model_ii((1.0,) * n).h)
    elif args.model == "model_iii":
        vals = models.model_iii_symmetric_sector_spectrum(n)
    else:
        raise UsageError(f"unknown spectrum model {args.model!r}")
    for i, v in enumerate(np.asarray(vals)[:args.levels]):
        report.add(check_row(f"spectrum_level_{i:04d}", n, float(v),
                             float(v), "DERIVED", 0.0))
    return report


# ---------------------------------------------------------------- tables

def run_tables(args, tol):
    """One row per three-scale table cell: 9 time-evolution cells and 8
    supertransformation cells, each mapped to its finite-n surrogate."""
    report = Report(config_echo=_echo(args))
    n_meso, n_big = 256, 200

    # --- time evolution, GS row
    ops6 = dicke.collective_ops(6)
    h6 = dicke.build_hss_dicke(ops6).toarray()
    gsv = dicke.ground_state(ops6).vector
    szdot = -1j * operators.bracket(ops6.s_z_full.toarray(), h6)
    report.add(_residual("t1_gs_local_stationary", 6,
                         abs(np.vdot(gsv, szdot @ gsv)), tol["identity"],
                         "TRIVIAL"))
    slope = limits.gs_phase_slope(n_meso)
    report.add(check_row("t1_gs_meso_phase_slope", n_meso, abs(slope), 1.0,
                         "PAPER", tol["slope"]))
    opsb = dicke.collective_ops(n_big)
    triple = limits.macroscopic_probe(opsb, dicke.ground_state(opsb))["triple"]
    report.add(_residual("t1_gs_macro_triple", n_big,
                         abs(complex(triple[0], triple[1]))
                         + abs(triple[2] + 1.0), tol["machine"], "PAPER"))

    # --- time evolution, BS row
    report.add(_residual("t1_bs_local_rotation", 1,
                         limits.local_rotation_check(0.7), tol["spectral"],
                         "PAPER"))
    qd, pd = limits.bs_free_evolution(dicke.collective_ops(n_meso), 1.0)
    report.add(check_row("t1_bs_meso_free_growth", n_meso, qd, 1.0, "DERIVED",
                         tol["growth"]))
    report.add(_residual("t1_bs_meso_p_constant", n_meso, abs(pd),
                         tol["identity"], "PAPER"))
    # macroscopic triple doubles as the constancy witness
    tb = limits.macroscopic_probe(opsb,
                                  dicke.bogoliubov_state(opsb, 0.0))["triple"]
    report.add(_residual("t1_bs_macro_triple", n_big,
                         abs(tb[0] - 1.0) + abs(tb[1]) + abs(tb[2]),
                         tol["identity"], "PAPER"))

    # --- time evolution, CS (ceiling) row
    _, psi2 = dicke.ceiling_state_ladder(opsb)
    hb = dicke.build_hss_dicke(opsb)
    v = psi2.vector
    e1 = np.real(np.vdot(v, hb @ v))
    e2 = np.real(np.vdot(v, hb @ (hb @ v)))
    report.add(_residual("t1_cs_local_stationary", n_big, e2 - e1 * e1,
                         tol["spectral"], "DERIVED"))
    meso = limits.sweep(_state_cell("ceiling", limits.mesoscopic_variance),
                        (50, 100, 200), args.jobs)
    slope, _ = limits.variance_divergence(meso)
    report.add(check_row("t1_cs_meso_divergence_slope", 0, slope, 0.5,
                         "DERIVED", tol["slope"]))

    # --- supertransformation, GS row
    # sigma_z'^{(1)} lives on (site 1, Clifford mode): norm exactly 2/sqrt N
    report.add(check_row("t2_gs_local_sqrtn_norm", n_meso,
                         np.sqrt(n_meso)
                         * limits.local_super_derivative_norms(n_meso),
                         2.0, "DERIVED", tol["identity"]))
    sup = limits.super_identity_residuals(8, 0.0)
    report.add(_residual("t2_gs_meso_dictionary", 8,
                         sup["eta_prime"] + sup["sz_prime"],
                         tol["identity"], "PAPER"))
    szp = -1j * operators.bracket(opsb.s_z_full,
                                  dicke.build_g_alpha_dicke(opsb))
    gb = dicke.ground_state(opsb).vector
    report.add(_residual("t2_gs_macro_vanishing", n_big,
                         abs(np.vdot(gb, szp @ gb)) / n_big,
                         tol["identity"], "PAPER"))

    # --- supertransformation, BS row
    # BS(0) restricted to (site 1, Clifford mode): (1, 1)/sqrt 2 x (0, 1)
    bs1 = np.kron(np.ones(2) / np.sqrt(2.0), (0.0, 1.0))
    sx1p = limits.local_super_derivative(n_meso, "x")
    report.add(_residual("t2_bs_local_finite", n_meso,
                         abs(np.vdot(bs1, sx1p @ bs1)), tol["identity"],
                         "PAPER"))
    growth = limits.sweep(limits.bs_eta_prime, (16, 64, 256), args.jobs)
    report.add(check_row("t2_bs_meso_growth_exponent", 0,
                         limits.power_growth_fit(growth).rate, 0.5, "PAPER",
                         tol["slope"]))
    etap_val = abs(growth[-1][1]) / np.sqrt(growth[-1][0])
    report.add(check_row("t2_bs_macro_eta_prime", 256, etap_val, 0.5,
                         "DERIVED", tol["identity"]))

    # --- supertransformation, CS row
    # ||S_z' psi2|| = sqrt(N+2) exactly: sqrt(N) growth with coefficient 1
    norm_cs = float(np.linalg.norm(szp @ psi2.vector))
    report.add(check_row("t2_cs_meso_divergent_norm", n_big,
                         norm_cs / np.sqrt(n_big),
                         np.sqrt(1.0 + 2.0 / n_big), "DERIVED",
                         tol["identity"]))
    report.add(_residual("t2_cs_macro_vanishing", n_big,
                         abs(np.vdot(psi2.vector, szp @ psi2.vector))
                         / n_big, tol["identity"], "DERIVED"))
    return report


# ---------------------------------------------------------------- driver

class UsageError(Exception):
    pass


def _echo(args):
    echo = {k: v for k, v in sorted(vars(args).items())
            if k not in ("func",) and v is not None}
    echo = {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in echo.items()}
    return echo


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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="susylab",
        description="Exact laboratory for supersymmetric fermion lattices.")
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--tol-file", help="JSON tolerance overrides")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="parallel cell dispatch degree")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("--model", help="restrict to one suite")
    p_verify.set_defaults(func=run_verify)

    p_sweep = sub.add_parser("sweep", help="n-sweep a limit probe")
    p_sweep.add_argument("--metric", required=True)
    p_sweep.add_argument("--n-list", type=_n_list, required=True)
    p_sweep.add_argument("--alpha", type=float, default=1.0)
    p_sweep.add_argument("--beta", type=float, default=1.0)
    p_sweep.add_argument("--r", type=float, default=1.0)
    p_sweep.add_argument("--state", choices=sorted(STATES), default="ground")
    p_sweep.set_defaults(func=run_sweep)

    p_spec = sub.add_parser("spectrum", help="emit model spectra")
    p_spec.add_argument("--model", required=True)
    p_spec.add_argument("--n", type=int, required=True)
    p_spec.add_argument("--levels", type=int)
    p_spec.set_defaults(func=run_spectrum)

    p_tab = sub.add_parser("tables", help="three-scale table surrogates")
    p_tab.set_defaults(func=run_tables)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be positive, got {args.jobs}")
    try:
        tol = load_tolerances(args.tol_file)
        report = args.func(args, tol)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    body = report.render(args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end acceptance gate.

Each test exercises one numbered acceptance criterion and prints a single
``CRITERION k: PASS``/``FAIL`` line on the real stdout (capture is
suspended for the verdict line, so it is visible in any pytest run).

Criterion 10 contains one clause that is analytically unattainable: the
exact spectral norm of the collective pair operator is
sqrt((floor(N/2)+1)(N-floor(N/2))/N), which equals sqrt(N)/2 * sqrt(1+2/N)
and therefore never hits sqrt(N)/2 at finite N.  That clause is asserted as
stated, announced as FAIL, and marked as a strict expected failure; the two
healthy clauses of the criterion (the isometry limit and the bounded BCS
difference) are asserted first so they cannot hide behind the xfail.
"""

import json
import sys
import time

import numpy as np
import pytest

from susylattice import cli, dicke, limits, models, operators
from expect import expectation

RNG = np.random.default_rng(20260824)


@pytest.fixture
def announce(capfd):
    def _announce(num, ok, detail=""):
        line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        with capfd.disabled():
            sys.stdout.write("\n" + line + "\n")
            sys.stdout.flush()

    return _announce


@pytest.fixture
def require(announce):
    def _require(num, ok, detail=""):
        announce(num, ok, detail)
        assert ok, f"criterion {num} failed: {detail}"

    return _require


# --------------------------------------------------------------- criterion 1

def test_criterion_1_structure_suite(require):
    """Decomposition invariants for random positive couplings."""
    worst = 0.0
    for build, size in ((models.build_model_i, 6),
                        (models.build_model_ii, 4)):
        for _ in range(3):
            z = RNG.uniform(0.2, 2.0, size=size)
            inst = build(z)
            dec = operators.super_decompose(inst.q, check=True)
            worst = max(worst, operators.nilpotency_residual(inst.q))
            worst = max(worst, operators.car_residual(dec))
    inst3, _ = models.build_model_iii_fock(3)
    operators.super_decompose(inst3.q, check=True)
    worst = max(worst, operators.nilpotency_residual(inst3.q))
    require(1, worst < 1e-10, f"worst invariant residual {worst:.2e}")


# --------------------------------------------------------------- criterion 2

FLOW_S = (0.1, 0.7, np.pi / 2, 2.0)


def _car_residual(m):
    eye = np.eye(m.shape[0])
    r1 = np.abs(m @ m.conj().T + m.conj().T @ m - eye).max()
    r2 = np.abs(m @ m).max()
    return max(float(r1), float(r2))


def test_criterion_2_closed_flows(require):
    worst = 0.0
    # single mode, including a nontrivial gauge angle
    baby = models.build_baby()
    a0 = operators.sparse_annihilators(baby.spec.modes)[0]
    for alpha in (0.0, 0.7):
        g = baby.g_alpha(alpha)
        for s in FLOW_S:
            closed = models.baby_flow_closed(s, alpha)
            brute = operators.unitary_flow(g, s, a0)
            worst = max(worst, float(np.abs(closed - brute).max()),
                        _car_residual(closed))
    # one flavor per site
    z1 = (0.6, 1.1, 1.7)
    m1 = models.build_model_i(z1)
    ops1 = operators.sparse_annihilators(m1.spec.modes)
    for k in (0, 2):
        for s in FLOW_S:
            closed = models.model_i_flow_closed(k, s, z1)
            brute = operators.unitary_flow(m1.g_alpha(0.0), s, ops1[k])
            worst = max(worst, float(np.abs(closed - brute).max()),
                        _car_residual(closed))
    # two flavors per site
    z2 = (0.8, 1.3)
    m2 = models.build_model_ii(z2)
    ops2 = operators.sparse_annihilators(m2.spec.modes)
    for k in (0, 1):
        for s in FLOW_S:
            up_c, dn_c = models.model_ii_flow_closed(k, s, z2)
            up_b = operators.unitary_flow(
                m2.g_alpha(0.0), s, ops2[m2.spec.mode_index(k, 0)])
            dn_b = operators.unitary_flow(
                m2.g_alpha(0.0), s, ops2[m2.spec.mode_index(k, 1)])
            worst = max(worst,
                        float(np.abs(up_c - up_b).max()),
                        float(np.abs(dn_c - dn_b).max()),
                        _car_residual(up_c), _car_residual(dn_c))
            cross = operators.bracket(up_c, dn_c, "anticommutator")
            worst = max(worst, float(np.abs(cross).max()))
    require(2, worst < 1e-10, f"worst flow/CAR deviation {worst:.2e}")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_counterexample(require):
    q_bad = models.hopping_supercharge(3, periodic=True)
    ok_bad, res_bad = models.nilpotency_check(q_bad)
    builders_ok = True
    for q in (models.build_baby().q,
              models.build_model_i((0.9, 1.4, 0.5)).q,
              models.build_model_ii((1.0, 0.7)).q,
              models.build_model_iii_fock(3)[0].q):
        builders_ok &= models.nilpotency_check(q)[0]
    ok = (not ok_bad) and res_bad > 1e-3 and builders_ok
    require(3, ok, f"hopping residual {res_bad:.6f}, builders "
                    f"{'nilpotent' if builders_ok else 'BROKEN'}")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_cross_representation(require):
    worst = 0.0
    for n in (2, 3, 4):
        fock = np.sort(models.model_iii_symmetric_sector_spectrum(n))
        coll = dicke.hss_eigenvalues(dicke.collective_ops(n))
        worst = max(worst, float(np.abs(fock - coll).max()))
    require(4, worst < 1e-9, f"max eigenvalue gap {worst:.2e}")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_ceiling_law(require):
    exact_ok = all(dicke.ceiling_law_exact(n) == (n * (n + 2), n * (n + 2))
                   for n in range(2, 1001, 2))
    worst_rel = 0.0
    for n in (2, 10, 100, 1000):
        ops = dicke.collective_ops(n)
        psi1, psi2 = dicke.ceiling_state_ladder(ops)
        hu = dicke.hss_unnormalized(ops)
        for psi in (psi1, psi2):
            val = expectation(psi, hu).real
            resid = np.linalg.norm(hu @ psi.vector - val * psi.vector)
            scale = n * (n + 2) / 4.0
            worst_rel = max(worst_rel, abs(val - scale) / scale,
                            resid / scale)
    worst_overlap = 1.0
    for n in (2, 8, 64):
        ops = dicke.collective_ops(n)
        _, psi2 = dicke.ceiling_state_ladder(ops)
        integral = dicke.ceiling_state_integral(ops)   # >= 4N nodes enforced
        worst_overlap = min(worst_overlap,
                            abs(dicke.overlap(integral, psi2)))
    ok = exact_ok and worst_rel < 1e-9 and worst_overlap >= 1 - 1e-8
    require(5, ok, f"eigen rel err {worst_rel:.2e}, "
                    f"min overlap {worst_overlap:.12f}")


# --------------------------------------------------------------- criterion 6

SWEEP_N = (64, 256, 1024)


def test_criterion_6_gaussian_weyl_limits(require):
    worst = 0.0
    for alpha, beta in ((0.5, 0.0), (0.0, 0.5), (0.7, 0.3), (1.0, 1.0)):
        pts = []
        for n in SWEEP_N:
            ops = dicke.collective_ops(n)
            val = limits.fluctuation_expectation(
                ops, dicke.ground_state(ops), alpha, beta)
            pts.append((n, complex(abs(val))))
        fit = limits.extrapolate(pts)
        target = limits.gaussian_target(alpha, beta)
        worst = max(worst, abs(fit.limit - target) / target)
    for r in (0.5, 1.0):
        for axis in ("y", "z"):
            pts = [(n, complex(abs(limits.bs_gaussian_probe(
                dicke.collective_ops(n), r, axis)))) for n in SWEEP_N]
            fit = limits.extrapolate(pts)
            target = float(np.exp(-r * r / 2.0))
            worst = max(worst, abs(fit.limit - target) / target)
    # residual phase of the Weyl product: stable across sweeps
    def weyl_phase(n):
        ops = dicke.collective_ops(n)
        return limits.weyl_relation_probe(ops, dicke.ground_state(ops),
                                          1.0, 1.0)[1]

    phase = limits.extrapolate(limits.sweep(weyl_phase, SWEEP_N)).limit
    stability = abs(phase - limits.extrapolate(
        limits.sweep(weyl_phase, (96, 384, 1536))).limit)
    candidates = {"-4ab": -4.0, "+ab/2": 0.5, "-ab/2": -0.5}
    nearest = min(candidates, key=lambda k: abs(phase - candidates[k]))
    ok = worst < 0.01 and stability < 1e-3
    require(6, ok, f"worst Gaussian dev {worst:.4f}, phase {phase:+.6f} "
                    f"(nearest candidate {nearest}, "
                    f"stability {stability:.1e})")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_odlro_trichotomy(require):
    ns = (50, 100, 200)

    def ceiling_odlro(n):
        ops = dicke.collective_ops(n)
        return limits.odlro(ops, dicke.ceiling_state_ladder(ops)[1])

    ceiling = limits.extrapolate(limits.sweep(ceiling_odlro, ns))
    ceiling_dev = abs(ceiling.limit - 0.5) / 0.5
    worst_zero = 0.0
    for n in ns:
        ops = dicke.collective_ops(n)
        worst_zero = max(worst_zero,
                         limits.odlro(ops, dicke.ground_state(ops)),
                         limits.odlro(ops, dicke.bogoliubov_state(ops, 0.4)))
    ok = ceiling_dev < 0.02 and worst_zero < 1e-12
    require(7, ok, f"ceiling limit {ceiling.limit:.5f}, "
                    f"GS/BS max {worst_zero:.2e}")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_witten_limit(require):
    model = limits.witten_limit(64)
    levels = model.bulk_levels()[:32]            # below d/2
    expected = np.array([np.ceil(j / 2.0) for j in range(32)])
    spec_dev = float(np.abs(levels - expected).max())
    n_zero = int(np.sum(np.linalg.eigvalsh(model.h.toarray()) < 1e-8))
    v = limits.witten_ground_vector(model)
    alpha_dev = max(float(np.linalg.norm(model.h @ v)),
                    *(float(np.linalg.norm(
                        limits.witten_limit(64, a).g_alpha @ v))
                      for a in (0.0, 0.9, 2.1)))
    conv = limits.extrapolate(limits.sweep(
        lambda n: limits.spectral_level(dicke.collective_ops(n)),
        (64, 128, 256)))
    ok = (spec_dev < 1e-8 and n_zero == 1 and alpha_dev < 1e-10
          and 0.8 <= conv.rate <= 1.2)
    require(8, ok, f"tower dev {spec_dev:.1e}, zero modes {n_zero}, "
                    f"rate {conv.rate:.3f}")


# --------------------------------------------------------------- criterion 9

def test_criterion_9_three_scale_tables(require):
    checks = []
    ops256 = dicke.collective_ops(256)
    slope = limits.gs_phase_slope(ops256)
    checks.append(("gs_slope", abs(abs(slope) - 1.0) <= 0.05,
                   f"{slope:+.4f}"))
    q_drift, p_drift = limits.bs_free_evolution(ops256, 1.0)
    checks.append(("bs_t2", abs(q_drift - 1.0) <= 0.10 and
                   abs(p_drift) < 1e-10, f"{q_drift:.4f}"))
    growth = limits.power_growth_fit(limits.sweep(
        lambda n: limits.bs_eta_prime(dicke.collective_ops(n)),
        (64, 128, 256)))
    checks.append(("bs_sqrt_n", abs(growth.rate - 0.5) <= 0.05,
                   f"{growth.rate:.4f}"))

    def ceiling_variance(n):
        ops = dicke.collective_ops(n)
        return limits.mesoscopic_variance(ops,
                                          dicke.ceiling_state_ladder(ops)[1])

    slope, divergent = limits.variance_divergence(
        limits.sweep(ceiling_variance, (50, 100, 200)))
    checks.append(("ceiling_var_slope", abs(slope - 0.5) <= 0.05
                   and divergent, f"{slope:.4f}"))
    ops = dicke.collective_ops(100)
    t_gs = limits.macroscopic_triple(ops, dicke.ground_state(ops))
    t_bs = limits.macroscopic_triple(ops, dicke.bogoliubov_state(ops, 0.0))
    checks.append(("macro_triples",
                   max(abs(np.array(t_gs) - (0, 0, -1)).max(),
                       abs(np.array(t_bs) - (1, 0, 0)).max()) < 1e-12, ""))
    ov_dev = 0.0
    for n in (5, 40, 300):
        o = dicke.collective_ops(n)
        a, b = 0.3, 0.7
        ov = abs(dicke.overlap(dicke.bogoliubov_state(o, a),
                               dicke.bogoliubov_state(o, b)))
        ov_dev = max(ov_dev, abs(ov - abs(np.cos(a - b)) ** n))
    checks.append(("bogoliubov_overlap", ov_dev < 1e-10, f"{ov_dev:.1e}"))
    failed = [name for name, ok, _ in checks if not ok]
    detail = ", ".join(f"{name}={val}" if val else name
                       for name, _, val in checks)
    require(9, not failed, detail if not failed else
             f"failing rows: {failed}")


# -------------------------------------------------------------- criterion 10

@pytest.mark.xfail(
    strict=True,
    reason="the collective pair norm is sqrt((floor(N/2)+1)(N-floor(N/2))/N)"
           " = sqrt(N)/2 * sqrt(1+2/N) at every finite N; the asserted value"
           " sqrt(N)/2 is only its large-N envelope and the 1e-10 match is"
           " unattainable.  The other two clauses (isometry limit, bounded"
           " BCS difference) pass and are asserted first.")
def test_criterion_10_norm_facts(announce):
    # clause b: <4 S_+ S_- / N^2> on the ceiling band -> 1 within 2%
    ops = dicke.collective_ops(200)
    iso = limits.ceiling_isometry(ops, dicke.ceiling_state_ladder(ops)[1])
    assert abs(iso - 1.0) <= 0.02
    # clause c: ||H'_BCS - (-M^dag M)|| <= 1 at every tested n
    worst_bcs = max(models.build_bcs(n).diff_norm for n in (2, 4, 8, 16))
    assert worst_bcs <= 1.0 + 1e-12    # the bound is attained exactly
    # clause a: ||M_N|| = sqrt(N)/2 to 1e-10 -- contradicted by the exact law
    norm_dev = 0.0
    for n in (1, 2, 3, 4):
        norm_dev = max(norm_dev,
                       abs(models.fock_m_norm(n) - np.sqrt(n) / 2.0))
    for n in (1, 2, 3, 4, 16, 100):
        norm_dev = max(norm_dev,
                       abs(limits.collective_m_norm(n) - np.sqrt(n) / 2.0))
    ok = norm_dev <= 1e-10
    announce(10, ok, f"isometry {iso:.4f} ok, BCS diff {worst_bcs:.3f} ok, "
                      f"norm dev {norm_dev:.3f} (exact law "
                      "sqrt((floor(N/2)+1)(N-floor(N/2))/N) > sqrt(N)/2)")
    assert ok, "collective pair norm never equals sqrt(N)/2 at finite N"


# -------------------------------------------------------------- criterion 11

def test_criterion_11_cli_contracts(tmp_path, require):
    t0 = time.monotonic()
    code_ok = cli.main(["--out", str(tmp_path / "a.csv"), "--jobs", "1",
                        "verify"])
    elapsed = time.monotonic() - t0
    cli.main(["--out", str(tmp_path / "b.csv"), "--jobs", "4", "verify"])
    deterministic = ((tmp_path / "a.csv").read_bytes()
                     == (tmp_path / "b.csv").read_bytes())
    tol = tmp_path / "tight.json"
    tol.write_text(json.dumps({"identity": 1e-300, "spectral": 1e-300}))
    code_fail = cli.main(["--out", str(tmp_path / "c.csv"),
                          "--tol-file", str(tol), "verify"])
    code_usage = cli.main(["--out", str(tmp_path / "d.csv"),
                           "verify", "--model", "nonexistent"])
    ok = (code_ok == 0 and code_fail == 1 and code_usage == 2
          and deterministic and elapsed < 60.0)
    require(11, ok, f"exit codes {code_ok}/{code_fail}/{code_usage}, "
                     f"deterministic={deterministic}, "
                     f"verify {elapsed:.1f}s")

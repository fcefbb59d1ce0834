"""Large-N probes: Gaussian/Weyl limits, ODLRO, derivative identities, the
truncated-oscillator limit model, BCS free evolution and extrapolation."""

import numpy as np
import pytest
from scipy.linalg import expm

from susylattice import dicke, limits
from susylattice.tensorrep import MAX_SITES, TensorSpinRep


# ----------------------------------------------------------- extrapolation

def test_extrapolate_synthetic():
    pts = [(n, 1.0 + 3.0 / n) for n in (64, 256, 1024)]
    fit = limits.extrapolate(pts)
    assert fit.limit == pytest.approx(1.0, abs=1e-6)
    assert fit.rate == pytest.approx(1.0, abs=1e-6)


def test_extrapolate_constant():
    fit = limits.extrapolate([(2, 5.0), (4, 5.0), (8, 5.0)])
    assert fit.limit == 5.0
    assert np.isnan(fit.rate)
    assert fit.residual == 0.0


def test_extrapolate_non_geometric_grid():
    pts = [(n, 2.0 + 5.0 * n ** -1.5) for n in (10, 17, 40)]
    fit = limits.extrapolate(pts)
    assert fit.limit == pytest.approx(2.0, abs=1e-4)
    assert fit.rate == pytest.approx(1.5, abs=1e-3)


def test_extrapolate_needs_three_points():
    with pytest.raises(ValueError):
        limits.extrapolate([(1, 1.0), (2, 2.0)])


def test_convergence_series_ordering():
    with pytest.raises(ValueError):
        limits.ConvergenceSeries(metric="x", points=((4, 1.0), (2, 2.0)),
                                 target=0.0, provenance="DERIVED")


# --------------------------------------------------------- Gaussian limits

def test_fluctuation_trivial_point():
    ops = dicke.collective_ops(8)
    val = limits.fluctuation_expectation(ops, dicke.ground_state(ops),
                                         limits.FluctuationParams(0.0, 0.0))
    assert val == pytest.approx(1.0, abs=1e-12)


def test_fluctuation_params_validation():
    with pytest.raises(ValueError):
        limits.FluctuationParams(1.0, 0.0, scaling="bogus")


@pytest.mark.parametrize("ab", ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0),
                                (2.0, 1.0)))
def test_gs_gaussian_limit(ab):
    a, b = ab
    pts = []
    for n in (64, 256, 1024):
        ops = dicke.collective_ops(n)
        pts.append((n, limits.fluctuation_expectation(
            ops, dicke.ground_state(ops), limits.FluctuationParams(a, b))))
    fit = limits.extrapolate(pts)
    target = limits.gaussian_target(a, b)
    assert abs(fit.limit - target) < 0.01 * max(target, 0.1)
    # finite-n deviation is O(1/n)
    assert abs(pts[0][1] - target) < 5.0 / 64


def test_gs_finite_n_deviation_shrinks():
    p = limits.FluctuationParams(1.0, 1.0)
    target = limits.gaussian_target(1.0, 1.0)
    devs = []
    for n in (16, 64, 256):
        ops = dicke.collective_ops(n)
        devs.append(abs(limits.fluctuation_expectation(
            ops, dicke.ground_state(ops), p) - target))
    assert devs[2] < devs[1] < devs[0]


@pytest.mark.parametrize("r", (0.5, 1.0))
@pytest.mark.parametrize("axis", ("y", "z"))
def test_bs_gaussian_limit(r, axis):
    pts = []
    for n in (64, 256, 1024):
        pts.append((n, limits.bs_gaussian_probe(dicke.collective_ops(n), r,
                                                axis)))
    fit = limits.extrapolate(pts)
    assert abs(fit.limit - np.exp(-r * r / 2)) < 0.01


# ------------------------------------------- SU(2) coherent-state oracles
# Exponentials of S_x, S_y, S_z act spin by spin on product states, so each
# probe of the ground or BS(0) state is a 2x2 matrix element to the N-th
# power (Arecchi et al., Phys. Rev. A 6, 2211 (1972)).

ORACLE_N = (7, 64, 1410, 4096, dicke.MAX_PARTICLES)
ORACLE_RTOL = 1e-10


def _rel_err(got, want):
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("n", ORACLE_N)
def test_gs_gaussian_closed_form(n):
    a, b = 0.8, 0.45
    ops = dicke.collective_ops(n)
    got = limits.fluctuation_expectation(ops, dicke.ground_state(ops),
                                         limits.FluctuationParams(a, b))
    want = np.cos(np.hypot(a, b) / np.sqrt(2.0 * n)) ** n
    assert _rel_err(got, want) <= ORACLE_RTOL


@pytest.mark.parametrize("n", ORACLE_N)
def test_gs_weyl_phase_closed_form(n):
    a, b = 0.9, 0.6
    ops = dicke.collective_ops(n)
    _, phase = limits.weyl_relation_probe(ops, dicke.ground_state(ops), a, b)
    x, y = a / np.sqrt(2.0 * n), b / np.sqrt(2.0 * n)
    want = np.angle((np.cos(x) * np.cos(y) - 1j * np.sin(x) * np.sin(y))
                    ** n)
    assert _rel_err(phase, want) <= ORACLE_RTOL


@pytest.mark.parametrize("n", ORACLE_N)
@pytest.mark.parametrize("axis", ("y", "z"))
def test_bs_gaussian_closed_form(n, axis):
    r = 0.75
    got = limits.bs_gaussian_probe(dicke.collective_ops(n), r, axis)
    want = np.cos(r / np.sqrt(n)) ** n
    assert _rel_err(got, want) <= ORACLE_RTOL


def _dense_rotation(ops, cx, cy, cz, denom):
    gen = (cx * ops.s_x + cy * ops.s_y + cz * ops.s_z).toarray() / denom
    return expm(1j * gen)


@pytest.mark.parametrize("n", (8, 64))
@pytest.mark.parametrize("label", ("ceiling", "bogoliubov(0.4)"))
def test_matrix_free_probes_match_dense_expm(n, label):
    """States without a product closed form: the matrix-free probes against
    a dense expm of the same generator."""
    ops = dicke.collective_ops(n)
    if label == "ceiling":
        state = dicke.ceiling_state_ladder(ops)[1]
    else:
        state = dicke.bogoliubov_state(ops, 0.4)
    spin = state.vector.reshape(-1, 2)[:, 1]
    a, b = 0.8, 0.45
    rt = np.sqrt(2.0 * n)
    gauss = limits.fluctuation_expectation(ops, state,
                                           limits.FluctuationParams(a, b))
    want = np.vdot(spin, _dense_rotation(ops, a, -b, 0.0, rt) @ spin)
    assert abs(gauss - want) <= 1e-12
    prod, _ = limits.weyl_relation_probe(ops, state, a, b)
    want = np.vdot(spin, _dense_rotation(ops, a, 0.0, 0.0, rt)
                   @ (_dense_rotation(ops, 0.0, -b, 0.0, rt) @ spin))
    assert abs(prod - want) <= 1e-12
    for cx, cy, cz in ((0.0, 0.7, 0.0), (0.0, 0.0, 0.7), (0.3, -0.5, 0.9)):
        got = limits._spin_phase_apply(ops, cx, cy, cz, np.sqrt(n), spin)
        dense = _dense_rotation(ops, cx, cy, cz, np.sqrt(n)) @ spin
        assert np.abs(got - dense).max() <= 1e-12


# --------------------------------------------------------------- Weyl phase

def test_weyl_phase_trivial():
    ops = dicke.collective_ops(32)
    _, phase = limits.weyl_relation_probe(ops, dicke.ground_state(ops),
                                          0.0, 1.0)
    assert abs(phase) < 1e-12


def test_weyl_phase_limit_and_stability():
    series = limits.weyl_phase_sweep((64, 256, 1024), 1.0, 1.0)
    assert series.fit.limit == pytest.approx(-0.5, abs=1e-3)
    vals = [v.real for _, v in series.points]
    assert abs(vals[-1] - vals[-2]) < 1e-3


def test_weyl_phase_antisymmetric_under_order_reversal():
    ops = dicke.collective_ops(256)
    gs = dicke.ground_state(ops)
    _, p_fwd = limits.weyl_relation_probe(ops, gs, 1.0, 1.0)
    _, p_rev = limits.weyl_relation_probe(ops, gs, 1.0, 1.0, reverse=True)
    assert p_fwd == pytest.approx(-p_rev, abs=1e-10)


# -------------------------------------------------------------------- ODLRO

def test_odlro_ceiling_sweep():
    series = limits.odlro_sweep(
        (50, 100, 200), lambda ops: dicke.ceiling_state_ladder(ops)[1],
        "odlro_ceiling", 0.5, "PAPER")
    assert abs(series.fit.limit - 0.5) < 0.01
    # exact finite-n law (n/2)/(n-1)
    for n, v in series.points:
        assert v.real == pytest.approx((n / 2) / (n - 1), abs=1e-12)


@pytest.mark.parametrize("n", (2, 17, 100))
def test_odlro_product_states_vanish(n):
    ops = dicke.collective_ops(n)
    assert limits.odlro(ops, dicke.ground_state(ops)) < 1e-12
    for alpha in (0.0, 0.3, 1.2):
        assert limits.odlro(ops, dicke.bogoliubov_state(ops, alpha)) < 1e-12


def test_odlro_needs_two_sites():
    with pytest.raises(ValueError):
        limits.odlro(dicke.collective_ops(1),
                     dicke.ground_state(dicke.collective_ops(1)))


def test_odlro_identity_against_fock():
    """The collective shortcut equals the literal two-site expectation."""
    n = 4
    rep = TensorSpinRep(n)
    ops = dicke.collective_ops(n)
    bs = dicke.bogoliubov_state(ops, 0.25)
    collective = (dicke.expectation(
        bs, ops.s_x_full @ ops.s_x_full).real - n) / (n * (n - 1))
    v = rep.bogoliubov_vector(0.25)
    literal = np.vdot(v, (rep.sx[0] @ rep.sx[1]) @ v).real
    assert collective == pytest.approx(literal, abs=1e-12)


# ------------------------------------------------------ derivative identities

@pytest.mark.parametrize("n", (3, 8))
def test_eom_identities_exact(n):
    res = limits.eom_identity_residuals(n)
    assert all(v < 1e-10 for v in res.values()), res


@pytest.mark.parametrize("n,alpha", ((3, 0.0), (8, 0.0), (6, 1.3)))
def test_super_identities_exact(n, alpha):
    res = limits.super_identity_residuals(n, alpha)
    assert all(v < 1e-10 for v in res.values()), res


def test_heisenberg_derivative_validation():
    with pytest.raises(ValueError):
        limits.heisenberg_derivative(np.eye(2), np.eye(3))


def test_local_super_derivative_decay():
    series = limits.local_super_derivative_norms((4, 6, 8, 10))
    for n, v in series.points:
        assert v.real == pytest.approx(2.0 / np.sqrt(n), abs=1e-10)


def test_local_super_derivative_at_max_sites():
    series = limits.local_super_derivative_norms((8, 10, MAX_SITES))
    assert series.points[-1][0] == MAX_SITES
    for n, v in series.points:
        assert v.real == pytest.approx(2.0 / np.sqrt(n), abs=1e-12)


def test_local_rotation_identity():
    assert limits.local_rotation_check(0.7) < 1e-9
    assert limits.local_rotation_check(2.0) < 1e-9


# ------------------------------------------------------------- Witten limit

def test_witten_spectrum_and_ground_state():
    model = limits.witten_limit(64)
    levels = model.bulk_levels()
    d2 = 32
    expect = np.concatenate([[0.0], np.repeat(np.arange(1, d2), 2)])[:d2]
    assert np.abs(levels[:d2] - expect).max() < 1e-8
    assert int(np.sum(np.abs(levels) < 1e-8)) == 1
    v0 = limits.witten_ground_vector(model)
    assert np.linalg.norm(model.h @ v0) < 1e-12
    assert np.linalg.norm((model.q + 1j * model.p) @ v0) < 1e-12


def test_witten_ground_alpha_independent():
    v0 = limits.witten_ground_vector(limits.witten_limit(32))
    for alpha in (0.0, 0.9, 2.4):
        model = limits.witten_limit(32, alpha)
        assert np.linalg.norm(model.h @ v0) < 1e-12
        assert np.linalg.norm(model.g_alpha @ v0) < 1e-12


def test_witten_g_square_matches_h_on_bulk():
    model = limits.witten_limit(32)
    g2 = model.g_alpha @ model.g_alpha
    keep = [i for i in range(64) if i // 2 < 22]
    assert np.abs((g2 - model.h)[np.ix_(keep, keep)]).max() < 1e-10


def test_witten_commutator_bulk():
    model = limits.witten_limit(32)
    comm = model.q @ model.p - model.p @ model.q
    keep = [i for i in range(64) if i // 2 < 24]
    eye = np.eye(64)
    assert np.abs((comm - 1j * eye)[np.ix_(keep, keep)]).max() < 1e-10


def test_witten_cutoff_validation():
    with pytest.raises(ValueError):
        limits.witten_limit(4)


def test_spectral_convergence_rate():
    series = limits.spectral_convergence((64, 256, 1024))
    assert series.fit.limit == pytest.approx(2.0, abs=1e-8)
    assert 0.8 <= series.fit.rate <= 1.2
    for n, v in series.points:
        assert v.real == pytest.approx(2.0 - 2.0 / n, abs=1e-10)


def test_hss_levels_match_witten_exactly_below_gap():
    vals = dicke.hss_eigenvalues(dicke.collective_ops(128))
    assert np.abs(vals[:2]).max() < 1e-12
    assert np.abs(vals[2:6] - 1.0).max() < 1e-12


# ------------------------------------------------------------ BCS evolution

def test_bs_free_evolution_zero_time():
    qd, pd = limits.bs_free_evolution(dicke.collective_ops(64), 0.0)
    assert abs(qd) < 1e-10 and abs(pd) < 1e-10


def test_bs_free_evolution_growth():
    ops = dicke.collective_ops(256)
    qd1, pd1 = limits.bs_free_evolution(ops, 1.0)
    assert abs(qd1 - 1.0) < 0.1      # <p^2> t^2 with <p^2> = 1
    assert abs(pd1) < 1e-10          # p is conserved exactly
    qd2, _ = limits.bs_free_evolution(ops, 2.0)
    assert abs(qd2 - 4.0) < 0.4


def test_bcs_sz_commutes_with_generator():
    ops = dicke.collective_ops(32)
    h = (ops.s_plus @ ops.s_minus) / 32
    comm = h @ ops.s_z - ops.s_z @ h
    assert abs(comm).max() < 1e-12


# ------------------------------------------------ three-scale table pieces

def test_gs_phase_slope_exact():
    assert limits.gs_phase_slope(64) == pytest.approx(-1.0, abs=1e-10)
    assert limits.gs_phase_slope(256) == pytest.approx(-1.0, abs=1e-10)


def test_bs_super_growth_sqrt_n():
    series = limits.bs_super_growth((16, 64, 256))
    assert series.fit.rate == pytest.approx(0.5, abs=1e-6)
    for n, v in series.points:
        assert abs(v) == pytest.approx(np.sqrt(n) / 2, abs=1e-9)


def test_macroscopic_triples():
    ops = dicke.collective_ops(100)
    gs = limits.macroscopic_probe(ops, dicke.ground_state(ops))
    assert gs["triple"] == pytest.approx((0.0, 0.0, -1.0), abs=1e-12)
    bs = limits.macroscopic_probe(ops, dicke.bogoliubov_state(ops, 0.0))
    assert bs["triple"] == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)


def test_macroscopic_ceiling_isometry():
    ops = dicke.collective_ops(200)
    _, psi2 = dicke.ceiling_state_ladder(ops)
    probe = limits.macroscopic_probe(ops, psi2)
    assert probe["sz_spacing"] == 2
    assert probe["isometry"] == pytest.approx(1.0 + 2.0 / 200, abs=1e-10)


def test_macroscopic_probe_rejects_unknown_label():
    ops = dicke.collective_ops(4)
    coh = dicke.coherent_superposition(ops, lambda a: 1.0)
    with pytest.raises(ValueError):
        limits.macroscopic_probe(ops, coh)


def test_mesoscopic_divergence_classification():
    ceiling = limits.mesoscopic_divergence(
        lambda o: dicke.ceiling_state_ladder(o)[1], (50, 100, 200))
    assert ceiling.classification == "divergent"
    assert ceiling.fit.rate == pytest.approx(0.5, abs=0.05)
    gs = limits.mesoscopic_divergence(dicke.ground_state, (50, 100, 200))
    assert gs.classification == "bounded"
    assert gs.points[-1][1].real == pytest.approx(1.0, abs=1e-10)
    bs = limits.mesoscopic_divergence(
        lambda o: dicke.bogoliubov_state(o, 0.0), (50, 100, 200),
        centered=True)
    assert bs.classification == "bounded"
    assert abs(bs.points[-1][1]) < 1e-9


def test_collective_m_norm_law():
    for n in (1, 2, 3, 4, 10, 101):
        k = n // 2
        exact = np.sqrt((k + 1) * (n - k) / n)
        assert limits.collective_m_norm(n) == pytest.approx(exact, abs=1e-12)
    # approaches sqrt(n)/2 from above, ratio sqrt(1 + 2/n)
    ratio = limits.collective_m_norm(10000) / (np.sqrt(10000) / 2)
    assert ratio == pytest.approx(1.0, abs=2e-4)

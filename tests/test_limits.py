"""Large-N probes: Gaussian/Weyl limits, ODLRO, derivative identities, the
truncated-oscillator limit model, BCS free evolution and extrapolation."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from susylattice import dicke, limits, operators
from susylattice.operators import DimensionError
from expect import expectation
from tensorrep import MAX_SITES, TensorSpinRep


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
    assert fit.limit == pytest.approx(2.0, abs=1e-10)
    assert fit.rate == pytest.approx(1.5, abs=1e-10)
    assert fit.residual < 1e-10


@settings(deadline=None, max_examples=200)
@given(n0=st.integers(2, 500), r1=st.floats(1.2, 3.0),
       r2=st.floats(1.2, 3.0), a=st.floats(-2.0, 2.0),
       c=st.floats(0.5, 2.0), sign=st.sampled_from((-1.0, 1.0)),
       p=st.floats(*limits.RATE_BOUNDS))
def test_extrapolate_interpolates_any_non_geometric_triple(n0, r1, r2, a, c,
                                                           sign, p):
    """a + b n^(-p) through three points of a non-geometric n-triple is
    recovered exactly, for every p in RATE_BOUNDS (b n0^(-p) = +-c)."""
    assume(abs(r1 - r2) > 0.05)
    ns = (float(n0), n0 * r1, n0 * r1 * r2)
    b = sign * c * n0 ** p
    fit = limits.extrapolate([(n, a + b * n ** -p) for n in ns])
    assert fit.limit == pytest.approx(a, rel=1e-9, abs=1e-9)
    assert fit.rate == pytest.approx(p, rel=1e-9)


@pytest.mark.parametrize("p,bound", ((10.0, 8.0), (0.01, 0.05)))
def test_extrapolate_clamps_rate_to_the_nearer_bound(p, bound):
    """Data that need p outside RATE_BOUNDS get p at the bound and a
    nonzero residual: the least-squares (a, b) at that p."""
    assert bound in limits.RATE_BOUNDS
    fit = limits.extrapolate([(n, 1.0 + n ** -p) for n in (2, 3, 5)])
    assert fit.rate == bound
    assert fit.residual > 0.0
    basis = np.column_stack([np.ones(3), np.array([2.0, 3.0, 5.0]) ** -bound])
    ys = [1.0 + n ** -p for n in (2, 3, 5)]
    assert fit.limit == pytest.approx(np.linalg.lstsq(basis, ys)[0][0],
                                      abs=1e-12)


def test_extrapolate_odlro_fit_matches_mpmath_three_point_solution():
    """The ceiling ODLRO fit on the non-geometric n-list 1024,4096,16000
    equals the root of a + b n^(-p) = value(n) at those three points,
    solved by mpmath at 50 digits."""
    pts = limits.sweep(_in_state(_ceiling, limits.odlro), (1024, 4096, 16000))
    fit = limits.extrapolate(pts)
    with mpmath.workdps(50):
        ns = [mpmath.mpf(n) for n, _ in pts]
        ys = [mpmath.mpf(v.real) for _, v in pts]
        a, _, p = mpmath.findroot(
            lambda a, b, p: [a + b * n ** -p - y for n, y in zip(ns, ys)],
            (ys[2], (ys[0] - ys[2]) * ns[0], mpmath.mpf(1)))
    assert abs(fit.limit - float(a)) < 1e-12
    assert abs(fit.rate - float(p)) < 1e-9
    assert fit.residual < 1e-12


def test_extrapolate_needs_three_points():
    with pytest.raises(ValueError):
        limits.extrapolate([(1, 1.0), (2, 2.0)])
    with pytest.raises(ValueError):
        limits.extrapolate([(2, 1.0), (2, 2.0), (3, 3.0)])


def _in_state(build, probe):
    """The one-n cell n -> probe(ops, build(ops))."""
    def cell(n):
        ops = dicke.collective_ops(n)
        return probe(ops, build(ops))
    return cell


def _ceiling(ops):
    return dicke.ceiling_state_ladder(ops)[1]


@pytest.mark.parametrize("jobs", (1, 3))
def test_sweep_returns_ascending_points(jobs):
    n_list = [9, 2, 40, 5, 17, 3]
    pts = limits.sweep(lambda n: n * n + 0.5j, n_list, jobs)
    assert pts == tuple((n, complex(n * n, 0.5)) for n in sorted(n_list))
    assert all(type(v) is complex for _, v in pts)


# --------------------------------------------------------- Gaussian limits

def test_fluctuation_trivial_point():
    ops = dicke.collective_ops(8)
    val = limits.fluctuation_expectation(ops, dicke.ground_state(ops),
                                         0.0, 0.0)
    assert val == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("ab", ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0),
                                (2.0, 1.0)))
def test_gs_gaussian_limit(ab):
    a, b = ab
    pts = []
    for n in (64, 256, 1024):
        ops = dicke.collective_ops(n)
        pts.append((n, limits.fluctuation_expectation(
            ops, dicke.ground_state(ops), a, b)))
    fit = limits.extrapolate(pts)
    target = limits.gaussian_target(a, b)
    assert abs(fit.limit - target) < 0.01 * max(target, 0.1)
    # finite-n deviation is O(1/n)
    assert abs(pts[0][1] - target) < 5.0 / 64


def test_gs_finite_n_deviation_shrinks():
    target = limits.gaussian_target(1.0, 1.0)
    devs = []
    for n in (16, 64, 256):
        ops = dicke.collective_ops(n)
        devs.append(abs(limits.fluctuation_expectation(
            ops, dicke.ground_state(ops), 1.0, 1.0) - target))
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
    got = limits.fluctuation_expectation(ops, dicke.ground_state(ops), a, b)
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
    gauss = limits.fluctuation_expectation(ops, state, a, b)
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


# The Chebyshev rotation against expm_multiply.  Against the exact pure-S_z
# rotation, expm_multiply's own error is 10-100x the Chebyshev sum's (3e-12
# against 4e-14 at n = 20000, |c| = 5); 1e-12 relative leaves room for it
# at the coefficients below.  expm_multiply itself divides 0 by 0 at the
# smallest subnormal coefficient (n = 1, c_z = 5e-324); below rho = 1e-13,
# where exp(i gen) v = v to well inside that tolerance, the oracle is v.
ROTATION_RTOL = 1e-12


def _assert_rotation_matches_expm_multiply(ops, coeffs, denom, spin):
    cx, cy, cz = coeffs
    if math.hypot(*coeffs) * ops.n / denom < 1e-13:
        want = spin
    else:
        gen = (cx * ops.s_x + cy * ops.s_y + cz * ops.s_z) / denom
        want = expm_multiply(1j * gen.tocsc(), spin)
    got = limits._spin_phase_apply(ops, cx, cy, cz, denom, spin)
    assert np.linalg.norm(got - want) <= ROTATION_RTOL * np.linalg.norm(want)


@pytest.mark.parametrize("n", (64, 2000, dicke.MAX_PARTICLES))
@pytest.mark.parametrize("label", ("ground", "bogoliubov(0)", "ceiling"))
@pytest.mark.parametrize("coeffs", ((0.8, -0.45, 0.0), (0.0, 0.0, 0.75)),
                         ids=("xy", "pure_z"))
def test_chebyshev_rotation_matches_expm_multiply(n, label, coeffs):
    ops = dicke.collective_ops(n)
    state = {"ground": dicke.ground_state, "ceiling": _ceiling,
             "bogoliubov(0)": lambda o: dicke.bogoliubov_state(o, 0.0)}[label]
    spin = state(ops).vector.reshape(-1, 2)[:, 1]
    _assert_rotation_matches_expm_multiply(ops, coeffs, np.sqrt(2.0 * n),
                                           spin)


@settings(deadline=None, max_examples=30)
@given(n=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1),
       coeffs=st.tuples(*[st.floats(-3.0, 3.0)] * 3))
@example(n=1, seed=0, coeffs=(0.0, 0.0, 5e-324))
@example(n=1, seed=0, coeffs=(1.0, 0.0, 5e-324))
def test_chebyshev_rotation_random_generator(n, seed, coeffs):
    rng = np.random.default_rng(seed)
    spin = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    _assert_rotation_matches_expm_multiply(dicke.collective_ops(n), coeffs,
                                           np.sqrt(n), spin)


def test_chebyshev_rotation_at_rho_zero_returns_its_argument():
    """Also below the Bessel tail, where e^{i rho x} = 1 to rounding and
    1/rho overflows (|c| N down to the smallest subnormal)."""
    ops = dicke.collective_ops(50)
    spin = dicke.bogoliubov_state(ops, 0.3).vector.reshape(-1, 2)[:, 1]
    for cz in (0.0, 5e-324, 2.3e-308, 1e-20):
        assert limits._spin_phase_apply(ops, 0.0, 0.0, cz, 10.0, spin) \
            is spin


@pytest.mark.parametrize("coeffs", ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                                    (0.6, -0.48, 0.64)),
                         ids=("x", "pure_z", "xyz"))
def test_chebyshev_rotation_at_the_rho_bound(coeffs):
    """At rho = MAX_ROTATION_RHO (denominator n, unit |c|) the sum still
    matches the exponential of the dense generator's eigendecomposition; a
    pure-S_z generator is diagonal, so its exponential is exact."""
    n, bound = 64, limits.MAX_ROTATION_RHO
    ops = dicke.collective_ops(n)
    rng = np.random.default_rng(7)
    spin = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    cx, cy, cz = (bound * c for c in coeffs)
    got = limits._spin_phase_apply(ops, cx, cy, cz, n, spin)
    gen = (cx * ops.s_x + cy * ops.s_y + cz * ops.s_z).toarray() / n
    w, v = np.linalg.eigh(gen)
    want = v @ (np.exp(1j * w) * (v.conj().T @ spin))
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(spin)
    if coeffs == (0.0, 0.0, 1.0):
        exact = np.exp(1j * cz * ops.s_z.diagonal().real / n) * spin
        assert np.linalg.norm(got - exact) <= 1e-11 * np.linalg.norm(spin)


def test_rotation_above_rho_bound_raises_before_building():
    """Just above MAX_ROTATION_RHO, and at an angle whose rho overflows to
    inf or is nan, the rotation raises DimensionError having allocated
    nothing: the Bessel array and the order count grow with rho."""
    ops = dicke.collective_ops(dicke.MAX_PARTICLES)
    spin = dicke.ground_state(ops).vector.reshape(-1, 2)[:, 1]
    bound = limits.MAX_ROTATION_RHO
    tracemalloc.start()
    try:
        for c in (bound + 1.0, 1e308, np.inf, np.nan):
            with pytest.raises(DimensionError, match="exceeds bound"):
                limits._spin_phase_apply(ops, c, 0.0, 0.0, ops.n, spin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5


@pytest.mark.parametrize("rho", (1e-300, 1e-9, 0.5, 2.404825557695773, 30.0,
                                 141.0))
def test_bessel_coefficients_match_mpmath(rho):
    """Miller's recurrence against mpmath J_k(rho) at every kept order, and
    the first dropped order is below the tail; 1e-300 would overflow the
    recurrence."""
    j = limits._bessel_j(rho)
    want = [float(mpmath.besselj(k, rho)) for k in range(j.size + 1)]
    assert np.abs(j - want[:-1]).max() <= 1e-15
    assert abs(want[-1]) < limits.BESSEL_TAIL


# --------------------------------------------------------------- Weyl phase

def test_weyl_phase_trivial():
    ops = dicke.collective_ops(32)
    _, phase = limits.weyl_relation_probe(ops, dicke.ground_state(ops),
                                          0.0, 1.0)
    assert abs(phase) < 1e-12


def test_weyl_phase_limit_and_stability():
    pts = limits.sweep(_in_state(dicke.ground_state, lambda ops, st:
                                 limits.weyl_relation_probe(ops, st, 1.0,
                                                            1.0)[1]),
                       (64, 256, 1024))
    assert limits.extrapolate(pts).limit == pytest.approx(-0.5, abs=1e-3)
    vals = [v.real for _, v in pts]
    assert abs(vals[-1] - vals[-2]) < 1e-3


def test_weyl_phase_antisymmetric_under_order_reversal():
    ops = dicke.collective_ops(256)
    gs = dicke.ground_state(ops)
    _, p_fwd = limits.weyl_relation_probe(ops, gs, 1.0, 1.0)
    _, p_rev = limits.weyl_relation_probe(ops, gs, 1.0, 1.0, reverse=True)
    assert p_fwd == pytest.approx(-p_rev, abs=1e-10)


# -------------------------------------------------------------------- ODLRO

def test_odlro_ceiling_sweep():
    pts = limits.sweep(_in_state(_ceiling, limits.odlro), (50, 100, 200))
    assert abs(limits.extrapolate(pts).limit - 0.5) < 0.01
    # exact finite-n law (n/2)/(n-1)
    for n, v in pts:
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
    collective = (expectation(
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


def test_local_super_derivative_decay():
    pts = limits.sweep(limits.local_super_derivative_norms, (4, 6, 8, 10))
    for n, v in pts:
        assert v.real == pytest.approx(2.0 / np.sqrt(n), abs=1e-12)


def test_local_super_derivative_at_max_sites():
    norm = limits.local_super_derivative_norms(MAX_SITES)
    assert norm == pytest.approx(2.0 / np.sqrt(MAX_SITES), abs=1e-12)


def _embed_site1_clifford(local, n):
    """A 4x4 operator on (site 1, Clifford mode) as (site 1) x 1 x (Clifford)
    on the oracle's 2^(n+1) basis (site 1 most significant, Clifford bit 0)."""
    mid = sparse.identity(2 ** (n - 1), format="csr")
    out = sparse.csr_matrix((2 ** (n + 1),) * 2, dtype=complex)
    for (i, j), x in np.ndenumerate(local):
        site = sparse.csr_matrix(([1.0], ([i >> 1], [j >> 1])), shape=(2, 2))
        cliff = sparse.csr_matrix(([1.0], ([i & 1], [j & 1])), shape=(2, 2))
        out = out + x * sparse.kron(sparse.kron(site, mid), cliff)
    return out


@pytest.mark.parametrize("n", range(2, MAX_SITES + 1))
def test_local_super_derivative_matches_tensor_oracle(n):
    """-i[sigma^(1), G_alpha] touches only site 1 and the Clifford mode."""
    rep = TensorSpinRep(n)
    for alpha in (0.0, 0.7):
        g = rep.g_alpha(alpha)
        for axis, sigma in (("z", rep.sz[0]), ("x", rep.sx[0])):
            oracle = -1j * (sigma @ g - g @ sigma)
            local = limits.local_super_derivative(n, axis, alpha)
            assert local.shape == (4, 4)
            diff = _embed_site1_clifford(local, n) - oracle
            assert abs(diff).max() < 1e-12, (axis, alpha)
    # BS(0) restricted to (site 1, Clifford) is (1, 1)/sqrt 2 x (0, 1)
    bs1 = np.kron(np.ones(2) / np.sqrt(2.0), (0.0, 1.0))
    sx1p = limits.local_super_derivative(n, "x")
    v, g0, sx1 = rep.bogoliubov_vector(0.0), rep.g_alpha(0.0), rep.sx[0]
    literal = -1j * np.vdot(v, sx1 @ (g0 @ v) - g0 @ (sx1 @ v))
    assert abs(literal) < 1e-12
    assert np.vdot(bs1, sx1p @ bs1) == 0.0


def test_local_rotation_identity():
    assert limits.local_rotation_check(0.7) < 1e-9
    assert limits.local_rotation_check(2.0) < 1e-9


@pytest.mark.parametrize("t", (0.0, 0.7, 2.0, -5.3))
def test_local_rotation_unitary_matches_expm(t):
    """The eigh-based exp(-it sigma_x/2) of local_rotation_check against
    scipy's Pade expm."""
    sx = limits._PAULI["x"]
    u = operators.hermitian_function(sx / 2, lambda v: np.exp(-1j * t * v))
    assert np.abs(u - expm(-1j * t * sx / 2)).max() <= 1e-15


# ------------------------------------------------------------- Witten limit

def test_witten_spectrum_and_ground_state():
    """The diagonal read against a dense eigensolve of the same H, and the
    oscillator tower {0, 1, 1, 2, 2, ...} below the truncation edge."""
    model = limits.witten_limit(64)
    levels = model.bulk_levels()
    dense = np.linalg.eigvalsh(model.h.toarray())[:levels.size]
    assert np.abs(levels - dense).max() < 1e-12
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
    g2 = (model.g_alpha @ model.g_alpha).toarray()
    keep = [i for i in range(64) if i // 2 < 22]
    assert np.abs((g2 - model.h.toarray())[np.ix_(keep, keep)]).max() < 1e-10


def test_witten_commutator_bulk():
    model = limits.witten_limit(32)
    q, p = model.q.toarray(), model.p.toarray()
    comm = q @ p - p @ q
    keep = [i for i in range(64) if i // 2 < 24]
    eye = np.eye(64)
    assert np.abs((comm - 1j * eye)[np.ix_(keep, keep)]).max() < 1e-10


def test_witten_cutoff_validation():
    with pytest.raises(ValueError):
        limits.witten_limit(4)


def test_witten_cutoff_above_bound_raises_before_building():
    """Just above MAX_WITTEN_CUTOFF the call raises DimensionError having
    allocated nothing."""
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError):
            limits.witten_limit(limits.MAX_WITTEN_CUTOFF + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5


def test_witten_limit_at_bound_is_sparse_and_small():
    """At MAX_WITTEN_CUTOFF every operator field is CSR and the build peaks
    under 64 MB; one dense (2 cutoff)^2 complex array would be 25.6 GB.  The
    kept levels are the oscillator tower {0, 1, 1, 2, 2, ...} exactly, with
    no truncation artefact from the top level."""
    tracemalloc.start()
    try:
        model = limits.witten_limit(limits.MAX_WITTEN_CUTOFF, 0.7)
        levels = model.bulk_levels()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    for name in ("q", "p", "h", "g_alpha"):
        assert sparse.issparse(getattr(model, name))
        assert getattr(model, name).format == "csr"
    assert levels.size == 3 * limits.MAX_WITTEN_CUTOFF // 2
    assert np.array_equal(levels, np.ceil(np.arange(levels.size) / 2.0))


def test_spectral_convergence_rate():
    pts = limits.sweep(lambda n: limits.spectral_level(
        dicke.collective_ops(n)), (64, 256, 1024))
    fit = limits.extrapolate(pts)
    assert fit.limit == pytest.approx(2.0, abs=1e-8)
    assert 0.8 <= fit.rate <= 1.2
    assert limits.witten_limit(64).bulk_levels()[3] == 2.0
    for n, v in pts:
        assert v.real == pytest.approx(2.0 - 2.0 / n, abs=1e-10)


def test_hss_levels_match_witten_exactly_below_gap():
    vals = dicke.hss_eigenvalues(dicke.collective_ops(128))
    assert np.abs(vals[:2]).max() < 1e-12
    assert np.abs(vals[2:6] - 1.0).max() < 1e-12


# ------------------------------------------------------------ BCS evolution

@pytest.mark.parametrize("n", (2, 64, 256))
@pytest.mark.parametrize("t", (0.3, 1.0, 2.0))
def test_bs_free_evolution_matches_expm_multiply(n, t):
    """The elementwise e^{-itH} against expm_multiply of the sparse H."""
    ops = dicke.collective_ops(n)
    h = -(ops.s_plus @ ops.s_minus).tocsc() / n
    v0 = dicke.coherent_spin_amplitudes(n, 0.0)
    vt = expm_multiply(-1j * t * h, v0)

    def drift(m):
        return float(np.real(np.vdot(vt, m @ (m @ vt))
                             - np.vdot(v0, m @ (m @ v0)))) / n
    assert limits.bs_free_evolution(ops, t) == pytest.approx(
        (drift(ops.s_y), drift(ops.s_z)), abs=1e-12)


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
    for n in (64, 256):
        assert limits.gs_phase_slope(dicke.collective_ops(n)) == \
            pytest.approx(-1.0, abs=1e-10)


@pytest.mark.parametrize("n", (2, 64, 256))
def test_gs_phase_slope_matches_expm_multiply(n):
    """The elementwise e^{-itH_SS} against expm_multiply of the sparse H."""
    ops = dicke.collective_ops(n)
    h = dicke.build_hss_dicke(ops).tocsc()
    w = ops.s_plus_full @ dicke.ground_state(ops).vector / np.sqrt(n)
    want = np.mean([np.angle(np.vdot(w, expm_multiply(-1j * t * h, w))) / t
                    for t in (0.5, 1.0, 2.0)])
    assert limits.gs_phase_slope(ops) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("evolve", (
    lambda: limits.gs_phase_slope(dicke.collective_ops(4)),
    lambda: limits.bs_free_evolution(dicke.collective_ops(4), 1.0)))
def test_time_evolutions_refuse_a_non_diagonal_h(monkeypatch, evolve):
    """Both evolutions apply e^{-itH} elementwise only after checking that
    H is diagonal."""
    def off_diagonal(h):
        raise ValueError("H is not diagonal in its basis")
    monkeypatch.setattr(limits, "diagonal_eigenvalues", off_diagonal)
    with pytest.raises(ValueError, match="not diagonal"):
        evolve()


def test_bs_super_growth_sqrt_n():
    pts = limits.sweep(lambda n: limits.bs_eta_prime(
        dicke.collective_ops(n)), (16, 64, 256))
    assert limits.power_growth_fit(pts).rate == pytest.approx(0.5, abs=1e-6)
    for n, v in pts:
        assert abs(v) == pytest.approx(np.sqrt(n) / 2, abs=1e-9)


def test_macroscopic_triples():
    ops = dicke.collective_ops(100)
    gs = limits.macroscopic_triple(ops, dicke.ground_state(ops))
    assert gs == pytest.approx((0.0, 0.0, -1.0), abs=1e-12)
    bs = limits.macroscopic_triple(ops, dicke.bogoliubov_state(ops, 0.0))
    assert bs == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)


def test_macroscopic_ceiling_isometry():
    ops = dicke.collective_ops(200)
    _, psi2 = dicke.ceiling_state_ladder(ops)
    assert limits.ceiling_isometry(ops, psi2) == pytest.approx(
        1.0 + 2.0 / 200, abs=1e-10)


def test_mesoscopic_divergence_classification():
    ns = (50, 100, 200)
    ceiling = limits.sweep(_in_state(_ceiling, limits.mesoscopic_variance),
                           ns)
    slope, divergent = limits.variance_divergence(ceiling)
    assert divergent
    assert slope == pytest.approx(0.5, abs=0.05)
    gs = limits.sweep(_in_state(dicke.ground_state,
                                limits.mesoscopic_variance), ns)
    assert not limits.variance_divergence(gs)[1]
    assert gs[-1][1].real == pytest.approx(1.0, abs=1e-10)
    # a Bogoliubov state is measured centred, (S_x - N)/sqrt N
    bs = limits.sweep(_in_state(lambda o: dicke.bogoliubov_state(o, 0.0),
                                limits.mesoscopic_variance), ns)
    assert not limits.variance_divergence(bs)[1]
    assert abs(bs[-1][1]) < 1e-9


def test_collective_m_norm_law():
    for n in (1, 2, 3, 4, 10, 101):
        k = n // 2
        exact = np.sqrt((k + 1) * (n - k) / n)
        assert limits.collective_m_norm(n) == pytest.approx(exact, abs=1e-12)
    # approaches sqrt(n)/2 from above, ratio sqrt(1 + 2/n)
    ratio = limits.collective_m_norm(10000) / (np.sqrt(10000) / 2)
    assert ratio == pytest.approx(1.0, abs=2e-4)

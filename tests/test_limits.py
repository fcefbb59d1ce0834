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

from susylattice import dicke, limits, models, operators
from susylattice.operators import DimensionError, lift
from expect import (SparseDicke, bessel_j_array, build_g_alpha_dicke,
                    build_hss_dicke, csr, expectation, read_only_sparse,
                    witten_ground_vector)
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


@pytest.mark.parametrize("power", (1, 3))
def test_sweep_returns_ascending_points(power):
    n_list = [9, 2, 40, 5, 17, 3]
    pts = limits.sweep(lambda n: n ** power + 0.5j, n_list)
    assert pts == tuple((n, complex(n ** power, 0.5)) for n in sorted(n_list))
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


def _rotated(ops, cx, cy, cz, denom, spin):
    """limits._spin_phase_apply of the whole vector `spin`, scattered into
    zeros of its length."""
    lo, rows = limits._spin_phase_apply(ops, cx, cy, cz, denom, spin)
    out = np.zeros(spin.shape, dtype=complex)
    out[lo:lo + len(rows)] = rows
    return out


def _dense_rotation(ops, cx, cy, cz, denom):
    gen = (cx * ops.s_x + cy * ops.s_y + cz * ops.s_z).toarray() / denom
    return expm(1j * gen)


@pytest.mark.parametrize("n", (8, 64))
@pytest.mark.parametrize("label", ("ceiling", "bogoliubov(0.4)"))
def test_matrix_free_probes_match_dense_expm(n, label):
    """States without a product closed form: the matrix-free probes against
    a dense expm of the same generator."""
    ops = SparseDicke(n)
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
        got = _rotated(ops, cx, cy, cz, np.sqrt(n), spin)
        dense = _dense_rotation(ops, cx, cy, cz, np.sqrt(n)) @ spin
        assert np.abs(got - dense).max() <= 1e-12


# The Chebyshev rotation against expm_multiply.  Against the exact pure-S_z
# rotation, expm_multiply's own error is 10-100x the Chebyshev sum's (3e-12
# against 4e-14 at n = 20000, |c| = 5); 1e-12 relative leaves room for it
# at the coefficients below.
ROTATION_RTOL = 1e-12


def _eigh_rotation(ops, coeffs, denom, spin):
    """exp(i gen) spin from the dense generator's eigendecomposition."""
    cx, cy, cz = coeffs
    gen = (cx * ops.s_x + cy * ops.s_y + cz * ops.s_z).toarray() / denom
    w, v = np.linalg.eigh(gen)
    return v @ (np.exp(1j * w) * (v.conj().T @ spin))


@pytest.mark.parametrize("n", (64, 2000, dicke.MAX_PARTICLES))
@pytest.mark.parametrize("label", ("ground", "bogoliubov(0)", "ceiling"))
@pytest.mark.parametrize("coeffs", ((0.8, -0.45, 0.0), (0.0, 0.0, 0.75)),
                         ids=("xy", "pure_z"))
def test_chebyshev_rotation_matches_expm_multiply(n, label, coeffs):
    ops = SparseDicke(n)
    state = {"ground": dicke.ground_state, "ceiling": _ceiling,
             "bogoliubov(0)": lambda o: dicke.bogoliubov_state(o, 0.0)}[label]
    spin = state(ops).vector.reshape(-1, 2)[:, 1]
    cx, cy, cz = coeffs
    gen = (cx * ops.s_x + cy * ops.s_y + cz * ops.s_z) / np.sqrt(2.0 * n)
    want = expm_multiply(csr(1j * gen), spin)
    got = _rotated(ops, cx, cy, cz, np.sqrt(2.0 * n), spin)
    assert np.linalg.norm(got - want) <= ROTATION_RTOL * np.linalg.norm(want)


@settings(deadline=None, max_examples=30)
@given(n=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1),
       coeffs=st.tuples(*[st.floats(-3.0, 3.0)] * 3))
@example(n=1, seed=0, coeffs=(0.0, 0.0, 5e-324))
@example(n=1, seed=0, coeffs=(1.0, 0.0, 5e-324))
def test_chebyshev_rotation_random_generator(n, seed, coeffs):
    """Against the dense eigendecomposition, which is good to 3e-14 here:
    expm_multiply's own error reaches 8e-13 at n = 400, |c| = 5, too close
    to ROTATION_RTOL for an oracle, and it divides 0 by 0 at the smallest
    subnormal coefficient (n = 1, c_z = 5e-324)."""
    ops = SparseDicke(n)
    rng = np.random.default_rng(seed)
    spin = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    got = _rotated(ops, *coeffs, np.sqrt(n), spin)
    want = _eigh_rotation(ops, coeffs, np.sqrt(n), spin)
    assert np.linalg.norm(got - want) <= ROTATION_RTOL * np.linalg.norm(want)


def test_chebyshev_rotation_at_rho_zero_returns_its_argument():
    """Also below the Bessel tail, where e^{i rho x} = 1 to rounding and
    1/rho overflows (|c| N down to the smallest subnormal)."""
    ops = dicke.collective_ops(50)
    spin = dicke.bogoliubov_state(ops, 0.3).vector.reshape(-1, 2)[:, 1]
    for cz in (0.0, 5e-324, 2.3e-308, 1e-20):
        assert limits._spin_phase_apply(ops, 0.0, 0.0, cz, 10.0, spin)[1] \
            is spin


@pytest.mark.parametrize("coeffs", ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                                    (0.6, -0.48, 0.64)),
                         ids=("x", "pure_z", "xyz"))
def test_chebyshev_rotation_at_the_rho_bound(coeffs):
    """At rho = MAX_ROTATION_RHO (denominator n, unit |c|) the sum still
    matches the exponential of the dense generator's eigendecomposition; a
    pure-S_z generator is diagonal, so its exponential is exact."""
    n, bound = 64, limits.MAX_ROTATION_RHO
    ops = SparseDicke(n)
    rng = np.random.default_rng(7)
    spin = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    cx, cy, cz = (bound * c for c in coeffs)
    got = _rotated(ops, cx, cy, cz, n, spin)
    want = _eigh_rotation(ops, (cx, cy, cz), n, spin)
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


def _diagonal(m, k):
    """Diagonal k of the square Sparse m (k = -1 the first subdiagonal),
    with the zeros it does not store."""
    out = np.zeros(m.shape[0] - abs(k), dtype=m.data.dtype)
    on = m.cols - m.rows == k
    out[m.rows[on] + min(k, 0)] = m.data[on]
    return out


def _full_length_rotation(ops, cx, cy, cz, denom, spin):
    """The Chebyshev-Bessel sum over every row of the multiplet, the
    diagonals of 2x read off the CSR generator: the light-cone kernel's
    reference."""
    rho = math.hypot(cx, cy, cz) * ops.n / denom
    two_x = (cx * ops.s_x + cy * ops.s_y + cz * ops.s_z) * (2.0 / (rho * denom))
    lower, diag, upper = (_diagonal(two_x, k) for k in (-1, 0, 1))

    def times_two_x(u):
        out = diag * u
        out[1:] += lower * u[:-1]
        out[:-1] += upper * u[1:]
        return out

    bessel = limits._bessel_j(rho)
    coef = 2.0 * bessel * limits._I_POWERS[np.arange(bessel.size) % 4]
    total = bessel[0] * spin
    prev, cur = spin, 0.5 * times_two_x(spin)
    for c in coef[1:]:
        total += c * cur
        prev, cur = cur, times_two_x(cur) - prev
    return total


@pytest.mark.parametrize("n", (64, 2000, dicke.MAX_PARTICLES))
@pytest.mark.parametrize("label", ("ground", "ceiling", "top", "bogoliubov(0)"))
@pytest.mark.parametrize("coeffs", ((0.8, -0.45, 0.0), (0.0, 0.0, 0.75),
                                    (0.3, -0.5, 0.9)),
                         ids=("xy", "pure_z", "xyz"))
def test_light_cone_rotation_is_the_full_length_sum(n, label, coeffs):
    """From a basis vector (either end of the multiplet, or the middle) or
    BS(0), the light-cone recurrence equals the full-length one bit for
    bit."""
    ops = SparseDicke(n)
    if label == "bogoliubov(0)":
        spin = dicke.coherent_spin_amplitudes(n, 0.0).astype(complex)
    else:
        spin = np.zeros(n + 1, dtype=complex)
        spin[{"ground": 0, "ceiling": n // 2, "top": n}[label]] = 1.0
    denom = np.sqrt(2.0 * n)
    got = _rotated(ops, *coeffs, denom, spin)
    assert np.array_equal(got, _full_length_rotation(ops, *coeffs, denom,
                                                     spin))


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1),
       coeffs=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
       cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_light_cone_rotation_random_vectors(n, seed, coeffs, cut):
    """Dense random vectors, zero outside a drawn run of rows (possibly the
    whole multiplet, one row or none): the light-cone recurrence equals the
    full-length one bit for bit."""
    assume(math.hypot(*coeffs) * n / np.sqrt(n) >= 2.0 * limits.BESSEL_TAIL)
    ops = SparseDicke(n)
    rng = np.random.default_rng(seed)
    lo, hi = sorted(int(c * (n + 2)) for c in cut)
    spin = np.zeros(n + 1, dtype=complex)
    spin[lo:hi] = (rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))[lo:hi]
    got = _rotated(ops, *coeffs, np.sqrt(n), spin)
    assert np.array_equal(got, _full_length_rotation(ops, *coeffs, np.sqrt(n),
                                                     spin))


def _full_block_overlap(ops, state, rotations, denom):
    """_rotation_overlap as it read before spans: each nonzero Clifford
    block turned, then its vdot over all N + 1 rows."""
    total = 0.0 + 0.0j
    for block in state.vector.reshape(-1, 2).T:
        if block.any():
            u = block
            for cx, cy, cz in rotations:
                u = _rotated(ops, cx, cy, cz, denom, u)
            total += np.vdot(block, u)
    return complex(total)


# one rotation (gaussian, bs_gaussian) and the two-factor Weyl product
_ROTATIONS = (((0.7, -0.3, 0.0),), ((0.0, 1.0, 0.0),), ((0.0, 0.0, 0.5),),
              ((0.0, -0.3, 0.0), (0.7, 0.0, 0.0)))


@pytest.mark.parametrize("n,label", (
    *((n, "ground") for n in (10001, 16000, 20000)),
    (10001, "middle"), (16000, "ceiling"), (20000, "ceiling"),
    *((n, "bogoliubov(0)") for n in (16, 64, 256))))
def test_rotation_overlap_over_the_span_is_the_full_block_vdot(n, label):
    """The overlap over the state's span equals the full-block vdot exactly:
    at basis states (the ground state, the ceiling, the middle of an odd
    multiplet) at the sizes where the full-block vdot stalled, and at BS(0)
    at the sizes the goldens pin, where its span is every row."""
    ops = dicke.collective_ops(n)
    state = {"ground": dicke.ground_state, "ceiling": dicke.ceiling_state,
             "middle": lambda o: dicke._basis_state(n, n // 2, "middle"),
             "bogoliubov(0)": lambda o: dicke.bogoliubov_state(o, 0.0)}[
                 label](ops)
    for rotations in _ROTATIONS:
        for denom in (np.sqrt(2.0 * n), np.sqrt(n)):
            assert limits._rotation_overlap(ops, state, rotations, denom) \
                == _full_block_overlap(ops, state, rotations, denom)


def _full_vector_reductions(ops, state):
    """The span reductions as they read before spans: every operator
    lifted to CSR and every vdot over the whole vector."""
    v = state.vector
    sx, sp, sm = lift(ops.s_x), lift(ops.s_plus), lift(ops.s_minus)
    moments = (float(np.real(np.vdot(v, sx @ v))),
               float(np.real(np.vdot(v, sx @ (sx @ v)))))
    triple = tuple(float(np.real(np.vdot(v, lift(m) @ v))) / ops.n
                   for m in (ops.s_x, ops.s_y, ops.s_z))
    isometry = float(4.0 * np.real(np.vdot(v, sp @ (sm @ v))) / ops.n ** 2)
    return moments, triple, isometry


@pytest.mark.parametrize("n", (16000, dicke.MAX_PARTICLES))
def test_span_reductions_equal_the_full_vector_on_basis_states(n):
    """A basis state has one nonzero amplitude, so reading its span alone
    gives exactly the full-vector values: at the ground state, the ceiling
    pair and the top of the multiplet, where the window is clipped."""
    ops = SparseDicke(n)
    states = (dicke.ground_state(ops), *dicke.ceiling_state_ladder(ops),
              dicke._basis_state(n, n, "top"))
    for state in states:
        assert state.span[1] - state.span[0] == 1
        got = (limits._sx_moments(ops, state),
               limits.macroscopic_triple(ops, state),
               limits.ceiling_isometry(ops, state))
        assert got == _full_vector_reductions(ops, state), state.label


def test_span_is_the_run_of_nonzero_rows():
    ops = dicke.collective_ops(40)
    assert dicke.ground_state(ops).span == (0, 1)
    assert dicke.ceiling_state(ops).span == (20, 21)
    assert dicke.bogoliubov_state(ops, 0.3).span == (0, 41)
    lo, rows = dicke.ceiling_state(ops).rows(2)
    assert lo == 18 and rows.shape == (5, 2)
    lo, rows = dicke.ground_state(ops).rows(2)
    assert lo == 0 and rows.shape == (3, 2)


def test_collective_cells_build_no_sparse_matrix(monkeypatch, capsys):
    """With the Sparse constructor raising, `tables`, `spectrum --model
    dicke` at the particle cap and every cli.SWEEP pair still run and pass:
    their cells read amplitude arrays and build no sparse matrix, and
    DickeOperators has no matrix-valued attribute left.  One call is
    exempt: the `spectral` target row reads the Witten limit model
    witten_limit(64), which is Sparse by design, so that model is built
    before the constructor refuses and handed back by a stub."""
    from susylattice import cli

    monkeypatch.setattr(limits, "witten_limit",
                        {64: limits.witten_limit(64)}.__getitem__)

    def refuse(*args, **kwargs):
        raise AssertionError("a collective cell built a sparse matrix")

    monkeypatch.setattr(operators.Sparse, "__init__", refuse)
    for name in ("matrix", "s_plus", "s_minus", "s_x", "s_y", "s_z"):
        assert not hasattr(dicke.DickeOperators(16000), name), name
    runs = [["tables"],
            ["spectrum", "--model", "dicke", "--n",
             str(dicke.MAX_PARTICLES)],
            ["sweep", "--state", "ceiling", "--metric", "odlro", "--n-list",
             "1024,4096,16000"]]
    for metric, state in cli.SWEEP:
        runs.append(["sweep", "--metric", metric, "--n-list", "64,256,1024",
                     *(["--state", state] if state else [])])
    for argv in runs:
        assert cli.main(argv) == 0, argv
        assert "fail" not in capsys.readouterr().out, argv


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


@pytest.mark.parametrize("rho", (1e-15, 1e-8, 1e-5, 1e-3, 0.5, 38.93, 2000.0))
def test_float_bessel_recurrence_is_the_array_one_bit_for_bit(rho):
    """Miller's recurrence on Python floats gives the bytes of the numpy
    array recurrence it replaced, from a float or a numpy rho, on both
    sides of the 1e-200 rescale (taken below rho of about 1e-4)."""
    want, rescaled = bessel_j_array(np.float64(rho))
    assert rescaled == (rho < 1e-4)
    for arg in (rho, np.float64(rho)):
        got = limits._bessel_j(arg)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_ground_and_ceiling_sweeps_stay_on_the_light_cone(monkeypatch,
                                                           capsys):
    """The ground- and ceiling-state sweeps form no full-length ladder
    array, build no vector by np.kron and turn no full-length vector:
    every window DickeOperators computes, and every run of rows a rotation
    starts from, is shorter than the multiplet."""
    from susylattice import cli

    window, turn = dicke.DickeOperators.window, limits._spin_phase_apply

    def short_window(ops, lo=0, hi=None):
        amp, sz = window(ops, lo, hi)
        assert sz.size < ops.n, (ops.n, lo, hi)
        return amp, sz

    def short_turn(ops, cx, cy, cz, denom, rows, lo=0):
        assert len(rows) < ops.n, (ops.n, lo, len(rows))
        return turn(ops, cx, cy, cz, denom, rows, lo)

    def refuse(*args, **kwargs):
        raise AssertionError("a light-cone cell built a Kronecker product")

    monkeypatch.setattr(dicke.DickeOperators, "window", short_window)
    monkeypatch.setattr(limits, "_spin_phase_apply", short_turn)
    monkeypatch.setattr(np, "kron", refuse)
    for metric, state in (("gaussian", "ground"), ("weyl_phase", "ground"),
                          ("odlro", "ground"), ("odlro", "ceiling"),
                          ("meso_variance", "ground"),
                          ("meso_variance", "ceiling"),
                          ("isometry", "ceiling")):
        argv = ["sweep", "--metric", metric, "--state", state, "--n-list",
                "1024,4096,16000"]
        assert cli.main(argv) == 0, argv
        assert "fail" not in capsys.readouterr().out, argv
    with pytest.raises(AssertionError):
        dicke.collective_ops(16).amp
    with pytest.raises(AssertionError):
        limits._spin_phase_apply(dicke.collective_ops(16), 1.0, 0.0, 0.0,
                                 4.0, np.ones(17))


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
    ops = SparseDicke(n)
    bs = dicke.bogoliubov_state(ops, 0.25)
    collective = (expectation(
        bs, lift(ops.s_x @ ops.s_x)).real - n) / (n * (n - 1))
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
            diff = _embed_site1_clifford(local, n) - csr(oracle)
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
    v0 = witten_ground_vector(model)
    assert np.linalg.norm(model.h @ v0) < 1e-12
    assert np.linalg.norm((model.q + 1j * model.p) @ v0) < 1e-12


def test_witten_ground_alpha_independent():
    v0 = witten_ground_vector(limits.witten_limit(32))
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
    """At MAX_WITTEN_CUTOFF every operator field is Sparse and the build
    peaks under 64 MB; one dense (2 cutoff)^2 complex array would be
    25.6 GB.  The kept levels are the oscillator tower {0, 1, 1, 2, 2, ...}
    exactly, with no truncation artefact from the top level."""
    tracemalloc.start()
    try:
        model = limits.witten_limit(limits.MAX_WITTEN_CUTOFF, 0.7)
        levels = model.bulk_levels()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    for name in ("q", "p", "h", "g_alpha"):
        assert read_only_sparse(getattr(model, name))
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
    ops = SparseDicke(n)
    h = csr(-(ops.s_plus @ ops.s_minus) / n)
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
    ops = SparseDicke(32)
    h = (ops.s_plus @ ops.s_minus) / 32
    comm = h @ ops.s_z - ops.s_z @ h
    assert abs(comm).max() < 1e-12


# ----------------------------------- array forms against the Sparse oracle

def _hss_form(ops, alpha):
    return dicke.hss_diagonal(ops), build_hss_dicke(ops).diagonal()


def _free_evolution_form(ops, alpha):
    """bs_free_evolution at two times, and the Sparse build it replaced."""
    n, want = ops.n, []
    h = -(ops.s_plus @ ops.s_minus) / n
    v0 = dicke.coherent_spin_amplitudes(n, 0.0)
    sy, sz = ops.s_y, ops.s_z
    q2 = lambda v: float(np.real(np.vdot(v, sy @ (sy @ v)))) / n
    p2 = lambda v: float(np.real(np.vdot(v, sz @ (sz @ v)))) / n
    for t in (0.3, 1.0):
        vt = np.exp(-1j * t * h.diagonal()) * v0
        want += [q2(vt) - q2(v0), p2(vt) - p2(v0)]
    got = [d for t in (0.3, 1.0) for d in limits.bs_free_evolution(ops, t)]
    return np.array(got), np.array(want)


def _phase_slope_form(ops, alpha):
    h = build_hss_dicke(ops).diagonal()
    g = dicke.ground_state(ops).vector
    w = ops.lift_apply("s_plus", g.reshape(-1, 2)).ravel() / np.sqrt(ops.n)
    want = float(np.mean([np.angle(np.vdot(w, np.exp(-1j * t * h) * w)) / t
                          for t in (0.5, 1.0, 2.0)]))
    return limits.gs_phase_slope(ops), want


def _eta_prime_form(ops, alpha):
    """|<BS(alpha)| eta' |BS(alpha)>|."""
    eta = lift(operators.Sparse.from_diagonals({0: np.ones(ops.n + 1)}),
               operators.ETA)
    etap = -1j * operators.bracket(eta, build_g_alpha_dicke(ops, alpha))
    v = dicke.bogoliubov_state(ops, alpha).vector
    want = np.vdot(v, etap @ v)
    return limits.bs_eta_prime(ops, alpha), abs(want)


def _sz_prime_form(ops, alpha):
    """S_z' on the ground, ceiling (even N), BS(0.4) and a random state."""
    szp = -1j * operators.bracket(lift(ops.s_z),
                                  build_g_alpha_dicke(ops, alpha))
    rng = np.random.default_rng(ops.n)
    states = [dicke.ground_state(ops).vector,
              dicke.bogoliubov_state(ops, 0.4).vector,
              rng.normal(size=ops.dim) + 1j * rng.normal(size=ops.dim)]
    if ops.n % 2 == 0:
        states.append(dicke.ceiling_state(ops).vector)
    return (np.array([limits.sz_prime_apply(ops, v, alpha) for v in states]),
            np.array([szp @ v for v in states]))


def _bcs_form(ops, alpha):
    """The Sparse fields of build_bcs(n, "dicke"), read as bytes."""
    bcs = models.build_bcs(ops.n, "dicke")
    want = (-lift(ops.s_plus @ ops.s_minus) / ops.n, build_hss_dicke(ops))
    return ([bcs.diff_norm] + [getattr(m, a) for m in (bcs.h_bcs, bcs.h_ss)
                                for a in ("rows", "cols", "data")],
            [operators.hermitian_norm(want[0] + want[1])]
            + [getattr(m, a) for m in want for a in ("rows", "cols", "data")])


# form -> (new, oracle) at (ops, alpha); the gauged ones run at every alpha
_ARRAY_FORMS = {"hss_diagonal": _hss_form, "bs_free_evolution":
                _free_evolution_form, "gs_phase_slope": _phase_slope_form,
                "eta_prime": _eta_prime_form, "sz_prime": _sz_prime_form,
                "build_bcs_dicke": _bcs_form}
_GAUGED = ("eta_prime", "sz_prime")


def _same_bits(got, want):
    got, want = (np.ascontiguousarray(np.atleast_1d(x)) for x in (got, want))
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("n", (1, 2, 3, 4, 8, 200, 256, 1000))
@pytest.mark.parametrize("form", sorted(_ARRAY_FORMS))
def test_array_forms_are_the_sparse_build_bit_for_bit(form, n):
    """Each array form of the collective layer holds the IEEE bits, signed
    zeros included, of the Sparse build in tests/expect.py that it
    replaced: the phase, the 0.0 + of the Sparse sum and the 1/sqrt N in
    the order of gauge_charge, and every apply summed into zeros in
    column order."""
    ops = SparseDicke(n)
    for alpha in (0.0, 0.9, 1.0, -2.0) if form in _GAUGED else (0.0,):
        got, want = _ARRAY_FORMS[form](ops, alpha)
        if not isinstance(got, list):
            got, want = [got], [want]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert _same_bits(g, w), (alpha, g, w)


# ------------------------------------------------ three-scale table pieces

def test_gs_phase_slope_exact():
    for n in (64, 256):
        assert limits.gs_phase_slope(dicke.collective_ops(n)) == \
            pytest.approx(-1.0, abs=1e-10)


@pytest.mark.parametrize("n", (2, 64, 256))
def test_gs_phase_slope_matches_expm_multiply(n):
    """The elementwise e^{-itH_SS} against expm_multiply of the sparse H."""
    ops = SparseDicke(n)
    h = csr(build_hss_dicke(ops))
    w = lift(ops.s_plus) @ dicke.ground_state(ops).vector / np.sqrt(n)
    want = np.mean([np.angle(np.vdot(w, expm_multiply(-1j * t * h, w))) / t
                    for t in (0.5, 1.0, 2.0)])
    assert limits.gs_phase_slope(ops) == pytest.approx(want, abs=1e-12)


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

"""Large-N probes: fluctuation operators and their Gaussian/Weyl limits,
ODLRO, the truncated-oscillator limit model, BCS free evolution, macroscopic
expectation triples, and the extrapolation fits that make "converges to X"
falsifiable.

Derivative identities are exact operator identities at every finite n and are
checked at machine precision; everything genuinely asymptotic is a one-n
cell swept over an n-list by `sweep` and handed to one of the fits.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import dicke
from .operators import (DimensionError, bracket, diagonal_eigenvalues,
                        gauge_charge, hermitian_function)

# one-site Paulis in the (up, down) basis; _LOWER is sigma_+ there and eta
# on the Clifford mode
_PAULI = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
         "y": np.array([[0, -1j], [1j, 0]]),
         "z": np.array([[1, 0], [0, -1]], dtype=complex)}
_LOWER = np.array([[0, 1], [0, 0]], dtype=complex)


@dataclass(frozen=True)
class FitResult:
    """a + b n^(-p) least-squares fit; p is nan for a constant series."""

    limit: float
    rate: float
    residual: float


def sweep(cell, n_list, jobs=1):
    """Evaluate the one-n probe `cell` at every n of `n_list` on `jobs`
    threads; returns ((n, complex value), ...) ascending in n."""
    ns = sorted(n_list)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return tuple((n, complex(v)) for n, v in zip(ns, pool.map(cell, ns)))


# bounds on the fitted rate p of a + b n^(-p)
RATE_BOUNDS = (0.05, 8.0)


def _difference_ratio(ns, p):
    """R(p) = (n2^-p - n1^-p)/(n1^-p - n0^-p), strictly decreasing in p
    from log(n2/n1)/log(n1/n0) at p -> 0 to 0 at p -> inf; expm1 keeps
    both differences exact to rounding at small p."""
    l1, l2 = math.log(ns[1] / ns[0]), math.log(ns[2] / ns[1])
    return math.exp(-p * l1) * math.expm1(-p * l2) / math.expm1(-p * l1)


def _three_point_rate(ns, d1, d2):
    """The p in RATE_BOUNDS with R(p) = d2/d1, by bisection; the nearer
    bound when R does not bracket d2/d1 on RATE_BOUNDS."""
    lo, hi = RATE_BOUNDS
    ratio = d2 / d1 if d1 != 0.0 else math.copysign(math.inf, d2)
    if ratio >= _difference_ratio(ns, lo):
        return lo
    if ratio <= _difference_ratio(ns, hi):
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if _difference_ratio(ns, mid) > ratio:
            lo = mid
        else:
            hi = mid


def extrapolate(points):
    """Fit value(n) = a + b n^(-p) over the three largest-n points.

    A geometric n-triple (n, rn, r^2 n) admits the closed form
    p = log(d1/d2)/log r with d_k the successive differences.  Any other
    triple is interpolated exactly: p solves R(p) = d2/d1 (see
    `_difference_ratio`) within RATE_BOUNDS, and a, b follow from the
    first two points.  Data that need p outside RATE_BOUNDS get p at the
    nearer bound and (a, b) by least squares over all three points.  A
    constant series returns the constant with rate nan.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 points to extrapolate")
    tail = sorted(points, key=lambda t: t[0])[-3:]
    ns = np.array([float(n) for n, _ in tail])
    if not ns[0] < ns[1] < ns[2]:
        raise ValueError("need three distinct n to extrapolate")
    ys = np.array([float(np.real(v)) for _, v in tail])
    d1, d2 = ys[1] - ys[0], ys[2] - ys[1]
    if abs(d1) < 1e-14 and abs(d2) < 1e-14:
        return FitResult(limit=ys[-1], rate=float("nan"), residual=0.0)
    r1, r2 = ns[1] / ns[0], ns[2] / ns[1]
    if abs(r1 - r2) < 1e-12 and d1 * d2 > 0 and abs(d2) < abs(d1):
        # exact 3-point solution on a geometric grid
        p = np.log(d1 / d2) / np.log(r1)
    else:
        p = _three_point_rate(ns, float(d1), float(d2))
        if p in RATE_BOUNDS:
            basis = np.column_stack([np.ones(3), (ns / ns[0]) ** (-p)])
            coef = np.linalg.lstsq(basis, ys)[0]
            return FitResult(limit=float(coef[0]), rate=float(p),
                             residual=float(np.linalg.norm(basis @ coef - ys)))
    b = d1 / (ns[1] ** (-p) - ns[0] ** (-p))
    a = ys[0] - b * ns[0] ** (-p)
    res = abs(a + b * ns[2] ** (-p) - ys[2])
    return FitResult(limit=float(a), rate=float(p), residual=float(res))


# Jacobi-Anger orders whose Bessel coefficient falls below this are dropped
BESSEL_TAIL = 1e-16

# Largest rotation angle rho = |c| N/denom: about rho + 11 rho^(1/3) orders
# of O(N) each.  rho = 2000 took 0.6 s at N = 20000 on 2 vCPU.
MAX_ROTATION_RHO = 2000

# i^k, exactly
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _bessel_j(rho):
    """J_0(rho), ..., J_K(rho) for rho > 0, with K the last order where
    |J_K(rho)| >= BESSEL_TAIL.

    Miller's backward recurrence J_{k-1} = (2k/rho) J_k - J_{k+1} from
    J_top = 1, J_{top+1} = 0, normalised by J_0 + 2 sum_k J_2k = 1
    (Abramowitz & Stegun 9.1.27, 9.1.46).  top lies 15 rho^(1/3) + 40
    orders past the turning point k = rho, where J_top(rho) < 1e-24 for
    every rho; the recurrence is rescaled before it can overflow.  Below
    rho = 2 BESSEL_TAIL, J_0 = 1 to rounding and J_1 = rho/2 is already
    under the tail (and 2k/rho could overflow).
    """
    if rho < 2.0 * BESSEL_TAIL:
        return np.ones(1)
    top = int(rho + 15.0 * rho ** (1.0 / 3.0) + 40.0)
    j = np.zeros(top + 2)
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = 2.0 * k / rho * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e200:
            j[k - 1:] *= 1e-200
    j /= j[0] + 2.0 * j[2::2].sum()
    return j[:np.flatnonzero(np.abs(j) >= BESSEL_TAIL)[-1] + 1]


def _spin_phase_apply(ops, cx, cy, cz, denom, spin_vec):
    """exp{i(cx S_x + cy S_y + cz S_z)/denom} applied to a multiplet vector.

    The generator g = c.S/denom is tridiagonal with the exact spectrum
    |c| {-N, -N+2, ..., N}/denom, so with rho = |c| N/denom the
    Jacobi-Anger expansion e^{i rho x} = J_0(rho) + 2 sum_k i^k J_k(rho)
    T_k(x) on x = g/rho needs no norm estimate: the Chebyshev propagator of
    Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984).  T_k(x) v follows
    the three-term recurrence, each product taken from numpy slices of the
    three diagonals of 2x: O(n) time and memory per order, about
    rho + 11 rho^(1/3) orders.  rho < 2 BESSEL_TAIL (J_0 = 1) returns
    `spin_vec` itself; rho above MAX_ROTATION_RHO (or nan) raises
    DimensionError before any work.
    """
    rho = math.hypot(cx, cy, cz) * ops.n / denom
    if not rho <= MAX_ROTATION_RHO:
        raise DimensionError(f"rotation angle rho = {rho:g} exceeds bound "
                             f"{MAX_ROTATION_RHO}")
    if rho < 2.0 * BESSEL_TAIL:
        return spin_vec
    scale = 2.0 / (rho * denom)
    two_x = (cx * ops.s_x + cy * ops.s_y + cz * ops.s_z) * scale
    lower, diag, upper = (two_x.diagonal(k) for k in (-1, 0, 1))

    def times_two_x(u):
        out = diag * u
        out[1:] += lower * u[:-1]
        out[:-1] += upper * u[1:]
        return out

    bessel = _bessel_j(rho)
    coef = 2.0 * bessel * _I_POWERS[np.arange(bessel.size) % 4]
    total = bessel[0] * spin_vec
    prev, cur = spin_vec, 0.5 * times_two_x(spin_vec)
    for c in coef[1:]:
        total += c * cur
        prev, cur = cur, times_two_x(cur) - prev
    return total


def _rotation_overlap(ops, state, rotations, denom):
    """<state| R_k ... R_1 |state> for the collective rotations
    R_j = exp{i(cx S_x + cy S_y + cz S_z)/denom}, (cx, cy, cz) the j-th
    entry of `rotations`.  They act trivially on the Clifford factor, so
    each nonzero Clifford block of the spin-major vector turns alone."""
    total = 0.0 + 0.0j
    for block in state.vector.reshape(-1, 2).T:
        if np.linalg.norm(block) > 0:
            u = block
            for cx, cy, cz in rotations:
                u = _spin_phase_apply(ops, cx, cy, cz, denom, u)
            total += np.vdot(block, u)
    return complex(total)


def fluctuation_expectation(ops, state, alpha, beta):
    """<state| exp{i(alpha S_x - beta S_y)/sqrt(2N)} |state>, exactly."""
    return _rotation_overlap(ops, state, [(alpha, -beta, 0.0)],
                             np.sqrt(2.0 * ops.n))


def gaussian_target(alpha, beta):
    """Limiting ground-state value exp(-(alpha^2 + beta^2)/4)."""
    return float(np.exp(-(alpha ** 2 + beta ** 2) / 4.0))


def weyl_relation_probe(ops, state, alpha, beta, reverse=False):
    """(product expectation, inferred phase) of W(alpha,0) W(0,beta).

    The phase is the argument of the product expectation divided by the
    Gaussian modulus; the limiting value is what the sweep extrapolates.
    With reverse=True the operator order is exchanged, which flips the
    residual phase (the Weyl antisymmetry); the literal alpha <-> beta swap
    leaves the -alpha beta/2 limit unchanged.
    """
    factors = [(0.0, -beta, 0.0), (alpha, 0.0, 0.0)]
    if reverse:
        factors.reverse()
    prod = _rotation_overlap(ops, state, factors, np.sqrt(2.0 * ops.n))
    phase = float(np.angle(prod / gaussian_target(alpha, beta)))
    return prod, phase


def bs_gaussian_probe(ops, r, axis):
    """<BS(0)| exp{i r S_axis/sqrt N} |BS(0)>, axis in {'y','z'}."""
    coeffs = {"y": (0.0, r, 0.0), "z": (0.0, 0.0, r)}[axis]
    return _rotation_overlap(ops, dicke.bogoliubov_state(ops, 0.0), [coeffs],
                             np.sqrt(ops.n))


def odlro(ops, state):
    """|omega(sigma_x^k sigma_x^j) - omega(sigma_x^k) omega(sigma_x^j)|,
    k != j, via the permutation-symmetric identity
    omega(sigma_x^k sigma_x^j) = (<S_x^2> - N)/(N(N-1))."""
    n = ops.n
    if n < 2:
        raise ValueError("ODLRO needs at least two sites")
    v = state.vector
    sx = ops.s_x_full
    sx2 = float(np.real(np.vdot(v, sx @ (sx @ v))))
    sx1 = float(np.real(np.vdot(v, sx @ v)))
    return abs((sx2 - n) / (n * (n - 1)) - (sx1 / n) ** 2)


def eom_identity_residuals(n=6):
    """Residuals of the collective equation-of-motion identities under
    H_SS = G^2 (normalized): S_z-dot = 0,
    S_+-dot = -i S_+ S_z/N + (2i S_+/N) eta eta^dag,
    eta-dot = i (eta/N) [S_-, S_+].

    Exact at every n; the S_+ and eta sign conventions are the ones the
    matrices force (see the decisions ledger).
    """
    ops = dicke.collective_ops(n)
    h = dicke.build_hss_dicke(ops).toarray()
    sp = ops.s_plus_full.toarray()
    sm = ops.s_minus_full.toarray()
    sz = ops.s_z_full.toarray()
    eta = ops.eta_full.toarray()
    eecd = eta @ eta.conj().T
    out = {}
    out["sz_dot"] = np.linalg.norm(-1j * bracket(sz, h), 2)
    rhs_sp = -1j * (sp @ sz) / n - (2j / n) * (sp @ eecd)
    out["sp_dot"] = np.linalg.norm(-1j * bracket(sp, h) - rhs_sp, 2)
    rhs_eta = 1j * (eta / n) @ bracket(sm, sp)
    out["eta_dot"] = np.linalg.norm(-1j * bracket(eta, h) - rhs_eta, 2)
    return out


def super_identity_residuals(n=6, alpha=0.0):
    """Residuals of the supertransformation identities under G_alpha:
    eta' = -i e^{-i alpha} S_+ [eta, eta^dag]/sqrt N,
    S_z' = 2i (e^{i alpha} eta S_- - e^{-i alpha} eta^dag S_+)/sqrt N,
    S_+' = e^{i alpha} sqrt N eta [S_-, S_+]/N ... checked in the form the
    matrices force; exact at every n.
    """
    ops = dicke.collective_ops(n)
    g = dicke.build_g_alpha_dicke(ops, alpha).toarray()
    sp = ops.s_plus_full.toarray()
    sm = ops.s_minus_full.toarray()
    sz = ops.s_z_full.toarray()
    eta = ops.eta_full.toarray()
    etad = eta.conj().T
    f = bracket(eta, etad)
    rt = np.sqrt(n)
    out = {}
    rhs_eta = -1j * np.exp(-1j * alpha) * (sp @ f) / rt
    out["eta_prime"] = np.linalg.norm(-1j * bracket(eta, g) - rhs_eta, 2)
    rhs_sz = 2j * (np.exp(1j * alpha) * eta @ sm
                   - np.exp(-1j * alpha) * etad @ sp) / rt
    out["sz_prime"] = np.linalg.norm(-1j * bracket(sz, g) - rhs_sz, 2)
    # [S_+, eta^dag S_+] = 0, so only the eta S_- term survives:
    # S_+' = -i e^{i alpha} eta S_z / sqrt N
    rhs_sp = -1j * np.exp(1j * alpha) * (eta @ sz) / rt
    out["sp_prime"] = np.linalg.norm(-1j * bracket(sp, g) - rhs_sp, 2)
    return out


def local_super_derivative(n, axis, alpha=0.0):
    """sigma_axis'^{(1)} = -i[sigma_axis^{(1)}, G_alpha] at N = n, as a 4x4
    operator on (site 1, Clifford mode).  [sigma^{(1)}, S_+-] involves
    sigma^{(1)} alone, so of the Dicke Q = S_- (x) eta / sqrt N only the
    site-1 term sigma_-^{(1)} (x) eta / sqrt N survives; the N-site
    derivative is this times the identity on sites 2..N."""
    g = gauge_charge(np.kron(_LOWER.T, _LOWER), alpha) / np.sqrt(n)
    return -1j * bracket(np.kron(_PAULI[axis], np.eye(2)), g)


def local_super_derivative_norms(n):
    """Spectral norm of sigma_z'^{(1)} = -i[sigma_z^{(1)}, G_0]; exactly
    2/sqrt(N)."""
    return float(np.linalg.norm(local_super_derivative(n, "z"), 2))


def local_rotation_check(t=0.7):
    """Single-spin x-axis rotation: sigma_y(t) + i sigma_z(t) =
    e^{it}(sigma_y + i sigma_z) under the local generator sigma_x/2."""
    sx, sy, sz = _PAULI["x"], _PAULI["y"], _PAULI["z"]
    u = hermitian_function(sx / 2, lambda v: np.exp(-1j * t * v))
    evolved = u.conj().T @ (sy + 1j * sz) @ u
    return np.linalg.norm(evolved - np.exp(1j * t) * (sy + 1j * sz), 2)


MIN_WITTEN_CUTOFF = 8

# dicke.MAX_PARTICLES, the largest n `spectral` compares against.  CSR is
# O(cutoff): spectrum --model witten --n 20000 took 1.0 s, 70 MB on 2 vCPU.
MAX_WITTEN_CUTOFF = 20000


@dataclass(frozen=True)
class WittenLimitModel:
    """Truncated supersymmetric oscillator H = N + eta eta^dag, N the number
    operator; every operator is CSR, and H is diagonal in the product basis."""

    cutoff: int
    alpha: float
    q: sparse.csr_matrix
    p: sparse.csr_matrix
    h: sparse.csr_matrix
    g_alpha: sparse.csr_matrix

    def bulk_levels(self):
        """Eigenvalues below the truncation-edge exclusion (top 25%), read
        off the diagonal of H."""
        keep = int(np.ceil(2 * self.cutoff * 0.75))
        return diagonal_eigenvalues(self.h)[:keep]


def witten_limit(cutoff, alpha=0.0):
    """Truncated oscillator tensor Clifford mode, dimension 2*cutoff."""
    if cutoff < MIN_WITTEN_CUTOFF:
        raise ValueError(f"cutoff {cutoff} below minimum {MIN_WITTEN_CUTOFF}")
    if cutoff > MAX_WITTEN_CUTOFF:
        raise DimensionError(
            f"cutoff {cutoff} exceeds bound {MAX_WITTEN_CUTOFF}")
    a = sparse.diags(np.sqrt(np.arange(1, cutoff, dtype=float)), 1,
                     format="csr", dtype=complex)
    a_f = sparse.kron(a, sparse.identity(2), format="csr")
    eta = sparse.kron(sparse.identity(cutoff), _LOWER, format="csr")
    q = (a_f + a_f.conj().T) / np.sqrt(2)
    p = (a_f - a_f.conj().T) / (1j * np.sqrt(2))
    g = gauge_charge(sparse.kron(a, _LOWER, format="csr"), alpha)
    # (q^2+p^2-1)/2 + eta eta^dag in its number-operator form, exact at every
    # level (a^dag a would square sqrt(k)).  G^2 = H except at the top level,
    # where the truncated a a^dag gives G^2 a spurious zero mode.
    number = sparse.diags(np.arange(cutoff, dtype=complex))
    h = eta @ eta.conj().T + sparse.kron(number, sparse.identity(2))
    return WittenLimitModel(cutoff, alpha, q, p, h, g)


def witten_ground_vector(model):
    """The unique zero mode: oscillator vacuum tensor eta^dag-annihilated."""
    v = np.zeros(2 * model.cutoff, dtype=complex)
    v[1] = 1.0
    return v


def spectral_level(ops):
    """Sorted H_SS level 6 at N = ops.n >= 3, the counterpart of the
    limit-model level witten_limit(...).bulk_levels()[3] = 2.

    The low band of H_SS is a doubled Witten tower {0,0,1,1,1,1,2,2,2,2,...},
    one copy per band edge (all-down and all-up both carry a zero mode), so
    sorted index 6 is the lowest level with an n-dependence: 2 - 2/n.  It
    exposes the 1/n convergence rate; lower levels match the limit exactly
    at every n.
    """
    if ops.n < 3:
        raise ValueError(f"spectral level 6 needs n >= 3, got n = {ops.n}")
    return dicke.hss_eigenvalues(ops)[6]


def bs_free_evolution(ops, t):
    """Second-moment drifts of the mesoscopic pair under H'_BCS = -S_+S_-/N
    in the Bogoliubov state at alpha = 0.

    q = S_y/sqrt N, p = S_z/sqrt N; returns (q_drift, p_drift) where drift is
    <x(t)^2> - <x(0)^2>.  p is an exact constant of motion; q drifts as
    <p^2> t^2 up to O(1/sqrt N).
    """
    n = ops.n
    h = -(ops.s_plus @ ops.s_minus) / n
    diagonal_eigenvalues(h)             # raises unless H is diagonal
    v0 = dicke.coherent_spin_amplitudes(n, 0.0)
    vt = np.exp(-1j * t * h.diagonal()) * v0
    sy, sz = ops.s_y, ops.s_z
    q2 = lambda v: float(np.real(np.vdot(v, sy @ (sy @ v)))) / n
    p2 = lambda v: float(np.real(np.vdot(v, sz @ (sz @ v)))) / n
    return q2(vt) - q2(v0), p2(vt) - p2(v0)


def gs_phase_slope(ops):
    """Phase advance rate of <GS| A^dag(t) A |GS> for A = S_+/sqrt N under
    the normalized H_SS; exactly -1 (A|GS> is an H_SS eigenvector of
    eigenvalue 1)."""
    n = ops.n
    h = dicke.build_hss_dicke(ops)
    diagonal_eigenvalues(h)             # raises unless H is diagonal
    g = dicke.ground_state(ops).vector
    w = ops.s_plus_full @ g / np.sqrt(n)
    slopes = []
    for t in (0.5, 1.0, 2.0):
        z = np.vdot(w, np.exp(-1j * t * h.diagonal()) * w)
        slopes.append(np.angle(z) / t)
    return float(np.mean(slopes))


def bs_eta_prime(ops, alpha=0.0):
    """|<BS| eta' |BS>|, eta' = -i[eta, G_alpha]; exactly sqrt(N)/2."""
    etap = -1j * bracket(ops.eta_full, dicke.build_g_alpha_dicke(ops, alpha))
    v = dicke.bogoliubov_state(ops, alpha).vector
    return abs(np.vdot(v, etap @ v))


def power_growth_fit(pts):
    """log-log regression for c n^p growth; returns FitResult(c, p, res)."""
    ns = np.log([float(n) for n, _ in pts])
    ys = np.log([float(np.real(v)) for _, v in pts])
    p, logc = np.polyfit(ns, ys, 1)
    res = float(np.linalg.norm(np.polyval([p, logc], ns) - ys))
    return FitResult(limit=float(np.exp(logc)), rate=float(p), residual=res)


def macroscopic_triple(ops, state):
    """The macroscopic expectation triple (<S_x>, <S_y>, <S_z>)/N."""
    v = state.vector
    return tuple(float(np.real(np.vdot(v, m @ v))) / ops.n
                 for m in (ops.s_x_full, ops.s_y_full, ops.s_z_full))


def ceiling_isometry(ops, state):
    """<4 S_+S_-/N^2>, the Eq.-(3.16) isometry surrogate; exactly 1 + 2/N
    in the ceiling state."""
    v = state.vector
    spsm = np.real(np.vdot(v, ops.s_plus_full @ (ops.s_minus_full @ v)))
    return float(4.0 * spsm / ops.n ** 2)


def mesoscopic_variance(ops, state):
    """Variance (<S_x^2> - <S_x>^2)/N of S_x/sqrt N in `state`."""
    n = ops.n
    v = state.vector
    sx = ops.s_x_full
    ex = float(np.real(np.vdot(v, sx @ v)))
    ex2 = float(np.real(np.vdot(v, sx @ (sx @ v))))
    return (ex2 - ex ** 2) / n


def variance_divergence(points):
    """(slope of the variance against n, divergent): divergent when the
    variance growth over the sweep is superconstant, else bounded."""
    ys = np.array([float(np.real(v)) for _, v in points])
    ns = np.array([float(n) for n, _ in points])
    slope = float(np.polyfit(ns, ys, 1)[0])
    divergent = ys[-1] > 4.0 and ys[-1] > 2.0 * ys[0] * 0.9 and slope > 0.05
    return slope, bool(divergent)


def collective_m_norm(n):
    """Spectral norm of M_N = S_-/sqrt N on the Dicke multiplet.

    Exact value sqrt((floor(N/2)+1)(N - floor(N/2)))/sqrt(N); approaches
    sqrt(N)/2 from above with ratio sqrt(1 + 2/N).
    """
    k = np.arange(n)
    amp = np.sqrt((k + 1.0) * (n - k))
    return float(amp.max() / np.sqrt(n))

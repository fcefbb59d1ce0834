"""Large-N probes: fluctuation operators and their Gaussian/Weyl limits,
ODLRO, the truncated-oscillator limit model, BCS free evolution, macroscopic
expectation triples, and the extrapolation fits that make "converges to X"
falsifiable.

Derivative identities are exact operator identities at every finite n and are
checked at machine precision; everything genuinely asymptotic is a one-n
cell swept over an n-list by `sweep` and handed to one of the fits.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dicke
from .operators import (ETA, DimensionError, Sparse, apply_diagonals,
                        bracket, diagonal_eigenvalues, gauge_charge,
                        hermitian_function, lift)

# one-site Paulis in the (up, down) basis; ETA is sigma_+ there
_PAULI = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
         "y": np.array([[0, -1j], [1j, 0]]),
         "z": np.array([[1, 0], [0, -1]], dtype=complex)}


@dataclass(frozen=True)
class FitResult:
    """a + b n^(-p) least-squares fit; p is nan for a constant series."""

    limit: float
    rate: float
    residual: float


def sweep(cell, n_list):
    """Evaluate the one-n probe `cell` at every n of `n_list`; returns
    ((n, complex value), ...) ascending in n."""
    return tuple((n, complex(cell(n))) for n in sorted(n_list))


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

# Largest rotation angle rho = |c| N/denom: about rho + 11 rho^(1/3) orders,
# each over its light cone.  At rho = 2000, N = 20000 one rotation took
# 0.25-0.38 s from a dense vector, 0.03-0.06 s from a basis vector (2 vCPU).
MAX_ROTATION_RHO = 2000

# Chebyshev orders between two widenings of the rotation's light cone
CONE_STEP = 16

# i^k, exactly
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _bessel_j(rho):
    """J_0(rho), ..., J_K(rho) for rho > 0, with K the last order where
    |J_K(rho)| >= BESSEL_TAIL.

    Miller's backward recurrence J_{k-1} = (2k/rho) J_k - J_{k+1} from
    J_top = 1, J_{top+1} = 0, normalised by J_0 + 2 sum_k J_2k = 1
    (Abramowitz & Stegun 9.1.27, 9.1.46).  top lies 15 rho^(1/3) + 40
    orders past the turning point k = rho, where J_top(rho) < 1e-24 for
    every rho; the recurrence, on Python floats, is rescaled before it can
    overflow, and the normalising sum is numpy's.  Below rho =
    2 BESSEL_TAIL, J_0 = 1 to rounding and J_1 = rho/2 is already under
    the tail (and 2k/rho could overflow).
    """
    if rho < 2.0 * BESSEL_TAIL:
        return np.ones(1)
    rho = float(rho)
    top = int(rho + 15.0 * rho ** (1.0 / 3.0) + 40.0)
    j = [0.0] * (top + 2)
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = 2.0 * k / rho * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e200:
            j[k - 1:] = [x * 1e-200 for x in j[k - 1:]]
    j = np.array(j)
    j /= j[0] + 2.0 * j[2::2].sum()
    return j[:np.flatnonzero(np.abs(j) >= BESSEL_TAIL)[-1] + 1]


def _spin_phase_apply(ops, cx, cy, cz, denom, rows, lo=0):
    """(lo', rows'): exp{i(cx S_x + cy S_y + cz S_z)/denom} applied to the
    multiplet vector that is `rows` on rows lo, lo + 1, ... and zero
    elsewhere (by default a whole vector), as its rows from lo' on.

    The generator g = c.S/denom is tridiagonal with the exact spectrum
    |c| {-N, -N+2, ..., N}/denom, so with rho = |c| N/denom the
    Jacobi-Anger expansion e^{i rho x} = J_0(rho) + 2 sum_k i^k J_k(rho)
    T_k(x) on x = g/rho needs no norm estimate: the Chebyshev propagator of
    Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984).  T_k(x) v follows
    the three-term recurrence on numpy slices of the three diagonals of 2x,
    in place in three buffers.  T_k(x) has bandwidth k, so order k runs on
    the rows where the two orders before it are nonzero, widened CONE_STEP
    orders at a time, inside `rows` widened by the K = about
    rho + 11 rho^(1/3) orders (the light cone); every term left out is an
    exact zero, so each nonzero entry is the full-length sum's to the bit.
    rho < 2 BESSEL_TAIL (J_0 = 1) returns (lo, rows) itself; rho above
    MAX_ROTATION_RHO (or nan) raises DimensionError before any work.
    """
    rho = math.hypot(cx, cy, cz) * ops.n / denom
    if not rho <= MAX_ROTATION_RHO:
        raise DimensionError(f"rotation angle rho = {rho:g} exceeds bound "
                             f"{MAX_ROTATION_RHO}")
    if rho < 2.0 * BESSEL_TAIL:
        return lo, rows
    bessel = _bessel_j(rho)
    start = max(lo - bessel.size, 0)
    amp, sz = ops.window(start, lo + len(rows) + bessel.size)
    scale = 2.0 / (rho * denom)
    lower, upper = ((cx * amp + cy * y) * scale for y in (-1j * amp, 1j * amp))
    diag = (cz * sz * scale).astype(complex)  # as each product would cast it
    coef = 2.0 * bessel * _I_POWERS[np.arange(bessel.size) % 4]
    m, p, q = sz.size, 0, sz.size
    buf = np.zeros((4, m), dtype=complex)  # T_{k-2}, T_{k-1}, T_k; product
    buf[1, lo - start:lo - start + len(rows)] = rows
    rec, tmp = list(buf[:3]), buf[3]
    total = bessel[0] * rec[1]
    for k in range(1, bessel.size):
        if k % CONE_STEP == 1:
            # T_k .. T_{k + CONE_STEP - 1} vanish outside the rows where
            # T_{k-1} or T_{k-2} is nonzero, widened by CONE_STEP
            held = np.flatnonzero(buf[:3, p:q].any(axis=0))
            if not held.size:
                break
            p, q = (max(p + held[0] - CONE_STEP, 0),
                    min(p + held[-1] + 1 + CONE_STEP, m))
            d, lw, up, t, tot = (diag[p:q], lower[p:q - 1], upper[p:q - 1],
                                 tmp[p:q], total[p:q])
            views = [(x[p:q], x[p:q - 1], x[p + 1:q]) for x in rec]
        (older, _, _), (old, old_h, old_t), (new, new_h, new_t) = views
        np.multiply(d, old, out=new)
        np.add(new_t, np.multiply(lw, old_h, out=t[1:]), out=new_t)
        np.add(new_h, np.multiply(up, old_t, out=t[:-1]), out=new_h)
        if k == 1:
            np.multiply(0.5, new, out=new)
        else:
            np.subtract(new, older, out=new)
        np.add(tot, np.multiply(coef[k], new, out=t), out=tot)
        rec, views = rec[1:] + rec[:1], views[1:] + views[:1]
    return start, total


def _rotation_overlap(ops, state, rotations, denom):
    """<state| R_k ... R_1 |state> for the collective rotations
    R_j = exp{i(cx S_x + cy S_y + cz S_z)/denom}, (cx, cy, cz) the j-th
    entry of `rotations`.  They act trivially on the Clifford factor, so
    each nonzero Clifford column of the state's span turns alone, the first
    factor from the span and each next one from the rows the previous one
    returned; no full-length vector is scanned or formed, and the overlap
    reads the span, which for a basis state is one row."""
    lo, rows = state.rows()
    total = 0.0 + 0.0j
    for column in rows.T:
        if column.any():
            at, u = lo, column
            for cx, cy, cz in rotations:
                at, u = _spin_phase_apply(ops, cx, cy, cz, denom, u, at)
            total += np.vdot(column, u[lo - at:lo - at + len(column)])
    return complex(total)


def fluctuation_expectation(ops, state, alpha, beta):
    """<state| exp{i(alpha S_x - beta S_y)/sqrt(2N)} |state>, exactly."""
    return _rotation_overlap(ops, state, [(alpha, -beta, 0.0)],
                             np.sqrt(2.0 * ops.n))


def gaussian_target(alpha, beta):
    """Limiting ground-state value exp(-(alpha^2 + beta^2)/4)."""
    return float(np.exp(-(alpha ** 2 + beta ** 2) / 4.0))


# Below this |<W(alpha,0) W(0,beta)>| its phase is rounding noise: against
# the closed form the phase error was 0.1-3e-16 / |prod| (ground state,
# N = 64, 256, 1024, alpha = beta = 5 to 10), under 3e-3 at the floor.
WEYL_MODULUS_FLOOR = 1e-13


def weyl_relation_probe(ops, state, alpha, beta, reverse=False):
    """(product expectation, inferred phase) of W(alpha,0) W(0,beta).

    The phase is the argument of the product expectation divided by the
    Gaussian modulus; the limiting value is what the sweep extrapolates.
    With reverse=True the operator order is exchanged, which flips the
    residual phase (the Weyl antisymmetry); the literal alpha <-> beta swap
    leaves the -alpha beta/2 limit unchanged.  Raises ValueError when the
    Gaussian modulus underflows to 0 (alpha^2 + beta^2 above about 2980)
    and when |product| falls below WEYL_MODULUS_FLOOR.
    """
    modulus = gaussian_target(alpha, beta)
    if modulus == 0.0:
        raise ValueError("Gaussian modulus exp(-(alpha^2 + beta^2)/4) "
                         f"underflows to 0 at alpha={alpha:g}, beta={beta:g}")
    factors = [(0.0, -beta, 0.0), (alpha, 0.0, 0.0)]
    if reverse:
        factors.reverse()
    prod = _rotation_overlap(ops, state, factors, np.sqrt(2.0 * ops.n))
    if abs(prod) < WEYL_MODULUS_FLOOR:
        raise ValueError(
            f"|<W(alpha,0) W(0,beta)>| = {abs(prod):.3g} at n={ops.n}, "
            f"alpha={alpha:g}, beta={beta:g} is below the floor "
            f"{WEYL_MODULUS_FLOOR:g}: its phase is rounding noise")
    return prod, float(np.angle(prod / modulus))


def bs_gaussian_probe(ops, r, axis):
    """<BS(0)| exp{i r S_axis/sqrt N} |BS(0)>, axis in {'y','z'}."""
    coeffs = {"y": (0.0, r, 0.0), "z": (0.0, 0.0, r)}[axis]
    return _rotation_overlap(ops, dicke.bogoliubov_state(ops, 0.0), [coeffs],
                             np.sqrt(ops.n))


def _sx_moments(ops, state):
    """(<S_x>, <S_x^2>) in `state`, S_x applied twice to the span +- 2."""
    lo, v = state.rows(2)
    sx = ops.diagonals("s_x", lo, lo + len(v))
    sx_v = apply_diagonals(sx, v)
    return (float(np.real(np.vdot(v, sx_v))),
            float(np.real(np.vdot(v, apply_diagonals(sx, sx_v)))))


def odlro(ops, state):
    """|omega(sigma_x^k sigma_x^j) - omega(sigma_x^k) omega(sigma_x^j)|,
    k != j, via the permutation-symmetric identity
    omega(sigma_x^k sigma_x^j) = (<S_x^2> - N)/(N(N-1))."""
    n = ops.n
    if n < 2:
        raise ValueError("ODLRO needs at least two sites")
    sx1, sx2 = _sx_moments(ops, state)
    return abs((sx2 - n) / (n * (n - 1)) - (sx1 / n) ** 2)


def _dense_collective(n):
    """The Dicke operators at N = n and, dense from their amplitudes, the
    lifted S_+, S_-, S_z and eta that the identity residuals read."""
    ops, one = dicke.collective_ops(n), np.eye(2, dtype=complex)
    return (ops, *(np.kron(np.diag(ops.amp, k), one) for k in (-1, 1)),
            np.diag(np.repeat(ops.sz, 2)).astype(complex),
            np.kron(np.eye(n + 1), ETA))


def eom_identity_residuals(n=6):
    """Residuals of the collective equation-of-motion identities under
    H_SS = G^2 (normalized): S_z-dot = 0,
    S_+-dot = -i S_+ S_z/N + (2i S_+/N) eta eta^dag,
    eta-dot = i (eta/N) [S_-, S_+].

    Exact at every n; the S_+ and eta sign conventions are the ones the
    matrices force (see the decisions ledger).
    """
    ops, sp, sm, sz, eta = _dense_collective(n)
    h = np.diag(dicke.hss_diagonal(ops))
    rhs_sp = -1j * (sp @ sz) / n - (2j / n) * (sp @ (eta @ eta.conj().T))
    rhs_eta = 1j * (eta / n) @ bracket(sm, sp)
    return {"sz_dot": np.linalg.norm(-1j * bracket(sz, h), 2),
            "sp_dot": np.linalg.norm(-1j * bracket(sp, h) - rhs_sp, 2),
            "eta_dot": np.linalg.norm(-1j * bracket(eta, h) - rhs_eta, 2)}


def super_identity_residuals(n=6, alpha=0.0):
    """Residuals of the supertransformation identities under G_alpha:
    eta' = -i e^{-i alpha} S_+ [eta, eta^dag]/sqrt N,
    S_z' = 2i (e^{i alpha} eta S_- - e^{-i alpha} eta^dag S_+)/sqrt N,
    S_+' = e^{i alpha} sqrt N eta [S_-, S_+]/N ... checked in the form the
    matrices force; exact at every n.
    """
    ops, sp, sm, sz, eta = _dense_collective(n)
    g = np.zeros((ops.dim, ops.dim), dtype=complex)
    r = 2 * np.arange(n)
    g[r, r + 3], g[r + 3, r] = dicke.g_alpha_offdiagonals(ops, alpha)
    etad, rt = eta.conj().T, np.sqrt(n)
    rhs_eta = -1j * np.exp(-1j * alpha) * (sp @ bracket(eta, etad)) / rt
    rhs_sz = 2j * (np.exp(1j * alpha) * eta @ sm
                   - np.exp(-1j * alpha) * etad @ sp) / rt
    # [S_+, eta^dag S_+] = 0, so only the eta S_- term survives:
    # S_+' = -i e^{i alpha} eta S_z / sqrt N
    rhs_sp = -1j * np.exp(1j * alpha) * (eta @ sz) / rt
    return {"eta_prime": np.linalg.norm(-1j * bracket(eta, g) - rhs_eta, 2),
            "sz_prime": np.linalg.norm(-1j * bracket(sz, g) - rhs_sz, 2),
            "sp_prime": np.linalg.norm(-1j * bracket(sp, g) - rhs_sp, 2)}


def local_super_derivative(n, axis, alpha=0.0):
    """sigma_axis'^{(1)} = -i[sigma_axis^{(1)}, G_alpha] at N = n, as a 4x4
    operator on (site 1, Clifford mode).  [sigma^{(1)}, S_+-] involves
    sigma^{(1)} alone, so of the Dicke Q = S_- (x) eta / sqrt N only the
    site-1 term sigma_-^{(1)} (x) eta / sqrt N survives; the N-site
    derivative is this times the identity on sites 2..N."""
    g = gauge_charge(np.kron(ETA.T, ETA), alpha) / np.sqrt(n)
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

# Caps `spectrum --model witten --n`; the `spectral` sweep reads only
# witten_limit(64).  Sparse is O(cutoff): --n 20000 took 0.65 s, 48 MB on
# 2 vCPU.
MAX_WITTEN_CUTOFF = 20000


@dataclass(frozen=True)
class WittenLimitModel:
    """Truncated supersymmetric oscillator H = N + eta eta^dag, N the number
    operator; every operator is Sparse, and H is diagonal in the product
    basis."""

    cutoff: int
    alpha: float
    q: Sparse
    p: Sparse
    h: Sparse
    g_alpha: Sparse

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
    a = Sparse.from_diagonals({1: np.sqrt(np.arange(1.0, cutoff))})
    a_f = lift(a)
    eta = lift(Sparse.from_diagonals({0: np.ones(cutoff)}), ETA)
    q = (a_f + a_f.conj().T) / np.sqrt(2)
    p = (a_f - a_f.conj().T) / (1j * np.sqrt(2))
    g = gauge_charge(lift(a, ETA), alpha)
    # (q^2+p^2-1)/2 + eta eta^dag in its number-operator form, exact at every
    # level (a^dag a would square sqrt(k)).  G^2 = H except at the top level,
    # where the truncated a a^dag gives G^2 a spurious zero mode.
    number = Sparse.from_diagonals({0: np.arange(cutoff)})
    h = eta @ eta.conj().T + lift(number)
    return WittenLimitModel(cutoff, alpha, q, p, h, g)


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
    v0 = dicke.coherent_spin_amplitudes(ops.n, 0.0)
    vt = np.exp(-1j * t * dicke.pairing_diagonal(ops)) * v0
    moment = lambda d, v: float(np.real(np.vdot(v, apply_diagonals(
        d, apply_diagonals(d, v))))) / ops.n
    return tuple(moment(d, vt) - moment(d, v0)
                 for d in map(ops.diagonals, ("s_y", "s_z")))


def gs_phase_slope(ops):
    """Phase advance rate of <GS| A^dag(t) A |GS> for A = S_+/sqrt N under
    the normalized H_SS; exactly -1 (A|GS> is an H_SS eigenvector of
    eigenvalue 1)."""
    h = dicke.hss_diagonal(ops)
    g = dicke.ground_state(ops).vector
    w = apply_diagonals(ops.diagonals("s_plus"),
                        g.reshape(-1, 2)).ravel() / np.sqrt(ops.n)
    return float(np.mean([np.angle(np.vdot(w, np.exp(-1j * t * h) * w)) / t
                          for t in (0.5, 1.0, 2.0)]))


def sz_prime_apply(ops, v, alpha=0.0):
    """S_z' v, S_z' = -i[S_z (x) 1, G_alpha], on the pattern of G_alpha:
    entry -i(0.0 + S_z,row G - G S_z,col), as the Sparse bracket sums it."""
    (upper, lower), sz = dicke.g_alpha_offdiagonals(ops, alpha), ops.sz
    diagonals = {k: np.zeros(2 * ops.n - 1, dtype=complex) for k in (3, -3)}
    diagonals[3][::2] = (0.0 + sz[:-1] * upper - upper * sz[1:]) * -1j
    diagonals[-3][::2] = (0.0 + sz[1:] * lower - lower * sz[:-1]) * -1j
    return apply_diagonals(diagonals, v)


def bs_eta_prime(ops, alpha=0.0):
    """|<BS| eta' |BS>|, eta' = -i[1 (x) eta, G_alpha]; exactly sqrt(N)/2.
    eta's entries (2k, 2k + 1) are 1, so with G_alpha's lower entries L_k,
    (eta G)(2k + 2, 2k) = L_k = (G eta)(2k + 3, 2k + 1): eta' is the one
    diagonal at offset -2 of the Sparse bracket's -i L_k and -i(0 - L_k)."""
    lower = dicke.g_alpha_offdiagonals(ops, alpha)[1]
    diag = np.empty(2 * ops.n, dtype=complex)
    diag[0::2], diag[1::2] = lower * -1j, (0.0 - lower) * -1j
    v = dicke.bogoliubov_state(ops, alpha).vector
    return abs(np.vdot(v, apply_diagonals({-2: diag}, v)))


def power_growth_fit(pts):
    """log-log regression for c n^p growth; returns FitResult(c, p, res)."""
    ns = np.log([float(n) for n, _ in pts])
    ys = np.log([float(np.real(v)) for _, v in pts])
    p, logc = np.polyfit(ns, ys, 1)
    res = float(np.linalg.norm(np.polyval([p, logc], ns) - ys))
    return FitResult(limit=float(np.exp(logc)), rate=float(p), residual=res)


def macroscopic_triple(ops, state):
    """The macroscopic triple (<S_x>, <S_y>, <S_z>)/N, over the span."""
    lo, v = state.rows(1)
    applied = (apply_diagonals(ops.diagonals(m, lo, lo + len(v)), v)
               for m in ("s_x", "s_y", "s_z"))
    return tuple(float(np.real(np.vdot(v, mv))) / ops.n for mv in applied)


def ceiling_isometry(ops, state):
    """<4 S_+S_-/N^2> over the span +- 1, the Eq.-(3.16) isometry
    surrogate; exactly 1 + 2/N in the ceiling state."""
    lo, v = state.rows(1)
    sp, sm = (ops.diagonals(m, lo, lo + len(v)) for m in ("s_plus", "s_minus"))
    spsm = np.real(np.vdot(v, apply_diagonals(sp, apply_diagonals(sm, v))))
    return float(4.0 * spsm / ops.n ** 2)


def mesoscopic_variance(ops, state):
    """Variance (<S_x^2> - <S_x>^2)/N of S_x/sqrt N in `state`."""
    ex, ex2 = _sx_moments(ops, state)
    return (ex2 - ex ** 2) / ops.n


def variance_divergence(points):
    """(slope of the variance against n, divergent): divergent when the
    variance growth over the sweep is superconstant, else bounded."""
    ys = np.array([float(np.real(v)) for _, v in points])
    ns = np.array([float(n) for n, _ in points])
    slope = float(np.polyfit(ns, ys, 1)[0])
    divergent = ys[-1] > 4.0 and ys[-1] > 2.0 * ys[0] * 0.9 and slope > 0.05
    return slope, bool(divergent)


def collective_m_norm(n):
    """Spectral norm of M_N = S_-/sqrt N: the largest ladder amplitude.

    Exact value sqrt((floor(N/2)+1)(N - floor(N/2)))/sqrt(N); approaches
    sqrt(N)/2 from above with ratio sqrt(1 + 2/N).
    """
    return float(dicke.collective_ops(n).amp.max() / np.sqrt(n))

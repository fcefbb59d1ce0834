"""Large-N probes: fluctuation operators and their Gaussian/Weyl limits,
ODLRO, the truncated-oscillator limit model, BCS free evolution, macroscopic
expectation triples, and the extrapolation fits that make "converges to X"
falsifiable.

Derivative identities are exact operator identities at every finite n and are
checked at machine precision; everything genuinely asymptotic goes through
ConvergenceSeries and the a + b n^(-p) fit.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import least_squares
from scipy.sparse.linalg import expm_multiply

from . import dicke
from .operators import bracket, hermitian_norm
from .tensorrep import TensorSpinRep

MESOSCOPIC = "mesoscopic_sqrtN"
MACROSCOPIC = "macroscopic_N"


@dataclass(frozen=True)
class FluctuationParams:
    """Arguments of the collective Weyl operator
    exp{i (alpha S_x - beta S_y) / sqrt(2N)}."""

    alpha: float
    beta: float
    scaling: str = MESOSCOPIC

    def __post_init__(self):
        if self.scaling not in (MESOSCOPIC, MACROSCOPIC):
            raise ValueError(f"unknown scaling {self.scaling!r}")


@dataclass(frozen=True)
class FitResult:
    """a + b n^(-p) least-squares fit; p is nan for a constant series."""

    limit: float
    rate: float
    residual: float


@dataclass(frozen=True)
class ConvergenceSeries:
    """An n-sweep of a scalar probe plus its target and extrapolation fit."""

    metric: str
    points: tuple          # ((n, complex value), ...) ascending in n
    target: complex
    provenance: str
    fit: FitResult = None
    classification: str = ""

    def __post_init__(self):
        ns = [n for n, _ in self.points]
        if ns != sorted(ns):
            raise ValueError("sweep points must be ascending in n")


def extrapolate(points):
    """Fit value(n) = a + b n^(-p) over the three largest-n points.

    A geometric n-triple (n, rn, r^2 n) admits the closed form
    p = log(d1/d2)/log r with d_k the successive differences; otherwise a
    bounded least-squares solve is used.  A constant series returns the
    constant with rate nan.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 points to extrapolate")
    tail = sorted(points, key=lambda t: t[0])[-3:]
    ns = np.array([float(n) for n, _ in tail])
    ys = np.array([float(np.real(v)) for _, v in tail])
    d1, d2 = ys[1] - ys[0], ys[2] - ys[1]
    if abs(d1) < 1e-14 and abs(d2) < 1e-14:
        return FitResult(limit=ys[-1], rate=float("nan"), residual=0.0)
    r1, r2 = ns[1] / ns[0], ns[2] / ns[1]
    if abs(r1 - r2) < 1e-12 and d1 * d2 > 0 and abs(d2) < abs(d1):
        # exact 3-point solution on a geometric grid
        p = np.log(d1 / d2) / np.log(r1)
        b = d1 / (ns[1] ** (-p) - ns[0] ** (-p))
        a = ys[0] - b * ns[0] ** (-p)
        res = abs(a + b * ns[2] ** (-p) - ys[2])
        return FitResult(limit=float(a), rate=float(p), residual=float(res))

    def model(theta):
        a, b, p = theta
        return a + b * ns ** (-p) - ys

    sol = least_squares(model, x0=[ys[-1], ys[0] - ys[-1], 1.0],
                        bounds=([-np.inf, -np.inf, 0.05], [np.inf, np.inf, 8.0]))
    a, _, p = sol.x
    return FitResult(limit=float(a), rate=float(p),
                     residual=float(np.linalg.norm(sol.fun)))


def _spin_phase_apply(ops, cx, cy, cz, denom, spin_vec):
    """exp{i(cx S_x + cy S_y + cz S_z)/denom} applied to a multiplet vector.

    Matrix-free: expm_multiply only takes products with the sparse
    tridiagonal generator, O(n) each, and holds O(n) memory.
    """
    gen = (cx * ops.s_x + cy * ops.s_y + cz * ops.s_z) / denom
    return expm_multiply(1j * gen.tocsc(), spin_vec)


def _clifford_blocks(state):
    """The two Clifford components of a product-space vector, spin-major."""
    return state.vector.reshape(-1, 2).T


def _collective_phase_expectation(ops, state, cx, cy, cz, denom):
    """<state| exp{i(cx S_x + cy S_y + cz S_z)/denom} |state>; the exponent
    acts trivially on the Clifford factor."""
    total = 0.0 + 0.0j
    for block in _clifford_blocks(state):
        if np.linalg.norm(block) > 0:
            total += np.vdot(block,
                             _spin_phase_apply(ops, cx, cy, cz, denom, block))
    return complex(total)


def fluctuation_expectation(ops, state, params):
    """<state| exp{i(alpha S_x - beta S_y)/sqrt(2N)} |state>, exactly."""
    denom = np.sqrt(2.0 * ops.n) if params.scaling == MESOSCOPIC else ops.n
    return _collective_phase_expectation(ops, state, params.alpha,
                                         -params.beta, 0.0, denom)


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
    rt = np.sqrt(2.0 * ops.n)
    blocks = _clifford_blocks(state)
    factors = [(0.0, -beta), (alpha, 0.0)]
    if reverse:
        factors.reverse()
    prod = 0.0 + 0.0j
    for block in blocks:
        if np.linalg.norm(block) > 0:
            u = block
            for cx, cy in factors:
                u = _spin_phase_apply(ops, cx, cy, 0.0, rt, u)
            prod += np.vdot(block, u)
    prod = complex(prod)
    phase = float(np.angle(prod / gaussian_target(alpha, beta)))
    return prod, phase


def weyl_phase_sweep(n_list, alpha, beta, state_builder=None):
    """ConvergenceSeries of the residual Weyl phase over an n-sweep."""
    if state_builder is None:
        state_builder = dicke.ground_state
    pts = []
    for n in sorted(n_list):
        ops = dicke.collective_ops(n)
        _, phase = weyl_relation_probe(ops, state_builder(ops), alpha, beta)
        pts.append((n, complex(phase)))
    return ConvergenceSeries(metric=f"weyl_phase({alpha:g},{beta:g})",
                             points=tuple(pts),
                             target=complex(-alpha * beta / 2.0),
                             provenance="DERIVED", fit=extrapolate(pts))


def bs_gaussian_probe(ops, r, axis):
    """<BS(0)| exp{i r S_axis/sqrt N} |BS(0)>, axis in {'y','z'}."""
    coeffs = {"y": (0.0, r, 0.0), "z": (0.0, 0.0, r)}[axis]
    state = dicke.bogoliubov_state(ops, 0.0)
    return _collective_phase_expectation(ops, state, *coeffs,
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


def odlro_sweep(n_list, state_builder, metric, target, provenance):
    pts = []
    for n in sorted(n_list):
        ops = dicke.collective_ops(n)
        pts.append((n, complex(odlro(ops, state_builder(ops)))))
    return ConvergenceSeries(metric=metric, points=tuple(pts),
                             target=complex(target), provenance=provenance,
                             fit=extrapolate(pts))


def heisenberg_derivative(a, generator):
    """A-dot = -i[A, H]."""
    return -1j * bracket(a, generator)


def super_derivative(a, g_alpha):
    """A' = -i[A, G_alpha]."""
    return heisenberg_derivative(a, g_alpha)


def _spec_norm(m):
    return float(np.linalg.norm(m, 2))


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
    out["sz_dot"] = _spec_norm(heisenberg_derivative(sz, h).mat)
    rhs_sp = -1j * (sp @ sz) / n - (2j / n) * (sp @ eecd)
    out["sp_dot"] = _spec_norm(heisenberg_derivative(sp, h).mat - rhs_sp)
    rhs_eta = 1j * (eta / n) @ (sm @ sp - sp @ sm)
    out["eta_dot"] = _spec_norm(heisenberg_derivative(eta, h).mat - rhs_eta)
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
    f = eta @ etad - etad @ eta
    rt = np.sqrt(n)
    out = {}
    rhs_eta = -1j * np.exp(-1j * alpha) * (sp @ f) / rt
    out["eta_prime"] = _spec_norm(super_derivative(eta, g).mat - rhs_eta)
    rhs_sz = 2j * (np.exp(1j * alpha) * eta @ sm
                   - np.exp(-1j * alpha) * etad @ sp) / rt
    out["sz_prime"] = _spec_norm(super_derivative(sz, g).mat - rhs_sz)
    # [S_+, eta^dag S_+] = 0, so only the eta S_- term survives:
    # S_+' = -i e^{i alpha} eta S_z / sqrt N
    rhs_sp = -1j * np.exp(1j * alpha) * (eta @ sz) / rt
    out["sp_prime"] = _spec_norm(super_derivative(sp, g).mat - rhs_sp)
    return out


def local_super_derivative_norms(n_list, alpha=0.0):
    """Spectral norm of sigma_z'^{(1)} = -i[sigma_z^{(1)}, G_alpha] in the
    per-site representation, kept sparse and taken block by block; decays
    as 2/sqrt(N)."""
    pts = []
    for n in sorted(n_list):
        rep = TensorSpinRep(n)
        g, sz1 = rep.g_alpha(alpha), rep.sz[0]
        pts.append((n, complex(hermitian_norm(-1j * (sz1 @ g - g @ sz1)))))
    return ConvergenceSeries(metric="local_sigma_z_prime_norm",
                             points=tuple(pts), target=0.0,
                             provenance="DERIVED", fit=extrapolate(pts))


def local_rotation_check(t=0.7):
    """Single-spin x-axis rotation: sigma_y(t) + i sigma_z(t) =
    e^{it}(sigma_y + i sigma_z) under the local generator sigma_x/2."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    u = expm(-1j * t * sx / 2)
    evolved = u.conj().T @ (sy + 1j * sz) @ u
    return _spec_norm(evolved - np.exp(1j * t) * (sy + 1j * sz))


MIN_WITTEN_CUTOFF = 8


@dataclass(frozen=True)
class WittenLimitModel:
    """Truncated supersymmetric oscillator: H = (q^2+p^2-1)/2 + eta eta^dag."""

    cutoff: int
    alpha: float
    q: np.ndarray
    p: np.ndarray
    h: np.ndarray
    g_alpha: np.ndarray

    def bulk_levels(self):
        """Eigenvalues below the truncation-edge exclusion (top 25%)."""
        w = np.linalg.eigvalsh(self.h)
        keep = int(np.ceil(2 * self.cutoff * 0.75))
        return np.sort(w)[:keep]


def witten_limit(cutoff, alpha=0.0):
    """Truncated oscillator tensor Clifford mode, dimension 2*cutoff."""
    if cutoff < MIN_WITTEN_CUTOFF:
        raise ValueError(f"cutoff {cutoff} below minimum {MIN_WITTEN_CUTOFF}")
    d = cutoff
    a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), 1).astype(complex)
    q1 = (a + a.conj().T) / np.sqrt(2)
    p1 = (a - a.conj().T) / (1j * np.sqrt(2))
    eta = np.array([[0, 1], [0, 0]], dtype=complex)
    eye_cl = np.eye(2, dtype=complex)
    eye_os = np.eye(d, dtype=complex)
    q = np.kron(q1, eye_cl)
    p = np.kron(p1, eye_cl)
    eta_f = np.kron(eye_os, eta)
    eta_a = np.exp(1j * alpha) * eta_f
    annih = (q + 1j * p) / np.sqrt(2)          # = a on the bulk
    g = eta_a @ annih + eta_a.conj().T @ annih.conj().T
    # H from the displayed formula, not G^2: the hard truncation gives G^2 a
    # spurious zero mode at the top oscillator level, while (q^2+p^2-1)/2
    # + eta eta^dag keeps the ground state unique.  G^2 = H on the bulk.
    h = (q @ q + p @ p - np.eye(2 * d, dtype=complex)) / 2 \
        + eta_f @ eta_f.conj().T
    return WittenLimitModel(cutoff=cutoff, alpha=alpha, q=q, p=p, h=h,
                            g_alpha=g)


def witten_ground_vector(model):
    """The unique zero mode: oscillator vacuum tensor eta^dag-annihilated."""
    v = np.zeros(2 * model.cutoff, dtype=complex)
    v[1] = 1.0
    return v


def spectral_convergence(n_list, witten=None, dicke_level=6, witten_level=3):
    """Sorted H_SS level against the corresponding limit-model eigenvalue.

    The low band of H_SS is a doubled Witten tower {0,0,1,1,1,1,2,2,2,2,...},
    one copy per band edge (all-down and all-up both carry a zero mode), so
    sorted index 6 is the lowest level with an n-dependence: 2 - 2/n.  It is
    compared against the single-tower Witten level 2 and exposes the 1/n
    convergence rate; lower levels match the limit exactly at every n.
    """
    if witten is None:
        witten = witten_limit(64)
    target = float(witten.bulk_levels()[witten_level])
    pts = []
    for n in sorted(n_list):
        ops = dicke.collective_ops(n)
        vals = dicke.hss_eigenvalues(ops)
        pts.append((n, complex(vals[dicke_level])))
    return ConvergenceSeries(metric=f"hss_level_{dicke_level}",
                             points=tuple(pts), target=complex(target),
                             provenance="DERIVED", fit=extrapolate(pts))


def bs_free_evolution(ops, t):
    """Second-moment drifts of the mesoscopic pair under H'_BCS = -S_+S_-/N
    in the Bogoliubov state at alpha = 0.

    q = S_y/sqrt N, p = S_z/sqrt N; returns (q_drift, p_drift) where drift is
    <x(t)^2> - <x(0)^2>.  p is an exact constant of motion; q drifts as
    <p^2> t^2 up to O(1/sqrt N).
    """
    n = ops.n
    h = -(ops.s_plus @ ops.s_minus).tocsc() / n
    v0 = dicke.coherent_spin_amplitudes(n, 0.0)
    vt = expm_multiply(-1j * t * h, v0)
    sy, sz = ops.s_y, ops.s_z
    q2 = lambda v: float(np.real(np.vdot(v, sy @ (sy @ v)))) / n
    p2 = lambda v: float(np.real(np.vdot(v, sz @ (sz @ v)))) / n
    return q2(vt) - q2(v0), p2(vt) - p2(v0)


def gs_phase_slope(n, t_values=(0.5, 1.0, 2.0)):
    """Phase advance rate of <GS| A^dag(t) A |GS> for A = S_+/sqrt N under
    the normalized H_SS; exactly -1 (A|GS> is an H_SS eigenvector of
    eigenvalue 1)."""
    ops = dicke.collective_ops(n)
    h = dicke.build_hss_dicke(ops).tocsc()
    g = dicke.ground_state(ops).vector
    w = ops.s_plus_full @ g / np.sqrt(n)
    slopes = []
    for t in t_values:
        z = np.vdot(w, expm_multiply(-1j * t * h, w))
        slopes.append(np.angle(z) / t)
    return float(np.mean(slopes))


def bs_super_growth(n_list, alpha=0.0):
    """|<BS| eta' |BS>| across n; grows as sqrt(N)/2 exactly."""
    pts = []
    for n in sorted(n_list):
        ops = dicke.collective_ops(n)
        g = dicke.build_g_alpha_dicke(ops, alpha)
        eta = ops.eta_full
        etap = -1j * (eta @ g - g @ eta)
        v = dicke.bogoliubov_state(ops, alpha).vector
        pts.append((n, complex(abs(np.vdot(v, etap @ v)))))
    fit = _power_growth_fit(pts)
    return ConvergenceSeries(metric="bs_eta_prime_growth", points=tuple(pts),
                             target=complex(0.5), provenance="DERIVED",
                             fit=fit, classification="divergent")


def _power_growth_fit(pts):
    """log-log regression for c n^p growth; returns FitResult(c, p, res)."""
    ns = np.log([float(n) for n, _ in pts])
    ys = np.log([float(np.real(v)) for _, v in pts])
    p, logc = np.polyfit(ns, ys, 1)
    res = float(np.linalg.norm(np.polyval([p, logc], ns) - ys))
    return FitResult(limit=float(np.exp(logc)), rate=float(p), residual=res)


def macroscopic_probe(ops, state):
    """<S_./N> triple plus the state-specific macroscopic checks.

    Returns a dict with keys 'triple' and, for the ceiling state,
    'sz_spacing' (even-integer quantization) and 'isometry' (the Eq.-(3.16)
    surrogate <4 S_+S_-/N^2>).
    """
    known = {"ground", "ceiling", "ceiling_integral"}
    if state.label not in known and not state.label.startswith("bogoliubov"):
        raise ValueError(f"unknown state label {state.label!r}")
    v = state.vector
    n = ops.n
    triple = tuple(
        float(np.real(np.vdot(v, m @ v))) / n
        for m in (ops.s_x_full, ops.s_y_full, ops.s_z_full))
    out = {"triple": triple}
    if state.label.startswith("ceiling"):
        diag = np.arange(-n, n + 1, 2)
        out["sz_spacing"] = 2 if np.all(diag % 2 == 0) else 1
        spsm = np.real(np.vdot(v, ops.s_plus_full @ (ops.s_minus_full @ v)))
        out["isometry"] = float(4.0 * spsm / n ** 2)
    return out


def mesoscopic_divergence(state_builder, n_list, centered=False):
    """Variance of S_x/sqrt N across an n-sweep with divergence
    classification.

    `state_builder` maps DickeOperators to a DickeState (the ops argument is
    rebuilt per n).  With centered=True the BS(0) scaling (S_x - N)/sqrt N is
    used.  Classification: 'divergent' when the fitted variance growth is
    superconstant, else 'bounded'.
    """
    pts = []
    for n in sorted(n_list):
        ops = dicke.collective_ops(n)
        v = state_builder(ops).vector
        sx = ops.s_x_full
        ex = float(np.real(np.vdot(v, sx @ v)))
        ex2 = float(np.real(np.vdot(v, sx @ (sx @ v))))
        if centered:
            val = (ex2 - 2 * n * ex + n * n) / n
        else:
            val = (ex2 - ex ** 2) / n
        pts.append((n, complex(val)))
    ys = np.array([float(np.real(v)) for _, v in pts])
    ns = np.array([float(n) for n, _ in pts])
    slope = float(np.polyfit(ns, ys, 1)[0])
    divergent = ys[-1] > 4.0 and ys[-1] > 2.0 * ys[0] * 0.9 and slope > 0.05
    fit = FitResult(limit=float(ys[-1]), rate=slope, residual=0.0)
    return ConvergenceSeries(metric="mesoscopic_variance", points=tuple(pts),
                             target=complex(ys[-1]), provenance="DERIVED",
                             fit=fit,
                             classification="divergent" if divergent
                             else "bounded")


def collective_m_norm(n):
    """Spectral norm of M_N = S_-/sqrt N on the Dicke multiplet.

    Exact value sqrt((floor(N/2)+1)(N - floor(N/2)))/sqrt(N); approaches
    sqrt(N)/2 from above with ratio sqrt(1 + 2/N).
    """
    k = np.arange(n)
    amp = np.sqrt((k + 1.0) * (n - k))
    return float(amp.max() / np.sqrt(n))

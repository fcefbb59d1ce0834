"""Exact collective-spin engine: the maximal multiplet of N pair-spins
tensored with one Clifford mode.

The product space has dimension 2(N+1) and is ordered spin-major: basis index
2k + c where k counts raised spins (s_z = 2k - N) and c indexes the Clifford
factor (c = 0 carries eta eta^dag = 1; c = 1 is annihilated by eta^dag and is
the ground-state convention), the order of operators.lift.  The multiplet
operators are numpy diagonals that act on the rows k (entries 2k, 2k + 1) of
a state's span: O(1) per application to a basis state.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import DimensionError

MAX_PARTICLES = 20000


class VanishingNormError(ValueError):
    """A superposition interfered destructively to (numerically) zero."""


class DickeOperators:
    """Ladder operators on the spin-N/2 multiplet as numpy arrays: amp[k],
    the S_+ amplitude e_k -> e_{k+1} (and S_- back), and sz, the S_z
    diagonal -N, -N+2, ..., N; [S_+, S_-] = S_z, [S_z, S_+] = 2 S_+.  No
    matrix is built and no array held: `window` computes both on the rows
    that `diagonals` (S_+, S_-, S_x, S_y or S_z) or the rotation kernel
    reads, and `amp` and `sz` compute every entry.  The lifted operator
    acts on the rows lo, lo + 1, ... of a state v.reshape(-1, 2) as
    operators.apply_diagonals(ops.diagonals(name, lo, hi), rows)."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("particle number must be positive")
        if n > MAX_PARTICLES:
            raise DimensionError(f"n={n} exceeds bound {MAX_PARTICLES}")
        self.n = n

    def window(self, lo=0, hi=None):
        """(amp[lo:hi - 1], sz[lo:hi]) on rows lo .. hi - 1 (default: all),
        clipped to the multiplet and computed there alone."""
        k = np.arange(lo, self.n + 1 if hi is None else min(hi, self.n + 1))
        # ||S_+ e_k||^2 = (k+1)(n-k), forced by the commutation relations
        return np.sqrt((k[:-1] + 1.0) * (self.n - k[:-1])), 2.0 * k - self.n

    amp = property(lambda self: self.window()[0])
    sz = property(lambda self: self.window()[1])

    def diagonals(self, name, lo=0, hi=None):
        """{offset: diagonal} of the operator `name` on rows lo .. hi - 1
        (default: all) in column order; -1 takes row k to k + 1."""
        amp, sz = self.window(lo, hi)
        return {"s_plus": {-1: amp}, "s_minus": {1: amp}, "s_z": {0: sz},
                "s_x": {-1: amp, 1: amp},
                "s_y": {-1: -1j * amp, 1: 1j * amp}}[name]

    @property
    def dim(self):
        return 2 * (self.n + 1)

    def __repr__(self):
        return f"<DickeOperators n={self.n}>"


def collective_ops(n):
    """Collective spin + Clifford operators for n particles."""
    return DickeOperators(n)


@dataclass(frozen=True)
class DickeState:
    """Unit vector on the product space, zero outside rows k in range(*span);
    the span is scanned unless the builder passes it."""

    vector: np.ndarray
    label: str
    n: int
    meta: dict = field(default_factory=dict)
    span: tuple = None

    def __post_init__(self):
        if self.span is None:
            held = np.flatnonzero(self.vector.reshape(-1, 2).any(axis=1))
            object.__setattr__(self, "span", (int(held[0]), int(held[-1]) + 1)
                               if held.size else (0, 0))
        norm = np.linalg.norm(self.rows()[1])
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state {self.label!r} has norm {norm!r}")
        self.vector.flags.writeable = False

    def rows(self, pad=0):
        """(lo, rows lo, lo + 1, ... of the span widened by `pad` each
        side); a reduction over them is the full one for a basis state."""
        lo = max(self.span[0] - pad, 0)
        return lo, self.vector.reshape(-1, 2)[lo:self.span[1] + pad]


def _product_state(spin_vec, label, n, meta=None):
    """spin_vec tensor the Clifford state killed by eta^dag."""
    vec = np.kron(np.asarray(spin_vec, dtype=complex),
                  np.array([0.0, 1.0], dtype=complex))
    return DickeState(vector=vec, label=label, n=n, meta=meta or {})


def g_alpha_offdiagonals(ops, alpha=0.0):
    """(upper, lower): the only entries, (2k, 2k + 3) and (2k + 3, 2k), of
    G_alpha for Q = S_- (x) eta / sqrt N, the Dicke image of Model III's
    M_N eta_N.  As operators.gauge_charge forms them: the phase, the 0.0 +
    of the Sparse sum, then the 1/sqrt N (the goldens pin that order)."""
    q, scale = ops.amp.astype(complex), 1 / np.sqrt(ops.n)
    return ((0.0 + q * np.exp(1j * alpha)) * scale,
            (0.0 + q.conj() * np.exp(-1j * alpha)) * scale)


def hss_diagonal(ops):
    """The normalized H_SS = G_0^2 as its complex diagonal, exact: row 2k of
    G_0 holds only (2k, 2k + 3) and row 2k + 3 only (2k + 3, 2k), so each
    entry is one product, (k+1)(N-k)/N at rows 2k and 2k + 3, else 0."""
    (upper, lower), h = g_alpha_offdiagonals(ops), np.zeros(ops.dim, complex)
    h[:-2:2], h[3::2] = upper * lower, lower * upper
    return h


def hss_eigenvalues(ops):
    """All eigenvalues of the normalized H_SS, ascending: its diagonal."""
    return np.sort(hss_diagonal(ops).real)


def pairing_diagonal(ops):
    """H'_BCS = -S_+ S_- / N on the multiplet as its complex diagonal,
    -k(N-k+1)/N at row k, formed as the Sparse -(S_+ @ S_-) / N is."""
    amp = ops.amp.astype(complex)
    return np.concatenate(([0j], -(amp * amp) * (1 / ops.n)))


def _basis_state(n, k, label):
    """Spin basis vector e_k (s_z = 2k - N), Clifford factor eta^dag-killed."""
    vec = np.zeros(2 * (n + 1), dtype=complex)
    vec[2 * k + 1] = 1.0
    return DickeState(vector=vec, label=label, n=n, span=(k, k + 1))


def ground_state(ops):
    """All spins down, Clifford factor annihilated by eta^dag; H_SS kernel."""
    return _basis_state(ops.n, 0, "ground")


def ceiling_state(ops):
    """psi2 = normalized S_+^{N/2} |lowest> = e_{N/2} (s_z = 0), because
    S_+ maps e_k to a positive multiple of e_{k+1}."""
    if ops.n % 2:
        raise ValueError("ceiling ladder construction needs even n")
    return _basis_state(ops.n, ops.n // 2, "ceiling")


def ceiling_law_exact(n):
    """4 E_N for the ceiling eigenproblem, by exact integer ladder arithmetic.

    Telescopes <k|S_+ S_-|k> from the commutation relation [S_+, S_-] = S_z
    up to k = N/2 and k = N/2 + 1; both must give N(N+2).
    """
    if n % 2:
        raise ValueError("even n required")
    p = 0  # <e_k| S_+ S_- |e_k>, exact integer
    values = {}
    for k in range(n // 2 + 2):
        if k == n // 2:
            values["psi2"] = 4 * p
        if k == n // 2 + 1:
            values["psi1"] = 4 * p
        p = p + n - 2 * k
    return values["psi1"], values["psi2"]


def coherent_spin_amplitudes(n, alpha):
    """Dicke-basis amplitudes of the product state with every spin at
    (e^{i alpha}, e^{-i alpha})/sqrt 2; component k is
    sqrt(C(n,k)) e^{i alpha (2k-n)} / 2^{n/2}, evaluated in log space.

    One table of log k! = lgamma(k+1), k = 0..n, supplies every term; the
    (n-k)! term is the same table reversed.  The real amplitudes are
    divided by their norm before the phase is applied: log-factorial
    rounding alone leaves the norm off by up to 7e-13 at n = 20000."""
    k = np.arange(n + 1)
    log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)
    log_amp = 0.5 * (log_fact[n] - log_fact - log_fact[::-1])
    log_amp -= 0.5 * n * np.log(2.0)
    amp = np.exp(log_amp)
    return amp / np.linalg.norm(amp) * np.exp(1j * alpha * (2 * k - n))


def bogoliubov_state(ops, alpha=0.0):
    """SU(2) coherent product state with all spins in the x-y plane."""
    return _product_state(coherent_spin_amplitudes(ops.n, alpha),
                          f"bogoliubov({alpha:g})", ops.n)


def cos_power_integral(n):
    """integral_{-pi/2}^{pi/2} cos^n(phi) dphi, exact via gamma functions."""
    return float(np.sqrt(np.pi)
                 * np.exp(math.lgamma((n + 1) / 2) - math.lgamma(n / 2 + 1)))


def _bogoliubov_quadrature(n, nodes, weight):
    """sum_a weight(a) BS(a) over `nodes`, BS(a)_k = BS(0)_k e^{ia(2k-n)}."""
    k = np.arange(n + 1)
    base = coherent_spin_amplitudes(n, 0.0)
    acc = np.zeros(n + 1, dtype=complex)
    for a in nodes:
        acc += weight(a) * base * np.exp(1j * a * (2 * k - n))
    return acc


def ceiling_state_integral(ops, n_nodes=None):
    """psi2 as the angular integral of rotated Bogoliubov states.

    Midpoint rule on [-pi/2, pi/2] (the integrand is pi-periodic for even n,
    so the rule is spectrally accurate).  The normalization constant
    C = (pi * integral cos^N)^{-1/2} must reproduce a unit vector; the
    residual is stored in meta["c_norm_residual"].
    """
    n = ops.n
    if n % 2:
        raise ValueError("even n required")
    if n_nodes is None:
        n_nodes = 4 * n
    if n_nodes < 4 * n:
        raise ValueError(f"quadrature grid too coarse: {n_nodes} < 4n")
    nodes = -np.pi / 2 + np.pi * (np.arange(n_nodes) + 0.5) / n_nodes
    acc = _bogoliubov_quadrature(n, nodes, lambda a: np.pi / n_nodes)
    c_const = 1.0 / np.sqrt(np.pi * cos_power_integral(n))
    vec = c_const * acc
    residual = abs(np.linalg.norm(vec) - 1.0)
    vec = vec / np.linalg.norm(vec)
    return _product_state(vec, "ceiling_integral", n,
                          meta={"c_norm_residual": residual})


def coherent_superposition(ops, weight, n_nodes=256):
    """Normalized quadrature superposition of Bogoliubov states.

    `weight` maps the angle alpha in [-pi, pi) to a complex amplitude.  With
    weight = 1 the result reproduces the ceiling state psi2 (even n).  Raises
    VanishingNormError when the components interfere away.
    """
    n = ops.n
    nodes = -np.pi + 2 * np.pi * (np.arange(n_nodes) + 0.5) / n_nodes
    acc = _bogoliubov_quadrature(n, nodes, lambda a: complex(weight(a)))
    norm = np.linalg.norm(acc)
    if norm < 1e-10:
        raise VanishingNormError(
            "coherent superposition vanished by destructive interference")
    return _product_state(acc / norm, "coherent", n)


def overlap(x, y):
    """<x|y> for two states on the same product space."""
    if x.n != y.n:
        raise ValueError(f"particle numbers differ: {x.n} vs {y.n}")
    return complex(np.vdot(x.vector, y.vector))

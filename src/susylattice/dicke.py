"""Exact collective-spin engine: the maximal multiplet of N pair-spins
tensored with one Clifford mode.

The product space has dimension 2(N+1) and is ordered spin-major: basis index
2k + c where k counts raised spins (s_z = 2k - N) and c indexes the Clifford
factor (c = 0 carries eta eta^dag = 1; c = 1 is annihilated by eta^dag and is
the ground-state convention).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.special import gammaln

from .operators import DimensionError, diagonal_eigenvalues

MAX_PARTICLES = 20000


class VanishingNormError(ValueError):
    """A superposition interfered destructively to (numerically) zero."""


class DickeOperators:
    """Ladder operators on the spin-N/2 multiplet plus the Clifford mode.

    s_plus, s_minus, s_z live on the (N+1)-dimensional multiplet and follow
    the Pauli-sum normalization: [s_plus, s_minus] = s_z, [s_z, s_plus] =
    2 s_plus, s_z eigenvalues -N, -N+2, ..., N.  The *_full attributes are the
    same operators lifted to the 2(N+1)-dimensional product space, where eta
    acts on the Clifford factor.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("particle number must be positive")
        if n > MAX_PARTICLES:
            raise DimensionError(f"n={n} exceeds bound {MAX_PARTICLES}")
        self.n = n
        k = np.arange(n)
        # ||S_+ e_k||^2 = (k+1)(n-k), forced by the commutation relations
        amp = np.sqrt((k + 1.0) * (n - k))
        self.s_plus = sparse.diags(amp, -1, format="csr", dtype=complex)
        self.s_minus = sparse.diags(amp, 1, format="csr", dtype=complex)
        self.s_z = sparse.diags(np.arange(-n, n + 1, 2.0), 0, format="csr",
                                dtype=complex)
        self.s_x = (self.s_plus + self.s_minus).tocsr()
        self.s_y = ((self.s_plus - self.s_minus) / 1j).tocsr()
        self.eta = sparse.csr_matrix(
            np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        eye_spin = sparse.identity(n + 1, dtype=complex, format="csr")
        eye_cl = sparse.identity(2, dtype=complex, format="csr")
        self.eta_full = sparse.kron(eye_spin, self.eta, format="csr")
        for name in ("s_plus", "s_minus", "s_z", "s_x", "s_y"):
            lifted = sparse.kron(getattr(self, name), eye_cl, format="csr")
            setattr(self, name + "_full", lifted)

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
    """Unit vector on the 2(N+1)-dimensional product space."""

    vector: np.ndarray
    label: str
    n: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        norm = np.linalg.norm(self.vector)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state {self.label!r} has norm {norm!r}")
        self.vector.flags.writeable = False


def _product_state(spin_vec, clifford_index, label, n, meta=None):
    cl = np.zeros(2, dtype=complex)
    cl[clifford_index] = 1.0
    vec = np.kron(np.asarray(spin_vec, dtype=complex), cl)
    return DickeState(vector=vec, label=label, n=n, meta=meta or {})


def build_g_alpha_dicke(ops, alpha=0.0):
    """G_alpha = (1/sqrt N)(e^{i a} eta S_- + e^{-i a} eta^dag S_+), sparse."""
    g = (np.exp(1j * alpha) * (ops.eta_full @ ops.s_minus_full)
         + np.exp(-1j * alpha) * (ops.eta_full.conj().T @ ops.s_plus_full))
    return (g / np.sqrt(ops.n)).tocsr()


def build_hss_dicke(ops):
    """Normalized H_SS = G_alpha^2; gauge independent by construction."""
    g = build_g_alpha_dicke(ops, 0.0)
    return (g @ g).tocsr()


def hss_unnormalized(ops):
    """N * H_SS: the block convention in which the ceiling eigenvalue is
    N(N+2)/4."""
    return (ops.n * build_hss_dicke(ops)).tocsr()


def hss_eigenvalues(ops):
    """All eigenvalues of the normalized H_SS, ascending.

    H_SS is diagonal in the product basis (it commutes with s_z and the
    Clifford grading); the off-diagonal part is checked to vanish.
    """
    return diagonal_eigenvalues(build_hss_dicke(ops))


def _basis_state(n, k, label):
    """Spin basis vector e_k (s_z = 2k - N), Clifford factor eta^dag-killed."""
    spin = np.zeros(n + 1, dtype=complex)
    spin[k] = 1.0
    return _product_state(spin, 1, label, n)


def ground_state(ops):
    """All spins down, Clifford factor annihilated by eta^dag; H_SS kernel."""
    return _basis_state(ops.n, 0, "ground")


def ceiling_state_ladder(ops):
    """(psi1, psi2): the ceiling eigenvector components, in closed form.

    psi2 = normalized S_+^{N/2} |lowest> = e_{N/2}  (s_z = 0),
    psi1 = normalized S_+ psi2         = e_{N/2+1} (s_z = 2),
    because S_+ maps e_k to a positive multiple of e_{k+1}.
    """
    n = ops.n
    if n % 2:
        raise ValueError("ceiling ladder construction needs even n")
    return (_basis_state(n, n // 2 + 1, "ceiling_psi1"),
            _basis_state(n, n // 2, "ceiling"))


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

    The real amplitudes are divided by their norm before the phase is
    applied: gammaln rounding alone leaves the norm off by more than 1e-12
    for many n above about 1400."""
    k = np.arange(n + 1)
    log_amp = 0.5 * (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))
    log_amp -= 0.5 * n * np.log(2.0)
    amp = np.exp(log_amp)
    return amp / np.linalg.norm(amp) * np.exp(1j * alpha * (2 * k - n))


def bogoliubov_state(ops, alpha=0.0):
    """SU(2) coherent product state with all spins in the x-y plane."""
    return _product_state(coherent_spin_amplitudes(ops.n, alpha), 1,
                          f"bogoliubov({alpha:g})", ops.n)


def cos_power_integral(n):
    """integral_{-pi/2}^{pi/2} cos^n(phi) dphi, exact via gamma functions."""
    return float(np.sqrt(np.pi)
                 * np.exp(gammaln((n + 1) / 2) - gammaln(n / 2 + 1)))


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
    weight = np.pi / n_nodes
    k = np.arange(n + 1)
    base = coherent_spin_amplitudes(n, 0.0)
    acc = np.zeros(n + 1, dtype=complex)
    for a in nodes:
        acc += weight * base * np.exp(1j * a * (2 * k - n))
    c_const = 1.0 / np.sqrt(np.pi * cos_power_integral(n))
    vec = c_const * acc
    residual = abs(np.linalg.norm(vec) - 1.0)
    vec = vec / np.linalg.norm(vec)
    return _product_state(vec, 1, "ceiling_integral", n,
                          meta={"c_norm_residual": residual})


def coherent_superposition(ops, weight, n_nodes=256):
    """Normalized quadrature superposition of Bogoliubov states.

    `weight` maps the angle alpha in [-pi, pi) to a complex amplitude.  With
    weight = 1 the result reproduces the ceiling state psi2 (even n).  Raises
    VanishingNormError when the components interfere away.
    """
    n = ops.n
    nodes = -np.pi + 2 * np.pi * (np.arange(n_nodes) + 0.5) / n_nodes
    k = np.arange(n + 1)
    base = coherent_spin_amplitudes(n, 0.0)
    acc = np.zeros(n + 1, dtype=complex)
    for a in nodes:
        acc += complex(weight(a)) * base * np.exp(1j * a * (2 * k - n))
    norm = np.linalg.norm(acc)
    if norm < 1e-10:
        raise VanishingNormError(
            "coherent superposition vanished by destructive interference")
    return _product_state(acc / norm, 1, "coherent", n)


def overlap(x, y):
    """<x|y> for two states on the same product space."""
    if x.n != y.n:
        raise ValueError(f"particle numbers differ: {x.n} vs {y.n}")
    return complex(np.vdot(x.vector, y.vector))


def expectation(state, op_full):
    """<state| A |state> for a lifted (sparse or dense) operator."""
    v = state.vector
    return complex(np.vdot(v, op_full @ v))

"""Operator toolkit and the model-independent super-structure.

Operators are plain numpy arrays or scipy sparse matrices: fermion mode
operators built by the Jordan-Wigner construction, (anti)commutators,
Hermitian matrix functions, and the decomposition of a nilpotent supercharge
Q into the package (P0, eta, F, G_alpha, paired spectrum).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

# Dense matrices only; 2^14 is the largest Fock dimension we ever touch.
MAX_MODES = 14

# Eigenvalues of H below KERNEL_CUT * ||H|| count as exact zeros.
KERNEL_CUT = 1e-9

# Gaps below CLUSTER_TOL * (1 + |lambda|) merge into one multiplet.
CLUSTER_TOL = 1e-8

NILPOTENCY_TOL = 1e-12


class DimensionError(ValueError):
    """Requested construction exceeds the dense feasibility bound."""


class NilpotencyError(ValueError):
    """Supercharge candidate is not nilpotent."""


def _as_array(x):
    return x.toarray() if sparse.issparse(x) else np.asarray(x)


@dataclass(frozen=True)
class LatticeSpec:
    """Finite fermion lattice: n_sites sites with n_flavors modes per site.

    Mode enumeration is site-major, flavor-minor: mode index = site * n_flavors
    + flavor. The Jordan-Wigner sign string follows this order.
    """

    n_sites: int
    n_flavors: int = 1

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("n_sites must be positive")
        if self.n_flavors not in (1, 2, 3):
            raise ValueError("n_flavors must be 1, 2 or 3")

    @property
    def modes(self):
        return self.n_sites * self.n_flavors

    @property
    def dim(self):
        return 2 ** self.modes

    def mode_index(self, site, flavor=0):
        if not (0 <= site < self.n_sites and 0 <= flavor < self.n_flavors):
            raise ValueError(f"mode ({site},{flavor}) outside lattice")
        return site * self.n_flavors + flavor


def bit_operator(nbits, mask, kind="lower", string=0):
    """Sparse one-site operator on the 2^nbits bit-string basis, read off
    the bits of the basis index: kind "lower" = [[0,1],[0,0]] (clears the
    `mask` bit), "z" = diag(1,-1) (-1 where it is set), each times the sign
    string (-1)^popcount(index & string), e.g. the Jordan-Wigner string."""
    idx = np.arange(2 ** nbits)
    par = idx & string
    for shift in (16, 8, 4, 2, 1):      # xor-fold to the popcount parity
        par = par ^ (par >> shift)
    sign = 1.0 - 2.0 * (par & 1)
    if kind == "z":
        return sparse.diags(sign * (1.0 - 2.0 * ((idx & mask) != 0)),
                            format="csr", dtype=complex)
    cols = idx[(idx & mask) != 0]
    return sparse.csr_matrix((sign[cols].astype(complex), (cols ^ mask, cols)),
                             shape=(idx.size, idx.size))


@lru_cache(maxsize=None)
def sparse_annihilators(modes):
    """Sparse Jordan-Wigner annihilation operators for `modes` fermion modes.

    Mode k is bit modes-1-k of the basis index (mode 0 most significant) and
    carries the sign string on all modes left of it; the single-mode block
    sends |1> to |0> (upper-right entry 1 in the (|0>,|1>) basis).
    """
    if modes > MAX_MODES:
        raise DimensionError(
            f"{modes} modes exceed the dense bound of {MAX_MODES}")
    top = 2 ** modes
    return tuple(bit_operator(modes, 1 << (modes - 1 - k),
                              string=top - (2 << (modes - 1 - k)))
                 for k in range(modes))


def hermitian_norm(m):
    """Exact spectral norm max|lambda| of a sparse Hermitian matrix: the
    connected components of its sparsity pattern are decoupled blocks, and
    equal-size blocks share one stacked eigvalsh call."""
    m = sparse.csr_matrix(m)
    _require_hermitian(m, "hermitian_norm argument")
    ncomp, labels = connected_components(m != 0, directed=False)
    sizes = np.bincount(labels, minlength=ncomp)
    # position of each basis state inside its component
    rank = np.argsort(np.argsort(labels, kind="stable"))
    pos = rank - (np.cumsum(sizes) - sizes)[labels]
    coo = m.tocoo()
    comp = labels[coo.row]
    best = 0.0
    for size in np.unique(sizes):
        members = sizes == size
        slot = np.cumsum(members) - 1
        hit = members[comp]
        stack = np.zeros((members.sum(), size, size), dtype=m.dtype)
        stack[slot[comp[hit]], pos[coo.row[hit]], pos[coo.col[hit]]] = \
            coo.data[hit]
        best = max(best, float(np.abs(np.linalg.eigvalsh(stack)).max()))
    return best


def fermion_ops(spec):
    """Annihilation operators for every mode of `spec`, in mode order.

    The returned dense matrices satisfy the CAR exactly up to round-off:
    {a_m, a_n^dag} = delta_mn, {a_m, a_n} = 0.
    """
    return [a.toarray() for a in sparse_annihilators(spec.modes)]


def bracket(a, b, kind="commutator"):
    """AB -+ BA for kind in {"commutator", "anticommutator"}; dense or
    sparse operands, and two sparse operands give a sparse result."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if kind == "commutator":
        return a @ b - b @ a
    if kind == "anticommutator":
        return a @ b + b @ a
    raise ValueError(f"unknown bracket kind {kind!r}")


def _require_hermitian(m, what):
    scale = max(1.0, abs(m).max())
    if abs(m - m.conj().T).max() > 1e-10 * scale:
        raise ValueError(f"{what} must be Hermitian")


def hermitian_function(g, fn):
    """Apply a scalar function to a Hermitian matrix via eigendecomposition."""
    gm = _as_array(g)
    _require_hermitian(gm, "matrix-function argument")
    vals, vecs = np.linalg.eigh(gm)
    return (vecs * fn(vals)) @ vecs.conj().T


def unitary_flow(g, s, a):
    """Conjugate `a` by exp(isG): the one-parameter automorphism of G.

    G must be Hermitian; the conjugation preserves the spectrum of `a`.
    """
    am = _as_array(a)
    if np.shape(g) != am.shape:
        raise ValueError("generator and operator dimensions differ")
    if not np.isfinite(s):
        raise ValueError("flow parameter must be finite")
    u = hermitian_function(g, lambda v: np.exp(1j * s * v))
    return u @ am @ u.conj().T


def spectrum(h):
    """Ascending (eigenvalue, multiplicity) pairs of a Hermitian matrix.

    Eigenvalues closer than CLUSTER_TOL * (1 + |lambda|) merge into one entry;
    the reported value is the cluster mean.
    """
    hm = _as_array(h)
    _require_hermitian(hm, "spectrum argument")
    vals = np.linalg.eigvalsh(hm)
    return cluster_eigenvalues(vals)


def cluster_eigenvalues(vals, tol=CLUSTER_TOL):
    """Group a sorted eigenvalue array into (value, multiplicity) clusters."""
    vals = np.sort(np.asarray(vals, dtype=float))
    out = []
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and vals[j] - vals[j - 1] <= tol * (1 + abs(vals[j])):
            j += 1
        out.append((float(vals[i:j].mean()), j - i))
        i = j
    return out


def gauge_charge(q, alpha):
    """The Hermitian family G_alpha = e^{i alpha} Q + e^{-i alpha} Q^dag."""
    qm = _as_array(q)
    return np.exp(1j * alpha) * qm + np.exp(-1j * alpha) * qm.conj().T


def nilpotency_residual(q):
    """||Q^2||_F / ||Q||_F^2; zero matrices count as nilpotent."""
    qm = _as_array(q)
    nq = np.linalg.norm(qm)
    if nq == 0.0:
        return 0.0
    return float(np.linalg.norm(qm @ qm) / nq ** 2)


@dataclass(frozen=True)
class SuperDecomposition:
    """The structure extracted from a nilpotent supercharge.

    Attributes
    ----------
    q, h : ndarray
        The supercharge and H = Q Q^dag + Q^dag Q.
    p0 : ndarray
        Orthogonal projector onto ker H.
    eta : ndarray
        Q / sqrt(H) on the range of 1 - P0; the collective Clifford mode.
    f : ndarray
        [eta, eta^dag]; generates the gauge rotation of G.
    paired_spectrum : tuple
        (E, multiplicity) for the strictly positive eigenvalues of H.
    alpha : float
        The gauge angle the decomposition was requested at.

    The arrays are read-only.
    """

    q: np.ndarray
    h: np.ndarray
    p0: np.ndarray
    eta: np.ndarray
    f: np.ndarray
    paired_spectrum: tuple
    alpha: float = 0.0

    def g_alpha(self, alpha=None):
        return gauge_charge(self.q, self.alpha if alpha is None else alpha)

    def gauge_rotate(self, alpha):
        """Conjugate G_0 by exp(i alpha F / 2); equals G_alpha.

        The half-angle is forced by F eta = eta, eta F = -eta: conjugation by
        exp(i t F) multiplies the odd part of G by exp(2 i t).
        """
        u = hermitian_function(self.f, lambda v: np.exp(1j * alpha / 2 * v))
        return u @ self.g_alpha(0.0) @ u.conj().T


def super_decompose(q, alpha=0.0, check=True):
    """Decompose a nilpotent Q into (P0, eta, F, paired spectrum).

    Raises NilpotencyError when ||Q^2|| > 1e-12 ||Q||^2 and ValueError when a
    structural invariant fails at its stated tolerance (`check=True`).
    """
    qm = _as_array(q)
    res = nilpotency_residual(qm)
    if res > NILPOTENCY_TOL:
        raise NilpotencyError(f"Q^2 residual {res:.3e} exceeds 1e-12")
    h = qm @ qm.conj().T + qm.conj().T @ qm
    vals, vecs = np.linalg.eigh(h)
    hnorm = max(vals[-1], 0.0)
    cut = KERNEL_CUT * max(hnorm, 1e-300)
    kernel = vals < cut
    p0 = (vecs[:, kernel]) @ (vecs[:, kernel]).conj().T
    inv_sqrt = np.where(kernel, 0.0, 1.0 / np.sqrt(np.where(kernel, 1.0, vals)))
    eta = qm @ ((vecs * inv_sqrt) @ vecs.conj().T)
    f = bracket(eta, eta.conj().T)
    paired = tuple(cluster_eigenvalues(vals[~kernel]))
    qm = qm.view()          # read-only view; the caller's array stays as is
    for m in (qm, h, p0, eta, f):
        m.flags.writeable = False
    dec = SuperDecomposition(q=qm, h=h, p0=p0, eta=eta, f=f,
                             paired_spectrum=paired, alpha=alpha)
    if check:
        verify_decomposition(dec, alpha)
    return dec


def verify_decomposition(dec, alpha=0.0):
    """Check every structural invariant of a SuperDecomposition.

    - eta eta^dag + eta^dag eta = 1 - P0 (to 1e-10)
    - strictly positive H eigenvalues have even multiplicity
    - the G spectrum on range(1 - P0) is +-sqrt(E) with matched multiplicities
    - G_alpha^2 = H for the requested alpha and for alpha in {0, pi/2}
    """
    eye = np.eye(dec.h.shape[0])
    eta, p0 = dec.eta, dec.p0
    ccr = bracket(eta, eta.conj().T, "anticommutator") - (eye - p0)
    if np.abs(ccr).max() > 1e-10:
        raise ValueError(f"eta CAR residual {np.abs(ccr).max():.3e}")
    for e_val, mult in dec.paired_spectrum:
        if mult % 2:
            raise ValueError(
                f"positive eigenvalue {e_val:.6g} has odd multiplicity {mult}")
    hnorm = max(float(np.linalg.norm(dec.h, 2)), 1e-300)
    g0 = gauge_charge(dec.q, 0.0)
    gvals = np.linalg.eigvalsh(g0)
    nonzero = gvals[np.abs(gvals) > np.sqrt(KERNEL_CUT * hnorm)]
    pos = cluster_eigenvalues(nonzero[nonzero > 0])
    neg = cluster_eigenvalues(-nonzero[nonzero < 0])
    if len(pos) != len(neg):
        raise ValueError("G spectrum not symmetric about zero")
    for (vp, mp), (vn, mn) in zip(pos, neg):
        if mp != mn or abs(vp - vn) > 1e-8 * (1 + abs(vp)):
            raise ValueError("G eigenvalues +-sqrt(E) do not match")
    for a in {alpha, 0.0, np.pi / 2}:
        g = gauge_charge(dec.q, a)
        if np.abs(g @ g - dec.h).max() > 1e-10 * (1 + hnorm):
            raise ValueError(f"G_alpha^2 != H at alpha={a:g}")

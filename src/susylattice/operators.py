"""Operator toolkit and the model-independent super-structure.

Operators are scipy CSR matrices wherever they are built: fermion mode
operators by the Jordan-Wigner construction, (anti)commutators and the gauge
family.  The decomposition of a nilpotent supercharge Q into (P0, eta, F,
G_alpha, paired spectrum) solves the exact invariant blocks of Q; only the
Hermitian matrix functions take a dense copy of their argument.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

# Sparse Jordan-Wigner operators on at most 2^14 Fock states; the dense
# kernels stop far below that, at the per-model site caps.
MAX_MODES = 14

# Eigenvalues of H below KERNEL_CUT * ||H|| count as exact zeros.
KERNEL_CUT = 1e-9

# Gaps below CLUSTER_TOL * (1 + |lambda|) merge into one multiplet.
CLUSTER_TOL = 1e-8

NILPOTENCY_TOL = 1e-12


class DimensionError(ValueError):
    """Requested construction exceeds a size bound (MAX_MODES or a model's
    site cap)."""


class NilpotencyError(ValueError):
    """Supercharge candidate is not nilpotent."""


def _as_array(x):
    return x.toarray() if sparse.issparse(x) else np.asarray(x)


def read_only(m):
    """m as canonical CSR whose data array is read-only, so that writing a
    stored entry raises ValueError."""
    m = sparse.csr_matrix(m)
    m.sum_duplicates()
    m.data.flags.writeable = False
    return m


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


def bit_operator(nbits, mask, string=0):
    """Sparse one-site [[0,1],[0,0]] on the 2^nbits bit-string basis, read
    off the bits of the basis index: it clears the `mask` bit, times the
    sign string (-1)^popcount(index & string), e.g. the Jordan-Wigner
    string."""
    idx = np.arange(2 ** nbits)
    par = idx & string
    for shift in (16, 8, 4, 2, 1):      # xor-fold to the popcount parity
        par = par ^ (par >> shift)
    sign = 1.0 - 2.0 * (par & 1)
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
            f"{modes} modes exceed the bound of {MAX_MODES}")
    top = 2 ** modes
    return tuple(read_only(bit_operator(modes, 1 << (modes - 1 - k),
                                        string=top - (2 << (modes - 1 - k))))
                 for k in range(modes))


def _components(pattern):
    """Component label of every state under the symmetrised pattern of
    sparse `pattern`, numbered by the rank of each component's smallest
    state: the labels of scipy.sparse.csgraph.connected_components.

    Min-label propagation with pointer jumping.  Each round, every edge
    whose ends carry different labels hooks the larger label, a root, onto
    the smaller; then every label jumps to its own label until each points
    at a root.  Rounds repeat until no edge joins two labels.  A label is
    always a state of the same component and never grows, so each
    component ends labelled by its smallest state."""
    coo = sparse.coo_matrix(pattern)
    stored = coo.data != 0
    rows, cols = coo.row[stored], coo.col[stored]
    labels = np.arange(pattern.shape[0])
    while True:
        at_row, at_col = labels[rows], labels[cols]
        split = at_row != at_col
        if not split.any():
            return np.unique(labels, return_inverse=True)[1]
        np.minimum.at(labels, np.maximum(at_row, at_col)[split],
                      np.minimum(at_row, at_col)[split])
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]


def _blocks(pattern, *mats):
    """Stack sparse `mats` over the connected components of the symmetrised
    pattern of `pattern`, which must cover every pattern in `mats`.  Yields,
    per block size, the (k, size) basis states of the k blocks of that size
    and one (k, size, size) stack per matrix."""
    labels = _components(pattern)
    sizes = np.bincount(labels)
    start = np.cumsum(sizes) - sizes
    order = np.argsort(labels, kind="stable")
    pos = np.empty_like(order)      # position of each state in its block
    pos[order] = np.arange(order.size) - start[labels[order]]
    coos = [m.tocoo() for m in mats]
    for size in np.unique(sizes):
        members = sizes == size
        slot = np.cumsum(members) - 1
        stacks = []
        for coo in coos:
            comp = labels[coo.row]
            hit = members[comp]
            stack = np.zeros((members.sum(), size, size), dtype=coo.dtype)
            stack[slot[comp[hit]], pos[coo.row[hit]], pos[coo.col[hit]]] = \
                coo.data[hit]
            stacks.append(stack)
        yield order[start[members][:, None] + np.arange(size)], stacks


def _unblock(dim, parts):
    """Read-only CSR in the original basis from (states, stack) pairs."""
    rows = np.concatenate([np.repeat(s, s.shape[1]) for s, _ in parts])
    cols = np.concatenate([np.tile(s, s.shape[1]).ravel() for s, _ in parts])
    data = np.concatenate([stack.ravel() for _, stack in parts])
    return read_only(sparse.coo_matrix((data, (rows, cols)), shape=(dim, dim)))


def _dagger(stack):
    return stack.conj().swapaxes(-1, -2)


def hermitian_norm(m):
    """Exact spectral norm max|lambda| of a sparse Hermitian matrix: the
    connected components of its sparsity pattern are decoupled blocks, and
    equal-size blocks share one stacked eigvalsh call."""
    m = sparse.csr_matrix(m)
    _require_hermitian(m, "hermitian_norm argument")
    return max(float(np.abs(np.linalg.eigvalsh(stack)).max())
               for _, (stack,) in _blocks(m, m))


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
    """Apply a scalar function to a Hermitian matrix via eigendecomposition;
    fn may return one row per flow parameter, which gives a stack."""
    gm = _as_array(g)
    _require_hermitian(gm, "matrix-function argument")
    vals, vecs = np.linalg.eigh(gm)
    return (vecs * fn(vals)[..., None, :]) @ vecs.conj().T


def unitary_flow(g, s, a):
    """Conjugate `a` by exp(isG): the one-parameter automorphism of G.

    G must be Hermitian; the conjugation preserves the spectrum of `a`.
    A 1-D array of s gives one operator per s from one eigh of G.
    """
    am = _as_array(a)
    if np.shape(g) != am.shape:
        raise ValueError("generator and operator dimensions differ")
    s = np.asarray(s)[..., None]
    if not np.isfinite(s).all():
        raise ValueError("flow parameter must be finite")
    u = hermitian_function(g, lambda v: np.exp(1j * s * v))
    return u @ am @ _dagger(u)


def diagonal_eigenvalues(h):
    """Ascending eigenvalues of a sparse Hermitian H that is diagonal in the
    basis it is stored in; raises ValueError when an off-diagonal entry
    exceeds 1e-12."""
    off = h - sparse.diags(h.diagonal())
    if off.nnz and abs(off).max() > 1e-12:
        raise ValueError("H is not diagonal in its basis")
    return np.sort(h.diagonal().real)


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
    """The Hermitian family G_alpha = e^{i alpha} Q + e^{-i alpha} Q^dag, in
    the representation of Q (sparse Q gives a sparse G).  The one builder of
    G_alpha: the Fock models pass their Q, and the Dicke layer, the local
    site operator and the Witten limit pass Q = A (x) eta."""
    qm = q if sparse.issparse(q) else np.asarray(q)
    return np.exp(1j * alpha) * qm + np.exp(-1j * alpha) * qm.conj().T


def nilpotency_residual(q):
    """||Q^2||_F / ||Q||_F^2 over stored entries; zero Q is nilpotent."""
    q = sparse.csr_matrix(q)
    nq = np.linalg.norm(q.data)
    if nq == 0.0:
        return 0.0
    return float(np.linalg.norm((q @ q).data) / nq ** 2)


@dataclass(frozen=True)
class SuperDecomposition:
    """The structure extracted from a nilpotent supercharge.

    Attributes
    ----------
    q, h : csr_matrix
        The supercharge and H = Q Q^dag + Q^dag Q.
    p0 : ndarray
        Orthogonal projector onto ker H, scattered block by block.  Dense
        only because the benchmark reads it with np.asarray and np.trace.
    eta : csr_matrix
        Q / sqrt(H) on the range of 1 - P0; the collective Clifford mode.
    f : csr_matrix
        [eta, eta^dag]; generates the gauge rotation of G.
    paired_spectrum : tuple
        (E, multiplicity) for the strictly positive eigenvalues of H.

    The matrices are read-only.
    """

    q: sparse.csr_matrix
    h: sparse.csr_matrix
    p0: np.ndarray
    eta: sparse.csr_matrix
    f: sparse.csr_matrix
    paired_spectrum: tuple

    def g_alpha(self, alpha):
        return gauge_charge(self.q, alpha)


def super_decompose(q, check=True):
    """Decompose a nilpotent Q into (P0, eta, F, paired spectrum).

    The connected components of |Q| + |Q^dag| are invariant blocks of Q, Q^dag
    and H; equal-size blocks share one stacked eigh, and the kernel cut is
    relative to the global ||H||.  Raises NilpotencyError when ||Q^2|| >
    1e-12 ||Q||^2, ValueError when an invariant fails (`check=True`).
    """
    q = read_only(sparse.csr_matrix(q, copy=True))
    res = nilpotency_residual(q)
    if res > NILPOTENCY_TOL:
        raise NilpotencyError(f"Q^2 residual {res:.3e} exceeds 1e-12")
    blocks = [(st, qb, *np.linalg.eigh(qb @ _dagger(qb) + _dagger(qb) @ qb))
              for st, (qb,) in _blocks(q, q)]
    cut = KERNEL_CUT * max(max(vals.max() for *_, vals, _ in blocks), 1e-300)
    p0s, etas, fs = [], [], []
    for st, qb, vals, vecs in blocks:
        kernel = vals < cut
        inv_sqrt = np.where(kernel, 0.0,
                            1.0 / np.sqrt(np.where(kernel, 1.0, vals)))
        eta = qb @ ((vecs * inv_sqrt[:, None, :]) @ _dagger(vecs))
        p0s.append((st, (vecs * kernel[:, None, :]) @ _dagger(vecs)))
        etas.append((st, eta))
        fs.append((st, eta @ _dagger(eta) - _dagger(eta) @ eta))
    dim = q.shape[0]
    p0 = np.zeros((dim, dim), dtype=complex)
    for st, block in p0s:
        p0[st[:, :, None], st[:, None, :]] = block
    p0.flags.writeable = False
    levels = np.concatenate([vals[vals >= cut] for *_, vals, _ in blocks])
    dec = SuperDecomposition(
        q=q, h=read_only(q @ q.conj().T + q.conj().T @ q), p0=p0,
        eta=_unblock(dim, etas), f=_unblock(dim, fs),
        paired_spectrum=tuple(cluster_eigenvalues(levels)))
    if check:
        verify_decomposition(dec)
    return dec


def car_residual(dec):
    """max |eta eta^dag + eta^dag eta - (1 - P0)| on the connected
    components of the joint pattern of eta and the nonzeros of P0."""
    nz = np.nonzero(dec.p0)
    p0 = sparse.csr_matrix((dec.p0[nz], nz), shape=dec.p0.shape)
    worst = 0.0
    for _, (eta, p0b) in _blocks(abs(dec.eta) + abs(p0), dec.eta, p0):
        resid = eta @ _dagger(eta) + _dagger(eta) @ eta + p0b
        worst = max(worst, float(np.abs(resid - np.eye(eta.shape[1])).max()))
    return worst


def verify_pairing(dec):
    """Raise ValueError unless the pairing invariants hold; return ||H||:

    - strictly positive H eigenvalues have even multiplicity
    - the G spectrum on range(1 - P0) is +-sqrt(E) with matched multiplicities
    """
    for e_val, mult in dec.paired_spectrum:
        if mult % 2:
            raise ValueError(
                f"positive eigenvalue {e_val:.6g} has odd multiplicity {mult}")
    # H >= 0, so ||H|| is its top paired level
    hnorm = max(dec.paired_spectrum[-1][0] if dec.paired_spectrum else 0.0,
                1e-300)
    g0 = gauge_charge(dec.q, 0.0)
    gvals = np.concatenate([np.linalg.eigvalsh(g).ravel()
                            for _, (g,) in _blocks(dec.q, g0)])
    nonzero = gvals[np.abs(gvals) > np.sqrt(KERNEL_CUT * hnorm)]
    pos = cluster_eigenvalues(nonzero[nonzero > 0])
    neg = cluster_eigenvalues(-nonzero[nonzero < 0])
    if len(pos) != len(neg):
        raise ValueError("G spectrum not symmetric about zero")
    for (vp, mp), (vn, mn) in zip(pos, neg):
        if mp != mn or abs(vp - vn) > 1e-8 * (1 + abs(vp)):
            raise ValueError("G eigenvalues +-sqrt(E) do not match")
    return hnorm


def verify_decomposition(dec):
    """Check every structural invariant of a SuperDecomposition.

    - eta eta^dag + eta^dag eta = 1 - P0 (to 1e-10)
    - the pairing invariants of verify_pairing
    - G_alpha^2 = H at alpha = 0 and alpha = pi/2
    """
    car = car_residual(dec)
    if car > 1e-10:
        raise ValueError(f"eta CAR residual {car:.3e}")
    hnorm = verify_pairing(dec)
    for a in (0.0, np.pi / 2):
        g = gauge_charge(dec.q, a)
        if abs(g @ g - dec.h).max() > 1e-10 * (1 + hnorm):
            raise ValueError(f"G_alpha^2 != H at alpha={a:g}")

"""Operator toolkit and the model-independent super-structure.

Operators are `Sparse` matrices wherever they are built: fermion mode
operators by the Jordan-Wigner construction, (anti)commutators and the gauge
family.  The decomposition of a nilpotent supercharge Q into (P0, eta, F,
G_alpha, paired spectrum) solves the exact invariant blocks of H; only the
Hermitian matrix functions take a dense copy of their argument.
"""

from dataclasses import dataclass
from functools import lru_cache
from numbers import Number

import numpy as np

# Sparse Jordan-Wigner operators on at most 2^14 Fock states, Model II's
# 7-site cap; the other models stop below it, at their own site caps.
MAX_MODES = 14

# Eigenvalues of H below KERNEL_CUT * ||H|| count as exact zeros.
KERNEL_CUT = 1e-9

# Gaps below CLUSTER_TOL * (scale + |lambda|) merge into one multiplet, the
# scale being the largest |lambda|: the multiplets of cH are those of H.
CLUSTER_TOL = 1e-8

NILPOTENCY_TOL = 1e-12

# A level E breaks the +-sqrt(E) pairing when |tr(G_0 P_E)| exceeds
# PAIRING_TOL * (1 + sqrt(E)) * multiplicity.
PAIRING_TOL = 1e-8


class DimensionError(ValueError):
    """Requested construction exceeds a size bound (MAX_MODES or a model's
    site cap)."""


class NilpotencyError(ValueError):
    """Supercharge candidate is not nilpotent."""


class Sparse:
    """Sparse matrix on numpy arrays: entries sorted by (row, col), repeated
    entries summed, exact zeros dropped; rows, cols and data are read-only.
    Repeated entries and product terms add from zero in the order given,
    products over ascending inner index: the order of scipy's CSR kernels,
    whose values these agree with to the last bit."""

    __array_ufunc__ = None      # ndarray and numpy-scalar operands defer

    def __init__(self, rows, cols, data, shape):
        self.shape = (int(shape[0]), int(shape[1]))
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        data = np.asarray(data).ravel()
        keys = rows * self.shape[1] + cols
        if (keys[1:] <= keys[:-1]).any():
            order = np.argsort(keys, kind="stable")     # merges sorted runs
            keys, rows, cols, data = (a[order] for a in (keys, rows, cols,
                                                          data))
            first = np.ones(keys.size, dtype=bool)
            first[1:] = keys[1:] != keys[:-1]
            if first.all():     # no repeats: each sum is 0 + its one term
                data = (0 + data).astype(data.dtype, copy=False)
            else:       # the stable sort keeps each key's terms in order
                group = np.cumsum(first) - 1
                rows, cols, size = rows[first], cols[first], group[-1] + 1
                sums = np.bincount(group, data.real, size).astype(data.dtype)
                if np.iscomplexobj(data):
                    sums.imag = np.bincount(group, data.imag, size)
                data = sums
        self._store(rows, cols, data)

    @classmethod
    def _sorted(cls, rows, cols, data, shape):
        """Sparse of entries already sorted by (row, col) with distinct keys:
        what the constructor stores for them, with no sort."""
        self = cls.__new__(cls)
        self.shape = shape
        self._store(rows, cols, data)
        return self

    def _store(self, rows, cols, data):
        """Keep the nonzero entries, read-only."""
        keep = data.astype(bool)
        self.rows, self.cols, self.data = rows[keep], cols[keep], data[keep]
        self.nnz = self.data.size
        for a in (self.rows, self.cols, self.data):
            a.flags.writeable = False

    @classmethod
    def from_diagonals(cls, diagonals):
        """Complex square matrix with diagonal d at offset k for each {k: d};
        entry t of d sits at (t - min(k, 0), t + max(k, 0))."""
        n = max(len(d) + abs(k) for k, d in diagonals.items())
        at = [(np.arange(len(d)), k) for k, d in diagonals.items()]
        return cls(np.concatenate([t - min(k, 0) for t, k in at]),
                   np.concatenate([t + max(k, 0) for t, k in at]),
                   np.concatenate(list(diagonals.values())).astype(complex),
                   (n, n))

    def _with(self, data):
        return Sparse._sorted(self.rows, self.cols, data, self.shape)

    @property
    def T(self):
        order = np.argsort(self.cols, kind="stable")    # rows ascend in ties
        data = self.data[order]
        if (self.cols[1:] < self.cols[:-1]).any():  # the constructor's sort
            data = (0 + data).astype(data.dtype, copy=False)
        return Sparse._sorted(self.cols[order], self.rows[order], data,
                              self.shape[::-1])

    def conj(self):
        return self._with(self.data.conj())

    def diagonal(self):
        out = np.zeros(min(self.shape), dtype=self.data.dtype)
        on = self.rows == self.cols
        out[self.rows[on]] = self.data[on]
        return out

    def toarray(self):
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self.rows, self.cols] = self.data
        return out

    def __array__(self, dtype=None, copy=None):
        """np.asarray(m): a fresh dense copy, never a view."""
        if copy is False:
            raise ValueError("a Sparse has no dense array to view")
        out = self.toarray()
        return out if dtype is None else out.astype(dtype, copy=False)

    def max(self):
        """Largest entry, the implicit zeros included."""
        full = self.nnz == self.shape[0] * self.shape[1]
        return self.data.max(initial=-np.inf if full else 0)

    def __abs__(self):
        return self._with(np.abs(self.data))

    def __neg__(self):
        return self._with(-self.data)

    def __mul__(self, c):
        return self._with(self.data * c) if isinstance(c, Number) \
            else NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * (1 / c)

    def __add__(self, other):
        if isinstance(other, Number) and other == 0:    # sum() starts at 0
            return self
        if getattr(other, "shape", None) != self.shape:
            raise ValueError(f"cannot add {self.shape} and {other!r}")
        return Sparse(*(np.concatenate((getattr(self, a), getattr(other, a)))
                        for a in ("rows", "cols", "data")), self.shape)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __matmul__(self, other):
        inner = other.shape[:1] if isinstance(other, Sparse) \
            else np.shape(other)
        if inner != self.shape[1:]:
            raise ValueError(f"matmul: {self.shape} @ {np.shape(other)}")
        if isinstance(other, Sparse):
            per_row = np.bincount(other.rows, minlength=self.shape[1])
            reach = per_row[self.cols]      # other's entries per own entry
            mine = np.repeat(np.arange(self.nnz), reach)
            theirs = np.arange(mine.size) + np.repeat(
                np.cumsum(per_row)[self.cols] - np.cumsum(reach), reach)
            return Sparse(self.rows[mine], other.cols[theirs],
                          0 + _product(self.data[mine], other.data[theirs]),
                          (self.shape[0], other.shape[1]))
        terms = _product(self.data, np.asarray(other)[self.cols])
        out = np.zeros(self.shape[0], dtype=terms.dtype)
        np.add.at(out, self.rows, terms)
        return out


def _product(a, b):
    """a * b, a complex pair multiplied as (ar br - ai bi) + i(ar bi + ai br)
    with every operation rounded: numpy's vector loops may fuse these into
    multiply-adds, which moves the last bit (|z|^2 gets an imaginary part)."""
    if not (np.iscomplexobj(a) and np.iscomplexobj(b)
            and a.imag.any() and b.imag.any()):
        return a * b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def apply_diagonals(diagonals, v):
    """Sparse.from_diagonals(diagonals) @ v for a vector v, bit for bit and
    with no matrix: each row's terms, in column order, added into zeros, each
    a _product.  Stored zeros are harmless: a sum from +0 never reads -0."""
    out = np.zeros(len(v), dtype=complex)
    for k, d in sorted(diagonals.items()):
        lo, hi = max(k, 0), len(v) - max(-k, 0)     # the columns k reads
        out[lo - k:hi - k] += _product(d, v[lo:hi])
    return out


def _as_sparse(m):
    """m itself when Sparse, else the Sparse of the nonzeros of array m."""
    if isinstance(m, Sparse):
        return m
    m = np.asarray(m)
    nz = np.nonzero(m != 0)
    return Sparse(*nz, m[nz], m.shape)


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
    """One-site [[0,1],[0,0]] on the 2^nbits bit-string basis, read
    off the bits of the basis index: it clears the `mask` bit, times the
    sign string (-1)^popcount(index & string), e.g. the Jordan-Wigner
    string."""
    idx = np.arange(2 ** nbits)
    par = idx & string
    for shift in (16, 8, 4, 2, 1):      # xor-fold to the popcount parity
        par = par ^ (par >> shift)
    sign = 1.0 - 2.0 * (par & 1)
    cols = idx[(idx & mask) != 0]      # so rows = cols ^ mask ascend too
    return Sparse(cols ^ mask, cols, sign[cols].astype(complex),
                  (idx.size, idx.size))


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
    return tuple(bit_operator(modes, 1 << (modes - 1 - k),
                              string=top - (2 << (modes - 1 - k)))
                 for k in range(modes))


def _components(pattern):
    """Component label of every state under the symmetrised pattern of
    Sparse `pattern`, numbered by the rank of each component's smallest
    state: the labels of scipy.sparse.csgraph.connected_components.

    Min-label propagation with pointer jumping.  Each round, every edge
    whose ends carry different labels hooks the larger label, a root, onto
    the smaller; then every label jumps to its own label until each points
    at a root.  Rounds repeat until no edge joins two labels.  A label is
    always a state of the same component and never grows, so each
    component ends labelled by its smallest state."""
    rows, cols = pattern.rows, pattern.cols
    labels = np.arange(pattern.shape[0])
    while True:
        at_row, at_col = labels[rows], labels[cols]
        split = at_row != at_col
        if not split.any():
            # every label is now a root; rank the roots in order
            return (np.cumsum(labels == np.arange(labels.size)) - 1)[labels]
        np.minimum.at(labels, np.maximum(at_row, at_col)[split],
                      np.minimum(at_row, at_col)[split])
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]


def _blocks(pattern, *mats):
    """Stack Sparse `mats` over the connected components of the symmetrised
    pattern of `pattern`; entries of `mats` outside a block are dropped.
    Yields, per block size, the (k, size) basis states of the k blocks of
    that size and one (k, size, size) stack per matrix."""
    labels = _components(pattern)
    sizes = np.bincount(labels)
    start = np.cumsum(sizes) - sizes
    order = np.argsort(labels, kind="stable")
    pos = np.empty_like(order)      # position of each state in its block
    pos[order] = np.arange(order.size) - start[labels[order]]
    for size in np.flatnonzero(np.bincount(sizes)):
        members = sizes == size
        slot = np.cumsum(members) - 1
        stacks = []
        for m in mats:
            comp = labels[m.rows]
            hit = members[comp] & (labels[m.cols] == comp)
            stack = np.zeros((members.sum(), size, size), dtype=m.data.dtype)
            stack[slot[comp[hit]], pos[m.rows[hit]], pos[m.cols[hit]]] = \
                m.data[hit]
            stacks.append(stack)
        yield order[start[members][:, None] + np.arange(size)], stacks


def _unblock(dim, parts):
    """Sparse in the original basis from (states, stack) pairs."""
    rows = np.concatenate([np.repeat(s, s.shape[1]) for s, _ in parts])
    cols = np.concatenate([np.tile(s, s.shape[1]).ravel() for s, _ in parts])
    data = np.concatenate([stack.ravel() for _, stack in parts])
    return Sparse(rows, cols, data, (dim, dim))


def _dagger(stack):
    return stack.conj().swapaxes(-1, -2)


def hermitian_norm(m):
    """Exact spectral norm max|lambda| of a Hermitian matrix, Sparse or
    dense: the connected components of its sparsity pattern are decoupled
    blocks, and equal-size blocks share one stacked eigvalsh call."""
    m = _as_sparse(m)
    _require_hermitian(m, "hermitian_norm argument")
    return max(float(np.abs(np.linalg.eigvalsh(stack)).max())
               for _, (stack,) in _blocks(m, m))


def bracket(a, b, kind="commutator"):
    """AB -+ BA for kind in {"commutator", "anticommutator"}; dense or
    Sparse operands, and two Sparse operands give a Sparse result."""
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
    gm = np.asarray(g)
    _require_hermitian(gm, "matrix-function argument")
    vals, vecs = np.linalg.eigh(gm)
    return (vecs * fn(vals)[..., None, :]) @ vecs.conj().T


def unitary_flow(g, s, a):
    """Conjugate `a` by exp(isG): the one-parameter automorphism of G.

    G must be Hermitian; the conjugation preserves the spectrum of `a`.
    A 1-D array of s gives one operator per s from one eigh of G, and a
    stack `a` of shape (m, d, d) gives shape (m, len(s), d, d).
    """
    am = np.asarray(a)
    if np.shape(g) != am.shape[-2:]:
        raise ValueError("generator and operator dimensions differ")
    s = np.asarray(s)[..., None]
    if not np.isfinite(s).all():
        raise ValueError("flow parameter must be finite")
    u = hermitian_function(g, lambda v: np.exp(1j * s * v))
    am = am.reshape(am.shape[:-2] + (1,) * (u.ndim - 2) + am.shape[-2:])
    return u @ am @ _dagger(u)


def diagonal_eigenvalues(h):
    """Ascending eigenvalues of a Sparse Hermitian H that is diagonal in the
    basis it is stored in; raises ValueError when an off-diagonal entry
    exceeds 1e-12."""
    off = h.data[h.rows != h.cols]
    if off.size and np.abs(off).max() > 1e-12:
        raise ValueError("H is not diagonal in its basis")
    return np.sort(h.diagonal().real)


def cluster_eigenvalues(vals, tol=CLUSTER_TOL):
    """Group an eigenvalue array into (value, multiplicity) clusters, with
    gaps measured relative to the spectrum's scale."""
    vals = np.sort(np.asarray(vals, dtype=float))
    if not vals.size:
        return []
    scale = float(np.abs(vals).max())
    near = np.diff(vals) <= tol * (scale + np.abs(vals[1:]))
    return [(float(c.mean()), c.size)
            for c in np.split(vals, np.flatnonzero(~near) + 1)]


# eta on the Clifford mode, in the (eta eta^dag = 1, eta^dag-killed) basis
ETA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
ETA.flags.writeable = False


def lift(a, clifford=None):
    """a (x) c as Sparse on the product of a ladder space with one Clifford
    mode, c the 2x2 identity unless given (e.g. ETA).  The product basis is
    ladder-major with the Clifford factor last: index 2k + c."""
    c = np.eye(2, dtype=complex) if clifford is None else clifford
    ci, cj = np.nonzero(c)
    return Sparse(2 * a.rows[:, None] + ci, 2 * a.cols[:, None] + cj,
                  a.data[:, None] * c[ci, cj],
                  (2 * a.shape[0], 2 * a.shape[1]))


def gauge_charge(q, alpha):
    """The Hermitian family G_alpha = e^{i alpha} Q + e^{-i alpha} Q^dag, in
    the representation of Q (Sparse Q gives a Sparse G): the Fock models
    pass their Q, the local site operator and the Witten limit Q = A (x) eta.
    dicke.g_alpha_offdiagonals repeats its operations on the ladder arrays."""
    qm = q if isinstance(q, Sparse) else np.asarray(q)
    return np.exp(1j * alpha) * qm + np.exp(-1j * alpha) * qm.conj().T


def nilpotency_residual(q):
    """||Q^2||_F / ||Q||_F^2 over stored entries; zero Q is nilpotent."""
    q = _as_sparse(q)
    nq = np.linalg.norm(q.data)
    if nq == 0.0:
        return 0.0
    return float(np.linalg.norm((q @ q).data) / nq ** 2)


@dataclass(frozen=True)
class SuperDecomposition:
    """The structure extracted from a nilpotent supercharge.

    Attributes
    ----------
    q, h : Sparse
        The supercharge and H = Q Q^dag + Q^dag Q.
    p0 : Sparse
        Orthogonal projector onto ker H: the nonzero entries of its blocks.
        np.asarray(p0) gives it dense, as for any Sparse.
    eta : Sparse
        Q H^(-1/2) on the range of 1 - P0; the collective Clifford mode.
    paired_spectrum : tuple
        (E, multiplicity) for the strictly positive eigenvalues of H.
    eigen : tuple
        (states, vals, vecs) per block size of H, in `_blocks` order: the
        eigenpairs that P0, eta and the pairing check are read from.

    The matrices are read-only.
    """

    q: Sparse
    h: Sparse
    p0: Sparse
    eta: Sparse
    paired_spectrum: tuple
    eigen: tuple

    @property
    def f(self):
        """[eta, eta^dag], the generator of G's gauge rotation, on access."""
        return bracket(self.eta, self.eta.conj().T)

    def g_alpha(self, alpha):
        return gauge_charge(self.q, alpha)


def super_decompose(q, check=True):
    """Decompose a nilpotent Q into (P0, eta, F, paired spectrum).

    H = Q Q^dag + Q^dag Q commutes with Q, so the components of its pattern
    are invariant blocks; equal-size blocks share one stacked eigh.  P0 and
    eta = Q H^(-1/2) are read off their eigenpairs, with the kernel cut
    relative to the global ||H||.  Raises NilpotencyError when ||Q^2|| >
    1e-12 ||Q||^2; with `check=True`, verify_decomposition's ValueError.
    """
    q = _as_sparse(q)
    res = nilpotency_residual(q)
    if res > NILPOTENCY_TOL:
        raise NilpotencyError(f"Q^2 residual {res:.3e} exceeds 1e-12")
    h = q @ q.conj().T + q.conj().T @ q
    eigen = tuple((st, *np.linalg.eigh(hb)) for st, (hb,) in _blocks(h, h))
    cut = KERNEL_CUT * max(max(vals.max() for _, vals, _ in eigen), 1e-300)

    def of_h(fn):       # the Sparse fn(H) from the block eigenpairs
        return _unblock(q.shape[0], [
            (st, (vecs * fn(vals)[:, None, :]) @ _dagger(vecs))
            for st, vals, vecs in eigen])
    levels = np.concatenate([vals[vals >= cut] for _, vals, _ in eigen])
    dec = SuperDecomposition(
        q=q, h=h, p0=of_h(lambda v: v < cut),
        eta=q @ of_h(lambda v: (v >= cut) / np.sqrt(np.maximum(v, cut))),
        paired_spectrum=tuple(cluster_eigenvalues(levels)), eigen=eigen)
    if check:
        verify_decomposition(dec)
    return dec


def car_residual(dec):
    """max |eta eta^dag + eta^dag eta + P0 - 1|, a Sparse identity."""
    anti = bracket(dec.eta, dec.eta.conj().T, "anticommutator")
    one = Sparse.from_diagonals({0: np.ones(dec.eta.shape[0])})
    return float(abs(anti + dec.p0 - one).max())


def decomposition_residuals(dec):
    """The invariants of a SuperDecomposition as named residuals:

    - car: max |eta eta^dag + eta^dag eta + P0 - 1| (car_residual)
    - odd: the (E, multiplicity) levels of odd multiplicity
    - pairing: max_E |tr(G_0 P_E)| / ((1 + sqrt(E)) m_E), where
      tr(G_0 P_E) = sqrt(E) (n_+ - n_-) is 0 as G_0^2 = H; P_E is read off
      H's block eigenvectors, so only G_0 inside H's blocks enters
    - g_square: ||G_alpha^2 - H||_F over the stored entries at the generic
      angle alpha = 1.1, one Sparse product
    """
    g0 = gauge_charge(dec.q, 0.0)
    vals, diag = map(np.concatenate, zip(*[     # E and v^dag G_0 v
        (v.ravel(), ((g @ x) * x.conj()).sum(axis=1).real.ravel())
        for (_, v, x), (_, (g,)) in zip(dec.eigen, _blocks(dec.h, g0))]))
    diag = diag[np.argsort(vals, kind="stable")]
    at, pairing = vals.size - sum(m for _, m in dec.paired_spectrum), 0.0
    for e_val, mult in dec.paired_spectrum:     # ascending, as diag is
        trace, at = diag[at:at + mult].sum(), at + mult
        pairing = max(pairing, abs(trace) / ((1 + np.sqrt(e_val)) * mult))
    g = gauge_charge(dec.q, 1.1)
    return {"car": car_residual(dec),
            "odd": tuple((e, m) for e, m in dec.paired_spectrum if m % 2),
            "pairing": float(pairing),
            "g_square": float(np.linalg.norm((g @ g - dec.h).data))}


def verify_decomposition(dec):
    """Raise ValueError unless decomposition_residuals are within bounds:
    CAR to 1e-10, even multiplicities, pairing to PAIRING_TOL and
    G_alpha^2 = H to 1e-10 (1 + ||H||)."""
    res = decomposition_residuals(dec)
    if res["car"] > 1e-10:
        raise ValueError(f"eta CAR residual {res['car']:.3e}")
    if res["odd"]:
        raise ValueError("positive eigenvalue {:.6g} has odd multiplicity "
                         "{}".format(*res["odd"][0]))
    if res["pairing"] > PAIRING_TOL:
        raise ValueError(f"G eigenvalues +-sqrt(E) do not match: "
                         f"tr(G_0 P_E) residual {res['pairing']:.3e}")
    # H >= 0, so ||H|| is its top paired level
    hnorm = max([0.0] + [e for e, _ in dec.paired_spectrum])
    if res["g_square"] > 1e-10 * (1 + hnorm):
        raise ValueError(f"G_alpha^2 != H: residual {res['g_square']:.3e}")

"""Test-side helpers: the tests' one expectation value, the Sparse oracles
(the constructor as it summed before, and the collective layer's
matrices), Model III's symmetric sector on the full 8^n Fock space, the
array and loop forms that faster kernels replaced, and closed forms that
only the tests read."""

import numpy as np
from scipy import sparse

from susylattice import dicke, models
from susylattice.operators import ETA, Sparse, gauge_charge, lift


def expectation(state, op_full):
    """<state| A |state> for a lifted (sparse or dense) operator."""
    v = state.vector
    return complex(np.vdot(v, op_full @ v))


def sparse_entries(rows, cols, data, shape):
    """(rows, cols, data) of Sparse(rows, cols, data, shape) as the
    constructor computed them before it carried rows and cols through the
    sort: keys re-sorted, every term scattered to its group, and rows and
    cols recomputed from the summed keys by divmod."""
    keys = (np.asarray(rows, dtype=np.int64) * shape[1]
            + np.asarray(cols, dtype=np.int64)).ravel()
    data = np.asarray(data).ravel()
    if (keys[1:] <= keys[:-1]).any():
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        group = np.empty_like(order)
        group[order] = np.cumsum(first) - 1
        keys = keys[first]
        sums = np.bincount(group, data.real, keys.size).astype(data.dtype)
        if np.iscomplexobj(data):
            sums.imag = np.bincount(group, data.imag, keys.size)
        data = sums
    keep = data.astype(bool)
    data, keys = data[keep], keys[keep]
    return (*np.divmod(keys, shape[1]), data)


def cluster_eigenvalues_loop(vals, tol):
    """operators.cluster_eigenvalues as it ran before: one Python step
    per level, merging while each gap is within tol * (scale + |lambda|)."""
    vals = np.sort(np.asarray(vals, dtype=float))
    scale = float(np.abs(vals).max(initial=0.0))
    out = []
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and \
                vals[j] - vals[j - 1] <= tol * (scale + abs(vals[j])):
            j += 1
        out.append((float(vals[i:j].mean()), j - i))
        i = j
    return out


def symmetric_sector_basis(pair):
    """The orthonormal basis of Model III's symmetric pair sector as the
    columns of a dense (8^n, 2(n+1)) array: the Dicke states in the pair
    variables tensored with {a^3 vacuum, eta_N^dag (a^3 vacuum)}.  The
    k-pair Dicke state is the normalised indicator of the basis states with
    every pair locked, k pairs filled and every a^3 empty."""
    n = len(pair.b_ops)
    # occupation of a^f_i, mode 3i + f at bit 3n - 1 - (3i + f), per state
    occ = (np.arange(8 ** n) >> (3 * n - 1 - np.arange(3 * n).reshape(
        n, 3, 1))) & 1
    sector = ((occ[:, 0] == occ[:, 1]) & (occ[:, 2] == 0)).all(axis=0)
    pairs = occ[:, 0].sum(axis=0)
    eta_d, basis = pair.eta_n.conj().T, []
    for k in range(n + 1):
        v = (sector & (pairs == k)).astype(complex)
        v /= np.linalg.norm(v)
        basis += [v, eta_d @ v]
    return np.column_stack(basis)


def fock_sector_spectrum(n):
    """Model III's symmetric sector spectrum read on the full 8^n Fock
    space (n <= 4), as models computed it before it built the 4^n locked
    pair sector: H[:, S] B with B the basis above, then B^dag H B."""
    inst, pair = models.build_model_iii_fock(n)
    bmat = symmetric_sector_basis(pair)
    nz = np.nonzero(bmat)
    hb = (inst.h_columns(nz[0])
          @ Sparse(*nz, bmat[nz], bmat.shape)).toarray()
    return np.sort(np.linalg.eigvalsh(bmat.conj().T @ hb))


class SparseDicke(dicke.DickeOperators):
    """DickeOperators whose multiplet operators s_plus, s_minus, s_z, s_x
    and s_y are also complex Sparse matrices, built from the diagonals on
    every read: the oracle the collective layer's array forms are pinned
    to."""

    def matrix(self, name):
        """The multiplet operator `name` as a complex Sparse."""
        return Sparse.from_diagonals(self.diagonals(name))

    s_plus = property(lambda self: self.matrix("s_plus"))
    s_minus = property(lambda self: self.matrix("s_minus"))
    s_z = property(lambda self: self.matrix("s_z"))
    s_x = property(lambda self: self.matrix("s_x"))
    s_y = property(lambda self: self.matrix("s_y"))


def build_g_alpha_dicke(ops, alpha=0.0):
    """G_alpha of Q = S_- (x) eta / sqrt N as a Sparse, by gauge_charge:
    the phase goes on before the 1/sqrt N."""
    q = lift(SparseDicke(ops.n).s_minus, ETA)
    return gauge_charge(q, alpha) / np.sqrt(ops.n)


def build_hss_dicke(ops):
    """Normalized H_SS = G_0 @ G_0 as a Sparse."""
    g = build_g_alpha_dicke(ops, 0.0)
    return g @ g


def hss_unnormalized(ops):
    """N * H_SS: the block convention in which the ceiling eigenvalue is
    N(N+2)/4."""
    return ops.n * build_hss_dicke(ops)


def read_only_sparse(m):
    """m is an operators.Sparse whose rows, cols and data are read-only."""
    return isinstance(m, Sparse) and not any(
        a.flags.writeable for a in (m.rows, m.cols, m.data))


def csr(m):
    """An operators.Sparse as scipy CSR, for the scipy oracles."""
    return sparse.csr_matrix((m.data, (m.rows, m.cols)), shape=m.shape)


def witten_ground_vector(model):
    """The unique zero mode of a Witten limit model: oscillator vacuum
    tensor the eta^dag-annihilated Clifford state."""
    v = np.zeros(2 * model.cutoff, dtype=complex)
    v[1] = 1.0
    return v


def full_ladder_arrays(n):
    """(amp, sz) over the whole multiplet, as DickeOperators held them
    before it computed windows."""
    k = np.arange(n)
    return np.sqrt((k + 1.0) * (n - k)), np.arange(-n, n + 1, 2.0)


def kron_basis_vector(n, k):
    """The product vector of the spin basis state e_k as it was built
    before: np.kron with the eta^dag-killed Clifford state (0, 1)."""
    spin = np.zeros(n + 1, dtype=complex)
    spin[k] = 1.0
    return np.kron(spin, np.array([0.0, 1.0], dtype=complex))


def bessel_j_array(rho):
    """(J_0(rho) .. J_K(rho), whether the recurrence was rescaled): the
    Miller recurrence of limits._bessel_j as it ran on a numpy array before
    it ran on Python floats."""
    top = int(rho + 15.0 * rho ** (1.0 / 3.0) + 40.0)
    j, rescaled = np.zeros(top + 2), False
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = 2.0 * k / rho * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e200:
            j[k - 1:] *= 1e-200
            rescaled = True
    j /= j[0] + 2.0 * j[2::2].sum()
    return j[:np.flatnonzero(np.abs(j) >= 1e-16)[-1] + 1], rescaled

"""Test-side helpers: the tests' one expectation value, the Sparse oracle
of the collective layer, and closed forms that only the tests read."""

import numpy as np
from scipy import sparse

from susylattice import dicke
from susylattice.operators import ETA, Sparse, gauge_charge, lift


def expectation(state, op_full):
    """<state| A |state> for a lifted (sparse or dense) operator."""
    v = state.vector
    return complex(np.vdot(v, op_full @ v))


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

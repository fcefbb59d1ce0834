"""Test-side helpers: the tests' one expectation value, and closed forms
that only the tests read."""

import numpy as np
from scipy import sparse

from susylattice import dicke
from susylattice.operators import Sparse


def expectation(state, op_full):
    """<state| A |state> for a lifted (sparse or dense) operator."""
    v = state.vector
    return complex(np.vdot(v, op_full @ v))


def hss_unnormalized(ops):
    """N * H_SS: the block convention in which the ceiling eigenvalue is
    N(N+2)/4."""
    return ops.n * dicke.build_hss_dicke(ops)


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

"""Per-site spin representation of the pair algebra (2^N) tensored with the
collective Clifford mode: the N <= 12 test oracle.

The Dicke engine cannot express single-site operators, and the library
evaluates the per-site supertransformation derivatives on site 1 and the
Clifford mode alone (`limits.local_super_derivative`); the full 2^(N+1)
space here checks that locality and the collective shortcuts at small N.
Sparse operators on a bit-string basis of N+1 bits (`operators.bit_operator`
and `z_operator` below): site j is bit N-j (site 0 most significant), the
Clifford mode is bit 0; a clear site bit is spin up, a set one spin down.
"""

import numpy as np

from susylattice.operators import DimensionError, Sparse, bit_operator

MAX_SITES = 12


def z_operator(nbits, mask, string=0):
    """diag(1,-1) on the `mask` bit (-1 where it is set) of the 2^nbits
    bit-string basis, times the sign string (-1)^popcount(index & string)."""
    idx = np.arange(2 ** nbits)
    flips = np.array([bin(i & string).count("1") for i in range(idx.size)])
    flips += (idx & mask) != 0
    return Sparse.from_diagonals({0: 1.0 - 2.0 * (flips % 2)})


class TensorSpinRep:
    """Full 2^N spin space tensor one Clifford mode (dimension 2^{N+1})."""

    def __init__(self, n):
        if n > MAX_SITES:
            raise DimensionError(f"tensor representation limited to "
                                 f"{MAX_SITES} sites")
        self.n = n
        masks = [1 << (n - j) for j in range(n)]
        self.sp = [bit_operator(n + 1, m) for m in masks]
        self.sm = [s.T for s in self.sp]
        self.sz = [z_operator(n + 1, m) for m in masks]
        self.sx = [p + m for p, m in zip(self.sp, self.sm)]
        self.sy = [-1j * p + 1j * m for p, m in zip(self.sp, self.sm)]
        self.s_plus = sum(self.sp[1:], self.sp[0])
        self.s_minus = sum(self.sm[1:], self.sm[0])
        self.s_z = sum(self.sz[1:], self.sz[0])
        self.eta = bit_operator(n + 1, 1)

    @property
    def dim(self):
        return 2 ** (self.n + 1)

    def g_alpha(self, alpha=0.0):
        g = (np.exp(1j * alpha) * (self.eta @ self.s_minus)
             + np.exp(-1j * alpha) * (self.eta.conj().T @ self.s_plus))
        return g / np.sqrt(self.n)

    def bogoliubov_vector(self, alpha=0.0):
        """Product state with all spins at (e^{i alpha}, e^{-i alpha})/sqrt 2."""
        site = np.array([np.exp(1j * alpha), np.exp(-1j * alpha)]) / np.sqrt(2)
        v = np.array([1.0 + 0j])
        for _ in range(self.n):
            v = np.kron(v, site)
        return np.kron(v, np.array([0.0, 1.0 + 0j]))

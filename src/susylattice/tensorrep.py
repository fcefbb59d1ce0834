"""Per-site spin representation of the pair algebra (2^N) tensored with the
collective Clifford mode.

The Dicke engine cannot express single-site operators; identities that mix
sigma^{(j)} with the collective S (the equation-of-motion and
supertransformation derivatives) are verified here at small N instead.
Sparse operators on a bit-string basis of N+1 bits (`operators.bit_operator`):
site j is bit N-j (site 0 most significant), the Clifford mode is bit 0; a
clear site bit is spin up, a set one spin down.
"""

import numpy as np

from .operators import DimensionError, bit_operator

MAX_SITES = 12


class TensorSpinRep:
    """Full 2^N spin space tensor one Clifford mode (dimension 2^{N+1})."""

    def __init__(self, n):
        if n > MAX_SITES:
            raise DimensionError(f"tensor representation limited to "
                                 f"{MAX_SITES} sites")
        self.n = n
        masks = [1 << (n - j) for j in range(n)]
        self.sp = [bit_operator(n + 1, m) for m in masks]
        self.sm = [s.T.tocsr() for s in self.sp]
        self.sz = [bit_operator(n + 1, m, "z") for m in masks]
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
        return (g / np.sqrt(self.n)).tocsr()

    def bogoliubov_vector(self, alpha=0.0):
        """Product state with all spins at (e^{i alpha}, e^{-i alpha})/sqrt 2."""
        site = np.array([np.exp(1j * alpha), np.exp(-1j * alpha)]) / np.sqrt(2)
        v = np.array([1.0 + 0j])
        for _ in range(self.n):
            v = np.kron(v, site)
        return np.kron(v, np.array([0.0, 1.0 + 0j]))

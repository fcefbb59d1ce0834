"""Dense reference for `operators.super_decompose`: one eigendecomposition
of the full 2^modes H, with the same global kernel cut.

The library decomposes Q block by block over the connected components of
H's pattern; this oracle never splits the space, so agreement checks the
blocking, the scatter back into the original basis and the global cut.
Only for small Fock spaces (the eigh is O(dim^3) in time, O(dim^2) memory).
"""

import numpy as np

from susylattice.operators import KERNEL_CUT, cluster_eigenvalues


def dense_decompose(q):
    """(P0, eta, F, paired spectrum) of a sparse nilpotent Q from one dense
    eigh of H = Q Q^dag + Q^dag Q."""
    q = q.toarray()
    h = q @ q.conj().T + q.conj().T @ q
    vals, vecs = np.linalg.eigh(h)
    cut = KERNEL_CUT * max(vals[-1], 1e-300)
    kernel = vals < cut
    p0 = vecs[:, kernel] @ vecs[:, kernel].conj().T
    inv_sqrt = np.where(kernel, 0.0, 1.0 / np.sqrt(np.where(kernel, 1.0, vals)))
    eta = q @ ((vecs * inv_sqrt) @ vecs.conj().T)
    f = eta @ eta.conj().T - eta.conj().T @ eta
    return p0, eta, f, cluster_eigenvalues(vals[~kernel])

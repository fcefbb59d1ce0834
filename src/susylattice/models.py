"""Concrete supercharge models on the full fermionic Fock space.

Builders for the one-, two- and three-flavor lattices, the closed-form
supertransformation automorphisms, the non-nilpotent hopping candidate, and
the BCS comparison Hamiltonian.  H is always computed as {Q, Q^dag}; displayed
expansions are treated as checks, not definitions.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import dicke
from .operators import (
    NILPOTENCY_TOL,
    DimensionError,
    LatticeSpec,
    Sparse,
    bit_operator,
    bracket,
    gauge_charge,
    hermitian_function,
    hermitian_norm,
    nilpotency_residual,
    sparse_annihilators,
)


@dataclass(frozen=True)
class ModelInstance:
    """A named model with its lattice, couplings and supercharge (`Sparse`,
    read-only data); H is computed on first read."""

    kind: str
    spec: LatticeSpec
    couplings: tuple
    q: Sparse

    @cached_property
    def h(self):
        """H = Q Q^dag + Q^dag Q."""
        qd = self.q.conj().T
        return self.q @ qd + qd @ self.q

    def h_columns(self, states):
        """H[:, states], zero on every other column, with no product term
        on the others: H[:, states] @ x is H @ x bit for bit when x
        vanishes off `states`."""
        q, qd = self.q, self.q.conj().T
        on = np.zeros(q.shape[1], dtype=bool)
        on[states] = True

        def columns(m):         # m with its entries off `states` dropped
            at = on[m.cols]
            return Sparse(m.rows[at], m.cols[at], m.data[at], m.shape)
        return q @ columns(qd) + qd @ columns(q)

    def g_alpha(self, alpha=0.0):
        return gauge_charge(self.q, alpha)


def _check_couplings(z):
    z = tuple(float(v) for v in z)
    if not z or any(v <= 0 for v in z):
        raise ValueError("couplings must be positive reals")
    return z


# ---------------------------------------------------------------------------
# baby model and Model I: one flavor per site


def build_baby():
    """Single-mode model Q = a; H = 1 and G_alpha interpolates a + a^dag."""
    return build_model_i([1.0], kind="Baby")


def baby_flow_closed(s, alpha=0.0):
    """Closed form of the single-mode supertransformation of a.

    a(s, alpha) = cos^2(s) a + e^{-2 i alpha} sin^2(s) a^dag
                  + i e^{-i alpha} cos(s) sin(s) (a^dag a - a a^dag)

    The alpha phases are the ones forced by G_alpha = e^{ia} a + e^{-ia} a^dag
    under conjugation exp(isG) a exp(-isG); expanding the BCH series gives
    e^{-2ia} on the a^dag term.  A 1-D array of s gives one a(s) per s.
    """
    a = sparse_annihilators(1)[0].toarray()
    ad = a.conj().T
    s = np.asarray(s)[..., None, None]
    c, sn = np.cos(s), np.sin(s)
    return (c * c * a + np.exp(-2j * alpha) * sn * sn * ad
            + 1j * np.exp(-1j * alpha) * c * sn * bracket(ad, a))


def build_model_i(z, kind="ModelI"):
    """Q = sum_i z_i a_i on a one-flavor lattice; H = (sum z_i^2) * 1."""
    z = _check_couplings(z)
    n = len(z)
    if n > 12:      # a checked decomposition: 0.3 s and 97 MB at 12 sites
        raise DimensionError("Model I supports at most 12 sites")
    spec = LatticeSpec(n, 1)
    ops = sparse_annihilators(spec.modes)
    q = sum(zi * ai for zi, ai in zip(z, ops))
    return ModelInstance(kind, spec, z, q)


def model_i_flow_closed(k, s, model):
    """Closed form a_k(s) = (a_k - z_k/2G) e^{-2isG} + z_k/2G in Model I
    `model`; G^2 = sum z_i^2 > 0 makes G invertible.  A 1-D array of s
    gives a stack."""
    g = model.g_alpha(0.0)
    a_k = sparse_annihilators(model.spec.modes)[k].toarray()
    s = np.asarray(s)
    # one eigh of G: row 0 is G^-1, the rows after it e^{-2isG} per s
    f = hermitian_function(g, lambda v: np.vstack(
        (1.0 / v, np.exp(-2j * s.reshape(-1, 1) * v))))
    shift = 0.5 * model.couplings[k] * f[0]
    return (a_k - shift) @ f[1:].reshape(s.shape + f.shape[1:]) + shift


# ---------------------------------------------------------------------------
# Model II: spin-up and spin-down fermions per site


def build_model_ii(z):
    """Q = sum_i z_i n_up,i a_down,i; H = sum_i z_i^2 n_up,i.

    Every H eigenvalue is at least 2^N-fold degenerate: the down-spin factor
    is untouched by H.
    """
    z = _check_couplings(z)
    n = len(z)
    if n > 7:
        raise DimensionError("Model II supports at most 7 sites")
    spec = LatticeSpec(n, 2)
    ops = sparse_annihilators(spec.modes)     # up: mode 2i, down: 2i + 1
    q = sum(zi * (up.conj().T @ up @ dn)
            for zi, up, dn in zip(z, ops[0::2], ops[1::2]))
    return ModelInstance("ModelII", spec, z, q)


def model_ii_flow_closed(k, s, model):
    """Closed forms of the supertransformation of Model II `model` at site k.

    up:   a_up,k(s)   = a_up,k exp(-is(G - (a_dn,k + a_dn,k^dag) z_k)) exp(-isG)
    down: a_dn,k(s)   = a_dn,k exp(-2isG) + z_k n_up,k phi(G),
          phi(x) = (1 - exp(-2isx)) / (2x), extended by phi(0) = is.
    A 1-D array of s gives stacks, so the mode operators are dense arrays.
    """
    spec, z = model.spec, model.couplings
    ops = sparse_annihilators(spec.modes)
    up, dn = (ops[spec.mode_index(k, f)].toarray() for f in (0, 1))
    g = model.g_alpha(0.0).toarray()
    shifted = g - z[k] * (dn + dn.conj().T)
    s = np.asarray(s)[..., None]

    def phi(x):
        x = np.asarray(x, dtype=float)
        small = np.abs(x) < 1e-12
        safe = np.where(small, 1.0, x)
        return np.where(small, 1j * s, (1 - np.exp(-2j * s * safe)) / (2 * safe))

    # one eigh of G for e^{-isG}, e^{-2isG} and phi(G)
    exp_isg, exp_2isg, phi_g = hermitian_function(g, lambda v: np.stack(
        (np.exp(-1j * s * v), np.exp(-2j * s * v), phi(v))))
    exp_shift = hermitian_function(shifted, lambda v: np.exp(-1j * s * v))
    a_up_s = up @ exp_shift @ exp_isg
    n_up = up.conj().T @ up
    a_dn_s = dn @ exp_2isg + z[k] * (n_up @ phi_g)
    return a_up_s, a_dn_s


# ---------------------------------------------------------------------------
# nilpotency counterexample


def hopping_supercharge(n, z=None, periodic=True):
    """The next-neighbour candidate Q = sum_i z_i n_i a_{i+1} (not nilpotent).

    Site n-1 couples back to site 0 when periodic.
    """
    if z is None:
        z = (1.0,) * n
    z = _check_couplings(z)
    spec = LatticeSpec(n, 1)
    ops = sparse_annihilators(spec.modes)
    return sum(zi * (ops[i].conj().T @ ops[i] @ ops[(i + 1) % n])
               for i, zi in enumerate(z) if periodic or i + 1 < n)


def nilpotency_check(q):
    """(is_nilpotent, residual) with residual = ||Q^2|| / ||Q||^2."""
    res = nilpotency_residual(q)
    return res <= NILPOTENCY_TOL, res


# ---------------------------------------------------------------------------
# Model III: Cooper pairs plus a third flavor


@dataclass(frozen=True)
class PairAlgebraOps:
    """Pair and collective operators of the three-flavor model.

    b_ops are the pair annihilators b_i = a_i^1 a_i^2; m_n and eta_n the
    collective modes (1/sqrt N) sum b_k and (1/sqrt N) sum a^3_k.  The
    projector selects the sector where every site's pair occupation is locked
    (both constituents empty or both filled); only there is {b, b^dag} = 1.
    """

    b_ops: tuple
    a3_ops: tuple
    m_n: Sparse
    eta_n: Sparse
    pair_projector: Sparse


@lru_cache(maxsize=None)
def build_model_iii_fock(n):
    """Model III on the full Fock space: Q = M_N eta_N, H = {Q, Q^dag}.

    Returns the ModelInstance together with the pair-algebra operators, all
    Sparse.  Built once per n and process: both are frozen and their arrays
    read-only, so every caller may share them.
    """
    if n > 4:
        raise DimensionError("Model III supports at most 4 sites (3 flavors)")
    spec = LatticeSpec(n, 3)
    ops = sparse_annihilators(spec.modes)        # a^f_i is mode 3i + f
    b = tuple(ops[3 * i] @ ops[3 * i + 1] for i in range(n))
    a3 = ops[2::3]
    m = sum(b) / np.sqrt(n)
    eta = sum(a3) / np.sqrt(n)
    # the projector prod_i [(1-n_i1)(1-n_i2) + n_i1 n_i2] is diagonal: the
    # bit of a^1_i, 3n - 1 - 3i, equals the bit of a^2_i below it
    idx = np.arange(8 ** n)
    locked = (idx ^ idx >> 1) & sum(2 << 3 * i for i in range(n)) == 0
    pair = PairAlgebraOps(
        b_ops=b, a3_ops=a3, m_n=m, eta_n=eta,
        pair_projector=Sparse.from_diagonals({0: locked}))
    return ModelInstance("ModelIII", spec, (1.0,) * n, m @ eta), pair


def fock_m_norm(n):
    """Spectral norm of M_N = (1/sqrt N) sum_i b_i on the full Fock space.

    sqrt ||M^dag M|| from the sparse blocks of M^dag M, so n = 4 (dimension
    4096) never needs a dense SVD.
    """
    m = build_model_iii_fock(n)[1].m_n
    return float(np.sqrt(hermitian_norm(m.conj().T @ m)))


def hss_pair_expansion(pair):
    """The displayed expansion M^dag M + eta eta^dag (1 - (2/N) sum b^dag b).

    Valid (and checked) only on the pair sector.
    """
    n = len(pair.b_ops)
    num_pairs = sum(bi.conj().T @ bi for bi in pair.b_ops)
    m, eta = pair.m_n, pair.eta_n
    return (m.conj().T @ m
            + eta @ eta.conj().T @ (
                Sparse.from_diagonals({0: np.ones(m.shape[0])})
                - (2.0 / n) * num_pairs))


def build_model_iii_sector(n):
    """Model III on its locked pair sector, 4^n states: site i's pair
    b_i = a^1_i a^2_i is mode 2i, a hard-core boson with no Jordan-Wigner
    string, and its a^3 mode 2i + 1, with the string over the earlier a^3
    modes (mode 0 the top bit).  The order of the 8^n basis is kept, and
    b_i = -1 times the Fock b_i.  Returns the ModelInstance of Q = M_N
    eta_N and eta_N."""
    if n > 8:       # spectrum at 8 sites: 0.6-0.8 s and 270 MB
        raise DimensionError("Model III's pair sector supports at most 8 "
                             "sites")
    bit = [1 << k for k in range(2 * n - 1, -1, -1)]        # mode k
    m = sum(bit_operator(2 * n, bit[2 * i]) for i in range(n)) / np.sqrt(n)
    eta = sum(bit_operator(2 * n, bit[2 * i + 1], sum(bit[1:2 * i:2]))
              for i in range(n)) / np.sqrt(n)
    return ModelInstance("ModelIII", LatticeSpec(n, 2), (1.0,) * n,
                         m @ eta), eta


def model_iii_symmetric_sector_spectrum(n):
    """Eigenvalues of Model III's H on the symmetric pair sector, which H
    leaves invariant: the Dicke states in the pair variables (k pairs and
    no a^3, normalised) and eta_N^dag of each.  Only the 2(n+1)-dimensional
    sector matrix is dense.

    H B reads H only on the columns S where the basis B is nonzero, so only
    H[:, S] = Q (Q^dag)[:, S] + Q^dag Q[:, S] is formed: each of its
    entries sums the terms of the full product in the same order, so
    H[:, S] B is H B bit for bit.
    """
    inst, eta = build_model_iii_sector(n)
    # the bits of each site's a^3 (even) and pair (odd) of every state
    bits = (np.arange(4 ** n) >> np.arange(2 * n).reshape(n, 2, 1)) & 1
    pairs, empty = bits[:, 1].sum(axis=0), ~bits[:, 0].any(axis=0)
    eta_d, basis = eta.conj().T, []
    for k in range(n + 1):
        v = (empty & (pairs == k)).astype(complex)
        v /= np.linalg.norm(v)
        basis += [v, eta_d @ v]
    bmat = np.column_stack(basis)
    nz = np.nonzero(bmat)       # H B over the few nonzeros of B
    hb = (inst.h_columns(nz[0])
          @ Sparse(*nz, bmat[nz], bmat.shape)).toarray()
    return np.sort(np.linalg.eigvalsh(bmat.conj().T @ hb))


# ---------------------------------------------------------------------------
# BCS comparison


@dataclass(frozen=True)
class BcsModel:
    """H_BCS = -M^dag M together with the supersymmetric H_SS it shadows.

    diff_norm is ||H_BCS - (-H_SS)|| = ||eta eta^dag S_z|| / N, the bounded
    remainder (exactly 1) that separates the two Hamiltonians.
    """

    n: int
    representation: str
    h_bcs: Sparse
    h_ss: Sparse
    diff_norm: float


def build_bcs(n, representation="dicke"):
    """The pairing Hamiltonian -M^dag M in either representation.

    fock: on the 8^n Fock space of Model III (n <= 4).
    dicke: on the collective multiplet tensor Clifford mode, any n.
    """
    if representation == "fock":
        inst, pair = build_model_iii_fock(n)
        m = pair.m_n
        h_bcs = -(m.conj().T @ m)
        h_ss = inst.h
    elif representation == "dicke":
        ops = dicke.collective_ops(n)
        h_ss = Sparse.from_diagonals({0: dicke.hss_diagonal(ops)})
        h_bcs = Sparse.from_diagonals(
            {0: np.repeat(dicke.pairing_diagonal(ops), 2)})
    else:
        raise ValueError(f"unknown representation {representation!r}")
    return BcsModel(n=n, representation=representation,
                    h_bcs=h_bcs, h_ss=h_ss,
                    diff_norm=hermitian_norm(h_bcs + h_ss))

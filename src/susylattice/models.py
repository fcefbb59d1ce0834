"""Concrete supercharge models on the full fermionic Fock space.

Builders for the one-, two- and three-flavor lattices, the closed-form
supertransformation automorphisms, the non-nilpotent hopping candidate, and
the BCS comparison Hamiltonian.  H is always computed as {Q, Q^dag}; displayed
expansions are treated as checks, not definitions.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .operators import (
    NILPOTENCY_TOL,
    DimensionError,
    LatticeSpec,
    bracket,
    gauge_charge,
    hermitian_function,
    hermitian_norm,
    nilpotency_residual,
    read_only,
    sparse_annihilators,
)


@dataclass(frozen=True)
class ModelInstance:
    """A named model with its lattice, couplings and built operators (CSR,
    read-only data)."""

    kind: str
    spec: LatticeSpec
    couplings: tuple
    q: sparse.csr_matrix
    h: sparse.csr_matrix

    def g_alpha(self, alpha=0.0):
        return gauge_charge(self.q, alpha)


def _check_couplings(z):
    z = tuple(float(v) for v in z)
    if not z or any(v <= 0 for v in z):
        raise ValueError("couplings must be positive reals")
    return z


def _instance(kind, spec, z, q):
    q = read_only(q)
    h = read_only(q @ q.conj().T + q.conj().T @ q)
    return ModelInstance(kind=kind, spec=spec, couplings=z, q=q, h=h)


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
    if n > 10:
        raise DimensionError("Model I supports at most 10 sites")
    spec = LatticeSpec(n, 1)
    ops = sparse_annihilators(spec.modes)
    q = sum(zi * ai for zi, ai in zip(z, ops))
    return _instance(kind, spec, z, q)


def model_i_flow_closed(k, s, z):
    """Closed form a_k(s) = (a_k - z_k/2G) e^{-2isG} + z_k/2G for Model I.

    G^2 = sum z_i^2 > 0 makes G invertible.  A 1-D array of s gives a stack.
    """
    model = build_model_i(z)
    g = model.g_alpha(0.0)
    a_k = sparse_annihilators(model.spec.modes)[k].toarray()
    s = np.asarray(s)[..., None]
    g_inv = hermitian_function(g, lambda v: 1.0 / v)
    exp_m2isg = hermitian_function(g, lambda v: np.exp(-2j * s * v))
    shift = 0.5 * z[k] * g_inv
    return (a_k - shift) @ exp_m2isg + shift


# ---------------------------------------------------------------------------
# Model II: spin-up and spin-down fermions per site


def build_model_ii(z):
    """Q = sum_i z_i n_up,i a_down,i; H = sum_i z_i^2 n_up,i.

    Every H eigenvalue is at least 2^N-fold degenerate: the down-spin factor
    is untouched by H.
    """
    z = _check_couplings(z)
    n = len(z)
    if n > 6:
        raise DimensionError("Model II supports at most 6 sites")
    spec = LatticeSpec(n, 2)
    ops = sparse_annihilators(spec.modes)
    q = None
    for i, zi in enumerate(z):
        up = ops[spec.mode_index(i, 0)]
        dn = ops[spec.mode_index(i, 1)]
        term = zi * (up.conj().T @ up @ dn)
        q = term if q is None else q + term
    return _instance("ModelII", spec, z, q)


def model_ii_flow_closed(k, s, z):
    """Closed forms of the Model II supertransformation at site k.

    up:   a_up,k(s)   = a_up,k exp(-is(G - (a_dn,k + a_dn,k^dag) z_k)) exp(-isG)
    down: a_dn,k(s)   = a_dn,k exp(-2isG) + z_k n_up,k phi(G),
          phi(x) = (1 - exp(-2isx)) / (2x), extended by phi(0) = is.
    A 1-D array of s gives stacks, so the mode operators are dense arrays.
    """
    model = build_model_ii(z)
    spec = model.spec
    ops = sparse_annihilators(spec.modes)
    up, dn = (ops[spec.mode_index(k, f)].toarray() for f in (0, 1))
    g = model.g_alpha(0.0).toarray()
    shifted = g - z[k] * (dn + dn.conj().T)
    s = np.asarray(s)[..., None]
    exp_isg = hermitian_function(g, lambda v: np.exp(-1j * s * v))
    exp_shift = hermitian_function(shifted, lambda v: np.exp(-1j * s * v))
    a_up_s = up @ exp_shift @ exp_isg

    def phi(x):
        x = np.asarray(x, dtype=float)
        small = np.abs(x) < 1e-12
        safe = np.where(small, 1.0, x)
        return np.where(small, 1j * s, (1 - np.exp(-2j * s * safe)) / (2 * safe))

    exp_2isg = hermitian_function(g, lambda v: np.exp(-2j * s * v))
    n_up = up.conj().T @ up
    a_dn_s = dn @ exp_2isg + z[k] * (n_up @ hermitian_function(g, phi))
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
    q = None
    for i, zi in enumerate(z):
        j = (i + 1) % n
        if j == 0 and not periodic:
            continue
        term = zi * (ops[i].conj().T @ ops[i] @ ops[j])
        q = term if q is None else q + term
    return read_only(q)


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
    m_n: sparse.csr_matrix
    eta_n: sparse.csr_matrix
    pair_projector: sparse.csr_matrix


def build_model_iii_fock(n):
    """Model III on the full Fock space: Q = M_N eta_N, H = {Q, Q^dag}.

    Returns the ModelInstance together with the pair-algebra operators, all
    CSR with read-only data.
    """
    if n > 4:
        raise DimensionError("Model III supports at most 4 sites (3 flavors)")
    spec = LatticeSpec(n, 3)
    # site-major modes: a^f_i is mode 3i + f, occupation bit modes-1-(3i+f)
    ops = sparse_annihilators(spec.modes)
    b = tuple(read_only(ops[3 * i] @ ops[3 * i + 1]) for i in range(n))
    a3 = ops[2::3]
    m = read_only(sum(b) / np.sqrt(n))
    eta = read_only(sum(a3) / np.sqrt(n))
    # the projector prod_i [(1-n_i1)(1-n_i2) + n_i1 n_i2] is diagonal
    idx = np.arange(spec.dim)
    locked = np.ones(spec.dim, dtype=bool)
    for i in range(n):
        shift = spec.modes - 2 - 3 * i      # bit of a^2_i; a^1_i's is next
        locked &= ((idx >> shift) & 1) == ((idx >> (shift + 1)) & 1)
    pair = PairAlgebraOps(
        b_ops=b, a3_ops=a3, m_n=m, eta_n=eta,
        pair_projector=read_only(sparse.diags(locked.astype(complex))))
    return _instance("ModelIII", spec, (1.0,) * n, m @ eta), pair


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
            + eta @ eta.conj().T @ (sparse.identity(m.shape[0])
                                    - (2.0 / n) * num_pairs))


def model_iii_symmetric_sector_spectrum(n):
    """Eigenvalues of the Fock-space Model III H on the symmetric pair sector.

    The sector is spanned by the Dicke states in the pair variables tensored
    with {a^3 vacuum, eta_N^dag (a^3 vacuum)}; H leaves it invariant.  Only
    the 2(n+1)-dimensional sector matrix is dense.
    """
    inst, pair = build_model_iii_fock(n)
    b, eta = pair.b_ops, pair.eta_n
    dim = inst.spec.dim
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    b_dag = [x.conj().T.tocsr() for x in b]
    basis = []
    for k in range(n + 1):
        acc = np.zeros(dim, dtype=complex)
        for subset in itertools.combinations(range(n), k):
            v = vac
            for i in subset:
                v = b_dag[i] @ v
            acc = acc + v
        acc /= np.linalg.norm(acc)
        basis.append(acc)
        basis.append(eta.conj().T @ acc)
    bmat = np.column_stack(basis)
    return np.sort(np.linalg.eigvalsh(bmat.conj().T @ (inst.h @ bmat)))


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
    h_bcs: sparse.csr_matrix
    h_ss: sparse.csr_matrix
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
        from . import dicke

        ops = dicke.collective_ops(n)
        h_ss = dicke.build_hss_dicke(ops)
        h_bcs = -(ops.s_plus_full @ ops.s_minus_full) / n
    else:
        raise ValueError(f"unknown representation {representation!r}")
    return BcsModel(n=n, representation=representation,
                    h_bcs=read_only(h_bcs), h_ss=read_only(h_ss),
                    diff_norm=hermitian_norm(h_bcs + h_ss))
